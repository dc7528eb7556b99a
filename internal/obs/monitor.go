package obs

import (
	"sort"
	"strconv"
	"sync"
	"time"
)

// GaugeSummary is the per-run time series digest of one counter track,
// carried into the report so a cell answers "what was the peak lag"
// without re-opening the trace.
type GaugeSummary struct {
	Name    string  `json:"name"`
	Samples int     `json:"samples"`
	Max     float64 `json:"max"`
	Mean    float64 `json:"mean"`
	Last    float64 `json:"last"`
}

// Monitor is the per-run sampling goroutine: at each tick it reads the
// run's CellSources — the same read the Plane performs per scrape —
// and records consumer lag, stage rates and watermark lag as counter
// events on the tracer, accumulating summaries. A nil Monitor no-ops;
// Start without Stop leaks nothing because Stop is idempotent and the
// goroutine owns a done channel + WaitGroup.
type Monitor struct {
	t        *Tracer
	interval time.Duration
	src      CellSources

	mu      sync.Mutex
	series  map[string]*GaugeSummary
	order   []string
	stopped bool

	done chan struct{}
	wg   sync.WaitGroup
}

// NewMonitor builds a monitor reading src at interval (minimum 1ms)
// and recording on the given tracer scope. A nil tracer yields a nil
// monitor.
func NewMonitor(t *Tracer, interval time.Duration, src CellSources) *Monitor {
	if t == nil {
		return nil
	}
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	return &Monitor{
		t:        t,
		interval: interval,
		src:      src,
		series:   make(map[string]*GaugeSummary),
		done:     make(chan struct{}),
	}
}

// Start launches the sampling goroutine. Nil-safe.
func (m *Monitor) Start() {
	if m == nil {
		return
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		//beamvet:allow determinism telemetry sampling ticker: it reads gauges, never record bytes
		tick := time.NewTicker(m.interval)
		defer tick.Stop()
		for {
			select {
			case <-m.done:
				return
			case <-tick.C:
				m.tick()
			}
		}
	}()
}

// Stop terminates the goroutine, takes one final sample so runs
// shorter than the interval still observe their gauges, and returns
// the accumulated summaries sorted by name. Idempotent; the second
// call returns the same summaries without sampling again.
func (m *Monitor) Stop() []GaugeSummary {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	alreadyStopped := m.stopped
	m.stopped = true
	m.mu.Unlock()
	if !alreadyStopped {
		close(m.done)
	}
	m.wg.Wait()
	if !alreadyStopped {
		m.tick()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]GaugeSummary, 0, len(m.order))
	for _, name := range m.order {
		out = append(out, *m.series[name])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// tick reads the sources once and records every value.
func (m *Monitor) tick() {
	cs := m.src.read()
	for _, l := range cs.ConsumerLag {
		m.record("consumer-lag/"+l.Topic+"/p"+strconv.Itoa(l.Partition), float64(l.Lag))
	}
	for _, s := range cs.Stages {
		m.record("rate/"+s.Name, float64(s.CurrentRate))
	}
	for _, w := range cs.WatermarkLag {
		m.record("watermark-lag/"+w.Operator, w.LagSec)
	}
}

// record emits a counter event and folds the value into the series
// summary. The counter event carries the fully scoped name (trace
// tracks must be unique per run); the series summary carries the bare
// name, so the summaries of one cell's runs merge by gauge in
// MergeGaugeSummaries.
func (m *Monitor) record(name string, v float64) {
	full := m.t.track(name)
	m.t.core.record(Event{Track: full, Name: full, Phase: PhaseCounter, Start: m.t.Now(), Value: v})
	m.mu.Lock()
	s, ok := m.series[name]
	if !ok {
		s = &GaugeSummary{Name: name}
		m.series[name] = s
		m.order = append(m.order, name)
	}
	s.Samples++
	if v > s.Max {
		s.Max = v
	}
	s.Mean += (v - s.Mean) / float64(s.Samples)
	s.Last = v
	m.mu.Unlock()
}

// MergeGaugeSummaries folds b's series into a by name, weighting means
// by sample count, for aggregating the runs of one cell.
func MergeGaugeSummaries(a, b []GaugeSummary) []GaugeSummary {
	if len(a) == 0 {
		return b
	}
	byName := make(map[string]int, len(a))
	for i := range a {
		byName[a[i].Name] = i
	}
	for _, s := range b {
		i, ok := byName[s.Name]
		if !ok {
			byName[s.Name] = len(a)
			a = append(a, s)
			continue
		}
		dst := &a[i]
		total := dst.Samples + s.Samples
		if total > 0 {
			dst.Mean = (dst.Mean*float64(dst.Samples) + s.Mean*float64(s.Samples)) / float64(total)
		}
		dst.Samples = total
		if s.Max > dst.Max {
			dst.Max = s.Max
		}
		dst.Last = s.Last
	}
	sort.Slice(a, func(i, j int) bool { return a[i].Name < a[j].Name })
	return a
}
