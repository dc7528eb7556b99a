package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"beambench/internal/aol"
	"beambench/internal/beam"
	"beambench/internal/beam/graphx"
	"beambench/internal/broker"
	"beambench/internal/keyhash"
	"beambench/internal/metrics"
	"beambench/internal/queries"
	"beambench/internal/simcost"
	"beambench/internal/watermark"
)

// The layer drivers time calls to each layer's public functions from
// outside, at zero cost, with fixed iteration counts; every number is
// the median of layerRounds rounds. They are workload-independent.
const (
	layerRounds  = 5
	layerRecords = 20_000
)

// sink keeps results alive so the compiler cannot drop a measured call.
var sink int

// layerData is the input the drivers share, made from the seed.
type layerData struct {
	seed    uint64
	records [][]byte
	users   [][]byte
	times   []time.Time
}

func newLayerData(seed uint64) (*layerData, error) {
	gen, err := aol.NewGenerator(aol.Config{Records: layerRecords, Seed: seed, GrepHits: -1})
	if err != nil {
		return nil, err
	}
	d := &layerData{seed: seed, records: gen.All()}
	for _, rec := range d.records {
		user, err := queries.UserKey(rec)
		if err != nil {
			return nil, err
		}
		et, err := queries.EventTime(rec)
		if err != nil {
			return nil, err
		}
		d.users = append(d.users, user)
		d.times = append(d.times, et)
	}
	return d, nil
}

// layerOut collects a driver's metrics and its first error.
type layerOut struct {
	metrics []metricValue
	err     error
}

func (o *layerOut) add(name, unit string, value float64) {
	o.metrics = append(o.metrics, metricValue{Name: name, Unit: unit, Value: value})
}

// check keeps the first error; a layer call failing on generated input
// fails the whole traced run.
func (o *layerOut) check(err error) {
	if err != nil && o.err == nil {
		o.err = err
	}
}

// medianOfRounds is the median of layerRounds evaluations of f.
func medianOfRounds(f func() float64) float64 {
	xs := make([]float64, layerRounds)
	for i := range xs {
		xs[i] = f()
	}
	m, _ := median(xs) // layerRounds > 0
	return m
}

// measure returns the median time and allocations per operation of n
// operations. round does the untimed set-up of one round on fresh state
// and returns the function that performs all n operations.
func measure(n int, round func() func()) (ns, allocs float64) {
	nss := make([]float64, layerRounds)
	als := make([]float64, layerRounds)
	for i := range nss {
		run := round()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		run()
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		nss[i] = float64(d.Nanoseconds()) / float64(n)
		als[i] = float64(m1.Mallocs-m0.Mallocs) / float64(n)
	}
	ns, _ = median(nss)
	allocs, _ = median(als)
	return ns, allocs
}

// layerDriver measures one layer (a module of the repository).
type layerDriver struct {
	layer string
	run   func(d *layerData, out *layerOut)
}

func layerDrivers() []layerDriver {
	return []layerDriver{
		{"simcost", layerSimcost},
		{"broker", layerBroker},
		{"beam", layerCoders},
		{"keyhash", layerKeyhash},
		{"watermark", layerWatermark},
		{"graphx", layerGraphx},
		{"queries", layerQueries},
		{"metrics", layerMetrics},
		{"aol", layerAOL},
	}
}

// runLayers runs every layer driver under its own span.
func runLayers(seed uint64, spans *recorder, parent int) ([]metricValue, error) {
	d, err := newLayerData(seed)
	if err != nil {
		return nil, err
	}
	var out layerOut
	for _, drv := range layerDrivers() {
		sp := spans.begin(drv.layer, "driver", parent)
		drv.run(d, &out)
		spans.end(sp)
		if out.err != nil {
			return nil, fmt.Errorf("layer %s: %w", drv.layer, out.err)
		}
	}
	return out.metrics, nil
}

func layerSimcost(_ *layerData, out *layerOut) {
	// Elapsed over charged time: 4 us charges flushed at the meter's
	// 100 us threshold (the busy-wait path), then 5 ms charges (sleep
	// plus spin).
	overshoot := func(charge time.Duration, n int) float64 {
		return medianOfRounds(func() float64 {
			m := simcost.New(1).NewMeter()
			t0 := time.Now()
			for range n {
				m.Charge(charge)
			}
			m.Flush()
			return float64(time.Since(t0)) / float64(m.Charged())
		})
	}
	out.add("simcost.realize.overshoot_ratio_100us", "ratio", overshoot(4*time.Microsecond, 5000))
	out.add("simcost.realize.overshoot_ratio_5ms", "ratio", overshoot(5*time.Millisecond, 4))

	// 50k charges of 1 ns stay below the flush threshold; a zero charge
	// takes the early-out.
	const n = 50_000
	charge := func(d time.Duration) float64 {
		ns, _ := measure(n, func() func() {
			m := simcost.New(1).NewMeter()
			return func() {
				for range n {
					m.Charge(d)
				}
			}
		})
		return ns
	}
	out.add("simcost.charge.accrue_ns", "ns", charge(time.Nanosecond))
	out.add("simcost.charge.zero_ns", "ns", charge(0))
}

const layerTopic = "layer"

// newLayerBroker returns a cost-free broker with the benchmark's topic
// shape, holding the given records.
func newLayerBroker(out *layerOut, preload [][]byte) *broker.Broker {
	b := broker.New()
	out.check(b.CreateTopic(layerTopic, broker.TopicConfig{Partitions: 1, ReplicationFactor: 1, Timestamps: broker.LogAppendTime}))
	if len(preload) > 0 {
		p, err := b.NewProducer(broker.ProducerConfig{})
		out.check(err)
		for _, rec := range preload {
			out.check(p.Send(layerTopic, nil, rec))
		}
		out.check(p.Close())
	}
	return b
}

func layerBroker(d *layerData, out *layerOut) {
	produce := func(batch, n int) (ns, allocs float64) {
		return measure(n, func() func() {
			b := newLayerBroker(out, nil)
			p, err := b.NewProducer(broker.ProducerConfig{BatchSize: batch})
			out.check(err)
			return func() {
				for _, rec := range d.records[:n] {
					out.check(p.Send(layerTopic, nil, rec))
				}
				out.check(p.Close())
			}
		})
	}
	ns, allocs := produce(500, layerRecords)
	out.add("broker.produce.ns_per_record", "ns", ns)
	out.add("broker.produce.allocs_per_record", "count", allocs)
	// A flush per send is the Beam-on-Apex sink's pattern.
	ns, _ = produce(1, layerRecords/4)
	out.add("broker.produce_unbatched.ns_per_record", "ns", ns)

	ns, allocs = measure(layerRecords, func() func() {
		b := newLayerBroker(out, d.records)
		c, err := b.NewConsumer(broker.ConsumerConfig{})
		out.check(err)
		out.check(c.AssignAll(layerTopic))
		return func() {
			for got := 0; got < layerRecords; {
				recs, err := c.Poll()
				out.check(err)
				if len(recs) == 0 {
					out.check(fmt.Errorf("broker fetch: drained after %d of %d records", got, layerRecords))
					return
				}
				got += len(recs)
			}
		}
	})
	out.add("broker.fetch.ns_per_record", "ns", ns)
	out.add("broker.fetch.allocs_per_record", "count", allocs)

	// Append -> PollWait return, with the consumer on its own goroutine.
	const wakes = 200
	out.add("broker.pollwait_wake.us", "us", medianOfRounds(func() float64 {
		b := newLayerBroker(out, nil)
		c, err := b.NewConsumer(broker.ConsumerConfig{})
		out.check(err)
		out.check(c.AssignAll(layerTopic))
		p, err := b.NewProducer(broker.ProducerConfig{BatchSize: 1})
		out.check(err)
		woke := make(chan time.Time)
		go func() {
			defer close(woke)
			for got := 0; got < wakes; {
				recs, err := c.PollWait(0)
				if err != nil {
					return
				}
				now := time.Now()
				got += len(recs)
				for range recs {
					woke <- now
				}
			}
		}()
		var total time.Duration
		for range wakes {
			time.Sleep(100 * time.Microsecond) // let the consumer block again
			t0 := time.Now()
			out.check(p.Send(layerTopic, nil, d.records[0]))
			t1, ok := <-woke
			if !ok {
				out.check(fmt.Errorf("broker pollwait: consumer stopped early"))
				break
			}
			total += t1.Sub(t0)
		}
		b.Close() // releases the consumer if it stopped short
		for range woke {
		}
		return float64(total.Microseconds()) / wakes
	}))

	ns, _ = measure(layerRecords, func() func() {
		b := newLayerBroker(out, d.records)
		return func() {
			ts, err := b.Timestamps(layerTopic, 0)
			out.check(err)
			sink += len(ts)
			out.check(b.VisitRecords(layerTopic, 0, func(r broker.Record) error {
				sink += len(r.Value)
				return nil
			}))
		}
	})
	out.add("broker.visit.ns_per_record", "ns", ns)
}

func layerCoders(d *layerData, out *layerOut) {
	const n = layerRecords
	window := beam.IntervalWindow{Start: d.times[0], End: d.times[0].Add(time.Second)}
	cases := []struct {
		name  string
		coder beam.Coder
		elem  func(i int) any
	}{
		{"bytes", beam.BytesCoder{}, func(i int) any { return d.records[i] }},
		{"stringutf8", beam.StringUTF8Coder{}, func(i int) any { return string(d.records[i]) }},
		{"kv", beam.KVCoder{Key: beam.StringUTF8Coder{}, Value: beam.BytesCoder{}},
			func(i int) any { return beam.KV{Key: string(d.users[i]), Value: d.records[i]} }},
		{"kafkarecord", beam.KafkaRecordCoder{},
			func(i int) any {
				return beam.KafkaRecord{Topic: layerTopic, Offset: int64(i), Timestamp: d.times[i], Value: d.records[i]}
			}},
		{"grouped", beam.GroupedCoder{}, func(i int) any {
			return beam.Grouped{Key: string(d.users[i]), Values: []any{d.records[i], d.records[(i+1)%n], d.records[(i+2)%n]}, Window: window}
		}},
	}
	for _, c := range cases {
		ns, allocs := measure(n, func() func() {
			elems := make([]any, n)
			for i := range elems {
				elems[i] = c.elem(i)
			}
			return func() {
				for _, e := range elems {
					wire, err := c.coder.Encode(e)
					out.check(err)
					v, err := c.coder.Decode(wire)
					out.check(err)
					if v == nil {
						sink++
					}
				}
			}
		})
		out.add("beam.coder."+c.name+".roundtrip_ns", "ns", ns)
		out.add("beam.coder."+c.name+".allocs", "count", allocs)
	}
}

func layerKeyhash(d *layerData, out *layerOut) {
	ns, _ := measure(layerRecords, func() func() {
		return func() {
			for _, u := range d.users {
				sink += keyhash.Partition(u, 4)
			}
		}
	})
	out.add("keyhash.partition.ns", "ns", ns)
}

func layerWatermark(d *layerData, out *layerOut) {
	const n = layerRecords
	ns, _ := measure(n, func() func() {
		g := watermark.NewGenerator(time.Second)
		return func() {
			for _, t := range d.times {
				if g.Observe(t) {
					sink++
				}
			}
		}
	})
	out.add("watermark.generator.observe_ns", "ns", ns)

	ns, _ = measure(n, func() func() {
		m := watermark.NewMinTracker(4)
		return func() {
			for i, t := range d.times {
				m.Advance(i%4, t)
				sink += m.Combined().Nanosecond()
			}
		}
	})
	out.add("watermark.mintracker.advance_ns", "ns", ns)

	upsert := func(a watermark.Assigner) (float64, float64) {
		return measure(n, func() func() {
			s, err := watermark.NewWindowState[watermark.NumAcc](a, nil)
			out.check(err)
			return func() {
				for i, t := range d.times {
					s.Upsert(t, string(d.users[i]), func(acc *watermark.NumAcc) { acc.Add(1) })
				}
			}
		})
	}
	tumbling, err := watermark.NewTumblingAssigner(queries.WindowedCountWindow)
	out.check(err)
	sliding, err := watermark.NewSlidingAssigner(queries.SlidingSumWindow, queries.SlidingSumSlide)
	out.check(err)
	ns, allocs := upsert(tumbling)
	out.add("watermark.windowstate.upsert_tumbling_ns", "ns", ns)
	out.add("watermark.windowstate.upsert_tumbling.allocs", "count", allocs)
	ns, _ = upsert(sliding)
	out.add("watermark.windowstate.upsert_sliding_ns", "ns", ns)

	// FireReady with the watermark below the earliest window end and that
	// many windows open: the call Flink makes for every record.
	for _, open := range []int{8, 512} {
		const calls = 2000
		ns, _ = measure(calls, func() func() {
			s, err := watermark.NewWindowState[watermark.NumAcc](tumbling, nil)
			out.check(err)
			base := d.times[0]
			for w := range open {
				s.Upsert(base.Add(time.Duration(w)*queries.WindowedCountWindow), "u", func(acc *watermark.NumAcc) { acc.Add(1) })
			}
			return func() {
				for range calls {
					out.check(s.FireReady(base, func(watermark.Pane[watermark.NumAcc]) error {
						return fmt.Errorf("pane fired below the watermark")
					}))
				}
			}
		})
		out.add("watermark.windowstate.fireready_idle_ns.open"+strconv.Itoa(open), "ns", ns)
	}

	var panes int
	ns, _ = measure(1, func() func() {
		s, err := watermark.NewWindowState[watermark.NumAcc](tumbling, nil)
		out.check(err)
		for i, t := range d.times {
			s.Upsert(t, string(d.users[i]), func(acc *watermark.NumAcc) { acc.Add(1) })
		}
		return func() {
			panes = 0
			out.check(s.FireAll(func(watermark.Pane[watermark.NumAcc]) error {
				panes++
				return nil
			}))
		}
	})
	out.add("watermark.windowstate.fire_ns_per_pane", "ns", ns/float64(max(panes, 1)))
}

// layerPipeline builds a query's Beam pipeline over an empty broker, as
// the runners receive it.
func layerPipeline(out *layerOut, q queries.Query) *beam.Pipeline {
	b := newLayerBroker(out, nil)
	out.check(b.CreateTopic("out", broker.TopicConfig{Partitions: 1, ReplicationFactor: 1}))
	p, err := queries.BeamPipeline(queries.Workload{Broker: b, InputTopic: layerTopic, OutputTopic: "out", Seed: sampleSeed}, q)
	out.check(err)
	return p
}

func layerGraphx(d *layerData, out *layerOut) {
	const n = layerRecords
	// The GroupByKey executable, configured like the runners configure
	// it: from the lowered WindowedCount pipeline's GroupByKey stage.
	plan, err := graphx.Lower(layerPipeline(out, queries.WindowedCount), graphx.Options{})
	out.check(err)
	if out.err != nil {
		return
	}
	var cfg graphx.GBKConfig
	for _, st := range plan.Stages {
		if st.Kind() == beam.KindGroupByKey {
			in := st.Inputs()[0]
			kv, ok := in.Coder().(beam.KVCoder)
			if !ok {
				out.check(fmt.Errorf("GroupByKey input coder %s is not a KV coder", in.Coder().Name()))
				return
			}
			cfg = graphx.GBKConfig{Windowing: in.Windowing(), Input: kv, Output: st.Output().Coder()}
		}
	}
	wire := make([][]byte, n)
	for i := range wire {
		wire[i], err = cfg.Input.Encode(beam.KV{Key: string(d.users[i]), Value: d.records[i]})
		out.check(err)
	}
	noEmit := func([]byte) error { return fmt.Errorf("pane fired without a watermark") }
	ns, allocs := measure(n, func() func() {
		g, err := graphx.NewGBKState(cfg)
		out.check(err)
		return func() {
			for _, rec := range wire {
				out.check(g.Process(rec, noEmit))
			}
		}
	})
	out.add("graphx.gbkstate.process_ns_per_record", "ns", ns)
	out.add("graphx.gbkstate.allocs_per_record", "count", allocs)

	var panes int
	ns, _ = measure(1, func() func() {
		g, err := graphx.NewGBKState(cfg)
		out.check(err)
		for _, rec := range wire {
			out.check(g.Process(rec, noEmit))
		}
		return func() {
			panes = 0
			out.check(g.Flush(func([]byte) error {
				panes++
				return nil
			}))
		}
	})
	out.add("graphx.gbkstate.fire_ns_per_pane", "ns", ns/float64(max(panes, 1)))

	// The fused ParDo chain of the Identity pipeline (WithoutMetadata ->
	// Values -> Identity), fed KafkaRecord elements like the Apex runner.
	fused, err := graphx.Lower(layerPipeline(out, queries.Identity), graphx.Options{Fusion: true})
	out.check(err)
	if out.err != nil {
		return
	}
	var fn beam.DoFn
	for _, st := range fused.Stages {
		if st.Fused() {
			fn = st.Fn()
		}
	}
	if fn == nil {
		out.check(fmt.Errorf("the Identity plan has no fused stage"))
		return
	}
	ns, _ = measure(n, func() func() {
		elems := make([]any, n)
		for i := range elems {
			elems[i] = beam.KafkaRecord{Topic: layerTopic, Value: d.records[i]}
		}
		return func() {
			for _, e := range elems {
				out.check(fn.ProcessElement(beam.Context{}, e, func(any) error {
					sink++
					return nil
				}))
			}
		}
	})
	out.add("graphx.fusedfn.process_ns", "ns", ns)

	const lowers = 200
	ns, _ = measure(lowers, func() func() {
		p := layerPipeline(out, queries.WindowedCount)
		return func() {
			for range lowers {
				pl, err := graphx.Lower(p, graphx.Options{Fusion: true})
				out.check(err)
				sink += pl.OperatorCount()
			}
		}
	})
	out.add("graphx.lower.us", "us", ns/1e3)
}

func layerQueries(d *layerData, out *layerOut) {
	const n = layerRecords
	tagged := make([][]byte, n)
	for i, rec := range d.records {
		tagged[i] = queries.TagSideA(rec)
	}
	ns, _ := measure(n, func() func() {
		s := queries.NewJoinState()
		return func() {
			for _, t := range tagged {
				out.check(s.Add(t))
			}
		}
	})
	out.add("queries.joinstate.add_ns", "ns", ns)

	const calls = 2000
	ns, _ = measure(calls, func() func() {
		s := queries.NewJoinState()
		for _, t := range tagged[:512] {
			out.check(s.Add(t))
		}
		return func() {
			for range calls {
				out.check(s.Fire(d.times[0], func([]byte) error {
					return fmt.Errorf("join pane fired below the watermark")
				}))
			}
		}
	})
	out.add("queries.joinstate.fire_idle_ns", "ns", ns)

	ns, _ = measure(n, func() func() {
		return func() {
			for _, rec := range d.records {
				t, err := queries.EventTime(rec)
				out.check(err)
				sink += t.Nanosecond()
			}
		}
	})
	out.add("queries.event_time.parse_ns", "ns", ns)

	ns, _ = measure(n, func() func() {
		return func() {
			for _, rec := range d.records {
				if queries.SampleKeep(rec, sampleSeed) {
					sink++
				}
			}
		}
	})
	out.add("queries.sample_keep.ns", "ns", ns)

	newIndex := func() *queries.SurvivorIndex {
		ix, err := queries.NewSurvivorIndex(queries.Identity, sampleSeed)
		out.check(err)
		return ix
	}
	ns, _ = measure(n, func() func() {
		ix := newIndex()
		return func() {
			for _, rec := range d.records {
				ix.AddInput(rec)
			}
			sink += ix.Expected()
		}
	})
	out.add("queries.survivor_index.build_ns_per_record", "ns", ns)
	ns, _ = measure(n, func() func() {
		ix := newIndex()
		if out.err != nil {
			return func() {}
		}
		for _, rec := range d.records {
			ix.AddInput(rec)
		}
		ix.Expected()
		return func() {
			p := ix.NewPairing()
			for _, rec := range d.records {
				in, err := p.Pair(rec)
				out.check(err)
				sink += in
			}
		}
	})
	out.add("queries.survivor_index.pair_ns_per_record", "ns", ns)
}

func layerMetrics(d *layerData, out *layerOut) {
	const n = 100_000
	ns, _ := measure(n, func() func() {
		s := metrics.MustSketch()
		x := d.seed | 1
		return func() {
			for range n {
				x = x*6364136223846793005 + 1442695040888963407
				s.Insert(float64(x>>40) / (1 << 24))
			}
		}
	})
	out.add("metrics.sketch.insert_ns", "ns", ns)
	ns, _ = measure(n, func() func() {
		st := metrics.NewCollector().Stage("layer")
		return func() {
			for range n {
				st.Mark(1)
			}
		}
	})
	out.add("metrics.stage.mark_ns", "ns", ns)
}

func layerAOL(d *layerData, out *layerOut) {
	ns, _ := measure(layerRecords, func() func() {
		gen, err := aol.NewGenerator(aol.Config{Records: layerRecords, Seed: d.seed, GrepHits: -1})
		out.check(err)
		return func() {
			if out.err == nil {
				sink += len(gen.All())
			}
		}
	})
	out.add("aol.generate.ns_per_record", "ns", ns)
}
