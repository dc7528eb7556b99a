package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"beambench/internal/beam"
	"beambench/internal/metrics"
	"beambench/internal/obs"
	"beambench/internal/queries"
	"beambench/internal/simcost"
)

// scrapeClient returns a client whose idle connections are torn down at
// test end, keeping the package's goleak gate clean.
func scrapeClient(t *testing.T) *http.Client {
	t.Helper()
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Transport: tr, Timeout: 10 * time.Second}
}

func scrape(c *http.Client, url string) (string, error) {
	resp, err := c.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body), nil
}

// TestServeMidRunConformance runs a windowed stream-mode cell with the
// telemetry plane attached and scrapes /snapshot throughout: every
// scrape must decode under the current schema, the cell's counters must
// never decrease across one scraper's scrapes, and the final snapshot
// must show the cell done. Several scrapers hammer the server
// concurrently with the run, so the whole path is exercised under
// -race.
func TestServeMidRunConformance(t *testing.T) {
	const records = 2_000
	plane := obs.NewPlane(records, 1)
	r, err := New(Config{
		Records:           records,
		Runs:              1,
		DisableNoise:      true,
		CollectMetrics:    true,
		Ingest:            IngestStream,
		RateRecordsPerSec: 4_000, // ~0.5s sending window: scrapes land mid-run
		Plane:             plane,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := plane.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close server: %v", err)
		}
	}()

	setup := Setup{System: SystemFlink, API: APIBeam, Query: queries.WindowedCount, Parallelism: 2}
	done := make(chan struct{})
	var runErr error
	go func() {
		defer close(done)
		_, runErr = r.RunCell(setup)
	}()

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	scrapes := make([]int, 4)
	for i := range scrapes {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			tr := &http.Transport{}
			defer tr.CloseIdleConnections()
			c := &http.Client{Transport: tr, Timeout: 10 * time.Second}
			// Each scraper checks monotonicity over its own ordered
			// sequence of scrapes.
			last := map[string]int64{}
			for {
				select {
				case <-done:
					return
				default:
				}
				body, err := scrape(c, srv.URL()+"/snapshot")
				if err != nil {
					errc <- err
					return
				}
				var snap obs.Snapshot
				if err := json.Unmarshal([]byte(body), &snap); err != nil {
					errc <- fmt.Errorf("/snapshot does not decode: %w", err)
					return
				}
				if snap.Schema != obs.SnapshotSchemaVersion {
					errc <- fmt.Errorf("/snapshot schema = %d", snap.Schema)
					return
				}
				if err := monotone(last, snap); err != nil {
					errc <- fmt.Errorf("scrape %d: %w", scrapes[idx], err)
					return
				}
				scrapes[idx]++
				time.Sleep(2 * time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	<-done
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if runErr != nil {
		t.Fatalf("run failed under scraping: %v", runErr)
	}
	total := 0
	for _, n := range scrapes {
		total += n
	}
	if total == 0 {
		t.Fatal("no scrape completed while the cell ran")
	}

	// Final state: the cell is done, one run completed, and the plane
	// still serves a conformant exposition.
	c := scrapeClient(t)
	body, err := scrape(c, srv.URL()+"/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Progress.Done != 1 || snap.Progress.Running != 0 {
		t.Fatalf("final progress = %+v", snap.Progress)
	}
	if len(snap.Cells) != 1 {
		t.Fatalf("final snapshot cells = %+v", snap.Cells)
	}
	cell := snap.Cells[0]
	if cell.State != obs.CellDone || cell.RunsDone != 1 {
		t.Fatalf("final cell = %+v", cell)
	}
	if cell.OutputRecords <= 0 || cell.InputRecords != records {
		t.Fatalf("final cell offsets: in=%d out=%d", cell.InputRecords, cell.OutputRecords)
	}
	if len(cell.Stages) == 0 {
		t.Fatal("final cell has no stage snapshots")
	}
	if cell.Latency == nil || cell.Latency.Count <= 0 {
		t.Fatalf("final cell latency = %+v", cell.Latency)
	}

}

// monotone checks one scrape against the previous scrape of the same
// scraper: for the one-run cell the test drives, runs done, every
// stage's record count, the latency count and both topic end offsets
// only ever grow. last carries the counters from scrape to scrape.
func monotone(last map[string]int64, snap obs.Snapshot) error {
	for _, cell := range snap.Cells {
		now := map[string]int64{
			"runsDone":      int64(cell.RunsDone),
			"inputRecords":  cell.InputRecords,
			"outputRecords": cell.OutputRecords,
		}
		if cell.Latency != nil {
			now["latency.count"] = cell.Latency.Count
		}
		for _, st := range cell.Stages {
			now["stage "+st.Name] = st.Records
		}
		for name, v := range now {
			k := cell.Key + " " + name
			if prev, ok := last[k]; ok && v < prev {
				return fmt.Errorf("%s went backwards: %d -> %d", k, prev, v)
			}
			last[k] = v
		}
	}
	return nil
}

// TestSkippedCellReachesPlane checks the skip path: an unsupported
// setup must land on the plane as skipped with the reason attached.
func TestSkippedCellReachesPlane(t *testing.T) {
	orig := nativeExecutors[SystemApex]
	defer func() { nativeExecutors[SystemApex] = orig }()
	nativeExecutors[SystemApex] = func(r *Runner, setup Setup, w queries.Workload, sim *simcost.Simulator, col *metrics.Collector, tr *obs.Tracer) error {
		return fmt.Errorf("stub: %w: pretend the engine cannot run %s", beam.ErrUnsupported, setup.Query)
	}
	plane := obs.NewPlane(50, 1)
	r, err := New(Config{Records: 50, Runs: 1, DisableNoise: true, Plane: plane})
	if err != nil {
		t.Fatal(err)
	}
	setup := Setup{System: SystemApex, API: APINative, Query: queries.Grep, Parallelism: 1}
	res, err := r.RunCell(setup)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || !res[0].Skipped {
		t.Fatalf("results = %+v, want one skipped", res)
	}
	snap := plane.Snapshot()
	if len(snap.Cells) != 1 {
		t.Fatalf("snapshot cells = %+v", snap.Cells)
	}
	if snap.Cells[0].State != obs.CellSkipped || snap.Cells[0].SkipReason == "" {
		t.Fatalf("cell = %+v", snap.Cells[0])
	}
	if snap.Progress.Skipped != 1 {
		t.Fatalf("progress = %+v", snap.Progress)
	}
}
