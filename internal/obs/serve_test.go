package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"beambench/internal/metrics"
)

// scrapeClient returns a client whose idle connections are torn down at
// test end, keeping the package's goleak gate clean.
func scrapeClient(t *testing.T) *http.Client {
	t.Helper()
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Transport: tr, Timeout: 10 * time.Second}
}

func get(t *testing.T, c *http.Client, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// populatedPlane builds a plane with one running cell that has every
// live source attached, next to one pending cell.
func populatedPlane(t *testing.T) *Plane {
	t.Helper()
	p := NewPlane(500, 2)
	p.Expect([]string{`cell "weird\name`, "cell-two"})

	col := metrics.NewCollector()
	col.Stage("source").Mark(42)
	col.ObserveLatencySeconds([]float64{0.1})

	tr := NewTracer(4).Scoped(`cell "weird\name/run0`)
	tr.Gauge("watermark-lag/op").SetTime(time.Unix(50, 0))

	p.Cell(`cell "weird\name`).StartRun(CellSources{
		Collector:   col,
		Tracer:      tr,
		ConsumerLag: func() []LagSample { return []LagSample{{Topic: "input", Partition: 1, Lag: 9}} },
		TopicEnds:   func() (int64, int64, bool) { return 100, 42, true },
	})
	return p
}

func TestServeEndpoints(t *testing.T) {
	p := populatedPlane(t)
	s, err := p.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}()
	c := scrapeClient(t)

	// /snapshot is the plane's one exposition; there is no /metrics.
	if code, _, _ := get(t, c, s.URL()+"/metrics"); code != http.StatusNotFound {
		t.Fatalf("/metrics status = %d, want 404", code)
	}

	code, body, hdr := get(t, c, s.URL()+"/snapshot")
	if code != http.StatusOK {
		t.Fatalf("/snapshot status = %d", code)
	}
	if got := hdr.Get("Content-Type"); got != "application/json; charset=utf-8" {
		t.Fatalf("/snapshot content type = %q", got)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/snapshot does not decode: %v", err)
	}
	if snap.Schema != SnapshotSchemaVersion || len(snap.Cells) != 2 {
		t.Fatalf("/snapshot payload = %+v", snap)
	}
	if lat := snap.Cells[0].Latency; lat == nil || lat.Count != 1 || lat.P99 != 0.1 {
		t.Fatalf("/snapshot running cell latency = %+v", lat)
	}

	code, body, _ = get(t, c, s.URL()+"/debug/pprof/")
	if code != http.StatusOK || body == "" {
		t.Fatalf("/debug/pprof/ status = %d, body %d bytes", code, len(body))
	}
	code, _, _ = get(t, c, s.URL()+"/debug/pprof/goroutine?debug=1")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/goroutine status = %d", code)
	}
}

func TestServeCloseIdempotent(t *testing.T) {
	s, err := NewPlane(1, 1).Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	var nilServer *Server
	if err := nilServer.Close(); err != nil {
		t.Fatalf("nil close: %v", err)
	}
}

func TestServeRejectsBadAddr(t *testing.T) {
	if _, err := NewPlane(1, 1).Serve("definitely:not:an:addr"); err == nil {
		t.Fatal("bad address accepted")
	}
}
