package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// shutdownGrace bounds how long Close waits for in-flight scrapes
// before tearing connections down hard.
const shutdownGrace = 5 * time.Second

// Server is the exposition endpoint of one plane: /snapshot as
// versioned JSON, and /debug/pprof for live profiling. It serves scrape traffic only —
// nothing on it touches a per-record path.
type Server struct {
	ln  net.Listener
	srv *http.Server
	wg  sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	serveErr error
}

// Serve starts an exposition server for the plane on addr (host:port;
// an empty host or port 0 binds an ephemeral port — read the actual
// address back with Addr). The caller owns the returned server and
// must Close it; Close is idempotent and leaves no goroutine behind.
// A nil plane still serves — every endpoint just exposes the empty
// snapshot — so callers can build the server before the harness fills
// the plane in.
func (p *Plane) Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: serve %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(p.Snapshot())
	})
	// The pprof handlers are registered explicitly rather than through
	// net/http/pprof's DefaultServeMux side effect, so the benchmark
	// binary never exposes profiling on a mux it did not build.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{ln: ln, srv: &http.Server{Handler: mux}}
	s.wg.Add(1)
	go func() {
		// Signals completion via the WaitGroup; Serve returns once Close
		// or Shutdown tears the listener down.
		defer s.wg.Done()
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.mu.Lock()
			s.serveErr = err
			s.mu.Unlock()
		}
	}()
	return s, nil
}

// Addr reports the server's bound address (useful with port 0).
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL reports the server's base URL.
func (s *Server) URL() string {
	if s == nil {
		return ""
	}
	return "http://" + s.Addr()
}

// Close shuts the server down: a graceful Shutdown bounded by
// shutdownGrace (scrapes in flight finish), then a hard Close, then a
// wait for the accept goroutine. Idempotent and nil-safe; no goroutine
// survives it.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	_ = s.srv.Close()
	s.wg.Wait()
	s.mu.Lock()
	if err == nil {
		err = s.serveErr
	}
	s.mu.Unlock()
	return err
}
