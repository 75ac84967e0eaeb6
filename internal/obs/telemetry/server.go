// Package telemetry is the live run-progress surface of the repo: an
// embeddable, stdlib-only net/http server that serves structured run
// progress (/runs and its per-run routes) from a Sink registered on the
// obs event stream, and the CLI flag bundle every binary shares, which
// starts that server (-serve) and the flight-recorder ledger (-ledger)
// directly. Counters stay on the -trace path; profiles on -profile-dir.
// The server is read-only over run state, so watching a run perturbs
// neither its results nor (beyond the shared obs.On() branch) its cost
// model; see DESIGN.md §6.
package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"github.com/repro/snntest/internal/obs/ledger"
)

// Server is the embeddable telemetry HTTP server. Construct with New,
// start with Start (which binds the listener and reports the resolved
// address, so ":0" works in tests), and stop with Shutdown. Endpoints:
//
//	/runs                 JSON list of tracked runs (live + recent history)
//	/runs/{id}            one run, 404 when unknown
//	/runs/{id}/coverage   coverage-over-time curve + detection-latency histograms
//	/runs/{id}/events     the run's flight-recorder event tail
type Server struct {
	sink     *Sink
	srv      *http.Server
	serveErr chan error
}

// New builds an unstarted server with a fresh run-tracking sink.
func New() *Server {
	s := &Server{sink: NewSink(), serveErr: make(chan error, 1)}
	s.srv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	return s
}

// Sink returns the server's run tracker; register it on the obs event
// stream (obs.AddSink) so /runs has data.
func (s *Server) Sink() *Sink { return s.sink }

// Handler returns the server's route table, also usable standalone
// under httptest.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /runs", s.handleRuns)
	mux.HandleFunc("GET /runs/{id}", s.handleRun)
	mux.HandleFunc("GET /runs/{id}/coverage", s.handleRunCoverage)
	mux.HandleFunc("GET /runs/{id}/events", s.handleRunEvents)
	return mux
}

// Start binds addr (host:port; ":0" for an ephemeral port) and serves
// in a background goroutine, returning the resolved listen address. The
// goroutine is joined by Shutdown via the serveErr channel.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	go func() { s.serveErr <- s.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Shutdown drains in-flight requests gracefully within ctx's deadline
// and joins the serve goroutine.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if serr := <-s.serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("telemetry: shutdown: %w", err)
	}
	return nil
}

// runsResponse is the /runs JSON envelope.
type runsResponse struct {
	Runs []RunProgress `json:"runs"`
	Now  time.Time     `json:"now"`
}

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, runsResponse{Runs: s.sink.Runs(), Now: time.Now()})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	run, ok := s.sink.Run(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown run", http.StatusNotFound)
		return
	}
	writeJSON(w, run)
}

func (s *Server) handleRunCoverage(w http.ResponseWriter, r *http.Request) {
	curve, ok := s.sink.Coverage(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown run", http.StatusNotFound)
		return
	}
	writeJSON(w, curve)
}

// runEventsResponse is the /runs/{id}/events JSON envelope: the run's
// retained journal tail, oldest first.
type runEventsResponse struct {
	Run    string         `json:"run"`
	Events []ledger.Entry `json:"events"`
}

func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	events, ok := s.sink.Events(id)
	if !ok {
		http.Error(w, "unknown run", http.StatusNotFound)
		return
	}
	writeJSON(w, runEventsResponse{Run: id, Events: events})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Encode errors mean the client hung up mid-response.
	_ = enc.Encode(v)
}
