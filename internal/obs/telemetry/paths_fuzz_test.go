package telemetry

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"github.com/repro/snntest/internal/obs"
)

// FuzzRunPaths drives the /runs/{id}, /runs/{id}/coverage and
// /runs/{id}/events routes with fuzzed run ids and methods against a
// sink that holds one run. The id is escaped into a single path segment,
// so it reaches the route as the {id} wildcard whatever bytes it holds.
// The handler must never panic, must answer only 200, 404 or 405, and
// must answer 200 exactly for the known id under GET or HEAD.
func FuzzRunPaths(f *testing.F) {
	const known = "campaign-simulate-0001"
	s := New()
	now := time.Now()
	s.Sink().Emit(obs.Event{Kind: obs.KindRunStart, Run: known, Name: "campaign/simulate", Total: 2, Start: now})
	s.Sink().Emit(obs.Event{Kind: obs.KindFault, Run: known, Name: "campaign/simulate",
		Fault: &obs.FaultOutcome{Index: 0, Detected: true, DivStep: 3}, Start: now})
	s.Sink().Emit(obs.Event{Kind: obs.KindRunEnd, Run: known, Done: 2, Total: 2, Start: now})
	h := s.Handler()

	suffixes := []string{"", "/coverage", "/events"}
	methods := []string{http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodDelete}
	f.Add(known, byte(0), byte(0))
	f.Add(known, byte(1), byte(0))
	f.Add(known, byte(2), byte(1))
	f.Add(known, byte(1), byte(2))
	f.Add("unknown-run", byte(0), byte(0))
	f.Add("a/b?c#d", byte(2), byte(0))
	f.Add("%zz\x00\xff", byte(1), byte(4))
	f.Fuzz(func(t *testing.T, id string, suffixB, methodB byte) {
		if id == "" || id == "." || id == ".." {
			// Not a path segment: ServeMux cleans such paths and
			// redirects before any route sees them.
			t.Skip()
		}
		path := "/runs/" + url.PathEscape(id) + suffixes[int(suffixB)%len(suffixes)]
		method := methods[int(methodB)%len(methods)]
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(method, path, nil))
		switch rr.Code {
		case http.StatusOK, http.StatusNotFound, http.StatusMethodNotAllowed:
		default:
			t.Fatalf("%s %s: status %d, want 200, 404 or 405", method, path, rr.Code)
		}
		wantOK := id == known && (method == http.MethodGet || method == http.MethodHead)
		if (rr.Code == http.StatusOK) != wantOK {
			t.Fatalf("%s %s: status %d for id %q", method, path, rr.Code, id)
		}
	})
}
