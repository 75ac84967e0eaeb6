package telemetry

import (
	"github.com/repro/snntest/internal/obs"
	// Import-for-effect: linking the telemetry server in also registers
	// the flight-recorder ledger's -ledger hook.
	_ "github.com/repro/snntest/internal/obs/ledger"
)

// init wires this package into the shared obs.CLI -serve flag: any
// binary that imports telemetry (every cmd and examples/quickstart)
// gains the live server without further plumbing, mirroring the
// net/http/pprof import-for-effect idiom.
func init() {
	obs.RegisterServeHook(func(opts obs.ServeOptions) (obs.ServeHandle, error) {
		s := New()
		if opts.LedgerDir != "" {
			// Rehydrate persisted run history so /runs and the coverage
			// endpoints survive process restarts (including SIGKILL'd
			// writers — the journal reader tolerates torn final lines).
			if err := s.Sink().Rehydrate(opts.LedgerDir); err != nil {
				return obs.ServeHandle{}, err
			}
		}
		bound, err := s.Start(opts.Addr)
		if err != nil {
			return obs.ServeHandle{}, err
		}
		return obs.ServeHandle{Addr: bound, Sink: s.Sink(), Shutdown: s.Shutdown}, nil
	})
}
