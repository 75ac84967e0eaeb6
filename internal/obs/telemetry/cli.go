package telemetry

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/repro/snntest/internal/obs"
	"github.com/repro/snntest/internal/obs/ledger"
)

// CLI bundles the observability flags every binary in this repo shares:
//
//	-v            debug-level logging
//	-quiet        suppress status logging
//	-trace FILE   JSONL span/counter trace
//	-serve ADDR   live run-progress HTTP server (/runs)
//	-ledger DIR   per-run flight-recorder journals (JSONL per run)
//	-profile-dir DIR   phase-labelled cpu/heap pprof profiles, tool-named
//
// Register the flags on the binary's FlagSet, then call Start after
// parsing; the returned stop function shuts the server down, closes the
// ledger, flushes profiles, emits the final counter snapshot, prints
// the end-of-run span tree and resets the global obs state so repeated
// in-process runs (tests) stay hermetic.
type CLI struct {
	Verbose bool
	Quiet   bool
	Trace   string
	Serve   string
	Ledger  string
	// ProfileDir writes the profile pair — <tool>.cpu.pprof and
	// <tool>.heap.pprof, named after the registered FlagSet so paths are
	// stable across runs (no timestamps) and CI can upload them as
	// artifacts.
	ProfileDir string
	// tool is the FlagSet name captured by Register; it names the
	// -profile-dir files.
	tool string
}

// Register installs the shared flags on fs.
func (c *CLI) Register(fs *flag.FlagSet) {
	c.tool = fs.Name()
	fs.BoolVar(&c.Verbose, "v", false, "verbose (debug-level) status logging")
	fs.BoolVar(&c.Quiet, "quiet", false, "suppress status logging")
	fs.StringVar(&c.Trace, "trace", "", "write a JSONL span/counter trace to this file")
	fs.StringVar(&c.Serve, "serve", "", "serve live run progress (/runs) on this host:port for the run's duration")
	fs.StringVar(&c.Ledger, "ledger", "", "append per-run flight-recorder journals (JSONL) under this directory")
	fs.StringVar(&c.ProfileDir, "profile-dir", "", "write phase-labelled <tool>.cpu.pprof and <tool>.heap.pprof profiles under this directory")
}

// toolName returns the profile-file stem: the FlagSet name captured at
// Register, or a neutral fallback for a CLI built without Register.
func (c *CLI) toolName() string {
	if c.tool == "" {
		return "profile"
	}
	return c.tool
}

// Level resolves the flag pair into a log level.
func (c *CLI) Level() obs.LogLevel {
	switch {
	case c.Quiet:
		return obs.LevelQuiet
	case c.Verbose:
		return obs.LevelDebug
	default:
		return obs.LevelInfo
	}
}

// Start validates the flags, builds the shared logger on stderr, and —
// when -trace, -serve, -ledger or -profile-dir ask for it — enables the
// observability layer: -trace adds a JSONL sink plus an in-memory
// recorder for the final tree summary, -ledger opens the flight
// recorder, -serve starts the server (rehydrating the -ledger history)
// and registers its run-tracking sink, and -profile-dir starts the
// pprof profiles.
// The stop function is safe to defer on every path (including flag
// errors, when it is a no-op); it shuts the server down gracefully,
// flushes and closes the trace, and restores the dark default.
func (c *CLI) Start(stderr io.Writer) (*obs.Logger, func() error, error) {
	if c.Verbose && c.Quiet {
		return nil, nil, fmt.Errorf("obs: -v and -quiet are mutually exclusive")
	}
	log := obs.NewLogger(stderr, c.Level())

	if c.ProfileDir != "" {
		if err := os.MkdirAll(c.ProfileDir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("obs: -profile-dir: %w", err)
		}
	}

	var cleanups []func() error
	stop := func() error {
		var first error
		// LIFO, mirroring defer semantics.
		for i := len(cleanups) - 1; i >= 0; i-- {
			if err := cleanups[i](); err != nil && first == nil {
				first = err
			}
		}
		cleanups = nil
		return first
	}
	fail := func(err error) (*obs.Logger, func() error, error) {
		// Best effort: release whatever was already set up.
		_ = stop()
		return nil, nil, err
	}

	var jsonl *obs.JSONLSink
	var rec *obs.Recorder
	var traceFile *os.File
	if c.Trace != "" {
		f, err := os.Create(c.Trace)
		if err != nil {
			return fail(err)
		}
		traceFile, jsonl, rec = f, obs.NewJSONLSink(f), &obs.Recorder{}
	}
	if c.Trace != "" || c.Serve != "" || c.Ledger != "" || c.ProfileDir != "" {
		if jsonl != nil {
			obs.SetSinks(jsonl, rec)
		} else {
			obs.SetSinks()
		}
		obs.ResetCounters()
		obs.Enable()
		// This cleanup runs last (LIFO): the server has already shut
		// down, so the final counter snapshot is the run's total.
		cleanups = append(cleanups, func() error {
			if jsonl != nil {
				obs.EmitCounterSnapshot()
			}
			snapshot := obs.Snapshot()
			obs.Disable()
			obs.SetSinks()
			obs.ResetCounters()
			if jsonl == nil {
				return nil
			}
			if log.Enabled(obs.LevelInfo) {
				// Summary goes through the logger's writer so -quiet
				// suppresses it alongside every other status line.
				w := log.Writer(obs.LevelInfo)
				if err := obs.WriteTree(w, rec.Events()); err != nil {
					return err
				}
				if err := obs.WriteCounterTable(w, snapshot); err != nil {
					return err
				}
			}
			if err := jsonl.Err(); err != nil {
				_ = traceFile.Close()
				return fmt.Errorf("obs: trace write: %w", err)
			}
			if err := traceFile.Close(); err != nil {
				return fmt.Errorf("obs: trace close: %w", err)
			}
			log.Infof("trace written to %s", c.Trace)
			return nil
		})
	}
	if c.Serve != "" || c.Ledger != "" {
		// Per-run flight-recorder events, progress included, only flow
		// when something consumes them; a plain -trace run records spans
		// and counters only.
		obs.SetRunEvents(true)
		cleanups = append(cleanups, func() error {
			obs.SetRunEvents(false)
			return nil
		})
	}
	if c.Ledger != "" {
		l, err := ledger.Open(c.Ledger)
		if err != nil {
			return fail(err)
		}
		obs.AddSink(l)
		cleanups = append(cleanups, l.Close)
		log.Infof("flight-recorder ledger appending under %s", c.Ledger)
	}
	if c.Serve != "" {
		s := New()
		if c.Ledger != "" {
			// Rehydrate persisted run history so /runs and the coverage
			// endpoints survive process restarts (including SIGKILL'd
			// writers — the journal reader tolerates torn final lines).
			if err := s.Sink().Rehydrate(c.Ledger); err != nil {
				return fail(err)
			}
		}
		addr, err := s.Start(c.Serve)
		if err != nil {
			return fail(err)
		}
		obs.AddSink(s.Sink())
		cleanups = append(cleanups, func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			return s.Shutdown(ctx)
		})
		log.Infof("telemetry server listening on http://%s (/runs)", addr)
	}
	if c.ProfileDir != "" {
		// Phase/run pprof labels cost one small allocation per span, so
		// they are only maintained when an on-disk CPU profile consumes
		// them.
		obs.SetProfileLabels(true)
		cleanups = append(cleanups, func() error {
			obs.SetProfileLabels(false)
			return nil
		})
		cpuPath := filepath.Join(c.ProfileDir, c.toolName()+".cpu.pprof")
		f, err := os.Create(cpuPath)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close()
			return fail(err)
		}
		cleanups = append(cleanups, func() error {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				return err
			}
			log.Infof("CPU profile written to %s", cpuPath)
			return nil
		})
		memPath := filepath.Join(c.ProfileDir, c.toolName()+".heap.pprof")
		cleanups = append(cleanups, func() error {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				_ = f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			log.Infof("heap profile written to %s", memPath)
			return nil
		})
	}
	return log, stop, nil
}
