package obs

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
)

// CLI bundles the observability flags every binary in this repo shares:
//
//	-v            debug-level logging
//	-quiet        suppress status logging
//	-trace FILE   JSONL span/counter trace
//	-serve ADDR   live telemetry HTTP server (/metrics, /runs, pprof)
//	-ledger DIR   per-run flight-recorder journals (JSONL per run)
//	-profile-dir DIR   phase-labelled cpu/heap pprof profiles, tool-named
//
// Register the flags on the binary's FlagSet, then call Start after
// parsing; the returned stop function shuts the telemetry server down,
// closes the ledger, flushes profiles, emits the final counter
// snapshot, prints the end-of-run span tree and resets the global obs
// state so repeated in-process runs (tests) stay hermetic.
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
	// ServedAddr is the telemetry server's resolved listen address after
	// Start when -serve was given (":0" resolves to an ephemeral port).
	ServedAddr string
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
	fs.StringVar(&c.Serve, "serve", "", "serve live telemetry (/metrics, /healthz, /readyz, /runs, /debug/pprof) on this host:port for the run's duration")
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

// ServeOptions configures the telemetry server started by -serve:
// the listen address and, when -ledger is also set, the journal
// directory the server rehydrates persisted run history from.
type ServeOptions struct {
	Addr      string
	LedgerDir string
}

// ServeHandle is a running telemetry server as seen by the CLI bundle:
// its resolved address, the run-tracking sink to register on the event
// stream, and the graceful shutdown entry point.
type ServeHandle struct {
	Addr     string
	Sink     Sink
	Shutdown func(context.Context) error
}

// serveHook starts a telemetry server on the given address. It is
// registered by the internal/obs/telemetry package's init (obs cannot
// import it — the server depends on this package), so binaries opt into
// -serve simply by importing internal/obs/telemetry.
var serveHook func(opts ServeOptions) (ServeHandle, error)

// RegisterServeHook installs the -serve implementation. Called once,
// from init; later registrations overwrite earlier ones.
func RegisterServeHook(h func(opts ServeOptions) (ServeHandle, error)) { serveHook = h }

// LedgerHandle is a running flight-recorder journal writer as seen by
// the CLI bundle: the sink to register on the event stream and the
// close entry point flushing per-run journal files.
type LedgerHandle struct {
	Sink  Sink
	Close func() error
}

// ledgerHook opens a ledger rooted at the given directory. Registered
// by the internal/obs/ledger package's init (via the telemetry blank
// import every binary already carries), mirroring serveHook.
var ledgerHook func(dir string) (LedgerHandle, error)

// RegisterLedgerHook installs the -ledger implementation. Called once,
// from init; later registrations overwrite earlier ones.
func RegisterLedgerHook(h func(dir string) (LedgerHandle, error)) { ledgerHook = h }

// Level resolves the flag pair into a log level.
func (c *CLI) Level() LogLevel {
	switch {
	case c.Quiet:
		return LevelQuiet
	case c.Verbose:
		return LevelDebug
	default:
		return LevelInfo
	}
}

// Start validates the flags, builds the shared logger on stderr, and —
// when -trace, -serve, -ledger or -profile-dir ask for it — enables the
// observability layer: -trace adds a JSONL sink plus an in-memory
// recorder for the final tree summary, -serve starts the telemetry
// server (requires internal/obs/telemetry to be linked in) and registers
// its run-tracking sink, and the requested pprof profiles are started.
// The stop function is safe to defer on every path (including flag
// errors, when it is a no-op); it shuts the server down gracefully,
// flushes and closes the trace, and restores the dark default.
func (c *CLI) Start(stderr io.Writer) (*Logger, func() error, error) {
	if c.Verbose && c.Quiet {
		return nil, nil, fmt.Errorf("obs: -v and -quiet are mutually exclusive")
	}
	log := NewLogger(stderr, c.Level())

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
	fail := func(err error) (*Logger, func() error, error) {
		// Best effort: release whatever was already set up.
		_ = stop()
		return nil, nil, err
	}

	var jsonl *JSONLSink
	var rec *Recorder
	var traceFile *os.File
	if c.Trace != "" {
		f, err := os.Create(c.Trace)
		if err != nil {
			return fail(err)
		}
		traceFile, jsonl, rec = f, NewJSONLSink(f), &Recorder{}
	}
	if c.Trace != "" || c.Serve != "" || c.Ledger != "" || c.ProfileDir != "" {
		if jsonl != nil {
			SetSinks(jsonl, rec)
		} else {
			SetSinks()
		}
		ResetCounters()
		Enable()
		// This cleanup runs last (LIFO): the telemetry server has already
		// shut down, so the final counter snapshot is the run's total.
		cleanups = append(cleanups, func() error {
			if jsonl != nil {
				EmitCounterSnapshot()
			}
			snapshot := Snapshot()
			Disable()
			SetSinks()
			ResetCounters()
			if jsonl == nil {
				return nil
			}
			if log.Enabled(LevelInfo) {
				// Summary goes through the logger's writer so -quiet
				// suppresses it alongside every other status line.
				w := log.Writer(LevelInfo)
				if err := WriteTree(w, rec.Events()); err != nil {
					return err
				}
				if err := WriteCounterTable(w, snapshot); err != nil {
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
		SetRunEvents(true)
		cleanups = append(cleanups, func() error {
			SetRunEvents(false)
			return nil
		})
	}
	if c.Ledger != "" {
		if ledgerHook == nil {
			return fail(fmt.Errorf("obs: -ledger needs the flight recorder linked in; import internal/obs/ledger (or internal/obs/telemetry)"))
		}
		h, err := ledgerHook(c.Ledger)
		if err != nil {
			return fail(err)
		}
		AddSink(h.Sink)
		cleanups = append(cleanups, h.Close)
		log.Infof("flight-recorder ledger appending under %s", c.Ledger)
	}
	if c.Serve != "" {
		if serveHook == nil {
			return fail(fmt.Errorf("obs: -serve needs the telemetry server linked in; import internal/obs/telemetry"))
		}
		h, err := serveHook(ServeOptions{Addr: c.Serve, LedgerDir: c.Ledger})
		if err != nil {
			return fail(err)
		}
		c.ServedAddr = h.Addr
		AddSink(h.Sink)
		cleanups = append(cleanups, func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			return h.Shutdown(ctx)
		})
		log.Infof("telemetry server listening on http://%s (/metrics /healthz /readyz /runs /debug/pprof)", h.Addr)
	}
	if c.ProfileDir != "" || c.Serve != "" {
		// Phase/run pprof labels cost one small allocation per span, so
		// they are only maintained when a profile consumer exists: an
		// on-disk CPU profile, or the server's /debug/pprof endpoints.
		SetProfileLabels(true)
		cleanups = append(cleanups, func() error {
			SetProfileLabels(false)
			return nil
		})
	}
	if c.ProfileDir != "" {
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
