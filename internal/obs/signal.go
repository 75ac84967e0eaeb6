package obs

import (
	"context"
	"os"
	"os/signal"
	"syscall"
)

// SignalContext returns a copy of parent that is cancelled on SIGINT or
// SIGTERM — the graceful-shutdown root every CLI threads through its
// pipeline. Cancellation is cooperative: generation loops return their
// partial result, campaigns run to completion, and the deferred
// telemetry.CLI stop then flushes the trace and shuts the telemetry
// server down, so an interrupted run never leaves a truncated JSONL
// file. The returned CancelFunc (defer it) unregisters the handler,
// restoring the default immediate-exit disposition for any signal after
// the run.
func SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
}
