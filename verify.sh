#!/bin/sh
# verify.sh — the full verification gate for this repo.
#
# Tier 1 (build + vet) must always pass; the snnlint suite enforces the
# repo-specific invariants (see internal/lint and README.md), and the
# race run exercises the shared worker pool, the multi-restart
# generation engine, and the tensor/autograd concurrency contracts. Any
# non-zero exit fails the gate.
set -eu
cd "$(dirname "$0")"

go build ./...
go vet ./...
# The incremental driver caches per-package results keyed by content
# hash: repeat verify runs skip re-analyzing unchanged packages.
go run ./cmd/snnlint -cache .snnlint-cache.json ./...
go test -race ./...
# Gradient gate: finite-difference checks of every autograd op plus the
# AST audit that fails when an op lacks a gradcheck case.
go test -run GradCheck ./internal/autograd/
# Determinism/equivalence gate: the Equiv tests pin (a) the incremental
# golden-trace-replay campaign to the full re-simulation reference and
# (b) the multi-restart generator's determinism — worker-count
# invariance, Restarts 0 and 1 agreement, and the seed-pinned
# Generate→Compact→fault-classification pipeline golden — and must
# survive repeated runs bit-identically.
go test -run Equiv -count=2 ./...
# Kernel gate: the fused forward kernels are event-driven — each
# accumulates only the non-zero entries of its input row — and must stay
# allocation-free across a whole Run/RunFrom pass (the AllocsPerRun tests
# fail on any regression), and the stale-scratch geometry guard plus the
# healthy-layer fast loop must keep rejecting/bit-matching as documented.
# The fused-vs-reference equivalence suite itself already runs under the
# Equiv gate above.
go test -run 'ZeroAlloc|TestScratch|TestStepLayer' ./internal/snn/
# Fuzz smoke: ten seconds of coverage-guided differential fuzzing per
# fused-kernel target (dense/recurrent, and conv/pool over random
# geometry and non-binary stimuli) beyond their committed seed corpora.
go test -run '^$' -fuzz '^FuzzFusedLIF$' -fuzztime 10s ./internal/snn/
go test -run '^$' -fuzz '^FuzzFusedConvPool$' -fuzztime 10s ./internal/snn/
# Observability gate: the obs layer must be race-clean (spans and
# counters are hit from every campaign/generation worker), and the
# quickstart trace tests assert that a -trace run emits parseable JSONL
# covering calibrate → generate → compact → campaign with counters that
# reconcile against the printed results, while leaving stdout
# byte-identical to a dark run.
go test -race ./internal/obs/
go test -run 'TestRunTrace' ./examples/quickstart/
# Telemetry gate: the live server's exposition format, /runs tracking
# and lifecycle must be race-clean, and an interrupted quickstart must
# still flush a complete trace (graceful SIGINT shutdown).
go test -race ./internal/obs/telemetry/
go test -run 'TestSigintFlushesTrace' ./examples/quickstart/
# Benchmark gate: bench/ is its own module, so `go test ./...` above
# never reaches it. Its tests smoke-run every workload body at a reduced
# budget, which must pass the run's correctness checks and emit every
# metric BENCHMARK.json lists, and pin --compare's verdicts and the
# quartile statistics.
(cd bench && go test ./...)
# Profile attribution gate, two phases. Phase 1: a full tiny snntestgen
# run with -profile-dir captures a phase-labelled CPU profile (and must
# not perturb the pipeline — the dark-identity test above pins that).
# Phase 2: benchreport -profile folds the capture by phase label and
# gates it: ≥95% of CPU samples must carry a phase label, and ≥80% of
# the generate subtree's CPU must sit inside the stepLayer/kernel
# phases (restart growth, stage-2 extension, calibration) — CPU leaking
# into bookkeeping spans fails the gate. Emits BENCH_profile.json.
go build -o /tmp/snntest-gen ./cmd/snntestgen
rm -rf .profile-smoke
/tmp/snntest-gen -bench nmnist -scale tiny -profile-dir .profile-smoke -quiet
go run ./cmd/benchreport -profile .profile-smoke/snntestgen.cpu.pprof \
    -profile-out BENCH_profile.json -profile-min-labeled 0.95 -profile-kernel-min 0.80
rm -f /tmp/snntest-gen
# Live-serve + flight-recorder gate, two phases. Phase 1: a quickstart
# run with -ledger journals its campaigns under .ledger-smoke. Phase 2:
# a second process with -serve + the same -ledger rehydrates those
# journals into /runs history (restart survival), and the gate scrapes
# /metrics, /healthz, and a rehydrated run's coverage curve, checking
# the curve is monotone nondecreasing and ends at detected/total.
if command -v curl >/dev/null 2>&1; then
    go build -o /tmp/snntest-quickstart ./examples/quickstart
    rm -rf .ledger-smoke
    /tmp/snntest-quickstart -ledger .ledger-smoke >/dev/null 2>&1
    ls .ledger-smoke/*.jsonl >/dev/null 2>&1 || { echo "verify.sh: -ledger run wrote no journals" >&2; exit 1; }
    # Not -quiet: the gate parses the "listening on" stderr line for the
    # resolved ephemeral port.
    /tmp/snntest-quickstart -serve 127.0.0.1:0 -ledger .ledger-smoke >/dev/null 2>/tmp/snntest-serve.log &
    QS_PID=$!
    ADDR=""
    for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
        ADDR=$(sed -n 's#.*telemetry server listening on http://\([^ ]*\).*#\1#p' /tmp/snntest-serve.log)
        [ -n "$ADDR" ] && break
        sleep 0.2
    done
    [ -n "$ADDR" ] || { echo "verify.sh: telemetry server never announced its address" >&2; kill "$QS_PID" 2>/dev/null; exit 1; }
    curl -fsS "http://$ADDR/healthz" >/dev/null
    # Buffer the scrape before grepping: -q closing the pipe mid-body
    # makes curl report a write error now that the runtime gauges have
    # grown the exposition past one pipe buffer.
    curl -fsS "http://$ADDR/metrics" >/tmp/snntest-metrics.txt
    grep -q '^# TYPE snn_forward_passes_total counter$' /tmp/snntest-metrics.txt
    # The per-scrape runtime sampler must populate its gauges live.
    grep -q '^# TYPE runtime_goroutines_count gauge$' /tmp/snntest-metrics.txt
    rm -f /tmp/snntest-metrics.txt
    # Phase 1's campaign journals must be visible as rehydrated history,
    # and the run's coverage curve must be monotone nondecreasing.
    RUN_ID=$(basename "$(ls .ledger-smoke/campaign-*.jsonl | head -n 1)" .jsonl)
    curl -fsS "http://$ADDR/runs" | grep -q "\"$RUN_ID\"" || { echo "verify.sh: rehydrated run $RUN_ID missing from /runs" >&2; kill "$QS_PID" 2>/dev/null; exit 1; }
    # The endpoint pretty-prints; flatten to one line before parsing.
    curl -fsS "http://$ADDR/runs/$RUN_ID/coverage" | tr -d ' \n\t' >/tmp/snntest-coverage.json
    FINAL=$(sed -n 's/.*"detected":\([0-9][0-9]*\),"steps".*/\1/p' /tmp/snntest-coverage.json)
    sed -n 's/.*"points":\[\([^]]*\)\].*/\1/p' /tmp/snntest-coverage.json | tr '{' '\n' |
        sed -n 's/.*"detected":\([0-9][0-9]*\).*/\1/p' | awk -v final="$FINAL" '
        NR > 1 && $1 < prev { print "coverage curve not monotone: " $1 " after " prev; exit 1 }
        { prev = $1 }
        END {
            # A campaign that detected nothing legitimately has no curve
            # points; otherwise the endpoint must equal detected/total.
            if (NR == 0 && final != 0) { print "coverage curve empty with " final " detections"; exit 1 }
            if (NR > 0 && prev != final) { print "curve endpoint " prev " != campaign detected " final; exit 1 }
        }
    ' || { echo "verify.sh: /runs/$RUN_ID/coverage failed the monotone gate" >&2; kill "$QS_PID" 2>/dev/null; exit 1; }
    wait "$QS_PID"
    rm -f /tmp/snntest-quickstart /tmp/snntest-serve.log /tmp/snntest-coverage.json
else
    echo "verify.sh: curl not found; skipping the live-serve scrape gate" >&2
fi

echo "verify.sh: all gates passed"
