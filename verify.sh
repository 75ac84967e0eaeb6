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

# Formatting gate: every Go file, the bench/ module's included, must be
# gofmt-clean.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "verify.sh: gofmt needs to be run on:" >&2
    echo "$unformatted" >&2
    exit 1
fi
go build ./...
go vet ./...
go run ./cmd/snnlint ./...
go test -race ./...
# Gradient gate: finite-difference checks of every autograd op plus the
# AST audit that fails when an op lacks a gradcheck case.
go test -run GradCheck ./internal/autograd/
# Determinism/equivalence gate: the Equiv tests pin (a) the incremental
# golden-trace-replay campaign to the full re-simulation reference,
# (b) the generation engine's arena-backed fused graph to the composed
# heap RunGraph oracle — spike frames, losses and input gradients bit
# for bit over several optimization steps and a growth — and (c) the
# multi-restart generator's determinism — worker-count invariance,
# Restarts 0 and 1 agreement, and the seed-pinned
# Generate→Compact→fault-classification pipeline golden — and must
# survive repeated runs bit-identically.
go test -run Equiv -count=2 ./...
# Kernel gate: the fused forward kernels are event-driven — each
# accumulates only the active entries of its input row, listed by the
# previous layer's LIF sweep or read from the golden record — and must
# stay allocation-free across a whole Run/RunFrom pass, the first pass
# after a new fault included (the zero-alloc tests fail on any
# regression); a scratch must see a fault applied to its network after
# its creation, the aliased-golden guard must keep rejecting, and the
# healthy sweep and sparse override sweep must keep bit-matching as
# documented.
# The BPTT kernel behind RunGraphFused is gated the same way: a forward
# plus backward pass must allocate nothing once the network has run at
# its step count, and its generation-graph differential (every root
# shape, NMNIST with trained weights at 256 steps, SHD at 64) and fuzz
# seeds must keep matching the composed RunGraph tape bit for bit across
# repeated runs.
# The fused-vs-reference equivalence suite itself already runs under the
# Equiv gate above.
go test -count=2 -run 'ZeroAlloc|TestScratch|TestStepLayer' ./internal/snn/
go test -count=2 -run 'TestEquivGenerationGraph|FuzzRunGraphFused' ./internal/core/
# Fuzz smoke: ten seconds of coverage-guided fuzzing per target beyond
# its seeds: the fused forward kernels (dense/recurrent, and conv/pool
# over random geometry and non-binary stimuli), golden-list replay
# against the reference path (fixture, start layer, fault, non-binary
# stimulus), the telemetry server's /runs/{id} routes, which must answer
# only 200, 404 or 405 for fuzzed ids and methods, the generation graph
# against its RunGraph oracle (fixture, builder seed, duration, τ, noise
# seed), and the ledger journal reader plus the curve fold it feeds,
# which must never panic. FuzzReadRun seeds a line past the
# reader's 1 MiB bound, and minimizing inputs that size would eat the
# ten seconds, so its smoke skips minimization.
go test -run '^$' -fuzz '^FuzzFusedLIF$' -fuzztime 10s ./internal/snn/
go test -run '^$' -fuzz '^FuzzFusedConvPool$' -fuzztime 10s ./internal/snn/
go test -run '^$' -fuzz '^FuzzReplayActiveLists$' -fuzztime 10s ./internal/snn/
go test -run '^$' -fuzz '^FuzzRunPaths$' -fuzztime 10s ./internal/obs/telemetry/
go test -run '^$' -fuzz '^FuzzRunGraphFused$' -fuzztime 10s ./internal/core/
go test -run '^$' -fuzz '^FuzzReadRun$' -fuzztime 10s -fuzzminimizetime 1x ./internal/obs/ledger/
# Observability gate: the obs layer must be race-clean (spans and
# counters are hit from every campaign/generation worker), and the
# quickstart trace tests assert that a -trace run emits parseable JSONL
# covering calibrate → generate → compact → campaign with counters that
# reconcile against the printed results, while leaving stdout
# byte-identical to a dark run.
go test -race ./internal/obs/
go test -run 'TestRunTrace' ./examples/quickstart/
# Telemetry gate: the live server's route set, /runs tracking and
# lifecycle must be race-clean, and an interrupted quickstart must
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
# Phase 2: profile_gate reads the capture with go tool pprof and gates
# it: ≥95% of CPU samples must carry a phase label, and ≥80% of the
# generate subtree's samples must sit inside the kernel phases (restart
# growth, stage-2 extension, calibration) — CPU leaking into bookkeeping
# spans fails the gate. Phases nest by name ("generate/restart" is
# inside "generate"), so a subtree is its name plus every name under
# "<name>/". A capture under 50 samples is too short to judge and fails,
# as does one with no phase labels at all. The per-phase table goes to
# .profile-smoke/phases.txt.
profile_gate() {
    go tool pprof -tags -sample_index=samples "$1" >"$2"
    go tool pprof -top -sample_index=samples "$1" >"$2.top"
    total=$(sed -n 's/.* of \([0-9][0-9]*\) total$/\1/p' "$2.top")
    rm -f "$2.top"
    cat "$2"
    awk -v total="${total:-0}" '
        # Each label key opens a block "key: Total N" whose rows read
        # "N (P%): value"; only the phase block counts.
        /^ *[^ ]+: Total / { key = $1; if (key == "phase:") labeled = $3; next }
        key == "phase:" && /\): / {
            name = $0; sub(/^[^)]*\): */, "", name)
            if (name == "generate" || name ~ /^generate\//) root += $1
            if (name ~ /^generate\/(restart|stage2|calibrate)(\/|$)/) kernel += $1
        }
        function fail(msg) { print "verify.sh: profile gate: " msg; exit 1 }
        END {
            if (total < 50) fail(total " samples < floor 50")
            share = 0
            if (root > 0) share = kernel / root
            printf "%d samples, labelled fraction %.4f, kernel share of generate %.4f\n",
                total, labeled / total, share
            if (labeled / total < 0.95) fail("labelled fraction below 0.95")
            if (root == 0) fail("no samples in the generate subtree")
            if (share < 0.80) fail("kernel share of generate below 0.80")
        }
    ' "$2"
}
go build -o /tmp/snntest-gen ./cmd/snntestgen
rm -rf .profile-smoke
mkdir .profile-smoke
/tmp/snntest-gen -bench nmnist -scale tiny -profile-dir .profile-smoke -quiet >.profile-smoke/snntestgen.txt
rm -f /tmp/snntest-gen
profile_gate .profile-smoke/snntestgen.cpu.pprof .profile-smoke/phases.txt
# One-configuration gate: every command builds its pipeline through
# experiments.NewPipeline from ScaledOptions, so the snntestgen run above
# and benchreport must print the same NMNIST Table III row at the same
# scale and seed. Only the wall-clock runtime row may differ; the rule
# line is as wide as the header row, so it must match too.
table3() { sed -n '/^Table III:/,/^$/p' | grep -v -e '^Test generation runtime'; }
go run ./cmd/benchreport -scale tiny -seed 1 -bench nmnist -table 3 -quiet >.profile-smoke/benchreport.txt
table3 <.profile-smoke/snntestgen.txt >.profile-smoke/snntestgen.table3
table3 <.profile-smoke/benchreport.txt >.profile-smoke/benchreport.table3
[ -s .profile-smoke/benchreport.table3 ] || { echo "verify.sh: benchreport printed no Table III" >&2; exit 1; }
diff .profile-smoke/snntestgen.table3 .profile-smoke/benchreport.table3 ||
    { echo "verify.sh: snntestgen and benchreport disagree on the NMNIST Table III row" >&2; exit 1; }
# Live-serve + flight-recorder gate, two phases. Phase 1: a quickstart
# run with -ledger journals its campaigns under .ledger-smoke. Phase 2:
# a second process with -serve + the same -ledger rehydrates those
# journals into /runs history (restart survival), and the gate reads a
# rehydrated run's coverage curve, checking the curve is monotone
# nondecreasing and ends at detected/total.
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
