#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md): everything here must pass offline — no
# network, no registry. The default workspace has zero external
# dependencies by policy (root Cargo.toml); the excluded `heavy/`
# package holds the proptest/criterion suites and is built on request
# only.
#
# The gate runs in stages with per-stage timing (human summary at
# the end, machine-readable in ci-timings.json):
#
#   fmt
#   clippy
#   build    (release)
#   test     (debug-for-tests)
#   determinism: perf --check — simulated cycles must match the frozen
#     fingerprints in BENCH_dispatch.json bit-for-bit
#   metrics: perf --metrics --check — the windowed series for the vpr
#     benchmark must match the committed BENCH_metrics_vpr.csv golden
#     byte-for-byte (regenerate with --metrics --bless when a simulated
#     behavior change is intentional)
#   superblock: perf --superblock --check — guest instruction
#     retirement must be identical across off/static/recorded region
#     modes for every benchmark × opt cell
#   profile: the host wall-time profiler must be invisible to the
#     simulation — perf --profile --check stdout must be byte-identical
#     to plain --check, and the profiler's own wall cost on the
#     fingerprint benches must stay under 5% (perf --profile --overhead,
#     min-of-N)
#   fuzz: differential fuzzing — the committed corpus replays clean and
#     fixed-seed generated batches find zero divergences
#   figures: figures --fig all --scale small must reproduce the
#     "# Raw output" block of EXPERIMENTS.md byte-for-byte
#   scaling gate: on multi-core hosts, the fig5 sweep fanned out over
#     4 threads must be >= 1.8x faster than on 1 thread (skipped on
#     single-core hosts, where no wall-clock speedup is physically
#     possible). Sweep fan-out is the one place host parallelism lives;
#     every simulation itself runs serially.
#
# There is one build configuration: the tracer, the metrics recorder
# and the host profiler are always compiled in and switched on at
# runtime (System::enable_*), so clippy/build/test each run once.
#
# Every stage that skips itself says so inline AND in the end-of-run
# summary — a skip is a host limitation, never a silent pass.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

STAGE_NAMES=()
STAGE_SECS=()
STAGE_STATUS=()
# Stage functions set this non-empty (with a reason) to report
# themselves skipped; run_stage resets it before each stage.
STAGE_SKIPPED=""

# The stage in progress, so a failing run still records it.
CURRENT_STAGE=""
CURRENT_T0=0

# Machine-readable per-stage timings (uploaded as a CI artifact).
write_timings() {
    local i total=0 comma
    {
        echo '{'
        echo '  "stages": ['
        for i in "${!STAGE_NAMES[@]}"; do
            total=$((total + STAGE_SECS[i]))
            comma=','
            [ "$((i + 1))" -eq "${#STAGE_NAMES[@]}" ] && comma=''
            printf '    { "name": "%s", "seconds": %d, "status": "%s" }%s\n' \
                "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}" "${STAGE_STATUS[$i]}" "$comma"
        done
        echo '  ],'
        printf '  "total_seconds": %d\n' "$total"
        echo '}'
    } > ci-timings.json
    echo "ci: wrote ci-timings.json"
}

# On a failing exit, record the stage that failed and the ones before
# it, so ci-timings.json always describes this run. The exit status is
# unchanged.
on_exit() {
    local code=$?
    if [ "$code" -ne 0 ] && [ -n "$CURRENT_STAGE" ]; then
        STAGE_NAMES+=("$CURRENT_STAGE")
        STAGE_SECS+=("$((SECONDS - CURRENT_T0))")
        STAGE_STATUS+=("FAIL")
        echo "ci: FAIL in stage: $CURRENT_STAGE" >&2
        write_timings
    fi
    exit "$code"
}
trap on_exit EXIT

# run_stage <name> <cmd...>: time one stage, fail loudly, remember it.
run_stage() {
    local name="$1"
    shift
    local t0=$SECONDS
    STAGE_SKIPPED=""
    CURRENT_STAGE="$name"
    CURRENT_T0=$t0
    echo "ci: ── stage: $name"
    "$@"
    local dt=$((SECONDS - t0))
    local status=ok
    if [ -n "$STAGE_SKIPPED" ]; then
        status="skipped: $STAGE_SKIPPED"
    fi
    STAGE_NAMES+=("$name")
    STAGE_SECS+=("$dt")
    STAGE_STATUS+=("$status")
    CURRENT_STAGE=""
    echo "ci: ── stage: $name $status (${dt}s)"
}

run_stage "fmt" \
    cargo fmt --all --check

run_stage "clippy" \
    cargo clippy --workspace --all-targets -- -D warnings

run_stage "build release" \
    cargo build --release --workspace

run_stage "test" \
    cargo test -q --workspace

# Determinism stage: simulated cycles must match the frozen
# fingerprints in BENCH_dispatch.json bit-for-bit (perf --check exits
# nonzero on drift; it also prints a full stats digest per benchmark,
# which the profile stage diffs).
run_stage "determinism (perf --check)" \
    cargo run --release -q -p vta-bench --bin perf -- --check

# Metrics stage: the windowed time series is a pure function of
# (image, config, interval) — diff it against the committed golden.
run_stage "metrics (perf --metrics --check)" \
    cargo run --release -q -p vta-bench --bin perf -- --metrics --check

# Superblock stage: region formation (static or recorded) must never
# change WHAT executes, only how it is grouped — guest instruction
# retirement must be identical across off/static/recorded for every
# benchmark × opt-level cell at Scale::Test.
run_stage "superblock retirement (perf --superblock --check)" \
    cargo run --release -q -p vta-bench --bin perf -- --superblock --check

# Profile stage: host wall-clock profiling is the second clock domain
# and must never leak into the first — enabling it inside every
# fingerprinted System must leave the --check stdout (cycles AND full
# stats digests) byte-identical.
# The profiler's own cost is gated too: min-of-N interleaved wall on
# the fingerprint benches must stay within 5% (one retry — the
# assertion measures the instrumentation, not a noisy neighbor).
profile_stage() {
    local out_dir
    out_dir="$(mktemp -d)"
    echo "ci:    perf --check vs --profile --check"
    cargo run --release -q -p vta-bench --bin perf -- --check > "$out_dir/plain.txt"
    cargo run --release -q -p vta-bench --bin perf -- --profile --check > "$out_dir/prof.txt"
    if ! diff -q "$out_dir/plain.txt" "$out_dir/prof.txt" > /dev/null; then
        echo "ci: FAIL: --profile --check stdout differs from --check" >&2
        echo "ci:       (outputs kept in $out_dir)" >&2
        diff "$out_dir/plain.txt" "$out_dir/prof.txt" >&2 || true
        return 1
    fi
    echo "ci:    profiling on/off stdout identical"
    if ! cargo run --release -q -p vta-bench --bin perf -- --profile --overhead \
        | sed 's/^/ci:    /'; then
        echo "ci:    overhead gate failed once; retrying (guards against a noisy host)"
        cargo run --release -q -p vta-bench --bin perf -- --profile --overhead \
            | sed 's/^/ci:    /'
    fi
    rm -rf "$out_dir"
}
run_stage "profile (on/off invariance + overhead)" \
    profile_stage

# Fuzz stage: differential fuzzing of the x86 front end. Two parts,
# both deterministic and offline: (1) every committed minimized
# reproducer in the regression corpus must replay clean through the
# oracle (reference vs None vs Full vs recorded-path), and (2) a
# fixed-seed generated batch must complete with zero divergences.
# Fixed seeds mean the same case stream and the same verdicts on every
# host; the binary exits nonzero (printing a ready-to-commit corpus
# file) on any divergence.
fuzz_stage() {
    cargo run --release -q -p vta-bench --bin fuzz -- \
        --corpus crates/ir/tests/corpus
    cargo run --release -q -p vta-bench --bin fuzz -- \
        --cases 4000 --seed 0x5EED
    cargo run --release -q -p vta-bench --bin fuzz -- \
        --cases 3000 --seed 0xB10C
    cargo run --release -q -p vta-bench --bin fuzz -- \
        --cases 3000 --seed 3
}
run_stage "fuzz (fixed-seed smoke)" \
    fuzz_stage

# Figures stage: EXPERIMENTS.md quotes the output of `figures --fig all
# --scale small` verbatim under "# Raw output" (the fenced block after
# that heading). The simulation is deterministic, so that stdout must
# match the quoted block byte-for-byte; any drift means the document's
# numbers are stale.
figures_stage() {
    local out_dir
    out_dir="$(mktemp -d)"
    awk '/^# Raw output/ { raw = 1; next }
         raw && /^```/ { if (inside) exit; inside = 1; next }
         inside { print }' EXPERIMENTS.md > "$out_dir/quoted.txt"
    if [ ! -s "$out_dir/quoted.txt" ]; then
        echo "ci: FAIL: no fenced block under \"# Raw output\" in EXPERIMENTS.md" >&2
        rm -rf "$out_dir"
        return 1
    fi
    cargo run --release -q -p vta-bench --bin figures -- --fig all --scale small \
        > "$out_dir/actual.txt"
    if ! diff -q "$out_dir/quoted.txt" "$out_dir/actual.txt" > /dev/null; then
        echo "ci: FAIL: figures output drifted from EXPERIMENTS.md's \"# Raw output\" block" >&2
        echo "ci:       (outputs kept in $out_dir)" >&2
        diff "$out_dir/quoted.txt" "$out_dir/actual.txt" >&2 || true
        return 1
    fi
    echo "ci:    figures --fig all --scale small matches EXPERIMENTS.md byte-for-byte"
    rm -rf "$out_dir"
}
run_stage "figures (EXPERIMENTS.md raw output)" \
    figures_stage

# Scaling gate: sweep fan-out must actually pay off where it can. A
# single-core host cannot speed anything up with threads (only measure
# scheduler overhead), so the assertion is gated on available cores.
scaling_stage() {
    if [ "$(nproc)" -lt 2 ]; then
        echo "ci:    skipped: single-core host: wall-clock speedup is physically impossible"
        STAGE_SKIPPED="single-core host"
        return 0
    fi
    # Capture perf's whole stdout, then keep its first line: piping
    # straight into `head -1` closes the pipe early, perf panics on the
    # broken pipe (exit 101), and pipefail fails the stage.
    local out wall_4 wall_1
    out="$(cargo run --release -q -p vta-bench --bin perf -- --threads 4)"
    out="${out%%$'\n'*}"
    echo "ci:    $out"
    wall_4="$(echo "$out" | sed -n 's/.*wall \([0-9.]*\)s.*/\1/p')"
    out="$(cargo run --release -q -p vta-bench --bin perf -- --threads 1)"
    out="${out%%$'\n'*}"
    echo "ci:    $out"
    wall_1="$(echo "$out" | sed -n 's/.*wall \([0-9.]*\)s.*/\1/p')"
    # Require >= 1.8x with integer-only shell arithmetic: 10*wall_1 >= 18*wall_4.
    local lhs rhs
    lhs="$(awk "BEGIN {printf \"%d\", 10 * $wall_1 * 1000}")"
    rhs="$(awk "BEGIN {printf \"%d\", 18 * $wall_4 * 1000}")"
    if [ "$lhs" -lt "$rhs" ]; then
        echo "ci: FAIL: fig5 sweep at 4 threads is not >= 1.8x over 1 thread" >&2
        echo "ci:       wall_1=${wall_1}s wall_4=${wall_4}s" >&2
        return 1
    fi
    echo "ci:    speedup ok (wall_1=${wall_1}s, wall_4=${wall_4}s)"
}
run_stage "scaling ($(nproc) cores)" \
    scaling_stage

echo "ci: stage timings:"
for i in "${!STAGE_NAMES[@]}"; do
    printf 'ci:   %-38s %4ds %s\n' "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}" "${STAGE_STATUS[$i]}"
done
SKIPPED_ANY=0
for i in "${!STAGE_NAMES[@]}"; do
    case "${STAGE_STATUS[$i]}" in
        skipped:*)
            if [ "$SKIPPED_ANY" -eq 0 ]; then
                echo "ci: skipped stages (host limitations, not passes):"
                SKIPPED_ANY=1
            fi
            echo "ci:   ${STAGE_NAMES[$i]} — ${STAGE_STATUS[$i]#skipped: }"
            ;;
    esac
done

write_timings
echo "ci: all tier-1 checks passed"
