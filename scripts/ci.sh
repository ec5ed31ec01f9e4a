#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md): everything here must pass offline — no
# network, no registry. The default workspace has zero external
# dependencies by policy (root Cargo.toml); the excluded `heavy/`
# package holds the proptest/criterion suites and is built on request
# only.
#
# The gate is a staged matrix with per-stage timing (human summary at
# the end, machine-readable in ci-timings.json):
#
#   fmt
#   clippy   × {default, --no-default-features}
#   build    × {default, --no-default-features}   (release)
#   test     × {default, --no-default-features}   (debug-for-tests)
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
#     to plain --check, in the default build and in the
#     no-default-features build (where the profiler compiles out), and
#     the profiler's own wall cost on the fingerprint benches must stay
#     under 5% (perf --profile --overhead, min-of-N)
#   fuzz: differential fuzzing under the feature combinations that
#     exist in the field (default = trace+metrics+prof, none of them,
#     trace-without-metrics, and prof-alone — the profiler hooks must
#     not perturb the oracle)
#   scaling gate: on multi-core hosts, the fig5 sweep fanned out over
#     4 threads must be >= 1.8x faster than on 1 thread (skipped on
#     single-core hosts, where no wall-clock speedup is physically
#     possible). Sweep fan-out is the one place host parallelism lives;
#     every simulation itself runs serially.
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

# run_stage <name> <cmd...>: time one stage, fail loudly, remember it.
run_stage() {
    local name="$1"
    shift
    local t0=$SECONDS
    STAGE_SKIPPED=""
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
    echo "ci: ── stage: $name $status (${dt}s)"
}

run_stage "fmt" \
    cargo fmt --all --check

run_stage "clippy (default)" \
    cargo clippy --workspace --all-targets -- -D warnings
run_stage "clippy (no-default-features)" \
    cargo clippy --workspace --all-targets --no-default-features -- -D warnings

run_stage "build release (default)" \
    cargo build --release --workspace
run_stage "build release (no-default-features)" \
    cargo build --release --workspace --no-default-features

run_stage "test (default)" \
    cargo test -q --workspace
# The trace feature must compile out completely (the Tracer becomes a
# zero-sized no-op) — and the no-trace configuration must PASS ITS
# TESTS, not merely type-check.
run_stage "test (no-default-features)" \
    cargo test -q --workspace --no-default-features

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
# stats digests) byte-identical, in the default build and in the
# no-default-features build where the profiler compiles down to no-ops.
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
    echo "ci:    perf --profile --check, --no-default-features (profiler compiled out)"
    cargo run --release -q -p vta-bench --no-default-features --bin perf -- --check \
        > "$out_dir/plain-off.txt"
    cargo run --release -q -p vta-bench --no-default-features --bin perf -- --profile --check \
        > "$out_dir/prof-off.txt"
    if ! diff -q "$out_dir/plain-off.txt" "$out_dir/prof-off.txt" > /dev/null; then
        echo "ci: FAIL: --profile --check stdout differs without the prof feature" >&2
        diff "$out_dir/plain-off.txt" "$out_dir/prof-off.txt" >&2 || true
        return 1
    fi
    echo "ci:    profiling on/off stdout identical, default build + feature-off"
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
#
# The corpus also replays under trace-without-metrics — before this
# combination was added, the fuzz stage only ever ran with metrics and
# trace toggled together (default = both on, --no-default-features =
# both off), so the trace-enabled/metrics-disabled build was never
# exercised at all.
fuzz_stage() {
    cargo run --release -q -p vta-bench --bin fuzz -- \
        --corpus crates/ir/tests/corpus
    echo "ci:    corpus replay, --no-default-features --features trace"
    cargo run --release -q -p vta-bench --no-default-features --features trace \
        --bin fuzz -- --corpus crates/ir/tests/corpus
    # Prof-alone: the profiler's hooks (host clock reads on translation
    # slow paths) must not perturb the differential oracle either.
    echo "ci:    corpus replay, --no-default-features --features prof"
    cargo run --release -q -p vta-bench --no-default-features --features prof \
        --bin fuzz -- --corpus crates/ir/tests/corpus
    cargo run --release -q -p vta-bench --bin fuzz -- \
        --cases 4000 --seed 0x5EED
    cargo run --release -q -p vta-bench --bin fuzz -- \
        --cases 3000 --seed 0xB10C
    cargo run --release -q -p vta-bench --bin fuzz -- \
        --cases 3000 --seed 3
}
run_stage "fuzz (fixed-seed smoke)" \
    fuzz_stage

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

# Machine-readable per-stage timings (uploaded as a CI artifact).
{
    echo '{'
    echo '  "stages": ['
    total=0
    for i in "${!STAGE_NAMES[@]}"; do
        total=$((total + STAGE_SECS[i]))
        comma=','
        [ "$((i + 1))" -eq "${#STAGE_NAMES[@]}" ] && comma=''
        status="${STAGE_STATUS[$i]}"
        printf '    { "name": "%s", "seconds": %d, "status": "%s" }%s\n' \
            "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}" "$status" "$comma"
    done
    echo '  ],'
    printf '  "total_seconds": %d\n' "$total"
    echo '}'
} > ci-timings.json
echo "ci: wrote ci-timings.json"
echo "ci: all tier-1 checks passed"
