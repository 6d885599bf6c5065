#!/usr/bin/env bash
# Full local gate: formatting, static analysis, build, tests.
#
# This is the same sequence CI (and the tier-1 acceptance check) runs;
# a clean `./scripts/check.sh` means the tree is mergeable.
#
# Every step runs even when an earlier one fails: statuses are collected
# explicitly and the script exits non-zero if ANY step failed, naming
# the failures in a summary. (`set -e` alone is not enough here — the
# one-shot goal is to see every broken gate, and an `if !`-guarded or
# trailing-`||` step would silently swallow its status.)
#
# The lint step writes its JSON report to results/lint-report.json so CI
# can upload it as an artifact, and runs with --forbid-stale so a
# baseline listing already-fixed debt fails the gate instead of rotting.
# On failure it re-runs in human-readable mode — in GitHub Actions (or
# with FF_LINT_GITHUB=1) that re-run also emits ::error annotations that
# render inline on the PR diff.
set -uo pipefail
cd "$(dirname "$0")/.."

failed_steps=()

# run_step <label> <cmd...> — run a step, record its status.
run_step() {
    local label="$1"
    shift
    echo "==> ${label}"
    if ! "$@"; then
        echo "==> ${label} FAILED"
        failed_steps+=("${label}")
        return 1
    fi
}

lint_step() {
    mkdir -p results
    if cargo run -q -p ff-lint -- --json --forbid-stale \
        --sarif results/lint.sarif \
        --export-product results/fsm-product.json \
        > results/lint-report.json; then
        echo "    report: results/lint-report.json"
        echo "    sarif: results/lint.sarif"
        echo "    product automaton: results/fsm-product.json"
        return 0
    fi
    echo "==> ff-lint FAILED — human-readable report follows"
    rerun_args=()
    if [[ "${GITHUB_ACTIONS:-}" == "true" || "${FF_LINT_GITHUB:-}" == "1" ]]; then
        rerun_args+=(--github)
    fi
    cargo run -q -p ff-lint -- --forbid-stale "${rerun_args[@]+"${rerun_args[@]}"}" || true
    echo "error: ff-lint found new findings or a stale baseline;" >&2
    echo "       see results/lint-report.json, and run" >&2
    echo "       'cargo run -p ff-lint -- --update-baseline' only for" >&2
    echo "       debt you are deliberately accepting." >&2
    return 1
}

# The release build, plus the criterion benches under crates/*/benches:
# no other step compiles them, so an API change could otherwise break
# `cargo bench` unseen.
build_step() {
    cargo build --release && cargo build --release --benches
}

doc_step() {
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
}

# Build the handbook with mdBook when it is installed, else with the
# workspace's std-only fallback builder; the link check always uses
# ff-book (stock mdBook does not verify links).
handbook_step() {
    if command -v mdbook >/dev/null 2>&1; then
        mdbook build docs
    else
        cargo run -q -p ff-book -- build docs
    fi && cargo run -q -p ff-book -- check docs
}

# The parallel sweep engine's acceptance gate: the full benchsim grid
# serially vs on 8 workers must serialise byte-identically (benchpar
# exits non-zero otherwise), with the honest speedup recorded in
# bench/BENCH_parallel.json.
# bench/BENCH_parallel.json (the committed record) is regenerated
# explicitly; the gate here writes to results/ so a local check run
# does not dirty the tree with fresh timings.
parallel_step() {
    mkdir -p results
    cargo run --release -q -p ff-bench --bin benchpar -- --jobs 8 \
        --out results/BENCH_parallel.json
}

# Every deterministic committed artifact, regenerated from the current
# source into a scratch directory and compared byte for byte with the
# committed copy under results/ and bench/. bench/BENCH_parallel.json
# records wall-clock timings and is not compared. A stale file is
# refreshed by rerunning its ff-bench binary with the repo as output.
artifacts_step() {
    cargo build --release -q -p ff-bench --bins || return 1
    local bin out name f status=0
    bin="$(pwd)/target/release"
    out="$(mktemp -d)"
    mkdir -p "$out/results" "$out/bench"
    for name in ablation design_space evolution extensions fig1 fig2 fig3 fig4 fig5 \
        regret robustness spindown tables trace_stats; do
        "$bin/$name" > "$out/results/$name.txt" || status=1
    done
    "$bin/powertrace" > "$out/results/powertrace_mplayer_flexfetch.csv" || status=1
    (cd "$out" && "$bin/figures_svg" > /dev/null) || status=1
    "$bin/benchsim" --out "$out/bench/BENCH_sim.json" > /dev/null || status=1
    "$bin/benchfaults" --out "$out/bench/BENCH_faults.json" > /dev/null || status=1
    "$bin/observe" --workload grep --policy flexfetch --out-dir "$out/bench" > /dev/null ||
        status=1
    "$bin/chaostrace" --out-dir "$out/bench" > /dev/null || status=1
    for f in $(git ls-files results bench); do
        [[ "$f" == bench/BENCH_parallel.json ]] && continue
        if ! cmp -s "$out/$f" "$f"; then
            echo "error: $f differs from a fresh regeneration" >&2
            status=1
        fi
    done
    rm -rf "$out"
    return "$status"
}

run_step "cargo fmt --all --check" cargo fmt --all --check
run_step "ff-lint (ratchet vs crates/ff-lint/baseline.json)" lint_step
run_step "cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)" doc_step
run_step "cargo build --release (and the criterion benches)" build_step
# The whole workspace: every crate's unit, integration and doc tests,
# including the chaos suite, trace conformance, the absint golden and
# soundness tests, and ff-lint's mutation suite (whose
# committed_matrix_matches_a_fresh_run keeps
# crates/ff-lint/killscore.json equal to a fresh run at the committed
# seed, with every family at its floor).
run_step "cargo test -q --workspace" cargo test -q --workspace
run_step "committed artifacts (regenerated byte-identically)" artifacts_step
run_step "handbook (mdbook-or-ff-book build + link check)" handbook_step
run_step "parallel-determinism (benchpar: jobs=1 vs jobs=8 byte-identical)" parallel_step

if (( ${#failed_steps[@]} > 0 )); then
    echo "==> ${#failed_steps[@]} check(s) FAILED:" >&2
    for step in "${failed_steps[@]}"; do
        echo "    - ${step}" >&2
    done
    exit 1
fi
echo "==> all checks passed"
