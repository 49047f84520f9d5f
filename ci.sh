#!/usr/bin/env bash
# Offline CI gate for the workspace. No network access required: the
# workspace has no third-party dependencies.
#
#   ./ci.sh          full gate: build, test, fmt, clippy
#   ./ci.sh quick    build + root-package tests only
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==> %s\n' "$*"; }

step "cargo build --offline --release --workspace"
cargo build --offline --release --workspace --all-targets

if [ "${1:-}" = "quick" ]; then
    step "cargo test --offline -q (root package)"
    cargo test --offline -q
    step "quick gate passed"
    exit 0
fi

step "cargo test --offline --release --workspace -q"
cargo test --offline --release --workspace -q

step "perfbench unit tests (the benchmark's own package)"
# perfbench/ is a workspace of its own that calls parse_line,
# merge_shard_rankings and MaskedBitVec parsing; building and testing it
# here makes an API change fail CI before it fails a benchmark run.
cargo test --offline --release -q --manifest-path perfbench/Cargo.toml

step "store round-trip + serve smoke + sharding (c17, s298)"
cargo test --offline --release -q --test store_roundtrip --test serve_smoke \
    --test shard_manifest --test shard_equivalence

step "dictionary load bench (text parse vs binary read + mmap cold start, JSON)"
# BENCH_load.json carries the cold-start comparison between the owned read
# (--mmap off: whole Vec + full decode) and the mapped path (--mmap on:
# map + first row through the lazy reader); the gate fails on a
# missing/malformed report or if the mapped first row differs from the
# decoded one.
cargo run --offline --release -p sdd-bench --bin load_bench -- c17 1 10 --out BENCH_load.json
cargo run --offline --release -p sdd-bench --bin load_bench -- --check BENCH_load.json

step "volume smoke (CLI vs served VOLUME, corrupted-corpus resilience)"
# tests/volume_smoke.rs drives the real binary and a live server and
# asserts byte-identical reports; tests/volume_corpus.rs walks the
# corruption matrix end to end.
cargo test --offline --release -q --test volume_smoke --test volume_corpus

step "chaos smoke (10 injected failure classes against a live server, JSON)"
# Fixed seed + small circuit keeps this a seconds-long gate; the driver
# exits nonzero if any well-formed request fails to come back
# OK/PARTIAL/BUSY/ERR, a verdict is wrong, or the server wedges (watchdog).
cargo run --offline --release -p sdd-bench --bin chaos -- --circuit s298 --seed 7

step "dictionary build bench (serial vs parallel, JSON)"
# Small circuit + low patience keeps CI fast; BENCH_build.json tracks the
# perf trajectory, and the gate fails on a missing/malformed/non-identical
# report. Speedup is gated where threads had real cores: with
# jobs_effective > 1, the check fails when simulate_speedup or
# procedure1_speedup is below 0.5, and on a contended two-core runner the
# simulate speedup can fall below it and stop CI here. The ECO patch
# point is gated too: patch_identical must hold and patch_s must beat
# rebuild_s — the incremental path exists to be cheaper than a rebuild.
# --jobs 4 exercises the threaded path even on a single-core runner.
cargo run --offline --release -p sdd-bench --bin build_bench -- \
    --circuit s953 --calls1 3 --jobs 4 --out BENCH_build.json
cargo run --offline --release -p sdd-bench --bin build_bench -- --check BENCH_build.json

step "volume bench (devices/s serial vs parallel + corruption sweep, JSON)"
# BENCH_volume.json carries the determinism claim (jobs=1 == jobs=N bytes)
# and the diagnostic claim (injected systematic faults rank first on the
# clean level); the gate fails on a missing/malformed/claim-failing report.
cargo run --offline --release -p sdd-bench --bin volume_bench -- \
    --circuit s298 --devices 300 --jobs 4 --out BENCH_volume.json
cargo run --offline --release -p sdd-bench --bin volume_bench -- --check BENCH_volume.json

step "serve bench (pipelined DIAG throughput, threaded vs reactor, JSON)"
# BENCH_serve.json tracks the transport trajectory: req/s and p50/p99 per
# backend at three concurrency levels. The gate checks shape and sanity
# (both backends where supported, positive throughput, p99 >= p50) — which
# backend wins is host-dependent and recorded, not gated.
cargo run --offline --release -p sdd-bench --bin serve_bench -- --out BENCH_serve.json
cargo run --offline --release -p sdd-bench --bin serve_bench -- --check BENCH_serve.json

step "cargo fmt --check"
if ! cargo fmt --version >/dev/null 2>&1; then
    echo "rustfmt not installed; skipping"
else
    cargo fmt --all --check
fi

step "cargo clippy -D warnings"
if ! cargo clippy --version >/dev/null 2>&1; then
    echo "clippy not installed; skipping"
else
    cargo clippy --offline --workspace --all-targets -- -D warnings
fi

step "ci gate passed"
