#!/usr/bin/env bash
# Offline CI gate for the workspace. No network access required: the
# workspace has no third-party dependencies.
#
#   ./ci.sh          full gate: build, test, perfbench correctness (all three workloads),
#                    examples, chaos, fmt, doc, clippy
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
# The root package is a workspace member, so this runs its integration
# tests too, each once: among them the store round trip, serve smoke and
# sharding tests (c17, s298); tests/volume_smoke.rs, which drives the real
# binary and a live server and asserts byte-identical reports; and
# tests/volume_corpus.rs, which walks the corruption matrix end to end.
cargo test --offline --release --workspace -q

step "perfbench unit tests (the benchmark's own package)"
# perfbench/ is a workspace of its own that calls parse_line,
# merge_shard_rankings and MaskedBitVec parsing; building and testing it
# here makes an API change fail CI before it fails a benchmark run.
cargo test --offline --release -q --manifest-path perfbench/Cargo.toml

step "perfbench build, serve and volume correctness gates (seed 7)"
# Untraced runs of all three workloads; perfbench exits nonzero when a
# check fails, so a wrong result fails here before a benchmark comparison
# sees it. build (about 30-50 s: ATPG, Procedures 1-2 and the ECO chains
# on the s1423 profile) checks full <= s/d <= p/f on both test sets, that
# the committed artifact's pair count equals Procedure 2's, that each
# artifact decodes to the built dictionary, and that all 30 patched
# artifacts equal a rebuild; a partition or scoring kernel that miscounts
# pairs fails those. serve and volume (2 s each) check every DIAG reply
# against the in-process best set and every lot's counts, so a change to
# reply bytes fails too. No timing from these runs is gated: one short run
# on a shared host measures nothing.
for workload in build serve volume; do
    cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 7 --seconds 2 --trace 0
done

step "examples (every one runs to completion)"
# Each example under examples/ runs once with its default arguments. Most
# assert their own result or fail on an error, so a nonzero exit fails CI;
# together they take a few seconds in release.
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    echo "--- $name"
    cargo run --offline --release --quiet --example "$name" >/dev/null
done

step "chaos smoke (10 injected failure classes against a live server, JSON)"
# Fixed seed + small circuit keeps this a seconds-long gate; the driver
# exits nonzero if any well-formed request fails to come back
# OK/PARTIAL/BUSY/ERR, a verdict is wrong, or the server wedges (watchdog).
cargo run --offline --release -p sdd-bench --bin chaos -- --circuit s298 --seed 7

step "cargo fmt --check"
if ! cargo fmt --version >/dev/null 2>&1; then
    echo "rustfmt not installed; skipping"
else
    cargo fmt --all --check
fi

step "cargo doc -D warnings"
# Broken or ambiguous intra-doc links, and public docs linking private
# items, fail here instead of rotting silently.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

step "cargo clippy -D warnings"
if ! cargo clippy --version >/dev/null 2>&1; then
    echo "clippy not installed; skipping"
else
    cargo clippy --offline --workspace --all-targets -- -D warnings
fi

step "ci gate passed"
