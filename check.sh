#!/usr/bin/env bash
# Tier-1 verification gate for the EasyBO workspace.
#
# Run from the repository root before merging anything:
#
#   ./check.sh
#
# Passes iff the release build, the full test suite, formatting, and
# clippy (warnings denied) all pass. CI runs exactly this script.

set -euo pipefail
cd "$(dirname "$0")"

# With EASYBO_REGEN_GOLDEN set, every golden test rewrites its fixture
# and passes vacuously; a gate run must compare, never regenerate.
if [[ -n "${EASYBO_REGEN_GOLDEN+set}" ]]; then
    echo "error: EASYBO_REGEN_GOLDEN is set; unset it to run the gate" >&2
    exit 1
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> linear-algebra kernel bit-identity suite (PROPTEST_CASES=256)"
PROPTEST_CASES=256 cargo test -q -p easybo-linalg

echo "==> fault-injection chaos suite (PROPTEST_CASES=64)"
PROPTEST_CASES=64 cargo test -q -p easybo-integration --test fault_injection

echo "==> kill-and-resume chaos suite (PROPTEST_CASES=64)"
PROPTEST_CASES=64 cargo test -q -p easybo-integration --test resume

echo "==> algorithm-portfolio acceptance matrix (PROPTEST_CASES=64)"
PROPTEST_CASES=64 cargo test -q -p easybo-integration --test portfolio

echo "==> zero-alloc discipline of the disabled telemetry/span path"
cargo test -q -p easybo-integration --test telemetry_alloc

echo "==> introspection suite: span tracing, scrape endpoint, report gate (PROPTEST_CASES=64)"
PROPTEST_CASES=64 cargo test -q -p easybo-integration --test introspection

echo "==> service wire-protocol chaos suite (PROPTEST_CASES=64)"
PROPTEST_CASES=64 cargo test -q -p easybo-integration --test service

echo "==> scenario zoo acceptance suite (PROPTEST_CASES=64)"
PROPTEST_CASES=64 cargo test -q -p easybo-integration --test scenario

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc: no broken intra-doc links"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --no-deps --workspace

echo "==> cargo bench --no-run (incremental factorization bench must compile)"
cargo bench -p easybo-bench --bench incremental --no-run
cargo bench --workspace --no-run

echo "==> end-to-end benchmark must build against the current crate APIs"
cargo build --release --offline --manifest-path e2ebench/Cargo.toml

echo "==> all checks passed"
