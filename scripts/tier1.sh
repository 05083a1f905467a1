#!/usr/bin/env bash
# Tier-1 verification: exactly what CI/the driver runs, plus static
# gates (rustfmt + clippy with warnings denied), an explicit build of
# the server crate (a non-default workspace member on some cargo
# invocations), and an explicit run of the server e2e suites (loopback
# keep-alive/pipelining/framing + service concurrency/overload +
# /v1 streaming), so the persistent-connection and chunked-streaming
# paths are exercised even when a filtered `cargo test` invocation
# would skip them. Run from the repo root; one command is the whole
# tier-1 gate.
set -euo pipefail
cd "$(dirname "$0")/.."

# --full additionally runs the dynamic checkers (Miri + TSan via
# scripts/sanitize.sh) after the static gate; they degrade to a loud
# skip on toolchains without nightly, so --full is safe anywhere.
FULL=0
if [[ "${1:-}" == "--full" ]]; then
    FULL=1
    shift
fi

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# Workspace invariants (unsafe-audit, determinism, lock-discipline,
# lock-graph, atomics-audit, error-hygiene): zero violations, enforced
# by the in-tree analyzer — including the derived lock-order graph and
# the interprocedural determinism taint.
cargo run -q -p tane-lint --release

if [[ "$FULL" == "1" ]]; then
    ./scripts/sanitize.sh
fi

cargo build --release
cargo test -q
# Every crate's unit, integration and doc tests: root `cargo test -q` runs
# only the `tane-repro` package, so without this the kernel unit tests,
# the brute-force agreement tests in core, the partition differential
# suite, the lint fixtures and `cli_e2e` would run in no gate.
cargo test --workspace -q --release
# Work-stealing pool scaling gate: a cheap small-dataset scaling run that
# fails if 4 threads do not beat 2 on the memory backend. The check skips
# (loudly) on machines with fewer than 4 cores, where the comparison is
# meaningless; determinism down the thread column is asserted either way.
cargo build --release -p tane-bench
./target/release/repro scaling --fast --assert-scaling > /dev/null
# Disk-backed search at 1..8 workers: N, products, and every disk I/O
# column must be identical (asserted inside the runner on any machine);
# with >= 4 cores, 8-thread wall time must beat 1 thread.
./target/release/repro disk-scaling --fast --assert-scaling > /dev/null
# Concurrent shared-read store contract: byte-identical partitions under
# an 8-thread flood, with single-flight + phase pinning keeping the
# disk-read counters exact.
cargo test -q -p tane-partition --test concurrent_store
# Ranked search gates: a cheap bounded-vs-unbounded run that asserts the
# bounded heap is a prefix of the unbounded ranking and never adds work,
# and the brute-force pruning-soundness oracle (heap == definitional-g3
# pool prefix, thread-invariant, early exit answer-preserving).
./target/release/repro topk --fast > /dev/null
cargo test -q -p tane-core --test topk_oracle
cargo build -p tane-server
cargo test -q -p tane-server --test keepalive_e2e --test service_e2e --test streaming_e2e --test ranked_streaming_e2e --test store_fault_e2e
# Parallel-runtime determinism: threads in {1,2,4,8} must be byte-identical
# on both storage backends, exact and approximate mode.
cargo test -q -p tane-core --test parallel_determinism
# Patched generations: a DeltaStore generation must discover byte-identically
# to the same rows re-ingested from scratch, exact and approximate, memory
# and disk, threads {1,8}, under both null semantics.
cargo test -q -p tane-core --test patched_generations
cargo test -q -p tane-server --test registry_lifecycle_e2e

echo "tier1: OK"
