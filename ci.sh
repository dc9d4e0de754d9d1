#!/usr/bin/env bash
# Repo CI: format, lint, test, and the serving benchmark (perf trajectory).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== sage-lint: workspace invariant checker =="
# deny-by-default repo-specific static analysis: dirty-annotation
# justifications + sanitize-matrix coverage,
# determinism lints (hash iteration / wall clock / unordered reduces), and
# lock-poison recovery on the serving path. Any violation without a
# justified `// sage-lint: allow(<rule>)` marker exits 1; so do stale or
# malformed markers. The linter's own fixture suite runs under cargo test.
cargo run -q -p sage-lint -- --workspace

echo "== cargo test =="
cargo test -q --workspace

echo "== benchmark self-tests (answer checks, metric catalogue) =="
# perfbench is a workspace of its own, so the workspace test run above
# never builds it; a change that breaks its answer checks fails here
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== rustdoc (no broken intra-doc links) =="
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --no-deps --workspace -q

echo "== race sanitizer: all engines hazard-free, bitwise cost-neutral =="
# full matrix (7 engines x BFS/CC/PR x push/adaptive, sanitize on ==
# sanitize off bit for bit) lives in the test
cargo test --release -q -p sage --test sanitize
# CLI-level smoke: SAGE_SANITIZE=1 must leave the exit code at 0 (any
# detected hazard makes sage_cli exit 1)
for eng in sage sage-tp naive b40c tigr gunrock; do
  for app in bfs cc pr; do
    SAGE_SANITIZE=1 cargo run --release -q -p sage-bench --bin sage_cli -- \
      "$app" --dataset brain --scale 0.05 --engine "$eng" > /dev/null
  done
done
for app in bfs cc pr; do
  SAGE_SANITIZE=1 cargo run --release -q -p sage-bench --bin sage_cli -- \
    "$app" --dataset brain --scale 0.05 --engine subway --out-of-core > /dev/null
done

echo "== race sanitizer: matrix/SpMV pipeline hazard-free =="
# the tensor-core SpMV direction: matrix-forced and adaptive-3-way runs on
# the dedicated spmv engine plus the default engine, sanitized — any
# cross-SM hazard exits 1
for eng in spmv sage; do
  for app in bfs cc pr; do
    SAGE_SANITIZE=1 cargo run --release -q -p sage-bench --bin sage_cli -- \
      "$app" --dataset brain --scale 0.05 --engine "$eng" --mode matrix > /dev/null
  done
  SAGE_SANITIZE=1 cargo run --release -q -p sage-bench --bin sage_cli -- \
    bfs --dataset brain --scale 0.05 --engine "$eng" --mode adaptive > /dev/null
done

echo "== race sanitizer: walk kernels hazard-free for both apps and samplers =="
for app in ppr node2vec; do
  for sampler in its alias; do
    SAGE_SANITIZE=1 cargo run --release -q -p sage-bench --bin sage_cli -- \
      walk --dataset brain --scale 0.05 --walk-app "$app" --sampler "$sampler" \
      --walks 64 --length 16 > /dev/null
  done
done

echo "== determinism (release): reruns reproduce the simulation bit for bit =="
# covers push-only, adaptive-3-way, and matrix-forced pipelines
cargo test --release -q -p sage --test prop_determinism
cargo test --release -q -p sage --test prop_direction
cargo test --release -q -p sage --test prop_walk
cargo test --release -q -p gpu-sim kernel::

echo "== traversal_bench (writes BENCH_traversal.json) =="
# asserts adaptive >= push-only on BFS and bitwise-identical outputs,
# and self-validates the emitted JSON — a non-zero exit fails CI.
cargo run --release -q -p sage-bench --bin traversal_bench
test -s BENCH_traversal.json || { echo "BENCH_traversal.json missing"; exit 1; }

echo "== walk_bench (writes BENCH_walk.json) =="
# asserts MC-PPR top-k tracks power-iteration PageRank and >= 1000
# concurrent walk queries fuse into one serve-layer launch; self-validates
# the emitted JSON.
cargo run --release -q -p sage-bench --bin walk_bench
test -s BENCH_walk.json || { echo "BENCH_walk.json missing"; exit 1; }

echo "== serve_bench (writes BENCH_serve.json) =="
cargo run --release -q -p sage-bench --bin serve_bench

echo "== scale_bench smoke (R-MAT scale 14) =="
# bitwise determinism on a rerun, plus the out-of-core and sanitizer rows
cargo run --release -q -p sage-bench --bin scale_bench -- --smoke --out BENCH_scale_smoke.json
test -s BENCH_scale_smoke.json || { echo "BENCH_scale_smoke.json missing"; exit 1; }
rm -f BENCH_scale_smoke.json

echo "CI OK"
