#!/usr/bin/env bash
# Repo CI: exactly what .github/workflows/ci.yml runs.
#
#   ./ci.sh            # build + test + lint
#
# The lint gate is strict (`-D warnings`); the trailing unwrap audit on the
# measurement-plane crates is advisory (tests may unwrap freely, so it must
# not fail the build — it exists so new `unwrap()`s in library code show up
# in the log).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> perfbench smoke tests (workload reference digests)"
# The benchmark's own tests run every workload at smoke scale against its
# recorded reference digests, so a change that alters a workload's output
# fails here, not only in the benchmark pipeline.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo doc --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

echo "==> unwrap audit (advisory) on s2s-probe / s2s-core"
cargo clippy -p s2s-probe -p s2s-core -- -W clippy::unwrap_used 2>&1 |
    grep -A3 "unwrap_used\|used \`unwrap()\`" || true

echo "==> small-scale reproduce smoke run (writes metrics.json)"
S2S_CLUSTERS=16 S2S_DAYS=20 S2S_PAIRS=24 S2S_PING_PAIRS=20 S2S_CONG_PAIRS=8 \
    cargo run -q --release -p s2s-bench --bin reproduce -- run table1 --metrics-json metrics.json |
    tee reproduce_smoke.txt
# The routing diagnostic line must report table reuse and the path memo,
# so the oracle's `reused` and `path_{hits,builds}` counters stay wired
# through to the output.
grep -qE '^routing: .* [0-9]+ reused /' reproduce_smoke.txt
grep -qE '^routing: .*path memo [0-9]+ hits / [0-9]+ builds' reproduce_smoke.txt
# The dataset digest has its own span in the metrics snapshot.
grep -q '"dataset.digest"' metrics.json
# Route computation keeps its span, which the per-layer ledger reads
# as `routing.route_compute_s`.
grep -q '"oracle.route_compute"' metrics.json

echo "==> digest thread-count invariance: S2S_THREADS=1 and 3 print the same digest"
# The dataset digest formats record blocks on S2S_THREADS workers and
# folds them in record order; its value must not depend on the count.
one_digest=$(grep 'long-term dataset digest:' reproduce_smoke.txt)
for t in 1 3; do
    t_digest=$(S2S_THREADS=$t S2S_CLUSTERS=16 S2S_DAYS=20 S2S_PAIRS=24 S2S_PING_PAIRS=20 \
        S2S_CONG_PAIRS=8 cargo run -q --release -p s2s-bench --bin reproduce -- run table1 |
        grep 'long-term dataset digest:')
    test -n "$one_digest" && test "$t_digest" = "$one_digest"
done

echo "==> fabric crash-matrix smoke: 4 workers, kill+crash schedule, byte-identity"
# The same experiment sharded over 4 worker subprocesses, with a seeded
# fault plan that SIGKILLs shard 1 mid-campaign and crashes shard 3 on its
# first attempt. The coordinator must retry/resume both, and the merged
# dataset digest must match the 1-process smoke run's byte-for-byte.
S2S_CLUSTERS=16 S2S_DAYS=20 S2S_PAIRS=24 S2S_PING_PAIRS=20 S2S_CONG_PAIRS=8 \
    S2S_FABRIC_FAULT_PLAN='kill@1.1=1;exit@3.1' \
    cargo run -q --release -p s2s-bench --bin reproduce -- run table1 --workers 4 \
    --metrics-json metrics_fabric.json |
    tee reproduce_fabric.txt
fabric_digest=$(grep 'long-term dataset digest:' reproduce_fabric.txt)
test -n "$one_digest" && test "$one_digest" = "$fabric_digest"
grep -q 'recoveries' reproduce_fabric.txt
grep -q '"fabric.shards"' metrics_fabric.json
grep -q '"fabric.retries"' metrics_fabric.json
grep -q '"fabric.recoveries"' metrics_fabric.json
grep -q '"fabric.lost"' metrics_fabric.json

echo "==> snapshot smoke: write, reopen, byte-identical digest"
# First run executes the campaign and persists the merged store as a
# columnar snapshot; the second run reopens the snapshot instead of
# re-running and must print the identical dataset digest line. A third
# grep pins that the reopen path actually engaged (no silent re-run).
rm -f smoke.snap
S2S_CLUSTERS=16 S2S_DAYS=20 S2S_PAIRS=24 S2S_PING_PAIRS=20 S2S_CONG_PAIRS=8 \
    cargo run -q --release -p s2s-bench --bin reproduce -- run table1 --snapshot smoke.snap |
    tee reproduce_snapwrite.txt
S2S_CLUSTERS=16 S2S_DAYS=20 S2S_PAIRS=24 S2S_PING_PAIRS=20 S2S_CONG_PAIRS=8 \
    cargo run -q --release -p s2s-bench --bin reproduce -- run table1 --snapshot smoke.snap \
    --metrics-json metrics_snapshot.json |
    tee reproduce_snapreopen.txt
write_digest=$(grep 'long-term dataset digest:' reproduce_snapwrite.txt)
reopen_digest=$(grep 'long-term dataset digest:' reproduce_snapreopen.txt)
test -n "$write_digest" && test "$write_digest" = "$reopen_digest"
test "$write_digest" = "$one_digest"
grep -q 'snapshot: wrote' reproduce_snapwrite.txt
grep -q 'snapshot: reopened' reproduce_snapreopen.txt
grep -q '"snapshot.traces"' metrics_snapshot.json
grep -q '"snapshot.skipped_traces": 0' metrics_snapshot.json
grep -q '"snapshot.empty": 0' metrics_snapshot.json
rm -f smoke.snap

echo "==> multi-shard streaming smoke: fabric shard dir, streamed absorb, byte-identical digest"
# A fabric run persists one snapshot per shard into a directory; a second
# run streams the whole directory back through the out-of-core reader at a
# deliberately tiny batch budget. Both digests must match the in-memory
# smoke run byte-for-byte.
rm -rf smoke_shards
S2S_CLUSTERS=16 S2S_DAYS=20 S2S_PAIRS=24 S2S_PING_PAIRS=20 S2S_CONG_PAIRS=8 \
    S2S_SNAPSHOT_DIR=smoke_shards \
    cargo run -q --release -p s2s-bench --bin reproduce -- run table1 --workers 2 |
    tee reproduce_sharddir.txt
S2S_CLUSTERS=16 S2S_DAYS=20 S2S_PAIRS=24 S2S_PING_PAIRS=20 S2S_CONG_PAIRS=8 \
    S2S_SNAPSHOT_BUDGET=97 \
    cargo run -q --release -p s2s-bench --bin reproduce -- run table1 --snapshot smoke_shards |
    tee reproduce_shardstream.txt
sharddir_digest=$(grep 'long-term dataset digest:' reproduce_sharddir.txt)
stream_digest=$(grep 'long-term dataset digest:' reproduce_shardstream.txt)
test -n "$stream_digest" && test "$stream_digest" = "$sharddir_digest"
test "$stream_digest" = "$one_digest"
grep -q 'snapshot: 2 shard(s)' reproduce_shardstream.txt
grep -q 'snapshot: reopened' reproduce_shardstream.txt
rm -rf smoke_shards

echo "==> always-on service smoke: capped daemon, resume, scripted queries, digest parity"
# A capped `serve` session measures 8 epochs, answers a scripted query
# batch, and checkpoints every 3 epochs through the snapshot plane, which
# leaves a three-chunk log (epochs 3, 6, 8); a second session resumes
# from that log, appends to it, and compacts it when the schedule
# completes. The resumed daemon's dataset digest must match the batch
# run's byte-for-byte, and the service.* / query.* counters must reach
# --metrics-json.
rm -f smoke_service.snap
printf 'stats\npair 0 1 v4\n' |
S2S_CLUSTERS=16 S2S_DAYS=20 S2S_PAIRS=24 S2S_PING_PAIRS=20 S2S_CONG_PAIRS=8 S2S_SERVICE_SNAP_EVERY=3 \
    cargo run -q --release -p s2s-bench --bin reproduce -- serve --epochs 8 \
    --snapshot smoke_service.snap |
    tee reproduce_serve1.txt
printf 'stats\nadvice 0 1\n' |
S2S_CLUSTERS=16 S2S_DAYS=20 S2S_PAIRS=24 S2S_PING_PAIRS=20 S2S_CONG_PAIRS=8 S2S_SERVICE_SNAP_EVERY=3 \
    cargo run -q --release -p s2s-bench --bin reproduce -- serve \
    --snapshot smoke_service.snap --metrics-json metrics_service.json |
    tee reproduce_serve2.txt
serve_digest=$(grep 'long-term dataset digest:' reproduce_serve2.txt)
test -n "$serve_digest" && test "$serve_digest" = "$one_digest"
grep -q 'ok {"cmd":"stats"' reproduce_serve1.txt
grep -q 'ok {"cmd":"stats"' reproduce_serve2.txt
grep -q 'service: resumed from' reproduce_serve2.txt
grep -q 'service: resumed from smoke_service.snap at epoch 8/' reproduce_serve2.txt
grep -q 'service: final snapshot' reproduce_serve2.txt
grep -q '"service.epochs"' metrics_service.json
grep -q '"service.resumes"' metrics_service.json
grep -q '"query.served"' metrics_service.json
grep -q '"service.checkpoint.appended"' metrics_service.json
grep -q '"service.checkpoint.compacted"' metrics_service.json
rm -f smoke_service.snap

echo "==> long-term campaign + columnar analysis bench (quick mode; writes BENCH_longterm.json)"
S2S_BENCH_QUICK=1 cargo bench -q -p s2s-bench --bench longterm

echo "==> streaming short-term gate: agreement recorded in BENCH_longterm.json"
# The bench aborts if streamed-vs-exact classification agreement drops
# below 99%; this guards against the section silently disappearing.
grep -q '"streamed_exact_agreement"' BENCH_longterm.json
grep -q '"memory_independent_of_samples": true' BENCH_longterm.json

echo "==> fabric gate: scale-out section recorded in BENCH_longterm.json"
# The bench aborts unless the fabric and crash-recovered datasets are
# byte-identical to the 1-process run; these guard the section itself.
grep -q '"fabric": {' BENCH_longterm.json
grep -q '"merge_overhead"' BENCH_longterm.json
grep -q '"recovery_ms"' BENCH_longterm.json

echo "==> persistence gate: snapshot section recorded in BENCH_longterm.json"
# The bench aborts unless the reopened snapshot is byte-identical to the
# line-import rebuild and reopening beats importing by >= 10x; these
# guard the section itself.
grep -q '"persistence": {' BENCH_longterm.json
grep -q '"write_gbps"' BENCH_longterm.json
grep -q '"open_vs_import_speedup"' BENCH_longterm.json
grep -q '"digest_identical": true' BENCH_longterm.json
grep -q '"roundtrip_identical": true' BENCH_longterm.json

echo "==> out-of-core gate: streamed residency + analysis recorded in BENCH_longterm.json"
# The bench aborts unless the streamed reader's peak residency stays at
# the one-block floor while the materialized store grows, and the
# streamed analysis is byte-identical within its time budget; these
# guard the section itself.
grep -q '"out_of_core": {' BENCH_longterm.json
grep -q '"peak_over_floor"' BENCH_longterm.json
grep -q '"one_block_floor_bytes"' BENCH_longterm.json
grep -q '"streamed_vs_in_memory"' BENCH_longterm.json
grep -q '"flat_resident": true' BENCH_longterm.json

echo "==> service gate: always-on section recorded in BENCH_longterm.json"
# The bench aborts unless the service's live dataset is byte-identical
# to the batch recompute and incremental updates / queries beat the
# batch path by the gated ratios; these guard the section itself.
grep -q '"service": {' BENCH_longterm.json
grep -q '"dataset_identical": true' BENCH_longterm.json
grep -q '"batch_over_update"' BENCH_longterm.json
grep -q '"batch_over_query"' BENCH_longterm.json
grep -q '"ns_per_query"' BENCH_longterm.json

echo "CI OK"
