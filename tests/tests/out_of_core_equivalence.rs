//! Out-of-core streaming must be invisible in the data, property-tested:
//! for any way of cutting a campaign corpus into shard files, any shard
//! write block size, any streamed batch budget, and any permutation of
//! shard contents, the streaming multi-shard absorb
//! (`snapshot::absorb_files`) must land on the **byte-identical** store
//! that the legacy full-reopen-then-`absorb` merge produces — same
//! record sequence, same FNV-64 digest, same arena statistics — and
//! chunked `SnapshotReader` iteration must reconstruct every record in
//! stream order.
//!
//! Corpora are real simulated campaigns (3 seeds × {quiet, noisy} probe
//! faults), built once and cached; the property then explores the
//! sharding/budget space on top of them.

use proptest::prelude::*;
use s2s_bench::fabric::{self, store_digest};
use s2s_bench::{Scale, Scenario};
use s2s_probe::store::TraceStore;
use s2s_probe::{FaultProfile, RetryPolicy, TracerouteRecord};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

fn scale(seed: u64) -> Scale {
    Scale {
        seed,
        clusters: 8,
        days: 4,
        pairs: 6,
        ping_pairs: 8,
        cong_pairs: 4,
    }
}

fn noisy() -> FaultProfile {
    FaultProfile {
        crash_rate: 0.02,
        drop_rate: 0.05,
        stuck_rate: 0.02,
        truncate_rate: 0.05,
        ..FaultProfile::default()
    }
}

/// The six cached corpora: 3 seeds × {quiet, noisy} long-term campaigns,
/// built once for the whole property run.
fn corpora() -> &'static Vec<Vec<TracerouteRecord>> {
    static CORPORA: OnceLock<Vec<Vec<TracerouteRecord>>> = OnceLock::new();
    CORPORA.get_or_init(|| {
        let mut out = Vec::new();
        for seed in [3u64, 11, 29] {
            let scenario = Scenario::build(scale(seed));
            for profile in [FaultProfile::default(), noisy()] {
                let (store, _) = scenario.long_term_store_faulty(
                    &fabric::longterm_pairs(&scenario),
                    &profile,
                    &RetryPolicy::default(),
                );
                out.push(store.to_records());
            }
        }
        out
    })
}

static RUN_ID: AtomicUsize = AtomicUsize::new(0);

/// A fresh shard directory per case, removed on drop.
struct ShardDirGuard(PathBuf);

impl ShardDirGuard {
    fn new() -> ShardDirGuard {
        let dir = std::env::temp_dir().join(format!(
            "s2s-oocprop-{}-{}",
            std::process::id(),
            RUN_ID.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create shard dir");
        ShardDirGuard(dir)
    }
}

impl Drop for ShardDirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For any corpus, shard cuts, shard permutation, write block size and
    /// streamed batch budget: `absorb_files` == full-reopen + `absorb`,
    /// byte for byte, and batch iteration rebuilds every record in order.
    #[test]
    fn prop_streamed_shard_absorb_matches_full_reopen_merge(
        corpus in 0usize..6,
        raw_cuts in proptest::collection::vec(0usize..10_000, 0..3),
        perm_seed in 0u64..1000,
        budget in 1usize..512,
        block in 1usize..64,
    ) {
        let records = &corpora()[corpus];
        let n = records.len();

        // Cut the corpus into up to four contiguous shards, then permute
        // the chunk-to-file assignment with a seeded Fisher–Yates so the
        // merge order the property checks is not always corpus order.
        let mut cuts: Vec<usize> = raw_cuts.iter().map(|c| c % (n + 1)).collect();
        cuts.sort_unstable();
        let mut bounds = vec![0usize];
        bounds.extend(&cuts);
        bounds.push(n);
        bounds.dedup();
        let mut chunks: Vec<&[TracerouteRecord]> =
            bounds.windows(2).map(|w| &records[w[0]..w[1]]).collect();
        let mut s = perm_seed;
        for i in (1..chunks.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            chunks.swap(i, j);
        }

        let dir = ShardDirGuard::new();
        let mut paths = Vec::new();
        for (i, ch) in chunks.iter().enumerate() {
            let path = dir.0.join(format!("shard-{i}.snap"));
            let st = TraceStore::from_records(ch);
            let mut f = std::io::BufWriter::new(
                std::fs::File::create(&path).expect("create shard"),
            );
            s2s_probe::snapshot::write(&mut f, &st, &[], block).expect("write shard");
            std::io::Write::flush(&mut f).expect("flush shard");
            paths.push(path);
        }

        // Reference: the PR-7 merge — materialize each shard fully, then
        // absorb it into the merged store.
        let mut reference = TraceStore::new();
        for p in &paths {
            let snap = s2s_probe::snapshot::open_file(p).expect("reopen shard");
            reference.absorb(&snap.store);
        }

        // Contender: the streaming absorb, bounded by `budget` traces of
        // residency per shard.
        let options =
            s2s_probe::Snapshot::options().stream(true).block_budget(budget);
        let mut streamed = TraceStore::new();
        let (report, sinks) =
            s2s_probe::snapshot::absorb_files(&mut streamed, &paths, &options)
                .expect("streamed absorb");
        prop_assert!(report.clean(), "streamed absorb reported damage: {report:?}");
        prop_assert!(sinks.is_empty());
        prop_assert_eq!(store_digest(&streamed), store_digest(&reference));
        prop_assert_eq!(streamed.stats(), reference.stats());
        prop_assert_eq!(streamed.to_records(), reference.to_records());

        // Chunked iteration reconstructs the records in stream order, and
        // the digest folded batch by batch at this budget (what `reproduce`
        // prints for a reopened snapshot) equals the merged store's.
        let mut rebuilt = Vec::new();
        let mut digest = s2s_probe::fabric::FNV64_OFFSET;
        for p in &paths {
            let mut reader = options.open(p).expect("streamed open");
            while let Some(batch) = reader.next_batch().expect("streamed batch") {
                rebuilt.extend(batch.to_records());
                digest = fabric::store_digest_fold(digest, batch);
            }
        }
        prop_assert_eq!(rebuilt, reference.to_records());
        prop_assert_eq!(digest, store_digest(&reference));
    }
}
