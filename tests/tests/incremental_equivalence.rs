//! Split-invariance of the epoch-incremental analysis: for **any**
//! partition of a measured corpus into `Analysis::update(delta)` steps,
//! the live state must be byte-identical — timelines, change verdicts,
//! prevalence datasets, `Debug` rendering and all — to one batch
//! `Analysis` over the whole corpus, across seeds × fault profiles ×
//! batch thread counts. This is the contract that lets the always-on
//! service answer §4 questions without ever recomputing O(corpus). The
//! same holds when each split is annotated apart from the fold — through
//! one growing `StoreAnnotator` per group store, as the service annotates
//! its slot stores — and folded with `Analysis::fold`.

use proptest::prelude::*;
use s2s_bench::{Scale, Scenario};
use s2s_core::changes::{detect_changes, path_stats};
use s2s_core::{Analysis, AnnotatedTrace, IncrementalState, StoreAnnotator};
use s2s_probe::{FaultProfile, RetryPolicy, TraceStore, TracerouteRecord};
use s2s_types::SimDuration;
use std::collections::HashMap;
use std::sync::OnceLock;

const SEEDS: [u64; 3] = [3, 11, 29];
const THREADS: [usize; 3] = [1, 2, 4];

fn micro(seed: u64) -> Scenario {
    Scenario::build(Scale {
        seed,
        clusters: 12,
        days: 6,
        pairs: 8,
        ping_pairs: 12,
        cong_pairs: 4,
    })
}

fn profiles() -> Vec<(&'static str, FaultProfile)> {
    vec![
        ("quiet", FaultProfile::default()),
        (
            "noisy",
            FaultProfile {
                crash_rate: 0.02,
                drop_rate: 0.05,
                stuck_rate: 0.02,
                truncate_rate: 0.05,
                ..FaultProfile::default()
            },
        ),
    ]
}

/// One corpus plus its batch ground truth, rendered to comparison keys.
struct Corpus {
    label: String,
    scenario: Scenario,
    records: Vec<TracerouteRecord>,
    /// `Debug` of the batch timelines, identical for every thread count
    /// (asserted at build time).
    batch_timelines: String,
    batch_changes: String,
    batch_paths: String,
}

fn interval() -> SimDuration {
    SimDuration::from_hours(3)
}

/// Corpora are expensive to measure (a seeded world each), so they build
/// once and every proptest case reuses them.
fn corpora() -> &'static [Corpus] {
    static CORPORA: OnceLock<Vec<Corpus>> = OnceLock::new();
    CORPORA.get_or_init(|| {
        let mut out = Vec::new();
        for seed in SEEDS {
            let scenario = micro(seed);
            for (name, profile) in profiles() {
                let pairs = scenario.sample_pair_list(scenario.scale.pairs / 2, 0x10e6);
                let (store, _report) = scenario.long_term_store_faulty(
                    &pairs,
                    &profile,
                    &RetryPolicy::default(),
                );
                // The batch ground truth, pinned identical across thread
                // counts before any split is compared against it.
                let per_thread: Vec<String> = THREADS
                    .iter()
                    .map(|&n| {
                        format!(
                            "{:?}",
                            Analysis::new(&store).threads(n).timelines(&scenario.ip2asn)
                        )
                    })
                    .collect();
                for (i, t) in per_thread.iter().enumerate().skip(1) {
                    assert_eq!(
                        t, &per_thread[0],
                        "seed {seed} {name}: batch analysis diverged between \
                         {} and {} threads",
                        THREADS[0], THREADS[i]
                    );
                }
                let tls = Analysis::new(&store).timelines(&scenario.ip2asn);
                let batch_changes =
                    format!("{:?}", tls.iter().map(detect_changes).collect::<Vec<_>>());
                let batch_paths = format!(
                    "{:?}",
                    tls.iter().map(|tl| path_stats(tl, interval())).collect::<Vec<_>>()
                );
                out.push(Corpus {
                    label: format!("seed {seed} {name}"),
                    scenario: micro(seed),
                    records: store.to_records(),
                    batch_timelines: per_thread.into_iter().next().unwrap(),
                    batch_changes,
                    batch_paths,
                });
            }
        }
        out
    })
}

/// Splits `records` at the given cut points (deduped, sorted) into
/// non-empty chunks.
fn chunks<'a>(records: &'a [TracerouteRecord], cuts: &[usize]) -> Vec<&'a [TracerouteRecord]> {
    let mut out = Vec::new();
    let mut at = 0usize;
    for &cut in cuts.iter().chain([&records.len()]) {
        let cut = cut.min(records.len());
        if cut > at {
            out.push(&records[at..cut]);
            at = cut;
        }
    }
    out
}

/// Feeds each chunk of the split as one `update(delta)`.
fn fold_split(c: &Corpus, cuts: &[usize]) -> Analysis<IncrementalState> {
    let mut a = Analysis::new(IncrementalState::new());
    for chunk in chunks(&c.records, cuts) {
        a.update(&TraceStore::from_records(chunk), &c.scenario.ip2asn);
    }
    a
}

/// The same split annotated and folded the way the service does it: each
/// record appends to its (src, dst, protocol) group's own store and is
/// annotated by that store's `StoreAnnotator`, both living across chunks;
/// each chunk then folds through `Analysis::fold`.
fn annotate_then_fold_split(c: &Corpus, cuts: &[usize]) -> Analysis<IncrementalState> {
    let mut a = Analysis::new(IncrementalState::new());
    let mut group_of = HashMap::new();
    let mut groups: Vec<(TraceStore, StoreAnnotator)> = Vec::new();
    for chunk in chunks(&c.records, cuts) {
        let annotated: Vec<(usize, usize, u32)> = chunk
            .iter()
            .map(|r| {
                let g = *group_of.entry((r.src, r.dst, r.proto)).or_insert_with(|| {
                    groups.push((TraceStore::new(), StoreAnnotator::new()));
                    groups.len() - 1
                });
                let (store, ann) = &mut groups[g];
                store.push(r);
                let row = store.len() - 1;
                (g, row, ann.annotate(store, row, &c.scenario.ip2asn))
            })
            .collect();
        a.fold(annotated.iter().map(|&(g, row, id)| {
            AnnotatedTrace::new(groups[g].0.view(row), groups[g].1.get(id))
        }));
    }
    a
}

/// Both ways of folding the split: `update` per chunk, and annotate then
/// fold per chunk through per-group store annotators. Each must equal the
/// batch state, and so each other.
fn assert_split_equivalent(c: &Corpus, cuts: &[usize], how: &str) {
    assert_equivalent(c, &fold_split(c, cuts), &format!("{how}, update"));
    assert_equivalent(c, &annotate_then_fold_split(c, cuts), &format!("{how}, annotate then fold"));
}

fn assert_equivalent(c: &Corpus, a: &Analysis<IncrementalState>, how: &str) {
    assert_eq!(
        format!("{:?}", a.timelines()),
        c.batch_timelines,
        "{}: {how}: incremental timelines diverged from batch",
        c.label
    );
    assert_eq!(
        format!("{:?}", a.change_stats()),
        c.batch_changes,
        "{}: {how}: folded change verdicts diverged from batch recompute",
        c.label
    );
    assert_eq!(
        format!("{:?}", a.path_stats(interval())),
        c.batch_paths,
        "{}: {how}: folded prevalence datasets diverged from batch recompute",
        c.label
    );
    assert_eq!(a.source().samples(), c.records.len() as u64, "{}: sample count", c.label);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Any split — random cut points, any count, in any order — folds to
    /// the batch state.
    #[test]
    fn any_split_folds_to_the_batch_state(
        corpus_idx in 0usize..6,
        mut cuts in proptest::collection::vec(0usize..4000, 0..12),
    ) {
        let c = &corpora()[corpus_idx];
        cuts.sort_unstable();
        cuts.dedup();
        assert_split_equivalent(c, &cuts, &format!("cuts {cuts:?}"));
    }
}

/// The degenerate splits the fuzzer is unlikely to hit exactly: one
/// record per update, one epoch per update, and the whole corpus as a
/// single delta — for every seed × profile corpus.
#[test]
fn canonical_splits_fold_to_the_batch_state() {
    for c in corpora() {
        let slots = {
            // One (pair, protocol) slot count's worth of records per
            // delta — the cadence a per-epoch service naturally feeds.
            let pairs = c.scenario.sample_pair_list(c.scenario.scale.pairs / 2, 0x10e6);
            pairs.len() * 2
        };
        for (how, step) in [("per-record", 1usize), ("per-slot-batch", slots)] {
            let cuts: Vec<usize> = (step..c.records.len()).step_by(step).collect();
            assert_split_equivalent(c, &cuts, how);
        }
        assert_split_equivalent(c, &[], "single-delta");
    }
}
