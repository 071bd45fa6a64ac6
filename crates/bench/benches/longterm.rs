//! Long-term campaign bench: sequential reference runner vs the
//! epoch-memoized, dst-batched, parallel runner — plus the columnar
//! analysis plane.
//!
//! Times both runners over the same world and pair list, asserts the two
//! datasets are byte-identical (the tentpole invariant — the fast path is
//! only admissible because it changes nothing), and writes the timings to
//! `BENCH_longterm.json` at the repo root so CI can archive the trend.
//! A third timed pass reruns the fast path with a metrics registry
//! installed, so the JSON also records the observability overhead (the
//! instrumented run must stay byte-identical and within a few percent).
//! The `analysis` section times the store build and the columnar
//! `TraceStore` analysis (single- and multi-threaded, asserted identical),
//! records arena vs serialized dataset bytes and the hop dedup ratio, and
//! times the line importer. The `persistence` section
//! writes the corpus as a binary columnar snapshot and races reopening it
//! against rebuilding the store from archived lines — digests asserted
//! identical, open-vs-import speedup asserted >= 10x, write GB/s
//! recorded. The `shortterm` section runs
//! the §5 ping mesh through a streaming `PairProfileSink` at two window
//! lengths: it records throughput, shows sink state staying flat while
//! the materialized plane doubles, and asserts streamed-vs-exact
//! congestion classification agreement (>= 99%).
//!
//! Knobs:
//! * `S2S_BENCH_QUICK=1` — a smaller world and a single timing sample, for
//!   CI smoke runs (minutes → seconds).
//! * `S2S_THREADS` — worker threads for the parallel runner and the
//!   columnar analysis shards (the reference runner is single-threaded by
//!   construction).

use criterion::{criterion_group, criterion_main, Criterion};
use s2s_bench::{Scale, Scenario};
use s2s_core::congestion::DetectParams;
use s2s_core::Analysis;
use s2s_probe::dataset::{traceroute_from_line, traceroute_to_line};
use s2s_probe::{
    Campaign, CampaignConfig, PairProfile, PairProfileSink, PingTimeline, TraceOptions,
    TraceStore, TracerouteRecord,
};
use s2s_types::{Protocol, SimDuration, SimTime};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn quick() -> bool {
    s2s_types::env::var_flag("S2S_BENCH_QUICK")
}

/// The bench world: the smoke scale, shrunk further under quick mode.
fn scale() -> Scale {
    let mut s = Scale::smoke();
    if quick() {
        s.clusters = 12;
        s.days = 10;
        s.pairs = 12;
    }
    s
}

struct BenchWorld {
    scenario: Scenario,
    pairs: Vec<(s2s_types::ClusterId, s2s_types::ClusterId)>,
    cfg: CampaignConfig,
}

fn world() -> BenchWorld {
    let scenario = Scenario::build(scale());
    let pairs = scenario.sample_pair_list(scenario.scale.pairs / 2, 0xBE);
    let cfg = CampaignConfig::long_term(scenario.scale.days);
    BenchWorld { scenario, pairs, cfg }
}

fn lines_reference(w: &BenchWorld) -> Vec<Vec<String>> {
    Campaign::new(w.cfg.clone())
        .reference()
        .run_traceroute_with(
            &w.scenario.net,
            &w.pairs,
            |_, _| TraceOptions::default(),
            |_, _, _| Vec::new(),
            |acc: &mut Vec<String>, rec: TracerouteRecord| acc.push(traceroute_to_line(&rec)),
        )
        .expect("in-memory campaign cannot fail")
        .0
}

fn lines_batched(w: &BenchWorld) -> Vec<Vec<String>> {
    Campaign::new(w.cfg.clone())
        .run_traceroute_with(
            &w.scenario.net,
            &w.pairs,
            |_, _| TraceOptions::default(),
            |_, _, _| Vec::new(),
            |acc: &mut Vec<String>, rec: TracerouteRecord| acc.push(traceroute_to_line(&rec)),
        )
        .expect("in-memory campaign cannot fail")
        .0
}

/// Medians a set of timed samples of `f`, returning (median, last result).
fn time_samples<T>(n: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut samples = Vec::with_capacity(n);
    let mut out = None;
    for _ in 0..n.max(1) {
        let t = Instant::now();
        out = Some(f());
        samples.push(t.elapsed());
    }
    samples.sort_unstable();
    (samples[samples.len() / 2], out.unwrap())
}

/// The corpus for the analysis bench: the campaign's records grouped per
/// (pair, protocol) accumulator.
fn record_groups(w: &BenchWorld) -> Vec<Vec<TracerouteRecord>> {
    Campaign::new(w.cfg.clone())
        .run_traceroute_with(
            &w.scenario.net,
            &w.pairs,
            |_, _| TraceOptions::default(),
            |_, _, _| Vec::new(),
            |acc: &mut Vec<TracerouteRecord>, rec| acc.push(rec),
        )
        .expect("in-memory campaign cannot fail")
        .0
}

fn bench_longterm(c: &mut Criterion) {
    let w = world();
    let samples = if quick() { 1 } else { 3 };

    let (t_ref, data_ref) = time_samples(samples, || lines_reference(&w));
    let (t_new, data_new) = time_samples(samples, || lines_batched(&w));
    assert_eq!(
        data_ref, data_new,
        "epoch-batched runner must serialize to the reference's exact bytes"
    );

    // Observability overhead: the same fast path with a live global
    // registry. Must change nothing about the dataset; the JSON records the
    // slowdown so a regression past the <3% budget shows up in the trend.
    let registry = Arc::new(s2s_obs::Registry::new());
    w.scenario.net.observe(&registry);
    s2s_obs::install(Arc::clone(&registry));
    let (t_obs, data_obs) = time_samples(samples, || lines_batched(&w));
    s2s_obs::uninstall();
    assert_eq!(
        data_ref, data_obs,
        "metrics-enabled runner must serialize to the reference's exact bytes"
    );
    // The raw ratio is a delta of two noisy single-core medians and lands
    // negative about half the time when the true overhead is below the
    // noise floor — report it as-is for the trend, plus a clamped field
    // that never claims a speedup the instrumentation cannot cause.
    let obs_overhead_raw = t_obs.as_secs_f64() / t_new.as_secs_f64().max(1e-9) - 1.0;
    let obs_overhead = obs_overhead_raw.max(0.0);

    let cs = w.scenario.oracle.cache_stats();
    let speedup = t_ref.as_secs_f64() / t_new.as_secs_f64().max(1e-9);
    println!(
        "longterm: reference {t_ref:?}, epoch-batched {t_new:?} ({speedup:.2}x), \
         observed {t_obs:?} ({:+.1}% raw overhead, {:.1}% clamped), \
         {} epochs, {} epoch configs, cache {}h/{}m/{}e",
        100.0 * obs_overhead_raw,
        100.0 * obs_overhead,
        w.scenario.oracle.dynamics().epoch_count(),
        cs.epoch_configs,
        cs.hits,
        cs.misses,
        cs.evictions
    );

    // ---- Analysis plane: store build, columnar timelines ----
    let groups = record_groups(&w);
    let map = &w.scenario.ip2asn;
    let analysis_samples = if quick() { 3 } else { 5 };

    let (t_build, store) = time_samples(analysis_samples, || {
        let mut st = TraceStore::new();
        for g in &groups {
            for r in g {
                st.push(r);
            }
        }
        st
    });
    let (t_columnar, columnar_tls) =
        time_samples(analysis_samples, || Analysis::new(&store).threads(1).timelines(map));
    let threads = s2s_probe::env::threads();
    let (t_mt, mt_tls) =
        time_samples(analysis_samples, || Analysis::new(&store).threads(threads).timelines(map));
    assert_eq!(
        format!("{columnar_tls:?}"),
        format!("{mt_tls:?}"),
        "multi-threaded columnar analysis must be byte-identical"
    );

    let stats = store.stats();
    let serialized_bytes: usize = groups
        .iter()
        .flatten()
        .map(|r| traceroute_to_line(r).len() + 1)
        .sum();
    let bytes_ratio = serialized_bytes as f64 / stats.arena_bytes.max(1) as f64;
    let columnar_total = t_build + t_columnar;

    // Importer micro-bench: the single-pass `|`-split parser over the full
    // serialized corpus (it used to collect a per-line field vector).
    let all_lines: Vec<String> =
        groups.iter().flatten().map(traceroute_to_line).collect();
    let (t_import, parsed) = time_samples(analysis_samples, || {
        let mut n = 0usize;
        for (i, l) in all_lines.iter().enumerate() {
            std::hint::black_box(
                traceroute_from_line(l, i + 1).expect("own output parses"),
            );
            n += 1;
        }
        n
    });
    assert_eq!(parsed, all_lines.len());
    let ns_per_line = t_import.as_nanos() as f64 / all_lines.len().max(1) as f64;

    // ---- Persistence: binary snapshot vs line re-import ----
    //
    // The durable-form race: reopening the columnar snapshot
    // (O(distinct-data) bulk loads + index rebuild) against rebuilding the
    // store from its archived lines (parse + re-intern per record). Both
    // paths must land on byte-identical stores — asserted via the dataset
    // digest and a full record comparison — and the snapshot must win by
    // at least 10x, or persistence isn't paying for its format.
    //
    // The corpus is the campaign's records replicated up to ~40k traces:
    // quick mode shrinks the world so far that fixed open costs (file
    // open, segment headers, intern-index rebuild) would mask the
    // per-trace asymptotics the format exists for. Replication adds
    // traces without adding distinct data — the regime the paper's
    // multi-billion-trace corpus lives in (and what the full-scale world
    // measures without any replication).
    let repeat = (40_000 / all_lines.len().max(1)).max(1);
    let campaign_records = store.to_records();
    let mut persist_store = TraceStore::new();
    for _ in 0..repeat {
        for r in &campaign_records {
            persist_store.push(r);
        }
    }
    let persist_lines: Vec<&String> =
        std::iter::repeat_n(&all_lines, repeat).flatten().collect();
    let persist_stats = persist_store.stats();
    let snap_path = std::env::temp_dir()
        .join(format!("s2s-bench-snapshot-{}.snap", std::process::id()));
    let (t_snap_write, snap_bytes) = time_samples(analysis_samples, || {
        s2s_probe::snapshot::write_file(&snap_path, &persist_store, &[])
            .expect("write snapshot")
    });
    let write_gbps = snap_bytes as f64 / t_snap_write.as_secs_f64().max(1e-9) / 1e9;
    let (t_snap_open, reopened) = time_samples(analysis_samples, || {
        s2s_probe::snapshot::open_file(&snap_path).expect("reopen snapshot")
    });
    let _ = std::fs::remove_file(&snap_path);
    let (t_line_import, imported_store) = time_samples(analysis_samples, || {
        let mut st = TraceStore::new();
        for (i, l) in persist_lines.iter().enumerate() {
            st.push(&traceroute_from_line(l, i + 1).expect("own output parses"));
        }
        st
    });
    let open_digest = s2s_bench::fabric::store_digest(&reopened.store);
    let import_digest = s2s_bench::fabric::store_digest(&imported_store);
    assert_eq!(
        open_digest, import_digest,
        "reopened snapshot must be byte-identical to the line re-import"
    );
    assert_eq!(
        reopened.store.to_records(),
        persist_store.to_records(),
        "snapshot round trip must reproduce the saved records exactly"
    );
    let open_vs_import =
        t_line_import.as_secs_f64() / t_snap_open.as_secs_f64().max(1e-9);
    assert!(
        open_vs_import >= 10.0,
        "snapshot open must beat the line re-import by >= 10x \
         (got {open_vs_import:.1}x: open {t_snap_open:?} vs import {t_line_import:?})"
    );
    println!(
        "persistence: {} traces ({} campaign x{repeat}), snapshot {snap_bytes} B; \
         write {t_snap_write:?} ({write_gbps:.2} GB/s), open {t_snap_open:?} vs \
         line import {t_line_import:?} ({open_vs_import:.1}x), digests identical",
        persist_stats.traces, stats.traces
    );

    // ---- Out-of-core streaming: flat residency + streamed analysis ----
    //
    // The streamed read path's claim is O(arena + one block) residency no
    // matter how many traces the snapshot holds. Measured directly: stream
    // the persistence corpus and a 2x replica at a fixed block/budget and
    // assert the reader's peak resident bytes stay within 20% of the
    // one-block floor (arena + first batch) and do not grow with the
    // corpus, while the materialized store grows linearly with it. The
    // streamed analysis front door must also produce byte-identical
    // timelines within 1.5x of the in-memory (materialize-then-analyze)
    // pipeline over the same file.
    let ooc_block = 512usize;
    let mut persist_store2 = TraceStore::new();
    for _ in 0..2 * repeat {
        for r in &campaign_records {
            persist_store2.push(r);
        }
    }
    let persist2_stats = persist_store2.stats();
    let write_ooc = |st: &TraceStore, tag: &str| {
        let path = std::env::temp_dir()
            .join(format!("s2s-bench-ooc-{tag}-{}.snap", std::process::id()));
        let mut f = std::io::BufWriter::new(
            std::fs::File::create(&path).expect("create snapshot"),
        );
        s2s_probe::snapshot::write(&mut f, st, &[], ooc_block).expect("write snapshot");
        std::io::Write::flush(&mut f).expect("flush snapshot");
        path
    };
    let small_path = write_ooc(&persist_store, "small");
    let large_path = write_ooc(&persist_store2, "large");
    let ooc_options =
        s2s_probe::Snapshot::options().stream(true).block_budget(ooc_block);
    let stream_peak = |path: &std::path::Path| {
        let mut reader = ooc_options.open(path).expect("open streamed");
        let mut floor = 0usize;
        let mut traces = 0usize;
        while let Some(batch) = reader.next_batch().expect("streamed batch") {
            traces += batch.len();
            if floor == 0 {
                floor = reader.resident_bytes();
            }
        }
        (reader.peak_resident_bytes(), floor, traces)
    };
    let (peak_small, ooc_floor, n_small) = stream_peak(&small_path);
    let (peak_large, _, n_large) = stream_peak(&large_path);
    assert_eq!(n_small, persist_stats.traces);
    assert_eq!(n_large, persist2_stats.traces);
    let peak_over_floor = peak_small as f64 / ooc_floor.max(1) as f64;
    assert!(
        peak_over_floor <= 1.2,
        "streamed peak residency must stay within 1.2x of the one-block floor \
         (got {peak_over_floor:.3}: peak {peak_small} B vs floor {ooc_floor} B)"
    );
    assert!(
        peak_large as f64 <= 1.2 * peak_small as f64,
        "streamed peak residency must not grow with the corpus \
         (2x corpus: {peak_large} B vs {peak_small} B)"
    );
    let ooc_growth =
        persist2_stats.arena_bytes as f64 / persist_stats.arena_bytes.max(1) as f64;
    assert!(
        ooc_growth >= 1.5,
        "the materialized store must grow with the corpus \
         ({} B -> {} B, {ooc_growth:.2}x)",
        persist_stats.arena_bytes,
        persist2_stats.arena_bytes
    );
    // Both contenders start from the file on disk: materialize-then-analyze
    // (full open, index rebuild, columnar pass) vs the fused streaming
    // front door (decode and analyze per batch, no index rebuild).
    let (t_ooc_inmem, ooc_inmem_tls) = time_samples(analysis_samples, || {
        let snap =
            s2s_probe::snapshot::open_file(&small_path).expect("reopen snapshot");
        Analysis::new(&snap).threads(1).timelines(map)
    });
    let (t_ooc_streamed, ooc_streamed_tls) = time_samples(analysis_samples, || {
        let reader = ooc_options.open(&small_path).expect("open streamed");
        Analysis::new(reader).timelines(map).expect("streamed analysis")
    });
    let _ = std::fs::remove_file(&small_path);
    let _ = std::fs::remove_file(&large_path);
    assert_eq!(
        format!("{ooc_inmem_tls:?}"),
        format!("{ooc_streamed_tls:?}"),
        "streamed analysis must be byte-identical to the in-memory pass"
    );
    let streamed_vs_in_memory =
        t_ooc_streamed.as_secs_f64() / t_ooc_inmem.as_secs_f64().max(1e-9);
    assert!(
        streamed_vs_in_memory <= 1.5,
        "streamed analysis must stay within 1.5x of in-memory \
         (got {streamed_vs_in_memory:.2}x: {t_ooc_streamed:?} vs {t_ooc_inmem:?})"
    );
    println!(
        "out-of-core: peak {peak_small} B vs one-block floor {ooc_floor} B \
         ({peak_over_floor:.3}x), 2x-corpus peak {peak_large} B; materialized \
         {} B -> {} B ({ooc_growth:.2}x); streamed analysis {t_ooc_streamed:?} \
         vs in-memory {t_ooc_inmem:?} ({streamed_vs_in_memory:.2}x), identical",
        persist_stats.arena_bytes, persist2_stats.arena_bytes
    );

    println!(
        "analysis: columnar {t_columnar:?} (+ {t_build:?} store build), \
         {threads} threads {t_mt:?}; arena {} B vs {serialized_bytes} B serialized \
         ({bytes_ratio:.2}x), dedup {:.2}x ({} addrs, {} hop seqs, {} traces); \
         importer {t_import:?} ({ns_per_line:.0} ns/line)",
        stats.arena_bytes, stats.dedup_ratio, stats.distinct_addrs,
        stats.distinct_seqs, stats.traces
    );

    // ---- Short-term plane: streaming sinks vs materialized timelines ----
    //
    // The §5 ping mesh at two window lengths over the *same* pairs: the
    // materialized representation doubles with the sample count while the
    // sink state (sketch + moments + diurnal ring + spectrum) must not —
    // that flatness is the constant-memory claim, recorded and asserted
    // here. The long window also pins streamed-vs-exact classification
    // agreement.
    let ping_pairs =
        w.scenario.sample_pair_list(if quick() { 16 } else { 60 }, 0x5EC5);
    let (short_days, long_days) = (7u32, 14u32);
    let mk_ping_cfg = |days: u32| CampaignConfig {
        start: SimTime::T0,
        end: SimTime::from_days(days),
        interval: SimDuration::from_minutes(15),
        protocols: vec![Protocol::V4],
        threads: s2s_probe::env::threads(),
    };
    let run_sink = |cfg: &CampaignConfig| {
        Campaign::new(cfg.clone())
            .sink(PairProfileSink::for_config(cfg))
            .run_ping(&w.scenario.net, &ping_pairs)
            .expect("in-memory campaign cannot fail")
    };
    let run_materialized = |cfg: &CampaignConfig| {
        Campaign::new(cfg.clone())
            .run_ping(&w.scenario.net, &ping_pairs)
            .expect("in-memory campaign cannot fail")
            .0
    };
    let (cfg_short, cfg_long) = (mk_ping_cfg(short_days), mk_ping_cfg(long_days));
    let (t_sink, (profiles_long, sink_report)) =
        time_samples(samples, || run_sink(&cfg_long));
    let (profiles_short, _) = run_sink(&cfg_short);
    let tls_long = run_materialized(&cfg_long);
    let tls_short = run_materialized(&cfg_short);

    let sink_bytes = |ps: &[PairProfile]| -> usize {
        ps.iter().map(|p| p.memory_bytes()).sum()
    };
    let materialized_bytes = |tls: &[PingTimeline]| -> usize {
        tls.iter()
            .map(|t| std::mem::size_of::<PingTimeline>() + 4 * t.rtts.len())
            .sum()
    };
    let (sink_short, sink_long) = (sink_bytes(&profiles_short), sink_bytes(&profiles_long));
    let (mat_short, mat_long) =
        (materialized_bytes(&tls_short), materialized_bytes(&tls_long));
    let sink_growth = sink_long as f64 / sink_short.max(1) as f64;
    let mat_growth = mat_long as f64 / mat_short.max(1) as f64;
    assert!(
        mat_growth > 1.5,
        "doubling the window must grow the materialized plane (got {mat_growth:.2}x)"
    );
    assert!(
        sink_growth < 1.10,
        "sink state must be independent of the sample count \
         (got {sink_growth:.2}x over a {mat_growth:.2}x materialized growth)"
    );

    let params = DetectParams::default();
    let exact = Analysis::new(tls_long.as_slice()).congestion(&params);
    let streamed = Analysis::new(profiles_long.as_slice()).congestion(&params);
    assert_eq!(exact.len(), streamed.len());
    let agreeing = exact
        .iter()
        .zip(&streamed)
        .filter(|(a, b)| match (a, b) {
            (None, None) => true,
            (Some(x), Some(y)) => x.consistent == y.consistent,
            _ => false,
        })
        .count();
    let streamed_exact_agreement = agreeing as f64 / exact.len().max(1) as f64;
    assert!(
        streamed_exact_agreement >= 0.99,
        "streamed classification must agree with the exact path on >= 99% \
         of pairs (got {streamed_exact_agreement:.4})"
    );

    let sink_throughput =
        sink_report.offered as f64 / t_sink.as_secs_f64().max(1e-9);
    println!(
        "shortterm: {} pairs, sink run {t_sink:?} ({sink_throughput:.0} samples/s); \
         sink {sink_short} -> {sink_long} B ({sink_growth:.2}x) vs \
         materialized {mat_short} -> {mat_long} B ({mat_growth:.2}x) over \
         {short_days} -> {long_days} days; streamed/exact agreement \
         {:.2}%",
        ping_pairs.len(),
        100.0 * streamed_exact_agreement
    );

    // ---- Scale-out fabric: subprocess sharding vs one process ----
    //
    // The same long-term collection through the crash-tolerant fabric
    // (2 worker subprocesses of the `reproduce` binary) against the
    // in-process path: asserts byte-identity of the merged dataset,
    // records the merge/coordination overhead, then reruns under a
    // seeded kill+crash schedule and records the recovery latency.
    let fabric_workers = 2usize;
    let worker_envs: Vec<(String, String)> = vec![
        ("S2S_SEED".into(), w.scenario.scale.seed.to_string()),
        ("S2S_CLUSTERS".into(), w.scenario.scale.clusters.to_string()),
        ("S2S_DAYS".into(), w.scenario.scale.days.to_string()),
        ("S2S_PAIRS".into(), w.scenario.scale.pairs.to_string()),
        ("S2S_PING_PAIRS".into(), w.scenario.scale.ping_pairs.to_string()),
        ("S2S_CONG_PAIRS".into(), w.scenario.scale.cong_pairs.to_string()),
        ("S2S_THREADS".into(), threads.to_string()),
    ];
    let run_fabric = |plan: &str| {
        let ckpt = std::env::temp_dir()
            .join(format!("s2s-bench-fabric-{}", std::process::id()));
        std::fs::create_dir_all(&ckpt).expect("fabric checkpoint dir");
        let mut envs = worker_envs.clone();
        if !plan.is_empty() {
            envs.push(("S2S_FABRIC_FAULT_PLAN".into(), plan.to_string()));
        }
        let launcher = s2s_bench::fabric::worker_launcher(
            std::path::PathBuf::from(env!("CARGO_BIN_EXE_reproduce")),
            vec!["worker".to_string()],
            "longterm",
            fabric_workers,
            &ckpt,
            envs,
        );
        let cfg = s2s_probe::FabricConfig {
            workers: fabric_workers,
            ..s2s_probe::FabricConfig::default()
        };
        let out = s2s_bench::fabric::collect_longterm_fabric(&w.scenario, cfg, launcher)
            .expect("fabric collection");
        let _ = std::fs::remove_dir_all(&ckpt);
        out
    };
    let t = Instant::now();
    let (_, base_digest, _) = s2s_bench::fabric::collect_longterm_digest(
        &w.scenario,
        &s2s_probe::FaultProfile::default(),
    );
    let t_one_process = t.elapsed();
    let t = Instant::now();
    let fabric_clean = run_fabric("");
    let t_fabric = t.elapsed();
    assert_eq!(
        fabric_clean.digest, base_digest,
        "fabric dataset must be byte-identical to one process"
    );
    assert_eq!(fabric_clean.outcome.stats.lost, 0);
    let fabric_recovered = run_fabric("kill@0.1=1;exit@1.1");
    assert_eq!(
        fabric_recovered.digest, base_digest,
        "crash-recovered fabric dataset must be byte-identical to one process"
    );
    assert!(fabric_recovered.outcome.stats.recoveries >= 2);
    let fabric_overhead =
        t_fabric.as_secs_f64() / t_one_process.as_secs_f64().max(1e-9) - 1.0;
    let rec_stats = &fabric_recovered.outcome.stats;
    println!(
        "fabric: one process {t_one_process:?}, {fabric_workers} workers {t_fabric:?} \
         ({:+.1}% overhead, merge {:.1} ms); kill+crash schedule: {} retries, \
         {} recoveries, recovery latency {:.1} ms, dataset identical",
        100.0 * fabric_overhead,
        fabric_clean.outcome.stats.merge_ms,
        rec_stats.retries,
        rec_stats.recoveries,
        rec_stats.recovery_ms
    );

    // ---- Always-on service: the epoch-incremental path must land on the
    // batch bytes, one `update(delta)` must cost far less than a batch
    // recompute, and per-pair queries must answer in O(pair state). ----
    let svc_map = &*w.scenario.ip2asn;
    let (svc_batch_store, svc_batch_digest, _, _) = s2s_bench::service::batch_baseline(
        &w.scenario,
        &s2s_probe::FaultProfile::default(),
        &s2s_probe::RetryPolicy::default(),
    );
    let svc_cfg = s2s_bench::service::ServiceConfig {
        cadence_ms: 0,
        snap_every: usize::MAX,
        query_budget: usize::MAX,
        snapshot_path: None,
        profile: s2s_probe::FaultProfile::default(),
        retry: s2s_probe::RetryPolicy::default(),
    };
    let t = Instant::now();
    let mut svc = s2s_bench::service::Service::new(&w.scenario, svc_cfg);
    while svc.advance() {}
    let t_service_full = t.elapsed();
    assert_eq!(
        svc.digest(),
        svc_batch_digest,
        "service epoch sweep must be byte-identical to the batch campaign"
    );
    // Batch recompute: timelines plus both §4 verdict families from
    // scratch — what the service's folded state replaces per query.
    let (t_batch_recompute, _) = time_samples(samples, || {
        let tls = Analysis::new(&svc_batch_store).threads(1).timelines(svc_map);
        let ch: Vec<_> = tls.iter().map(s2s_core::changes::detect_changes).collect();
        let ps: Vec<_> = tls
            .iter()
            .map(|tl| s2s_core::changes::path_stats(tl, SimDuration::from_hours(3)))
            .collect();
        (tls.len(), ch.len(), ps.len())
    });
    // One-epoch update cost: fold everything but the last epoch's worth of
    // records, then time absorbing that final delta into the live state.
    let svc_records = svc_batch_store.to_records();
    let svc_epochs = CampaignConfig::long_term(w.scenario.scale.days).n_samples();
    let svc_slots = svc_records.len() / svc_epochs.max(1);
    let (head, tail) = svc_records.split_at(svc_records.len() - svc_slots);
    let mut pre = Analysis::new(s2s_core::IncrementalState::new());
    pre.update(&TraceStore::from_records(head), svc_map);
    let pre_state = pre.source().clone();
    let last_delta = TraceStore::from_records(tail);
    let t_update = {
        let mut samples_v = Vec::new();
        for _ in 0..samples.max(1) {
            let mut a = Analysis::new(pre_state.clone());
            let t = Instant::now();
            a.update(&last_delta, svc_map);
            samples_v.push(t.elapsed());
        }
        samples_v.sort_unstable();
        samples_v[samples_v.len() / 2]
    };
    let batch_over_update =
        t_batch_recompute.as_secs_f64() / t_update.as_secs_f64().max(1e-12);
    assert!(
        batch_over_update >= 2.0,
        "one-epoch update ({t_update:?}) must be far cheaper than a batch \
         recompute ({t_batch_recompute:?}), got {batch_over_update:.1}x"
    );
    // Query latency over the live state: every pair, all four per-pair
    // families plus stats — each answer reads pair state, never the corpus.
    let svc_pairs = s2s_bench::fabric::longterm_pairs(&w.scenario);
    let mut svc_queries = 0u64;
    let t = Instant::now();
    for &(s, d) in &svc_pairs {
        for q in [
            format!("pair {} {} v4", s.index(), d.index()),
            format!("diurnal {} {} v4", s.index(), d.index()),
            format!("changes {} {} v6", s.index(), d.index()),
            format!("advice {} {}", s.index(), d.index()),
            "stats".to_string(),
        ] {
            let a = svc.answer(&q);
            assert!(a.starts_with("ok"), "query '{q}' failed: {a}");
            svc_queries += 1;
        }
    }
    let t_queries = t.elapsed();
    let query_seconds = t_queries.as_secs_f64() / svc_queries.max(1) as f64;
    let ns_per_query = t_queries.as_nanos() as f64 / svc_queries.max(1) as f64;
    let batch_over_query = t_batch_recompute.as_secs_f64() / query_seconds.max(1e-12);
    assert!(
        batch_over_query >= 10.0,
        "a per-pair query ({ns_per_query:.0} ns) must be orders cheaper than \
         an O(corpus) recompute ({t_batch_recompute:?}), got {batch_over_query:.1}x"
    );
    println!(
        "service: {svc_epochs} epochs × {svc_slots} slots folded in \
         {t_service_full:?}, dataset identical; one-epoch update {t_update:?} vs \
         batch recompute {t_batch_recompute:?} ({batch_over_update:.1}x); \
         {svc_queries} queries at {ns_per_query:.0} ns each ({batch_over_query:.0}x \
         cheaper than recompute)"
    );

    // Hand-rolled JSON: the offline criterion shim has no machine-readable
    // output, and this file is the artifact CI uploads. The `fullscale`
    // block is the recorded single-core 120-cluster/485-day run — the
    // committed `reproduce_fullscale.txt` (seed code, FIFO config cache,
    // per-probe routing) vs `reproduce_fullscale_after.txt` (this epoch
    // memo); both runners at bench scale share the memoized oracle, so the
    // in-process speedup here stays near 1x by design.
    let json = format!(
        "{{\n  \"bench\": \"longterm_campaign\",\n  \"quick\": {},\n  \
         \"clusters\": {},\n  \"days\": {},\n  \"directed_pairs\": {},\n  \
         \"threads\": {},\n  \"samples\": {},\n  \
         \"reference_seconds\": {:.6},\n  \"epoch_batched_seconds\": {:.6},\n  \
         \"speedup\": {:.3},\n  \"dataset_identical\": true,\n  \
         \"observed_seconds\": {:.6},\n  \
         \"observability_overhead_raw\": {:.4},\n  \
         \"observability_overhead\": {:.4},\n  \
         \"observability_overhead_note\": \"raw is a delta of two noisy \
         single-core medians and can dip below zero when the true overhead \
         is under the noise floor; the clamped field floors it at 0\",\n  \
         \"observed_dataset_identical\": true,\n  \
         \"epochs\": {},\n  \"epoch_configs\": {},\n  \
         \"cache_hits\": {},\n  \"cache_misses\": {},\n  \"cache_evictions\": {},\n  \
         \"analysis\": {{\n    \"samples\": {},\n    \
         \"store_build_seconds\": {:.6},\n    \
         \"columnar_seconds\": {:.6},\n    \
         \"columnar_total_seconds\": {:.6},\n    \
         \"threads\": {},\n    \"mt_seconds\": {:.6},\n    \
         \"timelines\": {},\n    \"identical\": true,\n    \
         \"traces\": {},\n    \"distinct_addrs\": {},\n    \
         \"distinct_hop_sequences\": {},\n    \"hop_slots\": {},\n    \
         \"dedup_ratio\": {:.3},\n    \
         \"serialized_record_bytes\": {},\n    \"arena_bytes\": {},\n    \
         \"bytes_ratio\": {:.3},\n    \
         \"importer\": {{\n      \"lines\": {},\n      \
         \"seconds\": {:.6},\n      \"ns_per_line\": {:.1}\n    }}\n  }},\n  \
         \"persistence\": {{\n    \"traces\": {},\n    \
         \"snapshot_bytes\": {},\n    \
         \"write_seconds\": {:.6},\n    \"write_gbps\": {:.3},\n    \
         \"open_seconds\": {:.6},\n    \"import_seconds\": {:.6},\n    \
         \"open_vs_import_speedup\": {:.1},\n    \
         \"digest_identical\": true,\n    \
         \"roundtrip_identical\": true,\n    \
         \"out_of_core\": {{\n      \
         \"streamed_peak_bytes\": {},\n      \
         \"one_block_floor_bytes\": {},\n      \
         \"peak_over_floor\": {:.3},\n      \
         \"streamed_peak_bytes_2x\": {},\n      \
         \"materialized_bytes_small\": {},\n      \
         \"materialized_bytes_large\": {},\n      \
         \"materialized_growth\": {:.3},\n      \
         \"streamed_seconds\": {:.6},\n      \
         \"in_memory_seconds\": {:.6},\n      \
         \"streamed_vs_in_memory\": {:.3},\n      \
         \"flat_resident\": true,\n      \
         \"identical\": true\n    }}\n  }},\n  \
         \"shortterm\": {{\n    \"pairs\": {},\n    \
         \"short_days\": {},\n    \"long_days\": {},\n    \
         \"sink_seconds\": {:.6},\n    \
         \"sink_samples_per_second\": {:.0},\n    \
         \"materialized_bytes_short\": {},\n    \
         \"materialized_bytes_long\": {},\n    \
         \"materialized_growth\": {:.3},\n    \
         \"sink_bytes_short\": {},\n    \"sink_bytes_long\": {},\n    \
         \"sink_growth\": {:.3},\n    \
         \"memory_independent_of_samples\": true,\n    \
         \"streamed_exact_agreement\": {:.4}\n  }},\n  \
         \"fabric\": {{\n    \"workers\": {},\n    \"shards\": {},\n    \
         \"one_process_seconds\": {:.6},\n    \
         \"fabric_seconds\": {:.6},\n    \
         \"merge_overhead\": {:.4},\n    \"merge_ms\": {:.3},\n    \
         \"dataset_identical\": true,\n    \
         \"recovery\": {{\n      \"plan\": \"kill@0.1=1;exit@1.1\",\n      \
         \"retries\": {},\n      \"recoveries\": {},\n      \
         \"recovery_ms\": {:.3},\n      \
         \"dataset_identical\": true\n    }}\n  }},\n  \
         \"service\": {{\n    \"epochs\": {},\n    \"slots\": {},\n    \
         \"dataset_identical\": true,\n    \
         \"service_full_seconds\": {:.6},\n    \
         \"batch_recompute_seconds\": {:.6},\n    \
         \"update_seconds\": {:.9},\n    \
         \"batch_over_update\": {:.1},\n    \
         \"queries\": {},\n    \"ns_per_query\": {:.0},\n    \
         \"batch_over_query\": {:.1}\n  }},\n  \
         \"fullscale\": {{\n    \"clusters\": 120,\n    \"days\": 485,\n    \
         \"directed_pairs\": 1200,\n    \"cores\": 1,\n    \
         \"before_seconds\": 736.527,\n    \"after_seconds\": 104.206,\n    \
         \"speedup\": 7.07,\n    \
         \"before_log\": \"reproduce_fullscale.txt\",\n    \
         \"after_log\": \"reproduce_fullscale_after.txt\"\n  }}\n}}\n",
        quick(),
        w.scenario.scale.clusters,
        w.scenario.scale.days,
        w.pairs.len(),
        w.cfg.threads,
        samples,
        t_ref.as_secs_f64(),
        t_new.as_secs_f64(),
        speedup,
        t_obs.as_secs_f64(),
        obs_overhead_raw,
        obs_overhead,
        w.scenario.oracle.dynamics().epoch_count(),
        cs.epoch_configs,
        cs.hits,
        cs.misses,
        cs.evictions,
        analysis_samples,
        t_build.as_secs_f64(),
        t_columnar.as_secs_f64(),
        columnar_total.as_secs_f64(),
        threads,
        t_mt.as_secs_f64(),
        columnar_tls.len(),
        stats.traces,
        stats.distinct_addrs,
        stats.distinct_seqs,
        stats.hop_slots,
        stats.dedup_ratio,
        serialized_bytes,
        stats.arena_bytes,
        bytes_ratio,
        all_lines.len(),
        t_import.as_secs_f64(),
        ns_per_line,
        persist_stats.traces,
        snap_bytes,
        t_snap_write.as_secs_f64(),
        write_gbps,
        t_snap_open.as_secs_f64(),
        t_line_import.as_secs_f64(),
        open_vs_import,
        peak_small,
        ooc_floor,
        peak_over_floor,
        peak_large,
        persist_stats.arena_bytes,
        persist2_stats.arena_bytes,
        ooc_growth,
        t_ooc_streamed.as_secs_f64(),
        t_ooc_inmem.as_secs_f64(),
        streamed_vs_in_memory,
        ping_pairs.len(),
        short_days,
        long_days,
        t_sink.as_secs_f64(),
        sink_throughput,
        mat_short,
        mat_long,
        mat_growth,
        sink_short,
        sink_long,
        sink_growth,
        streamed_exact_agreement,
        fabric_workers,
        fabric_clean.outcome.stats.shards,
        t_one_process.as_secs_f64(),
        t_fabric.as_secs_f64(),
        fabric_overhead,
        fabric_clean.outcome.stats.merge_ms,
        rec_stats.retries,
        rec_stats.recoveries,
        rec_stats.recovery_ms,
        svc_epochs,
        svc_slots,
        t_service_full.as_secs_f64(),
        t_batch_recompute.as_secs_f64(),
        t_update.as_secs_f64(),
        batch_over_update,
        svc_queries,
        ns_per_query,
        batch_over_query
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_longterm.json");
    std::fs::write(path, json).expect("write BENCH_longterm.json");
    println!("wrote {path}");

    // Also register the batched runner and the columnar analysis with the
    // criterion harness so the standard bench report includes them
    // alongside the other groups.
    c.bench_function("longterm/epoch_batched_campaign", |b| b.iter(|| lines_batched(&w)));
    c.bench_function("longterm/columnar_analysis", |b| {
        b.iter(|| Analysis::new(&store).threads(1).timelines(map))
    });
    c.bench_function("shortterm/sink_campaign", |b| b.iter(|| run_sink(&cfg_short)));
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(2);
    targets = bench_longterm
);
criterion_main!(benches);
