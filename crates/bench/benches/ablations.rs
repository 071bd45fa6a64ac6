//! Ablation benches for the design choices DESIGN.md calls out: each
//! compares two configurations of the same pipeline stage and reports both
//! timings; the *quality* deltas (false-loop rates, detection rates) are
//! printed once at startup so `cargo bench` output records them.

use criterion::{criterion_group, criterion_main, Criterion};
use s2s_bench::{Scale, Scenario};
use s2s_core::annotate::annotate;
use s2s_core::bestpath::best_path_analysis;
use s2s_core::congestion::{detect, DetectParams};
use s2s_core::shortterm::subsample;
use s2s_core::Analysis;
use s2s_probe::{
    trace, Campaign, CampaignConfig, FaultProfile, RetryPolicy, TraceOptions, TracerouteMode,
};
use s2s_types::{Protocol, SimDuration, SimTime};
use std::sync::OnceLock;

fn scenario() -> &'static Scenario {
    static S: OnceLock<Scenario> = OnceLock::new();
    S.get_or_init(|| Scenario::build(Scale::smoke()))
}

/// ablate_paris: classic vs Paris traceroute — timing here, false-loop rate
/// printed once (paper §2.1: classic's per-flow artifacts caused 2.16% of
/// IPv4 traceroutes to contain AS loops).
fn ablate_paris(c: &mut Criterion) {
    let s = scenario();
    let pairs = s.sample_pair_list(30, 0xAB);
    // One-off quality report.
    let mut loops = [0usize; 2];
    let mut total = [0usize; 2];
    for &(a, b) in &pairs {
        for day in 1..20u32 {
            for (mi, mode) in [TracerouteMode::Classic, TracerouteMode::Paris]
                .into_iter()
                .enumerate()
            {
                let rec = trace(
                    &s.net,
                    a,
                    b,
                    Protocol::V4,
                    SimTime::from_days(day),
                    TraceOptions { mode, ..Default::default() },
                );
                if rec.reached {
                    total[mi] += 1;
                    loops[mi] += annotate(&rec, &s.ip2asn).has_loop as usize;
                }
            }
        }
    }
    println!(
        "[ablate_paris] AS-loop rate: classic {:.2}% vs paris {:.2}% \
         (paper: classic-era 2.16% v4)",
        100.0 * loops[0] as f64 / total[0].max(1) as f64,
        100.0 * loops[1] as f64 / total[1].max(1) as f64,
    );
    for (name, mode) in
        [("classic", TracerouteMode::Classic), ("paris", TracerouteMode::Paris)]
    {
        c.bench_function(&format!("ablate/paris_vs_classic/{name}"), |b| {
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                let (a, d) = pairs[i % pairs.len()];
                trace(
                    &s.net,
                    a,
                    d,
                    Protocol::V4,
                    SimTime::from_days(3),
                    TraceOptions { mode, ..Default::default() },
                )
            })
        });
    }
}

/// ablate_fft_threshold: detection rate and cost across PSD thresholds
/// (paper footnote 2: 0.3 chosen empirically).
fn ablate_fft_threshold(c: &mut Criterion) {
    let s = scenario();
    let pairs = s.sample_pair_list(60, 0xFF7);
    let fwd: Vec<_> = pairs.chunks(2).map(|w| w[0]).collect();
    let cfg = CampaignConfig::ping_week(SimTime::from_days(10));
    let (tls, _) = Campaign::new(cfg)
        .run_ping(&s.net, &fwd)
        .expect("in-memory campaign cannot fail");
    for threshold in [0.1, 0.3, 0.5] {
        let params = DetectParams { psd_threshold: threshold, ..Default::default() };
        let hits = tls
            .iter()
            .filter_map(|t| detect(t, &params))
            .filter(|r| r.consistent)
            .count();
        println!(
            "[ablate_fft_threshold] threshold {threshold}: {hits}/{} pairs flagged",
            tls.len()
        );
        c.bench_function(&format!("ablate/fft_threshold/{threshold}"), |b| {
            b.iter(|| {
                tls.iter()
                    .filter_map(|t| detect(t, &params))
                    .filter(|r| r.consistent)
                    .count()
            })
        });
    }
}

/// ablate_cadence: the §4.3 robustness claim — best-path deltas computed
/// from 30-minute data vs its 3-hour subsample.
fn ablate_cadence(c: &mut Criterion) {
    let s = scenario();
    let pairs = s.sample_pair_list(10, 0xCAD);
    let cfg = CampaignConfig {
        start: SimTime::from_days(8),
        end: SimTime::from_days(18),
        interval: SimDuration::from_minutes(30),
        protocols: vec![Protocol::V4],
        threads: 4,
    };
    let (tls, _) = s.collect_timelines(&Campaign::new(cfg), &pairs, |_, _| TraceOptions::default());
    c.bench_function("ablate/cadence/all_30min", |b| {
        b.iter(|| {
            tls.iter()
                .filter_map(|t| best_path_analysis(t, SimDuration::from_minutes(30)))
                .count()
        })
    });
    c.bench_function("ablate/cadence/subsampled_3h", |b| {
        b.iter(|| {
            tls.iter()
                .map(|t| subsample(t, SimDuration::from_hours(3)))
                .filter_map(|t| best_path_analysis(&t, SimDuration::from_hours(3)))
                .count()
        })
    });
}

/// ablate_imputation: AS-path change counts with and without the §4.1
/// missing-hop imputation. Without imputation a rate-limited hop inside an
/// AS splits the path run and phantom changes appear.
fn ablate_imputation(c: &mut Criterion) {
    let s = scenario();
    let pairs = s.sample_pair_list(20, 0x1417);
    let recs: Vec<_> = (0..200u32)
        .flat_map(|i| {
            let (a, b) = pairs[(i as usize) % pairs.len()];
            let t = SimTime::from_days(2) + SimDuration::from_hours(3 * i);
            Some(trace(&s.net, a, b, Protocol::V4, t, TraceOptions::default()))
        })
        .collect();
    c.bench_function("ablate/imputation/with", |b| {
        b.iter(|| {
            recs.iter()
                .map(|r| annotate(r, &s.ip2asn).as_path.len())
                .sum::<usize>()
        })
    });
    c.bench_function("ablate/imputation/raw_lookup_only", |b| {
        b.iter(|| {
            recs.iter()
                .map(|r| {
                    r.hops
                        .iter()
                        .filter_map(|h| h.addr.and_then(|a| s.ip2asn.lookup(a)))
                        .count()
                })
                .sum::<usize>()
        })
    });
}

/// ablate_percentile: the §4.2 remark — best-path selection by 10th vs
/// 90th percentile vs standard deviation.
fn ablate_percentile(c: &mut Criterion) {
    let s = scenario();
    let pairs = s.sample_pair_list(12, 0xBE57);
    let (store, _) =
        s.long_term_store_faulty(&pairs, &FaultProfile::default(), &RetryPolicy::default());
    let data = Analysis::new(&store).timelines(&s.ip2asn);
    c.bench_function("ablate/percentile/full_analysis", |b| {
        b.iter(|| {
            data.iter()
                .filter_map(|t| best_path_analysis(t, SimDuration::from_hours(3)))
                .map(|a| {
                    // All three criteria come from one pass; consumers pick.
                    (a.best_by_p10, a.best_by_p90, a.deltas.len())
                })
                .collect::<Vec<_>>()
                .len()
        })
    });
    let disagree = data
        .iter()
        .filter_map(|t| best_path_analysis(t, SimDuration::from_hours(3)))
        .filter(|a| a.best_by_p10 != a.best_by_p90)
        .count();
    println!(
        "[ablate_percentile] timelines where p10-best != p90-best: {disagree}/{}",
        data.len()
    );
}

/// ablate_inferred_rels: the §5.3 caveat — the paper's ownership heuristics
/// lean on CAIDA's *inferred* relationships. How much accuracy do the
/// heuristics lose when fed Gao-style inferences instead of ground truth?
fn ablate_inferred_rels(c: &mut Criterion) {
    let s = scenario();
    // Sweep traceroutes, collect IP paths + their AS paths.
    let pairs = s.sample_pair_list(40, 0x4e1);
    let mut ip_paths: Vec<Vec<Option<std::net::IpAddr>>> = Vec::new();
    let mut as_paths: Vec<Vec<s2s_types::Asn>> = Vec::new();
    for &(a, b) in &pairs {
        let rec = trace(
            &s.net,
            a,
            b,
            Protocol::V4,
            SimTime::from_days(3),
            TraceOptions::default(),
        );
        if rec.reached {
            ip_paths.push(rec.hops.iter().map(|h| h.addr).collect());
            let ann = s2s_core::annotate::annotate(&rec, &s.ip2asn);
            let asns: Vec<_> = ann.as_path.hops().iter().flatten().copied().collect();
            if asns.len() >= 2 {
                as_paths.push(asns);
            }
        }
    }
    let inferred =
        s2s_bgp::infer_relationships(&as_paths, &s2s_bgp::InferParams::default());
    let (correct, total) = s2s_bgp::infer::score_against(&inferred.store, &s.rels);
    println!(
        "[ablate_inferred_rels] relationship inference accuracy: {correct}/{total}          ({:.1}%)",
        100.0 * correct as f64 / total.max(1) as f64
    );
    // Ownership accuracy with truth vs inferred relationships.
    let addr_index = s.topo.addr_index();
    let accuracy = |rels: &s2s_bgp::AsRelStore| -> (usize, usize) {
        let inf = s2s_core::ownership::infer_ownership(&ip_paths, &s.ip2asn, rels);
        let mut ok = 0;
        let mut n = 0;
        for (&addr, &owner) in &inf.owners {
            if let Some(&iface) = addr_index.get(&addr) {
                n += 1;
                ok += (owner == s.topo.asn(s.topo.iface_operator(iface))) as usize;
            }
        }
        (ok, n)
    };
    let (t_ok, t_n) = accuracy(&s.rels);
    let (i_ok, i_n) = accuracy(&inferred.store);
    println!(
        "[ablate_inferred_rels] ownership accuracy: truth rels {:.1}% vs inferred          rels {:.1}%",
        100.0 * t_ok as f64 / t_n.max(1) as f64,
        100.0 * i_ok as f64 / i_n.max(1) as f64,
    );
    c.bench_function("ablate/inferred_rels/gao_inference", |b| {
        b.iter(|| {
            s2s_bgp::infer_relationships(&as_paths, &s2s_bgp::InferParams::default())
                .store
                .len()
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = ablate_paris, ablate_fft_threshold, ablate_cadence, ablate_imputation,
        ablate_percentile, ablate_inferred_rels
);
criterion_main!(benches);
