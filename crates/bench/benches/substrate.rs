//! Criterion benches of the substrate layers: topology generation, policy
//! routing, path expansion, probing, and the statistical kernels.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use s2s_bench::{Scale, Scenario};
use s2s_routing::policy::{compute_routes, compute_routes_masked, AllUp, EdgeIndex, EdgeMask};
use s2s_stats::{diurnal_psd_ratio, edit_distance, GaussianKde, HeatMap};
use s2s_topology::{build_topology, TopologyParams};
use s2s_types::{ClusterId, Protocol, SimTime};
use std::hint::black_box;

fn bench_topology(c: &mut Criterion) {
    c.bench_function("topology/build_tiny", |b| {
        b.iter(|| build_topology(black_box(&TopologyParams::tiny(1))))
    });
    c.bench_function("topology/build_default", |b| {
        b.iter(|| build_topology(black_box(&TopologyParams::default())))
    });
}

fn bench_routing(c: &mut Criterion) {
    let topo = build_topology(&TopologyParams::default());
    c.bench_function("routing/compute_routes_one_dst", |b| {
        b.iter(|| compute_routes(black_box(&topo.as_adj), black_box(3), &AllUp, 0))
    });
    // The oracle's form: availability as a bitmask over dense edge ids,
    // here with every seventh edge blocked.
    let edges = EdgeIndex::new(&topo.as_adj);
    let mut blocked = EdgeMask::empty(&edges);
    for id in (0..edges.len()).step_by(7) {
        blocked.insert(id);
    }
    c.bench_function("routing/compute_routes_masked", |b| {
        b.iter(|| compute_routes_masked(&edges, black_box(&blocked), black_box(3), 0))
    });
    let scenario = Scenario::build(Scale::smoke());
    // A real expansion every time: the path memo is bypassed.
    c.bench_function("routing/router_path_expansion", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            scenario.oracle.router_path_uncached(
                ClusterId::new((i % 20) as u32),
                ClusterId::new(((i + 7) % 20) as u32),
                Protocol::V4,
                SimTime::from_hours((i % 400) as u32),
                i,
            )
        })
    });
    // What a probe pays once its pair's path is memoized: same pairs and
    // instant, one flow per pair, so every query after the first is a hit.
    c.bench_function("routing/router_path_memo_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            scenario.oracle.router_path(
                ClusterId::new((i % 20) as u32),
                ClusterId::new(((i + 7) % 20) as u32),
                Protocol::V4,
                SimTime::from_hours(30),
                i % 20,
            )
        })
    });
}

fn bench_probing(c: &mut Criterion) {
    let scenario = Scenario::build(Scale::smoke());
    c.bench_function("probe/paris_traceroute", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            s2s_probe::trace(
                &scenario.net,
                ClusterId::new((i % 20) as u32),
                ClusterId::new(((i + 3) % 20) as u32),
                Protocol::V4,
                SimTime::from_hours((i % 400) as u32),
                s2s_probe::TraceOptions::default(),
            )
        })
    });
    c.bench_function("probe/ping", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            scenario.net.ping(
                ClusterId::new((i % 20) as u32),
                ClusterId::new(((i + 3) % 20) as u32),
                Protocol::V4,
                SimTime::from_hours((i % 400) as u32),
                i,
            )
        })
    });
}

fn bench_stats(c: &mut Criterion) {
    // A week of 15-minute samples with a diurnal component — the §5.1 input.
    let series: Vec<f64> = (0..672)
        .map(|i| {
            50.0 + 20.0 * (2.0 * std::f64::consts::PI * i as f64 / 96.0).sin().max(0.0)
        })
        .collect();
    c.bench_function("stats/fft_psd_672", |b| {
        b.iter(|| diurnal_psd_ratio(black_box(&series), 96))
    });
    let a: Vec<u64> = (0..8).collect();
    let bb: Vec<u64> = (2..9).collect();
    c.bench_function("stats/edit_distance_as_paths", |b| {
        b.iter(|| edit_distance(black_box(&a), black_box(&bb)))
    });
    let sample: Vec<f64> = (0..500).map(|i| 20.0 + (i % 30) as f64).collect();
    c.bench_function("stats/kde_density_grid", |b| {
        b.iter_batched(
            || GaussianKde::new(sample.clone()).unwrap(),
            |kde| kde.grid(0.0, 100.0, 128),
            BatchSize::SmallInput,
        )
    });
    let points: Vec<(f64, f64)> =
        (0..5000).map(|i| ((i % 487) as f64, ((i * 13) % 997) as f64)).collect();
    c.bench_function("stats/heatmap_5000_points", |b| {
        b.iter(|| HeatMap::from_points(black_box(&points)))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_topology, bench_routing, bench_probing, bench_stats
);
criterion_main!(benches);
