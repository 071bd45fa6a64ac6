//! Regenerates every table and figure of the paper on the simulated world,
//! or runs the whole platform as an always-on measurement service.
//!
//! ```text
//! cargo run -p s2s-bench --release --bin reproduce -- run            # everything
//! cargo run -p s2s-bench --release --bin reproduce -- run fig4 fig6 # a subset
//! cargo run -p s2s-bench --release --bin reproduce -- serve         # the daemon
//! ```
//!
//! Subcommands (`s2s_bench::cli` is the typed parser; no subcommand at all
//! runs everything):
//!
//! * `run [ids…] [flags]` — batch reproduction. Experiment ids: table1,
//!   fig1, fig2a, fig2b, fig3a, fig3b, fig4, fig5, fig6, fig7, sec51,
//!   sec53, fig8, fig9, fig10a, fig10b, plus the extensions (loss,
//!   shared, coloc, abw) and the fault sweep (faults). Scale comes from
//!   `S2S_*` environment variables; the measurement plane can be degraded
//!   via `S2S_FAULT_*` knobs (DESIGN.md §8 scale knobs, §9 fault model).
//! * `serve [--epochs n] [--snapshot p] …` — the always-on service
//!   (DESIGN.md §14): epochs advance continuously, checkpoints flush
//!   every `S2S_SERVICE_SNAP_EVERY` epochs, and stdin lines are answered
//!   as `ok {json}` / `err reason` query replies. A graceful shutdown
//!   (EOF or `quit`) flushes a final snapshot and prints the same
//!   `long-term dataset digest` line a batch run prints.
//! * `worker` — the fabric's worker entry point; the coordinator spawns
//!   it, operators never do.
//! * `snapshot <path>` — inspect a snapshot file or shard directory:
//!   trace/sink counts, damage report, dataset digest.
//! * `faults [flags]` — the fault-robustness sweep (`run faults`).
//! * `print-config` — dump every `S2S_*` knob (resolved value, default,
//!   whether the operator set it) and exit.
//!
//! Flags (`run`/`faults`; `serve` shares `--threads`, `--snapshot`,
//! `--metrics-json` and adds `--epochs`):
//! * `--metrics-json <path>` — after the run, write the observability
//!   registry's snapshot (schema-stable JSON) to `<path>`. A metrics
//!   summary table prints at the end of every run either way.
//! * `--threads <n>` — worker threads for campaigns and the columnar
//!   analysis shards; overrides `S2S_THREADS` (and is what
//!   `print-config` then reports). Results are byte-identical across
//!   thread counts.
//! * `--workers <n>` — collect the long-term campaign through the
//!   crash-tolerant scale-out fabric with `n` worker subprocesses
//!   (default 1 = in-process, no fabric). The merged dataset is
//!   byte-identical to the in-process run — both paths print a `dataset
//!   digest` line to prove it — even under the seeded
//!   `S2S_FABRIC_FAULT_PLAN` crash schedules.
//! * `--snapshot <path>` — binary columnar persistence. If `<path>`
//!   exists, the long-term dataset is *streamed* back out-of-core — arenas
//!   load once, trace blocks pass through a bounded reuse buffer
//!   (`snapshot::DEFAULT_BLOCK_TRACES` traces at a time) — no campaign, no
//!   line re-import, and the resident set never holds the full trace set.
//!   `<path>` may also be a *directory* of per-shard `*.snap` files (e.g.
//!   an `S2S_SNAPSHOT_DIR` from a fabric run), absorbed shard-by-shard in
//!   numeric order. Torn or corrupt segments degrade to counted skips; a
//!   zero-length or magic-only file is reported as a distinct *empty
//!   snapshot* condition. Otherwise the campaign runs and writes its store
//!   there. The `dataset digest` line is identical either way.
//!
//! Exit codes are the shared [`s2s_types::ExitCode`] vocabulary (also the
//! fabric worker's): 0 clean, 2 configuration error, 3 campaign/worker
//! failure, 4 degraded result, 5 service runtime failure, 6 query budget
//! exhausted. The README's "Exit codes" section holds the full table.

use s2s_bench::experiments::{
    congestion, dualstack, example, extensions, faultsweep, longterm, ownercheck,
    shortterm,
};
use s2s_bench::{cli, fabric, service};
use s2s_bench::{Scale, Scenario};
use s2s_probe::env::ResolvedKnob;
use s2s_probe::FaultProfile;
use s2s_types::{ExitCode, Protocol, SimTime};
use std::sync::Arc;
use std::time::Instant;

const ALL: &[&str] = &[
    "table1", "fig1", "fig2a", "fig2b", "fig3a", "fig3b", "fig4", "fig5", "fig6",
    "fig7", "sec51", "sec53", "fig8", "fig9", "fig10a", "fig10b",
    // Extensions: the paper's §8 future-work items + the §2.2 colocated
    // campaign (possible here because the simulator has ground truth).
    "loss", "shared", "coloc", "abw",
    // Robustness: figure stability under an injected faulty plane.
    "faults",
];

/// The experiment-scale knobs, resolved the same way `Scale::from_env`
/// resolves them — they live here (not `s2s_probe::env`) because their
/// defaults are experiment policy, not measurement-plane policy.
fn scale_knobs(scale: &Scale) -> Vec<ResolvedKnob> {
    let set = |name: &str| s2s_types::env::var_raw(name).is_some();
    let knob = |name: &'static str, value: String, default: &str, doc: &'static str| {
        ResolvedKnob { name, value, default: default.to_string(), set: set(name), doc }
    };
    vec![
        knob("S2S_SEED", scale.seed.to_string(), "20151201", "master world seed"),
        knob("S2S_CLUSTERS", scale.clusters.to_string(), "120", "CDN clusters deployed"),
        knob("S2S_DAYS", scale.days.to_string(), "485", "days of long-term campaign"),
        knob("S2S_PAIRS", scale.pairs.to_string(), "600", "long-term directed pair samples"),
        knob(
            "S2S_PING_PAIRS",
            scale.ping_pairs.to_string(),
            "4000",
            "pairs in the short-term ping campaign",
        ),
        knob(
            "S2S_CONG_PAIRS",
            scale.cong_pairs.to_string(),
            "400",
            "congested-pair subset traced every 30 minutes",
        ),
        knob(
            "S2S_BENCH_QUICK",
            s2s_types::env::var_flag("S2S_BENCH_QUICK").to_string(),
            "false",
            "shrink Criterion bench worlds for CI smoke runs",
        ),
    ]
}

fn print_config() {
    println!("s2s reproduce — resolved S2S_* knobs (* = set by the operator)\n");
    println!("measurement plane:");
    print!("{}", s2s_probe::env::format_knob_table(&s2s_probe::env::resolved_knobs()));
    println!("\nexperiment scale:");
    print!("{}", s2s_probe::env::format_knob_table(&scale_knobs(&Scale::from_env())));
    println!("\nalways-on service:");
    print!("{}", s2s_probe::env::format_knob_table(&service::service_knobs()));
}

/// Persists a freshly collected store to `path` when `--snapshot` asked
/// for one. Prints size and digest so the next run's reopen can be
/// byte-compared against this line.
fn write_snapshot_if_asked(
    path: Option<&std::path::Path>,
    store: &s2s_probe::TraceStore,
    digest: u64,
) {
    let Some(path) = path else { return };
    match s2s_probe::snapshot::write_file(path, store, &[]) {
        Ok(bytes) => println!(
            "snapshot: wrote {} — {} traces, {} bytes, digest {digest:016x}",
            path.display(),
            store.len(),
            bytes
        ),
        Err(e) => {
            eprintln!("cannot write snapshot {}: {e}", path.display());
            ExitCode::Campaign.exit();
        }
    }
}

/// A snapshot that cannot be opened at all (I/O error, bad magic,
/// unsupported version) is a campaign failure, not a degraded run.
fn snapshot_open_fail(path: &std::path::Path, e: std::io::Error) -> ! {
    eprintln!("cannot open snapshot {}: {e}", path.display());
    ExitCode::Campaign.exit()
}

/// Prints the end-of-run metrics table and honors `--metrics-json`.
fn metrics_tail(registry: &Arc<s2s_obs::Registry>, metrics_json: Option<&str>) {
    let snapshot = registry.snapshot();
    s2s_obs::uninstall();
    println!("\nOBSERVABILITY — end-of-run metrics");
    print!("{}", snapshot.summary_table());
    if let Some(path) = metrics_json {
        match std::fs::write(path, snapshot.to_json()) {
            Ok(()) => println!("metrics written to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                ExitCode::Campaign.exit();
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::Config.exit();
        }
    };
    // Fabric worker mode: measure the assigned shard, speak the framed
    // protocol on stdout, exit. Dispatched before anything can print.
    if command == cli::Command::Worker {
        std::process::exit(fabric::worker_main());
    }
    // Typo guard: one stderr line for any S2S_* variable no layer
    // recognizes, before it can silently configure nothing.
    s2s_probe::env::warn_unknown_knobs();
    match command {
        cli::Command::Worker => unreachable!("dispatched above"),
        cli::Command::PrintConfig => print_config(),
        cli::Command::Snapshot(path) => snapshot_main(&path),
        cli::Command::Serve(a) => serve_main(a),
        cli::Command::Run(a) => run_main(a),
        cli::Command::Faults(mut a) => {
            a.ids = vec!["faults".to_string()];
            run_main(a)
        }
    }
}

/// The `serve` subcommand: build the world, then hand the process to the
/// service loop — stdin is the query channel, stdout the answer channel.
fn serve_main(a: cli::ServeArgs) -> ! {
    if let Some(n) = a.threads {
        std::env::set_var("S2S_THREADS", n.to_string());
    }
    let cfg =
        service::ServiceConfig { snapshot_path: a.snapshot, ..service::ServiceConfig::from_env() };
    let scale = Scale::from_env();
    println!(
        "s2s serve — scale: {} clusters, {} days, {} long-term directed pairs, \
         seed {}",
        scale.clusters, scale.days, scale.pairs, scale.seed
    );
    let t0 = Instant::now();
    let scenario = Scenario::build(scale);
    println!("world built in {:?}\n", t0.elapsed());
    let registry = Arc::new(s2s_obs::Registry::new());
    scenario.net.observe(&registry);
    s2s_obs::install(Arc::clone(&registry));
    let stdin = std::io::BufReader::new(std::io::stdin());
    let mut stdout = std::io::stdout();
    let outcome = service::serve(&scenario, cfg, a.epochs, stdin, &mut stdout);
    metrics_tail(&registry, a.metrics_json.as_deref());
    match outcome {
        Ok(o) => o.exit.exit(),
        Err(e) => {
            eprintln!("service failed: {e}");
            ExitCode::Service.exit()
        }
    }
}

/// What one streamed pass over a snapshot file or shard directory yields.
struct Streamed {
    /// The dataset digest, folded batch by batch in shard order (identical
    /// to digesting the merged store).
    digest: u64,
    /// The shards' damage reports, merged.
    report: s2s_probe::SnapshotReport,
    /// The arena summary, summed over the shards.
    arena: s2s_probe::StoreStats,
}

/// Streams the snapshot file or shard directory at `path` once, lossily
/// and out-of-core: prints a directory's shard count, folds the dataset
/// digest over every batch, sums the arena statistics, merges the damage
/// reports and prints the `snapshot: {verb}<path> — …` summary line. A
/// shard that cannot be opened or read exits through
/// [`snapshot_open_fail`].
fn stream_snapshot(path: &std::path::Path, verb: &str) -> Streamed {
    let options = s2s_probe::Snapshot::options().lossy(true).stream(true);
    let shard_paths: Vec<std::path::PathBuf> = if path.is_dir() {
        let dir = options.open_dir(path).unwrap_or_else(|e| snapshot_open_fail(path, e));
        println!("snapshot: {} shard(s) in {}", dir.paths().len(), path.display());
        dir.paths().to_vec()
    } else {
        vec![path.to_path_buf()]
    };
    let mut report = s2s_probe::SnapshotReport::default();
    let mut digest = s2s_probe::fabric::FNV64_OFFSET;
    let mut arena = s2s_probe::StoreStats::default();
    for p in &shard_paths {
        let mut reader = options.open(p).unwrap_or_else(|e| snapshot_open_fail(p, e));
        while let Some(batch) = reader.next_batch().unwrap_or_else(|e| snapshot_open_fail(p, e)) {
            digest = s2s_obs::timed("dataset.digest", || fabric::store_digest_fold(digest, batch));
            arena.hop_slots += batch.hop_slots();
        }
        let s = reader.arena().stats();
        arena.distinct_addrs += s.distinct_addrs;
        arena.distinct_seqs += s.distinct_seqs;
        arena.seq_slots += s.seq_slots;
        arena.arena_bytes += s.arena_bytes;
        report.merge(reader.report());
    }
    arena.traces = report.traces;
    arena.dedup_ratio = if arena.seq_slots == 0 {
        0.0
    } else {
        arena.hop_slots as f64 / arena.seq_slots as f64
    };
    println!(
        "snapshot: {verb}{} — {} traces ({} skipped), {} sink state(s){}",
        path.display(),
        report.traces,
        report.skipped_traces,
        report.sinks,
        if report.empty {
            ", EMPTY"
        } else if report.torn {
            ", TORN"
        } else {
            ""
        }
    );
    Streamed { digest, report, arena }
}

/// The `snapshot` subcommand: stream a snapshot file or shard directory,
/// print its damage report and dataset digest, exit clean or degraded.
fn snapshot_main(path: &std::path::Path) -> ! {
    let Streamed { digest, report, .. } = stream_snapshot(path, "");
    println!("long-term dataset digest: {digest:016x}");
    if !report.clean() {
        for e in &report.first_errors {
            eprintln!("snapshot damage: {e}");
        }
        ExitCode::Degraded.exit();
    }
    ExitCode::Ok.exit()
}

fn run_main(run: cli::RunArgs) {
    if let Some(n) = run.threads {
        // Must take effect before any knob is resolved, so this happens
        // before config printing or world building.
        std::env::set_var("S2S_THREADS", n.to_string());
    }
    let workers = run.workers.unwrap_or(1);
    let snapshot_path = run.snapshot;
    let metrics_json = run.metrics_json;
    let wanted: Vec<&str> =
        if run.ids.is_empty() { ALL.to_vec() } else { run.ids.iter().map(String::as_str).collect() };
    for w in &wanted {
        if !ALL.contains(w) {
            eprintln!("unknown experiment id '{w}' (known: {ALL:?})");
            ExitCode::Config.exit();
        }
    }
    let scale = Scale::from_env();
    println!(
        "s2s reproduce — scale: {} clusters, {} days, {} long-term directed pairs, \
         {} ping pairs, {} congested pairs, seed {}",
        scale.clusters, scale.days, scale.pairs, scale.ping_pairs, scale.cong_pairs,
        scale.seed
    );
    let t0 = Instant::now();
    let scenario = Scenario::build(scale);
    println!("world built in {:?}\n", t0.elapsed());

    // Observability: one registry for the whole run. Sharing it with the
    // network/oracle counter cells and installing it globally costs a few
    // relaxed atomics per probe and never changes a measured byte (the
    // equivalence tests pin that).
    let registry = Arc::new(s2s_obs::Registry::new());
    scenario.net.observe(&registry);
    s2s_obs::install(Arc::clone(&registry));

    let needs_long = wanted.iter().any(|w| {
        matches!(
            *w,
            "table1" | "fig2a" | "fig2b" | "fig3a" | "fig3b" | "fig4" | "fig5"
                | "fig6" | "fig10a" | "fig10b"
        )
    });
    let mut degraded = false;
    let long = if needs_long {
        let t = Instant::now();
        let reopen = snapshot_path.as_deref().filter(|p| p.exists());
        let (data, digest) = if let Some(path) = reopen {
            // Persistence fast path: stream the campaign's saved arenas
            // back out-of-core — no measurement, no line re-import, and
            // only the arenas plus one block batch are ever resident.
            // Pass 1: the dataset digest, damage report and arena summary.
            let Streamed { digest, report: rep, arena } = stream_snapshot(path, "reopened ");
            rep.publish(&registry);
            if rep.empty {
                eprintln!(
                    "snapshot: {} is an empty snapshot (no segments) — \
                     nothing to analyze",
                    path.display()
                );
            }
            if !rep.clean() {
                degraded = true;
                for e in &rep.first_errors {
                    eprintln!("snapshot damage: {e}");
                }
            }
            // Pass 2: the analysis front door streams the same source —
            // a fresh reader per shard, byte-identical to the in-memory
            // pipeline (the equivalence tests pin that).
            let options = s2s_probe::Snapshot::options().lossy(true).stream(true);
            let timelines = if path.is_dir() {
                let dir = options
                    .open_dir(path)
                    .unwrap_or_else(|e| snapshot_open_fail(path, e));
                s2s_core::Analysis::new(dir).timelines(&scenario.ip2asn)
            } else {
                let reader = options
                    .open(path)
                    .unwrap_or_else(|e| snapshot_open_fail(path, e));
                s2s_core::Analysis::new(reader).timelines(&scenario.ip2asn)
            }
            .unwrap_or_else(|e| snapshot_open_fail(path, e));
            // Snapshots persist the dataset, not the campaign's slot
            // accounting; the open report maps damage onto coverage.
            let report = s2s_probe::CampaignReport {
                offered: rep.traces + rep.skipped_traces,
                delivered: rep.traces,
                lost_slots: rep.skipped_traces,
                ..s2s_probe::CampaignReport::default()
            };
            let data = s2s_bench::experiments::LongTermData {
                pairs: fabric::longterm_pairs(&scenario),
                timelines,
                report,
                arena: Some(arena),
            };
            (data, digest)
        } else if workers > 1 {
            // Scale-out fabric: shard the pair space across worker
            // subprocesses of this same binary (`reproduce worker`),
            // merge byte-identically, survive seeded crash schedules.
            let ckpt_dir = std::env::temp_dir()
                .join(format!("s2s-fabric-{}", std::process::id()));
            if let Err(e) = std::fs::create_dir_all(&ckpt_dir) {
                eprintln!("cannot create fabric checkpoint dir: {e}");
                ExitCode::Campaign.exit();
            }
            let program = std::env::current_exe().unwrap_or_else(|e| {
                eprintln!("cannot locate worker executable: {e}");
                ExitCode::Campaign.exit();
            });
            let launcher = fabric::worker_launcher(
                program,
                vec!["worker".to_string()],
                "longterm",
                workers,
                &ckpt_dir,
                Vec::new(),
            );
            let cfg = s2s_probe::FabricConfig { workers, ..Default::default() };
            let run = fabric::collect_longterm_fabric(&scenario, cfg, launcher);
            let _ = std::fs::remove_dir_all(&ckpt_dir);
            let run = run.unwrap_or_else(|e| {
                eprintln!("fabric collection failed: {e}");
                ExitCode::Campaign.exit();
            });
            let s = &run.outcome.stats;
            println!(
                "fabric: {} shards over {workers} workers — {} launches, \
                 {} retries, {} recoveries, {} lost",
                s.shards, s.launches, s.retries, s.recoveries, s.lost
            );
            if s.lost > 0 {
                degraded = true;
                println!(
                    "fabric: DEGRADED — {} shard(s) lost after the retry budget; \
                     their slots are lost rows (campaign.lost_slots = {})",
                    s.lost, run.data.report.lost_slots
                );
            }
            write_snapshot_if_asked(snapshot_path.as_deref(), &run.store, run.digest);
            (run.data, run.digest)
        } else {
            let (data, digest, store) =
                fabric::collect_longterm_digest(&scenario, &FaultProfile::from_env());
            write_snapshot_if_asked(snapshot_path.as_deref(), &store, digest);
            (data, digest)
        };
        println!("long-term dataset digest: {digest:016x}");
        println!(
            "long-term campaign: {} timelines in {:?} (probes delivered: {})",
            data.timelines.len(),
            t.elapsed(),
            data.report.coverage()
        );
        if let Some(a) = &data.arena {
            println!(
                "columnar arena: {} traces, {} distinct addrs, {} distinct hop \
                 sequences, {:.1}x hop dedup, {} arena bytes, {} analysis threads",
                a.traces,
                a.distinct_addrs,
                a.distinct_seqs,
                a.dedup_ratio,
                a.arena_bytes,
                s2s_probe::env::threads()
            );
        }
        let cs = scenario.oracle.cache_stats();
        println!(
            "routing: {} availability epochs, {} epoch configs derived, \
             table cache {} hits / {} misses / {} reused / {} evictions, \
             path memo {} hits / {} builds\n",
            scenario.oracle.dynamics().epoch_count(),
            cs.epoch_configs,
            cs.hits,
            cs.misses,
            cs.reused,
            cs.evictions,
            cs.path_hits,
            cs.path_builds
        );
        Some(data)
    } else {
        None
    };

    // Short-term campaigns run mid-study so routing dynamics and congestion
    // episodes are in full swing regardless of the configured horizon.
    let mid = scenario.scale.days / 2;
    let needs_cong = wanted.iter().any(|w| matches!(*w, "sec51" | "sec53" | "fig9"));
    let cong = if needs_cong {
        let t = Instant::now();
        let (_, congested) = congestion::sec51(&scenario, SimTime::from_days(mid));
        println!("(§5.1 campaign in {:?})\n", t.elapsed());
        Some(congested)
    } else {
        None
    };
    let needs_census = wanted.iter().any(|w| matches!(*w, "sec53" | "fig9"));
    let census = if needs_census {
        let t = Instant::now();
        let c = congestion::sec53(
            &scenario,
            cong.as_deref().unwrap_or(&[]),
            SimTime::from_days(mid + 7),
            21,
        );
        println!("(§5.3 campaign in {:?})\n", t.elapsed());
        Some(c)
    } else {
        None
    };

    for w in &wanted {
        let t = Instant::now();
        match *w {
            "table1" => {
                let d = long.as_ref().unwrap();
                longterm::table1(d, Protocol::V4);
                longterm::table1(d, Protocol::V6);
            }
            "fig1" => {
                example::fig1(&scenario, 6);
            }
            "fig2a" => {
                let d = long.as_ref().unwrap();
                longterm::fig2a(d, Protocol::V4);
                longterm::fig2a(d, Protocol::V6);
            }
            "fig2b" => {
                let d = long.as_ref().unwrap();
                longterm::fig2b(d, Protocol::V4);
                longterm::fig2b(d, Protocol::V6);
            }
            "fig3a" => {
                let d = long.as_ref().unwrap();
                longterm::fig3a(d, Protocol::V4);
                longterm::fig3a(d, Protocol::V6);
            }
            "fig3b" => {
                let d = long.as_ref().unwrap();
                longterm::fig3b(d, Protocol::V4);
                longterm::fig3b(d, Protocol::V6);
            }
            "fig4" => {
                let d = long.as_ref().unwrap();
                longterm::fig45(d, Protocol::V4, false);
                longterm::fig45(d, Protocol::V6, false);
                if let Some(p) = longterm::fig4_shortlived_premium(d, Protocol::V4) {
                    println!(
                        "  short-lived-path premium (mean Δ10, short − long lifetimes): \
                         {p:+.1} ms (paper: positive — bad paths are short-lived)"
                    );
                }
            }
            "fig5" => {
                let d = long.as_ref().unwrap();
                longterm::fig45(d, Protocol::V4, true);
                longterm::fig45(d, Protocol::V6, true);
            }
            "fig6" => {
                let d = long.as_ref().unwrap();
                longterm::fig6(d, Protocol::V4);
                longterm::fig6(d, Protocol::V6);
            }
            "fig7" => {
                shortterm::fig7(&scenario, 22, SimTime::from_days(mid));
            }
            "sec51" => {} // already printed while collecting
            "sec53" => {} // already printed while collecting
            "fig8" => {
                ownercheck::fig8(&scenario);
            }
            "fig9" => {
                congestion::fig9(&scenario, census.as_ref().unwrap());
            }
            "fig10a" => {
                dualstack::fig10a(long.as_ref().unwrap());
            }
            "fig10b" => {
                let d = long.as_ref().unwrap();
                dualstack::fig10b(&scenario, d, Protocol::V4);
                dualstack::fig10b(&scenario, d, Protocol::V6);
            }
            "loss" => {
                extensions::loss(&scenario, SimTime::from_days(mid + 1));
            }
            "shared" => {
                extensions::shared_infrastructure(&scenario, SimTime::from_days(mid));
            }
            "coloc" => {
                extensions::coloc(&scenario, SimTime::from_days(mid + 2));
            }
            "abw" => {
                extensions::abw(&scenario, SimTime::from_days(mid + 3));
            }
            "faults" => {
                faultsweep::fault_sweep(&scenario);
            }
            _ => unreachable!(),
        }
        println!("[{w} done in {:?}]\n", t.elapsed());
    }
    println!("total: {:?}", t0.elapsed());

    metrics_tail(&registry, metrics_json.as_deref());
    if degraded {
        ExitCode::Degraded.exit();
    }
}
