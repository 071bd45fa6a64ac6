//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one benchmark workload and prints, as its last stdout line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. The line
//! before it holds the run's diagnostics. Exit code 0 means the outputs
//! matched the recorded references.
//!
//! `--record` runs without checking and prints the observed references
//! instead, for re-recording `world::REFERENCE` after a change that
//! legitimately changes the program's output. `perfbench worker` is the
//! fabric worker entry point the `fabric` workload launches.

use s2s_perfbench::fabric::{WorkerTrace, TRACE_DIR_ENV};
use s2s_perfbench::world::{World, REFERENCE};
use s2s_perfbench::{result_line, run, RunConfig, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        return worker();
    }
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <longterm|pingmesh|service|fabric> --seed <n> \
                 --seconds <s> --trace <0|1> [--record]"
            );
            return ExitCode::from(2);
        }
    };
    cfg.isolate_env();
    let record = cfg.reference.is_none();
    match run(&cfg) {
        Ok(report) => {
            if record {
                if let Some(r) = &report.observed {
                    println!("perfbench: observed reference: {r:#x?}");
                }
            }
            println!("perfbench-diagnostics {}", report.diagnostics.to_json());
            println!("{}", result_line(&report, record));
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload.name());
            ExitCode::FAILURE
        }
    }
}

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut record = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let reference = (!record).then_some(REFERENCE);
    let work_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!("{}-{}", workload.name(), std::process::id()));
    Ok(RunConfig {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        world: World::CANONICAL,
        reference,
        snapshot_dir: work_dir.join("shards"),
        work_dir,
        worker_exe: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
    })
}

/// The fabric worker: the reproduction's worker entry point, plus — when
/// the coordinator asked for a trace — a registry whose spans are written
/// to the trace directory afterwards. Stdout
/// belongs to the frame protocol, so nothing else is printed.
fn worker() -> ExitCode {
    let trace_dir = std::env::var_os(TRACE_DIR_ENV).map(PathBuf::from);
    let reg = std::sync::Arc::new(s2s_obs::Registry::new());
    if trace_dir.is_some() {
        s2s_obs::install(std::sync::Arc::clone(&reg));
    }
    let t = Instant::now();
    let code = s2s_bench::fabric::worker_main();
    if let Some(dir) = trace_dir {
        let trace = WorkerTrace::capture(&reg, t.elapsed().as_secs_f64());
        let path = dir.join(format!("worker-{}.txt", std::process::id()));
        if let Err(e) = std::fs::write(&path, trace.to_text()) {
            eprintln!("perfbench worker: write {}: {e}", path.display());
        }
    }
    ExitCode::from(u8::try_from(code).unwrap_or(1))
}
