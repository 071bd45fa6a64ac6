//! The benchmark's own checks, at smoke scale: every workload emits every
//! metric `BENCHMARK.json` names, with its unit, and a wrong reference
//! fails the run.

use s2s_perfbench::metrics::{END_TO_END, PER_LAYER};
use s2s_perfbench::world::{Reference, World};
use s2s_perfbench::{run, RunConfig, Workload};
use std::path::PathBuf;

fn config(workload: Workload, trace: bool, reference: Option<Reference>) -> RunConfig {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-smoke-{}-{trace}", workload.name()));
    RunConfig {
        workload,
        seed: 11,
        // One pass (two when traced): the loop always runs the minimum.
        seconds: 1e-3,
        trace,
        world: World::SMOKE,
        reference,
        snapshot_dir: work_dir.join("shards"),
        work_dir,
        worker_exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .map(|i| i + key.len() + 5)?;
        Some(entry[at..].split('"').next()?.to_string())
    };
    body.split('{')
        .skip(1)
        .map(|e| {
            (
                field(e, "name").expect("name"),
                field(e, "unit").expect("unit"),
            )
        })
        .collect()
}

fn emitted(r: &s2s_perfbench::RunReport) -> Vec<(String, String)> {
    r.metrics
        .0
        .iter()
        .map(|(n, u, _)| (n.clone(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_metrics_the_runner_knows() {
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), own(END_TO_END));
    assert_eq!(declared("per_layer"), own(PER_LAYER));
}

#[test]
fn every_workload_emits_every_metric_with_its_unit_and_a_wrong_reference_fails() {
    // One test, run sequentially: a run edits the process environment.
    let mut mesh_digest = None;
    for workload in Workload::ALL {
        let recording = config(workload, false, None);
        recording.isolate_env();
        let observed = run(&recording)
            .expect("record run")
            .observed
            .expect("observed outputs");
        match workload {
            Workload::Longterm => mesh_digest = Some(observed.mesh_digest),
            Workload::Fabric => assert_eq!(
                Some(observed.mesh_digest),
                mesh_digest,
                "the fabric's merged dataset must equal the one-process dataset"
            ),
            _ => {}
        }

        let plain = run(&config(workload, false, Some(observed))).expect("checked run");
        assert!(
            plain.correct,
            "{workload:?} must reproduce its own recording"
        );
        assert_eq!(
            emitted(&plain),
            declared("end_to_end"),
            "{workload:?} end-to-end"
        );
        for (name, _, value) in &plain.metrics.0 {
            assert!(
                value.is_finite() && *value > 0.0,
                "{workload:?} {name} = {value}"
            );
        }

        let traced = config(workload, true, Some(observed));
        traced.isolate_env();
        let traced = run(&traced).expect("traced run");
        assert!(
            traced.correct,
            "{workload:?} traced run must reproduce its recording"
        );
        assert_eq!(
            emitted(&traced),
            declared("per_layer"),
            "{workload:?} per-layer"
        );

        let mut wrong = observed;
        wrong.mesh_digest ^= 1;
        wrong.service_digest ^= 1;
        wrong.ping_states ^= 1;
        let failed = run(&config(workload, false, Some(wrong))).expect("mismatched run");
        assert!(
            !failed.correct,
            "{workload:?}: a wrong reference digest must fail the run"
        );
        assert!(
            s2s_perfbench::result_line(&failed, false).ends_with("\"metrics\": {}}"),
            "a failed run records no metrics"
        );
    }
}
