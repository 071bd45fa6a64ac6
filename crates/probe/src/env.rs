//! The consolidated `S2S_*` environment-knob module.
//!
//! Every knob the measurement plane reads resolves here, through the
//! shared warn-and-default parsers in [`s2s_types::env`]: an unset knob
//! silently takes its default, a malformed one (`S2S_THREADS=abc`,
//! `S2S_FAULT_DROP=1.7`) prints one warning to stderr and takes the
//! default. `reproduce print-config` dumps the resolved values.
//!
//! ## Knob table
//!
//! | Variable | Default | Meaning |
//! |---|---|---|
//! | `S2S_THREADS` | available parallelism | Campaign worker + columnar analysis shard threads (≥ 1) |
//! | `S2S_FAULT_SEED` | `0x5EED` | Fault-decision seed |
//! | `S2S_FAULT_CRASH` | `0` | Per-(agent, epoch) crash-start probability |
//! | `S2S_FAULT_CRASH_LEN` | `4` | Mean crash downtime, epochs (≥ 1) |
//! | `S2S_FAULT_DROP` | `0` | Per-probe drop probability |
//! | `S2S_FAULT_STUCK` | `0` | Per-probe stuck-past-deadline probability |
//! | `S2S_FAULT_TRUNC` | `0` | Per-traceroute truncation probability |
//! | `S2S_FAULT_CORRUPT` | `0` | Per-archive-line corruption probability |
//! | `S2S_SKETCH_CENTROIDS` | `256` | Quantile-sketch centroid capacity (≥ 8) |
//! | `S2S_SKETCH_EXACT` | `128` | Samples a sketch keeps exact before compressing |
//! | `S2S_FABRIC_FAULT_SEED` | `0xFAB` | Fabric fault-decision seed |
//! | `S2S_FABRIC_FAULT_KILL` | `0` | Per-worker-attempt kill probability |
//! | `S2S_FABRIC_FAULT_STALL` | `0` | Per-worker-attempt stall probability |
//! | `S2S_FABRIC_FAULT_CORRUPT` | `0` | Per-worker-attempt corrupt-frame probability |
//! | `S2S_FABRIC_FAULT_EXIT` | `0` | Per-worker-attempt exit-nonzero probability |
//! | `S2S_FABRIC_FAULT_PLAN` | empty | Surgical faults, e.g. `kill@0.1=2;stall@1.1` |
//! | `S2S_FABRIC_RETRIES` | `3` | Attempts per shard (first try + retries) |
//! | `S2S_FABRIC_TIMEOUT_MS` | `2000` | Reap a worker after this long with no stdout event |
//! | `S2S_FABRIC_BACKOFF_MS` | `10` | First retry backoff (doubles per attempt, jittered) |
//! | `S2S_FABRIC_HB_MS` | `100` | Worker heartbeat interval |
//! | `S2S_FABRIC_WORKERS` | `1` | Default worker count for `reproduce` (1 = in-process) |
//! | `S2S_SNAPSHOT_BLOCK` | `4096` | Traces per snapshot `BLOCK` segment (≥ 1, the unit of loss) |
//! | `S2S_SNAPSHOT_BUDGET` | `4096` | Traces per streamed-read batch (≥ 1, the reader's reuse-buffer cap) |
//! | `S2S_SNAPSHOT_DIR` | unset | Fabric merge also writes per-shard snapshots here |
//! | `S2S_SNAPSHOT_PATH` | unset | Default for `reproduce --snapshot` |
//! | `S2S_SERVICE_CADENCE_MS` | `0` | Wall-clock sleep between service epochs (0 = free-run) |
//! | `S2S_SERVICE_SNAP_EVERY` | `8` | Service checkpoint cadence, epochs (≥ 1) |
//! | `S2S_SERVICE_QUERY_BUDGET` | `4096` | Queries a service run answers before refusing (≥ 1) |
//!
//! The experiment-scale knobs (`S2S_SEED`, `S2S_CLUSTERS`, `S2S_DAYS`,
//! `S2S_PAIRS`, `S2S_PING_PAIRS`, `S2S_CONG_PAIRS`), the bench-only
//! `S2S_BENCH_QUICK` flag, and the always-on-service knobs
//! (`S2S_SERVICE_CADENCE_MS`, `S2S_SERVICE_SNAP_EVERY`,
//! `S2S_SERVICE_QUERY_BUDGET`) resolve in `s2s-bench` (their defaults are
//! experiment/service policy, not measurement-plane policy) — through the
//! same shared parsers, and they appear in the same `print-config` dump.
//!
//! Typos are caught, not ignored: [`resolved_knobs`] scans the process
//! environment for `S2S_*` names outside the recognized set and prints
//! one warning per process run (`S2S_FAULT_DORP=1` would otherwise
//! silently measure a healthy plane).

use crate::faults::FaultProfile;
use s2s_types::env as tenv;

/// Worker-thread default: the `S2S_THREADS` knob when set to a valid
/// integer ≥ 1, otherwise the machine's available parallelism. Sizes both
/// campaign workers and the columnar analysis shards (`reproduce
/// --threads` overrides the knob); outputs are byte-identical across
/// thread counts either way.
pub fn threads() -> usize {
    let fallback = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    tenv::var_usize_at_least("S2S_THREADS", fallback, 1)
}

/// The fault profile from the `S2S_FAULT_*` knobs — an alias for
/// [`FaultProfile::from_env`], here so the whole knob surface is
/// reachable from one module.
pub fn fault_profile() -> FaultProfile {
    FaultProfile::from_env()
}

/// Quantile-sketch centroid capacity: the `S2S_SKETCH_CENTROIDS` knob when
/// set to a valid integer ≥ 8, default
/// [`s2s_stats::sketch::DEFAULT_SKETCH_CAPACITY`]. Larger means tighter
/// quantile rank-error (≤ `2·ceil(n/capacity) + 1` ranks) and more memory
/// per (pair, protocol) profile.
pub fn sketch_centroids() -> usize {
    tenv::var_usize_at_least(
        "S2S_SKETCH_CENTROIDS",
        s2s_stats::sketch::DEFAULT_SKETCH_CAPACITY,
        8,
    )
}

/// Samples a quantile sketch keeps verbatim (exact quantiles) before
/// compressing into centroids: the `S2S_SKETCH_EXACT` knob, default
/// [`s2s_stats::sketch::DEFAULT_SKETCH_EXACT`].
pub fn sketch_exact() -> usize {
    tenv::var_usize_at_least("S2S_SKETCH_EXACT", s2s_stats::sketch::DEFAULT_SKETCH_EXACT, 0)
}

/// The fabric fault profile from the `S2S_FABRIC_FAULT_*` knobs — an
/// alias for [`crate::fabric::FabricFaultProfile::from_env`].
pub fn fabric_fault_profile() -> crate::fabric::FabricFaultProfile {
    crate::fabric::FabricFaultProfile::from_env()
}

/// Worker heartbeat interval: the `S2S_FABRIC_HB_MS` knob, default 100 ms.
pub fn fabric_hb_interval() -> std::time::Duration {
    std::time::Duration::from_millis(tenv::var_u64("S2S_FABRIC_HB_MS", 100))
}

/// Default worker-process count for `reproduce`: the `S2S_FABRIC_WORKERS`
/// knob, default 1 (run in-process, no fabric). `reproduce --workers`
/// overrides it.
pub fn fabric_workers() -> usize {
    tenv::var_usize_at_least("S2S_FABRIC_WORKERS", 1, 1)
}

/// Traces per snapshot `BLOCK` segment: the `S2S_SNAPSHOT_BLOCK` knob when
/// set to a valid integer ≥ 1, default
/// [`crate::snapshot::DEFAULT_BLOCK_TRACES`]. The block is the unit of
/// loss under corruption — smaller blocks lose less per bad byte, larger
/// blocks amortize segment headers better.
pub fn snapshot_block() -> usize {
    tenv::var_usize_at_least(
        "S2S_SNAPSHOT_BLOCK",
        crate::snapshot::DEFAULT_BLOCK_TRACES,
        1,
    )
}

/// Traces per streamed-read batch: the `S2S_SNAPSHOT_BUDGET` knob when
/// set to a valid integer ≥ 1, default
/// [`crate::snapshot::DEFAULT_BLOCK_TRACES`]. This is the
/// `SnapshotReader` reuse-buffer cap — the out-of-core read counterpart
/// of `S2S_SNAPSHOT_BLOCK` — overridden per open by
/// `Snapshot::options().block_budget(n)`.
pub fn snapshot_budget() -> usize {
    tenv::var_usize_at_least(
        "S2S_SNAPSHOT_BUDGET",
        crate::snapshot::DEFAULT_BLOCK_TRACES,
        1,
    )
}

/// Directory the fabric merge writes per-shard snapshot files into: the
/// `S2S_SNAPSHOT_DIR` knob; unset (the default) means the merge keeps its
/// in-memory absorb path only.
pub fn snapshot_dir() -> Option<std::path::PathBuf> {
    tenv::var_raw("S2S_SNAPSHOT_DIR").map(std::path::PathBuf::from)
}

/// Default snapshot path for `reproduce --snapshot`: the
/// `S2S_SNAPSHOT_PATH` knob; unset means no snapshot unless the flag is
/// given.
pub fn snapshot_path() -> Option<std::path::PathBuf> {
    tenv::var_raw("S2S_SNAPSHOT_PATH").map(std::path::PathBuf::from)
}

/// Every `S2S_*` variable some layer of the platform recognizes: the
/// measurement-plane knobs above, the fabric knobs (including the
/// coordinator→worker assignment variables), and the `s2s-bench`
/// experiment-scale knobs. [`resolved_knobs`] warns about anything else.
pub const KNOWN_KNOBS: &[&str] = &[
    // Measurement plane.
    "S2S_THREADS",
    "S2S_FAULT_SEED",
    "S2S_FAULT_CRASH",
    "S2S_FAULT_CRASH_LEN",
    "S2S_FAULT_DROP",
    "S2S_FAULT_STUCK",
    "S2S_FAULT_TRUNC",
    "S2S_FAULT_CORRUPT",
    "S2S_SKETCH_CENTROIDS",
    "S2S_SKETCH_EXACT",
    // Fabric: operator knobs.
    "S2S_FABRIC_FAULT_SEED",
    "S2S_FABRIC_FAULT_KILL",
    "S2S_FABRIC_FAULT_STALL",
    "S2S_FABRIC_FAULT_CORRUPT",
    "S2S_FABRIC_FAULT_EXIT",
    "S2S_FABRIC_FAULT_PLAN",
    "S2S_FABRIC_RETRIES",
    "S2S_FABRIC_TIMEOUT_MS",
    "S2S_FABRIC_BACKOFF_MS",
    "S2S_FABRIC_HB_MS",
    "S2S_FABRIC_WORKERS",
    // Snapshot persistence.
    "S2S_SNAPSHOT_BLOCK",
    "S2S_SNAPSHOT_BUDGET",
    "S2S_SNAPSHOT_DIR",
    "S2S_SNAPSHOT_PATH",
    // Fabric: coordinator→worker assignment (not operator-set).
    "S2S_FABRIC_SHARD",
    "S2S_FABRIC_SHARDS",
    "S2S_FABRIC_ATTEMPT",
    "S2S_FABRIC_CKPT_DIR",
    "S2S_FABRIC_MODE",
    // Experiment scale (resolved in s2s-bench).
    "S2S_SEED",
    "S2S_CLUSTERS",
    "S2S_DAYS",
    "S2S_PAIRS",
    "S2S_PING_PAIRS",
    "S2S_CONG_PAIRS",
    "S2S_BENCH_QUICK",
    // Always-on measurement service (resolved in s2s-bench).
    "S2S_SERVICE_CADENCE_MS",
    "S2S_SERVICE_SNAP_EVERY",
    "S2S_SERVICE_QUERY_BUDGET",
];

/// The pure core of typo detection: which of `names` look like platform
/// knobs (`S2S_` prefix) but match nothing in [`KNOWN_KNOBS`]. Split out
/// from the environment scan so tests need not mutate the process env.
pub fn unknown_knob_names<'a, I: IntoIterator<Item = &'a str>>(names: I) -> Vec<String> {
    let mut out: Vec<String> = names
        .into_iter()
        .filter(|n| n.starts_with("S2S_") && !KNOWN_KNOBS.contains(n))
        .map(str::to_string)
        .collect();
    out.sort();
    out
}

/// Scans the process environment for unrecognized `S2S_*` variables and
/// warns once per process run — a mistyped knob (`S2S_FAULT_DORP=1`)
/// silently configuring nothing is worse than a noisy line on stderr.
pub fn warn_unknown_knobs() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let names: Vec<String> = std::env::vars().map(|(k, _)| k).collect();
        let unknown = unknown_knob_names(names.iter().map(String::as_str));
        if !unknown.is_empty() {
            eprintln!(
                "warning: unrecognized S2S_* variable(s): {} — not a knob any layer \
                 reads (typo?); see `reproduce print-config` for the knob table",
                unknown.join(", ")
            );
        }
    });
}

/// One knob's resolved state, for `print-config` style dumps.
#[derive(Clone, Debug)]
pub struct ResolvedKnob {
    /// Environment variable name.
    pub name: &'static str,
    /// The value the process will actually use, rendered.
    pub value: String,
    /// The default, rendered.
    pub default: String,
    /// Whether the operator set the variable at all.
    pub set: bool,
    /// One-line description.
    pub doc: &'static str,
}

impl ResolvedKnob {
    fn new(name: &'static str, value: String, default: String, doc: &'static str) -> Self {
        let set = tenv::var_raw(name).is_some();
        ResolvedKnob { name, value, default, set, doc }
    }
}

/// The measurement-plane knobs, resolved against the current environment.
/// Also the typo checkpoint: the first call warns (once) about `S2S_*`
/// variables no layer recognizes.
pub fn resolved_knobs() -> Vec<ResolvedKnob> {
    warn_unknown_knobs();
    let d = FaultProfile::default();
    let p = FaultProfile::from_env();
    let fd = crate::fabric::FabricFaultProfile::default();
    let fp = fabric_fault_profile();
    let fabric_cfg = crate::fabric::FabricConfig::from_env(1);
    let fabric_dft = crate::fabric::FabricConfig::default();
    vec![
        ResolvedKnob::new(
            "S2S_THREADS",
            threads().to_string(),
            "available parallelism".to_string(),
            "campaign worker + analysis shard threads",
        ),
        ResolvedKnob::new(
            "S2S_FAULT_SEED",
            p.seed.to_string(),
            d.seed.to_string(),
            "fault-decision seed",
        ),
        ResolvedKnob::new(
            "S2S_FAULT_CRASH",
            p.crash_rate.to_string(),
            d.crash_rate.to_string(),
            "per-(agent, epoch) crash-start probability",
        ),
        ResolvedKnob::new(
            "S2S_FAULT_CRASH_LEN",
            p.crash_mean_epochs.to_string(),
            d.crash_mean_epochs.to_string(),
            "mean crash downtime, epochs",
        ),
        ResolvedKnob::new(
            "S2S_FAULT_DROP",
            p.drop_rate.to_string(),
            d.drop_rate.to_string(),
            "per-probe drop probability",
        ),
        ResolvedKnob::new(
            "S2S_FAULT_STUCK",
            p.stuck_rate.to_string(),
            d.stuck_rate.to_string(),
            "per-probe stuck-past-deadline probability",
        ),
        ResolvedKnob::new(
            "S2S_FAULT_TRUNC",
            p.truncate_rate.to_string(),
            d.truncate_rate.to_string(),
            "per-traceroute truncation probability",
        ),
        ResolvedKnob::new(
            "S2S_FAULT_CORRUPT",
            p.corrupt_rate.to_string(),
            d.corrupt_rate.to_string(),
            "per-archive-line corruption probability",
        ),
        ResolvedKnob::new(
            "S2S_SKETCH_CENTROIDS",
            sketch_centroids().to_string(),
            s2s_stats::sketch::DEFAULT_SKETCH_CAPACITY.to_string(),
            "quantile-sketch centroid capacity",
        ),
        ResolvedKnob::new(
            "S2S_SKETCH_EXACT",
            sketch_exact().to_string(),
            s2s_stats::sketch::DEFAULT_SKETCH_EXACT.to_string(),
            "samples kept exact before sketch compression",
        ),
        ResolvedKnob::new(
            "S2S_FABRIC_FAULT_SEED",
            fp.seed.to_string(),
            fd.seed.to_string(),
            "fabric fault-decision seed",
        ),
        ResolvedKnob::new(
            "S2S_FABRIC_FAULT_KILL",
            fp.kill_rate.to_string(),
            fd.kill_rate.to_string(),
            "per-worker-attempt kill probability",
        ),
        ResolvedKnob::new(
            "S2S_FABRIC_FAULT_STALL",
            fp.stall_rate.to_string(),
            fd.stall_rate.to_string(),
            "per-worker-attempt stall probability",
        ),
        ResolvedKnob::new(
            "S2S_FABRIC_FAULT_CORRUPT",
            fp.corrupt_rate.to_string(),
            fd.corrupt_rate.to_string(),
            "per-worker-attempt corrupt-frame probability",
        ),
        ResolvedKnob::new(
            "S2S_FABRIC_FAULT_EXIT",
            fp.exit_rate.to_string(),
            fd.exit_rate.to_string(),
            "per-worker-attempt exit-nonzero probability",
        ),
        ResolvedKnob::new(
            "S2S_FABRIC_FAULT_PLAN",
            format!("{} entr(ies)", fp.plan.len()),
            "empty".to_string(),
            "surgical fabric faults (kill@shard.attempt=k;…)",
        ),
        ResolvedKnob::new(
            "S2S_FABRIC_RETRIES",
            fabric_cfg.max_attempts.to_string(),
            fabric_dft.max_attempts.to_string(),
            "attempts per shard (first try + retries)",
        ),
        ResolvedKnob::new(
            "S2S_FABRIC_TIMEOUT_MS",
            fabric_cfg.heartbeat_timeout.as_millis().to_string(),
            fabric_dft.heartbeat_timeout.as_millis().to_string(),
            "reap a worker after this long with no stdout event",
        ),
        ResolvedKnob::new(
            "S2S_FABRIC_BACKOFF_MS",
            fabric_cfg.backoff_base_ms.to_string(),
            fabric_dft.backoff_base_ms.to_string(),
            "first retry backoff (doubles per attempt, jittered)",
        ),
        ResolvedKnob::new(
            "S2S_FABRIC_HB_MS",
            fabric_hb_interval().as_millis().to_string(),
            "100".to_string(),
            "worker heartbeat interval",
        ),
        ResolvedKnob::new(
            "S2S_FABRIC_WORKERS",
            fabric_workers().to_string(),
            "1".to_string(),
            "default reproduce worker count (1 = in-process)",
        ),
        ResolvedKnob::new(
            "S2S_SNAPSHOT_BLOCK",
            snapshot_block().to_string(),
            crate::snapshot::DEFAULT_BLOCK_TRACES.to_string(),
            "traces per snapshot BLOCK segment (the unit of loss)",
        ),
        ResolvedKnob::new(
            "S2S_SNAPSHOT_BUDGET",
            snapshot_budget().to_string(),
            crate::snapshot::DEFAULT_BLOCK_TRACES.to_string(),
            "traces per streamed-read batch (reader reuse-buffer cap)",
        ),
        ResolvedKnob::new(
            "S2S_SNAPSHOT_DIR",
            snapshot_dir()
                .map(|p| p.display().to_string())
                .unwrap_or_else(|| "unset".to_string()),
            "unset".to_string(),
            "fabric merge also writes per-shard snapshots here",
        ),
        ResolvedKnob::new(
            "S2S_SNAPSHOT_PATH",
            snapshot_path()
                .map(|p| p.display().to_string())
                .unwrap_or_else(|| "unset".to_string()),
            "unset".to_string(),
            "default for reproduce --snapshot",
        ),
    ]
}

/// Renders resolved knobs as an aligned table, one knob per line, with a
/// `*` marker on knobs the operator explicitly set.
pub fn format_knob_table(knobs: &[ResolvedKnob]) -> String {
    let name_w = knobs.iter().map(|k| k.name.len()).max().unwrap_or(0);
    let val_w = knobs.iter().map(|k| k.value.len()).max().unwrap_or(0);
    let mut out = String::new();
    for k in knobs {
        let mark = if k.set { "*" } else { " " };
        out.push_str(&format!(
            "{mark} {:<name_w$}  {:<val_w$}  (default {}) — {}\n",
            k.name, k.value, k.default, k.doc
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Parsing edge cases are covered against the pure cores in
    // `s2s_types::env` (no process-env mutation in parallel tests); here
    // we pin the probe-level wiring: which core, which default, which
    // constraint each knob uses.

    #[test]
    fn threads_core_rejects_zero() {
        let (v, w) = s2s_types::env::parse_checked(
            "S2S_THREADS",
            Some("0"),
            6usize,
            |&v| v >= 1,
            "an integer >= 1",
        );
        assert_eq!(v, 6);
        assert!(w.unwrap().contains("S2S_THREADS"));
    }

    #[test]
    fn resolved_knobs_cover_the_documented_table() {
        let knobs = resolved_knobs();
        let names: Vec<&str> = knobs.iter().map(|k| k.name).collect();
        for expect in [
            "S2S_THREADS",
            "S2S_FAULT_SEED",
            "S2S_FAULT_CRASH",
            "S2S_FAULT_CRASH_LEN",
            "S2S_FAULT_DROP",
            "S2S_FAULT_STUCK",
            "S2S_FAULT_TRUNC",
            "S2S_FAULT_CORRUPT",
            "S2S_SKETCH_CENTROIDS",
            "S2S_SKETCH_EXACT",
            "S2S_FABRIC_FAULT_SEED",
            "S2S_FABRIC_FAULT_KILL",
            "S2S_FABRIC_FAULT_STALL",
            "S2S_FABRIC_FAULT_CORRUPT",
            "S2S_FABRIC_FAULT_EXIT",
            "S2S_FABRIC_FAULT_PLAN",
            "S2S_FABRIC_RETRIES",
            "S2S_FABRIC_TIMEOUT_MS",
            "S2S_FABRIC_BACKOFF_MS",
            "S2S_FABRIC_HB_MS",
            "S2S_FABRIC_WORKERS",
            "S2S_SNAPSHOT_BLOCK",
            "S2S_SNAPSHOT_BUDGET",
            "S2S_SNAPSHOT_DIR",
            "S2S_SNAPSHOT_PATH",
        ] {
            assert!(names.contains(&expect), "missing {expect}");
        }
        let table = format_knob_table(&knobs);
        assert!(table.contains("S2S_THREADS"));
        assert!(table.lines().count() >= knobs.len());
    }

    #[test]
    fn unknown_knob_detection_flags_typos_only() {
        // Typos with the S2S_ prefix are flagged, sorted.
        let found = unknown_knob_names(
            ["S2S_FAULT_DORP", "S2S_THREADS", "PATH", "S2S_FABRIC_FAULT_KILLL"],
        );
        assert_eq!(found, vec!["S2S_FABRIC_FAULT_KILLL", "S2S_FAULT_DORP"]);
        // Everything documented — including the coordinator→worker
        // assignment variables a worker process inherits — is recognized.
        assert!(unknown_knob_names(KNOWN_KNOBS.iter().copied()).is_empty());
        // Non-S2S variables are never the platform's business.
        assert!(unknown_knob_names(["HOME", "CARGO_HOME"].into_iter()).is_empty());
    }

    #[test]
    fn every_resolved_knob_is_in_the_known_list() {
        // `print-config` and the typo detector must agree, or a
        // documented knob would warn about itself.
        for k in resolved_knobs() {
            assert!(
                KNOWN_KNOBS.contains(&k.name),
                "{} resolved but not in KNOWN_KNOBS",
                k.name
            );
        }
    }
}
