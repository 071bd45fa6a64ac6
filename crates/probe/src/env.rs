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
//! | `S2S_FABRIC_FAULT_PLAN` | empty | Surgical fabric faults, e.g. `kill@0.1=2;stall@1.1` |
//! | `S2S_SNAPSHOT_DIR` | unset | Fabric merge also writes per-shard snapshots here |
//!
//! The experiment-scale knobs (`S2S_SEED`, `S2S_CLUSTERS`, `S2S_DAYS`,
//! `S2S_PAIRS`, `S2S_PING_PAIRS`, `S2S_CONG_PAIRS`), the bench-only
//! `S2S_BENCH_QUICK` flag, and the always-on service's
//! `S2S_SERVICE_SNAP_EVERY` resolve in `s2s-bench` (their defaults are
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

/// Directory the fabric merge writes per-shard snapshot files into: the
/// `S2S_SNAPSHOT_DIR` knob; unset (the default) means the merge keeps its
/// in-memory absorb path only.
pub fn snapshot_dir() -> Option<std::path::PathBuf> {
    tenv::var_raw("S2S_SNAPSHOT_DIR").map(std::path::PathBuf::from)
}

/// Every `S2S_*` variable some layer of the platform recognizes: the
/// measurement-plane knobs above, the fabric's coordinator→worker
/// assignment variables, and the `s2s-bench` experiment-scale and service
/// knobs. [`resolved_knobs`] warns about anything else.
pub const KNOWN_KNOBS: &[&str] = &[
    // Measurement plane.
    "S2S_THREADS",
    "S2S_FAULT_SEED",
    "S2S_FAULT_CRASH",
    "S2S_FAULT_CRASH_LEN",
    "S2S_FAULT_DROP",
    "S2S_FAULT_STUCK",
    "S2S_FAULT_TRUNC",
    // Fabric fault plan and snapshot persistence.
    "S2S_FABRIC_FAULT_PLAN",
    "S2S_SNAPSHOT_DIR",
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
    "S2S_SERVICE_SNAP_EVERY",
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
    let fp = crate::fabric::FabricFaultProfile::from_env();
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
            "S2S_FABRIC_FAULT_PLAN",
            format!("{} entr(ies)", fp.plan.len()),
            "empty".to_string(),
            "surgical fabric faults (kill@shard.attempt=k;…)",
        ),
        ResolvedKnob::new(
            "S2S_SNAPSHOT_DIR",
            snapshot_dir()
                .map(|p| p.display().to_string())
                .unwrap_or_else(|| "unset".to_string()),
            "unset".to_string(),
            "fabric merge also writes per-shard snapshots here",
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
        assert_eq!(
            names,
            [
                "S2S_THREADS",
                "S2S_FAULT_SEED",
                "S2S_FAULT_CRASH",
                "S2S_FAULT_CRASH_LEN",
                "S2S_FAULT_DROP",
                "S2S_FAULT_STUCK",
                "S2S_FAULT_TRUNC",
                "S2S_FABRIC_FAULT_PLAN",
                "S2S_SNAPSHOT_DIR",
            ]
        );
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
        // Knobs that no longer exist (their values became constants or
        // CLI flags) warn like typos instead of being silently ignored.
        let retired = [
            "S2S_SKETCH_CENTROIDS",
            "S2S_SKETCH_EXACT",
            "S2S_FAULT_CORRUPT",
            "S2S_FABRIC_FAULT_SEED",
            "S2S_FABRIC_FAULT_KILL",
            "S2S_FABRIC_FAULT_STALL",
            "S2S_FABRIC_FAULT_CORRUPT",
            "S2S_FABRIC_FAULT_EXIT",
            "S2S_FABRIC_RETRIES",
            "S2S_FABRIC_TIMEOUT_MS",
            "S2S_FABRIC_BACKOFF_MS",
            "S2S_FABRIC_HB_MS",
            "S2S_FABRIC_WORKERS",
            "S2S_SNAPSHOT_PATH",
            "S2S_SNAPSHOT_BLOCK",
            "S2S_SNAPSHOT_BUDGET",
            "S2S_SERVICE_CADENCE_MS",
            "S2S_SERVICE_QUERY_BUDGET",
        ];
        let mut want: Vec<&str> = retired.to_vec();
        want.sort_unstable();
        assert_eq!(unknown_knob_names(retired), want);
        // Everything documented — including the coordinator→worker
        // assignment variables a worker process inherits — is recognized.
        assert_eq!(KNOWN_KNOBS.len(), 22);
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
