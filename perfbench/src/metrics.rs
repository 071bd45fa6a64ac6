//! Named metrics with units, medians and percentiles, and the one-line
//! JSON the benchmark prints.

/// The end-to-end metrics every untraced run prints, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("records_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("failed_share", "1"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
];

/// The per-layer metrics every traced run prints, with units. Absolute
/// times are kept only for layers every workload exercises; the rest are
/// shares of the pass wall time, counts, bytes or ratios, and read 0 on a
/// workload whose passes never enter that layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("routing.route_compute_s", "s"),
    ("routing.route_computes", "count"),
    ("routing.epoch_config_s", "s"),
    ("routing.cache_hit_ratio", "1"),
    ("routing.cache_evictions", "count"),
    ("routing.self_share", "1"),
    ("netsim.probes_per_record", "1"),
    ("netsim.lost_share", "1"),
    ("netsim.self_s", "s"),
    ("netsim.self_share", "1"),
    ("probe.campaign_s", "s"),
    ("probe.attempts_per_slot", "1"),
    ("probe.retried", "count"),
    ("probe.gave_up", "count"),
    ("probe.agent_down_slots", "count"),
    ("store.push_share", "1"),
    ("store.absorb_share", "1"),
    ("store.arena_bytes", "bytes"),
    ("store.dedup_ratio", "1"),
    ("sink.fold_share", "1"),
    ("sink.bytes_per_state", "bytes"),
    ("core.timelines_share", "1"),
    ("core.memo_hit_ratio", "1"),
    ("core.analyses_share", "1"),
    ("core.congestion_share", "1"),
    ("core.update_share", "1"),
    ("service.checkpoint_share", "1"),
    ("service.answer_share", "1"),
    ("service.queue_wait_share", "1"),
    ("service.checkpoint_bytes", "bytes"),
    ("fabric.collect_share", "1"),
    ("fabric.merge_share", "1"),
    ("fabric.worker_cpu_share", "1"),
    ("fabric.cpu_over_longterm", "1"),
    ("fabric.payload_bytes", "bytes"),
    ("fabric.launches", "count"),
    ("fabric.retries", "count"),
    ("other.self_share", "1"),
    ("trace.overhead", "1"),
];

/// An ordered list of `(name, unit, value)` metrics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics(pub Vec<(String, &'static str, f64)>);

/// An installed [`s2s_obs::Registry`] for one traced pass, read back by
/// name; uninstalled on drop.
pub struct Tracer {
    /// The registry the program's spans and counters record into.
    pub reg: std::sync::Arc<s2s_obs::Registry>,
}

impl Tracer {
    /// Installs a fresh registry and registers `net`'s wire counters and
    /// its oracle's cache counters in it.
    pub fn install(net: &s2s_netsim::Network) -> Tracer {
        let reg = std::sync::Arc::new(s2s_obs::Registry::new());
        net.observe(&reg);
        s2s_obs::install(std::sync::Arc::clone(&reg));
        Tracer { reg }
    }

    /// Total seconds recorded under span `name`.
    pub fn span_s(&self, name: &str) -> f64 {
        self.reg.span(name).total().as_secs_f64()
    }

    /// Spans recorded under `name`.
    pub fn span_count(&self, name: &str) -> u64 {
        self.reg.span(name).count()
    }

    /// Counter `name`.
    pub fn counter(&self, name: &str) -> u64 {
        self.reg.counter(name).get()
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        s2s_obs::uninstall();
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

impl Metrics {
    /// Every per-layer metric at 0 except `trace.overhead`, which the run
    /// loop adds: the list a traced pass fills in.
    pub fn layers() -> Metrics {
        Metrics(
            PER_LAYER
                .iter()
                .filter(|(n, _)| *n != "trace.overhead")
                .map(|(n, u)| (n.to_string(), *u, 0.0))
                .collect(),
        )
    }

    /// Sets a metric already in the list (keeping its unit).
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self.0.iter_mut().find(|(n, _, _)| n == name);
        slot.unwrap_or_else(|| panic!("unknown metric {name}")).2 = value;
    }

    /// Appends (or replaces) one metric.
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => *slot = (name.to_string(), unit, value),
            None => self.0.push((name.to_string(), unit, value)),
        }
    }

    /// Appends every metric of `other`.
    pub fn extend(&mut self, other: &Metrics) {
        for (n, u, v) in &other.0 {
            self.push(n, u, *v);
        }
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, v)| *v)
    }

    /// The per-name median over several metric lists (names in first-seen
    /// order).
    pub fn median_of<'a>(lists: impl IntoIterator<Item = &'a Metrics>) -> Metrics {
        let lists: Vec<&Metrics> = lists.into_iter().collect();
        let mut out = Metrics::default();
        for l in &lists {
            for (n, u, _) in &l.0 {
                if out.get(n).is_none() {
                    let vals = lists.iter().filter_map(|m| m.get(n)).collect();
                    out.push(n, u, median(vals));
                }
            }
        }
        out
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, u, v)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite number with all its digits (non-finite values print as 0,
/// which no correct run produces for a compared metric).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// The median (0 for an empty sample).
pub fn median(v: Vec<f64>) -> f64 {
    let mut v = v;
    percentile_in_place(&mut v, 50.0)
}

/// The `p`-th percentile with linear interpolation between closest ranks
/// (0 for an empty sample).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut v = v.to_vec();
    percentile_in_place(&mut v, p)
}

fn percentile_in_place(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// FNV-64 over `parts`, each followed by a newline: the benchmark's digest
/// of derived outputs (verdict counts, analysis headline numbers).
pub fn fnv_lines<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    use s2s_probe::fabric::{fnv64_bytes, FNV64_OFFSET};
    let mut h = FNV64_OFFSET;
    for p in parts {
        h = fnv64_bytes(h, p.as_bytes());
        h = fnv64_bytes(h, b"\n");
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(v.to_vec()), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(Vec::new()), 0.0);
    }

    #[test]
    fn json_keeps_every_digit_and_the_unit() {
        let mut m = Metrics::default();
        m.push("a", "s", 0.1 + 0.2);
        m.push("b", "count", 3.0);
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}, \
             \"b\": {\"value\": 3.0, \"unit\": \"count\"}}"
        );
    }

    #[test]
    fn median_of_aligns_by_name() {
        let mk = |v: f64| {
            let mut m = Metrics::default();
            m.push("x", "s", v);
            m
        };
        let lists = [mk(3.0), mk(1.0), mk(2.0)];
        assert_eq!(Metrics::median_of(lists.iter()).get("x"), Some(2.0));
    }
}
