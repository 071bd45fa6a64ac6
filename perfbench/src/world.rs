//! The simulated world the workloads run in, and the reference outputs
//! recorded for it.

use crate::Workload;
use s2s_bench::{Scale, Scenario};

/// World seed and mesh sizes. The benchmark's input: every workload's
/// records follow from these (the request stream follows from `--seed`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct World {
    /// Master seed of topology, dynamics and congestion.
    pub seed: u64,
    /// CDN clusters.
    pub clusters: usize,
    /// Days of the 3-hourly dual-protocol traceroute schedule
    /// (`longterm`, `service`, `fabric`).
    pub days: u32,
    /// Directed pairs of the traceroute mesh.
    pub pairs: usize,
    /// Pairs of the ping week (`pingmesh`), one direction each.
    pub ping_pairs: usize,
}

impl World {
    /// The benchmark world: the paper's 120-cluster deployment at the
    /// reproduction's default seed, with a long horizon.
    pub const CANONICAL: World = World {
        seed: 20151201,
        clusters: 120,
        days: 14,
        pairs: 180,
        ping_pairs: 400,
    };

    /// A small world for the benchmark's own tests.
    pub const SMOKE: World = World {
        seed: 7,
        clusters: 12,
        days: 3,
        pairs: 8,
        ping_pairs: 8,
    };

    /// The reproduction's scale for this world.
    pub fn scale(&self) -> Scale {
        Scale {
            seed: self.seed,
            clusters: self.clusters,
            days: self.days,
            pairs: self.pairs,
            ping_pairs: self.ping_pairs,
            cong_pairs: 0,
        }
    }

    /// Builds the world.
    pub fn scenario(&self) -> Scenario {
        Scenario::build(self.scale())
    }

    /// The `S2S_*` scale knobs a fabric worker rebuilds this world from.
    pub fn worker_env(&self) -> Vec<(String, String)> {
        [
            ("S2S_SEED", self.seed.to_string()),
            ("S2S_CLUSTERS", self.clusters.to_string()),
            ("S2S_DAYS", self.days.to_string()),
            ("S2S_PAIRS", self.pairs.to_string()),
            ("S2S_PING_PAIRS", self.ping_pairs.to_string()),
            ("S2S_CONG_PAIRS", "0".to_string()),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}

/// The outputs a pass must reproduce. A pass fills the fields of its own
/// workload; [`Reference::check`] compares only those.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Reference {
    /// Dataset digest of the quiet traceroute mesh (`longterm`, and
    /// `fabric`, whose merged dataset must be byte-identical to it).
    pub mesh_digest: u64,
    /// Digest of the Table 1 / Fig. 2–6 / Fig. 10 headline numbers over
    /// that mesh.
    pub mesh_results: u64,
    /// Dataset digest of the service's noisy-fault mesh.
    pub service_digest: u64,
    /// Digest of the ping week's saved sink states.
    pub ping_states: u64,
    /// Ping-week verdicts: (classified, refused below the coverage floor,
    /// high variation, consistently congested).
    pub ping_verdicts: [u64; 4],
}

impl Reference {
    /// Compares the fields `workload` produces.
    pub fn check(&self, workload: Workload, got: &Reference) -> Result<(), String> {
        let mut bad = Vec::new();
        let mut cmp = |name: &str, want: String, have: String| {
            if want != have {
                bad.push(format!("{name}: expected {want}, got {have}"));
            }
        };
        match workload {
            Workload::Longterm | Workload::Fabric => {
                cmp("mesh_digest", hex(self.mesh_digest), hex(got.mesh_digest));
                cmp(
                    "mesh_results",
                    hex(self.mesh_results),
                    hex(got.mesh_results),
                );
            }
            Workload::Service => cmp(
                "service_digest",
                hex(self.service_digest),
                hex(got.service_digest),
            ),
            Workload::Pingmesh => {
                cmp("ping_states", hex(self.ping_states), hex(got.ping_states));
                cmp(
                    "ping_verdicts",
                    format!("{:?}", self.ping_verdicts),
                    format!("{:?}", got.ping_verdicts),
                );
            }
        }
        if bad.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "output differs from the reference: {}",
                bad.join("; ")
            ))
        }
    }
}

fn hex(v: u64) -> String {
    format!("{v:016x}")
}

/// The outputs of [`World::CANONICAL`], recorded with `perfbench --record`
/// (see README.md). Re-record only after a change that legitimately
/// changes the program's output.
pub const REFERENCE: Reference = Reference {
    mesh_digest: 0x97cf_322f_ff7e_75bc,
    mesh_results: 0x752c_5f11_8714_db0b,
    service_digest: 0xcdf9_ad26_777d_3fa6,
    ping_states: 0x0c58_77c6_3046_8214,
    ping_verdicts: [769, 31, 295, 24],
};
