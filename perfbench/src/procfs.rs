//! What the benchmark reads from the kernel: peak resident memory, CPU
//! time of this process, its threads and its reaped children, and host
//! steal time.
//!
//! This host's hypervisor steals 1–25 % of the CPU in bursts lasting
//! minutes, which swings the wall time of identical passes by a fifth.
//! Pass times are therefore *unstolen* wall times: the wall time with the
//! share the hypervisor stole from the busy vCPUs taken out. Unlike CPU
//! time, an unstolen wall time still counts idle workers, lock waits and
//! disk waits, so parallelism and blocking regressions show.

/// Kernel clock ticks per second for `/proc/*/stat` times (`USER_HZ`,
/// 100 on every mainstream Linux configuration).
const TICKS_PER_S: f64 = 100.0;

/// Resets this process's `VmHWM` to its current resident size, so the
/// next [`peak_rss_mb`] reads the peak since now (a no-op where
/// `/proc/self/clear_refs` is unavailable).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process, MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (`cutime + cstime` in `/proc/self/stat`) of the children
/// this process has waited for.
pub fn children_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces;
    // `rest` starts at field 3 (state), cutime and cstime are 16 and 17.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0.0))
        .collect();
    (f.get(16 - 3).copied().unwrap_or(0.0) + f.get(17 - 3).copied().unwrap_or(0.0)) / TICKS_PER_S
}

/// Host-wide CPU tick counters from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostTicks {
    steal: u64,
    busy: u64,
    total: u64,
}

impl HostTicks {
    /// Reads the host's counters.
    pub fn now() -> HostTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(cpu) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return HostTicks::default();
        };
        HostTicks::parse(cpu)
    }

    /// Parses a `cpu  user nice system idle iowait irq softirq steal ...`
    /// line. Guest time is already inside user, so the counts stop at
    /// steal.
    fn parse(line: &str) -> HostTicks {
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .map(|x| x.parse().unwrap_or(0))
            .collect();
        let at = |i: usize| v.get(i).copied().unwrap_or(0);
        HostTicks {
            steal: at(7),
            busy: at(0) + at(1) + at(2) + at(5) + at(6),
            total: v.iter().take(8).sum(),
        }
    }

    /// The share of all host CPU time stolen by the hypervisor since
    /// `earlier` (a diagnostic).
    pub fn steal_share_since(&self, earlier: &HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }

    /// The share of the time vCPUs wanted to run since `earlier` that the
    /// hypervisor stole: steal over steal plus busy ticks. Idle and
    /// I/O-wait ticks are left out, so a vCPU this benchmark left idle
    /// does not dilute the share, and a busy one counts fully.
    pub fn busy_steal_share_since(&self, earlier: &HostTicks) -> f64 {
        let steal = self.steal.saturating_sub(earlier.steal);
        let wanted = steal + self.busy.saturating_sub(earlier.busy);
        if wanted == 0 {
            return 0.0;
        }
        steal as f64 / wanted as f64
    }
}

/// `struct timespec` of the C library on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points at a live, properly aligned `Timespec` whose
    // layout matches the C struct on 64-bit Linux; both clock ids exist
    // on every Linux since 2.6.12.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds of every thread of this process, live and exited
/// (nanosecond resolution; stolen time excluded).
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds of the calling thread.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// How long one pass took.
#[derive(Clone, Copy, Debug, Default)]
pub struct Elapsed {
    /// Wall seconds.
    pub wall_s: f64,
    /// CPU seconds of this process plus the children it reaped.
    pub cpu_s: f64,
    /// Wall seconds minus the share the hypervisor stole
    /// ([`HostTicks::busy_steal_share_since`]).
    pub unstolen_s: f64,
}

/// Times one pass: wall, CPU (this process plus the children it reaped)
/// and unstolen wall time between [`PassClock::start`] and
/// [`PassClock::stop`].
#[derive(Clone, Copy, Debug)]
pub struct PassClock {
    wall: std::time::Instant,
    cpu: f64,
    host: HostTicks,
}

impl PassClock {
    /// Starts the clocks.
    pub fn start() -> PassClock {
        PassClock {
            wall: std::time::Instant::now(),
            cpu: process_cpu_s() + children_cpu_s(),
            host: HostTicks::now(),
        }
    }

    /// The time since [`PassClock::start`].
    pub fn stop(&self) -> Elapsed {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let stolen = HostTicks::now().busy_steal_share_since(&self.host);
        Elapsed {
            wall_s,
            cpu_s: process_cpu_s() + children_cpu_s() - self.cpu,
            unstolen_s: wall_s * (1.0 - stolen),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_a_share_of_the_time_vcpus_wanted_to_run() {
        // user nice system idle iowait irq softirq steal guest guest_nice
        let a = HostTicks::parse("cpu  100 0 20 500 5 0 0 10 0 0");
        // 80 busy and 20 stolen ticks later, with 100 idle ones: a fifth
        // of the wanted time was stolen, a tenth of all time.
        let b = HostTicks::parse("cpu  170 0 30 600 5 0 0 30 0 0");
        assert!((b.busy_steal_share_since(&a) - 0.2).abs() < 1e-12);
        assert!((b.steal_share_since(&a) - 0.1).abs() < 1e-12);
        assert_eq!(a.busy_steal_share_since(&a), 0.0);
    }
}
