//! Process exit codes shared by every s2s binary.
//!
//! `reproduce`, the fabric worker subprocesses, and the measurement
//! service all exit through this one table instead of scattering integer
//! literals — a coordinator reaping a worker, a CI script grepping a
//! smoke run, and a human reading `$?` all decode the same vocabulary.
//! The numeric values are frozen (they are an on-the-wire contract with
//! `ci.sh` and the fabric's worker reaper); new conditions append new
//! codes rather than reusing old ones. Code 1 is deliberately unassigned:
//! it is what a Rust panic or an `abort` produces, and keeping it out of
//! the table means "1" always reads as *crashed*, never as a deliberate
//! verdict.

use std::fmt;

/// The exit-code vocabulary of the s2s binaries.
///
/// | code | variant | meaning |
/// |-----:|---------|---------|
/// | 0 | [`Ok`](ExitCode::Ok) | completed cleanly |
/// | 2 | [`Config`](ExitCode::Config) | bad configuration: unknown flag, malformed value, unusable environment |
/// | 3 | [`Campaign`](ExitCode::Campaign) | the measurement campaign itself failed (worker crash budget exhausted, unrecoverable shard) |
/// | 4 | [`Degraded`](ExitCode::Degraded) | completed, but under a degraded measurement plane (lost slots; results carry gaps) |
/// | 5 | [`Service`](ExitCode::Service) | the always-on service failed at runtime: snapshot flush or resume error, broken query transport |
/// | 6 | [`Query`](ExitCode::Query) | the scripted query batch could not be honored (query budget exhausted) |
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(i32)]
pub enum ExitCode {
    /// Completed cleanly.
    Ok = 0,
    /// Bad configuration: unknown flag, malformed value, unusable
    /// environment.
    Config = 2,
    /// The measurement campaign failed (crash budget exhausted,
    /// unrecoverable shard).
    Campaign = 3,
    /// Completed, but under a degraded measurement plane — results carry
    /// gaps the caller should account for.
    Degraded = 4,
    /// The always-on service failed at runtime (snapshot flush or resume
    /// error, broken query transport).
    Service = 5,
    /// A scripted query batch could not be honored: the per-run query
    /// budget (4096 queries for `reproduce serve`) ran out before the
    /// script did.
    Query = 6,
}

impl ExitCode {
    /// The numeric process exit code.
    pub const fn code(self) -> i32 {
        self as i32
    }

    /// Decodes a raw process exit code back into the table. `None` for
    /// codes outside the vocabulary (including 1, the panic code).
    pub fn from_code(code: i32) -> Option<ExitCode> {
        match code {
            0 => Some(ExitCode::Ok),
            2 => Some(ExitCode::Config),
            3 => Some(ExitCode::Campaign),
            4 => Some(ExitCode::Degraded),
            5 => Some(ExitCode::Service),
            6 => Some(ExitCode::Query),
            _ => None,
        }
    }

    /// One-line human description (what `--help` and error paths print).
    pub const fn describe(self) -> &'static str {
        match self {
            ExitCode::Ok => "completed cleanly",
            ExitCode::Config => "bad configuration",
            ExitCode::Campaign => "measurement campaign failed",
            ExitCode::Degraded => "completed under a degraded measurement plane",
            ExitCode::Service => "measurement service failed at runtime",
            ExitCode::Query => "query budget exhausted",
        }
    }

    /// Terminates the process with this code.
    pub fn exit(self) -> ! {
        std::process::exit(self.code())
    }
}

impl fmt::Display for ExitCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.code(), self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: &[ExitCode] = &[
        ExitCode::Ok,
        ExitCode::Config,
        ExitCode::Campaign,
        ExitCode::Degraded,
        ExitCode::Service,
        ExitCode::Query,
    ];

    #[test]
    fn codes_are_frozen() {
        assert_eq!(ExitCode::Ok.code(), 0);
        assert_eq!(ExitCode::Config.code(), 2);
        assert_eq!(ExitCode::Campaign.code(), 3);
        assert_eq!(ExitCode::Degraded.code(), 4);
        assert_eq!(ExitCode::Service.code(), 5);
        assert_eq!(ExitCode::Query.code(), 6);
    }

    #[test]
    fn round_trips_through_from_code() {
        for &c in ALL {
            assert_eq!(ExitCode::from_code(c.code()), Some(c));
        }
    }

    #[test]
    fn panic_code_and_strays_decode_to_none() {
        // 1 is reserved for panics/aborts; never a deliberate verdict.
        assert_eq!(ExitCode::from_code(1), None);
        assert_eq!(ExitCode::from_code(7), None);
        assert_eq!(ExitCode::from_code(-1), None);
        assert_eq!(ExitCode::from_code(255), None);
    }

    #[test]
    fn display_carries_code_and_description() {
        let s = ExitCode::Degraded.to_string();
        assert!(s.starts_with("4 ("), "{s}");
        assert!(s.contains("degraded"), "{s}");
        for &c in ALL {
            assert!(!c.describe().is_empty());
        }
    }
}
