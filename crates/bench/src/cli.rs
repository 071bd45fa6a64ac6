//! The `reproduce` command line, as a typed parser.
//!
//! The binary's surface is five subcommands —
//!
//! * `run [ids…] [flags]` — batch reproduction of tables/figures,
//! * `serve [flags]` — the always-on measurement service ([`crate::service`]),
//! * `worker` — the fabric's worker entry point (spawned, never typed),
//! * `snapshot <path>` — inspect a snapshot file or shard directory,
//! * `faults [flags]` — the fault-robustness sweep,
//!
//! plus `print-config`. An empty invocation runs everything. Parsing is
//! pure (`&[String] → Result<Command, String>`): no process exit, no env
//! reads, no printing — the binary maps `Err` (including an unknown
//! subcommand) to [`ExitCode::Config`](s2s_types::ExitCode::Config).

use std::path::PathBuf;

/// Flags shared by the batch subcommands (`run`, `faults`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunArgs {
    /// Experiment ids to run (empty = all). Validated against the
    /// experiment table by the binary, not the parser.
    pub ids: Vec<String>,
    /// `--metrics-json <path>`: write the registry snapshot there.
    pub metrics_json: Option<String>,
    /// `--threads <n>`: overrides `S2S_THREADS`.
    pub threads: Option<usize>,
    /// `--workers <n>`: collect through the scale-out fabric.
    pub workers: Option<usize>,
    /// `--snapshot <path>`: columnar persistence (write, or reopen if it
    /// exists).
    pub snapshot: Option<PathBuf>,
}

/// Flags of the `serve` subcommand.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeArgs {
    /// `--epochs <n>`: advance at most this many epochs (default: the
    /// whole schedule) — makes scripted smoke runs and kill drills cheap.
    pub epochs: Option<usize>,
    /// `--metrics-json <path>`: write the registry snapshot on shutdown.
    pub metrics_json: Option<String>,
    /// `--threads <n>`: overrides `S2S_THREADS`.
    pub threads: Option<usize>,
    /// `--snapshot <path>`: checkpoint path (resumes if it exists).
    pub snapshot: Option<PathBuf>,
}

/// One parsed `reproduce` invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Batch reproduction (`run`, or an empty invocation).
    Run(RunArgs),
    /// The always-on measurement daemon.
    Serve(ServeArgs),
    /// Fabric worker mode — dispatched before anything prints.
    Worker,
    /// Inspect a snapshot file or shard directory.
    Snapshot(PathBuf),
    /// The fault-robustness sweep (`run faults` with a door of its own).
    Faults(RunArgs),
    /// Dump every resolved `S2S_*` knob and exit.
    PrintConfig,
}

fn flag_value(flag: &str, it: &mut std::slice::Iter<'_, String>) -> Result<String, String> {
    it.next().cloned().ok_or_else(|| format!("{flag} needs an argument"))
}

fn flag_count(flag: &str, it: &mut std::slice::Iter<'_, String>) -> Result<usize, String> {
    let v = flag_value(flag, it)?;
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("{flag} needs a positive integer, got '{v}'")),
    }
}

/// Parses the flags shared by `run`/`faults`; `allow_ids` rejects bare
/// (non-flag) arguments for subcommands that take none.
fn parse_run(args: &[String], allow_ids: bool) -> Result<RunArgs, String> {
    let mut out = RunArgs::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--metrics-json" => out.metrics_json = Some(flag_value(a, &mut it)?),
            "--threads" => out.threads = Some(flag_count(a, &mut it)?),
            "--workers" => out.workers = Some(flag_count(a, &mut it)?),
            "--snapshot" => out.snapshot = Some(PathBuf::from(flag_value(a, &mut it)?)),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag '{other}'"));
            }
            other if allow_ids => out.ids.push(other.to_string()),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    Ok(out)
}

fn parse_serve(args: &[String]) -> Result<ServeArgs, String> {
    let mut out = ServeArgs::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--epochs" => out.epochs = Some(flag_count(a, &mut it)?),
            "--metrics-json" => out.metrics_json = Some(flag_value(a, &mut it)?),
            "--threads" => out.threads = Some(flag_count(a, &mut it)?),
            "--snapshot" => out.snapshot = Some(PathBuf::from(flag_value(a, &mut it)?)),
            other => return Err(format!("unknown serve argument '{other}'")),
        }
    }
    Ok(out)
}

/// Parses one invocation (`argv[1..]`).
pub fn parse(args: &[String]) -> Result<Command, String> {
    Ok(match args.first().map(String::as_str) {
        None => Command::Run(RunArgs::default()),
        Some("run") => Command::Run(parse_run(&args[1..], true)?),
        Some("serve") => Command::Serve(parse_serve(&args[1..])?),
        Some("worker") => {
            if args.len() > 1 {
                return Err(format!("worker takes no arguments, got '{}'", args[1]));
            }
            Command::Worker
        }
        Some("snapshot") => {
            let [path] = &args[1..] else {
                return Err("snapshot needs exactly one path argument".to_string());
            };
            Command::Snapshot(PathBuf::from(path))
        }
        Some("faults") => Command::Faults(parse_run(&args[1..], false)?),
        Some("print-config") => {
            if args.len() > 1 {
                return Err(format!("print-config takes no arguments, got '{}'", args[1]));
            }
            Command::PrintConfig
        }
        Some(other) => {
            return Err(format!(
                "unknown command '{other}' (expected run, serve, worker, snapshot, faults \
                 or print-config)"
            ));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn run_subcommand_parses_ids_and_flags() {
        let p = parse(&argv("run fig4 fig6 --threads 2 --snapshot /tmp/x.snap")).unwrap();
        let Command::Run(a) = p else { panic!("not run") };
        assert_eq!(a.ids, vec!["fig4", "fig6"]);
        assert_eq!(a.threads, Some(2));
        assert_eq!(a.snapshot, Some(PathBuf::from("/tmp/x.snap")));
        assert_eq!(a.workers, None);
        let Command::Run(a) = parse(&argv("run fig4 --workers 3 --metrics-json m.json")).unwrap()
        else {
            panic!("not run")
        };
        assert_eq!(a.workers, Some(3));
        assert_eq!(a.metrics_json.as_deref(), Some("m.json"));
    }

    #[test]
    fn empty_invocation_is_a_clean_run_of_everything() {
        assert_eq!(parse(&[]).unwrap(), Command::Run(RunArgs::default()));
    }

    #[test]
    fn serve_parses_its_flags() {
        let p = parse(&argv("serve --epochs 12 --snapshot /tmp/s.snap --threads 4")).unwrap();
        let Command::Serve(a) = p else { panic!("not serve") };
        assert_eq!(a.epochs, Some(12));
        assert_eq!(a.snapshot, Some(PathBuf::from("/tmp/s.snap")));
        assert_eq!(a.threads, Some(4));
        assert!(parse(&argv("serve fig4")).is_err(), "serve takes no ids");
        assert!(parse(&argv("serve --epochs 0")).is_err(), "epochs must be >= 1");
    }

    #[test]
    fn worker_snapshot_and_faults_parse() {
        assert_eq!(parse(&argv("worker")).unwrap(), Command::Worker);
        assert!(parse(&argv("worker extra")).is_err());
        assert_eq!(
            parse(&argv("snapshot /tmp/x.snap")).unwrap(),
            Command::Snapshot(PathBuf::from("/tmp/x.snap"))
        );
        assert!(parse(&argv("snapshot")).is_err(), "snapshot needs a path");
        assert!(parse(&argv("snapshot a b")).is_err(), "exactly one path");
        let Command::Faults(a) = parse(&argv("faults --threads 2")).unwrap() else {
            panic!("not faults")
        };
        assert_eq!(a.threads, Some(2));
        assert!(parse(&argv("faults fig4")).is_err(), "faults takes no ids");
        assert_eq!(parse(&argv("print-config")).unwrap(), Command::PrintConfig);
    }

    #[test]
    fn malformed_flags_are_config_errors() {
        for bad in [
            "run --threads",
            "run --threads 0",
            "run --threads x",
            "run --workers -1",
            "run --metrics-json",
            "run --snapshot",
            "run --bogus",
            "--frobnicate",
            "--print-config",
            "table1 --workers 4",
            "print-config extra",
        ] {
            assert!(parse(&argv(bad)).is_err(), "'{bad}' must not parse");
        }
    }
}
