//! One run per child process.
//!
//! The benchmark re-executes its own binary for every run, so each run
//! gets a fresh process hosting rank 0: its peak RSS is that run's own,
//! and a run that hangs is killed and counted as failed instead of
//! stalling the benchmark. The child runs, checks its output and
//! prints one line of `name=value` numbers; the parent aggregates.

use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::check::{self, Expected};
use crate::ledger;
use crate::sys;
use crate::workload::{find, Workload};

/// The argument that makes the binary run one run and report it.
pub const RUN_ARG: &str = "--perfbench-run";

/// Prefix of the child's result line.
const RESULT_PREFIX: &str = "perfbench-run";

/// Everything a child needs to run and check one run.
#[derive(Debug)]
pub struct RunSpec<'a> {
    /// The workload.
    pub workload: &'static Workload,
    /// Realizations to simulate.
    pub volume: u64,
    /// Experiment subsequence.
    pub seqnum: u64,
    /// Whether the run is traced (`.monitor().trace_spans()`).
    pub traced: bool,
    /// What the output must be.
    pub expected: &'a Expected,
    /// Results directory (must not exist yet).
    pub dir: &'a Path,
}

impl RunSpec<'_> {
    fn to_args(&self) -> Vec<String> {
        let quotas: Vec<String> = self.expected.quotas.iter().map(u64::to_string).collect();
        vec![
            RUN_ARG.to_string(),
            self.workload.name.to_string(),
            self.volume.to_string(),
            self.seqnum.to_string(),
            u8::from(self.traced).to_string(),
            format!("{:016x}", self.expected.digest),
            quotas.join(","),
            self.dir.display().to_string(),
        ]
    }
}

/// Runs `spec` in a child process, killing it after `hang_limit`.
/// Returns the child's numbers by name.
///
/// # Errors
///
/// The run failed, failed its check, or hung.
pub fn spawn_run(
    spec: &RunSpec<'_>,
    hang_limit: Duration,
) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut child = Command::new(exe)
        .args(spec.to_args())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning the run: {e}"))?;
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            break status;
        }
        if started.elapsed() > hang_limit {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("hung for more than {hang_limit:?}; killed"));
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    let mut stdout = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        pipe.read_to_string(&mut stdout)
            .map_err(|e| e.to_string())?;
    }
    let line = stdout
        .lines()
        .find(|l| l.starts_with(RESULT_PREFIX))
        .ok_or_else(|| format!("exited with {status} and no result"))?;
    let mut fields = line.split_whitespace().skip(1);
    match fields.next() {
        Some("ok") => fields
            .map(|kv| {
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("bad field {kv:?}"))?;
                let v: f64 = v.parse().map_err(|e| format!("field {k}: {e}"))?;
                Ok((k.to_string(), v))
            })
            .collect(),
        _ => Err(line
            .trim_start_matches(RESULT_PREFIX)
            .trim_start()
            .trim_start_matches("failed")
            .trim()
            .to_string()),
    }
}

/// Entry point of a run child: `args` are what follows [`RUN_ARG`].
pub fn child_main(args: &[String]) -> ! {
    let outcome = parse(args).and_then(|(workload, volume, seqnum, traced, expected, dir)| {
        execute(workload, volume, seqnum, traced, &expected, &dir)
    });
    match outcome {
        Ok(fields) => {
            let mut line = format!("{RESULT_PREFIX} ok");
            for (k, v) in fields {
                line.push_str(&format!(" {k}={v}"));
            }
            println!("{line}");
            std::process::exit(0);
        }
        Err(e) => {
            println!("{RESULT_PREFIX} failed {}", e.replace('\n', " "));
            std::process::exit(1);
        }
    }
}

type Parsed = (&'static Workload, u64, u64, bool, Expected, PathBuf);

fn parse(args: &[String]) -> Result<Parsed, String> {
    let [name, volume, seqnum, traced, digest, quotas, dir] = args else {
        return Err(format!("malformed run arguments {args:?}"));
    };
    let number = |s: &str| s.parse::<u64>().map_err(|e| format!("{s:?}: {e}"));
    let volume = number(volume)?;
    Ok((
        find(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
        volume,
        number(seqnum)?,
        traced == "1",
        Expected {
            volume,
            quotas: quotas.split(',').map(number).collect::<Result<_, _>>()?,
            digest: u64::from_str_radix(digest, 16).map_err(|e| format!("{digest:?}: {e}"))?,
        },
        PathBuf::from(dir),
    ))
}

fn execute(
    workload: &Workload,
    volume: u64,
    seqnum: u64,
    traced: bool,
    expected: &Expected,
    dir: &Path,
) -> Result<Vec<(String, f64)>, String> {
    let run = workload.execute(volume, seqnum, dir, traced)?;
    check::check_run(workload, &run, expected)?;
    let wall = run.wall.as_secs_f64();
    let mut fields = vec![
        ("wall_s".to_string(), wall),
        ("cpu_s".to_string(), run.cpu.as_secs_f64()),
        ("rss_mib".to_string(), sys::peak_rss_mib()),
        ("tau_s".to_string(), run.report.mean_time_per_realization),
    ];
    if traced {
        let spans = ledger::read_spans(&run.report.results_dir.run_metrics_path())?;
        for (label, seconds) in ledger::ledger(&run.report, wall, &spans).rows() {
            fields.push((format!("ledger.{label}"), seconds));
        }
        for (name, value) in ledger::traced_metrics(&run.report, wall, &spans) {
            fields.push((name.to_string(), value));
        }
    }
    Ok(fields)
}
