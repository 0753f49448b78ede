//! The PARMONC repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each workload (see [`workload`]) runs
//! the paper's 1000×2 diffusion on m = 2 ranks through the public
//! `Parmonc` API in a child process of its own (see [`child`]), and
//! every run's output is checked against a serial recomputation (see
//! [`check`]).
//!
//! * `--trace 0` times untraced runs for `--seconds` and reports the
//!   end-to-end metrics: throughput, CPU per realization, set-up time
//!   and peak RSS (medians), with failed runs counted.
//! * `--trace 1` reports the per-layer ledger: off-path probes of each
//!   layer ([`probes`]), then alternating untraced and traced runs
//!   whose spans are read back into a ledger ([`ledger`]).
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! are a readable table of the same numbers. Exit code 0 means the
//! benchmark completed; `correct` says whether every run passed its
//! output check. Scratch files go to `perfbench/work/` and are removed.

mod check;
mod child;
mod ledger;
mod probes;
mod sys;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use check::{Expected, Tally};
use child::RunSpec;
use workload::{find, seqnum_for, Workload, PROCESSORS, WORKER_ARG};

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 4] = [
    ("realizations_per_s", "1/s"),
    ("cpu_us_per_realization", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name, unit, and whether the value
/// comes from the traced runs (and so carries the tracing overhead).
const PER_LAYER: [(&str, &str, bool); 44] = [
    ("rng.next_stream_ns", "ns", false),
    ("rng.standard_normal_ns", "ns", false),
    ("rng.fill_f64_ns_per_draw", "ns", false),
    ("sde.realize_us.stride1", "us", false),
    ("sde.realize_us.stride40", "us", false),
    ("stats.add_us", "us", false),
    ("stats.merge_us", "us", false),
    ("messages.encode_us", "us", false),
    ("messages.decode_us", "us", false),
    ("messages.batch_encode_us", "us", false),
    ("messages.batch_decode_us", "us", false),
    ("mpi.send_recv_us", "us", false),
    ("ipc.frame_write_us", "us", false),
    ("ipc.frame_read_us", "us", false),
    ("ipc.tcp_rtt_us", "us", false),
    ("ipc.unix_rtt_us", "us", false),
    ("files.save_worker_state_us", "us", false),
    ("files.save_checkpoint_us", "us", false),
    ("files.save_results_us", "us", false),
    ("runner.user_routine_us", "us", true),
    ("runner.send_us", "us", true),
    ("runner.collector_merge_us", "us", true),
    ("runner.checkpoint_us", "us", true),
    ("runner.collector.computing_share", "ratio", true),
    ("runner.collector.receiving_share", "ratio", true),
    ("runner.collector.saving_share", "ratio", true),
    ("runner.collector.waiting_share", "ratio", true),
    ("runner.saturation_tau_us", "us", true),
    ("runner.ledger.user_routine_share", "ratio", true),
    ("runner.ledger.loop_share", "ratio", true),
    ("runner.ledger.send_share", "ratio", true),
    ("runner.ledger.checkpoint_share", "ratio", true),
    ("runner.ledger.collector_share", "ratio", true),
    ("runner.ledger.waiting_share", "ratio", true),
    ("runner.unattributed_share", "ratio", true),
    ("runner.overhead_ns_per_realization", "ns", false),
    ("runner.parallel_efficiency", "ratio", false),
    ("obs.trace_overhead_pct", "%", false),
    ("obs.events_per_realization", "count", true),
    ("ipc.frames_per_realization", "count", true),
    ("ipc.torn_frames", "count", true),
    ("ipc.reconnect_dials", "count", true),
    ("simcluster.prediction_error_pct", "%", false),
    ("failed_share", "ratio", false),
];

/// Fewest set-up runs (one realization per rank each) behind `setup_s`,
/// their median.
const MIN_SETUP_RUNS: usize = 7;

/// Set-up runs made per second of timed run, so that workloads with
/// long runs still sample set-up often.
const SETUP_RUNS_PER_SECOND: f64 = 5.0;

/// An invocation stops early once more runs than this have failed.
const MAX_FAILED: u64 = 3;

/// A run taking longer than this is declared hung.
const HANG_LIMIT: Duration = Duration::from_secs(20);

/// Share of `--seconds` the off-path probes get in a `--trace 1` run.
const PROBE_SHARE: f64 = 0.3;

/// Parsed command line.
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag.as_str(),
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        values.insert(key, value);
    }
    let get = |key: &str| {
        values
            .get(key)
            .copied()
            .ok_or_else(|| format!("missing {key}"))
    };
    let number = |key: &str| get(key)?.parse::<u64>().map_err(|e| format!("{key}: {e}"));
    let name = get("--workload")?;
    Ok(Args {
        workload: find(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

/// Median of `values` (sorted in place); 0 when empty.
fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of `values` (sorted in place); 0 when empty.
fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// The highest percentile with at least ten samples beyond it, as a
/// whole percent, or `None` below twenty samples.
fn tail_percentile(samples: usize) -> Option<u32> {
    if samples < 20 {
        return None;
    }
    let p = (100.0 * (1.0 - 10.0 / samples as f64)).floor() as u32;
    Some(p.min(99))
}

/// Scratch space of one invocation.
struct Work {
    root: PathBuf,
    runs: u64,
}

impl Work {
    fn new() -> Result<Self, String> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        let tmp = root.join("tmp");
        std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
        // The process backend puts its Unix socket under the temp dir;
        // keep it inside the work dir, by a relative path when the
        // absolute one would crowd the 108-byte socket path limit.
        let tmp = match std::env::current_dir()
            .ok()
            .and_then(|cwd| tmp.strip_prefix(cwd).ok().map(Path::to_path_buf))
        {
            Some(rel) if tmp.as_os_str().len() > 56 => rel,
            _ => tmp,
        };
        std::env::set_var("TMPDIR", &tmp);
        Ok(Self { root, runs: 0 })
    }

    /// A fresh directory for the next run.
    fn next_dir(&mut self) -> PathBuf {
        self.runs += 1;
        self.root.join(format!("run-{}", self.runs))
    }
}

impl Drop for Work {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Remove the shared parent too once no invocation is using it.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One invocation's runs: where they go and how many failed.
struct Session<'a> {
    workload: &'static Workload,
    seqnum: u64,
    work: &'a mut Work,
    tally: Tally,
}

impl Session<'_> {
    /// Runs once in a child process, counts the outcome (a failed run
    /// is counted, never retried), and returns the child's numbers.
    fn attempt(
        &mut self,
        what: &str,
        volume: u64,
        traced: bool,
        expected: &Expected,
    ) -> Option<BTreeMap<String, f64>> {
        let dir = self.work.next_dir();
        let spec = RunSpec {
            workload: self.workload,
            volume,
            seqnum: self.seqnum,
            traced,
            expected,
            dir: &dir,
        };
        let outcome = child::spawn_run(&spec, HANG_LIMIT);
        let _ = std::fs::remove_dir_all(&dir);
        self.tally.record(what, outcome)
    }

    fn expected(&self, volume: u64) -> Result<Expected, String> {
        check::expected(self.workload, volume, self.seqnum, &self.work.root)
    }
}

/// Formats a metrics object for the result line.
fn json_metrics(metrics: &[(&str, &str, f64)]) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    Ok(out)
}

fn result_line(tally: &Tally, metrics: &[(&str, &str, f64)]) -> Result<String, String> {
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        json_metrics(metrics)?
    ))
}

/// `--trace 0`: set-up runs, then timed runs for `seconds`.
fn end_to_end(
    args: &Args,
    session: &mut Session<'_>,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let w = args.workload;

    let setup_volume = PROCESSORS as u64;
    let setup_expected = session.expected(setup_volume)?;
    let expected = session.expected(w.volume)?;
    session.attempt("warm-up run", w.volume, false, &expected);

    // Set-up runs are interleaved with the timed runs, so both sample
    // the same stretch of machine time.
    let mut setup = Vec::new();
    let mut rate = Vec::new();
    let mut cpu_us = Vec::new();
    let mut rss = Vec::new();
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut setup_runs = 1;
    let mut k = 0;
    while started.elapsed() < budget || setup.len() < MIN_SETUP_RUNS {
        k += 1;
        for _ in 0..setup_runs {
            let what = format!("set-up run {}", setup.len() + 1);
            if let Some(f) = session.attempt(&what, setup_volume, false, &setup_expected) {
                setup.push(f["wall_s"]);
            }
        }
        if let Some(f) = session.attempt(&format!("timed run {k}"), w.volume, false, &expected) {
            let volume = w.volume as f64;
            rate.push(volume / f["wall_s"]);
            cpu_us.push(1e6 * f["cpu_s"] / volume);
            rss.push(f["rss_mib"]);
            setup_runs = (SETUP_RUNS_PER_SECOND * f["wall_s"]).round().max(1.0) as usize;
        }
        if session.tally.failed > MAX_FAILED {
            return Err(format!("more than {MAX_FAILED} failed runs"));
        }
    }

    println!(
        "workload {}  seed {}  seqnum {}  m {}  volume {}  estimate digest {:016x}",
        w.name, args.seed, session.seqnum, PROCESSORS, w.volume, expected.digest
    );
    let n = rate.len();
    let tail = tail_percentile(n);
    let tail_label = tail.map_or_else(
        || "tail n/a (n<20)".to_string(),
        |p| format!("p{p} (worse side)"),
    );
    println!(
        "{:<24} {:>14} {:>16}  {:>6}  {:>5}",
        "metric", "median", tail_label, "unit", "n"
    );
    let worse = |values: &mut Vec<f64>, higher_is_better: bool| {
        tail.map(|p| {
            let q = f64::from(p) / 100.0;
            quantile(values, if higher_is_better { 1.0 - q } else { q })
        })
    };
    let tally = &session.tally;
    let rows = [
        (
            "realizations_per_s",
            median(&mut rate.clone()),
            worse(&mut rate, true),
            "1/s",
            n,
        ),
        (
            "cpu_us_per_realization",
            median(&mut cpu_us.clone()),
            worse(&mut cpu_us, false),
            "us",
            n,
        ),
        ("setup_s", median(&mut setup), None, "s", setup.len()),
        (
            "peak_rss_mib",
            median(&mut rss.clone()),
            worse(&mut rss, false),
            "MiB",
            n,
        ),
        (
            "failed_share",
            tally.failed_share(),
            None,
            "ratio",
            tally.attempted as usize,
        ),
    ];
    for (name, mid, tail, unit, n) in &rows {
        let tail = tail.map_or_else(|| "-".to_string(), |t| format!("{t:.6}"));
        println!("{name:<24} {mid:>14.6} {tail:>16}  {unit:>6}  {n:>5}");
    }
    if n == 0 {
        return Err("no timed run passed".into());
    }
    Ok(END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let value = rows
                .iter()
                .find(|r| r.0 == name)
                .map(|r| r.1)
                .expect("every end-to-end metric has a row");
            (name, unit, value)
        })
        .collect())
}

/// `--trace 1`: probes, then alternating untraced and traced runs.
fn per_layer(
    args: &Args,
    session: &mut Session<'_>,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();

    let probe_dir = session.work.root.join("probes");
    let probes: BTreeMap<&'static str, f64> =
        probes::run_all(budget.mul_f64(PROBE_SHARE), &probe_dir)?
            .into_iter()
            .collect();

    let expected = session.expected(w.volume)?;
    session.attempt("warm-up run", w.volume, false, &expected);

    let mut untraced_wall = Vec::new();
    let mut untraced_tau = Vec::new();
    let mut traced_runs: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut pair = 0;
    while started.elapsed() < budget || traced_runs.is_empty() || untraced_wall.is_empty() {
        pair += 1;
        // Alternate which side of the pair runs first.
        let order = if pair % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for traced in order {
            let what = format!("{} run {pair}", if traced { "traced" } else { "untraced" });
            match session.attempt(&what, w.volume, traced, &expected) {
                Some(f) if traced => traced_runs.push(f),
                Some(f) => {
                    untraced_wall.push(f["wall_s"]);
                    untraced_tau.push(f["tau_s"]);
                }
                None if session.tally.failed > MAX_FAILED => {
                    return Err(format!("more than {MAX_FAILED} failed runs"))
                }
                None => {}
            }
        }
    }

    let volume = w.volume as f64;
    let m = PROCESSORS as f64;
    let wall = median(&mut untraced_wall);
    let tau = median(&mut untraced_tau);
    let traced_wall = median(&mut traced_runs.iter().map(|f| f["wall_s"]).collect::<Vec<_>>());
    let predicted = ledger::predict_wall(w, w.volume, tau, &probes);
    let mut values: BTreeMap<&'static str, f64> = probes.clone();
    for (name, _, _) in PER_LAYER {
        let mut samples: Vec<f64> = traced_runs
            .iter()
            .filter_map(|f| f.get(name).copied())
            .collect();
        if !samples.is_empty() {
            values.insert(name, median(&mut samples));
        }
    }
    values.insert(
        "runner.overhead_ns_per_realization",
        1e9 * (m * wall / volume - tau),
    );
    values.insert("runner.parallel_efficiency", tau * volume / (m * wall));
    values.insert("obs.trace_overhead_pct", 100.0 * (traced_wall / wall - 1.0));
    values.insert(
        "simcluster.prediction_error_pct",
        100.0 * (predicted - wall).abs() / wall,
    );
    values.insert("failed_share", session.tally.failed_share());

    println!(
        "workload {}  seed {}  seqnum {}  m {}  volume {}  estimate digest {:016x}",
        w.name, args.seed, session.seqnum, PROCESSORS, w.volume, expected.digest
    );
    println!(
        "untraced wall median {wall:.6} s over {} runs; traced wall median {traced_wall:.6} s \
         over {} runs; simcluster predicts {predicted:.6} s",
        untraced_wall.len(),
        traced_runs.len()
    );
    // The median traced run's ledger, in rank-seconds: its rows close
    // to m x its wall.
    traced_runs.sort_by(|a, b| a["wall_s"].total_cmp(&b["wall_s"]));
    let run = &traced_runs[traced_runs.len() / 2];
    let total = m * run["wall_s"];
    println!("ledger of the median traced run (TRACED: inflated by obs.trace_overhead_pct), m x wall = {total:.6} rank-s");
    let mut closure = 0.0;
    for label in ledger::LEDGER_ROWS {
        let seconds = run[&format!("ledger.{label}")];
        closure += seconds;
        println!(
            "  {label:<14} {seconds:>12.6} rank-s  {:>7.2}%",
            100.0 * seconds / total
        );
    }
    println!(
        "  {:<14} {closure:>12.6} rank-s  (closes to m x wall)",
        "sum"
    );
    println!("{:<40} {:>16}  unit", "per-layer metric", "value");
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for (name, unit, traced) in PER_LAYER {
        let value = *values
            .get(name)
            .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
        let label = if traced { " (traced)" } else { "" };
        println!("{name:<40} {value:>16.6}  {unit}{label}");
        metrics.push((name, unit, value));
    }
    Ok(metrics)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(at) = argv.iter().position(|a| a == WORKER_ARG) {
        workload::worker_main(&argv[at + 1..]);
    }
    if argv.first().map(String::as_str) == Some(child::RUN_ARG) {
        child::child_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut work = match Work::new() {
        Ok(work) => work,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let mut session = Session {
        workload: args.workload,
        seqnum: seqnum_for(args.seed),
        work: &mut work,
        tally: Tally::default(),
    };
    let metrics = if args.trace {
        per_layer(&args, &mut session)
    } else {
        end_to_end(&args, &mut session)
    };
    let tally = session.tally;
    drop(work);
    match metrics.and_then(|m| result_line(&tally, &m)) {
        Ok(line) => {
            if let Some(failure) = &tally.first_failure {
                println!(
                    "FAILED {} of {} runs; first: {failure}",
                    tally.failed, tally.attempted
                );
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the
    /// workloads and metrics this binary reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let mentions = |name: &str, unit: &str| {
            text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for w in &workload::WORKLOADS {
            assert!(
                text.contains(&format!("\"name\": \"{}\"", w.name)),
                "{}",
                w.name
            );
        }
        let per_layer = PER_LAYER.iter().map(|&(name, unit, _)| (name, unit));
        for (name, unit) in END_TO_END.iter().copied().chain(per_layer) {
            assert!(
                mentions(name, unit),
                "{name} [{unit}] missing from BENCHMARK.json"
            );
        }
        let declared = text.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn quantiles_and_tail() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(100), Some(90));
    }

    #[test]
    fn arguments_are_validated() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&argv(
            "--workload strict_tcp --seed 3 --seconds 5 --trace 1"
        ))
        .is_ok());
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 5 --trace 1")).is_err());
        assert!(parse_args(&argv(
            "--workload strict_tcp --seed 3 --seconds 5 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload strict_tcp --seed 3 --seconds 5")).is_err());
    }
}
