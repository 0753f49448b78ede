//! The output check every run must pass.
//!
//! A parallel estimate can drift silently from a serial one
//! (Lubachevsky), so each run is compared with a serial recomputation
//! of the same realizations done here, outside the runtime:
//!
//! * the run's `new_volume` and per-rank volumes equal the quotas;
//! * no rank was lost;
//! * `func.dat` hashes to the same digest as the serial estimate, so
//!   repetitions of a workload, and the three strict backends at one
//!   seed and volume, all reproduce one estimate bit for bit;
//! * every mean lies within [`ERROR_BARS`] of its own error bars of the
//!   exact `Eξ(t) = C·t` (skipped below [`MIN_COUNT_FOR_BARS`]
//!   realizations, where the variance estimate is meaningless).

use std::path::Path;

use parmonc::{MatrixAccumulator, MatrixSummary, StreamHierarchy, StreamId};
use parmonc_stats::report::render_func;

use crate::workload::{Timed, Workload, NCOL, NROW};

/// How many of its own error bars (each already 3σ̂) a mean may sit
/// from the exact value.
pub const ERROR_BARS: f64 = 2.0;

/// Smallest sample volume at which the error-bar test is applied.
pub const MIN_COUNT_FOR_BARS: u64 = 64;

/// What a correct run of one configuration must produce.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Realizations the run must simulate.
    pub volume: u64,
    /// Per-rank quotas, index = rank.
    pub quotas: Vec<u64>,
    /// FNV-1a digest of the serial estimate's `func.dat`.
    pub digest: u64,
}

/// What a run produced, as the check sees it.
#[derive(Debug)]
pub struct Observed<'a> {
    /// The run's `new_volume`.
    pub new_volume: u64,
    /// The run's per-rank volumes.
    pub worker_volumes: &'a [u64],
    /// Ranks the collector declared lost.
    pub lost_workers: usize,
    /// The averaged estimate.
    pub summary: &'a MatrixSummary,
    /// The contents of `func.dat`.
    pub func_text: &'a str,
}

/// 64-bit FNV-1a.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Recomputes a run serially: every rank's quota on its own stream
/// coordinates, accumulated in rank order exactly as the collector
/// folds them. Returns the total and the per-rank quotas.
///
/// # Errors
///
/// A configuration the runtime rejects.
pub fn serial_estimate(
    workload: &Workload,
    volume: u64,
    seqnum: u64,
    dir: &Path,
) -> Result<(MatrixAccumulator, Vec<u64>), String> {
    let config = workload.config(volume, seqnum, dir)?;
    let hierarchy = StreamHierarchy::new(config.leaps);
    let scheme = workload.scheme();
    let mut total = MatrixAccumulator::new(NROW, NCOL).map_err(|e| e.to_string())?;
    let mut out = vec![0.0; NROW * NCOL];
    let mut quotas = Vec::with_capacity(config.processors);
    for rank in 0..config.processors {
        let quota = config.quota(rank);
        quotas.push(quota);
        let mut acc = MatrixAccumulator::new(NROW, NCOL).map_err(|e| e.to_string())?;
        let mut cursor = hierarchy
            .cursor(StreamId::new(seqnum, rank as u64, 0))
            .map_err(|e| e.to_string())?;
        for _ in 0..quota {
            out.fill(0.0);
            let mut stream = cursor.next_stream().map_err(|e| e.to_string())?;
            scheme.realize_into(&mut stream, &mut out);
            acc.add(&out).map_err(|e| e.to_string())?;
        }
        total.merge(&acc).map_err(|e| e.to_string())?;
    }
    Ok((total, quotas))
}

/// What a correct run of `volume` realizations at `seqnum` produces.
///
/// # Errors
///
/// A configuration the runtime rejects.
pub fn expected(
    workload: &Workload,
    volume: u64,
    seqnum: u64,
    dir: &Path,
) -> Result<Expected, String> {
    let (total, quotas) = serial_estimate(workload, volume, seqnum, dir)?;
    Ok(Expected {
        volume,
        quotas,
        digest: fnv64(render_func(&total.summary()).as_bytes()),
    })
}

/// Checks one run's output against the serial expectation.
///
/// # Errors
///
/// The first violated condition, as text.
pub fn check(
    observed: &Observed<'_>,
    expected: &Expected,
    exact_mean: impl Fn(usize, usize) -> f64,
) -> Result<(), String> {
    if observed.new_volume != expected.volume {
        return Err(format!(
            "new_volume {} != requested {}",
            observed.new_volume, expected.volume
        ));
    }
    if observed.worker_volumes != expected.quotas.as_slice() {
        return Err(format!(
            "per-rank volumes {:?} != quotas {:?}",
            observed.worker_volumes, expected.quotas
        ));
    }
    if observed.lost_workers != 0 {
        return Err(format!("{} rank(s) lost", observed.lost_workers));
    }
    let digest = fnv64(observed.func_text.as_bytes());
    if digest != expected.digest {
        return Err(format!(
            "func.dat digest {digest:016x} != serial estimate {:016x}",
            expected.digest
        ));
    }
    let summary = observed.summary;
    if summary.count >= MIN_COUNT_FOR_BARS {
        for i in 0..summary.nrow {
            for j in 0..summary.ncol {
                let k = i * summary.ncol + j;
                let exact = exact_mean(i, j);
                let off = (summary.means[k] - exact).abs();
                let bound = ERROR_BARS * summary.abs_errors[k];
                // A NaN mean or error bar fails too.
                if off.is_nan() || bound.is_nan() || off > bound {
                    return Err(format!(
                        "mean ({i},{j}) = {} is {off:.3e} from exact {exact}, \
                         more than {ERROR_BARS} error bars of {:.3e}",
                        summary.means[k], summary.abs_errors[k]
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Checks a finished run of `workload`, reading its `func.dat`.
///
/// # Errors
///
/// The first violated condition, as text.
pub fn check_run(workload: &Workload, run: &Timed, expected: &Expected) -> Result<(), String> {
    let report = &run.report;
    let func_text = std::fs::read_to_string(report.results_dir.func_path())
        .map_err(|e| format!("reading func.dat: {e}"))?;
    let observed = Observed {
        new_volume: report.new_volume,
        worker_volumes: &report.worker_volumes,
        lost_workers: report.lost_workers.len(),
        summary: &report.summary,
        func_text: &func_text,
    };
    check(&observed, expected, |i, j| workload.exact_mean(i, j))
}

/// Runs attempted and failed, with the first failure kept for the log.
/// A failed run is counted, never retried.
#[derive(Debug, Default)]
pub struct Tally {
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that returned `Err` or failed the output check.
    pub failed: u64,
    /// The first failure's description.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Counts one run, passing its value through when it succeeded.
    pub fn record<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(value) => Some(value),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
                self.first_failure
                    .get_or_insert_with(|| format!("{what}: {e}"));
                None
            }
        }
    }

    /// `failed ÷ attempted`.
    #[must_use]
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{find, seqnum_for};

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn verdict(
        workload: &Workload,
        summary: &MatrixSummary,
        expected: &Expected,
    ) -> Result<(), String> {
        let func_text = render_func(summary);
        check(
            &Observed {
                new_volume: summary.count,
                worker_volumes: &expected.quotas,
                lost_workers: 0,
                summary,
                func_text: &func_text,
            },
            expected,
            |i, j| workload.exact_mean(i, j),
        )
    }

    #[test]
    fn perturbed_estimates_are_counted_as_failed() {
        let workload = find("strict_threads").unwrap();
        let (volume, seqnum) = (200, seqnum_for(7));
        let expected = expected(workload, volume, seqnum, Path::new(".")).unwrap();
        let honest = serial_estimate(workload, volume, seqnum, Path::new("."))
            .unwrap()
            .0
            .summary();

        let mut tally = Tally::default();
        assert!(tally
            .record("honest", verdict(workload, &honest, &expected))
            .is_some());

        // A drift far outside the error bars fails both the digest and
        // the statistical test.
        let mut drifted = honest.clone();
        drifted.means[500] += 10.0 * drifted.abs_errors[500];
        let err = verdict(workload, &drifted, &expected).unwrap_err();
        assert!(err.contains("digest"), "{err}");
        assert!(tally.record::<()>("drifted", Err(err)).is_none());

        // A one-ulp change is statistically invisible; only the digest
        // catches it.
        let mut nudged = honest.clone();
        nudged.means[0] = f64::from_bits(nudged.means[0].to_bits() + 1);
        assert!(tally
            .record("nudged", verdict(workload, &nudged, &expected))
            .is_none());

        // A statistically wrong estimate is caught even if its digest
        // were right.
        let mut wrong = expected.clone();
        let mut biased = honest.clone();
        biased.means[1000] += 10.0 * biased.abs_errors[1000];
        wrong.digest = fnv64(render_func(&biased).as_bytes());
        let err = verdict(workload, &biased, &wrong).unwrap_err();
        assert!(err.contains("error bars"), "{err}");
        assert!(tally.record::<()>("biased", Err(err)).is_none());

        assert_eq!((tally.attempted, tally.failed), (4, 3));
        assert!((tally.failed_share() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn short_volume_is_counted_as_failed() {
        let workload = find("strict_threads").unwrap();
        let expected = expected(workload, 100, 3, Path::new(".")).unwrap();
        let honest = serial_estimate(workload, 100, 3, Path::new("."))
            .unwrap()
            .0
            .summary();
        let func_text = render_func(&honest);
        let err = check(
            &Observed {
                new_volume: 99,
                worker_volumes: &[50, 49],
                lost_workers: 0,
                summary: &honest,
                func_text: &func_text,
            },
            &expected,
            |i, j| workload.exact_mean(i, j),
        )
        .unwrap_err();
        assert!(err.contains("new_volume"), "{err}");
    }

    #[test]
    fn threads_and_tcp_reproduce_the_serial_estimate() {
        for name in ["strict_threads", "strict_tcp"] {
            let workload = find(name).unwrap();
            let dir = scratch(name);
            let expected = expected(workload, 120, 11, &dir).unwrap();
            let run = workload.execute(120, 11, &dir, false).unwrap();
            check_run(workload, &run, &expected).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
