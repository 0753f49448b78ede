//! The four workloads and how one run of each is driven through the
//! public `Parmonc::builder(..).run(..)` / `run_worker(..)` API.
//!
//! Every workload is a closed loop of m = 2 ranks on the paper's 2-D
//! diffusion (`ScaledDiffusion`, 1000×2 output, 32 KB subtotal) over
//! the star topology: each rank starts its next realization when the
//! previous one is folded into its accumulator.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use parmonc::{Exchange, NetOptions, Parmonc, ParmoncBuilder, RealizeFn, RunConfig, RunReport};
use parmonc_bench::ScaledDiffusion;
use parmonc_sde::{EulerScheme, PaperDiffusion};

use crate::sys;

/// Ranks of every run (= the host's two cores).
pub const PROCESSORS: usize = 2;

/// Output matrix shape: the paper's 1000 time points × 2 coordinates.
pub const NROW: usize = ScaledDiffusion::POINTS;
/// See [`NROW`].
pub const NCOL: usize = 2;

/// Pass period of the periodic workload (`perpass`).
pub const PASS_PERIOD: Duration = Duration::from_millis(50);
/// Averaging period of the periodic workload (`peraver`).
const AVERAGING_PERIOD: Duration = Duration::from_millis(250);

/// The argument that marks a re-executed worker of the process
/// workload; the arguments after it carry the run it belongs to.
pub const WORKER_ARG: &str = "--perfbench-worker";

/// Which substrate carries rank traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Ranks are threads exchanging envelopes over `parmonc-mpi` channels.
    Threads,
    /// The collector listens on loopback TCP; one worker joins from a
    /// thread of this process.
    Tcp,
    /// Rank 0 re-executes this binary as the worker over a Unix socket.
    Processes,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Transport backend.
    pub backend: Backend,
    /// Euler steps per output point (τ ≈ 50 µs at 1, ≈ 2 ms at 40).
    pub stride: usize,
    /// When workers ship their subtotal.
    pub exchange: Exchange,
    /// Realizations in one timed run.
    pub volume: u64,
}

/// Realizations in one timed run of the strict workloads. All three
/// share it, so at one seed they must share one estimate digest.
const STRICT_VOLUME: u64 = 20_000;

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "strict_threads",
        backend: Backend::Threads,
        stride: 1,
        exchange: Exchange::EveryRealization,
        volume: STRICT_VOLUME,
    },
    Workload {
        name: "strict_tcp",
        backend: Backend::Tcp,
        stride: 1,
        exchange: Exchange::EveryRealization,
        volume: STRICT_VOLUME,
    },
    Workload {
        name: "strict_processes",
        backend: Backend::Processes,
        stride: 1,
        exchange: Exchange::EveryRealization,
        volume: STRICT_VOLUME,
    },
    Workload {
        name: "periodic_threads",
        backend: Backend::Threads,
        stride: 40,
        exchange: Exchange::Periodic,
        volume: 600,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The seed's experiment subsequence: every run of an invocation uses
/// it, so the seed alone fixes every realization.
#[must_use]
pub fn seqnum_for(seed: u64) -> u64 {
    seed % 1024
}

/// One finished run with its wall and CPU cost.
#[derive(Debug)]
pub struct Timed {
    /// The collector's report.
    pub report: RunReport,
    /// Wall time of the run call (for TCP: listen until both sides return).
    pub wall: Duration,
    /// CPU of this process plus reaped worker processes during the run.
    pub cpu: Duration,
}

impl Workload {
    /// The user routine's scheme: the paper's diffusion at this stride.
    #[must_use]
    pub fn scheme(&self) -> EulerScheme<PaperDiffusion> {
        ScaledDiffusion::new(self.stride).scheme().clone()
    }

    /// Exact `Eξ_j(t_i)` of output entry `(i, j)`.
    #[must_use]
    pub fn exact_mean(&self, i: usize, j: usize) -> f64 {
        let scheme = self.scheme();
        scheme
            .sde()
            .exact_mean(j, scheme.grid().time(i, scheme.h()))
    }

    fn builder(&self, volume: u64, seqnum: u64, dir: &Path, traced: bool) -> ParmoncBuilder {
        let mut builder = Parmonc::builder(NROW, NCOL)
            .max_sample_volume(volume)
            .seqnum(seqnum)
            .processors(PROCESSORS)
            .exchange(self.exchange)
            .output_dir(dir);
        if self.exchange == Exchange::Periodic {
            builder = builder
                .pass_period(PASS_PERIOD)
                .averaging_period(AVERAGING_PERIOD);
        }
        if traced {
            builder = builder.monitor().trace_spans();
        }
        builder
    }

    /// The validated configuration of a run, as the program receives it.
    ///
    /// # Errors
    ///
    /// A configuration the runtime rejects.
    pub fn config(&self, volume: u64, seqnum: u64, dir: &Path) -> Result<RunConfig, String> {
        self.builder(volume, seqnum, dir, false)
            .build()
            .map_err(|e| format!("{}: invalid configuration: {e}", self.name))
    }

    fn realize(&self) -> RealizeFn<impl Fn(&mut parmonc::RealizationStream, &mut [f64]) + Sync> {
        let scheme = self.scheme();
        RealizeFn::new(
            move |rng: &mut parmonc::RealizationStream, out: &mut [f64]| {
                scheme.realize_into(rng, out);
            },
        )
    }

    /// Runs `volume` realizations at `seqnum` with results under `dir`
    /// (which must not exist yet), timing the whole run call.
    ///
    /// # Errors
    ///
    /// Any error the runtime returns, as text.
    pub fn execute(
        &self,
        volume: u64,
        seqnum: u64,
        dir: &Path,
        traced: bool,
    ) -> Result<Timed, String> {
        let cpu0 = sys::cpu_time();
        let t0 = Instant::now();
        let report = match self.backend {
            Backend::Threads => self
                .builder(volume, seqnum, dir, traced)
                .run(self.realize())
                .map_err(|e| e.to_string()),
            Backend::Processes => self
                .builder(volume, seqnum, dir, traced)
                .transport(parmonc::Transport::Processes)
                .worker_args([
                    WORKER_ARG.to_string(),
                    self.name.to_string(),
                    volume.to_string(),
                    seqnum.to_string(),
                    dir.display().to_string(),
                ])
                .run(self.realize())
                .map_err(|e| e.to_string()),
            Backend::Tcp => self.execute_tcp(volume, seqnum, dir, traced),
        }?;
        let wall = t0.elapsed();
        let cpu = sys::cpu_time().saturating_sub(cpu0);
        Ok(Timed { report, wall, cpu })
    }

    fn execute_tcp(
        &self,
        volume: u64,
        seqnum: u64,
        dir: &Path,
        traced: bool,
    ) -> Result<RunReport, String> {
        let collector_dir = dir.to_path_buf();
        let worker_dir = dir.join("worker");
        std::thread::scope(|scope| {
            let collector = scope.spawn(|| {
                self.builder(volume, seqnum, &collector_dir, traced)
                    .net(NetOptions::listen("127.0.0.1:0"))
                    .run(self.realize())
                    .map_err(|e| format!("collector: {e}"))
            });
            let Some(addr) = wait_for_addr(&collector_dir, || collector.is_finished()) else {
                let outcome = collector.join().map_err(|_| "collector panicked")?;
                return Err(match outcome {
                    Ok(_) => "collector finished without publishing its address".into(),
                    Err(e) => e,
                });
            };
            let worker = scope.spawn(|| {
                self.builder(volume, seqnum, &worker_dir, traced)
                    .net(NetOptions::join(addr))
                    .run_worker(self.realize())
                    .map_err(|e| format!("worker: {e}"))
            });
            let worker = worker.join().map_err(|_| "worker panicked")?;
            let report = collector.join().map_err(|_| "collector panicked")??;
            worker?;
            Ok(report)
        })
    }
}

/// Polls for the collector's published listen address until it
/// appears or `gave_up()` says the collector ended without one.
fn wait_for_addr(dir: &Path, gave_up: impl Fn() -> bool) -> Option<String> {
    let path: PathBuf = dir.join("parmonc_data").join("collector.addr");
    loop {
        if let Ok(text) = std::fs::read_to_string(&path) {
            let addr = text.trim();
            if !addr.is_empty() {
                return Some(addr.to_string());
            }
        }
        if gave_up() {
            return None;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Entry point of a re-executed worker process: rebuilds the run's
/// configuration from the arguments after [`WORKER_ARG`] and enters
/// the runtime, which diverts into the worker loop and exits.
pub fn worker_main(args: &[String]) -> ! {
    let parsed = (|| {
        let [name, volume, seqnum, dir] = args else {
            return None;
        };
        Some((
            find(name)?,
            volume.parse::<u64>().ok()?,
            seqnum.parse::<u64>().ok()?,
            PathBuf::from(dir),
        ))
    })();
    let Some((workload, volume, seqnum, dir)) = parsed else {
        eprintln!("perfbench worker: malformed arguments {args:?}");
        std::process::exit(2);
    };
    let outcome = workload
        .builder(volume, seqnum, &dir, false)
        .transport(parmonc::Transport::Processes)
        .run(workload.realize());
    let why = outcome.err().map_or_else(String::new, |e| format!(": {e}"));
    eprintln!("perfbench worker: the runtime returned instead of exiting{why}");
    std::process::exit(1);
}
