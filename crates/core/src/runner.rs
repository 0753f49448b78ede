//! The parallel runner: the `parmoncc`/`parmoncf` engine
//! (paper Sections 2.2, 3.2).
//!
//! Every rank, rank 0 included, runs one realization loop on its own
//! leapfrogged processor subsequence. Rank 0 additionally plays the
//! collector between its realizations: it drains asynchronously
//! arriving subtotal messages, averages them by formula (5) every
//! `peraver`, and saves the result files as periodic save-points.
//! Workers ship their *cumulative* sums every `perpass` (or after every
//! realization in the performance-test mode) and always finish with a
//! final message, so the run terminates deterministically when the
//! total sample volume reaches `maxsv` or the wall-clock deadline
//! passes. One driver serves every backend; they differ only in how
//! the world is opened.

use std::time::{Duration, Instant};

use parmonc_faults::{FaultHandle, FaultKind};
use parmonc_ipc::{
    JoinOptions, LeaseSnapshot, ListenOptions, SpawnOptions, TcpCollectorTransport,
    TcpWorkerTransport,
};
use parmonc_mpi::{Bytes, CollectionPlan, Communicator, Envelope, MpiError, World};
use parmonc_obs::{
    CollectorActivity, ConvergenceTracker, EventKind, JsonlSink, MemorySink, MetricsSink, Monitor,
    MonitorSummary, RunMode, RunTransport, SpanEmitter, SpanPhase,
};
use parmonc_rng::{StreamCursor, StreamHierarchy, StreamId};
use parmonc_stats::report::LogReport;
use parmonc_stats::{MatrixAccumulator, MatrixSummary};

use crate::config::{Exchange, ParmoncBuilder, Resume, RunConfig, Transport};
use crate::error::{IoContext, ParmoncError};
use crate::files::{ExperimentRecord, ResultsDir};
use crate::messages::{
    decode_batch, encode_batch, Subtotal, TAG_BATCH, TAG_EXTEND, TAG_FINAL, TAG_HEARTBEAT,
    TAG_REPARENT, TAG_STOP, TAG_SUBTOTAL,
};
use crate::realize::Realize;

/// Entry point type: `Parmonc::builder(nrow, ncol)` starts configuring
/// a run, mirroring the argument list of `parmoncc`.
#[derive(Debug)]
pub struct Parmonc;

impl Parmonc {
    /// Starts building a run for realizations shaped `nrow × ncol`.
    #[must_use]
    pub fn builder(nrow: usize, ncol: usize) -> ParmoncBuilder {
        ParmoncBuilder::new(nrow, ncol)
    }
}

/// What a completed run reports back (everything `func_log.dat`
/// records, plus handles for inspection).
#[derive(Debug)]
pub struct RunReport {
    /// Averaged estimates with errors — the contents of
    /// `func.dat`/`func_ci.dat`.
    pub summary: MatrixSummary,
    /// Total sample volume on disk after the run (previous + new).
    pub total_volume: u64,
    /// Realizations simulated by *this* run.
    pub new_volume: u64,
    /// Volume inherited from the resumed previous simulation.
    pub resumed_volume: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Mean compute time per realization, seconds (the paper's τ_ζ).
    pub mean_time_per_realization: f64,
    /// Number of processors used.
    pub processors: usize,
    /// Per-worker realization counts (index = rank).
    pub worker_volumes: Vec<u64>,
    /// The results directory of the run.
    pub results_dir: ResultsDir,
    /// Folded monitor trace of the run; `Some` only when the run was
    /// built with [`ParmoncBuilder::monitor`]. The full event trace is
    /// at `parmonc_data/monitor/run_metrics.jsonl`.
    pub monitor: Option<MonitorSummary>,
    /// Ranks the collector declared dead during the run (empty on a
    /// healthy run). Their last received cumulative subtotals are kept
    /// in the estimate; their unfinished budget was reassigned.
    pub lost_workers: Vec<usize>,
    /// Realizations moved between ranks by fault recovery (the sum of
    /// all `work_reassigned` events).
    pub reassigned_realizations: u64,
    /// Whether the resume baseline had to be read from the last-good
    /// backup generation because the primary checkpoint was corrupt.
    pub checkpoint_recovered: bool,
}

/// Collector-side state: the latest cumulative subtotal per rank, and
/// when each arrived (for the monitor's snapshot-age metric).
struct CollectorState {
    baseline: MatrixAccumulator,
    latest: Vec<Option<Subtotal>>,
    updated_at: Vec<Option<Instant>>,
}

impl CollectorState {
    fn new(baseline: MatrixAccumulator, ranks: usize) -> Self {
        Self {
            baseline,
            latest: vec![None; ranks],
            updated_at: vec![None; ranks],
        }
    }

    /// Decodes a worker's cumulative subtotal *over* its previous
    /// snapshot (same shape ⇒ the matrices are overwritten in place,
    /// no allocation) and stamps its arrival time. The collector's
    /// steady state: every rank re-sends the same shape each pass.
    fn absorb(&mut self, rank: usize, payload: &Bytes, now: Instant) -> Result<(), ParmoncError> {
        Subtotal::decode_into(payload, &mut self.latest[rank])?;
        self.updated_at[rank] = Some(now);
        Ok(())
    }

    /// Refreshes rank 0's own snapshot from its borrowed running
    /// accumulator, reusing the previous snapshot's allocations.
    fn update_own(&mut self, acc: &MatrixAccumulator, compute_seconds: f64, now: Instant) {
        match &mut self.latest[0] {
            Some(sub) => {
                sub.acc.clone_from(acc);
                sub.compute_seconds = compute_seconds;
            }
            slot => {
                *slot = Some(Subtotal {
                    acc: acc.clone(),
                    compute_seconds,
                });
            }
        }
        self.updated_at[0] = Some(now);
    }

    /// Age of the stalest per-rank snapshot folded into an averaging
    /// pass; `None` until at least one rank has reported.
    fn max_snapshot_age(&self) -> Option<f64> {
        self.updated_at
            .iter()
            .flatten()
            .map(|t| t.elapsed().as_secs_f64())
            .fold(None, |acc, age| Some(acc.map_or(age, |m: f64| m.max(age))))
    }

    /// Formula (5): total = baseline + Σ_m latest_m (cumulative sums, so
    /// replace-then-sum, never double counting).
    fn total(&self) -> Result<MatrixAccumulator, ParmoncError> {
        let mut total = self.baseline.clone();
        for sub in self.latest.iter().flatten() {
            total.merge(&sub.acc)?;
        }
        Ok(total)
    }

    fn new_volume(&self) -> u64 {
        self.latest.iter().flatten().map(|s| s.acc.count()).sum()
    }

    /// Mean compute time per realization of this run (the paper's τ_ζ).
    fn mean_time_per_realization(&self) -> f64 {
        let new_volume = self.new_volume();
        if new_volume == 0 {
            return 0.0;
        }
        let compute_seconds: f64 = self
            .latest
            .iter()
            .flatten()
            .map(|s| s.compute_seconds)
            .sum();
        compute_seconds / new_volume as f64
    }

    fn count(&self, rank: usize) -> u64 {
        self.latest[rank].as_ref().map_or(0, |s| s.acc.count())
    }
}

/// Validates resume preconditions and returns the baseline accumulator
/// plus whether it was recovered from the backup checkpoint generation.
fn resume_baseline(
    config: &RunConfig,
    dir: &ResultsDir,
) -> Result<(MatrixAccumulator, bool), ParmoncError> {
    match config.resume {
        Resume::New => Ok((MatrixAccumulator::new(config.nrow, config.ncol)?, false)),
        Resume::Resume => {
            let (previous, recovered) =
                dir.load_checkpoint_recovering()?
                    .ok_or_else(|| ParmoncError::NothingToResume {
                        dir: dir.root().to_path_buf(),
                    })?;
            if previous.shape() != (config.nrow, config.ncol) {
                return Err(ParmoncError::ResumeShapeMismatch {
                    on_disk: previous.shape(),
                    requested: (config.nrow, config.ncol),
                });
            }
            // The paper requires a fresh "experiments" subsequence on
            // resumption, otherwise the new realizations would repeat
            // the old base random numbers.
            if dir
                .read_experiments()?
                .iter()
                .any(|rec| rec.seqnum == config.seqnum)
            {
                return Err(ParmoncError::SeqnumAlreadyUsed {
                    seqnum: config.seqnum,
                });
            }
            Ok((previous, recovered))
        }
    }
}

/// Runs the simulation. This is the body behind
/// [`ParmoncBuilder::run`](crate::config::ParmoncBuilder::run).
///
/// With [`Transport::Processes`], this call is also the worker-side
/// entry point: a re-executed worker process runs the user program up
/// to this call, where the `PARMONC_WORKER_*` environment diverts it
/// into the join path and the worker loop, and the process exits
/// without returning.
///
/// # Errors
///
/// Propagates configuration, resume, I/O and transport errors; a
/// panicking rank is reported as [`MpiError::RankPanicked`].
pub fn run<R>(config: RunConfig, realize: R) -> Result<RunReport, ParmoncError>
where
    R: Realize + Sync,
{
    if config.transport == Transport::Processes {
        if let Some(info) = parmonc_ipc::worker_env() {
            // The re-executed user `main` continues past `run()` in
            // the parent only.
            let digest = info.join_digest(config.wire_digest());
            let code = match run_socket_worker(&config, &realize, info.endpoint(), digest) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("parmonc worker (pid {}): {e}", std::process::id());
                    1
                }
            };
            std::process::exit(code);
        }
    }
    if config.transport == Transport::Tcp && config.listen_addr.is_none() {
        return Err(ParmoncError::Config(
            "the TCP transport needs a listen address on the collector: use \
             .net(NetOptions::listen(\"host:port\")) (workers use \
             .net(NetOptions::join(addr)) + run_worker)"
                .into(),
        ));
    }
    let setup = prepare(&config)?;
    let collector = match config.transport {
        Transport::Threads => {
            let mut ranks = World::communicators_faulted(
                config.processors,
                setup.monitor.clone(),
                setup.faults.clone(),
            )?;
            let workers = ranks.split_off(1);
            let rank0 = ranks.pop().expect("a world has a rank 0");
            // Dropping rank 0's endpoint is the teardown: every worker
            // still sending then sees the collector gone and winds down.
            drive(&config, &setup, &realize, rank0, workers, |rank0| {
                drop(rank0);
                Ok(())
            })?
        }
        Transport::Processes | Transport::Tcp => {
            let world = open_socket_world(&config, &setup)?;
            // Shutdown reaps a spawned world's children and joins the
            // per-connection readers, so every forwarded worker event is
            // in the sinks before the epilogue folds the trace.
            drive(&config, &setup, &realize, world, Vec::new(), |mut world| {
                world.shutdown().io_ctx("shutting down the socket world")
            })?
        }
    };
    finish(&config, &setup, collector)
}

/// Everything rank 0 sets up before any rank starts simulating.
struct RunSetup {
    start: Instant,
    faults: FaultHandle,
    dir: ResultsDir,
    monitor: Monitor,
    memory: Option<std::sync::Arc<MemorySink>>,
    baseline: MatrixAccumulator,
    resumed_volume: u64,
    checkpoint_recovered: bool,
    hierarchy: StreamHierarchy,
    /// Rank 0's own progress on a crash-resume, read back from its
    /// worker subtotal file exactly like any other rank's.
    resume_own: Option<Subtotal>,
}

/// The rank-0-side preamble shared by every backend: results
/// directory, monitor plane, resume baseline, experiment journal.
fn prepare(config: &RunConfig) -> Result<RunSetup, ParmoncError> {
    let start = Instant::now();
    let faults = config.faults.build();
    let dir = ResultsDir::create(&config.output_dir)?.with_faults(faults.clone());

    // The monitor is disabled (a no-op) unless the builder opted in, in
    // which case events stream to `monitor/run_metrics.jsonl` and into
    // an in-memory sink that feeds the end-of-run summary. It is built
    // before the baseline is loaded so a backup-checkpoint recovery is
    // itself observable.
    let (monitor, memory) = if config.monitor {
        let sink = JsonlSink::create(dir.run_metrics_path())
            .io_ctx("creating monitor/run_metrics.jsonl")?;
        let memory = std::sync::Arc::new(MemorySink::new());
        // The metrics plane derives counters/gauges/histograms from the
        // same event stream and periodically renders Prometheus text;
        // it adds no call sites of its own.
        let metrics = MetricsSink::new().with_prometheus_output(dir.metrics_prom_path());
        let monitor: Monitor = Monitor::new(vec![
            Box::new(sink),
            Box::new(std::sync::Arc::clone(&memory)),
            Box::new(metrics),
        ]);
        (monitor, Some(memory))
    } else {
        (Monitor::disabled(), None)
    };
    monitor.emit(
        None,
        EventKind::RunStarted {
            mode: RunMode::Threads,
            processors: config.processors,
            max_sample_volume: config.max_sample_volume,
            seqnum: Some(config.seqnum),
            nrow: Some(config.nrow),
            ncol: Some(config.ncol),
            transport: Some(match config.transport {
                Transport::Threads => RunTransport::Threads,
                Transport::Processes => RunTransport::Processes,
                Transport::Tcp => RunTransport::Tcp,
            }),
        },
    );

    let (baseline, checkpoint_recovered) = if config.resume_collector {
        // A crash-resume continues the *same* experiment, so the
        // accumulation restarts from the original baseline — never the
        // checkpoint, which is baseline + the workers' latest
        // cumulative subtotals: those are exactly what the surviving
        // workers are about to re-send, and loading them here would
        // double-count every one.
        let baseline = dir
            .load_baseline()?
            .ok_or_else(|| ParmoncError::NothingToResume {
                dir: dir.root().to_path_buf(),
            })?;
        if baseline.shape() != (config.nrow, config.ncol) {
            return Err(ParmoncError::ResumeShapeMismatch {
                on_disk: baseline.shape(),
                requested: (config.nrow, config.ncol),
            });
        }
        (baseline, false)
    } else {
        resume_baseline(config, &dir)?
    };
    let resumed_volume = baseline.count();
    if checkpoint_recovered {
        monitor.emit(
            None,
            EventKind::CheckpointRecovered {
                volume: resumed_volume,
            },
        );
    }

    // A crash-resume continues the journal entry the crashed run
    // already wrote, and the worker subtotal files *are* the recovery
    // state — only a fresh session starts the books over.
    let resume_own = if config.resume_collector {
        dir.load_worker_subtotals()?
            .into_iter()
            .find(|(idx, _)| *idx == 0)
            .map(|(_, sub)| sub)
    } else {
        dir.append_experiment(&ExperimentRecord {
            seqnum: config.seqnum,
            max_sample_volume: config.max_sample_volume,
            processors: config.processors,
            resumed: config.resume == Resume::Resume,
            volume_before: resumed_volume,
        })?;
        dir.save_baseline(&baseline)?;
        dir.clear_worker_subtotals()?;
        None
    };

    Ok(RunSetup {
        start,
        faults,
        dir,
        monitor,
        memory,
        baseline,
        resumed_volume,
        checkpoint_recovered,
        hierarchy: StreamHierarchy::new(config.leaps),
        resume_own,
    })
}

/// Runs one opened world to completion. Rank 0 and `workers` run as
/// scoped threads; `workers` is every worker of a thread world and none
/// of a socket world (its workers are processes or remote hosts). Rank
/// 0's thread closes its end of the world with `teardown` as soon as
/// its loop returns — or drops it while unwinding — so the workers wind
/// down and a spawned world never leaks a child. A panicking rank is
/// reported as [`MpiError::RankPanicked`]; rank 0's failure wins over
/// the teardown's, which wins over the workers'.
fn drive<'a, C, R>(
    config: &'a RunConfig,
    setup: &'a RunSetup,
    realize: &'a R,
    rank0: C,
    workers: Vec<Communicator>,
    teardown: impl FnOnce(C) -> Result<(), ParmoncError> + Send,
) -> Result<Collector<'a>, ParmoncError>
where
    C: parmonc_mpi::Transport + Send,
    R: Realize + Sync + ?Sized,
{
    let env = RankEnv {
        config,
        hierarchy: &setup.hierarchy,
        dir: &setup.dir,
        realize,
        start: setup.start,
        monitor: &setup.monitor,
        faults: &setup.faults,
    };
    let plan = config.collection_plan();
    std::thread::scope(|scope| {
        let env = &env;
        let handles: Vec<_> = workers
            .into_iter()
            .map(|comm| {
                let parent = plan.parent(comm.rank()).unwrap_or(0);
                scope.spawn(move || worker_loop(comm, env, config.trace_spans, parent))
            })
            .collect();
        let rank0 = scope.spawn(move || {
            let mut rank0 = rank0;
            let collected = rank0_loop(&mut rank0, setup, env);
            (collected, teardown(rank0))
        });
        let mut result = match rank0.join() {
            Ok((collected, torn_down)) => {
                collected.and_then(|collector| torn_down.map(|()| collector))
            }
            Err(payload) => Err(MpiError::rank_panicked(0, &*payload).into()),
        };
        for (rank, handle) in (1..).zip(handles) {
            let outcome = handle
                .join()
                .unwrap_or_else(|payload| Err(MpiError::rank_panicked(rank, &*payload).into()));
            if let (Ok(_), Err(e)) = (&result, outcome) {
                result = Err(e);
            }
        }
        result
    })
}

/// Opens rank 0's end of a socket world, over one link layer.
///
/// For [`Transport::Processes`] the world is spawned: rank 0 listens on
/// a private Unix socket and re-executes the binary once per worker,
/// and each child joins like a remote host. For [`Transport::Tcp`]
/// nobody is spawned: rank 0 binds the configured address, records the
/// actually bound one in `parmonc_data/collector.addr`, and every
/// worker rank starts life as an *unleased* slot. Remote workers
/// started with
/// [`ParmoncBuilder::run_worker`](crate::config::ParmoncBuilder::run_worker)
/// dial in and lease slots; slots that never join go quiet past the
/// liveness timeout and their budget is reassigned exactly as if a
/// spawned worker had died — the estimate stays bit-identical either
/// way because stream coordinates are fixed by `(seqnum, rank)`.
fn open_socket_world(
    config: &RunConfig,
    setup: &RunSetup,
) -> Result<TcpCollectorTransport, ParmoncError> {
    let spawn = config.transport == Transport::Processes;
    // Crash-resume (TCP): reload the crashed session's lease table so
    // the listener comes back with the same epoch, every lease a worker
    // holds is recognized on rejoin, and the sequence dedup state
    // carries over.
    let resume = if config.resume_collector {
        let path = setup.dir.lease_table_path();
        let text = setup
            .dir
            .load_lease_table()?
            .ok_or_else(|| ParmoncError::NothingToResume {
                dir: setup.dir.root().to_path_buf(),
            })?;
        let snapshot =
            LeaseSnapshot::decode(&text).ok_or_else(|| ParmoncError::CorruptCheckpoint {
                path,
                reason: "unparseable lease table".into(),
            })?;
        Some(snapshot)
    } else {
        None
    };
    let resumed_leases = resume
        .as_ref()
        .map(|s| s.ever_leased.iter().filter(|leased| **leased).count());
    let plan = config.collection_plan();
    let listen = ListenOptions {
        // A spawned world picks its own socket.
        addr: config.listen_addr.clone().unwrap_or_default(),
        size: config.processors,
        monitor: setup.monitor.clone(),
        faults: setup.faults.clone(),
        config_digest: config.wire_digest(),
        quotas: (1..config.processors).map(|m| config.quota(m)).collect(),
        io_timeout: config.tcp_io_timeout,
        resume,
        persist: Some(setup.dir.lease_table_path()),
        trace_spans: config.trace_spans,
        parents: (1..config.processors)
            .map(|r| plan.parent(r).unwrap_or(0))
            .collect(),
    };
    if spawn {
        return TcpCollectorTransport::spawn(SpawnOptions {
            listen,
            worker_args: config.worker_args.clone(),
        })
        .io_ctx("spawning worker processes");
    }
    let transport =
        TcpCollectorTransport::listen(listen).io_ctx("binding the collector TCP listener")?;
    if let Some(leases) = resumed_leases {
        setup.monitor.emit(
            Some(0),
            EventKind::CollectorResumed {
                epoch: format!("{:016x}", transport.epoch()),
                leases,
            },
        );
    }
    setup.dir.write_collector_addr(transport.local_addr())?;
    Ok(transport)
}

/// The worker side of both socket backends: dial the collector at
/// `addr`, lease a rank via the versioned handshake, then run the
/// identical worker loop. [`ParmoncBuilder::run_worker`] calls this
/// with the configured collector address; a re-executed process worker
/// with its parent's socket and the spawn token mixed into
/// `config_digest`.
pub(crate) fn run_socket_worker<R: Realize>(
    config: &RunConfig,
    realize: &R,
    addr: String,
    config_digest: u64,
) -> Result<(), ParmoncError> {
    let start = Instant::now();
    // Each worker builds its own fault handle from the same seeded
    // plan; fault sequence counters are per-(src, dst, tag) channel,
    // and a worker only ever *sends* on its own rank's channels, so the
    // decisions match the shared-handle thread backend exactly.
    let faults = config.faults.build();
    let dir = ResultsDir::create(&config.output_dir)?.with_faults(faults.clone());
    let hierarchy = StreamHierarchy::new(config.leaps);
    let comm = TcpWorkerTransport::join(JoinOptions {
        addr,
        config_digest,
        faults: faults.clone(),
        io_timeout: config.tcp_io_timeout,
        reconnect: config.reconnect,
        clock_skew_s: config.clock_skew_s,
    })
    .io_ctx("joining the collector")?;
    // The digest already proved both sides agree on the configuration;
    // this cross-check catches quota-dealing bugs, where agreement on
    // the inputs still produced a different split.
    let rank = parmonc_mpi::Transport::rank(&comm);
    let granted = comm.granted_quota();
    if granted != config.quota(rank) {
        return Err(ParmoncError::Config(format!(
            "collector granted rank {rank} a quota of {granted} realizations, but this \
             configuration deals it {}: the two sides disagree on the budget split",
            config.quota(rank)
        )));
    }
    let monitor = comm.monitor();
    // Span tracing is the *collector's* choice, carried to the worker
    // in the handshake grant — a worker built without the flag still
    // traces when the collector asks. The collection parent rides the
    // same grant: the collector owns the topology.
    let trace_spans = comm.spans().is_enabled();
    let parent = comm.granted_parent();
    let env = RankEnv {
        config,
        hierarchy: &hierarchy,
        dir: &dir,
        realize,
        start,
        monitor: &monitor,
        faults: &faults,
    };
    worker_loop(comm, &env, trace_spans, parent)
}

/// The rank-0-side epilogue shared by every backend: the final
/// averaging pass, result files, and the report.
fn finish(
    config: &RunConfig,
    setup: &RunSetup,
    mut collector: Collector<'_>,
) -> Result<RunReport, ParmoncError> {
    // Final averaging and save. This path always runs (unlike the
    // in-loop save-points, which only fire when `averaging_period`
    // elapses), so every monitored run records at least one
    // averaging_pass and one save_point event. The worker files are
    // folded into the checkpoint now.
    let (total, summary, _) = collector.save_point()?;
    setup.dir.clear_worker_subtotals()?;
    let elapsed = setup.start.elapsed();
    let state = &collector.state;
    let new_volume = state.new_volume();
    let worker_volumes: Vec<u64> = (0..state.latest.len()).map(|m| state.count(m)).collect();

    let monitor = &setup.monitor;
    let monitor_summary = setup.memory.as_ref().map(|memory| {
        // Count the collector's inbound traffic from the trace itself,
        // so run_completed agrees with the message_received lines.
        let (messages, bytes) = memory
            .snapshot()
            .iter()
            .fold((0u64, 0u64), |(m, b), ev| match ev.kind {
                EventKind::MessageReceived { bytes, .. } if ev.rank == Some(0) => {
                    (m + 1, b + bytes)
                }
                _ => (m, b),
            });
        monitor.emit(
            None,
            EventKind::RunCompleted {
                realizations: new_volume,
                t_comp_seconds: elapsed.as_secs_f64(),
                messages,
                bytes,
            },
        );
        let dropped = monitor.flush();
        let mut summary = MonitorSummary::from_events(&memory.snapshot());
        summary.dropped_events = dropped;
        summary
    });

    Ok(RunReport {
        total_volume: total.count(),
        new_volume,
        resumed_volume: setup.resumed_volume,
        summary,
        elapsed,
        mean_time_per_realization: state.mean_time_per_realization(),
        processors: config.processors,
        worker_volumes,
        results_dir: setup.dir.clone(),
        monitor: monitor_summary,
        lost_workers: collector.live.lost,
        reassigned_realizations: collector.live.reassigned,
        checkpoint_recovered: setup.checkpoint_recovered,
    })
}

/// How often, at most, a rank rewrites its on-disk subtotal file.
const WORKER_FILE_PERIOD: Duration = Duration::from_millis(500);

/// What a rank's realization loop runs against, on every backend.
struct RankEnv<'a, R: ?Sized> {
    config: &'a RunConfig,
    hierarchy: &'a StreamHierarchy,
    dir: &'a ResultsDir,
    realize: &'a R,
    start: Instant,
    monitor: &'a Monitor,
    faults: &'a FaultHandle,
}

/// The realization loop every rank runs, rank 0 included: its stream
/// cursor, running accumulator and exchange cadence. A worker wraps
/// each [`RankLoop::step`] in its uplink (emit, heartbeat, control
/// poll); rank 0 wraps it in the collector service.
struct RankLoop<'a, R: ?Sized> {
    rank: usize,
    env: &'a RankEnv<'a, R>,
    crash_after: Option<u64>,
    /// The base quota plus every realization reassigned to this rank.
    /// Extension realizations run on this rank's *own* stream
    /// coordinates past its original quota, so no leapfrog subsequence
    /// is ever reused.
    quota: u64,
    cursor: StreamCursor,
    acc: MatrixAccumulator,
    out: Vec<f64>,
    compute_seconds: f64,
    last_pass: Instant,
    last_file_write: Option<Instant>,
}

impl<'a, R: Realize + ?Sized> RankLoop<'a, R> {
    /// Starts `rank`'s loop, continuing from `own` when a crash-resume
    /// brought its progress back: the cursor then starts at the first
    /// realization not yet accumulated — the exact coordinates the
    /// crashed run would have simulated next — so the continuation is
    /// bit-identical. (A stale file merely replays some realizations;
    /// same coordinates, same values, replaced not summed.)
    fn new(
        rank: usize,
        env: &'a RankEnv<'a, R>,
        spans: &SpanEmitter,
        own: Option<Subtotal>,
    ) -> Result<Self, ParmoncError> {
        let config = env.config;
        let (acc, compute_seconds) = match own {
            Some(own) => (own.acc, own.compute_seconds),
            None => (MatrixAccumulator::new(config.nrow, config.ncol)?, 0.0),
        };
        // One incremental cursor instead of a fresh three-level leapfrog
        // positioning (three 128-bit modpows) per realization; advancing
        // to the next realization stream is a single 128-bit multiply
        // and yields bit-identical streams (see `StreamCursor`).
        let sp_position = spans.start(SpanPhase::StreamPosition, None);
        let cursor =
            env.hierarchy
                .cursor(StreamId::new(config.seqnum, rank as u64, acc.count()))?;
        spans.end(sp_position, SpanPhase::StreamPosition);
        Ok(Self {
            rank,
            env,
            crash_after: env.faults.crash_after(rank),
            quota: config.quota(rank),
            cursor,
            acc,
            out: vec![0.0f64; config.nrow * config.ncol],
            compute_seconds,
            last_pass: Instant::now(),
            last_file_write: None,
        })
    }

    /// Whether a realization is still due: quota left and the deadline
    /// (if any) not passed.
    fn has_work(&self) -> bool {
        self.acc.count() < self.quota
            && self
                .env
                .config
                .deadline
                .is_none_or(|d| self.env.start.elapsed() < d)
    }

    /// Whether the fault plan's scripted crash point is reached. If so,
    /// records the crash and returns the realization count it fired
    /// at; the caller then vanishes without a final message.
    fn crashed(&self) -> Option<u64> {
        let after = self.crash_after.filter(|&n| self.acc.count() >= n)?;
        self.env.monitor.emit(
            Some(self.rank),
            EventKind::FaultInjected {
                fault: FaultKind::RankCrash.as_str().to_string(),
                detail: Some(after),
            },
        );
        self.env.faults.note_crash(self.rank, after);
        Some(after)
    }

    /// Simulates the next realization. Returns the post-realization
    /// clock read and whether an exchange pass is due.
    fn step(&mut self) -> Result<(Instant, bool), ParmoncError> {
        self.out.fill(0.0);
        let mut stream = self.cursor.next_stream()?;
        // Two clock reads per realization: the pair timing the user
        // routine. Every other time-gated check reuses `now` via
        // `duration_since`, which is pure arithmetic — clock reads are
        // syscalls and used to dominate the runtime's per-realization
        // overhead in the strictest exchange mode.
        let t0 = Instant::now();
        self.env.realize.realize(&mut stream, &mut self.out);
        let now = Instant::now();
        self.compute_seconds += now.duration_since(t0).as_secs_f64();
        self.acc.add(&self.out)?;
        let config = self.env.config;
        let due = match config.exchange {
            Exchange::EveryRealization => true,
            Exchange::Periodic => now.duration_since(self.last_pass) >= config.pass_period,
        };
        if due {
            self.last_pass = now;
        }
        Ok((now, due))
    }

    /// Whether the on-disk subtotal file is due for a rewrite.
    fn file_due(&self, now: Instant) -> bool {
        self.last_file_write
            .is_none_or(|t| now.duration_since(t) >= WORKER_FILE_PERIOD)
    }

    /// Rewrites this rank's on-disk subtotal file (`manaver` input and
    /// crash-resume state).
    fn save_file(&mut self, now: Instant) -> Result<(), ParmoncError> {
        self.env
            .dir
            .save_worker_state(self.rank, &self.acc, self.compute_seconds)?;
        self.last_file_write = Some(now);
        Ok(())
    }

    /// Records this rank's progress. Skips event construction (and the
    /// timestamp it takes) entirely when no monitor sink is attached —
    /// this runs once per realization in the strictest exchange mode.
    fn report(&self) {
        if self.env.monitor.is_enabled() {
            self.env.monitor.emit(
                Some(self.rank),
                EventKind::Realizations {
                    completed: self.acc.count(),
                    compute_seconds: self.compute_seconds,
                },
            );
        }
    }
}

/// What a worker's control-message poll found: a stop broadcast and/or
/// extra realizations reassigned to it from a lost rank.
#[derive(Debug, Default)]
struct WorkerControl {
    stop: bool,
    extra: u64,
}

/// How often a lingering relay (own quota done, descendants still
/// computing) services its inbox between forwards.
const RELAY_LINGER_POLL: Duration = Duration::from_millis(2);

/// An interior relay rank's store-and-forward state under a tree
/// collection topology: the latest raw subtotal payload seen from each
/// rank below it, forwarded upstream as one coalesced [`TAG_BATCH`]
/// per service pass. Payloads are kept *verbatim* — a relay never
/// decodes or pre-folds the floating-point state, so the collector's
/// rank-ordered fold (and with it the estimate) stays bit-identical to
/// the star topology's. Empty (and inert) for leaf ranks and under
/// [`parmonc_mpi::Topology::Star`].
struct RelayBuffer {
    /// `rank -> (raw subtotal payload, final seen)`; a `BTreeMap` so
    /// every flush is in ascending rank order.
    latest: std::collections::BTreeMap<usize, (Bytes, bool)>,
    /// Whether anything changed since the last successful flush.
    dirty: bool,
    /// Ranks whose subtotals are expected to flow through this rank.
    descendants: Vec<usize>,
    /// Ranks whose final flag has been flushed upstream.
    finals_flushed: std::collections::BTreeSet<usize>,
}

impl RelayBuffer {
    fn new(descendants: Vec<usize>) -> Self {
        Self {
            latest: std::collections::BTreeMap::new(),
            dirty: false,
            descendants,
            finals_flushed: std::collections::BTreeSet::new(),
        }
    }

    /// Whether this rank has relay duties at all.
    fn is_relay(&self) -> bool {
        !self.descendants.is_empty()
    }

    /// Replaces the stored payload for `rank` (cumulative subtotals:
    /// newest wins). The final flag is sticky — a retransmit after the
    /// final must not demote it.
    fn absorb(&mut self, rank: usize, payload: Bytes, is_final: bool) {
        let sticky = is_final || self.latest.get(&rank).is_some_and(|(_, f)| *f);
        self.latest.insert(rank, (payload, sticky));
        self.dirty = true;
    }

    /// One coalesced batch of everything held, in ascending rank order.
    fn encode(&self) -> Bytes {
        encode_batch(
            self.latest
                .iter()
                .map(|(&rank, (payload, fin))| (rank, *fin, &payload[..])),
        )
    }

    fn note_flushed(&mut self) {
        self.dirty = false;
        for (&rank, (_, fin)) in &self.latest {
            if *fin {
                self.finals_flushed.insert(rank);
            }
        }
    }

    /// Whether every descendant's final has been forwarded upstream —
    /// the relay's linger loop is done. Descendants that never report
    /// (crashed, never joined) keep this false; the linger loop exits
    /// on stop/disconnect instead.
    fn all_finals_forwarded(&self) -> bool {
        self.descendants
            .iter()
            .all(|d| self.finals_flushed.contains(d))
    }
}

/// A worker's end of the collection plane: its link, where its
/// subtotals flow, and the relay duties it carries. A vanished
/// collector (it aborted the run) is never the worker's error: the
/// worker just winds down.
struct Uplink<C> {
    comm: C,
    /// Rank 0 under a star, an interior relay under a tree. Mutable — a
    /// vanished or reparented relay degrades the route to the
    /// collector, never the estimate.
    parent: usize,
    relay: RelayBuffer,
    lost_collector: bool,
}

impl<C: parmonc_mpi::Transport> Uplink<C> {
    fn new(comm: C, parent: usize, descendants: Vec<usize>) -> Self {
        let parent = if parent == comm.rank() || parent >= comm.size() {
            0
        } else {
            parent
        };
        Self {
            comm,
            parent,
            relay: RelayBuffer::new(descendants),
            lost_collector: false,
        }
    }

    /// Ships one cumulative subtotal to the parent, encoded straight
    /// from the borrowed accumulator into a recycled send buffer: no
    /// `acc.clone()`, and in steady state no allocation either.
    ///
    /// Returns whether the send counted as contact with rank 0: under
    /// a tree topology a worker's subtotals flow to a relay, which
    /// keeps the *collector* blind to the send — the heartbeat cadence
    /// must not be reset by it, or the liveness plane would starve.
    fn send_subtotal(
        &mut self,
        acc: &MatrixAccumulator,
        compute_seconds: f64,
        is_final: bool,
    ) -> Result<bool, ParmoncError> {
        let tag = if is_final { TAG_FINAL } else { TAG_SUBTOTAL };
        let dest = self.parent;
        let payload = Subtotal::encode_state_pooled(acc, compute_seconds, self.comm.pool());
        match self.comm.send_bytes(dest, tag, payload) {
            Ok(()) => Ok(dest == 0),
            Err(MpiError::Disconnected) if dest != 0 => {
                // The relay is gone: degrade to reporting straight to
                // the collector and retry once — the subtotal is
                // cumulative, so the retry cannot double-count.
                self.parent = 0;
                self.send_subtotal(acc, compute_seconds, is_final)
            }
            Err(MpiError::Disconnected) => {
                self.lost_collector = true;
                Ok(false)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Heartbeats always run straight to rank 0 on every topology:
    /// liveness is judged centrally, and a relay must not be able to
    /// silence its whole subtree by dying.
    fn heartbeat(&mut self) -> Result<(), ParmoncError> {
        match self.comm.send(0, TAG_HEARTBEAT, &[]) {
            Ok(()) => Ok(()),
            Err(MpiError::Disconnected) => {
                self.lost_collector = true;
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// One control/relay service pass, shared by the in-simulation poll
    /// and the post-final linger loop: drain every pending envelope —
    /// control orders from rank 0, subtotals from the subtree — then
    /// flush one coalesced batch upstream if anything changed.
    fn service(&mut self, spans: &SpanEmitter) -> Result<WorkerControl, ParmoncError> {
        let mut ctl = WorkerControl {
            stop: self.lost_collector,
            extra: 0,
        };
        if ctl.stop {
            return Ok(ctl);
        }
        let (rank, size) = (self.comm.rank(), self.comm.size());
        while let Some(env) = self.comm.try_recv(None, None) {
            match env.tag {
                // Control is always the collector's voice; a routed
                // frame from a sibling cannot stop or extend us.
                TAG_STOP if env.source == 0 => ctl.stop = true,
                TAG_EXTEND if env.source == 0 && env.payload.len() == 8 => {
                    let mut buf = [0u8; 8];
                    buf.copy_from_slice(&env.payload);
                    ctl.extra += u64::from_le_bytes(buf);
                }
                TAG_REPARENT if env.source == 0 && env.payload.len() == 8 => {
                    let mut buf = [0u8; 8];
                    buf.copy_from_slice(&env.payload);
                    let new_parent = u64::from_le_bytes(buf) as usize;
                    self.parent = if new_parent == rank || new_parent >= size {
                        0
                    } else {
                        new_parent
                    };
                }
                TAG_SUBTOTAL | TAG_FINAL if env.source != 0 && env.source < size => {
                    self.relay
                        .absorb(env.source, env.payload, env.tag == TAG_FINAL);
                }
                TAG_BATCH if env.source != 0 => {
                    // A deeper tree: a child relay's own coalesced
                    // batch folds entry-by-entry into this one.
                    for entry in decode_batch(&env.payload)? {
                        if entry.rank != 0 && entry.rank < size {
                            self.relay.absorb(entry.rank, entry.payload, entry.is_final);
                        }
                    }
                }
                _ => {}
            }
        }
        self.flush(spans)?;
        Ok(ctl)
    }

    /// Flushes the relay buffer upstream as one [`TAG_BATCH`], if dirty.
    /// A vanished upstream relay degrades to the collector (retrying
    /// the same cumulative state, which cannot double-count); a
    /// vanished collector raises `lost_collector`.
    fn flush(&mut self, spans: &SpanEmitter) -> Result<(), ParmoncError> {
        if !self.relay.dirty {
            return Ok(());
        }
        let sp = spans.start(SpanPhase::RelayMerge, None);
        let mut sent = self
            .comm
            .send_bytes(self.parent, TAG_BATCH, self.relay.encode());
        if matches!(sent, Err(MpiError::Disconnected)) && self.parent != 0 {
            self.parent = 0;
            sent = self.comm.send_bytes(0, TAG_BATCH, self.relay.encode());
        }
        let result = match sent {
            Ok(()) => {
                self.relay.note_flushed();
                Ok(())
            }
            Err(MpiError::Disconnected) => {
                self.lost_collector = true;
                Ok(())
            }
            Err(e) => Err(e.into()),
        };
        spans.end(sp, SpanPhase::RelayMerge);
        result
    }
}

/// A worker rank: the shared realization loop, emitting cumulative
/// subtotals every pass, heartbeating through quiet stretches, and
/// growing the quota when the control poll reports reassigned work.
fn worker_loop<C: parmonc_mpi::Transport, R: Realize + ?Sized>(
    comm: C,
    env: &RankEnv<'_, R>,
    trace_spans: bool,
    parent: usize,
) -> Result<(), ParmoncError> {
    let rank = comm.rank();
    let config = env.config;
    let spans = SpanEmitter::new(env.monitor, rank, trace_spans);
    let mut up = Uplink::new(comm, parent, config.collection_plan().descendants(rank));
    let mut own = RankLoop::new(rank, env, &spans, None)?;
    let mut last_contact = Instant::now();
    // The currently open realization-batch span (0 between batches or
    // with spans off — `start`/`end` treat 0 as "nothing open").
    let mut batch_span: u64 = 0;
    loop {
        let ctl = up.service(&spans)?;
        own.quota += ctl.extra;
        if ctl.stop || !own.has_work() {
            break;
        }
        if own.crashed().is_some() {
            // The collector must notice via the liveness sweep.
            return Ok(());
        }
        if spans.is_enabled() && batch_span == 0 {
            batch_span = spans.start(SpanPhase::RealizationBatch, None);
        }
        let (now, due) = own.step()?;
        if due && own.acc.count() < own.quota {
            own.report();
            let sp_send = spans.start(SpanPhase::SubtotalSend, Some(batch_span));
            if up.send_subtotal(&own.acc, own.compute_seconds, false)? {
                last_contact = now;
            }
            spans.end(sp_send, SpanPhase::SubtotalSend);
            if own.file_due(now) {
                let sp_ck = spans.start(SpanPhase::Checkpoint, Some(batch_span));
                own.save_file(now)?;
                spans.end(sp_ck, SpanPhase::Checkpoint);
            }
            spans.end(batch_span, SpanPhase::RealizationBatch);
            batch_span = 0;
        }
        // Not an `else`: a tree worker's emit goes to its relay, not
        // to rank 0, so the heartbeat must still fire on schedule even
        // in the every-realization exchange mode where emits are due
        // on every iteration.
        if now.duration_since(last_contact) >= config.heartbeat_period {
            up.heartbeat()?;
            last_contact = now;
        }
    }

    let sp_ck = spans.start(SpanPhase::Checkpoint, Some(batch_span));
    own.save_file(Instant::now())?;
    spans.end(sp_ck, SpanPhase::Checkpoint);
    own.report();
    let sp_send = spans.start(SpanPhase::SubtotalSend, Some(batch_span));
    up.send_subtotal(&own.acc, own.compute_seconds, true)?;
    spans.end(sp_send, SpanPhase::SubtotalSend);
    spans.end(batch_span, SpanPhase::RealizationBatch);

    // A relay's own quota is done, but descendants may still be
    // computing and their subtotals flow through this rank: keep
    // servicing until every descendant's final is flushed upstream,
    // the collector says stop, or the uplink goes away (teardown or
    // loss). Heartbeats keep this rank visible to the liveness plane
    // meanwhile — a silent relay would be declared lost and its
    // children reparented for nothing.
    if up.relay.is_relay() {
        let mut last_beat = Instant::now();
        while !up.relay.all_finals_forwarded() && !up.lost_collector {
            if config.deadline.is_some_and(|d| env.start.elapsed() >= d) {
                break;
            }
            if up.service(&spans)?.stop {
                break;
            }
            if last_beat.elapsed() >= config.heartbeat_period {
                up.heartbeat()?;
                last_beat = Instant::now();
            }
            std::thread::sleep(RELAY_LINGER_POLL);
        }
    }
    Ok(())
}

/// Collector-side liveness and reassignment bookkeeping.
struct Liveness {
    /// Whether each rank is believed alive (rank 0 always is).
    alive: Vec<bool>,
    /// When the collector last heard *anything* from each rank.
    last_heard: Vec<Instant>,
    /// Extra realizations assigned to each rank beyond its base quota.
    extended: Vec<u64>,
    /// Ranks declared dead, in detection order.
    lost: Vec<usize>,
    /// Total realizations moved by reassignment.
    reassigned: u64,
    /// Reassigned realizations the collector itself must absorb.
    self_extra: u64,
}

impl Liveness {
    fn new(size: usize) -> Self {
        Self {
            alive: vec![true; size],
            last_heard: vec![Instant::now(); size],
            extended: vec![0; size],
            lost: Vec::new(),
            reassigned: 0,
            self_extra: 0,
        }
    }
}

/// Rank 0's collector service, run between its own realizations: the
/// latest subtotal per rank, who is alive and still awaited, the
/// averaging cadence, and the monitor-side trackers. Its methods take
/// rank 0's end of the world as `comm`.
struct Collector<'a> {
    config: &'a RunConfig,
    dir: &'a ResultsDir,
    monitor: &'a Monitor,
    start: Instant,
    plan: CollectionPlan,
    spans: SpanEmitter,
    state: CollectorState,
    /// Which ranks' final subtotals have arrived.
    finals: Vec<bool>,
    live: Liveness,
    /// The run is winding down — a stop was broadcast, or the last
    /// stragglers are being drained — so no budget is reassigned.
    stopping: bool,
    last_average: Instant,
    tracker: SegmentTracker<'a>,
    /// Error-bar trajectory recorder. Strictly read-only with respect
    /// to estimation: it observes already-computed summaries, so
    /// estimates stay bit-identical with the metrics plane on or off.
    convergence: ConvergenceTracker,
}

/// Rank 0: the shared realization loop with the collector service
/// between realizations. While it has work of its own it drains
/// arrivals without blocking; once done it blocks for them. Either way
/// it then sweeps liveness, writes a save-point when one is due, and
/// stops the run once the error target is met. Work reassigned to rank
/// 0 re-enters the same loop on its own stream.
fn rank0_loop<'a, C: parmonc_mpi::Transport, R: Realize + ?Sized>(
    comm: &mut C,
    setup: &'a RunSetup,
    env: &RankEnv<'a, R>,
) -> Result<Collector<'a>, ParmoncError> {
    let mut col = Collector::new(env.config, setup, comm.size());
    let mut own = RankLoop::new(0, env, &col.spans, setup.resume_own.clone())?;
    // Whether rank 0's finished subtotal is on disk and in the state.
    let mut settled = false;
    loop {
        own.quota += std::mem::take(&mut col.live.self_extra);
        let now = if !col.stopping && own.has_work() {
            if let Some(after) = own.crashed() {
                // Scripted collector crash: vanish abruptly — no stop
                // broadcast, no final save-point. Workers ride out the
                // outage on their reconnect backoff; the last
                // save-point, lease table, and worker files on disk
                // are exactly what a `resume_listen` restart picks up.
                return Err(ParmoncError::CollectorCrashed { after });
            }
            settled = false;
            col.tracker.switch(CollectorActivity::Computing);
            let (now, due) = own.step()?;
            if due {
                own.report();
                if own.file_due(now) {
                    own.save_file(now)?;
                }
            }
            col.drain(comm, now)?;
            now
        } else {
            if !settled {
                let now = Instant::now();
                own.report();
                own.save_file(now)?;
                col.state.update_own(&own.acc, own.compute_seconds, now);
                settled = true;
            }
            if !col.awaiting() {
                break;
            }
            col.wait(comm)?
        };
        col.sweep(&*comm, false, now)?;
        if now.duration_since(col.last_average) >= env.config.averaging_period {
            // The running rank-0 subtotal must be visible to the
            // save-point (and to the error-controlled stop). Its
            // snapshot is refreshed only here and when rank 0 settles —
            // nothing reads it in between — so the strict exchange does
            // not copy the accumulator after every realization.
            col.state.update_own(&own.acc, own.compute_seconds, now);
            col.average(&*comm)?;
        }
    }
    // Drain any stragglers (a worker may have sent subtotals after the
    // message processed last; cumulative semantics make the newest
    // message authoritative). A late final must not reassign anything.
    col.stopping = true;
    col.drain(comm, Instant::now())?;
    col.tracker.finish();
    Ok(col)
}

impl<'a> Collector<'a> {
    fn new(config: &'a RunConfig, setup: &'a RunSetup, size: usize) -> Self {
        Self {
            config,
            dir: &setup.dir,
            monitor: &setup.monitor,
            start: setup.start,
            plan: config.collection_plan(),
            spans: SpanEmitter::new(&setup.monitor, 0, config.trace_spans),
            state: CollectorState::new(setup.baseline.clone(), size),
            finals: vec![false; size],
            live: Liveness::new(size),
            stopping: false,
            last_average: Instant::now(),
            tracker: SegmentTracker::new(&setup.monitor),
            convergence: ConvergenceTracker::with_target(config.target_abs_error),
        }
    }

    /// Whether any live worker's final is still awaited.
    fn awaiting(&self) -> bool {
        (1..self.finals.len()).any(|m| self.live.alive[m] && !self.finals[m])
    }

    /// Folds every envelope already queued, without blocking.
    fn drain<C: parmonc_mpi::Transport>(
        &mut self,
        comm: &mut C,
        now: Instant,
    ) -> Result<(), ParmoncError> {
        let drain_started = self.monitor.is_enabled().then(Instant::now);
        let mut received = false;
        while let Some(env) = comm.try_recv(None, None) {
            received |= self.handle(&*comm, env, now)?;
        }
        if let (true, Some(t)) = (received, drain_started) {
            self.tracker.punch(CollectorActivity::Receiving, t);
        }
        Ok(())
    }

    /// Blocks up to one heartbeat period for the next envelope, once
    /// rank 0's own work is done. Returns when the wait ended.
    fn wait<C: parmonc_mpi::Transport>(&mut self, comm: &mut C) -> Result<Instant, ParmoncError> {
        self.tracker.switch(CollectorActivity::Waiting);
        match comm.recv_timeout(None, None, self.config.heartbeat_period) {
            Ok(Some(env)) => {
                let received_at = Instant::now();
                if self.handle(&*comm, env, received_at)? {
                    self.tracker
                        .punch(CollectorActivity::Receiving, received_at);
                }
            }
            Ok(None) => {}
            // Every rank that could still send has exited: nothing more
            // can arrive, so every awaited rank is dead right now.
            Err(MpiError::Disconnected) => self.sweep(&*comm, true, Instant::now())?,
            Err(e) => return Err(e.into()),
        }
        Ok(Instant::now())
    }

    /// Folds one inbound envelope into the collector state. Returns
    /// `true` for data messages (heartbeats only refresh liveness).
    /// Under a tree topology the envelope may be a relay's
    /// [`TAG_BATCH`]: each entry is credited to its *original* rank —
    /// liveness, subtotal, and final alike — so the estimate and the
    /// loss accounting are independent of how subtotals were routed.
    fn handle<C: parmonc_mpi::Transport>(
        &mut self,
        comm: &C,
        env: Envelope,
        now: Instant,
    ) -> Result<bool, ParmoncError> {
        let source = env.source;
        self.live.last_heard[source] = now;
        if env.tag == TAG_HEARTBEAT {
            comm.recycle(env.payload);
            return Ok(false);
        }
        if env.tag == TAG_BATCH {
            for entry in decode_batch(&env.payload)? {
                if entry.rank == 0 || entry.rank >= self.finals.len() || self.finals[entry.rank] {
                    // After a rank's final, anything still in flight for
                    // it is a relay's stale copy or a retransmitted
                    // final — never newer state. Absorbing it could
                    // *regress* the rank's cumulative subtotal when the
                    // final took a different path (e.g. the hub's route
                    // fallback).
                    continue;
                }
                // The entry's payload reached us via the relay, but it
                // is the origin rank's own recent subtotal: proof of
                // life.
                self.live.last_heard[entry.rank] = now;
                self.state.absorb(entry.rank, &entry.payload, now)?;
                if entry.is_final {
                    self.note_final(comm, entry.rank);
                }
            }
            // The entries aliased the frame's buffer and are gone now,
            // so the whole frame can go back to the pool.
            comm.recycle(env.payload);
            return Ok(true);
        }
        if self.finals[source] {
            comm.recycle(env.payload);
            return Ok(true);
        }
        let is_final = env.tag == TAG_FINAL;
        self.state.absorb(source, &env.payload, now)?;
        comm.recycle(env.payload);
        if is_final {
            self.note_final(comm, source);
        }
        Ok(true)
    }

    /// Marks `rank`'s final received. A final from a rank that was
    /// extended but fell short (the extension raced its exit) gets the
    /// shortfall re-reassigned so the budget is never silently dropped;
    /// base-quota shortfalls (deadline, stop broadcast) are left alone.
    /// Idempotent at the call sites: a relay re-flushing a batch can
    /// replay a final flag, so callers guard on `!finals[rank]`.
    fn note_final<C: parmonc_mpi::Transport>(&mut self, comm: &C, rank: usize) {
        self.finals[rank] = true;
        let extended = self.live.extended[rank];
        let expected = self.config.quota(rank) + extended;
        let shortfall = expected
            .saturating_sub(self.state.count(rank))
            .min(extended);
        let deadline_passed = self
            .config
            .deadline
            .is_some_and(|d| self.start.elapsed() >= d);
        if shortfall > 0 && self.live.alive[rank] && !self.stopping && !deadline_passed {
            self.reassign(comm, rank, shortfall);
        }
    }

    /// Sweeps for ranks that have gone quiet past the liveness timeout
    /// and declares them lost. With `force`, every still-awaited rank
    /// is declared immediately — used when the transport reports all
    /// senders disconnected, so no further message can ever arrive.
    fn sweep<C: parmonc_mpi::Transport>(
        &mut self,
        comm: &C,
        force: bool,
        now: Instant,
    ) -> Result<(), ParmoncError> {
        let live = &self.live;
        let dead: Vec<usize> = (1..live.alive.len())
            .filter(|&m| {
                live.alive[m]
                    && !self.finals[m]
                    && (force
                        || now
                            .checked_duration_since(live.last_heard[m])
                            .is_some_and(|age| age >= self.config.liveness_timeout))
            })
            .collect();
        for m in dead {
            self.declare_lost(comm, m)?;
        }
        Ok(())
    }

    /// Declares `dead` lost: keeps its last cumulative subtotal (those
    /// realizations are complete and unbiased), reassigns the rest of
    /// its budget, and records the loss — or fails the whole run when
    /// the configuration demands that. Under a tree topology the dead
    /// rank may have been a relay: its still-live children are
    /// reparented straight to the collector so their subtotals keep
    /// flowing (cumulative semantics make anything buffered in the dead
    /// relay redundant with the child's next send).
    fn declare_lost<C: parmonc_mpi::Transport>(
        &mut self,
        comm: &C,
        dead: usize,
    ) -> Result<(), ParmoncError> {
        let received = self.state.count(dead);
        if self.config.fail_on_worker_loss {
            return Err(ParmoncError::WorkerLost {
                rank: dead,
                received_realizations: received,
            });
        }
        self.live.alive[dead] = false;
        self.live.lost.push(dead);
        // On an elastic-membership substrate (TCP), the dead rank's
        // lease must never be granted again: its remaining budget is
        // about to be reassigned, so a late joiner on this rank would
        // double-count.
        comm.retire_rank(dead);
        self.monitor.emit(
            Some(0),
            EventKind::WorkerLost {
                worker: dead,
                received_realizations: received,
            },
        );
        for child in self.plan.children(dead) {
            if self.live.alive[child] && !self.finals[child] {
                // Best-effort: a child that cannot be reached will fall
                // back to the collector on its own Disconnected error.
                let _ = comm.send(child, TAG_REPARENT, &0u64.to_le_bytes());
            }
        }
        let budget = (self.config.quota(dead) + self.live.extended[dead]).saturating_sub(received);
        if budget > 0 && !self.stopping {
            self.reassign(comm, dead, budget);
        }
        Ok(())
    }

    /// Splits `budget` realizations dropped by `from` as evenly as
    /// possible across surviving workers that are still simulating;
    /// shares that cannot be delivered (no survivors, or the survivor
    /// exited between the liveness check and the send) fall to the
    /// collector itself.
    fn reassign<C: parmonc_mpi::Transport>(&mut self, comm: &C, from: usize, budget: u64) {
        let live = &mut self.live;
        live.reassigned += budget;
        let survivors: Vec<usize> = (1..live.alive.len())
            .filter(|&m| m != from && live.alive[m] && !self.finals[m])
            .collect();
        let mut self_share = 0u64;
        if survivors.is_empty() {
            self_share = budget;
        } else {
            let per = budget / survivors.len() as u64;
            let mut rem = budget % survivors.len() as u64;
            for &m in &survivors {
                let share = per + u64::from(rem > 0);
                rem = rem.saturating_sub(1);
                if share == 0 {
                    continue;
                }
                match comm.send(m, TAG_EXTEND, &share.to_le_bytes()) {
                    Ok(()) => {
                        live.extended[m] += share;
                        self.monitor.emit(
                            Some(0),
                            EventKind::WorkReassigned {
                                from_worker: from,
                                to_worker: m,
                                realizations: share,
                            },
                        );
                    }
                    Err(_) => self_share += share,
                }
            }
        }
        if self_share > 0 {
            live.extended[0] += self_share;
            live.self_extra += self_share;
            self.monitor.emit(
                Some(0),
                EventKind::WorkReassigned {
                    from_worker: from,
                    to_worker: 0,
                    realizations: self_share,
                },
            );
        }
    }

    /// A periodic save-point, then error-controlled stopping: once the
    /// target error is met, every worker is told to stop. A worker
    /// that already sent its final and exited has dropped its inbox;
    /// that is not an error for a stop notification.
    fn average<C: parmonc_mpi::Transport>(&mut self, comm: &C) -> Result<(), ParmoncError> {
        let save_started = Instant::now();
        let (_, _, eps_max) = self.save_point()?;
        self.tracker.punch(CollectorActivity::Saving, save_started);
        self.last_average = Instant::now();
        if self.stopping || !self.config.target_abs_error.is_some_and(|t| eps_max <= t) {
            return Ok(());
        }
        for dest in 1..comm.size() {
            match comm.send(dest, TAG_STOP, &[]) {
                Ok(()) | Err(MpiError::Disconnected) => {}
                Err(e) => return Err(e.into()),
            }
        }
        self.stopping = true;
        Ok(())
    }

    /// Averages everything received so far by formula (5) and rewrites
    /// the result files — the paper's "periodically calculates and
    /// saves in files the subtotal results", and the run's final pass.
    /// Returns the total, its summary, and the `eps_max` that
    /// error-controlled stopping may trust.
    fn save_point(&mut self) -> Result<(MatrixAccumulator, MatrixSummary, f64), ParmoncError> {
        let sp_merge = self.spans.start(SpanPhase::CollectorMerge, None);
        let pass_started = Instant::now();
        let max_age = self.state.max_snapshot_age();
        let total = self.state.total()?;
        let summary = total.summary();
        let log = LogReport {
            sample_volume: total.count(),
            mean_time_per_realization: self.state.mean_time_per_realization(),
            eps_max: summary.eps_max,
            rho_max: summary.rho_max,
            sigma2_max: summary.sigma2_max,
            processors: self.config.processors,
            seqnum: self.config.seqnum,
        };
        let save_started = Instant::now();
        let sp_ck = self.spans.start(SpanPhase::Checkpoint, Some(sp_merge));
        self.dir.save_results(&summary, &log)?;
        self.dir.save_checkpoint(&total)?;
        self.spans.end(sp_ck, SpanPhase::Checkpoint);
        // A near-empty sample reports eps_max = 0 vacuously; never let
        // it trigger error-controlled stopping.
        let eps_max = if total.count() < 2 {
            f64::INFINITY
        } else {
            summary.eps_max
        };
        if self.monitor.is_enabled() {
            self.monitor.emit(
                Some(0),
                EventKind::SavePoint {
                    volume: total.count(),
                    duration_seconds: save_started.elapsed().as_secs_f64(),
                },
            );
            self.monitor.emit(
                Some(0),
                EventKind::AveragingPass {
                    volume: total.count(),
                    duration_seconds: pass_started.elapsed().as_secs_f64(),
                    eps_max: Some(summary.eps_max),
                    max_snapshot_age_seconds: max_age,
                },
            );
            self.convergence.observe(
                self.monitor,
                Some(0),
                total.count(),
                &summary.means,
                &summary.abs_errors,
                eps_max,
            );
        }
        self.spans.end(sp_merge, SpanPhase::CollectorMerge);
        Ok((total, summary, eps_max))
    }
}

/// Builds the collector's [`EventKind::CollectorSegment`] timeline,
/// coalescing consecutive segments of the same activity so that a tight
/// compute loop emits one segment, not one per realization.
struct SegmentTracker<'a> {
    monitor: &'a Monitor,
    /// Currently open segment: (activity, start in monitor time).
    current: Option<(CollectorActivity, f64)>,
}

impl<'a> SegmentTracker<'a> {
    fn new(monitor: &'a Monitor) -> Self {
        Self {
            monitor,
            current: None,
        }
    }

    fn emit_segment(&self, activity: CollectorActivity, start_s: f64, end_s: f64) {
        self.monitor.emit(
            Some(0),
            EventKind::CollectorSegment {
                activity,
                start_s,
                end_s,
            },
        );
    }

    /// The collector is now doing `activity`; a no-op if it already
    /// was, otherwise closes the open segment.
    fn switch(&mut self, activity: CollectorActivity) {
        if !self.monitor.is_enabled() {
            return;
        }
        let now = self.monitor.elapsed_s();
        match self.current {
            Some((open, _)) if open == activity => {}
            Some((open, started)) => {
                self.emit_segment(open, started, now);
                self.current = Some((activity, now));
            }
            None => self.current = Some((activity, now)),
        }
    }

    /// Records a completed `activity` span from `since` until now,
    /// truncating (or replacing) the open segment. Used for bursts —
    /// drains that actually received messages, save-point writes —
    /// whose start is only known in hindsight.
    fn punch(&mut self, activity: CollectorActivity, since: Instant) {
        if !self.monitor.is_enabled() {
            return;
        }
        let now = self.monitor.elapsed_s();
        let from = (now - since.elapsed().as_secs_f64()).max(0.0);
        if let Some((open, started)) = self.current.take() {
            if from > started {
                self.emit_segment(open, started, from);
            }
        }
        self.emit_segment(activity, from, now);
    }

    /// Closes the open segment, if any, at the current time.
    fn finish(&mut self) {
        if let Some((open, started)) = self.current.take() {
            self.emit_segment(open, started, self.monitor.elapsed_s());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::realize::RealizeFn;
    use std::path::PathBuf;

    fn tempdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("parmonc-runner-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn uniform_mean() -> RealizeFn<impl Fn(&mut parmonc_rng::RealizationStream, &mut [f64])> {
        RealizeFn::new(|rng, out| {
            for o in out.iter_mut() {
                *o = rng.next_f64();
            }
        })
    }

    #[test]
    fn single_processor_run_estimates_uniform_mean() {
        let dir = tempdir("single");
        let report = Parmonc::builder(2, 2)
            .max_sample_volume(4000)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        assert_eq!(report.total_volume, 4000);
        assert_eq!(report.new_volume, 4000);
        assert_eq!(report.resumed_volume, 0);
        assert_eq!(report.worker_volumes, vec![4000]);
        for m in &report.summary.means {
            assert!((m - 0.5).abs() < 0.03, "mean {m}");
        }
        assert!(report.summary.eps_max > 0.0);
    }

    #[test]
    fn multi_processor_volume_is_exact() {
        let dir = tempdir("multi");
        let report = Parmonc::builder(1, 1)
            .max_sample_volume(1003)
            .processors(4)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        assert_eq!(report.total_volume, 1003);
        assert_eq!(report.worker_volumes.iter().sum::<u64>(), 1003);
        assert_eq!(report.worker_volumes.len(), 4);
        // Quota balancing: 251, 251, 251, 250.
        assert_eq!(*report.worker_volumes.iter().max().unwrap(), 251);
    }

    #[test]
    fn parallel_run_matches_merged_streams_deterministically() {
        // The estimate must be a pure function of (seqnum, M, maxsv):
        // run twice and compare bitwise.
        let d1 = tempdir("det1");
        let d2 = tempdir("det2");
        let r1 = Parmonc::builder(2, 1)
            .max_sample_volume(500)
            .processors(3)
            .seqnum(5)
            .output_dir(&d1)
            .run(uniform_mean())
            .unwrap();
        let r2 = Parmonc::builder(2, 1)
            .max_sample_volume(500)
            .processors(3)
            .seqnum(5)
            .output_dir(&d2)
            .run(uniform_mean())
            .unwrap();
        assert_eq!(r1.summary.means, r2.summary.means);
        assert_eq!(r1.summary.variances, r2.summary.variances);
    }

    #[test]
    fn files_exist_after_run() {
        let dir = tempdir("files");
        let report = Parmonc::builder(2, 2)
            .max_sample_volume(100)
            .processors(2)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        let rd = &report.results_dir;
        assert!(rd.func_path().is_file());
        assert!(rd.func_ci_path().is_file());
        assert!(rd.func_log_path().is_file());
        assert!(rd.checkpoint_path().is_file());
        assert!(rd.journal_path().is_file());
        // Worker files are folded into the checkpoint on clean exit.
        assert!(rd.load_worker_subtotals().unwrap().is_empty());
    }

    #[test]
    fn resume_accumulates_previous_results() {
        let dir = tempdir("resume");
        let first = Parmonc::builder(1, 1)
            .max_sample_volume(600)
            .processors(2)
            .seqnum(0)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        let second = Parmonc::builder(1, 1)
            .max_sample_volume(400)
            .processors(2)
            .seqnum(1)
            .resume(Resume::Resume)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        assert_eq!(second.resumed_volume, 600);
        assert_eq!(second.new_volume, 400);
        assert_eq!(second.total_volume, 1000);
        // The resumed mean is the volume-weighted average of both runs.
        let expected = (first.summary.means[0] * 600.0
            + (second.total_volume as f64 * second.summary.means[0]
                - first.summary.means[0] * 600.0))
            / 1000.0;
        assert!((second.summary.means[0] - expected).abs() < 1e-12);
        // And the error bound shrank with the larger volume.
        assert!(second.summary.eps_max < first.summary.eps_max);
    }

    #[test]
    fn resume_requires_existing_results() {
        let dir = tempdir("resume-missing");
        let err = Parmonc::builder(1, 1)
            .max_sample_volume(10)
            .resume(Resume::Resume)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap_err();
        assert!(matches!(err, ParmoncError::NothingToResume { .. }));
    }

    #[test]
    fn resume_rejects_reused_seqnum() {
        let dir = tempdir("resume-seqnum");
        Parmonc::builder(1, 1)
            .max_sample_volume(10)
            .seqnum(3)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        let err = Parmonc::builder(1, 1)
            .max_sample_volume(10)
            .seqnum(3)
            .resume(Resume::Resume)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap_err();
        assert!(matches!(err, ParmoncError::SeqnumAlreadyUsed { seqnum: 3 }));
    }

    #[test]
    fn resume_rejects_shape_change() {
        let dir = tempdir("resume-shape");
        Parmonc::builder(2, 2)
            .max_sample_volume(10)
            .seqnum(0)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        let err = Parmonc::builder(3, 2)
            .max_sample_volume(10)
            .seqnum(1)
            .resume(Resume::Resume)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap_err();
        assert!(matches!(err, ParmoncError::ResumeShapeMismatch { .. }));
    }

    #[test]
    fn every_realization_exchange_mode_works() {
        let dir = tempdir("strict");
        let report = Parmonc::builder(1, 2)
            .max_sample_volume(300)
            .processors(4)
            .exchange(Exchange::EveryRealization)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        assert_eq!(report.total_volume, 300);
        for m in &report.summary.means {
            assert!((m - 0.5).abs() < 0.1);
        }
    }

    #[test]
    fn deadline_stops_early() {
        let dir = tempdir("deadline");
        let slow = RealizeFn::new(|rng, out| {
            std::thread::sleep(Duration::from_millis(5));
            out[0] = rng.next_f64();
        });
        let report = Parmonc::builder(1, 1)
            .max_sample_volume(1_000_000)
            .processors(2)
            .deadline(Duration::from_millis(150))
            .output_dir(&dir)
            .run(slow)
            .unwrap();
        assert!(report.new_volume > 0, "some realizations completed");
        assert!(
            report.new_volume < 1_000_000,
            "deadline must stop the run early"
        );
        // The files still reflect what was simulated.
        assert!(report.results_dir.checkpoint_path().is_file());
    }

    #[test]
    fn mean_time_per_realization_is_positive() {
        let dir = tempdir("tau");
        let report = Parmonc::builder(1, 1)
            .max_sample_volume(200)
            .processors(2)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        assert!(report.mean_time_per_realization >= 0.0);
        assert!(report.elapsed > Duration::ZERO);
    }

    #[test]
    fn error_controlled_stopping_halts_before_maxsv() {
        // eps for U(0,1) is 3*sqrt(1/12)/sqrt(L) ≈ 0.866/sqrt(L):
        // target 0.02 needs L ≈ 1900 — far below maxsv = 10^6.
        let dir = tempdir("error-stop");
        let report = Parmonc::builder(1, 1)
            .max_sample_volume(1_000_000)
            .processors(2)
            .target_abs_error(0.02)
            .pass_period(Duration::ZERO)
            .averaging_period(Duration::ZERO)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        assert!(
            report.new_volume < 1_000_000,
            "must stop early, got {}",
            report.new_volume
        );
        assert!(
            report.new_volume >= 1_000,
            "needs enough data for the target"
        );
        assert!(
            report.summary.eps_max <= 0.021,
            "target met: eps {}",
            report.summary.eps_max
        );
    }

    #[test]
    fn error_target_unreachable_runs_to_maxsv() {
        let dir = tempdir("error-stop-never");
        let report = Parmonc::builder(1, 1)
            .max_sample_volume(2_000)
            .processors(2)
            .target_abs_error(1e-12)
            .pass_period(Duration::ZERO)
            .averaging_period(Duration::ZERO)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        assert_eq!(report.new_volume, 2_000);
    }

    #[test]
    fn invalid_error_target_rejected() {
        let err = Parmonc::builder(1, 1)
            .max_sample_volume(10)
            .target_abs_error(0.0)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("target_abs_error"));
    }

    #[test]
    fn worker_crash_degrades_gracefully() {
        use parmonc_faults::FaultPlan;
        let dir = tempdir("crash");
        let report = Parmonc::builder(1, 1)
            .max_sample_volume(2000)
            .processors(4)
            .faults(FaultPlan::new(42).crash_rank(2, 10))
            .heartbeat_period(Duration::from_millis(10))
            .liveness_timeout(Duration::from_millis(100))
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        assert_eq!(report.lost_workers, vec![2]);
        assert_eq!(report.reassigned_realizations, 500);
        // The dead rank's whole budget was made up elsewhere.
        assert_eq!(report.new_volume, 2000);
        assert!((report.summary.means[0] - 0.5).abs() < 0.05);
    }

    #[test]
    fn worker_loss_can_fail_the_run() {
        use parmonc_faults::FaultPlan;
        let dir = tempdir("crash-strict");
        let err = Parmonc::builder(1, 1)
            .max_sample_volume(2000)
            .processors(4)
            .faults(FaultPlan::new(42).crash_rank(2, 10))
            .heartbeat_period(Duration::from_millis(10))
            .liveness_timeout(Duration::from_millis(100))
            .fail_on_worker_loss()
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap_err();
        assert!(matches!(err, ParmoncError::WorkerLost { rank: 2, .. }));
    }

    #[test]
    fn crash_run_emits_fault_events() {
        use parmonc_faults::FaultPlan;
        let dir = tempdir("crash-monitored");
        let report = Parmonc::builder(1, 1)
            .max_sample_volume(1200)
            .processors(3)
            .faults(FaultPlan::new(9).crash_rank(1, 5))
            .heartbeat_period(Duration::from_millis(10))
            .liveness_timeout(Duration::from_millis(100))
            .monitor()
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        let summary = report.monitor.expect("monitored run");
        assert_eq!(summary.workers_lost, 1);
        assert!(summary.faults_injected >= 1, "rank_crash must be recorded");
        assert_eq!(summary.reassigned_realizations, 400);
        assert_eq!(report.new_volume, 1200);
    }

    #[test]
    fn message_drops_do_not_bias_the_estimate() {
        use parmonc_faults::FaultPlan;
        let dir = tempdir("drops");
        let report = Parmonc::builder(1, 1)
            .max_sample_volume(2000)
            .processors(4)
            .exchange(Exchange::EveryRealization)
            .faults(FaultPlan::new(1234).drop_fraction(0.05))
            .heartbeat_period(Duration::from_millis(10))
            .liveness_timeout(Duration::from_millis(100))
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        // Cumulative subtotals make drops harmless; lost finals are
        // detected and their shortfall re-simulated, so the volume can
        // only meet or (via duplicated extensions) exceed the target.
        assert!(
            report.new_volume >= 2000,
            "volume {} must reach the target",
            report.new_volume
        );
        assert!((report.summary.means[0] - 0.5).abs() < 0.05);
    }

    #[test]
    fn m1_equals_sum_of_stream_contributions() {
        // With M=2 the estimate uses processor streams 0 and 1;
        // verify against manually accumulating those same streams.
        let dir = tempdir("crosscheck");
        let report = Parmonc::builder(1, 1)
            .max_sample_volume(100)
            .processors(2)
            .seqnum(7)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();

        let h = StreamHierarchy::default();
        let mut manual = MatrixAccumulator::new(1, 1).unwrap();
        for rank in 0..2u64 {
            for r in 0..50u64 {
                let mut s = h.realization_stream(StreamId::new(7, rank, r)).unwrap();
                manual.add(&[s.next_f64()]).unwrap();
            }
        }
        let expected = manual.summary();
        assert!((report.summary.means[0] - expected.means[0]).abs() < 1e-15);
    }

    #[test]
    fn a_rank_panic_is_reported_with_its_rank_and_message() {
        let dir = tempdir("panic");
        let err = Parmonc::builder(1, 1)
            .max_sample_volume(300)
            .processors(3)
            .output_dir(&dir)
            .run(RealizeFn::new(|_, _| panic!("the routine gave up")))
            .unwrap_err();
        match err {
            ParmoncError::Mpi(MpiError::RankPanicked { rank, message }) => {
                assert_eq!(rank, 0);
                assert!(message.contains("the routine gave up"), "{message}");
            }
            other => panic!("expected rank 0's panic, got {other}"),
        }
    }

    #[test]
    fn rank0_absorbs_a_lost_ranks_budget_on_its_own_stream() {
        // Rank 1 dies after 10 realizations; the liveness timeout is far
        // longer than rank 0 needs for its own 100, so the lost budget
        // (90) lands on rank 0 after its quota is done and continues on
        // its own streams 100..190.
        use parmonc_faults::FaultPlan;
        let dir = tempdir("rank0-absorbs");
        let report = Parmonc::builder(1, 1)
            .max_sample_volume(200)
            .processors(2)
            .seqnum(7)
            .exchange(Exchange::EveryRealization)
            .faults(FaultPlan::new(5).crash_rank(1, 10))
            .heartbeat_period(Duration::from_millis(20))
            .liveness_timeout(Duration::from_millis(600))
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        assert_eq!(report.lost_workers, vec![1]);
        assert_eq!(report.worker_volumes, vec![190, 10]);

        // Serial recomputation: each rank's streams accumulated on
        // their own, then merged in rank order like formula (5).
        let h = StreamHierarchy::default();
        let mut total = MatrixAccumulator::new(1, 1).unwrap();
        for (rank, volume) in [(0u64, 190u64), (1, 10)] {
            let mut acc = MatrixAccumulator::new(1, 1).unwrap();
            for r in 0..volume {
                let mut s = h.realization_stream(StreamId::new(7, rank, r)).unwrap();
                acc.add(&[s.next_f64()]).unwrap();
            }
            total.merge(&acc).unwrap();
        }
        let expected = total.summary();
        assert_eq!(report.summary, expected);
        let func = std::fs::read_to_string(report.results_dir.func_path()).unwrap();
        assert_eq!(func, parmonc_stats::report::render_func(&expected));
    }

    #[test]
    fn rank0_span_vocabulary_is_pinned() {
        use parmonc_obs::schema::parse_line;
        use std::collections::{BTreeMap, BTreeSet};
        let dir = tempdir("span-vocabulary");
        let report = Parmonc::builder(1, 2)
            .max_sample_volume(300)
            .processors(3)
            .exchange(Exchange::EveryRealization)
            .averaging_period(Duration::ZERO)
            .monitor()
            .trace_spans()
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        let text = std::fs::read_to_string(report.results_dir.run_metrics_path()).unwrap();
        let mut phases: BTreeMap<usize, BTreeSet<&'static str>> = BTreeMap::new();
        let mut opened: BTreeMap<u64, SpanPhase> = BTreeMap::new();
        let mut rank0_checkpoint_parents = Vec::new();
        for line in text.lines() {
            let ev = parse_line(line).unwrap();
            if let EventKind::SpanStarted {
                span,
                parent,
                phase,
            } = ev.kind
            {
                let rank = ev.rank.expect("spans carry their rank");
                phases.entry(rank).or_default().insert(phase.as_str());
                opened.insert(span, phase);
                if rank == 0 && phase == SpanPhase::Checkpoint {
                    rank0_checkpoint_parents.push(parent);
                }
            }
        }
        assert_eq!(
            phases[&0],
            BTreeSet::from(["stream_position", "collector_merge", "checkpoint"])
        );
        assert!(!rank0_checkpoint_parents.is_empty());
        for parent in rank0_checkpoint_parents {
            let parent = parent.expect("a rank-0 checkpoint has a parent");
            assert_eq!(opened.get(&parent), Some(&SpanPhase::CollectorMerge));
        }
        for worker in [1, 2] {
            assert!(
                phases[&worker].contains("realization_batch"),
                "rank {worker}"
            );
            assert!(phases[&worker].contains("subtotal_send"), "rank {worker}");
        }
    }
}
