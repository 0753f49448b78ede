//! The traced run's per-layer ledger and the `simcluster` calibration.
//!
//! A traced run (`.monitor().trace_spans()`) writes every span and
//! collector segment to `monitor/run_metrics.jsonl`; this module reads
//! that file back and splits the run's m × wall rank-seconds into
//! layers:
//!
//! | item | rank-seconds |
//! |---|---|
//! | user routine | Σ compute seconds of all ranks (the report's τ × volume) |
//! | loop | worker `realization_batch` self time + rank 0 `computing` − user routine, + `stream_position` |
//! | send | worker `subtotal_send` self time |
//! | checkpoint | worker `checkpoint` self time |
//! | collector | rank 0 `receiving` + `saving` segments |
//! | waiting | rank 0 `waiting` segments |
//! | unattributed | m × wall − all of the above |
//!
//! The items add up to m × wall by construction; what the ledger shows
//! is how little is left unattributed. Every number here is *traced*:
//! tracing itself inflates the strict workloads, by
//! `obs.trace_overhead_pct`.

use std::collections::BTreeMap;
use std::path::Path;

use parmonc::messages::Subtotal;
use parmonc::{Exchange, RunReport};
use parmonc_obs::schema::parse_line;
use parmonc_obs::{EventKind, MonitorSummary};
use parmonc_simcluster::{simulate, ClusterConfig, ExchangePolicy, QuotaMode};

use crate::workload::{Backend, Workload, NCOL, NROW, PROCESSORS};

/// Count, total and self seconds of one span phase on one side.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanStats {
    /// Spans closed.
    pub count: u64,
    /// Summed durations.
    pub seconds: f64,
    /// Summed durations minus the time their child spans cover.
    pub self_seconds: f64,
}

/// Span totals keyed by `(on a worker rank, phase)`.
pub type Spans = BTreeMap<(bool, &'static str), SpanStats>;

/// Reads a run trace and totals its spans per side and phase.
///
/// # Errors
///
/// An unreadable file or a line the event schema rejects.
pub fn read_spans(path: &Path) -> Result<Spans, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    // id → (worker side, phase, start, parent)
    let mut open: BTreeMap<u64, (bool, &'static str, f64, Option<u64>)> = BTreeMap::new();
    // id → (worker side, phase, duration, parent)
    let mut closed: Vec<(u64, bool, &'static str, f64, Option<u64>)> = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let event = parse_line(line).map_err(|e| format!("{}: {e}", path.display()))?;
        let worker = event.rank.is_some_and(|r| r != 0);
        match event.kind {
            EventKind::SpanStarted {
                span,
                parent,
                phase,
            } => {
                open.insert(span, (worker, phase.as_str(), event.time_s, parent));
            }
            EventKind::SpanEnded { span, .. } => {
                if let Some((worker, phase, start, parent)) = open.remove(&span) {
                    closed.push((span, worker, phase, (event.time_s - start).max(0.0), parent));
                }
            }
            _ => {}
        }
    }
    let mut covered: BTreeMap<u64, f64> = BTreeMap::new();
    for &(_, _, _, duration, parent) in &closed {
        if let Some(parent) = parent.filter(|&p| p != 0) {
            *covered.entry(parent).or_insert(0.0) += duration;
        }
    }
    let mut spans = Spans::new();
    for (id, worker, phase, duration, _) in closed {
        let stats = spans.entry((worker, phase)).or_default();
        stats.count += 1;
        stats.seconds += duration;
        stats.self_seconds += duration - covered.get(&id).copied().unwrap_or(0.0);
    }
    Ok(spans)
}

fn span(spans: &Spans, worker: bool, phase: &'static str) -> SpanStats {
    spans.get(&(worker, phase)).copied().unwrap_or_default()
}

fn both_sides(spans: &Spans, phase: &'static str) -> SpanStats {
    let (a, b) = (span(spans, false, phase), span(spans, true, phase));
    SpanStats {
        count: a.count + b.count,
        seconds: a.seconds + b.seconds,
        self_seconds: a.self_seconds + b.self_seconds,
    }
}

/// The ledger's rows, in print order.
pub const LEDGER_ROWS: [&str; 7] = [
    "user_routine",
    "loop",
    "send",
    "checkpoint",
    "collector",
    "waiting",
    "unattributed",
];

/// Seconds rank 0 spent in one collector activity (`collector_segment`s).
fn collector_seconds(monitor: &MonitorSummary, activity: &str) -> f64 {
    monitor
        .collector_seconds
        .get(activity)
        .copied()
        .unwrap_or(0.0)
}

/// One traced run's rank-seconds, split by layer.
#[derive(Debug, Clone, Copy)]
pub struct Ledger {
    /// m × traced wall.
    pub total: f64,
    /// The user routine on every rank.
    pub user: f64,
    /// Runtime bookkeeping around each realization on every rank.
    pub runtime_loop: f64,
    /// Workers shipping subtotals.
    pub send: f64,
    /// Workers writing their subtotal files.
    pub checkpoint: f64,
    /// Rank 0 receiving, folding and saving.
    pub collector: f64,
    /// Rank 0 idle, waiting for the last subtotals.
    pub waiting: f64,
}

impl Ledger {
    /// What no span or segment covers.
    #[must_use]
    pub fn unattributed(&self) -> f64 {
        self.total
            - (self.user
                + self.runtime_loop
                + self.send
                + self.checkpoint
                + self.collector
                + self.waiting)
    }

    /// Rank-seconds per row of [`LEDGER_ROWS`], closing to `total`.
    #[must_use]
    pub fn rows(&self) -> [(&'static str, f64); 7] {
        let seconds = [
            self.user,
            self.runtime_loop,
            self.send,
            self.checkpoint,
            self.collector,
            self.waiting,
            self.unattributed(),
        ];
        std::array::from_fn(|i| (LEDGER_ROWS[i], seconds[i]))
    }
}

/// Builds the ledger of a traced run of `wall_s` seconds.
#[must_use]
pub fn ledger(report: &RunReport, wall_s: f64, spans: &Spans) -> Ledger {
    let monitor = report.monitor.clone().unwrap_or_default();
    let collector = |activity| collector_seconds(&monitor, activity);
    let user = report.mean_time_per_realization * report.new_volume as f64;
    let user_rank0 = monitor.ranks.get(&0).map_or_else(
        || user * report.worker_volumes[0] as f64 / report.new_volume.max(1) as f64,
        |r| r.compute_seconds,
    );
    let worker_batch = span(spans, true, "realization_batch").self_seconds;
    Ledger {
        total: PROCESSORS as f64 * wall_s,
        user,
        runtime_loop: worker_batch - (user - user_rank0) + collector("computing") - user_rank0
            + both_sides(spans, "stream_position").seconds,
        send: span(spans, true, "subtotal_send").self_seconds,
        checkpoint: span(spans, true, "checkpoint").self_seconds,
        collector: collector("receiving") + collector("saving"),
        waiting: collector("waiting"),
    }
}

/// Per-layer metrics of one traced run of `wall_s` seconds.
#[must_use]
pub fn traced_metrics(report: &RunReport, wall_s: f64, spans: &Spans) -> Vec<(&'static str, f64)> {
    let monitor = report.monitor.clone().unwrap_or_default();
    let volume = report.new_volume.max(1) as f64;
    let per_call_us = |s: SpanStats| {
        if s.count == 0 {
            0.0
        } else {
            1e6 * s.seconds / s.count as f64
        }
    };
    let collector_wall: f64 = monitor.collector_seconds.values().sum();
    let share = |activity| {
        if collector_wall > 0.0 {
            collector_seconds(&monitor, activity) / collector_wall
        } else {
            0.0
        }
    };
    let saturation_tau_us = if monitor.messages_received > 0 {
        1e6 * collector_seconds(&monitor, "receiving") / monitor.messages_received as f64
            * (PROCESSORS - 1) as f64
    } else {
        0.0
    };
    let ledger = ledger(report, wall_s, spans);
    let of_total = |x: f64| x / ledger.total;
    vec![
        (
            "runner.user_routine_us",
            1e6 * report.mean_time_per_realization,
        ),
        (
            "runner.send_us",
            per_call_us(both_sides(spans, "subtotal_send")),
        ),
        (
            "runner.collector_merge_us",
            per_call_us(both_sides(spans, "collector_merge")),
        ),
        (
            "runner.checkpoint_us",
            per_call_us(both_sides(spans, "checkpoint")),
        ),
        ("runner.collector.computing_share", share("computing")),
        ("runner.collector.receiving_share", share("receiving")),
        ("runner.collector.saving_share", share("saving")),
        ("runner.collector.waiting_share", share("waiting")),
        ("runner.saturation_tau_us", saturation_tau_us),
        ("runner.ledger.user_routine_share", of_total(ledger.user)),
        ("runner.ledger.loop_share", of_total(ledger.runtime_loop)),
        ("runner.ledger.send_share", of_total(ledger.send)),
        (
            "runner.ledger.checkpoint_share",
            of_total(ledger.checkpoint),
        ),
        ("runner.ledger.collector_share", of_total(ledger.collector)),
        ("runner.ledger.waiting_share", of_total(ledger.waiting)),
        ("runner.unattributed_share", of_total(ledger.unattributed())),
        ("obs.events_per_realization", monitor.events as f64 / volume),
        (
            "ipc.frames_per_realization",
            (monitor.wire_frames_in + monitor.wire_frames_out) as f64 / volume,
        ),
        ("ipc.torn_frames", monitor.torn_frames as f64),
        ("ipc.reconnect_dials", monitor.reconnect_dials as f64),
    ]
}

/// Predicts a run's wall time with `simcluster`, from the measured τ
/// and the off-path per-layer costs (`probes`, by metric name).
#[must_use]
pub fn predict_wall(
    workload: &Workload,
    volume: u64,
    tau_s: f64,
    probes: &BTreeMap<&'static str, f64>,
) -> f64 {
    let us = |name: &str| probes.get(name).copied().unwrap_or(0.0) * 1e-6;
    let (one_way, framing) = match workload.backend {
        Backend::Threads => (us("mpi.send_recv_us"), 0.0),
        Backend::Tcp => (us("ipc.tcp_rtt_us") / 2.0, us("ipc.frame_read_us")),
        Backend::Processes => (us("ipc.unix_rtt_us") / 2.0, us("ipc.frame_read_us")),
    };
    let config = ClusterConfig {
        processors: PROCESSORS,
        realization_seconds: tau_s,
        speeds: Vec::new(),
        message_bytes: Subtotal::encoded_len(NROW, NCOL) as f64,
        // The round trips were timed at the full 32 KB shape, so the
        // measured one-way time is the whole transfer.
        latency_seconds: one_way,
        bandwidth_bytes_per_sec: 1e15,
        receive_cost_seconds: us("messages.decode_us") + framing,
        save_cost_seconds: us("files.save_checkpoint_us") + us("files.save_results_us"),
        exchange: match workload.exchange {
            Exchange::EveryRealization => ExchangePolicy::EveryRealization,
            Exchange::Periodic => ExchangePolicy::Periodic {
                period: crate::workload::PASS_PERIOD.as_secs_f64(),
            },
        },
        quota_mode: QuotaMode::Uniform,
    };
    simulate(&config, volume).t_comp
}
