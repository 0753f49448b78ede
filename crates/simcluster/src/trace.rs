//! Event traces of simulated runs: a Gantt-style record of what every
//! processor was doing when, plus derived utilization statistics.
//!
//! The plain [`simulate`](crate::sim::simulate) returns only the
//! aggregate `T_comp`; [`simulate_traced`] additionally records the
//! collector's activity segments and per-worker completion profile, so
//! the EXPERIMENTS.md ablations can show *why* a configuration is slow
//! (collector saturation vs straggling workers) rather than just that
//! it is.
//!
//! [`simulate_monitored`] goes one further: it streams the run through
//! a [`parmonc_obs::Monitor`] using the *same* event schema as the
//! real-thread runner (`docs/observability.md`), with virtual-time
//! stamps. A simulated and a real trace of the same configuration are
//! therefore directly comparable, kind for kind.

use parmonc_obs::{CollectorActivity, EventKind, Monitor, RunMode};

use crate::event::EventQueue;
use crate::model::ClusterConfig;
use crate::sim::SimResult;

/// One contiguous activity segment on processor 0's timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Segment start, virtual seconds.
    pub start: f64,
    /// Segment end, virtual seconds.
    pub end: f64,
    /// What was happening.
    pub activity: CollectorActivity,
}

impl Segment {
    /// Segment duration.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A traced simulation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedRun {
    /// The aggregate result (identical to [`crate::sim::simulate`]).
    pub result: SimResult,
    /// Processor 0's timeline, in order, gap-free from 0 to `t_comp`.
    pub collector_timeline: Vec<Segment>,
}

impl TracedRun {
    /// Total time processor 0 spent in the given activity.
    #[must_use]
    pub fn time_in(&self, activity: CollectorActivity) -> f64 {
        self.collector_timeline
            .iter()
            .filter(|s| s.activity == activity)
            .map(Segment::duration)
            .sum()
    }

    /// Fraction of the run processor 0 spent computing realizations
    /// (its "useful" utilization; the paper's optimality argument is
    /// that this stays ≈ 1).
    #[must_use]
    pub fn compute_utilization(&self) -> f64 {
        self.time_in(CollectorActivity::Computing) / self.result.t_comp
    }
}

/// Like [`crate::sim::simulate`], but records processor 0's timeline.
///
/// # Panics
///
/// Panics under the same conditions as `simulate`.
#[must_use]
pub fn simulate_traced(config: &ClusterConfig, total: u64) -> TracedRun {
    simulate_monitored(config, total, &Monitor::disabled())
}

/// Age of the stalest per-rank snapshot at virtual time `now`;
/// `None` until at least one rank has reported (`NaN` = never).
fn max_snapshot_age(last_update: &[f64], now: f64) -> Option<f64> {
    last_update
        .iter()
        .filter(|u| !u.is_nan())
        .map(|u| now - u)
        .fold(None, |acc, age| Some(acc.map_or(age, |m: f64| m.max(age))))
}

/// Like [`simulate_traced`], but additionally streams the run through
/// `monitor` as schema events (virtual-time stamps, `mode =
/// "simcluster"`). With a disabled monitor this is exactly
/// `simulate_traced`; the returned [`SimResult`] is bit-identical
/// either way.
///
/// Emission points mirror the real runner: workers emit
/// `message_sent` when a subtotal leaves and `realizations` when their
/// quota completes; the collector emits `message_received` (with queue
/// depth) per folded message, `queue_high_water` on new depth maxima,
/// `averaging_pass` + `save_point` per save, and `collector_segment`
/// for its timeline. A `run_completed` event closes the trace at
/// `T_comp`.
///
/// # Panics
///
/// Panics under the same conditions as `simulate`.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn simulate_monitored(config: &ClusterConfig, total: u64, monitor: &Monitor) -> TracedRun {
    config.validate();
    assert!(total > 0, "need at least one realization");

    let m = config.processors;
    monitor.emit_at(
        0.0,
        None,
        EventKind::RunStarted {
            mode: RunMode::SimCluster,
            processors: m,
            max_sample_volume: total,
            seqnum: None,
            nrow: None,
            ncol: None,
            transport: None,
        },
    );

    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let bytes_per_msg = config.message_bytes.max(0.0) as u64;
    let mut worker_finish = vec![0.0f64; m];
    let mut messages = 0u64;
    let mut arrivals: EventQueue<(usize, u64, u32)> = EventQueue::new();
    for (rank, finish) in worker_finish.iter_mut().enumerate().skip(1) {
        let quota = config.quota(rank, total);
        *finish = quota as f64 * config.realization_duration(rank);
        for send in crate::sim::worker_arrival_schedule(config, rank, quota) {
            if monitor.is_enabled() {
                // The message left the worker one transfer earlier.
                monitor.emit_at(
                    (send.arrival - config.transfer_seconds()).max(0.0),
                    Some(rank),
                    EventKind::MessageSent {
                        dest: 0,
                        tag: send.tag,
                        bytes: bytes_per_msg,
                    },
                );
            }
            arrivals.push(send.arrival, (rank, send.covered, send.tag));
            messages += 1;
        }
        if monitor.is_enabled() {
            monitor.emit_at(
                *finish,
                Some(rank),
                EventKind::Realizations {
                    completed: quota,
                    compute_seconds: *finish,
                },
            );
        }
    }

    let q0 = config.quota(0, total);
    let d0 = config.realization_duration(0);
    let mut t = 0.0f64;
    let mut overhead = 0.0f64;
    let mut timeline: Vec<Segment> = Vec::new();
    // Realizations whose results the collector holds, per rank
    // (cumulative message semantics), and when each rank's snapshot
    // last changed (NaN = never).
    let mut covered = vec![0u64; m];
    let mut last_update = vec![f64::NAN; m];
    let mut high_water = 0u64;

    let push = |timeline: &mut Vec<Segment>, start: f64, end: f64, activity| {
        if end > start {
            monitor.emit_at(
                end,
                Some(0),
                EventKind::CollectorSegment {
                    activity,
                    start_s: start,
                    end_s: end,
                },
            );
            timeline.push(Segment {
                start,
                end,
                activity,
            });
        }
    };

    let drain = |t: &mut f64,
                 overhead: &mut f64,
                 timeline: &mut Vec<Segment>,
                 arrivals: &mut EventQueue<(usize, u64, u32)>,
                 covered: &mut [u64],
                 last_update: &mut [f64],
                 high_water: &mut u64| {
        let mut drained = false;
        let recv_start = *t;
        while arrivals.peek_time().is_some_and(|a| a <= *t) {
            if monitor.is_enabled() {
                let depth = arrivals.pending_at(*t) as u64;
                if depth > *high_water {
                    *high_water = depth;
                    monitor.emit_at(*t, Some(0), EventKind::QueueHighWater { depth });
                }
            }
            let (_, (rank, cov, tag)) = arrivals.pop().expect("peeked above");
            *t += config.receive_cost_seconds;
            *overhead += config.receive_cost_seconds;
            covered[rank] = covered[rank].max(cov);
            last_update[rank] = *t;
            drained = true;
            if monitor.is_enabled() {
                monitor.emit_at(
                    *t,
                    Some(0),
                    EventKind::MessageReceived {
                        source: rank,
                        tag,
                        bytes: bytes_per_msg,
                        queue_depth: arrivals.pending_at(*t) as u64,
                    },
                );
            }
        }
        if drained {
            push(timeline, recv_start, *t, CollectorActivity::Receiving);
            let save_start = *t;
            *t += config.save_cost_seconds;
            *overhead += config.save_cost_seconds;
            push(timeline, save_start, *t, CollectorActivity::Saving);
            if monitor.is_enabled() {
                let volume: u64 = covered.iter().sum();
                monitor.emit_at(
                    *t,
                    Some(0),
                    EventKind::SavePoint {
                        volume,
                        duration_seconds: config.save_cost_seconds,
                    },
                );
                // The virtual model charges the subtotal fold to each
                // receive; the pass itself costs one save.
                monitor.emit_at(
                    *t,
                    Some(0),
                    EventKind::AveragingPass {
                        volume,
                        duration_seconds: config.save_cost_seconds,
                        eps_max: None,
                        max_snapshot_age_seconds: max_snapshot_age(last_update, *t),
                    },
                );
                // The virtual model carries no estimate values, but it
                // reports the same metrics-plane cadence as the real
                // runner: one snapshot per subtotal merge.
                monitor.emit_at(
                    *t,
                    Some(0),
                    EventKind::MetricsSnapshot {
                        functional: 0,
                        n: volume,
                        mean: None,
                        err: None,
                    },
                );
            }
        }
    };

    for i in 0..q0 {
        let start = t;
        t += d0;
        covered[0] = i + 1;
        last_update[0] = t;
        push(&mut timeline, start, t, CollectorActivity::Computing);
        drain(
            &mut t,
            &mut overhead,
            &mut timeline,
            &mut arrivals,
            &mut covered,
            &mut last_update,
            &mut high_water,
        );
    }
    worker_finish[0] = t;
    if monitor.is_enabled() {
        monitor.emit_at(
            worker_finish[0],
            Some(0),
            EventKind::Realizations {
                completed: q0,
                compute_seconds: q0 as f64 * d0,
            },
        );
    }

    while let Some(next) = arrivals.peek_time() {
        if next > t {
            push(&mut timeline, t, next, CollectorActivity::Waiting);
            t = next;
        }
        drain(
            &mut t,
            &mut overhead,
            &mut timeline,
            &mut arrivals,
            &mut covered,
            &mut last_update,
            &mut high_water,
        );
    }

    let save_start = t;
    t += config.save_cost_seconds;
    overhead += config.save_cost_seconds;
    push(&mut timeline, save_start, t, CollectorActivity::Saving);
    if monitor.is_enabled() {
        let volume: u64 = covered.iter().sum();
        monitor.emit_at(
            t,
            Some(0),
            EventKind::SavePoint {
                volume,
                duration_seconds: config.save_cost_seconds,
            },
        );
        monitor.emit_at(
            t,
            Some(0),
            EventKind::AveragingPass {
                volume,
                duration_seconds: config.save_cost_seconds,
                eps_max: None,
                max_snapshot_age_seconds: max_snapshot_age(&last_update, t),
            },
        );
        monitor.emit_at(
            t,
            Some(0),
            EventKind::MetricsSnapshot {
                functional: 0,
                n: volume,
                mean: None,
                err: None,
            },
        );
        monitor.emit_at(
            t,
            None,
            EventKind::RunCompleted {
                realizations: total,
                t_comp_seconds: t,
                messages,
                bytes: messages * bytes_per_msg,
            },
        );
        monitor.flush();
    }

    TracedRun {
        result: SimResult {
            t_comp: t,
            messages,
            collector_overhead: overhead,
            worker_finish,
            realizations: total,
        },
        collector_timeline: timeline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate;
    use parmonc_obs::{MemorySink, Monitor};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    #[test]
    fn traced_result_matches_plain_simulate() {
        for m in [1usize, 4, 16, 64] {
            let c = ClusterConfig::paper_testbed(m);
            let plain = simulate(&c, 512);
            let traced = simulate_traced(&c, 512);
            assert_eq!(traced.result, plain, "M = {m}");
        }
    }

    #[test]
    fn timeline_is_gap_free_and_ordered() {
        let c = ClusterConfig::paper_testbed(8);
        let traced = simulate_traced(&c, 400);
        let mut cursor = 0.0;
        for seg in &traced.collector_timeline {
            assert!((seg.start - cursor).abs() < 1e-9, "gap at {cursor}");
            assert!(seg.end > seg.start);
            cursor = seg.end;
        }
        assert!((cursor - traced.result.t_comp).abs() < 1e-9);
    }

    #[test]
    fn activity_times_account_for_everything() {
        let c = ClusterConfig::paper_testbed(16);
        let traced = simulate_traced(&c, 800);
        let total: f64 = [
            CollectorActivity::Computing,
            CollectorActivity::Receiving,
            CollectorActivity::Saving,
            CollectorActivity::Waiting,
        ]
        .into_iter()
        .map(|a| traced.time_in(a))
        .sum();
        assert!((total - traced.result.t_comp).abs() < 1e-6);
    }

    #[test]
    fn healthy_testbed_has_high_compute_utilization() {
        // tau >> per-message costs: the collector mostly computes.
        let c = ClusterConfig::paper_testbed(64);
        let traced = simulate_traced(&c, 6_400);
        assert!(
            traced.compute_utilization() > 0.95,
            "utilization {}",
            traced.compute_utilization()
        );
    }

    #[test]
    fn tiny_tau_shows_collector_saturation_in_the_trace() {
        // The ablation regime: the trace must reveal receive-dominance.
        let mut c = ClusterConfig::paper_testbed(64);
        c.realization_seconds = 0.0008;
        let traced = simulate_traced(&c, 64_000);
        let receiving = traced.time_in(CollectorActivity::Receiving);
        let computing = traced.time_in(CollectorActivity::Computing);
        assert!(
            receiving > 2.0 * computing,
            "receive {receiving} vs compute {computing}"
        );
    }

    #[test]
    fn single_processor_has_no_receive_or_wait_segments() {
        let c = ClusterConfig::paper_testbed(1);
        let traced = simulate_traced(&c, 100);
        assert_eq!(traced.time_in(CollectorActivity::Receiving), 0.0);
        assert_eq!(traced.time_in(CollectorActivity::Waiting), 0.0);
    }

    #[test]
    fn monitored_run_matches_unmonitored() {
        let c = ClusterConfig::paper_testbed(8);
        let plain = simulate_traced(&c, 256);
        let sink = Arc::new(MemorySink::new());
        let monitored =
            simulate_monitored(&c, 256, &Monitor::new(vec![Box::new(Arc::clone(&sink))]));
        assert_eq!(monitored, plain);
        assert!(!sink.is_empty());
    }

    #[test]
    fn monitored_run_emits_every_event_kind() {
        let c = ClusterConfig::paper_testbed(4);
        let sink = Arc::new(MemorySink::new());
        let _ = simulate_monitored(&c, 64, &Monitor::new(vec![Box::new(Arc::clone(&sink))]));
        let kinds: BTreeSet<&'static str> = sink.snapshot().iter().map(|e| e.kind.name()).collect();
        // A healthy run emits every non-fault, unconditional kind:
        // fault kinds only appear under injection (see `crate::faults`)
        // and conditional kinds only when their trigger (a precision
        // target) is configured.
        let base: BTreeSet<&'static str> = parmonc_obs::EventKind::ALL_KINDS
            .into_iter()
            .filter(|k| !parmonc_obs::EventKind::FAULT_KINDS.contains(k))
            .filter(|k| !parmonc_obs::EventKind::CONDITIONAL_KINDS.contains(k))
            .collect();
        assert_eq!(kinds, base);
    }

    #[test]
    fn monitored_events_validate_and_tally() {
        let c = ClusterConfig::paper_testbed(4);
        let sink = Arc::new(MemorySink::new());
        let run = simulate_monitored(&c, 100, &Monitor::new(vec![Box::new(Arc::clone(&sink))]));
        let events = sink.snapshot();
        for e in &events {
            parmonc_obs::schema::validate_line(&e.to_json_line()).unwrap();
        }
        let summary = parmonc_obs::MonitorSummary::from_events(&events);
        assert_eq!(summary.total_realizations, Some(100));
        assert_eq!(summary.messages_received, run.result.messages);
        let t_comp = summary.t_comp_seconds.expect("run_completed present");
        assert!((t_comp - run.result.t_comp).abs() < 1e-9);
        // Collector segment seconds reconstruct the timeline totals.
        for activity in [
            CollectorActivity::Computing,
            CollectorActivity::Receiving,
            CollectorActivity::Saving,
            CollectorActivity::Waiting,
        ] {
            let from_summary = summary
                .collector_seconds
                .get(activity.as_str())
                .copied()
                .unwrap_or(0.0);
            assert!(
                (from_summary - run.time_in(activity)).abs() < 1e-9,
                "{activity:?}: {from_summary} vs {}",
                run.time_in(activity)
            );
        }
    }

    #[test]
    fn final_save_volume_covers_every_realization() {
        let c = ClusterConfig::paper_testbed(8);
        let sink = Arc::new(MemorySink::new());
        let _ = simulate_monitored(&c, 333, &Monitor::new(vec![Box::new(Arc::clone(&sink))]));
        let last_save = sink
            .snapshot()
            .iter()
            .rev()
            .find_map(|e| match e.kind {
                EventKind::SavePoint { volume, .. } => Some(volume),
                _ => None,
            })
            .expect("at least one save_point");
        assert_eq!(last_save, 333);
    }
}
