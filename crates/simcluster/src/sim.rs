//! The virtual-time simulation of a PARMONC run: one engine that
//! replays a [`FaultPlan`] against the cluster model, records
//! processor 0's timeline and streams the run through a [`Monitor`].
//!
//! A worker's messages depend only on its quota, its speed and the
//! fault plan, so every arrival at processor 0 is known before
//! processor 0 starts. The engine builds them all up front, sorts them
//! once, and walks processor 0's serial timeline over the sorted list:
//! it alternates its own realizations with draining arrived messages
//! (receive each, then one averaging pass and save per batch), exactly
//! like the real runner's rank 0 loop, then waits out the stragglers.
//!
//! The recovery policy mirrors the runner's. Cumulative subtotals make
//! drops and duplicates harmless. A rank whose final message never
//! arrives is declared lost `liveness_timeout` virtual seconds after it
//! was last heard from, and its uncovered budget is re-simulated. One
//! documented simplification: the virtual collector reassigns a lost
//! rank's budget to itself in a single wave (processor 0 is the only
//! rank whose remaining schedule the model can cheaply extend), whereas
//! the real runner spreads it over surviving workers first.
//!
//! With a monitor attached, the run is streamed with the *same* event
//! schema as the real runner (`docs/observability.md`), stamped in
//! virtual time with `mode = "simcluster"`. Workers emit `message_sent`
//! when a subtotal leaves and `realizations` when their quota
//! completes. The collector emits `message_received` (with queue depth)
//! per folded message, `queue_high_water` on new depth maxima,
//! `save_point` + `averaging_pass` + `metrics_snapshot` per save, and
//! `collector_segment` for its timeline. Injected faults, lost ranks
//! and reassigned budgets emit the fault-class kinds. A
//! `run_completed` event closes the trace at `T_comp`.

use parmonc_faults::{FaultKind, FaultPlan, SendAction};
use parmonc_obs::{CollectorActivity, EventKind, Monitor, RunMode};

use crate::model::{ClusterConfig, ExchangePolicy};

/// The runner's `TAG_SUBTOTAL`.
const TAG_SUBTOTAL: u32 = 1;
/// The runner's `TAG_FINAL`.
const TAG_FINAL: u32 = 2;

/// Outcome of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Wall-clock (virtual) time at which processor 0 has received,
    /// averaged and saved everything — the paper's `T_comp`.
    pub t_comp: f64,
    /// Total subtotal messages delivered to processor 0.
    pub messages: u64,
    /// Seconds processor 0 spent receiving/averaging/saving rather than
    /// simulating.
    pub collector_overhead: f64,
    /// Virtual time each worker finished its own quota (index = rank).
    pub worker_finish: Vec<f64>,
    /// Realizations the collector holds at the end: every rank's
    /// covered realizations plus the reassigned budget (= requested L).
    pub realizations: u64,
}

impl SimResult {
    /// Parallel efficiency against a perfectly linear machine:
    /// `(L · τ / M) / T_comp` for the homogeneous configuration.
    #[must_use]
    pub fn efficiency(&self, config: &ClusterConfig) -> f64 {
        let ideal =
            self.realizations as f64 * config.realization_seconds / config.processors as f64;
        ideal / self.t_comp
    }
}

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

/// The full outcome of [`simulate_with`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimRun {
    /// The aggregate result (what [`simulate`] returns).
    pub result: SimResult,
    /// Processor 0's timeline, in order, gap-free from 0 to `t_comp`.
    pub collector_timeline: Vec<Segment>,
    /// Ranks declared dead, in detection order.
    pub lost_workers: Vec<usize>,
    /// Realizations the collector re-simulated for lost ranks.
    pub reassigned_realizations: u64,
}

impl SimRun {
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

/// One message arriving at processor 0: when, from which rank, how
/// many of the rank's realizations its cumulative subtotal covers, and
/// its tag.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Arrival {
    time: f64,
    rank: usize,
    covered: u64,
    tag: u32,
}

/// Every arrival of a run, sorted by time with a cursor at the next
/// one not yet received. Equal times stay FIFO in push order.
#[derive(Debug)]
struct ArrivalList {
    arrivals: Vec<Arrival>,
    cursor: usize,
}

impl ArrivalList {
    /// Sorts `arrivals` stably by time.
    ///
    /// # Panics
    ///
    /// Panics if any time is not finite or is negative.
    fn new(mut arrivals: Vec<Arrival>) -> Self {
        for a in &arrivals {
            assert!(
                a.time.is_finite() && a.time >= 0.0,
                "bad virtual time {}",
                a.time
            );
        }
        arrivals.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("finite times"));
        Self {
            arrivals,
            cursor: 0,
        }
    }

    /// The time of the next arrival not yet received.
    fn next_time(&self) -> Option<f64> {
        self.arrivals.get(self.cursor).map(|a| a.time)
    }

    /// Takes the next arrival if it has arrived by `t`.
    fn pop_arrived(&mut self, t: f64) -> Option<Arrival> {
        let next = *self.arrivals.get(self.cursor)?;
        (next.time <= t).then(|| {
            self.cursor += 1;
            next
        })
    }

    /// Messages that have arrived by `t` but are not yet received —
    /// the queue depth an observer at `t` sees.
    fn depth_at(&self, t: f64) -> u64 {
        self.arrivals[self.cursor..].partition_point(|a| a.time <= t) as u64
    }
}

/// Every message worker `rank` sends over `quota` realizations, in
/// send order, final message last; `time` is the arrival at
/// processor 0.
fn worker_sends(config: &ClusterConfig, rank: usize, quota: u64) -> Vec<Arrival> {
    let d = config.realization_duration(rank);
    let finish = quota as f64 * d;
    let mut sends: Vec<(f64, u64)> = match config.exchange {
        ExchangePolicy::EveryRealization => (1..quota).map(|i| (i as f64 * d, i)).collect(),
        ExchangePolicy::Periodic { period } => (1..)
            .map(|j| j as f64 * period)
            .take_while(|t| *t < finish)
            .map(|t| (t, ((t / d) as u64).min(quota)))
            .collect(),
    };
    sends.push((finish, quota)); // the final message
    let last = sends.len() - 1;
    let transfer = config.transfer_seconds();
    sends
        .into_iter()
        .enumerate()
        .map(|(i, (t, covered))| Arrival {
            time: t + transfer,
            rank,
            covered,
            tag: if i == last { TAG_FINAL } else { TAG_SUBTOTAL },
        })
        .collect()
}

#[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
fn bytes_per_message(config: &ClusterConfig) -> u64 {
    config.message_bytes.max(0.0) as u64
}

/// Worker `rank`'s schedule through the fault plan: appends what
/// reaches processor 0 to `arrivals`, emits the worker's events and
/// returns the virtual time the worker stopped computing.
///
/// A crashed rank stops at its crash point and never sends its final
/// message. Per-tag sequence counters name each message the way the
/// message substrate's fault plane does.
fn schedule_worker(
    config: &ClusterConfig,
    plan: &FaultPlan,
    monitor: &Monitor,
    rank: usize,
    quota: u64,
    arrivals: &mut Vec<Arrival>,
) -> f64 {
    let effective = plan.crash_point(rank).map_or(quota, |n| n.min(quota));
    let crashed = effective < quota;
    let finish = effective as f64 * config.realization_duration(rank);
    let transfer = config.transfer_seconds();
    let bytes = bytes_per_message(config);

    let mut sends = worker_sends(config, rank, effective);
    if crashed {
        // The crash happens before the final message leaves.
        sends.pop();
    }
    let mut seq_by_tag = [0u64; 3];
    for send in sends {
        let seq = seq_by_tag[send.tag as usize];
        seq_by_tag[send.tag as usize] += 1;
        let sent_at = (send.time - transfer).max(0.0);
        let t = send.time;
        let (fault, copies) = match plan.message_action(rank, 0, send.tag, seq) {
            SendAction::Deliver => (None, [Some(t), None]),
            SendAction::Drop => (Some(FaultKind::MessageDrop), [None, None]),
            SendAction::Duplicate => (
                Some(FaultKind::MessageDuplicate),
                [Some(t), Some(t + transfer)],
            ),
            SendAction::Delay { hold_sends } => (
                Some(FaultKind::MessageDelay),
                [Some(t + f64::from(hold_sends) * transfer), None],
            ),
        };
        if let Some(fault) = fault {
            monitor.emit_at(
                sent_at,
                Some(rank),
                EventKind::FaultInjected {
                    fault: fault.as_str().to_string(),
                    detail: Some(seq),
                },
            );
        }
        for time in copies.into_iter().flatten() {
            monitor.emit_at(
                sent_at,
                Some(rank),
                EventKind::MessageSent {
                    dest: 0,
                    tag: send.tag,
                    bytes,
                },
            );
            arrivals.push(Arrival { time, ..send });
        }
    }

    let kind = if crashed {
        EventKind::FaultInjected {
            fault: FaultKind::RankCrash.as_str().to_string(),
            detail: Some(effective),
        }
    } else {
        EventKind::Realizations {
            completed: effective,
            compute_seconds: finish,
        }
    };
    monitor.emit_at(finish, Some(rank), kind);
    finish
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

/// Processor 0's serial timeline over the sorted arrival list.
struct Collector<'a> {
    config: &'a ClusterConfig,
    monitor: &'a Monitor,
    arrivals: ArrivalList,
    /// The virtual clock.
    t: f64,
    overhead: f64,
    timeline: Vec<Segment>,
    /// Realizations whose results the collector holds, per rank
    /// (cumulative message semantics).
    covered: Vec<u64>,
    /// When each rank's snapshot last changed (`NaN` = never).
    last_update: Vec<f64>,
    /// The latest arrival time heard from each rank (liveness clock).
    last_heard: Vec<f64>,
    final_received: Vec<bool>,
    high_water: u64,
    reassigned: u64,
}

impl Collector<'_> {
    fn volume(&self) -> u64 {
        self.covered.iter().sum::<u64>() + self.reassigned
    }

    /// Records `[start, t]` as `activity` on the timeline.
    fn segment(&mut self, start: f64, activity: CollectorActivity) {
        if self.t > start {
            self.monitor.emit_at(
                self.t,
                Some(0),
                EventKind::CollectorSegment {
                    activity,
                    start_s: start,
                    end_s: self.t,
                },
            );
            self.timeline.push(Segment {
                start,
                end: self.t,
                activity,
            });
        }
    }

    /// Processor 0 simulates `n` realizations in one stretch.
    fn compute(&mut self, n: u64) {
        let start = self.t;
        self.t += n as f64 * self.config.realization_duration(0);
        self.last_update[0] = self.t;
        self.segment(start, CollectorActivity::Computing);
    }

    /// Receives every message that has arrived by now, then runs one
    /// averaging pass and save-point if there were any.
    fn drain(&mut self) {
        let start = self.t;
        let mut drained = false;
        while let Some(arrival) = self.arrivals.pop_arrived(self.t) {
            self.receive(arrival);
            drained = true;
        }
        if drained {
            self.segment(start, CollectorActivity::Receiving);
            self.save();
        }
    }

    fn receive(&mut self, arrival: Arrival) {
        let enabled = self.monitor.is_enabled();
        if enabled {
            // `arrival` was still queued an instant ago.
            let depth = self.arrivals.depth_at(self.t) + 1;
            if depth > self.high_water {
                self.high_water = depth;
                self.monitor
                    .emit_at(self.t, Some(0), EventKind::QueueHighWater { depth });
            }
        }
        let rank = arrival.rank;
        self.t += self.config.receive_cost_seconds;
        self.overhead += self.config.receive_cost_seconds;
        self.covered[rank] = self.covered[rank].max(arrival.covered);
        self.last_update[rank] = self.t;
        self.last_heard[rank] = self.last_heard[rank].max(arrival.time);
        self.final_received[rank] |= arrival.tag == TAG_FINAL;
        if enabled {
            self.monitor.emit_at(
                self.t,
                Some(0),
                EventKind::MessageReceived {
                    source: rank,
                    tag: arrival.tag,
                    bytes: bytes_per_message(self.config),
                    queue_depth: self.arrivals.depth_at(self.t),
                },
            );
        }
    }

    /// One averaging pass and save of the result files.
    fn save(&mut self) {
        let start = self.t;
        self.t += self.config.save_cost_seconds;
        self.overhead += self.config.save_cost_seconds;
        self.segment(start, CollectorActivity::Saving);
        if !self.monitor.is_enabled() {
            return;
        }
        let volume = self.volume();
        let duration_seconds = self.config.save_cost_seconds;
        self.monitor.emit_at(
            self.t,
            Some(0),
            EventKind::SavePoint {
                volume,
                duration_seconds,
            },
        );
        // The virtual model charges the subtotal fold to each receive;
        // the pass itself costs one save.
        self.monitor.emit_at(
            self.t,
            Some(0),
            EventKind::AveragingPass {
                volume,
                duration_seconds,
                eps_max: None,
                max_snapshot_age_seconds: max_snapshot_age(&self.last_update, self.t),
            },
        );
        // The virtual model carries no estimate values, but it reports
        // the same metrics-plane cadence as the real runner: one
        // snapshot per subtotal merge.
        self.monitor.emit_at(
            self.t,
            Some(0),
            EventKind::MetricsSnapshot {
                functional: 0,
                n: volume,
                mean: None,
                err: None,
            },
        );
    }

    /// Waits for, and drains, every message still in flight.
    fn wait_for_stragglers(&mut self) {
        while let Some(next) = self.arrivals.next_time() {
            if next > self.t {
                let start = self.t;
                self.t = next;
                self.segment(start, CollectorActivity::Waiting);
            }
            self.drain();
        }
    }

    /// Declares every rank whose final never arrived lost once it has
    /// been quiet for `liveness_timeout`, and re-simulates its
    /// uncovered budget. Returns the lost ranks in detection order.
    fn sweep(&mut self, total: u64, liveness_timeout: f64) -> Vec<usize> {
        let mut lost = Vec::new();
        for rank in 1..self.covered.len() {
            if self.final_received[rank] {
                continue;
            }
            let start = self.t;
            self.t = (self.last_heard[rank] + liveness_timeout).max(self.t);
            self.segment(start, CollectorActivity::Waiting);
            self.monitor.emit_at(
                self.t,
                Some(0),
                EventKind::WorkerLost {
                    worker: rank,
                    received_realizations: self.covered[rank],
                },
            );
            lost.push(rank);
            let budget = self
                .config
                .quota(rank, total)
                .saturating_sub(self.covered[rank]);
            if budget > 0 {
                self.monitor.emit_at(
                    self.t,
                    Some(0),
                    EventKind::WorkReassigned {
                        from_worker: rank,
                        to_worker: 0,
                        realizations: budget,
                    },
                );
                self.reassigned += budget;
                self.compute(budget);
            }
        }
        lost
    }
}

/// Simulates a run of `total` realizations on the configured cluster.
///
/// # Panics
///
/// Panics if the configuration is invalid (see
/// [`ClusterConfig::validate`]) or `total == 0`.
#[must_use]
pub fn simulate(config: &ClusterConfig, total: u64) -> SimResult {
    simulate_with(
        config,
        total,
        &FaultPlan::none(),
        f64::MAX,
        &Monitor::disabled(),
    )
    .result
}

/// Simulates `total` realizations with the scripted `plan` applied to
/// every worker message and worker lifetime, recording processor 0's
/// timeline and streaming the run through `monitor`.
///
/// With an empty plan and a disabled monitor this is [`simulate`]; the
/// returned numbers are bit-identical whether or not a monitor is
/// attached.
///
/// # Panics
///
/// Panics if the configuration is invalid, `total == 0`, or
/// `liveness_timeout` is not positive and finite.
#[must_use]
pub fn simulate_with(
    config: &ClusterConfig,
    total: u64,
    plan: &FaultPlan,
    liveness_timeout: f64,
    monitor: &Monitor,
) -> SimRun {
    config.validate();
    assert!(total > 0, "need at least one realization");
    assert!(
        liveness_timeout > 0.0 && liveness_timeout.is_finite(),
        "liveness_timeout must be positive and finite"
    );

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
    let mut worker_finish = vec![0.0f64; m];
    let mut arrivals = Vec::new();
    for (rank, finish) in worker_finish.iter_mut().enumerate().skip(1) {
        let quota = config.quota(rank, total);
        *finish = schedule_worker(config, plan, monitor, rank, quota, &mut arrivals);
    }
    let messages = arrivals.len() as u64;

    let mut collector = Collector {
        config,
        monitor,
        arrivals: ArrivalList::new(arrivals),
        t: 0.0,
        overhead: 0.0,
        timeline: Vec::new(),
        covered: vec![0; m],
        last_update: vec![f64::NAN; m],
        last_heard: vec![0.0; m],
        final_received: vec![false; m],
        high_water: 0,
        reassigned: 0,
    };
    let q0 = config.quota(0, total);
    for _ in 0..q0 {
        collector.compute(1);
        collector.covered[0] += 1;
        collector.drain();
    }
    worker_finish[0] = collector.t;
    monitor.emit_at(
        collector.t,
        Some(0),
        EventKind::Realizations {
            completed: q0,
            compute_seconds: q0 as f64 * config.realization_duration(0),
        },
    );
    collector.wait_for_stragglers();
    let lost_workers = collector.sweep(total, liveness_timeout);
    collector.save();

    let realizations = collector.volume();
    let t_comp = collector.t;
    monitor.emit_at(
        t_comp,
        None,
        EventKind::RunCompleted {
            realizations,
            t_comp_seconds: t_comp,
            messages,
            bytes: messages * bytes_per_message(config),
        },
    );
    monitor.flush();

    SimRun {
        result: SimResult {
            t_comp,
            messages,
            collector_overhead: collector.overhead,
            worker_finish,
            realizations,
        },
        collector_timeline: collector.timeline,
        lost_workers,
        reassigned_realizations: collector.reassigned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parmonc_obs::{Event, MemorySink};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn strict(m: usize) -> ClusterConfig {
        ClusterConfig::paper_testbed(m)
    }

    #[test]
    fn single_processor_time_is_serial_compute() {
        let c = strict(1);
        let r = simulate(&c, 100);
        // No messages; T = 100 * 7.7 + one save.
        assert_eq!(r.messages, 0);
        assert!((r.t_comp - (100.0 * 7.7 + c.save_cost_seconds)).abs() < 1e-9);
    }

    #[test]
    fn message_count_strict_mode() {
        let c = strict(4);
        let r = simulate(&c, 100);
        // Workers 1..3 send one message per realization (quota 25 each).
        assert_eq!(r.messages, 75);
    }

    #[test]
    fn speedup_is_nearly_linear_on_paper_testbed() {
        // The paper's headline claim (Fig. 2): T_comp ∝ 1/M even under
        // per-realization exchange, because τ dominates transfer costs.
        let l = 1024;
        let t1 = simulate(&strict(1), l).t_comp;
        for m in [8usize, 16, 32, 64, 128, 256, 512] {
            let tm = simulate(&strict(m), l).t_comp;
            let speedup = t1 / tm;
            assert!(
                speedup > 0.93 * m as f64,
                "M={m}: speedup {speedup:.1} not ~{m}"
            );
            assert!(
                speedup <= m as f64 + 1e-6,
                "M={m}: superlinear {speedup:.1}"
            );
        }
    }

    #[test]
    fn t_comp_scales_linearly_in_l() {
        let c = strict(8);
        let t1 = simulate(&c, 200).t_comp;
        let t5 = simulate(&c, 1000).t_comp;
        let ratio = t5 / t1;
        assert!((ratio - 5.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn tiny_realizations_break_linear_speedup() {
        // Ablation: when τ is comparable to the per-message cost, the
        // collector saturates and speedup collapses — the regime the
        // paper's periodic exchange (perpass) exists to avoid.
        let mut c = strict(64);
        c.realization_seconds = 0.004; // τ ≈ receive cost
        let t1 = {
            let mut c1 = c.clone();
            c1.processors = 1;
            simulate(&c1, 64_000).t_comp
        };
        let t64 = simulate(&c, 64_000).t_comp;
        let speedup = t1 / t64;
        assert!(
            speedup < 32.0,
            "with tiny τ the collector must bottleneck: speedup {speedup:.1}"
        );
    }

    #[test]
    fn periodic_exchange_rescues_tiny_realizations() {
        // Same tiny τ, but perpass-style batching: far fewer messages,
        // speedup restored. This is §2.2's argument, quantified.
        let mut c = strict(64);
        c.realization_seconds = 0.004;
        c.exchange = ExchangePolicy::Periodic { period: 10.0 };
        let t1 = {
            let mut c1 = c.clone();
            c1.processors = 1;
            simulate(&c1, 64_000).t_comp
        };
        let r = simulate(&c, 64_000);
        let speedup = t1 / r.t_comp;
        assert!(
            speedup > 50.0,
            "periodic exchange must restore speedup: {speedup:.1}"
        );
        assert!(r.messages < 1000, "messages {}", r.messages);
    }

    #[test]
    fn heterogeneous_processors_no_load_balancing_needed() {
        // §2.2: "no need to use any load balancing techniques" — with
        // static quotas a 2x-slow processor *does* stretch T_comp; the
        // claim holds in the paper because realizations are equal-cost.
        // Verify the model exposes exactly that sensitivity.
        let mut c = strict(4);
        c.speeds = vec![1.0, 1.0, 1.0, 0.5];
        let r = simulate(&c, 400);
        let homogeneous = simulate(&strict(4), 400);
        assert!(r.t_comp > 1.8 * homogeneous.t_comp / 1.0_f64.max(1.0));
        // The slow worker is the straggler.
        let slow_finish = r.worker_finish[3];
        assert!(slow_finish >= r.worker_finish[1] * 1.9);
    }

    #[test]
    fn collector_overhead_accounted() {
        let c = strict(16);
        let r = simulate(&c, 1600);
        assert!(r.collector_overhead > 0.0);
        assert!(r.collector_overhead < 0.1 * r.t_comp, "overhead small");
    }

    #[test]
    fn efficiency_metric() {
        let c = strict(8);
        let r = simulate(&c, 800);
        let e = r.efficiency(&c);
        assert!(e > 0.9 && e <= 1.0, "efficiency {e}");
    }

    #[test]
    fn worker_finish_before_t_comp() {
        let c = strict(32);
        let r = simulate(&c, 3200);
        for (rank, f) in r.worker_finish.iter().enumerate() {
            assert!(*f <= r.t_comp + 1e-9, "rank {rank} finished after T_comp");
        }
    }

    #[test]
    #[should_panic(expected = "at least one realization")]
    fn zero_realizations_rejected() {
        let _ = simulate(&strict(1), 0);
    }

    fn arrival(time: f64, rank: usize) -> Arrival {
        Arrival {
            time,
            rank,
            covered: 0,
            tag: TAG_SUBTOTAL,
        }
    }

    fn drain_all(list: &mut ArrivalList) -> Vec<(f64, usize)> {
        std::iter::from_fn(|| list.pop_arrived(f64::MAX))
            .map(|a| (a.time, a.rank))
            .collect()
    }

    #[test]
    fn arrivals_pop_in_time_order() {
        let mut list = ArrivalList::new(vec![arrival(3.0, 3), arrival(1.0, 1), arrival(2.0, 2)]);
        assert_eq!(list.next_time(), Some(1.0));
        assert_eq!(list.pop_arrived(0.5), None, "nothing has arrived by 0.5");
        assert_eq!(drain_all(&mut list), [(1.0, 1), (2.0, 2), (3.0, 3)]);
        assert_eq!(list.next_time(), None);
    }

    #[test]
    fn equal_arrival_times_are_fifo() {
        let mut list = ArrivalList::new((0..10).map(|i| arrival(5.0, i)).collect());
        let ranks: Vec<usize> = drain_all(&mut list).into_iter().map(|(_, r)| r).collect();
        assert_eq!(ranks, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn queue_depth_counts_arrived_but_unreceived() {
        let mut list = ArrivalList::new(vec![arrival(1.0, 1), arrival(2.0, 2), arrival(4.0, 3)]);
        assert_eq!(list.depth_at(0.0), 0);
        assert_eq!(list.depth_at(2.0), 2);
        list.pop_arrived(2.0);
        assert_eq!(list.depth_at(2.0), 1);
        assert_eq!(list.depth_at(10.0), 2);
    }

    #[test]
    #[should_panic(expected = "bad virtual time")]
    fn rejects_nan_arrival_time() {
        let _ = ArrivalList::new(vec![arrival(f64::NAN, 1)]);
    }

    #[test]
    #[should_panic(expected = "bad virtual time")]
    fn rejects_negative_arrival_time() {
        let _ = ArrivalList::new(vec![arrival(-1.0, 1)]);
    }

    /// A fault-free run with the timeline recorded.
    fn traced(c: &ClusterConfig, total: u64) -> SimRun {
        simulate_with(c, total, &FaultPlan::none(), 50.0, &Monitor::disabled())
    }

    /// A run streamed through a memory sink.
    fn monitored(c: &ClusterConfig, total: u64, plan: &FaultPlan) -> (SimRun, Vec<Event>) {
        let sink = Arc::new(MemorySink::new());
        let run = simulate_with(
            c,
            total,
            plan,
            50.0,
            &Monitor::new(vec![Box::new(Arc::clone(&sink))]),
        );
        (run, sink.snapshot())
    }

    fn assert_gap_free(run: &SimRun) {
        let mut cursor = 0.0;
        for seg in &run.collector_timeline {
            assert!((seg.start - cursor).abs() < 1e-9, "gap at {cursor}");
            assert!(seg.end > seg.start);
            cursor = seg.end;
        }
        assert!((cursor - run.result.t_comp).abs() < 1e-9);
    }

    #[test]
    fn traced_result_matches_plain_simulate() {
        for m in [1usize, 4, 16, 64] {
            let c = strict(m);
            assert_eq!(traced(&c, 512).result, simulate(&c, 512), "M = {m}");
        }
    }

    #[test]
    fn timeline_is_gap_free_and_ordered() {
        assert_gap_free(&traced(&strict(8), 400));
    }

    #[test]
    fn activity_times_account_for_everything() {
        let run = traced(&strict(16), 800);
        let total: f64 = [
            CollectorActivity::Computing,
            CollectorActivity::Receiving,
            CollectorActivity::Saving,
            CollectorActivity::Waiting,
        ]
        .into_iter()
        .map(|a| run.time_in(a))
        .sum();
        assert!((total - run.result.t_comp).abs() < 1e-6);
    }

    #[test]
    fn healthy_testbed_has_high_compute_utilization() {
        // tau >> per-message costs: the collector mostly computes.
        let run = traced(&strict(64), 6_400);
        assert!(
            run.compute_utilization() > 0.95,
            "utilization {}",
            run.compute_utilization()
        );
    }

    #[test]
    fn tiny_tau_shows_collector_saturation_in_the_trace() {
        // The ablation regime: the trace must reveal receive-dominance.
        let mut c = strict(64);
        c.realization_seconds = 0.0008;
        let run = traced(&c, 64_000);
        let receiving = run.time_in(CollectorActivity::Receiving);
        let computing = run.time_in(CollectorActivity::Computing);
        assert!(
            receiving > 2.0 * computing,
            "receive {receiving} vs compute {computing}"
        );
    }

    #[test]
    fn single_processor_has_no_receive_or_wait_segments() {
        let run = traced(&strict(1), 100);
        assert_eq!(run.time_in(CollectorActivity::Receiving), 0.0);
        assert_eq!(run.time_in(CollectorActivity::Waiting), 0.0);
    }

    #[test]
    fn monitored_run_matches_unmonitored() {
        let c = strict(8);
        let (run, events) = monitored(&c, 256, &FaultPlan::none());
        assert_eq!(run, traced(&c, 256));
        assert!(!events.is_empty());
    }

    /// Every non-fault, unconditional kind: fault kinds only appear
    /// under injection and conditional kinds only when their trigger (a
    /// precision target) is configured.
    fn base_kinds() -> BTreeSet<&'static str> {
        EventKind::ALL_KINDS
            .into_iter()
            .filter(|k| !EventKind::FAULT_KINDS.contains(k))
            .filter(|k| !EventKind::CONDITIONAL_KINDS.contains(k))
            .collect()
    }

    fn kinds(events: &[Event]) -> BTreeSet<&'static str> {
        events.iter().map(|e| e.kind.name()).collect()
    }

    #[test]
    fn monitored_run_emits_every_event_kind() {
        let (_, events) = monitored(&strict(4), 64, &FaultPlan::none());
        assert_eq!(kinds(&events), base_kinds());
    }

    #[test]
    fn monitored_events_validate_and_tally() {
        let (run, events) = monitored(&strict(4), 100, &FaultPlan::none());
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
        let (_, events) = monitored(&strict(8), 333, &FaultPlan::none());
        let last_save = events
            .iter()
            .rev()
            .find_map(|e| match e.kind {
                EventKind::SavePoint { volume, .. } => Some(volume),
                _ => None,
            })
            .expect("at least one save_point");
        assert_eq!(last_save, 333);
    }

    fn faulted(c: &ClusterConfig, total: u64, plan: &FaultPlan) -> SimRun {
        simulate_with(c, total, plan, 50.0, &Monitor::disabled())
    }

    #[test]
    fn empty_plan_matches_plain_simulate() {
        for m in [1usize, 4, 16] {
            let c = strict(m);
            let run = simulate_with(&c, 512, &FaultPlan::none(), 1_000.0, &Monitor::disabled());
            assert_eq!(run.result, simulate(&c, 512), "M = {m}");
            assert!(run.lost_workers.is_empty());
            assert_eq!(run.reassigned_realizations, 0);
        }
    }

    #[test]
    fn crashed_rank_is_detected_and_its_budget_recovered() {
        let c = strict(4);
        let plan = FaultPlan::new(3).crash_rank(2, 5);
        let run = faulted(&c, 400, &plan);
        assert_eq!(run.lost_workers, vec![2]);
        // quota 100, crashed after 5: under per-realization exchange
        // the collector holds 4 (the 5th subtotal is never sent: the
        // message covering realization 5 would have been the crash
        // victim's next send) or 5 realizations; either way the
        // reassigned budget tops the volume back up to the target.
        assert_eq!(run.result.realizations, 400);
        assert!(run.reassigned_realizations >= 95);
        // Recovery costs time: slower than the fault-free run.
        assert!(run.result.t_comp > simulate(&c, 400).t_comp);
    }

    #[test]
    fn dropped_final_is_recovered_like_a_crash() {
        // Worker 3's final message (tag 2, seq 0) is dropped.
        let plan = FaultPlan::new(3).drop_message(3, 0, 2, 0);
        let run = faulted(&strict(4), 400, &plan);
        assert_eq!(run.lost_workers, vec![3]);
        // All but the last realization were covered by subtotals, so
        // only the shortfall is re-simulated.
        assert_eq!(run.reassigned_realizations, 1);
        assert_eq!(run.result.realizations, 400);
    }

    #[test]
    fn drops_and_duplicates_of_subtotals_are_harmless() {
        let plan = FaultPlan::new(11)
            .drop_message(1, 0, 1, 3)
            .duplicate_message(2, 0, 1, 4)
            .delay_message(3, 0, 1, 2, 5);
        let run = faulted(&strict(4), 400, &plan);
        assert!(run.lost_workers.is_empty());
        assert_eq!(run.reassigned_realizations, 0);
        assert_eq!(run.result.realizations, 400);
    }

    #[test]
    fn fault_events_are_schema_valid() {
        let c = strict(4);
        let plan = FaultPlan::new(7).crash_rank(1, 3).drop_message(2, 0, 1, 0);
        let (run, events) = monitored(&c, 200, &plan);
        for e in &events {
            parmonc_obs::schema::validate_line(&e.to_json_line()).unwrap();
        }
        let kinds = kinds(&events);
        assert!(kinds.contains("fault_injected"));
        assert!(kinds.contains("worker_lost"));
        assert!(kinds.contains("work_reassigned"));
        assert!(kinds.is_superset(&base_kinds()));
        assert_eq!(run.lost_workers, vec![1]);
        assert_gap_free(&run);
        let reassigned = run.reassigned_realizations as f64 * c.realization_duration(0);
        assert!(run.time_in(CollectorActivity::Computing) >= reassigned);
    }

    #[test]
    fn hash_based_drop_fraction_still_reaches_the_target_volume() {
        let plan = FaultPlan::new(99).drop_fraction(0.05);
        let run = faulted(&strict(8), 800, &plan);
        // Some ranks may lose their final and be "recovered", but the
        // end volume never falls short of the request.
        assert!(run.result.realizations >= 800);
    }

    /// Exact outputs recorded before the three event loops were merged
    /// into one engine. Every pin is bit-level: a refactor of the
    /// engine may not move a single number or event byte.
    mod pins {
        use crate::model::{ClusterConfig, ExchangePolicy};
        use crate::sim::{simulate, simulate_with, SimResult};
        use parmonc_faults::FaultPlan;
        use parmonc_obs::{MemorySink, Monitor};
        use std::sync::Arc;

        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

        fn fnv1a(bytes: impl IntoIterator<Item = u8>, mut hash: u64) -> u64 {
            for b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
            hash
        }

        /// `(t_comp bits, messages, collector_overhead bits,
        /// worker_finish digest, realizations, lost_workers,
        /// reassigned_realizations)`.
        type Pin<'a> = (u64, u64, u64, u64, u64, &'a [usize], u64);

        fn pin_of<'a>(result: &SimResult, lost: &'a [usize], reassigned: u64) -> Pin<'a> {
            let finish = result
                .worker_finish
                .iter()
                .flat_map(|f| f.to_bits().to_le_bytes());
            (
                result.t_comp.to_bits(),
                result.messages,
                result.collector_overhead.to_bits(),
                fnv1a(finish, FNV_OFFSET),
                result.realizations,
                lost,
                reassigned,
            )
        }

        fn faulted(config: &ClusterConfig, plan: &FaultPlan) -> (SimResult, Vec<usize>, u64) {
            let run = simulate_with(config, 400, plan, 50.0, &Monitor::disabled());
            (run.result, run.lost_workers, run.reassigned_realizations)
        }

        fn monitored_lines(config: &ClusterConfig, total: u64) -> Vec<String> {
            let sink = Arc::new(MemorySink::new());
            let monitor = Monitor::new(vec![Box::new(Arc::clone(&sink))]);
            let _ = simulate_with(config, total, &FaultPlan::none(), 50.0, &monitor);
            sink.snapshot().iter().map(|e| e.to_json_line()).collect()
        }

        /// M ∈ {1, 4, 16} × {strict, periodic}, then one heterogeneous
        /// 4-processor cluster.
        fn configs() -> Vec<ClusterConfig> {
            let mut configs = Vec::new();
            for m in [1usize, 4, 16] {
                configs.push(ClusterConfig::paper_testbed(m));
                let mut periodic = ClusterConfig::paper_testbed(m);
                periodic.exchange = ExchangePolicy::Periodic { period: 30.0 };
                configs.push(periodic);
            }
            let mut heterogeneous = ClusterConfig::paper_testbed(4);
            heterogeneous.speeds = vec![1.0, 2.0, 0.5, 1.5];
            configs.push(heterogeneous);
            configs
        }

        /// none, a crash, a dropped final, drop + duplicate + delay of
        /// subtotals, and a 5 % hash-based drop.
        fn plans() -> [FaultPlan; 5] {
            [
                FaultPlan::none(),
                FaultPlan::new(3).crash_rank(2, 5),
                FaultPlan::new(3).drop_message(3, 0, 2, 0),
                FaultPlan::new(11)
                    .drop_message(1, 0, 1, 3)
                    .duplicate_message(2, 0, 1, 4)
                    .delay_message(3, 0, 1, 2, 5),
                FaultPlan::new(99).drop_fraction(0.05),
            ]
        }

        #[rustfmt::skip]
        const PINS: [Pin<'static>; 35] = [
            (0x40a8_1002_8f5c_28d3, 0, 0x3f74_7ae1_47ae_147b, 0xe3bc_c3c0_c94d_0181, 400, &[], 0),
            (0x40a8_1002_8f5c_28d3, 0, 0x3f74_7ae1_47ae_147b, 0xe3bc_c3c0_c94d_0181, 400, &[], 0),
            (0x40a8_1002_8f5c_28d3, 0, 0x3f74_7ae1_47ae_147b, 0xe3bc_c3c0_c94d_0181, 400, &[], 0),
            (0x40a8_1002_8f5c_28d3, 0, 0x3f74_7ae1_47ae_147b, 0xe3bc_c3c0_c94d_0181, 400, &[], 0),
            (0x40a8_1002_8f5c_28d3, 0, 0x3f74_7ae1_47ae_147b, 0xe3bc_c3c0_c94d_0181, 400, &[], 0),
            (0x40a8_1002_8f5c_28d3, 0, 0x3f74_7ae1_47ae_147b, 0xe3bc_c3c0_c94d_0181, 400, &[], 0),
            (0x40a8_1002_8f5c_28d3, 0, 0x3f74_7ae1_47ae_147b, 0xe3bc_c3c0_c94d_0181, 400, &[], 0),
            (0x40a8_1002_8f5c_28d3, 0, 0x3f74_7ae1_47ae_147b, 0xe3bc_c3c0_c94d_0181, 400, &[], 0),
            (0x40a8_1002_8f5c_28d3, 0, 0x3f74_7ae1_47ae_147b, 0xe3bc_c3c0_c94d_0181, 400, &[], 0),
            (0x40a8_1002_8f5c_28d3, 0, 0x3f74_7ae1_47ae_147b, 0xe3bc_c3c0_c94d_0181, 400, &[], 0),
            (0x4088_147a_e147_adf7, 300, 0x3fe1_eb85_1eb8_51d3, 0x23cb_b602_70c2_d7fd, 400, &[], 0),
            (0x4097_96f6_9446_737a, 204, 0x3fe1_4e3b_cd35_a84a, 0xee19_6612_d746_3094, 400, &[2], 96),
            (0x4089_a00c_4ef8_8b98, 299, 0x3fe1_e9e1_b089_a00f, 0x3890_4575_5f02_6dae, 400, &[3], 1),
            (0x4088_147a_e147_adf7, 300, 0x3fe1_eb85_1eb8_51d3, 0x23cb_b602_70c2_d7fd, 400, &[], 0),
            (0x4088_1475_8e21_9636, 287, 0x3fe1_d638_8659_4ade, 0x02f7_ae7e_3e8a_50e3, 400, &[], 0),
            (0x4088_1134_6dc5_d636, 78, 0x3fc3_46dc_5d63_886f, 0x649c_e5c7_7038_f258, 400, &[], 0),
            (0x4097_b42e_b1c4_32cb, 53, 0x3fc2_a305_5326_17c9, 0x50b9_fe90_bb91_ee55, 400, &[2], 97),
            (0x4089_b8d9_1bc5_5864, 77, 0x3fc3_404e_a4a8_c15e, 0xc985_e93f_d1b7_dd16, 400, &[3], 3),
            (0x4088_1134_6dc5_d636, 78, 0x3fc3_46dc_5d63_886f, 0x649c_e5c7_7038_f258, 400, &[], 0),
            (0x4088_1132_617c_1bd8, 73, 0x3fc3_2617_c1bd_a51a, 0x9b51_eabd_5d89_d150, 400, &[], 0),
            (0x4068_1666_6666_669b, 375, 0x3fc9_9999_9999_99ca, 0x2c05_0f09_2456_75a3, 400, &[], 0),
            (0x4076_2655_3261_7c34, 354, 0x3fc9_0ff9_7247_4566, 0x394e_d563_b122_28a1, 400, &[2], 21),
            (0x406e_5031_3be2_2e5e, 374, 0x3fc9_930b_e0de_d2b9, 0x499c_eb9d_5ab1_65fb, 400, &[3], 1),
            (0x4068_1666_6666_669b, 375, 0x3fc9_9999_9999_99ca, 0x2c05_0f09_2456_75a3, 400, &[], 0),
            (0x4068_164a_8c15_4cca, 358, 0x3fc9_2a30_5532_61aa, 0x05ad_71fc_9704_ad4b, 400, &[], 0),
            (0x4068_11f3_b645_a1d9, 105, 0x3faf_3b64_5a1c_abfb, 0x0136_5302_d2c1_5384, 400, &[], 0),
            (0x4076_9f5b_573e_ab3d, 99, 0x3fae_9e1b_089a_0269, 0xf973_cf8b_a910_201e, 400, &[2], 22),
            (0x406e_acfe_08ae_fb2b, 104, 0x3faf_212d_7731_8fb8, 0xc309_9e2f_3c33_fcbe, 400, &[3], 2),
            (0x4068_11f3_b645_a1d9, 105, 0x3faf_3b64_5a1c_abfb, 0x0136_5302_d2c1_5384, 400, &[], 0),
            (0x4068_11ee_cbfb_15c3, 102, 0x3fae_ecbf_b15b_5732, 0xbf96_dbd9_b614_5744, 400, &[], 0),
            (0x4098_100b_7aa2_5d8e, 300, 0x3fe7_851e_b851_eb77, 0x6483_36c6_a8ce_97ed, 400, &[], 0),
            (0x4097_9652_bd3c_361a, 204, 0x3fd8_5f06_f694_4671, 0xdc01_7312_80ca_ddd0, 400, &[2], 96),
            (0x4098_2ed8_476f_2a5b, 299, 0x3fe7_5a85_8793_dd8a, 0x295e_1e6a_dda5_c7e1, 400, &[3], 1),
            (0x4098_100b_7aa2_5d8e, 300, 0x3fe7_851e_b851_eb77, 0x6483_36c6_a8ce_97ed, 400, &[], 0),
            (0x4098_100b_7aa2_5d8e, 287, 0x3fe7_1de6_9ad4_2c2f, 0x73a8_faf8_a975_1f2a, 400, &[], 0),
        ];

        #[test]
        fn every_result_field_matches_its_pin() {
            let mut pins = PINS.iter();
            for (c, config) in configs().iter().enumerate() {
                for (p, plan) in plans().iter().enumerate() {
                    let pin = *pins.next().expect("one pin per case");
                    let (result, lost, reassigned) = faulted(config, plan);
                    assert_eq!(
                        pin_of(&result, &lost, reassigned),
                        pin,
                        "config {c}, plan {p}"
                    );
                    if p == 0 {
                        let plain = pin_of(&simulate(config, 400), &[], 0);
                        assert_eq!(plain, pin, "config {c}, plain simulate");
                    }
                }
            }
            assert!(pins.next().is_none());
        }

        #[test]
        fn fault_free_monitored_event_stream_matches_its_pin() {
            let lines = monitored_lines(&ClusterConfig::paper_testbed(4), 64);
            let digest = lines.iter().fold(FNV_OFFSET, |hash, line| {
                fnv1a(line.bytes().chain(std::iter::once(b'\n')), hash)
            });
            assert_eq!(lines.len(), 199);
            assert_eq!(digest, 0xea7b_5cec_7275_fa5f);
        }
    }

    mod properties {
        use super::*;
        use parmonc_testkit::prelude::*;

        proptest! {
            /// T_comp is bounded below by the critical path: rank 0's
            /// own compute plus the final save, and every worker's
            /// compute plus one transfer.
            #[test]
            fn t_comp_respects_critical_path(m in 1usize..64, l in 1u64..5_000) {
                let c = strict(m);
                let r = simulate(&c, l);
                let own = c.quota(0, l) as f64 * c.realization_seconds;
                prop_assert!(r.t_comp + 1e-9 >= own + c.save_cost_seconds);
                for rank in 1..m {
                    let worker = c.quota(rank, l) as f64 * c.realization_seconds
                        + c.transfer_seconds();
                    prop_assert!(
                        r.t_comp + 1e-9 >= worker,
                        "rank {rank}: T={} < {worker}",
                        r.t_comp
                    );
                }
            }

            /// Strict mode sends exactly one message per worker
            /// realization — plus the empty final message a zero-quota
            /// worker still sends (mirroring the runner, where every
            /// rank always reports a final subtotal).
            #[test]
            fn strict_message_count(m in 1usize..64, l in 1u64..5_000) {
                let c = strict(m);
                let r = simulate(&c, l);
                let expected: u64 = (1..m).map(|rank| c.quota(rank, l).max(1)).sum();
                prop_assert_eq!(r.messages, expected);
            }

            /// T_comp is monotone in L up to save-batch granularity:
            /// adding a realization can *re-batch* message draining
            /// (e.g. a zero-quota worker's early final message forces
            /// an extra receive+save batch at L-1 that disappears at
            /// L), so strict monotonicity only holds modulo a few
            /// batch costs.
            #[test]
            fn monotone_in_l(m in 1usize..32, l in 2u64..3_000) {
                let c = strict(m);
                let slack = 3.0 * (c.save_cost_seconds
                    + c.receive_cost_seconds * m as f64
                    + c.transfer_seconds());
                prop_assert!(
                    simulate(&c, l).t_comp >= simulate(&c, l - 1).t_comp - slack
                );
            }

            /// Quotas sum to L in both modes, for arbitrary speed mixes.
            #[test]
            fn quotas_conserve_volume(
                m in 1usize..16,
                l in 1u64..100_000,
                fast in 1usize..16,
                weighted in any::<bool>()
            ) {
                let mut c = strict(m);
                c.speeds = (0..m).map(|i| if i < fast { 8.0 } else { 1.0 }).collect();
                c.quota_mode = if weighted {
                    crate::model::QuotaMode::SpeedWeighted
                } else {
                    crate::model::QuotaMode::Uniform
                };
                let sum: u64 = (0..m).map(|rank| c.quota(rank, l)).sum();
                prop_assert_eq!(sum, l);
            }
        }
    }
}
