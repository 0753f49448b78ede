//! The world launcher and per-rank communicator.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

use parmonc_faults::FaultHandle;
use parmonc_obs::{EventKind, Monitor};

use crate::bytes::Bytes;
use crate::envelope::{Envelope, Tag};
use crate::error::MpiError;
use crate::gate::SendGate;
use crate::pool::BufferPool;

/// Per-receiver channel statistics for monitored worlds: how many
/// messages sit undelivered in each rank's inbox, and the largest such
/// backlog ever seen. Only allocated when a [`Monitor`] is attached, so
/// unmonitored worlds pay nothing.
#[derive(Debug)]
struct ChannelStats {
    /// Messages enqueued for rank `i` and not yet pulled by it.
    depths: Vec<AtomicUsize>,
    /// High-water mark of `depths[i]`.
    high_water: Vec<AtomicU64>,
}

impl ChannelStats {
    fn new(size: usize) -> Self {
        Self {
            depths: (0..size).map(|_| AtomicUsize::new(0)).collect(),
            high_water: (0..size).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// The per-rank handle: knows its rank, the world size, and how to
/// reach every other rank.
///
/// Matching semantics mirror MPI: [`Communicator::recv`] takes optional
/// source and tag filters; messages that arrive but do not match are
/// buffered and delivered to a later matching receive, preserving
/// per-(source, tag) order.
#[derive(Debug)]
pub struct Communicator {
    rank: usize,
    senders: Arc<Vec<Sender<Envelope>>>,
    inbox: Receiver<Envelope>,
    /// Messages received from the channel but not yet matched.
    pending: VecDeque<Envelope>,
    /// Event sink for monitored worlds (disabled = one dead branch per
    /// operation).
    monitor: Monitor,
    /// Queue-depth counters, present only in monitored worlds.
    stats: Option<Arc<ChannelStats>>,
    /// The fault-gated send path (disabled plane = one dead branch per
    /// send); flushed on [`Drop`] so a held message is late, never
    /// lost (unless scripted as a drop).
    gate: SendGate,
    /// Send-buffer freelist shared by all ranks of this world: senders
    /// take encode buffers from it, receivers recycle decoded payloads
    /// into it.
    pool: Arc<BufferPool>,
}

impl Communicator {
    /// This rank's number (0-based).
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    #[must_use]
    pub fn size(&self) -> usize {
        self.senders.len()
    }

    /// The world-shared send-buffer freelist. Senders take pre-sized
    /// encode buffers from it so steady-state traffic reuses retired
    /// allocations instead of allocating per message.
    #[must_use]
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Returns a fully consumed payload's allocation to the world's
    /// freelist (the receiver-side half of the recycling contract).
    /// No-op if other handles to the payload are still alive.
    pub fn recycle(&self, payload: Bytes) {
        let _ = self.pool.recycle(payload);
    }

    /// Bumps the destination's queue-depth counter in a monitored
    /// world, returning the new depth. Must run *before* the message is
    /// enqueued — the receiver decrements on delivery, and a message
    /// counted after it was already delivered would underflow the
    /// counter. Balanced by [`Communicator::undo_enqueue`] when the
    /// send fails.
    fn note_enqueue(&self, dest: usize) -> Option<u64> {
        self.stats
            .as_ref()
            .map(|stats| stats.depths[dest].fetch_add(1, Ordering::Relaxed) as u64 + 1)
    }

    /// Reverts [`Communicator::note_enqueue`] after a failed send.
    fn undo_enqueue(&self, dest: usize) {
        if let Some(stats) = &self.stats {
            stats.depths[dest].fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Records a successful send in a monitored world: emits
    /// `message_sent`, plus `queue_high_water` when the backlog
    /// (`depth`, from [`Communicator::note_enqueue`]) reaches a new
    /// maximum.
    fn note_send(&self, dest: usize, tag: Tag, bytes: usize, depth: u64) {
        if let Some(stats) = &self.stats {
            self.gate.note_sent(dest, tag, bytes);
            let prev = stats.high_water[dest].fetch_max(depth, Ordering::Relaxed);
            if depth > prev {
                self.monitor
                    .emit(Some(dest), EventKind::QueueHighWater { depth });
            }
        }
    }

    /// Records a message leaving this rank's channel (it is now owned by
    /// the receiving rank, possibly in its pending buffer).
    fn note_delivery(&self, env: &Envelope) {
        if let Some(stats) = &self.stats {
            let depth = stats.depths[self.rank]
                .fetch_sub(1, Ordering::Relaxed)
                .saturating_sub(1) as u64;
            self.monitor.emit(
                Some(self.rank),
                EventKind::MessageReceived {
                    source: env.source,
                    tag: env.tag.0,
                    bytes: env.payload.len() as u64,
                    queue_depth: depth,
                },
            );
        }
    }

    /// Sends `payload` to rank `dest` with tag `tag`. Asynchronous and
    /// non-blocking (buffered send): the call returns once the message
    /// is enqueued.
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::InvalidRank`] for an out-of-range
    /// destination, or [`MpiError::Disconnected`] if the destination has
    /// already been torn down.
    pub fn send(&self, dest: usize, tag: Tag, payload: &[u8]) -> Result<(), MpiError> {
        self.send_bytes(dest, tag, Bytes::copy_from_slice(payload))
    }

    /// Zero-copy variant of [`Communicator::send`] for payloads already
    /// in [`Bytes`] form.
    ///
    /// When a fault plane is attached ([`World::communicators_faulted`])
    /// the message may be scripted to be dropped, duplicated or held
    /// back; each injected fault is reported as a `fault_injected`
    /// monitor event. With the disabled plane (the default everywhere
    /// else) this is a single extra branch.
    ///
    /// # Errors
    ///
    /// Same as [`Communicator::send`].
    pub fn send_bytes(&self, dest: usize, tag: Tag, payload: Bytes) -> Result<(), MpiError> {
        if dest >= self.size() {
            return Err(MpiError::InvalidRank {
                rank: dest,
                size: self.size(),
            });
        }
        self.gate
            .send(dest, tag, payload, &|d, t, p| self.send_now(d, t, p))
    }

    /// The unfaulted send path: enqueue for `dest`, with monitored
    /// queue-depth accounting. `dest` has already been validated.
    fn send_now(&self, dest: usize, tag: Tag, payload: Bytes) -> Result<(), MpiError> {
        let sender = &self.senders[dest];
        let bytes = payload.len();
        // Count the message before it is enqueued: once it is in the
        // channel the receiver may pull it (and decrement) at any time.
        let depth = self.note_enqueue(dest);
        match sender.send(Envelope {
            source: self.rank,
            tag,
            payload,
        }) {
            Ok(()) => {
                self.note_send(dest, tag, bytes, depth.unwrap_or(0));
                Ok(())
            }
            Err(_) => {
                self.undo_enqueue(dest);
                Err(MpiError::Disconnected)
            }
        }
    }

    fn matches(env: &Envelope, source: Option<usize>, tag: Option<Tag>) -> bool {
        source.is_none_or(|s| env.source == s) && tag.is_none_or(|t| env.tag == t)
    }

    fn take_pending(&mut self, source: Option<usize>, tag: Option<Tag>) -> Option<Envelope> {
        let idx = self
            .pending
            .iter()
            .position(|e| Self::matches(e, source, tag))?;
        self.pending.remove(idx)
    }

    /// Blocking receive of the next message matching the optional
    /// `source` and `tag` filters (`None` = wildcard, MPI's
    /// `MPI_ANY_SOURCE` / `MPI_ANY_TAG`).
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::Disconnected`] if all possible senders have
    /// been dropped while no matching message is buffered.
    pub fn recv(&mut self, source: Option<usize>, tag: Option<Tag>) -> Result<Envelope, MpiError> {
        if let Some(env) = self.take_pending(source, tag) {
            return Ok(env);
        }
        loop {
            let env = self.inbox.recv().map_err(|_| MpiError::Disconnected)?;
            self.note_delivery(&env);
            if Self::matches(&env, source, tag) {
                return Ok(env);
            }
            self.pending.push_back(env);
        }
    }

    /// Blocking receive with a timeout; `Ok(None)` on timeout.
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::Disconnected`] if all senders are gone.
    pub fn recv_timeout(
        &mut self,
        source: Option<usize>,
        tag: Option<Tag>,
        timeout: Duration,
    ) -> Result<Option<Envelope>, MpiError> {
        if let Some(env) = self.take_pending(source, tag) {
            return Ok(Some(env));
        }
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            match self.inbox.recv_timeout(remaining) {
                Ok(env) => {
                    self.note_delivery(&env);
                    if Self::matches(&env, source, tag) {
                        return Ok(Some(env));
                    }
                    self.pending.push_back(env);
                }
                Err(RecvTimeoutError::Timeout) => return Ok(None),
                Err(RecvTimeoutError::Disconnected) => return Err(MpiError::Disconnected),
            }
        }
    }

    /// Non-blocking receive: returns a matching message if one is
    /// already available (MPI's `MPI_Iprobe` + `MPI_Recv` pattern the
    /// collector loop uses).
    pub fn try_recv(&mut self, source: Option<usize>, tag: Option<Tag>) -> Option<Envelope> {
        if let Some(env) = self.take_pending(source, tag) {
            return Some(env);
        }
        loop {
            match self.inbox.try_recv() {
                Ok(env) => {
                    self.note_delivery(&env);
                    if Self::matches(&env, source, tag) {
                        return Some(env);
                    }
                    self.pending.push_back(env);
                }
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => return None,
            }
        }
    }

    /// Whether a matching message is available without consuming it.
    ///
    /// Held-back (delayed) messages are invisible to the probe until
    /// the fault plane releases them — exactly the observable behavior
    /// of a message still in flight.
    pub fn iprobe(&mut self, source: Option<usize>, tag: Option<Tag>) -> bool {
        if self.pending.iter().any(|e| Self::matches(e, source, tag)) {
            return true;
        }
        // Drain whatever is in the channel into the pending buffer so
        // the probe sees it.
        while let Ok(env) = self.inbox.try_recv() {
            self.note_delivery(&env);
            self.pending.push_back(env);
        }
        self.pending.iter().any(|e| Self::matches(e, source, tag))
    }
}

impl Drop for Communicator {
    fn drop(&mut self) {
        // A rank tearing down force-flushes anything the fault plane
        // was holding, so "delayed" can never silently become "lost".
        // Errors are ignored: the receiver may already be gone.
        let _ = self
            .gate
            .flush_delayed(true, &|d, t, p| self.send_now(d, t, p));
    }
}

/// The world launcher: the `mpirun` analogue.
#[derive(Debug)]
pub struct World;

impl World {
    /// Builds the communicators for a world of `size` ranks without
    /// spawning threads (used by the runner when it wants to drive the
    /// ranks itself).
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::EmptyWorld`] if `size == 0`.
    pub fn communicators(size: usize) -> Result<Vec<Communicator>, MpiError> {
        Self::communicators_monitored(size, Monitor::disabled())
    }

    /// [`World::communicators`] with a [`Monitor`] attached: every
    /// communicator reports `message_sent` / `message_received` /
    /// `queue_high_water` events through it. With a disabled monitor
    /// this is exactly [`World::communicators`] — the queue-depth
    /// counters are not even allocated.
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::EmptyWorld`] if `size == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use parmonc_mpi::{Tag, World};
    /// use parmonc_obs::{MemorySink, Monitor};
    /// use std::sync::Arc;
    ///
    /// let sink = Arc::new(MemorySink::new());
    /// let monitor = Monitor::new(vec![Box::new(Arc::clone(&sink))]);
    /// let mut comms = World::communicators_monitored(2, monitor).unwrap();
    /// comms[1].send(0, Tag(1), b"subtotal").unwrap();
    /// comms[0].recv(None, None).unwrap();
    /// let kinds: Vec<_> = sink.snapshot().iter().map(|e| e.kind.name().to_string()).collect();
    /// assert_eq!(kinds, ["message_sent", "queue_high_water", "message_received"]);
    /// ```
    pub fn communicators_monitored(
        size: usize,
        monitor: Monitor,
    ) -> Result<Vec<Communicator>, MpiError> {
        Self::communicators_faulted(size, monitor, FaultHandle::disabled())
    }

    /// [`World::communicators_monitored`] with a deterministic fault
    /// plane attached: every send consults the shared [`FaultHandle`],
    /// which may drop, duplicate or delay it. With the disabled handle
    /// this is exactly [`World::communicators_monitored`].
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::EmptyWorld`] if `size == 0`.
    pub fn communicators_faulted(
        size: usize,
        monitor: Monitor,
        faults: FaultHandle,
    ) -> Result<Vec<Communicator>, MpiError> {
        if size == 0 {
            return Err(MpiError::EmptyWorld);
        }
        let mut senders = Vec::with_capacity(size);
        let mut inboxes = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, rx) = channel();
            senders.push(tx);
            inboxes.push(rx);
        }
        let senders = Arc::new(senders);
        let stats = monitor
            .is_enabled()
            .then(|| Arc::new(ChannelStats::new(size)));
        let pool = Arc::new(BufferPool::default());
        Ok(inboxes
            .into_iter()
            .enumerate()
            .map(|(rank, inbox)| Communicator {
                rank,
                senders: Arc::clone(&senders),
                inbox,
                pending: VecDeque::new(),
                monitor: monitor.clone(),
                stats: stats.clone(),
                gate: SendGate::new(rank, faults.clone(), monitor.clone()),
                pool: Arc::clone(&pool),
            })
            .collect())
    }

    /// Spawns `size` ranks, runs `f` on each with its communicator, and
    /// returns every rank's result, index = rank.
    ///
    /// The closure returns `Result<T, MpiError>` — the typical failure
    /// is a blocked `recv` discovering its peers exited.
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::EmptyWorld`] if `size == 0`, or
    /// [`MpiError::RankPanicked`] if any rank's closure panicked
    /// (results from non-panicking ranks are discarded in that case).
    pub fn run<T, F>(size: usize, f: F) -> Result<Vec<Result<T, MpiError>>, MpiError>
    where
        T: Send + 'static,
        F: Fn(&mut Communicator) -> Result<T, MpiError> + Send + Sync + 'static,
    {
        let comms = Self::communicators(size)?;
        let f = Arc::new(f);
        let handles: Vec<_> = comms
            .into_iter()
            .map(|mut comm| {
                let f = Arc::clone(&f);
                std::thread::Builder::new()
                    .name(format!("rank-{}", comm.rank()))
                    .spawn(move || f(&mut comm))
                    .expect("spawning a rank thread")
            })
            .collect();

        let mut results = Vec::with_capacity(size);
        let mut panic: Option<MpiError> = None;
        for (rank, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(res) => results.push(res),
                Err(payload) => {
                    panic.get_or_insert(MpiError::rank_panicked(rank, &*payload));
                    results.push(Err(MpiError::Disconnected));
                }
            }
        }
        if let Some(p) = panic {
            return Err(p);
        }
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parmonc_obs::MemorySink;

    #[test]
    fn world_rejects_zero_ranks() {
        assert!(matches!(World::communicators(0), Err(MpiError::EmptyWorld)));
    }

    #[test]
    fn rank_and_size() {
        let comms = World::communicators(3).unwrap();
        for (i, c) in comms.iter().enumerate() {
            assert_eq!(c.rank(), i);
            assert_eq!(c.size(), 3);
        }
    }

    #[test]
    fn ping_pong() {
        let results = World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, Tag(1), b"ping")?;
                let reply = comm.recv(Some(1), Some(Tag(2)))?;
                Ok(reply.payload.to_vec())
            } else {
                let msg = comm.recv(Some(0), Some(Tag(1)))?;
                assert_eq!(&msg.payload[..], b"ping");
                comm.send(0, Tag(2), b"pong")?;
                Ok(Vec::new())
            }
        })
        .unwrap();
        assert_eq!(results[0].as_ref().unwrap(), b"pong");
    }

    #[test]
    fn send_to_invalid_rank_errors() {
        let mut comms = World::communicators(2).unwrap();
        let c = &mut comms[0];
        assert!(matches!(
            c.send(5, Tag(0), b""),
            Err(MpiError::InvalidRank { rank: 5, size: 2 })
        ));
    }

    #[test]
    fn self_send_and_receive() {
        let mut comms = World::communicators(1).unwrap();
        let c = &mut comms[0];
        c.send(0, Tag(9), b"hello").unwrap();
        let env = c.recv(Some(0), Some(Tag(9))).unwrap();
        assert_eq!(&env.payload[..], b"hello");
    }

    #[test]
    fn tag_matching_buffers_non_matching_messages() {
        let mut comms = World::communicators(1).unwrap();
        let c = &mut comms[0];
        c.send(0, Tag(1), b"first").unwrap();
        c.send(0, Tag(2), b"second").unwrap();
        // Ask for tag 2 first: tag-1 message must be buffered, not lost.
        let env2 = c.recv(None, Some(Tag(2))).unwrap();
        assert_eq!(&env2.payload[..], b"second");
        let env1 = c.recv(None, Some(Tag(1))).unwrap();
        assert_eq!(&env1.payload[..], b"first");
    }

    #[test]
    fn per_source_order_is_preserved() {
        let mut comms = World::communicators(1).unwrap();
        let c = &mut comms[0];
        for i in 0..10u8 {
            c.send(0, Tag(0), &[i]).unwrap();
        }
        for i in 0..10u8 {
            let env = c.recv(Some(0), Some(Tag(0))).unwrap();
            assert_eq!(env.payload[0], i);
        }
    }

    #[test]
    fn try_recv_returns_none_when_empty() {
        let mut comms = World::communicators(2).unwrap();
        assert!(comms[0].try_recv(None, None).is_none());
    }

    #[test]
    fn iprobe_sees_waiting_message_without_consuming() {
        let mut comms = World::communicators(1).unwrap();
        let c = &mut comms[0];
        assert!(!c.iprobe(None, None));
        c.send(0, Tag(3), b"x").unwrap();
        assert!(c.iprobe(None, Some(Tag(3))));
        assert!(c.iprobe(None, Some(Tag(3)))); // still there
        let env = c.try_recv(None, Some(Tag(3))).unwrap();
        assert_eq!(&env.payload[..], b"x");
        assert!(!c.iprobe(None, None));
    }

    #[test]
    fn recv_timeout_times_out() {
        let mut comms = World::communicators(2).unwrap();
        let got = comms[0]
            .recv_timeout(Some(1), None, Duration::from_millis(20))
            .unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn recv_timeout_delivers_buffered_message() {
        let mut comms = World::communicators(1).unwrap();
        let c = &mut comms[0];
        c.send(0, Tag(1), b"now").unwrap();
        let got = c
            .recv_timeout(None, Some(Tag(1)), Duration::from_millis(1))
            .unwrap();
        assert!(got.is_some());
    }

    #[test]
    fn many_to_one_gather_pattern() {
        // The PARMONC collector pattern: rank 0 receives from everyone
        // in arrival order with wildcard matching.
        let results = World::run(8, |comm| {
            if comm.rank() == 0 {
                let mut total = 0u64;
                for _ in 1..comm.size() {
                    let env = comm.recv(None, None)?;
                    total += u64::from_le_bytes(env.payload[..8].try_into().unwrap());
                }
                Ok(total)
            } else {
                comm.send(0, Tag(0), &(comm.rank() as u64).to_le_bytes())?;
                Ok(0)
            }
        })
        .unwrap();
        assert_eq!(*results[0].as_ref().unwrap(), (1..8).sum::<u64>());
    }

    #[test]
    fn panicking_rank_is_reported() {
        let err = World::run(2, |comm| -> Result<(), MpiError> {
            if comm.rank() == 1 {
                panic!("worker exploded");
            }
            Ok(())
        })
        .unwrap_err();
        match err {
            MpiError::RankPanicked { rank, message } => {
                assert_eq!(rank, 1);
                assert!(message.contains("exploded"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn stress_many_ranks_many_messages() {
        let results = World::run(16, |comm| {
            if comm.rank() == 0 {
                let mut sum = 0u64;
                let expected = (comm.size() - 1) * 50;
                for _ in 0..expected {
                    let env = comm.recv(None, None)?;
                    sum += u64::from_le_bytes(env.payload[..8].try_into().unwrap());
                }
                Ok(sum)
            } else {
                for i in 0..50u64 {
                    comm.send(0, Tag(0), &i.to_le_bytes())?;
                }
                Ok(0)
            }
        })
        .unwrap();
        assert_eq!(*results[0].as_ref().unwrap(), 15 * (0..50).sum::<u64>());
    }

    #[test]
    fn monitored_world_counts_queue_depths() {
        let sink = Arc::new(MemorySink::new());
        let monitor = Monitor::new(vec![Box::new(Arc::clone(&sink))]);
        let mut comms = World::communicators_monitored(2, monitor).unwrap();
        let (left, right) = comms.split_at_mut(1);
        let receiver = &mut left[0];
        let sender = &mut right[0];
        for i in 0..4u8 {
            sender.send(0, Tag(1), &[i]).unwrap();
        }
        for _ in 0..4 {
            receiver.recv(None, None).unwrap();
        }
        let events = sink.snapshot();
        let sent = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::MessageSent { .. }))
            .count();
        let received: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::MessageReceived { queue_depth, .. } => Some(queue_depth),
                _ => None,
            })
            .collect();
        let high_water: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::QueueHighWater { depth } => Some(depth),
                _ => None,
            })
            .collect();
        assert_eq!(sent, 4);
        // Backlog drains 3, 2, 1, 0 as the four messages are delivered.
        assert_eq!(received, vec![3, 2, 1, 0]);
        // Each send deepened the backlog, so each set a new high water.
        assert_eq!(high_water, vec![1, 2, 3, 4]);
    }

    #[test]
    fn unmonitored_world_allocates_no_stats() {
        let comms = World::communicators(2).unwrap();
        assert!(comms[0].stats.is_none());
        assert!(!comms[0].monitor.is_enabled());
        assert!(!comms[0].gate.faults.is_enabled());
    }

    #[test]
    fn faulted_world_drops_scripted_messages() {
        use parmonc_faults::FaultPlan;
        let faults = FaultPlan::new(1).drop_message(1, 0, 7, 1).build();
        let mut comms =
            World::communicators_faulted(2, Monitor::disabled(), faults.clone()).unwrap();
        let (left, right) = comms.split_at_mut(1);
        for i in 0..3u8 {
            right[0].send(0, Tag(7), &[i]).unwrap();
        }
        // Sequence 1 (payload [1]) was dropped; 0 and 2 arrive in order.
        assert_eq!(left[0].try_recv(None, None).unwrap().payload[0], 0);
        assert_eq!(left[0].try_recv(None, None).unwrap().payload[0], 2);
        assert!(left[0].try_recv(None, None).is_none());
        assert_eq!(faults.records().len(), 1);
    }

    #[test]
    fn faulted_world_duplicates_scripted_messages() {
        use parmonc_faults::FaultPlan;
        let faults = FaultPlan::new(1).duplicate_message(1, 0, 1, 0).build();
        let mut comms = World::communicators_faulted(2, Monitor::disabled(), faults).unwrap();
        let (left, right) = comms.split_at_mut(1);
        right[0].send(0, Tag(1), b"twice").unwrap();
        assert_eq!(&left[0].try_recv(None, None).unwrap().payload[..], b"twice");
        assert_eq!(&left[0].try_recv(None, None).unwrap().payload[..], b"twice");
        assert!(left[0].try_recv(None, None).is_none());
    }

    #[test]
    fn delayed_message_is_overtaken_then_delivered() {
        use parmonc_faults::FaultPlan;
        let faults = FaultPlan::new(1).delay_message(1, 0, 1, 0, 2).build();
        let mut comms = World::communicators_faulted(2, Monitor::disabled(), faults).unwrap();
        let (left, right) = comms.split_at_mut(1);
        right[0].send(0, Tag(1), b"early").unwrap(); // held
        assert!(left[0].try_recv(None, None).is_none());
        right[0].send(0, Tag(1), b"mid").unwrap(); // ages held to 1
        right[0].send(0, Tag(1), b"late").unwrap(); // releases held first
        let order: Vec<Vec<u8>> = (0..3)
            .map(|_| left[0].try_recv(None, None).unwrap().payload.to_vec())
            .collect();
        assert_eq!(
            order,
            vec![b"mid".to_vec(), b"early".to_vec(), b"late".to_vec()]
        );
    }

    #[test]
    fn dropping_a_communicator_flushes_held_messages() {
        use parmonc_faults::FaultPlan;
        let faults = FaultPlan::new(1).delay_message(1, 0, 1, 0, 100).build();
        let mut comms = World::communicators_faulted(2, Monitor::disabled(), faults).unwrap();
        let sender = comms.pop().unwrap();
        sender.send(0, Tag(1), b"held").unwrap();
        assert!(comms[0].try_recv(None, None).is_none());
        drop(sender); // force-flush: late, never lost
        assert_eq!(&comms[0].try_recv(None, None).unwrap().payload[..], b"held");
    }

    #[test]
    fn message_faults_emit_monitor_events() {
        use parmonc_faults::FaultPlan;
        let sink = Arc::new(MemorySink::new());
        let monitor = Monitor::new(vec![Box::new(Arc::clone(&sink))]);
        let faults = FaultPlan::new(1).drop_message(1, 0, 1, 0).build();
        let comms = World::communicators_faulted(2, monitor, faults).unwrap();
        comms[1].send(0, Tag(1), b"gone").unwrap();
        let events = sink.snapshot();
        assert!(events.iter().any(|e| matches!(
            &e.kind,
            EventKind::FaultInjected { fault, detail: Some(0) } if fault == "message_drop"
        )));
        // A dropped message produces no message_sent event.
        assert!(!events
            .iter()
            .any(|e| matches!(e.kind, EventKind::MessageSent { .. })));
    }

    #[test]
    fn faulted_send_still_validates_the_destination() {
        use parmonc_faults::FaultPlan;
        let faults = FaultPlan::new(1).drop_fraction(1.0).build();
        let comms = World::communicators_faulted(2, Monitor::disabled(), faults).unwrap();
        assert!(matches!(
            comms[0].send(5, Tag(0), b""),
            Err(MpiError::InvalidRank { rank: 5, size: 2 })
        ));
    }
}
