//! The fault-gated send path, shared by every substrate.
//!
//! The deterministic fault plane may deliver, drop, duplicate or hold
//! back any message a rank sends. [`SendGate`] applies that decision
//! in front of a substrate's raw delivery — a channel enqueue for the
//! thread world, a socket frame for the `parmonc-ipc` worlds — so the
//! observable semantics (which messages arrive, in what order, and the
//! `fault_injected` events that say why) are identical on every
//! backend.

use std::cell::RefCell;

use parmonc_faults::{FaultHandle, FaultKind, SendAction};
use parmonc_obs::{EventKind, Monitor};

use crate::bytes::Bytes;
use crate::envelope::Tag;
use crate::error::MpiError;

/// A substrate's raw, unfaulted delivery of one message to `dest`.
/// It reports its own `message_sent` event (see
/// [`SendGate::note_sent`]), so substrates that also account queue
/// depth keep their event order.
pub type Deliver<'a> = &'a dyn Fn(usize, Tag, Bytes) -> Result<(), MpiError>;

/// A message the fault plane is holding back: it leaves the sender
/// only after `remaining` further sends from the same rank.
#[derive(Debug)]
struct DelayedSend {
    remaining: u32,
    dest: usize,
    tag: Tag,
    payload: Bytes,
}

/// One rank's fault-gated send path. With the disabled fault plane
/// (the default everywhere but chaos runs) a send costs one extra
/// branch before the raw delivery.
#[derive(Debug)]
pub struct SendGate {
    rank: usize,
    pub(crate) faults: FaultHandle,
    monitor: Monitor,
    /// Messages the fault plane is holding back; flushed with `force`
    /// at teardown so a held message is late, never lost (unless
    /// scripted as a drop).
    delayed: RefCell<Vec<DelayedSend>>,
}

impl SendGate {
    /// The gate for rank `rank`, consulting `faults` and reporting
    /// into `monitor`.
    #[must_use]
    pub fn new(rank: usize, faults: FaultHandle, monitor: Monitor) -> Self {
        Self {
            rank,
            faults,
            monitor,
            delayed: RefCell::new(Vec::new()),
        }
    }

    /// Sends `payload` through the fault plane: `deliver` runs zero,
    /// one or two times now, or later from a subsequent send or
    /// [`SendGate::flush_delayed`]. Each injected fault is reported as
    /// a `fault_injected` event. `dest` must already be validated.
    ///
    /// # Errors
    ///
    /// The first error `deliver` returns.
    pub fn send(
        &self,
        dest: usize,
        tag: Tag,
        payload: Bytes,
        deliver: Deliver<'_>,
    ) -> Result<(), MpiError> {
        if !self.faults.is_enabled() {
            return deliver(dest, tag, payload);
        }
        // Every send ages the held-back messages; due ones leave first
        // so a delayed message is overtaken by exactly `hold_sends`
        // later sends.
        self.flush_delayed(false, deliver)?;
        let (seq, action) = self.faults.on_send(self.rank, dest, tag.0);
        match action {
            SendAction::Deliver => deliver(dest, tag, payload),
            SendAction::Drop => {
                self.note_fault(FaultKind::MessageDrop, seq);
                Ok(())
            }
            SendAction::Duplicate => {
                self.note_fault(FaultKind::MessageDuplicate, seq);
                deliver(dest, tag, payload.clone())?;
                deliver(dest, tag, payload)
            }
            SendAction::Delay { hold_sends } => {
                self.note_fault(FaultKind::MessageDelay, seq);
                if hold_sends == 0 {
                    return deliver(dest, tag, payload);
                }
                self.delayed.borrow_mut().push(DelayedSend {
                    remaining: hold_sends,
                    dest,
                    tag,
                    payload,
                });
                Ok(())
            }
        }
    }

    /// Ages held-back messages by one send and delivers the due ones
    /// (with `force`, everything — the teardown path, so a delayed
    /// message is late, never lost).
    ///
    /// # Errors
    ///
    /// The first error `deliver` returns.
    pub fn flush_delayed(&self, force: bool, deliver: Deliver<'_>) -> Result<(), MpiError> {
        if self.delayed.borrow().is_empty() {
            return Ok(());
        }
        let due: Vec<DelayedSend> = {
            let mut held = self.delayed.borrow_mut();
            if !force {
                for entry in held.iter_mut() {
                    entry.remaining = entry.remaining.saturating_sub(1);
                }
            }
            let mut due = Vec::new();
            let mut i = 0;
            while i < held.len() {
                if force || held[i].remaining == 0 {
                    due.push(held.remove(i));
                } else {
                    i += 1;
                }
            }
            due
        };
        for entry in due {
            deliver(entry.dest, entry.tag, entry.payload)?;
        }
        Ok(())
    }

    /// Emits the `message_sent` event for one delivered message; raw
    /// deliveries call this once the message has left the rank.
    pub fn note_sent(&self, dest: usize, tag: Tag, bytes: usize) {
        self.monitor.emit(
            Some(self.rank),
            EventKind::MessageSent {
                dest,
                tag: tag.0,
                bytes: bytes as u64,
            },
        );
    }

    /// Emits a `fault_injected` monitor event for a message fault.
    fn note_fault(&self, kind: FaultKind, seq: u64) {
        self.monitor.emit(
            Some(self.rank),
            EventKind::FaultInjected {
                fault: kind.as_str().to_string(),
                detail: Some(seq),
            },
        );
    }
}
