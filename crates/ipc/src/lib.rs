//! Socket transports for the PARMONC reproduction: multi-process over
//! Unix-domain sockets, and multi-host over TCP — one link layer for
//! both.
//!
//! The in-process substrate (`parmonc-mpi`) runs ranks as OS threads;
//! this crate runs them as *processes*, which is the paper's actual
//! deployment shape: every rank has its own address space and RNG
//! state, and all communication crosses a real kernel boundary.
//!
//! The [`tcp`] module is the link layer: a collector listens on an
//! endpoint, workers dial in, complete the versioned join/grant
//! handshake (`docs/wire-protocol.md`) and lease a rank, with elastic
//! membership, sequence-number dedup, clock alignment and automatic
//! reconnect. The endpoint is a TCP address for remote hosts, or
//! `unix:<path>` for a Unix-domain socket; one stream type carries
//! both, so every mechanism is written once.
//!
//! The process backend is that same link plus re-execution, like
//! `mpirun` without the launcher: rank 0
//! ([`TcpCollectorTransport::spawn`]) listens on a private Unix socket
//! and re-executes the current binary once per worker with the socket
//! path and a spawn token in the `PARMONC_WORKER_*` environment; the
//! runner's first action is to check [`worker_env`] and divert into
//! the ordinary join path, so the same user program binary serves as
//! both collector and workers. Messages are the same length-prefixed
//! [`parmonc_mpi::Envelope`]s the thread substrate moves over
//! channels, framed onto the socket ([`frame`]); worker monitor events
//! ride the same stream and are re-emitted into the collector's run
//! trace.
//!
//! Both ends implement [`parmonc_mpi::Transport`], so the
//! collector/worker code in `parmonc` is identical across substrates
//! — and because each rank completes exactly its assigned quota of
//! leapfrogged RNG streams, estimates are bit-identical to the thread
//! backend for the same configuration and seed.

// `deny`, not `forbid`: `reuse` carries the workspace's only unsafe
// code — four C calls to bind the collector listener with
// `SO_REUSEADDR` (crash–resume needs the port back immediately).
#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod backoff;
pub mod faulty;
pub mod frame;
mod link;
mod reuse;
mod stream;
pub mod tcp;
mod transport;
mod worker;

pub use backoff::{Backoff, ReconnectPolicy};
pub use faulty::FaultyStream;
pub use link::admit_seq;
pub use reuse::bind_reuseaddr;
pub use tcp::{
    JoinOptions, LeaseSnapshot, ListenOptions, TcpCollectorTransport, TcpWorkerTransport,
};
pub use transport::SpawnOptions;
pub use worker::{is_worker, worker_env, WorkerInfo, WORKER_FLAG};
