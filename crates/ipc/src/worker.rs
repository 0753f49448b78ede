//! Worker-process self-identification.
//!
//! The process backend re-executes the current binary for each worker
//! rank. The *environment* is the authoritative channel: the parent
//! sets the `PARMONC_WORKER_*` variables on each child, and the
//! runner's first action is to check [`worker_env`] and divert into
//! the worker loop ("hijack") before any of the user program's own
//! side effects can repeat. Everything else a worker needs — its rank,
//! quota, collection parent, monitor and span flags — arrives in the
//! join grant. The [`WORKER_FLAG`] argument is appended to the child's
//! argv as a human-visible marker (`ps` shows it) and so CLI parsers
//! can strip it; it is not load-bearing.

use std::path::PathBuf;

use crate::backoff::splitmix64;

/// The argv marker appended to worker processes: visible in `ps`,
/// stripped by the CLI/demo argument parsers, otherwise inert.
pub const WORKER_FLAG: &str = "--parmonc-worker";

const ENV_SOCKET: &str = "PARMONC_WORKER_SOCKET";
const ENV_TOKEN: &str = "PARMONC_WORKER_TOKEN";

/// Everything a spawned worker needs to join its parent's world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerInfo {
    /// Path of the parent's Unix-domain listening socket.
    pub socket: PathBuf,
    /// Spawn token, mixed into the join's configuration digest so a
    /// stray process dialing the socket cannot claim a rank.
    pub token: String,
}

impl WorkerInfo {
    /// The environment variables to set on a spawned worker.
    #[must_use]
    pub fn to_env(&self) -> [(&'static str, String); 2] {
        [
            (ENV_SOCKET, self.socket.display().to_string()),
            (ENV_TOKEN, self.token.clone()),
        ]
    }

    /// The endpoint to join: the parent's socket as a `unix:` address.
    #[must_use]
    pub fn endpoint(&self) -> String {
        crate::stream::unix_endpoint(&self.socket)
    }

    /// The configuration digest to join with: `config_digest` with the
    /// spawn token mixed in, exactly as the parent mixed it.
    #[must_use]
    pub fn join_digest(&self, config_digest: u64) -> u64 {
        mix_token(config_digest, &self.token)
    }
}

/// Mixes a spawn token into a configuration digest.
pub(crate) fn mix_token(config_digest: u64, token: &str) -> u64 {
    token.bytes().fold(splitmix64(config_digest), |h, b| {
        splitmix64(h ^ u64::from(b))
    })
}

/// Reads the worker environment, if this process was spawned as a
/// worker rank. Returns `None` unless every variable is present.
#[must_use]
pub fn worker_env() -> Option<WorkerInfo> {
    Some(WorkerInfo {
        socket: PathBuf::from(std::env::var_os(ENV_SOCKET)?),
        token: std::env::var(ENV_TOKEN).ok()?,
    })
}

/// Whether this process is a spawned worker rank. Use this to guard
/// destructive setup (removing output directories, printing banners)
/// that must only run in the parent: a worker re-executes the user
/// program's `main` up to the `run()` call, and anything before that
/// call runs again in every worker.
#[must_use]
pub fn is_worker() -> bool {
    worker_env().is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_token_changes_the_join_digest() {
        let info = WorkerInfo {
            socket: PathBuf::from("/tmp/parmonc-ipc-1/rank0.sock"),
            token: "deadbeef".into(),
        };
        assert_eq!(info.endpoint(), "unix:/tmp/parmonc-ipc-1/rank0.sock");
        assert_ne!(info.join_digest(42), 42);
        assert_eq!(info.join_digest(42), mix_token(42, "deadbeef"));
        assert_ne!(info.join_digest(42), mix_token(42, "deadbeee"));
        let env = info.to_env();
        assert!(env.iter().any(|(k, v)| *k == ENV_TOKEN && v == "deadbeef"));
    }

    // `worker_env()` itself reads real process environment; tests do
    // not mutate it (std::env::set_var is process-global and would
    // race the parallel test harness), so the parse paths are covered
    // via the integration spawn tests in `transport_conformance.rs`.
    #[test]
    fn this_test_process_is_not_a_worker() {
        assert!(!is_worker());
    }
}
