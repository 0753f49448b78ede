//! The process backend's world builder: spawn, wait, reap.
//!
//! [`TcpCollectorTransport::spawn`] listens on a Unix-domain socket in
//! a private temp directory and re-executes the current binary once
//! per worker rank with the socket path and a spawn token in its
//! environment ([`WorkerInfo`]). Each child runs the ordinary join
//! path against that socket: rank, world size, quota, collection
//! parent and the monitor/span flags all come from its grant, exactly
//! as for a remote TCP worker. What this module adds is only the
//! process lifecycle around the shared link layer — wait until every
//! rank is leased, and reap every child at shutdown.

use std::io;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::stream::unix_endpoint;
use crate::tcp::{ListenOptions, TcpCollectorTransport};
use crate::worker::{mix_token, WorkerInfo, WORKER_FLAG};

/// How long the parent waits for all workers to join before declaring
/// the spawn failed.
const ACCEPT_DEADLINE: Duration = Duration::from_secs(30);

/// How long the parent waits for workers to exit on their own during
/// shutdown before killing them.
const EXIT_DEADLINE: Duration = Duration::from_secs(10);

/// How often the spawner polls the lease table and the children.
const POLL: Duration = Duration::from_millis(1);

/// Distinguishes concurrent worlds spawned by one process (tests spawn
/// several); combined with the pid this makes the socket directory
/// unique.
static SPAWN_NONCE: AtomicU64 = AtomicU64::new(0);

/// Configuration for [`TcpCollectorTransport::spawn`].
#[derive(Debug)]
pub struct SpawnOptions {
    /// The collector's listen options. The spawn overrides three of
    /// them: `addr` becomes the private Unix socket, the spawn token
    /// is mixed into `config_digest` (so a stray local dialer is
    /// refused with a configuration mismatch), and `resume`/`persist`
    /// are cleared — a spawned world leaves no lease table behind.
    pub listen: ListenOptions,
    /// Arguments for the re-executed binary, excluding the program
    /// name. `None` inherits this process's own arguments (minus any
    /// existing [`WORKER_FLAG`]) and appends [`WORKER_FLAG`] as a
    /// visible `ps`-greppable marker — right for CLI binaries, whose
    /// parsers strip the flag again. Test harnesses must instead pass
    /// the libtest filter that reaches the spawning test function
    /// (e.g. `["my_test_fn", "--exact"]`); explicit arguments are used
    /// verbatim, *without* the marker, because libtest rejects unknown
    /// flags. Worker detection is carried by the environment
    /// ([`crate::worker_env`]), not by the flag.
    pub worker_args: Option<Vec<String>>,
}

/// The worker processes of a spawned world and their socket directory.
/// Dropping it kills any child still running and removes the
/// directory, so no failure path leaks either.
#[derive(Debug)]
pub(crate) struct Spawned {
    children: Vec<Child>,
    dir: PathBuf,
}

impl Spawned {
    /// Waits for every child to exit on its own, killing any that
    /// outlive [`EXIT_DEADLINE`].
    pub(crate) fn reap(&mut self) -> io::Result<()> {
        let mut first_err = None;
        let deadline = Instant::now() + EXIT_DEADLINE;
        for child in &mut self.children {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => std::thread::sleep(POLL),
                    Ok(None) => {
                        let _ = child.kill();
                        if let Err(e) = child.wait() {
                            first_err.get_or_insert(e);
                        }
                        break;
                    }
                    Err(e) => {
                        first_err.get_or_insert(e);
                        break;
                    }
                }
            }
        }
        self.children.clear();
        first_err.map_or(Ok(()), Err)
    }

    /// Kills and waits every child, ignoring errors (the children may
    /// already be gone).
    pub(crate) fn kill(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.children.clear();
    }
}

impl Drop for Spawned {
    fn drop(&mut self) {
        self.kill();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl TcpCollectorTransport {
    /// Builds a multi-process world: listens on a private Unix socket,
    /// re-executes the current binary `size - 1` times, and waits until
    /// every worker rank is leased. The returned collector owns the
    /// children; [`TcpCollectorTransport::shutdown`] reaps them, and
    /// dropping it without a shutdown kills them.
    ///
    /// # Errors
    ///
    /// Socket/bind/spawn failures, or the workers failing to join
    /// within the accept deadline (in which case every spawned child
    /// is killed before returning).
    pub fn spawn(opts: SpawnOptions) -> io::Result<Self> {
        let SpawnOptions {
            mut listen,
            worker_args,
        } = opts;
        let dir = std::env::temp_dir().join(format!(
            "parmonc-ipc-{}-{}",
            std::process::id(),
            SPAWN_NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        let mut spawned = Spawned {
            children: Vec::new(),
            dir,
        };
        let info = WorkerInfo {
            socket: spawned.dir.join("rank0.sock"),
            token: spawn_token(),
        };
        listen.addr = unix_endpoint(&info.socket);
        listen.config_digest = mix_token(listen.config_digest, &info.token);
        listen.resume = None;
        listen.persist = None;
        let workers = listen.size.saturating_sub(1);
        let mut world = Self::listen(listen)?;

        let exe = std::env::current_exe()?;
        // Explicit worker_args are used verbatim (libtest filters must
        // not gain unknown flags); the inherited-argv path appends the
        // visible WORKER_FLAG marker for `ps` readability.
        let args: Vec<String> = worker_args.unwrap_or_else(|| {
            std::env::args()
                .skip(1)
                .filter(|a| a != WORKER_FLAG)
                .chain(std::iter::once(WORKER_FLAG.to_string()))
                .collect()
        });
        for _ in 0..workers {
            let child = Command::new(&exe)
                .args(&args)
                .envs(info.to_env())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit())
                .spawn()?;
            spawned.children.push(child);
        }
        world.spawned = Some(spawned);

        let deadline = Instant::now() + ACCEPT_DEADLINE;
        loop {
            let joined = world.leased();
            if joined == workers {
                return Ok(world);
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("only {joined} of {workers} workers joined before the deadline"),
                ));
            }
            std::thread::sleep(POLL);
        }
    }
}

/// A weak-but-sufficient unique token: mixed into the join digest so a
/// stray local process that finds the socket path cannot claim a rank.
/// This is an anti-accident measure, not a security boundary — the
/// socket lives in a per-uid temp directory.
fn spawn_token() -> String {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    format!("{:032x}", nanos ^ (u128::from(std::process::id()) << 64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame, JoinRequest, Reject, RejectCode, TAG_TCP_JOIN};
    use crate::stream::Stream;
    use crate::{worker_env, JoinOptions, ReconnectPolicy, TcpWorkerTransport};
    use parmonc_faults::FaultHandle;
    use parmonc_mpi::{Tag, Transport};
    use parmonc_obs::Monitor;

    const DIGEST: u64 = 42;
    const TIMEOUT: Duration = Duration::from_secs(5);

    /// Spawns a one-worker world whose child re-runs the test `name`.
    fn spawn(name: &str) -> TcpCollectorTransport {
        TcpCollectorTransport::spawn(SpawnOptions {
            listen: ListenOptions {
                addr: String::new(),
                size: 2,
                monitor: Monitor::disabled(),
                faults: FaultHandle::disabled(),
                config_digest: DIGEST,
                quotas: vec![10],
                io_timeout: TIMEOUT,
                resume: None,
                trace_spans: false,
                persist: None,
                parents: Vec::new(),
            },
            worker_args: Some(vec![format!("transport::tests::{name}"), "--exact".into()]),
        })
        .expect("the child joins")
    }

    /// The child's side: join the parent's world with the spawn token.
    fn join(info: &WorkerInfo) -> TcpWorkerTransport {
        TcpWorkerTransport::join(JoinOptions {
            addr: info.endpoint(),
            config_digest: info.join_digest(DIGEST),
            faults: FaultHandle::disabled(),
            io_timeout: TIMEOUT,
            reconnect: ReconnectPolicy {
                attempts: 3,
                base_delay: Duration::from_millis(5),
                max_delay: Duration::from_millis(20),
                attempt_timeout: TIMEOUT,
            },
            clock_skew_s: 0.0,
        })
        .expect("the child joins its parent")
    }

    /// The spawn token is what tells a world's own children from any
    /// other local process that finds the socket. The re-executed child
    /// plays both parts: first a stray dialer whose digest lacks the
    /// token, then the legitimate joiner, which reports the stray's
    /// reply. The stray must be refused with `ConfigMismatch` and take
    /// no rank, so the legitimate joiner is still dealt rank 1.
    #[test]
    fn spawned_world_refuses_a_dialer_without_the_token() {
        if let Some(info) = worker_env() {
            let stray = Stream::dial(&info.endpoint(), TIMEOUT).unwrap();
            stray.set_read_timeout(Some(TIMEOUT)).unwrap();
            let request = JoinRequest::new(DIGEST).encode();
            write_frame(&mut &stray, 0, TAG_TCP_JOIN, &request).unwrap();
            let reply = read_frame(&mut &stray).unwrap().expect("a reply frame");
            let worker = join(&info);
            worker.send(0, Tag(reply.tag), &reply.payload).unwrap();
            return;
        }
        let mut world = spawn("spawned_world_refuses_a_dialer_without_the_token");
        let socket = PathBuf::from(world.local_addr().strip_prefix("unix:").unwrap());
        let report = world
            .recv_timeout(None, None, TIMEOUT)
            .unwrap()
            .expect("the child reports the stray's reply");
        assert_eq!(report.source, 1, "the stray must not have taken rank 1");
        assert_eq!(report.tag, Tag(crate::frame::TAG_TCP_REJECT));
        let reject = Reject::decode(&report.payload).expect("well-formed reject");
        assert_eq!(reject.code, RejectCode::ConfigMismatch);
        assert_eq!(world.leased(), 1);
        world.shutdown().unwrap();
        assert!(!socket.exists(), "socket dir left behind");
    }

    /// Shutdown reaps the children before it stops the readers, so a
    /// worker still talking after the collector's last send — its final
    /// events and wire totals, in a real run — is drained until it exits.
    #[test]
    fn shutdown_drains_each_worker_until_it_exits() {
        if let Some(info) = worker_env() {
            let mut worker = join(&info);
            worker.recv(Some(0), Some(Tag(1))).unwrap();
            std::thread::sleep(Duration::from_millis(200));
            worker.send(0, Tag(2), b"late").unwrap();
            return;
        }
        let mut world = spawn("shutdown_drains_each_worker_until_it_exits");
        world.send(1, Tag(1), b"stop").unwrap();
        world.shutdown().unwrap();
        let late = world.try_recv(Some(1), Some(Tag(2)));
        assert!(late.is_some(), "the worker's last frame was cut off");
    }
}
