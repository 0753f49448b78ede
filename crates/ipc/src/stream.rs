//! The one stream type under both socket worlds.
//!
//! A link endpoint is either a TCP address (`host:port`) or a
//! Unix-domain socket path written `unix:<path>`. [`Stream`] and
//! [`Listener`] wrap the two `std` socket kinds behind the handful of
//! operations the link layer needs — dial, accept, clone, timeouts,
//! shutdown — so the handshake, lease table, reader pump and
//! reconnect logic in [`crate::tcp`] are written once for both.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::time::Duration;

/// The endpoint prefix that selects a Unix-domain socket.
const UNIX_PREFIX: &str = "unix:";

/// The Unix-domain endpoint for the socket at `path`.
pub(crate) fn unix_endpoint(path: &Path) -> String {
    format!("{UNIX_PREFIX}{}", path.display())
}

/// A connected link socket of either kind.
#[derive(Debug)]
pub(crate) enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    /// Dials `endpoint`, trying each resolved TCP address once.
    pub(crate) fn dial(endpoint: &str, timeout: Duration) -> io::Result<Self> {
        if let Some(path) = endpoint.strip_prefix(UNIX_PREFIX) {
            return UnixStream::connect(path).map(Self::Unix);
        }
        let mut last_err = None;
        for candidate in endpoint.to_socket_addrs()? {
            match TcpStream::connect_timeout(&candidate, timeout) {
                Ok(stream) => return Ok(Self::Tcp(stream)),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "collector address resolved to nothing",
            )
        }))
    }

    /// Disables Nagle on TCP (every frame is latency-bound); a no-op
    /// on Unix sockets.
    pub(crate) fn set_nodelay(&self) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.set_nodelay(true),
            Self::Unix(_) => Ok(()),
        }
    }

    pub(crate) fn try_clone(&self) -> io::Result<Self> {
        match self {
            Self::Tcp(s) => s.try_clone().map(Self::Tcp),
            Self::Unix(s) => s.try_clone().map(Self::Unix),
        }
    }

    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.set_read_timeout(timeout),
            Self::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    pub(crate) fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.set_write_timeout(timeout),
            Self::Unix(s) => s.set_write_timeout(timeout),
        }
    }

    pub(crate) fn shutdown(&self) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.shutdown(Shutdown::Both),
            Self::Unix(s) => s.shutdown(Shutdown::Both),
        }
    }
}

impl Read for &Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => (&*s).read(buf),
            Stream::Unix(s) => (&*s).read(buf),
        }
    }
}

impl Write for &Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => (&*s).write(buf),
            Stream::Unix(s) => (&*s).write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => (&*s).flush(),
            Stream::Unix(s) => (&*s).flush(),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        (&*self).read(buf)
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        (&*self).write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        (&*self).flush()
    }
}

/// A bound, non-blocking listener of either kind.
#[derive(Debug)]
pub(crate) enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    /// Binds `endpoint` — TCP with `SO_REUSEADDR` (see
    /// [`crate::bind_reuseaddr`]), or a fresh Unix socket file — in
    /// non-blocking mode.
    pub(crate) fn bind(endpoint: &str) -> io::Result<Self> {
        let listener = match endpoint.strip_prefix(UNIX_PREFIX) {
            Some(path) => Self::Unix(UnixListener::bind(path)?),
            None => Self::Tcp(crate::reuse::bind_reuseaddr(endpoint)?),
        };
        match &listener {
            Self::Tcp(l) => l.set_nonblocking(true)?,
            Self::Unix(l) => l.set_nonblocking(true)?,
        }
        Ok(listener)
    }

    /// The bound endpoint, in the form [`Stream::dial`] accepts (with
    /// a TCP port 0 resolved to the ephemeral port).
    pub(crate) fn endpoint(&self) -> io::Result<String> {
        match self {
            Self::Tcp(l) => Ok(l.local_addr()?.to_string()),
            Self::Unix(l) => l
                .local_addr()?
                .as_pathname()
                .map(unix_endpoint)
                .ok_or_else(|| io::Error::other("unnamed Unix listener")),
        }
    }

    /// Accepts one pending connection (`WouldBlock` when none is
    /// waiting), switched back to blocking mode, with the peer's
    /// address when it has one — Unix dialers are unnamed.
    pub(crate) fn accept(&self) -> io::Result<(Stream, Option<String>)> {
        let (stream, peer) = match self {
            Self::Tcp(l) => {
                let (s, peer) = l.accept()?;
                s.set_nonblocking(false)?;
                (Stream::Tcp(s), Some(peer.to_string()))
            }
            Self::Unix(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                (Stream::Unix(s), None)
            }
        };
        Ok((stream, peer))
    }
}
