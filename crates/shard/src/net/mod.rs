//! Socket transport for the sharded executor: one OS process per worker.
//!
//! The in-process schedulers ([`crate::executor`]) already move every byte
//! of boundary state through self-delimiting frames, so this module only
//! supplies the plumbing to run the identical protocol across process
//! boundaries:
//!
//! - [`Wire`] — Unix-domain or loopback-TCP, selected per run;
//! - a hub ([`hub`]) that spawns one `psr-shard-worker` process per shard,
//!   handshakes (HELLO → PING×N → CONFIG → PEERS), measures the transport's
//!   round-trip latency, and reaps the children with deadlines so a dead
//!   peer fails the run instead of hanging it;
//! - a worker body ([`worker_proc`]) that rebuilds the model, partition,
//!   and lattice from the CONFIG blob, dials a full peer mesh (counts
//!   frames are an all-gather), and runs the worker step machine over
//!   per-peer *coalesced* send buffers: every frame bound for one
//!   peer within one phase is appended to a single buffer and flushed
//!   with a single write — no per-frame syscalls, `TCP_NODELAY` on.
//!
//! Failure model: any worker error or death closes its sockets; peers see
//! EOF immediately, abort their own run, and the hub tears the remaining
//! children down with a bounded timeout. Every blocking receive carries a
//! deadline as a backstop against live-but-stuck peers.

pub mod config;
pub mod hub;
pub mod worker_proc;

use crate::frame::{self, HEADER_LEN, MAX_PAYLOAD};
use crate::worker::Delivery;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Which socket family carries the frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire {
    /// Unix-domain stream sockets in a per-run temp directory.
    Unix,
    /// Loopback TCP (`127.0.0.1`, ephemeral ports, `TCP_NODELAY`).
    Tcp,
}

impl Wire {
    /// Stable command-line token (`--wire <token>`).
    pub fn token(self) -> &'static str {
        match self {
            Wire::Unix => "unix",
            Wire::Tcp => "tcp",
        }
    }

    /// Parse a [`token`](Self::token).
    pub fn parse(s: &str) -> Result<Wire, String> {
        match s {
            "unix" => Ok(Wire::Unix),
            "tcp" => Ok(Wire::Tcp),
            other => Err(format!("unknown wire {other:?} (expected unix|tcp)")),
        }
    }
}

/// One established stream of either family.
pub(crate) enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    /// Connect to `addr` (a path for Unix, `host:port` for TCP), retrying
    /// until `deadline` — the listener always exists before its address is
    /// published, so retries only paper over transient kernel refusals.
    pub(crate) fn connect(wire: Wire, addr: &str, deadline: Instant) -> Result<Conn, String> {
        loop {
            let attempt = match wire {
                Wire::Unix => UnixStream::connect(addr).map(Conn::Unix),
                Wire::Tcp => TcpStream::connect(addr).map(|s| {
                    let _ = s.set_nodelay(true);
                    Conn::Tcp(s)
                }),
            };
            match attempt {
                Ok(conn) => return Ok(conn),
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(format!("connect to {addr}: {e}")),
            }
        }
    }

    /// A second handle onto the same socket (reader thread + writer).
    pub(crate) fn try_clone(&self) -> Result<Conn, String> {
        match self {
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
        }
        .map_err(|e| format!("clone socket: {e}"))
    }

    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), String> {
        match self {
            Conn::Unix(s) => s.set_read_timeout(timeout),
            Conn::Tcp(s) => s.set_read_timeout(timeout),
        }
        .map_err(|e| format!("set read timeout: {e}"))
    }

    /// Close both directions: pending reads on every clone return EOF.
    pub(crate) fn shutdown(&self) {
        match self {
            Conn::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Conn::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// A bound listener of either family plus its publishable address.
pub(crate) enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    /// Bind a listener. For Unix the socket lives at `dir/name.sock`; for
    /// TCP an ephemeral loopback port is taken and `dir`/`name` ignored.
    /// Returns the listener and the address peers dial.
    pub(crate) fn bind(wire: Wire, dir: &Path, name: &str) -> Result<(Listener, String), String> {
        match wire {
            Wire::Unix => {
                let path = dir.join(format!("{name}.sock"));
                let l = UnixListener::bind(&path)
                    .map_err(|e| format!("bind {}: {e}", path.display()))?;
                Ok((Listener::Unix(l), path.to_string_lossy().into_owned()))
            }
            Wire::Tcp => {
                let l =
                    TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
                let addr = l
                    .local_addr()
                    .map_err(|e| format!("local addr: {e}"))?
                    .to_string();
                Ok((Listener::Tcp(l), addr))
            }
        }
    }

    /// Accept one connection before `deadline` (polling non-blocking
    /// accepts — std listeners have no native accept timeout).
    pub(crate) fn accept_deadline(&self, deadline: Instant) -> Result<Conn, String> {
        let set_nb = |nb: bool| -> io::Result<()> {
            match self {
                Listener::Unix(l) => l.set_nonblocking(nb),
                Listener::Tcp(l) => l.set_nonblocking(nb),
            }
        };
        set_nb(true).map_err(|e| format!("nonblocking accept: {e}"))?;
        loop {
            let accepted = match self {
                Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
                Listener::Tcp(l) => l.accept().map(|(s, _)| {
                    let _ = s.set_nodelay(true);
                    Conn::Tcp(s)
                }),
            };
            match accepted {
                Ok(conn) => {
                    let _ = set_nb(false);
                    match &conn {
                        Conn::Unix(s) => s
                            .set_nonblocking(false)
                            .map_err(|e| format!("blocking stream: {e}"))?,
                        Conn::Tcp(s) => s
                            .set_nonblocking(false)
                            .map_err(|e| format!("blocking stream: {e}"))?,
                    }
                    return Ok(conn);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        let _ = set_nb(false);
                        return Err("accept deadline exceeded".into());
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => {
                    let _ = set_nb(false);
                    return Err(format!("accept: {e}"));
                }
            }
        }
    }
}

/// Write one frame in a single buffered write.
#[allow(clippy::too_many_arguments)]
pub(crate) fn write_frame(
    w: &mut impl Write,
    kind: u8,
    dir: u8,
    src: u32,
    step: u64,
    pos: u32,
    payload: &[u8],
) -> Result<(), String> {
    let bytes = frame::encode(kind, dir, src, step, pos, payload);
    w.write_all(&bytes)
        .map_err(|e| format!("write frame kind {kind}: {e}"))
}

/// Read exactly one frame off the stream: header, declared length (capped
/// at [`MAX_PAYLOAD`]), payload. Returns the full encoded frame so it can
/// be routed by the existing keyed demux unchanged.
pub(crate) fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, String> {
    let mut buf = vec![0u8; HEADER_LEN];
    r.read_exact(&mut buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            "peer closed the connection".to_string()
        } else {
            format!("read frame header: {e}")
        }
    })?;
    let (_, payload_len) = frame::decode_header(&buf);
    if payload_len > MAX_PAYLOAD {
        return Err(format!(
            "declared payload of {payload_len} bytes exceeds the {MAX_PAYLOAD}-byte cap"
        ));
    }
    buf.resize(HEADER_LEN + payload_len, 0);
    r.read_exact(&mut buf[HEADER_LEN..])
        .map_err(|e| format!("read frame payload: {e}"))?;
    Ok(buf)
}

/// Read frames off `conn` into `tx`, tagged with `id`, on a thread of its
/// own until the stream ends; the end (EOF or a read error) is sent last,
/// as the peer's hang-up.
pub(crate) fn spawn_reader(mut conn: Conn, id: u32, tx: mpsc::Sender<Delivery>) {
    std::thread::spawn(move || loop {
        let item = read_frame(&mut conn);
        let end = item.is_err();
        if tx.send((id, item)).is_err() || end {
            return;
        }
    });
}

/// Per-thread busy clock for the phase timing of worker threads and
/// processes.
///
/// This host may have fewer cores than workers, so wall-clock phase times
/// would count time spent preempted by sibling workers —
/// inflating every phase by roughly the oversubscription factor. The
/// scheduler's own on-CPU accounting (`/proc/thread-self/schedstat`, first
/// field, nanoseconds) charges each thread only for cycles it actually
/// ran, which is exactly the per-worker cost a fully parallel machine
/// would pay. Falls back to wall time where schedstat is unavailable.
pub(crate) struct BusyClock {
    schedstat: Option<std::fs::File>,
    epoch: Instant,
}

impl BusyClock {
    /// A clock for the calling thread (the handle is thread-specific:
    /// `/proc/thread-self` resolves at open time).
    pub(crate) fn new() -> Self {
        BusyClock {
            schedstat: std::fs::File::open("/proc/thread-self/schedstat").ok(),
            epoch: Instant::now(),
        }
    }

    /// Monotonic busy-seconds of this thread.
    pub(crate) fn now(&self) -> f64 {
        if let Some(f) = &self.schedstat {
            use std::os::unix::fs::FileExt;
            let mut buf = [0u8; 64];
            if let Ok(n) = f.read_at(&mut buf, 0) {
                let text = String::from_utf8_lossy(&buf[..n]);
                if let Some(first) = text.split_ascii_whitespace().next() {
                    if let Ok(ns) = first.parse::<u64>() {
                        return ns as f64 * 1e-9;
                    }
                }
            }
        }
        self.epoch.elapsed().as_secs_f64()
    }
}
