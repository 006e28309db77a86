//! The hub side of the socket transport: process management, handshake,
//! latency probing, and deadline-bounded teardown.
//!
//! Lifecycle of one socket run:
//!
//! 1. bind a control listener (Unix path or loopback port);
//! 2. spawn one `psr-shard-worker` per shard pointing at it;
//! 3. accept one control connection per worker, read its HELLO (worker
//!    id and data address), ping-pong it to measure the transport's
//!    round-trip time, then send CONFIG and the PEERS table;
//! 4. relay step reports and gathers to the executor's hub fold through
//!    reader threads;
//! 5. tear down: on success, wait for every child to exit cleanly (with a
//!    deadline); on any error, kill whatever is still alive. Either way no
//!    orphan processes and no indefinite blocking survive this struct.

use super::{read_frame, spawn_reader, write_frame, Conn, Listener, Wire};
use crate::frame::{self, KIND_HELLO, KIND_PING, NO_DIR};
use crate::worker::Delivery;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long the whole spawn-and-handshake sequence may take.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(30);
/// Ping-pong rounds per worker for the latency estimate.
const PING_ROUNDS: u32 = 16;

static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Locate the `psr-shard-worker` binary: the `PSR_SHARD_WORKER` override,
/// else next to the current executable (tests run from `target/*/deps/`,
/// one level below the bin).
fn worker_binary() -> Result<PathBuf, String> {
    if let Ok(path) = std::env::var("PSR_SHARD_WORKER") {
        let path = PathBuf::from(path);
        if path.is_file() {
            return Ok(path);
        }
        return Err(format!("PSR_SHARD_WORKER={} is not a file", path.display()));
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    for dir in exe.ancestors().skip(1).take(3) {
        let candidate = dir.join("psr-shard-worker");
        if candidate.is_file() {
            return Ok(candidate);
        }
    }
    Err(
        "psr-shard-worker binary not found near the current executable \
         (set PSR_SHARD_WORKER to override)"
            .to_string(),
    )
}

/// A live fleet of worker processes, handshaken and ready to run.
pub(crate) struct Hub {
    children: Vec<Option<Child>>,
    conns: Vec<Conn>,
    /// Every worker's reports and gathers, then its hang-up.
    pub(crate) rx: mpsc::Receiver<Delivery>,
    /// Measured one-way frame latency of this transport, seconds (the
    /// minimum handshake ping-pong round trip, halved).
    pub(crate) latency: f64,
    dir: Option<PathBuf>,
}

impl Hub {
    /// Spawn and handshake `workers` processes over `wire`. `config` is
    /// the CONFIG blob every worker receives verbatim.
    pub(crate) fn launch(wire: Wire, workers: u32, config: &[u8]) -> Result<Hub, String> {
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("psr-net-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        let mut hub = Hub {
            children: Vec::new(),
            conns: Vec::new(),
            rx: mpsc::channel().1,
            latency: 0.0,
            dir: Some(dir.clone()),
        };
        let (listener, hub_addr) = Listener::bind(wire, &dir, "hub")?;
        let bin = worker_binary()?;
        for id in 0..workers {
            let child = Command::new(&bin)
                .arg("--wire")
                .arg(wire.token())
                .arg("--hub")
                .arg(&hub_addr)
                .arg("--id")
                .arg(id.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
            hub.children.push(Some(child));
        }
        // Accept every worker's control connection and read its HELLO.
        // Arrival order is arbitrary; index by the id the HELLO carries.
        let mut conns: Vec<Option<Conn>> = (0..workers).map(|_| None).collect();
        let mut addrs: Vec<String> = vec![String::new(); workers as usize];
        for _ in 0..workers {
            let mut conn = listener.accept_deadline(deadline)?;
            conn.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
            let bytes = read_frame(&mut conn)?;
            let (header, payload) = frame::try_decode(&bytes)?;
            if header.kind != KIND_HELLO || header.src >= workers {
                return Err(format!(
                    "bad hello (kind {}, src {})",
                    header.kind, header.src
                ));
            }
            addrs[header.src as usize] = String::from_utf8_lossy(payload).into_owned();
            if conns[header.src as usize].replace(conn).is_some() {
                return Err(format!("duplicate hello from worker {}", header.src));
            }
        }
        let mut conns: Vec<Conn> = conns
            .into_iter()
            .map(|c| c.expect("all accepted"))
            .collect();
        // Measure the transport's round-trip latency on each control
        // connection; the minimum round trip is the standard low-noise
        // latency estimate, and half of it is what one frame exchange
        // costs on the critical path.
        let mut min_rtt = f64::INFINITY;
        for (id, conn) in conns.iter_mut().enumerate() {
            for round in 0..PING_ROUNDS {
                let t = Instant::now();
                write_frame(conn, KIND_PING, NO_DIR, id as u32, round as u64, 0, &[])?;
                let echo = read_frame(conn)?;
                let rtt = t.elapsed().as_secs_f64();
                let (header, _) = frame::try_decode(&echo)?;
                if header.kind != KIND_PING || header.step != round as u64 {
                    return Err(format!("bad ping echo from worker {id}"));
                }
                min_rtt = min_rtt.min(rtt);
            }
        }
        hub.latency = min_rtt / 2.0;
        // Ship the run definition and the mesh address table.
        let peers_payload = super::config::encode_peers(&addrs);
        for (id, conn) in conns.iter_mut().enumerate() {
            write_frame(conn, frame::KIND_CONFIG, NO_DIR, id as u32, 0, 0, config)?;
            write_frame(
                conn,
                frame::KIND_PEERS,
                NO_DIR,
                id as u32,
                0,
                0,
                &peers_payload,
            )?;
        }
        // Reader thread per control connection: reports and gathers flow
        // into one channel tagged with the worker id, so any worker's
        // death is observed as an Err on the very next receive.
        let (tx, rx) = mpsc::channel();
        for (id, conn) in conns.iter().enumerate() {
            conn.set_read_timeout(None)?;
            spawn_reader(conn.try_clone()?, id as u32, tx.clone());
        }
        hub.conns = conns;
        hub.rx = rx;
        Ok(hub)
    }

    /// Graceful end of a completed run: every child must exit cleanly
    /// within the deadline. Connections close afterwards, so the workers'
    /// hub-death monitors never fire on a clean run.
    pub(crate) fn finish(mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        for (id, slot) in self.children.iter_mut().enumerate() {
            let Some(child) = slot.as_mut() else { continue };
            loop {
                match child.try_wait() {
                    Ok(Some(status)) => {
                        if !status.success() {
                            return Err(format!("worker {id} exited with {status}"));
                        }
                        *slot = None;
                        break;
                    }
                    Ok(None) => {
                        if Instant::now() >= deadline {
                            return Err(format!("worker {id} did not exit after the run"));
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => return Err(format!("wait for worker {id}: {e}")),
                }
            }
        }
        Ok(())
    }
}

impl Drop for Hub {
    fn drop(&mut self) {
        // Shut the sockets first so reader threads (ours and the workers')
        // unblock with EOF, then reap with prejudice. `finish` has already
        // cleared the slots of cleanly-exited children.
        for conn in &self.conns {
            conn.shutdown();
        }
        for child in self.children.iter_mut().flatten() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(dir) = self.dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
