//! The body of one `psr-shard-worker` process: the socket transport of the
//! worker step machine (`Worker::run`, the same loop a worker thread
//! runs), with sockets in place of channels:
//!
//! - outgoing frames are appended to *per-peer coalesced send buffers*
//!   (`SocketSink`): every frame bound for one peer within one phase
//!   lands back-to-back in a single buffer (frames are self-delimiting)
//!   and is flushed with a single `write`, so an 8-direction exchange
//!   costs at most one syscall per adjacent peer, not one per frame;
//! - incoming frames are read by one reader thread per peer connection
//!   feeding a shared channel, which the machine demuxes by `(kind, step,
//!   pos, dir, src)` key;
//! - phase busy-times are measured with the scheduler's on-CPU clock
//!   (`BusyClock`) and shipped to the hub in each step report,
//!   so the critical path stays honest on hosts with fewer cores than
//!   workers;
//! - a monitor thread watches the hub control connection and kills the
//!   process the moment the hub goes away — a SIGKILLed hub leaves no
//!   orphan workers.

use super::config::{decode_peers, RunConfig};
use super::{read_frame, spawn_reader, write_frame, Conn, Listener, Wire};
use crate::frame::{self, FrameSink, KIND_CONFIG, KIND_HELLO, KIND_PEERS, KIND_PING, NO_DIR};
use crate::worker::{Delivery, Worker};
use psr_kernel::CompiledModel;
use psr_parallel::CommStats;
use std::io::Write as _;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A [`FrameSink`] that coalesces frames into per-peer send buffers,
/// flushed over the peer mesh, with reports and gathers written to the
/// hub's control connection.
struct SocketSink {
    conns: Vec<Option<Conn>>,
    control: Conn,
    bufs: Vec<Vec<u8>>,
    frames_in_buf: Vec<u64>,
}

impl FrameSink for SocketSink {
    fn frame(&mut self, dest: u32, frame: Vec<u8>) {
        self.bufs[dest as usize].extend_from_slice(&frame);
        self.frames_in_buf[dest as usize] += 1;
    }

    /// One write per non-empty peer buffer, recording the wire-level comm
    /// stats (frames, bytes, batches, flushes).
    fn flush(&mut self, comm: &mut CommStats) -> Result<(), String> {
        for (peer, buf) in self.bufs.iter_mut().enumerate() {
            if buf.is_empty() {
                continue;
            }
            let conn = self.conns[peer]
                .as_mut()
                .ok_or_else(|| format!("no connection to peer {peer}"))?;
            conn.write_all(buf)
                .map_err(|e| format!("flush to peer {peer}: {e}"))?;
            comm.wire_flushes += 1;
            comm.wire_frames += self.frames_in_buf[peer];
            comm.wire_bytes += buf.len() as u64;
            if self.frames_in_buf[peer] > 1 {
                comm.wire_batches += 1;
            }
            buf.clear();
            self.frames_in_buf[peer] = 0;
        }
        Ok(())
    }

    fn to_hub(&mut self, frame: Vec<u8>) -> Result<(), String> {
        self.control
            .write_all(&frame)
            .map_err(|e| format!("send to hub: {e}"))
    }
}

/// Run the worker process to completion. Returns the process exit code.
pub fn worker_main(wire: Wire, hub_addr: &str, id: u32) -> i32 {
    match run(wire, hub_addr, id) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("psr-shard-worker {id}: {e}");
            1
        }
    }
}

fn run(wire: Wire, hub_addr: &str, id: u32) -> Result<(), String> {
    let handshake_deadline = Instant::now() + Duration::from_secs(30);
    let mut control = Conn::connect(wire, hub_addr, handshake_deadline)?;
    control.set_read_timeout(Some(Duration::from_secs(30)))?;

    // The data listener lives next to the hub's socket (Unix) or on its
    // own ephemeral loopback port (TCP).
    let dir = Path::new(hub_addr).parent().unwrap_or(Path::new("/tmp"));
    let (listener, data_addr) = Listener::bind(wire, dir, &format!("data-{id}"))?;
    write_frame(
        &mut control,
        KIND_HELLO,
        NO_DIR,
        id,
        0,
        0,
        data_addr.as_bytes(),
    )?;

    // Handshake: echo pings, take the config, stop at the peer table.
    let mut cfg: Option<RunConfig> = None;
    let peers = loop {
        let bytes = read_frame(&mut control)?;
        let (header, payload) = frame::try_decode(&bytes)?;
        match header.kind {
            KIND_PING => {
                control
                    .write_all(&bytes)
                    .map_err(|e| format!("ping echo: {e}"))?;
            }
            KIND_CONFIG => cfg = Some(RunConfig::decode(payload)?),
            KIND_PEERS => break decode_peers(payload)?,
            kind => return Err(format!("unexpected handshake frame kind {kind}")),
        }
    };
    let cfg = cfg.ok_or("hub sent PEERS before CONFIG")?;
    let p = cfg.grid.workers();
    if peers.len() != p as usize {
        return Err(format!(
            "peer table has {} entries for {p} workers",
            peers.len()
        ));
    }

    // Full mesh: dial every lower id (identifying ourselves with a HELLO),
    // accept every higher id (reading its HELLO). The counts all-gather
    // needs every pair connected; self-sends never touch the wire.
    let mut conns: Vec<Option<Conn>> = (0..p).map(|_| None).collect();
    for j in 0..id {
        let mut c = Conn::connect(wire, &peers[j as usize], handshake_deadline)?;
        write_frame(&mut c, KIND_HELLO, NO_DIR, id, 0, 0, &[])?;
        conns[j as usize] = Some(c);
    }
    for _ in id + 1..p {
        let mut c = listener.accept_deadline(handshake_deadline)?;
        c.set_read_timeout(Some(Duration::from_secs(30)))?;
        let bytes = read_frame(&mut c)?;
        let (header, _) = frame::try_decode(&bytes)?;
        if header.kind != KIND_HELLO || header.src <= id || header.src >= p {
            return Err(format!("bad mesh hello from worker {}", header.src));
        }
        if conns[header.src as usize].replace(c).is_some() {
            return Err(format!(
                "duplicate mesh connection from worker {}",
                header.src
            ));
        }
    }
    for c in conns.iter().flatten() {
        c.set_read_timeout(None)?;
    }

    // One reader thread per peer connection feeding a shared channel; the
    // step machine re-orders by key. A dead peer surfaces as an Err here
    // the moment its socket closes.
    let (tx, rx) = mpsc::channel::<Delivery>();
    for (j, conn) in conns.iter().enumerate() {
        if let Some(conn) = conn {
            spawn_reader(conn.try_clone()?, j as u32, tx.clone());
        }
    }
    drop(tx);

    // Monitor the hub: the control socket carries nothing hub→worker after
    // the handshake, so a read completing at all means the hub died (or
    // broke protocol) — exit rather than linger as an orphan.
    {
        let mut monitor = control.try_clone()?;
        monitor.set_read_timeout(None).ok();
        std::thread::spawn(move || {
            let _ = read_frame(&mut monitor);
            std::process::exit(2);
        });
    }

    // Rebuild the run exactly as the in-process executors do.
    psr_kernel::require_masks(cfg.model.num_reactions())?;
    let compiled = Arc::new(CompiledModel::compile(&cfg.model));
    let worker = Worker::new(
        &cfg.model,
        &cfg.partition,
        compiled,
        &cfg.lattice,
        cfg.grid,
        id,
        cfg.seed,
        cfg.selection,
        cfg.start_step..cfg.start_step + cfg.steps,
    );
    let mut sink = SocketSink {
        conns,
        control,
        bufs: vec![Vec::new(); p as usize],
        frames_in_buf: vec![0; p as usize],
    };
    worker.run(
        &mut sink,
        &rx,
        Duration::from_millis(cfg.recv_timeout_ms.max(1)),
    )
}
