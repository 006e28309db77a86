//! The body of one `psr-shard-worker` process.
//!
//! Mirrors the threaded worker loop in [`crate::executor`] phase for
//! phase — same schedule, same keyed demux ([`recv_keyed`], shared with
//! it), same determinism contract — but with sockets in place of channels:
//!
//! - outgoing frames are appended to *per-peer coalesced send buffers*
//!   ([`SocketSink`]): every frame bound for one peer within one phase
//!   lands back-to-back in a single buffer (frames are self-delimiting)
//!   and is flushed with a single `write`, so an 8-direction exchange
//!   costs at most one syscall per adjacent peer, not one per frame;
//! - incoming frames are read by one reader thread per peer connection
//!   feeding a shared channel, demuxed by the same `(kind, step, pos,
//!   dir, src)` key with a pending map;
//! - phase busy-times are measured with the scheduler's on-CPU clock
//!   ([`super::BusyClock`]) and shipped to the hub in each step report,
//!   so the critical path stays honest on hosts with fewer cores than
//!   workers;
//! - a monitor thread watches the hub control connection and kills the
//!   process the moment the hub goes away — a SIGKILLed hub leaves no
//!   orphan workers.

use super::config::{decode_peers, RunConfig};
use super::{read_frame, write_frame, BusyClock, Conn, Listener, Wire};
use crate::frame::{
    self, FrameKey, FrameSink, KIND_CONFIG, KIND_COUNTS, KIND_HALO, KIND_HELLO, KIND_PEERS,
    KIND_PING, KIND_WRITEBACK, NO_DIR,
};
use crate::worker::Worker;
use psr_ca::pndca::ChunkSelection;
use psr_kernel::CompiledModel;
use psr_parallel::CommStats;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A [`FrameSink`] that coalesces frames into per-peer send buffers.
/// Frames addressed to the worker itself bypass the wire entirely and are
/// delivered straight into the local pending map.
struct SocketSink {
    id: u32,
    bufs: Vec<Vec<u8>>,
    frames_in_buf: Vec<u64>,
    local: Vec<Vec<u8>>,
}

impl SocketSink {
    fn new(id: u32, peers: usize) -> Self {
        SocketSink {
            id,
            bufs: vec![Vec::new(); peers],
            frames_in_buf: vec![0; peers],
            local: Vec::new(),
        }
    }

    /// Flush every non-empty peer buffer with one write each, recording
    /// the wire-level comm stats (frames, bytes, batches, flushes).
    fn flush(&mut self, conns: &mut [Option<Conn>], comm: &mut CommStats) -> Result<(), String> {
        for (peer, buf) in self.bufs.iter_mut().enumerate() {
            if buf.is_empty() {
                continue;
            }
            let conn = conns[peer]
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
}

impl FrameSink for SocketSink {
    fn frame(
        &mut self,
        dest: u32,
        kind: u8,
        dir: u8,
        src: u32,
        step: u64,
        pos: u32,
        payload: &[u8],
    ) {
        if dest == self.id {
            self.local
                .push(frame::encode(kind, dir, src, step, pos, payload));
        } else {
            frame::encode_into(
                &mut self.bufs[dest as usize],
                kind,
                dir,
                src,
                step,
                pos,
                payload,
            );
            self.frames_in_buf[dest as usize] += 1;
        }
    }
}

/// What a worker's inbox carries: the sending worker with a frame, or with
/// the reason it will send no more (a socket reader's EOF; threaded workers
/// never send it).
pub(crate) type Delivery = (u32, Result<Vec<u8>, String>);

/// Blocking receive of the frame with exactly `key`, buffering every other
/// frame, with a deadline per receive.
///
/// A peer's EOF is not immediately fatal: a fast peer legitimately
/// finishes its last step and exits while its already-sent frames are
/// still queued here (the socket delivers buffered bytes before EOF, and
/// the channel preserves per-peer order). `closed` records such peers;
/// the receive fails only when the frame it needs would have to come from
/// a peer that has already closed — which is prompt for a genuinely dead
/// peer, since its EOF arrives the moment its sockets close.
pub(crate) fn recv_keyed(
    rx: &mpsc::Receiver<Delivery>,
    pending: &mut HashMap<FrameKey, Vec<u8>>,
    closed: &mut [bool],
    key: FrameKey,
    timeout: Duration,
) -> Result<Vec<u8>, String> {
    loop {
        if let Some(bytes) = pending.remove(&key) {
            return Ok(bytes);
        }
        let src = key.4 as usize;
        if closed[src] {
            return Err(format!("peer {src} closed before sending frame {key:?}"));
        }
        let (from, item) = rx
            .recv_timeout(timeout)
            .map_err(|_| format!("timed out waiting for frame {key:?}"))?;
        match item {
            Ok(bytes) => {
                let (header, _) = frame::try_decode(&bytes)?;
                if header.key() == key {
                    return Ok(bytes);
                }
                if pending.insert(header.key(), bytes).is_some() {
                    return Err(format!("duplicate frame for {:?}", header.key()));
                }
            }
            Err(e) => {
                // Order within one peer's stream is preserved, so at this
                // point every frame that peer ever sent is in `pending`.
                closed[from as usize] = true;
                if from as usize == key.4 as usize {
                    return Err(format!("peer {from}: {e}"));
                }
            }
        }
    }
}

/// Drain locally-addressed frames into the pending map.
fn deliver_local(
    sink: &mut SocketSink,
    pending: &mut HashMap<FrameKey, Vec<u8>>,
) -> Result<(), String> {
    for bytes in sink.local.drain(..) {
        let (header, _) = frame::try_decode(&bytes)?;
        if pending.insert(header.key(), bytes).is_some() {
            return Err(format!("duplicate local frame for {:?}", header.key()));
        }
    }
    Ok(())
}

/// Parse `PSR_SHARD_FAIL_AT="id:step"` — the deterministic fault hook the
/// kill tests use to make one worker die mid-step.
fn fail_at_from_env() -> Option<(u32, u64)> {
    let v = std::env::var("PSR_SHARD_FAIL_AT").ok()?;
    let (id, step) = v.split_once(':')?;
    Some((id.parse().ok()?, step.parse().ok()?))
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
    // demux below re-orders by key. A dead peer surfaces as an Err here
    // the moment its socket closes.
    let (tx, rx) = mpsc::channel::<Delivery>();
    for (j, conn) in conns.iter().enumerate() {
        if let Some(conn) = conn {
            let mut reader = conn.try_clone()?;
            let tx = tx.clone();
            std::thread::spawn(move || loop {
                match read_frame(&mut reader) {
                    Ok(bytes) => {
                        if tx.send((j as u32, Ok(bytes))).is_err() {
                            return;
                        }
                    }
                    Err(e) => {
                        let _ = tx.send((j as u32, Err(e)));
                        return;
                    }
                }
            });
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
    let mut worker = Worker::new(
        &cfg.model,
        &cfg.partition,
        compiled,
        &cfg.lattice,
        cfg.grid,
        id,
        cfg.seed,
        cfg.selection,
    );
    let m = cfg.partition.num_chunks();
    let weighted = cfg.selection == ChunkSelection::WeightedByRates;
    let recv_timeout = Duration::from_millis(cfg.recv_timeout_ms.max(1));
    let fail_at = fail_at_from_env();

    let clock = BusyClock::new();
    let mut pending: HashMap<FrameKey, Vec<u8>> = HashMap::new();
    let mut closed = vec![false; p as usize];
    let mut sink = SocketSink::new(id, p as usize);
    for step in cfg.start_step..cfg.start_step + cfg.steps {
        worker.begin_step(step);
        let mut wire_comm = CommStats::default();
        let mut phase_busy: Vec<f64> = Vec::with_capacity(m * if weighted { 5 } else { 4 });
        let order: Vec<usize> = if weighted {
            Vec::new()
        } else {
            worker.chunk_order(step)
        };
        for pos in 0..m as u32 {
            let chunk = if weighted {
                let t0 = clock.now();
                worker.counts_frames(step, pos, &mut sink);
                deliver_local(&mut sink, &mut pending)?;
                sink.flush(&mut conns, &mut wire_comm)?;
                for src in 0..p {
                    let bytes = recv_keyed(
                        &rx,
                        &mut pending,
                        &mut closed,
                        (KIND_COUNTS, step, pos, NO_DIR, src),
                        recv_timeout,
                    )?;
                    worker.accept(&bytes);
                }
                let chunk = worker.weighted_draw();
                phase_busy.push(clock.now() - t0);
                chunk
            } else {
                order[pos as usize]
            };
            let t0 = clock.now();
            worker.sweep(step, pos, chunk);
            let t1 = clock.now();
            phase_busy.push(t1 - t0);
            if fail_at == Some((id, step)) && pos == 0 {
                // Fault hook: die mid-step, after sweeping but before the
                // write-back exchange — peers block on this worker's
                // frames and must unblock via EOF, not a timeout.
                std::process::exit(43);
            }
            for kind in [KIND_WRITEBACK, KIND_HALO] {
                let t0 = clock.now();
                if kind == KIND_WRITEBACK {
                    worker.wb_frames(step, pos, &mut sink);
                } else {
                    worker.halo_frames(step, pos, &mut sink);
                }
                deliver_local(&mut sink, &mut pending)?;
                sink.flush(&mut conns, &mut wire_comm)?;
                for dir in 0..8u8 {
                    let src = worker.neighbor(dir as usize);
                    let bytes = recv_keyed(
                        &rx,
                        &mut pending,
                        &mut closed,
                        (kind, step, pos, dir, src),
                        recv_timeout,
                    )?;
                    worker.accept(&bytes);
                }
                phase_busy.push(clock.now() - t0);
            }
            let t0 = clock.now();
            worker.fold();
            phase_busy.push(clock.now() - t0);
        }
        {
            let report = worker.report_mut();
            report.comm += wire_comm;
            report.phase_busy = phase_busy;
        }
        let bytes = worker.report_frame(step);
        control
            .write_all(&bytes)
            .map_err(|e| format!("send report: {e}"))?;
    }
    let bytes = worker.gather_frame(cfg.start_step + cfg.steps);
    control
        .write_all(&bytes)
        .map_err(|e| format!("send gather: {e}"))?;
    Ok(())
}
