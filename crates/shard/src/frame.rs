//! The wire format of the sharded executor.
//!
//! Everything that crosses a worker boundary is a byte frame: a fixed
//! 22-byte header followed by a kind-specific payload. Workers never share
//! lattice memory — the frames are self-contained and position-keyed, so
//! the in-process channel transport could be swapped for sockets without
//! touching the protocol.
//!
//! Header layout (little-endian):
//!
//! ```text
//! [kind u8][dir u8][src u32][step u64][pos u32][payload_len u32] payload…
//! ```
//!
//! `dir` is the *receiver-relative* direction of the sender (index into
//! [`DIRS`](crate::domain::DIRS), [`NO_DIR`] for undirected frames). Keying
//! receipt by direction instead of source id is what makes torus wraps
//! unambiguous: on a 2×1 grid the same peer is both the east and the west
//! neighbor, but its two frames per sweep carry different `dir` stamps.

use psr_parallel::CommStats;

/// Halo strip: the sender's post-sweep owned border, row-major cell states.
pub const KIND_HALO: u8 = 0;
/// Write-back: `(global_site u32, new_state u8)` entries for reactions the
/// sender executed into cells the receiver owns.
pub const KIND_WRITEBACK: u8 = 1;
/// Propensity counts: the sender's owned per-(chunk, reaction) enabled-site
/// counts, `u32` each, for the weighted chunk draw.
pub const KIND_COUNTS: u8 = 2;
/// Per-step report from a worker to the hub (see [`StepReport`]).
pub const KIND_REPORT: u8 = 3;
/// Final owned-rectangle state from a worker to the hub.
pub const KIND_GATHER: u8 = 4;
/// Socket handshake: worker → hub, payload is the worker's data address.
pub const KIND_HELLO: u8 = 5;
/// Socket handshake: hub → worker, payload is the run configuration blob.
pub const KIND_CONFIG: u8 = 6;
/// Socket handshake: hub → worker, payload is the peer address table.
pub const KIND_PEERS: u8 = 7;
/// Socket latency probe: the hub sends it during the handshake and the
/// worker echoes it back verbatim, giving the hub a measured round-trip
/// time for the exact transport the run will pay per exchange.
pub const KIND_PING: u8 = 8;

/// `dir` stamp of undirected frames (counts, reports, gathers).
pub const NO_DIR: u8 = 0xFF;

/// Encoded header size in bytes.
pub const HEADER_LEN: usize = 22;

/// Upper bound a receiver accepts for `payload_len` — large enough for a
/// full-lattice CONFIG blob at any size this host can simulate, small
/// enough that garbage on the wire cannot trigger a huge allocation.
pub const MAX_PAYLOAD: usize = 1 << 28;

/// Decoded frame header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Frame kind (`KIND_*`).
    pub kind: u8,
    /// Receiver-relative direction of the sender, or [`NO_DIR`].
    pub dir: u8,
    /// Sending worker id.
    pub src: u32,
    /// Step the frame belongs to.
    pub step: u64,
    /// Sweep position within the step.
    pub pos: u32,
}

/// Demux key: everything a receiver needs to match a frame to the phase
/// waiting for it.
pub type FrameKey = (u8, u64, u32, u8, u32);

impl FrameHeader {
    /// The demux key of this header.
    pub fn key(&self) -> FrameKey {
        (self.kind, self.step, self.pos, self.dir, self.src)
    }
}

/// Append one encoded frame to `out` — the frames-are-self-delimiting
/// property is what lets the socket transport lay many frames back-to-back
/// in one per-peer send buffer and flush them with a single write, with no
/// extra batch framing and no re-copy.
pub fn encode_into(
    out: &mut Vec<u8>,
    kind: u8,
    dir: u8,
    src: u32,
    step: u64,
    pos: u32,
    payload: &[u8],
) {
    out.reserve(HEADER_LEN + payload.len());
    out.push(kind);
    out.push(dir);
    out.extend_from_slice(&src.to_le_bytes());
    out.extend_from_slice(&step.to_le_bytes());
    out.extend_from_slice(&pos.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Encode a frame.
pub fn encode(kind: u8, dir: u8, src: u32, step: u64, pos: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    encode_into(&mut out, kind, dir, src, step, pos, payload);
    out
}

/// Parse a 22-byte header. Returns the header and the declared payload
/// length (unvalidated against [`MAX_PAYLOAD`] — the caller decides).
///
/// # Panics
///
/// Panics if `bytes` is shorter than [`HEADER_LEN`].
pub fn decode_header(bytes: &[u8]) -> (FrameHeader, usize) {
    let header = FrameHeader {
        kind: bytes[0],
        dir: bytes[1],
        src: u32::from_le_bytes(bytes[2..6].try_into().unwrap()),
        step: u64::from_le_bytes(bytes[6..14].try_into().unwrap()),
        pos: u32::from_le_bytes(bytes[14..18].try_into().unwrap()),
    };
    let payload_len = u32::from_le_bytes(bytes[18..22].try_into().unwrap()) as usize;
    (header, payload_len)
}

/// Decode a complete frame without panicking — the socket receive path,
/// where truncation or garbage is an I/O condition, not a protocol bug.
///
/// # Errors
///
/// Describes the structural violation: short header, oversized declared
/// payload, or a buffer length that disagrees with the declared length.
pub fn try_decode(bytes: &[u8]) -> Result<(FrameHeader, &[u8]), String> {
    if bytes.len() < HEADER_LEN {
        return Err(format!(
            "truncated frame header: {} of {HEADER_LEN} bytes",
            bytes.len()
        ));
    }
    let (header, payload_len) = decode_header(bytes);
    if payload_len > MAX_PAYLOAD {
        return Err(format!(
            "declared payload of {payload_len} bytes exceeds the {MAX_PAYLOAD}-byte cap"
        ));
    }
    if bytes.len() != HEADER_LEN + payload_len {
        return Err(format!(
            "frame payload length mismatch: declared {payload_len}, got {}",
            bytes.len() - HEADER_LEN
        ));
    }
    Ok((header, &bytes[HEADER_LEN..]))
}

/// Decode a frame into its header and payload.
///
/// # Panics
///
/// Panics when the buffer is shorter than a header or the payload length
/// does not match — on the in-process transports a frame is never
/// partially delivered, so a mismatch is a protocol bug, not an I/O
/// condition. The socket paths use [`try_decode`] instead.
pub fn decode(bytes: &[u8]) -> (FrameHeader, &[u8]) {
    match try_decode(bytes) {
        Ok(x) => x,
        Err(e) => panic!("{e}"),
    }
}

/// Where a worker's outgoing frames go — the transport a scheduler hands the
/// worker's step machine, which calls [`flush`](Self::flush) once per
/// protocol phase.
pub trait FrameSink {
    /// Deliver, or buffer until the flush, one encoded frame for peer
    /// worker `dest`.
    fn frame(&mut self, dest: u32, frame: Vec<u8>);

    /// Push out every buffered frame, adding the wire traffic it paid to
    /// `comm`.
    fn flush(&mut self, _comm: &mut CommStats) -> Result<(), String> {
        Ok(())
    }

    /// Send one report or gather frame to the hub.
    fn to_hub(&mut self, frame: Vec<u8>) -> Result<(), String>;
}

/// What one worker tells the hub after finishing a step: its share of the
/// step's trials, the coverage it changed on cells *it owns*, per-reaction
/// execution counts (observable rates), the communication it paid, its
/// measured per-phase busy time and the chunk it swept at each position.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepReport {
    /// Trials this worker ran (its owned sites, every sweep of the step).
    pub trials: u64,
    /// Reactions executed (anchored at this worker's owned sites).
    pub executed: u64,
    /// Net per-species coverage deltas of owned cells. Workers' vectors
    /// only balance to zero *summed over the shard* — boundary reactions
    /// split their writes across owners.
    pub deltas: Vec<i64>,
    /// Executions per reaction type (for rate observables).
    pub reaction_executed: Vec<u64>,
    /// Measured communication of the step.
    pub comm: CommStats,
    /// Busy seconds per (sweep position, protocol phase) of the step, on
    /// the clock its scheduler chose. Every worker of a run reports the same
    /// slots, so the hub can take the per-slot maximum — the lockstep
    /// critical path — without any clock shared across processes.
    pub phase_busy: Vec<f64>,
    /// The chunk swept at each position. Every worker must report the same
    /// sequence: weighted draws are replicated, the other schedules are
    /// pure functions of `(seed, step)`.
    pub chunks: Vec<u64>,
}

impl StepReport {
    /// An all-zero report for a model with `species` species and
    /// `reactions` reaction types.
    pub fn zeroed(species: usize, reactions: usize) -> Self {
        StepReport {
            deltas: vec![0; species],
            reaction_executed: vec![0; reactions],
            ..StepReport::default()
        }
    }

    /// Encode as a frame payload: little-endian 8-byte words, the four
    /// vector lengths first.
    pub fn encode(&self) -> Vec<u8> {
        let c = &self.comm;
        let lens = [
            self.deltas.len(),
            self.reaction_executed.len(),
            self.phase_busy.len(),
            self.chunks.len(),
        ];
        [self.trials, self.executed]
            .into_iter()
            .chain(lens.map(|n| n as u64))
            .chain(self.deltas.iter().map(|&d| d as u64))
            .chain(self.reaction_executed.iter().copied())
            .chain([
                c.local_trials,
                c.boundary_trials,
                c.halo_messages,
                c.halo_bytes,
                c.wire_frames,
                c.wire_bytes,
                c.wire_batches,
                c.wire_flushes,
            ])
            .chain(self.phase_busy.iter().map(|b| b.to_bits()))
            .chain(self.chunks.iter().copied())
            .flat_map(u64::to_le_bytes)
            .collect()
    }

    /// Decode a payload produced by [`encode`](Self::encode) — total on
    /// any bytes, since socket reports come from other processes.
    ///
    /// # Errors
    ///
    /// The payload is not whole words, or its declared lengths disagree
    /// with its size.
    pub fn try_decode(payload: &[u8]) -> Result<Self, String> {
        let mut words = payload
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        let head: Vec<u64> = words.by_ref().take(6).collect();
        let mismatch = || format!("report payload length mismatch: {} bytes", payload.len());
        let [trials, executed, species, reactions, slots, chunks] = head[..] else {
            return Err(mismatch());
        };
        let body = [species, reactions, slots, chunks]
            .iter()
            .try_fold(8u64, |n, &len| n.checked_add(len));
        if !payload.len().is_multiple_of(8) || body != Some(words.len() as u64) {
            return Err(mismatch());
        }
        let mut take = |n: u64| -> Vec<u64> { words.by_ref().take(n as usize).collect() };
        let deltas = take(species).into_iter().map(|d| d as i64).collect();
        let reaction_executed = take(reactions);
        let c = take(8);
        Ok(StepReport {
            trials,
            executed,
            deltas,
            reaction_executed,
            comm: CommStats {
                local_trials: c[0],
                boundary_trials: c[1],
                halo_messages: c[2],
                halo_bytes: c[3],
                wire_frames: c[4],
                wire_bytes: c[5],
                wire_batches: c[6],
                wire_flushes: c[7],
            },
            phase_busy: take(slots).into_iter().map(f64::from_bits).collect(),
            chunks: take(chunks),
        })
    }

    /// [`try_decode`](Self::try_decode) for a payload known to be
    /// well-formed.
    ///
    /// # Panics
    ///
    /// Panics on a malformed payload.
    pub fn decode(payload: &[u8]) -> Self {
        Self::try_decode(payload).unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let payload = vec![1u8, 2, 3, 4, 5];
        let bytes = encode(KIND_HALO, 3, 7, 12345, 2, &payload);
        assert_eq!(bytes.len(), HEADER_LEN + 5);
        let (header, body) = decode(&bytes);
        assert_eq!(
            header,
            FrameHeader {
                kind: KIND_HALO,
                dir: 3,
                src: 7,
                step: 12345,
                pos: 2
            }
        );
        assert_eq!(body, &payload[..]);
        assert_eq!(header.key(), (KIND_HALO, 12345, 2, 3, 7));
    }

    #[test]
    fn empty_payload_roundtrip() {
        let bytes = encode(KIND_WRITEBACK, 0, 0, 0, 0, &[]);
        let (header, body) = decode(&bytes);
        assert_eq!(header.kind, KIND_WRITEBACK);
        assert!(body.is_empty());
    }

    #[test]
    fn report_roundtrip_with_negative_deltas() {
        let report = StepReport {
            trials: 400,
            executed: 123,
            deltas: vec![-5, 3, 2],
            reaction_executed: vec![7, 0, 100, 16],
            comm: CommStats {
                local_trials: 350,
                boundary_trials: 50,
                halo_messages: 16,
                halo_bytes: 2048,
                wire_frames: 16,
                wire_bytes: 2400,
                wire_batches: 3,
                wire_flushes: 8,
            },
            phase_busy: vec![0.25, 1e-9, 0.0],
            chunks: vec![4, 0, 2],
        };
        let decoded = StepReport::decode(&report.encode());
        assert_eq!(decoded, report);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn truncated_payload_rejected() {
        let bytes = encode(KIND_HALO, 0, 0, 0, 0, &[1, 2, 3]);
        decode(&bytes[..bytes.len() - 1]);
    }
}
