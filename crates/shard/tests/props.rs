//! Property tests for the frame wire format and the CONFIG/PEERS payloads.
//!
//! Frames face raw socket bytes, so the contract mirrors the HTTP parser's
//! (`crates/serve/tests/props.rs`): `try_decode` never panics on byte soup,
//! any truncation or suffix garbage is an `Err` (never a mis-framed `Ok`),
//! `decode ∘ encode` is the identity over every frame kind, coalesced
//! batches re-split into exactly the frames that went in, and the step
//! report payload survives its own round trip bit-for-bit. The payloads
//! decoded from another process — the step reports the hub folds, the
//! handshake a worker process decodes (`net::config`) — are held to the
//! same standard: total on hostile bytes, no allocation sized by an
//! unchecked count, `encode ∘ decode` the identity on what the hub sends.

use proptest::prelude::*;
use psr_ca::partition_builder::{five_coloring, greedy_coloring};
use psr_ca::pndca::ChunkSelection;
use psr_lattice::{Dims, Lattice};
use psr_model::library::zgb::zgb_ziff;
use psr_parallel::CommStats;
use psr_shard::frame::{
    self, decode_header, encode, encode_into, try_decode, StepReport, HEADER_LEN, KIND_CONFIG,
    KIND_COUNTS, KIND_GATHER, KIND_HALO, KIND_HELLO, KIND_PEERS, KIND_PING, KIND_REPORT,
    KIND_WRITEBACK,
};
use psr_shard::net::config::{decode_peers, encode_config, encode_peers, RunConfig};
use psr_shard::ShardGrid;

const ALL_KINDS: [u8; 9] = [
    KIND_HALO,
    KIND_WRITEBACK,
    KIND_COUNTS,
    KIND_REPORT,
    KIND_GATHER,
    KIND_HELLO,
    KIND_CONFIG,
    KIND_PEERS,
    KIND_PING,
];

proptest! {
    #[test]
    fn try_decode_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255, 0..512usize),
    ) {
        let _ = try_decode(&bytes); // Ok or Err — never a panic
    }

    // decode ∘ encode is the identity on every field, over every kind.
    #[test]
    fn encode_decode_roundtrip(
        kind_idx in 0usize..ALL_KINDS.len(),
        dir in 0u8..=255,
        src in 0u32..u32::MAX,
        step in 0u64..u64::MAX,
        pos in 0u32..u32::MAX,
        payload in prop::collection::vec(0u8..=255, 0..256usize),
    ) {
        let kind = ALL_KINDS[kind_idx];
        let bytes = encode(kind, dir, src, step, pos, &payload);
        prop_assert_eq!(bytes.len(), HEADER_LEN + payload.len());
        let (header, body) = try_decode(&bytes).expect("encoded frame must decode");
        prop_assert_eq!(header.kind, kind);
        prop_assert_eq!(header.dir, dir);
        prop_assert_eq!(header.src, src);
        prop_assert_eq!(header.step, step);
        prop_assert_eq!(header.pos, pos);
        prop_assert_eq!(body, &payload[..]);
    }

    // Any strict prefix of a valid frame is an error, and so is any
    // suffix of trailing garbage: a declared length must match exactly.
    #[test]
    fn truncation_and_garbage_suffix_are_rejected(
        payload in prop::collection::vec(0u8..=255, 0..64usize),
        cut in 0usize..1024,
        garbage in prop::collection::vec(0u8..=255, 1..32usize),
    ) {
        let bytes = encode(KIND_HALO, 2, 1, 9, 3, &payload);
        let cut = cut % bytes.len(); // strictly shorter
        prop_assert!(try_decode(&bytes[..cut]).is_err(), "truncation at {} accepted", cut);
        let mut extended = bytes.clone();
        extended.extend_from_slice(&garbage);
        prop_assert!(try_decode(&extended).is_err(), "trailing garbage accepted");
    }

    // A payload length beyond the cap is refused before any allocation —
    // the socket receive path trusts this to bound a malicious header.
    #[test]
    fn oversized_declared_payloads_are_refused(excess in 1u32..1_000_000) {
        let mut bytes = encode(KIND_HALO, 0, 0, 0, 0, &[]);
        let declared = (frame::MAX_PAYLOAD as u32).saturating_add(excess);
        bytes[18..22].copy_from_slice(&declared.to_le_bytes());
        prop_assert!(try_decode(&bytes).is_err());
    }

    // The coalescing property the socket sink relies on: frames appended
    // back-to-back into one buffer re-split into exactly the originals,
    // because every frame is self-delimiting.
    #[test]
    fn coalesced_batches_resplit_into_the_original_frames(
        frames in prop::collection::vec(
            (0usize..ALL_KINDS.len(), 0u8..8, 0u32..16, 0u64..1000, 0u32..32,
             prop::collection::vec(0u8..=255, 0..48usize)),
            1..12usize,
        ),
    ) {
        let mut batch = Vec::new();
        for (kind_idx, dir, src, step, pos, payload) in &frames {
            encode_into(&mut batch, ALL_KINDS[*kind_idx], *dir, *src, *step, *pos, payload);
        }
        let mut at = 0;
        let mut recovered = 0usize;
        while at < batch.len() {
            prop_assert!(batch.len() - at >= HEADER_LEN, "dangling partial header");
            let (header, payload_len) = decode_header(&batch[at..]);
            let (kind_idx, dir, src, step, pos, payload) = &frames[recovered];
            prop_assert_eq!(header.kind, ALL_KINDS[*kind_idx]);
            prop_assert_eq!(header.dir, *dir);
            prop_assert_eq!(header.src, *src);
            prop_assert_eq!(header.step, *step);
            prop_assert_eq!(header.pos, *pos);
            prop_assert_eq!(payload_len, payload.len());
            let body = &batch[at + HEADER_LEN..at + HEADER_LEN + payload_len];
            prop_assert_eq!(body, &payload[..]);
            at += HEADER_LEN + payload_len;
            recovered += 1;
        }
        prop_assert_eq!(recovered, frames.len());
    }

    // The step-report payload is self-describing and bit-exact across its
    // round trip, including the f64 phase times (encoded as raw bits).
    #[test]
    fn step_report_roundtrip(
        trials in 0u64..u64::MAX,
        executed in 0u64..u64::MAX,
        deltas in prop::collection::vec(i64::MIN..i64::MAX, 0..8usize),
        reaction_executed in prop::collection::vec(0u64..u64::MAX, 0..8usize),
        comm_fields in prop::collection::vec(0u64..u64::MAX, 8usize..9),
        phase_busy in prop::collection::vec(0.0f64..1e6, 0..6usize),
        chunks in prop::collection::vec(0u64..u64::MAX, 0..6usize),
    ) {
        let report = StepReport {
            trials,
            executed,
            deltas,
            reaction_executed,
            comm: CommStats {
                local_trials: comm_fields[0],
                boundary_trials: comm_fields[1],
                halo_messages: comm_fields[2],
                halo_bytes: comm_fields[3],
                wire_frames: comm_fields[4],
                wire_bytes: comm_fields[5],
                wire_batches: comm_fields[6],
                wire_flushes: comm_fields[7],
            },
            phase_busy,
            chunks,
        };
        let payload = report.encode();
        prop_assert_eq!(StepReport::decode(&payload), report);
    }

    // The hub decodes reports other processes sent: byte soup is an `Err`,
    // never a panic, and so is a valid report cut short or extended.
    #[test]
    fn step_report_decoder_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255, 0..512usize),
        cut in 1usize..64,
        garbage in prop::collection::vec(0u8..=255, 1..16usize),
    ) {
        let _ = StepReport::try_decode(&bytes);
        let valid = StepReport { chunks: vec![3, 1], ..StepReport::zeroed(3, 4) }.encode();
        prop_assert!(StepReport::try_decode(&valid[..valid.len() - cut]).is_err());
        let mut extended = valid.clone();
        extended.extend_from_slice(&garbage);
        prop_assert!(StepReport::try_decode(&extended).is_err());
    }
}

const ALL_SELECTIONS: [ChunkSelection; 4] = [
    ChunkSelection::InOrder,
    ChunkSelection::RandomOrder,
    ChunkSelection::RandomWithReplacement,
    ChunkSelection::WeightedByRates,
];

/// A valid CONFIG blob: ZGB on a 10×10 five-coloured lattice, 2×1 workers.
fn valid_config() -> Vec<u8> {
    let dims = Dims::new(10, 10);
    let mut lattice = Lattice::filled(dims, 0);
    for (i, cell) in lattice.cells_mut().iter_mut().enumerate() {
        *cell = (i % 3) as u8;
    }
    encode_config(
        &zgb_ziff(0.515, 3.0),
        &five_coloring(dims),
        &lattice,
        ShardGrid::new(2, 1),
        42,
        ChunkSelection::WeightedByRates,
        7,
        100,
        5000,
    )
}

/// Bytes 0..46 of a CONFIG blob are its fixed header (magic, version, grid,
/// seed, selection, step window, timeout); the species count follows.
const CONFIG_HEADER_LEN: usize = 46;

/// Values that sit on the edges a length, count, id or offset is checked at.
const EDGE_VALUES: [u64; 8] = [
    0,
    1,
    255,
    0x7fff_ffff,
    0x8000_0000,
    0xffff_ffff,
    0x7ff8_0000_0000_0000, // NaN as rate bits
    u64::MAX,
];

// A count the blob cannot back is refused before anything is allocated for
// it (`Vec::with_capacity(u32::MAX)` of names is ~100 GB).
#[test]
fn config_counts_beyond_the_blob_are_refused() {
    let blob = valid_config();
    let mut short = blob[..CONFIG_HEADER_LEN].to_vec();
    short.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(short.len(), 50);
    let err = RunConfig::decode(&short).err().expect("hostile count");
    assert!(err.contains("too short"), "{err}");
    let err = decode_peers(&u32::MAX.to_le_bytes()).expect_err("hostile count");
    assert!(err.contains("too short"), "{err}");
}

// Every strict prefix of a valid blob is an error: the trailing-bytes check
// and the counts leave no shorter blob that parses.
#[test]
fn every_prefix_of_a_valid_config_is_rejected() {
    let blob = valid_config();
    assert!(RunConfig::decode(&blob).is_ok());
    for cut in 0..blob.len() {
        assert!(
            RunConfig::decode(&blob[..cut]).is_err(),
            "prefix of {cut} bytes accepted"
        );
    }
    let peers = encode_peers(&["/tmp/a.sock".to_owned(), "127.0.0.1:4000".to_owned()]);
    for cut in 0..peers.len() {
        assert!(decode_peers(&peers[..cut]).is_err(), "peers prefix {cut}");
    }
}

/// Overwrite up to `width` bytes at `at` with the low bytes of `value`.
fn overwrite(blob: &mut [u8], at: usize, width: usize, value: u64) {
    let width = width.min(blob.len() - at);
    blob[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
}

// One field of a valid blob overwritten — a grid side, a count, a species
// id, an offset, a rate, a site, a lattice side — at every byte offset, as
// a byte, a word and a double word, with every edge value: whatever the
// constructors behind the decoder would assert on comes back as `Err`.
#[test]
fn edge_values_in_every_field_of_a_valid_config_never_panic() {
    let blob = valid_config();
    let mut rejected = 0;
    for at in 0..blob.len() {
        for width in [1, 4, 8] {
            for value in EDGE_VALUES {
                let mut mutated = blob.clone();
                overwrite(&mut mutated, at, width, value);
                rejected += RunConfig::decode(&mutated).is_err() as usize;
            }
        }
    }
    assert!(rejected > blob.len(), "only {rejected} mutations rejected");
}

proptest! {
    // Byte soup, bare and behind a valid header (so the decoder gets as far
    // as the counts): Ok or Err — never a panic, never an abort.
    #[test]
    fn config_decoders_never_panic_on_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255, 0..512usize),
    ) {
        let _ = RunConfig::decode(&bytes);
        let _ = decode_peers(&bytes);
        let mut headed = valid_config()[..CONFIG_HEADER_LEN].to_vec();
        headed.extend_from_slice(&bytes);
        let _ = RunConfig::decode(&headed);
    }

    // The same overwrite as `edge_values_in_every_field_…` below, with
    // random values.
    #[test]
    fn random_single_field_mutations_of_a_valid_config_never_panic(
        at in 0usize..4096,
        width_idx in 0usize..3,
        value in 0u64..u64::MAX,
    ) {
        let mut blob = valid_config();
        let at = at % blob.len();
        overwrite(&mut blob, at, [1, 4, 8][width_idx], value);
        let _ = RunConfig::decode(&blob);
    }

    // What the hub encodes, a worker decodes to the same run: re-encoding
    // the decoded config reproduces the blob byte for byte.
    #[test]
    fn valid_configs_roundtrip(
        side in 6u32..24,
        grid_idx in 0usize..3,
        seed in 0u64..u64::MAX,
        selection_idx in 0usize..4,
        start in 0u64..1 << 40,
        steps in 0u64..1 << 40,
        timeout_ms in 0u64..u64::MAX,
        cells in prop::collection::vec(0u8..3, 24 * 24usize..24 * 24 + 1),
    ) {
        let side = side * 2;
        let dims = Dims::square(side);
        let model = zgb_ziff(0.5, 2.0);
        let partition = greedy_coloring(dims, &model);
        let lattice = Lattice::from_cells(dims, cells.iter().cycle().take(dims.sites() as usize).copied().collect());
        let grid = [ShardGrid::new(1, 1), ShardGrid::new(2, 1), ShardGrid::new(2, 2)][grid_idx];
        let selection = ALL_SELECTIONS[selection_idx];
        let blob = encode_config(
            &model, &partition, &lattice, grid, seed, selection, start, steps, timeout_ms,
        );
        let cfg = RunConfig::decode(&blob).expect("a hub-encoded config decodes");
        prop_assert_eq!(cfg.partition.chunks(), partition.chunks());
        let again = encode_config(
            &cfg.model, &cfg.partition, &cfg.lattice, cfg.grid, cfg.seed, cfg.selection,
            cfg.start_step, cfg.steps, cfg.recv_timeout_ms,
        );
        prop_assert_eq!(again, blob);
    }

    #[test]
    fn peers_roundtrip(
        addrs in prop::collection::vec(prop::collection::vec(0x20u8..0x7f, 0..40usize), 0..12usize),
    ) {
        let addrs: Vec<String> = addrs
            .into_iter()
            .map(|a| String::from_utf8(a).expect("ascii"))
            .collect();
        prop_assert_eq!(decode_peers(&encode_peers(&addrs)), Ok(addrs));
    }
}
