//! Property tests for the snapshot formats: any lattice round-trips through
//! both the v1 text format and the v2 checkpoint format, and corrupted
//! snapshots are rejected rather than silently misparsed.

use proptest::prelude::*;
use psr_lattice::io::{from_text, from_text_v2, to_text, to_text_v2, SnapshotMeta};
use psr_lattice::{Dims, Lattice};

/// Strategy: a random lattice up to 12×12 with cell states in 0..6.
///
/// The vendored proptest has no `prop_flat_map`, so we draw a maximal cell
/// pool and truncate it to the drawn dimensions.
fn lattice_strategy() -> impl Strategy<Value = Lattice> {
    (
        1u32..=12,
        1u32..=12,
        prop::collection::vec(0u8..6, 144usize),
    )
        .prop_map(|(w, h, pool)| {
            Lattice::from_cells(Dims::new(w, h), pool[..(w * h) as usize].to_vec())
        })
}

proptest! {
    #[test]
    fn v1_roundtrip(lattice in lattice_strategy()) {
        let text = to_text(&lattice);
        let back = from_text(&text).expect("v1 parse");
        prop_assert_eq!(back, lattice);
    }

    #[test]
    fn v2_roundtrip(
        lattice in lattice_strategy(),
        time_frac in 0.0f64..1e6,
        steps in 0u64..u64::MAX,
        rng_lo in 0u64..u64::MAX,
        rng_hi in 0u64..u64::MAX,
    ) {
        let meta = SnapshotMeta { time: time_frac, steps, rng: [rng_lo, rng_hi | 1] };
        let text = to_text_v2(&lattice, &meta);
        let (back, back_meta) = from_text_v2(&text).expect("v2 parse");
        prop_assert_eq!(back, lattice);
        prop_assert_eq!(back_meta.time.to_bits(), meta.time.to_bits());
        prop_assert_eq!(back_meta.steps, meta.steps);
        prop_assert_eq!(back_meta.rng, meta.rng);
    }

    #[test]
    fn v1_truncation_is_rejected(lattice in lattice_strategy()) {
        let text = to_text(&lattice);
        // Drop the final row: either a missing row or a short cell count.
        let truncated: Vec<&str> = text.lines().collect();
        let truncated = truncated[..truncated.len() - 1].join("\n");
        prop_assert!(from_text(&truncated).is_err());
    }

    #[test]
    fn v1_trailing_garbage_is_rejected(lattice in lattice_strategy()) {
        let text = format!("{}0 0 0\n", to_text(&lattice));
        prop_assert!(from_text(&text).is_err());
    }

    #[test]
    fn v2_truncation_is_rejected(lattice in lattice_strategy(), steps in 0u64..u64::MAX) {
        let meta = SnapshotMeta { time: 0.5, steps, rng: [7, 9] };
        let text = to_text_v2(&lattice, &meta);
        let lines: Vec<&str> = text.lines().collect();
        let truncated = lines[..lines.len() - 1].join("\n");
        prop_assert!(from_text_v2(&truncated).is_err());
    }
}

/// The committed golden checkpoints: the lattice and metadata each file
/// holds, by file stem. Together they write every state 0–255 (one to
/// three digits), a one-cell lattice, a one-wide column and a 7×5 block.
fn golden() -> Vec<(&'static str, &'static str, Lattice, SnapshotMeta)> {
    let column = (0..256u32).map(|i| ((i * 167 + 13) % 256) as u8).collect();
    let block = (0..35u32)
        .map(|i| if i % 4 == 0 { i % 10 } else { (i * 37 + 250) % 256 } as u8)
        .collect();
    vec![
        (
            "1x1",
            include_str!("fixtures/snapshot_v2_1x1.txt"),
            Lattice::from_cells(Dims::new(1, 1), vec![255]),
            SnapshotMeta {
                time: 0.0,
                steps: 0,
                rng: [0, 1],
            },
        ),
        (
            "1x256",
            include_str!("fixtures/snapshot_v2_1x256.txt"),
            Lattice::from_cells(Dims::new(1, 256), column),
            SnapshotMeta {
                time: f64::from_bits(0x3FF0_0000_0000_0002),
                steps: 12345,
                rng: [0xdead_beef_0123_4567, 0x8765_4321_0bad_f00d | 1],
            },
        ),
        (
            "7x5",
            include_str!("fixtures/snapshot_v2_7x5.txt"),
            Lattice::from_cells(Dims::new(7, 5), block),
            SnapshotMeta {
                time: 1234.5,
                steps: u64::MAX,
                rng: [u64::MAX, 3],
            },
        ),
    ]
}

#[test]
fn v2_writer_reproduces_the_golden_files_byte_for_byte() {
    let mut states = [false; 256];
    for (name, fixture, lattice, meta) in golden() {
        assert_eq!(to_text_v2(&lattice, &meta), fixture, "{name}");
        let (back, back_meta) = from_text_v2(fixture).expect("golden file parses");
        assert_eq!(back, lattice, "{name}");
        assert_eq!(back_meta.time.to_bits(), meta.time.to_bits(), "{name}");
        assert_eq!(
            (back_meta.steps, back_meta.rng),
            (meta.steps, meta.rng),
            "{name}"
        );
        for &s in lattice.cells() {
            states[s as usize] = true;
        }
    }
    assert!(states.iter().all(|&seen| seen), "every state 0–255 written");
}

#[test]
fn dimensions_beyond_u32_sites_are_an_error_not_a_panic() {
    // 70000² overflows u32 site indexing; 65535² does not, but its rows are
    // missing, and nothing may be sized by the claim before they are read.
    for dims in ["70000 70000", "4294967295 2", "65535 65535"] {
        let v2 = format!("psr-lattice v2\ntime_bits 0\nsteps 0\nrng 1 3\n{dims}\n0\n");
        assert!(from_text_v2(&v2).is_err(), "{dims}");
        assert!(
            from_text(&format!("psr-lattice v1\n{dims}\n0\n")).is_err(),
            "{dims}"
        );
    }
}
