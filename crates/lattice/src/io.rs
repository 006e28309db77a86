//! Plain-text snapshots of lattice configurations.
//!
//! Long simulations (the Fig 7 sweeps, the oscillation studies) benefit
//! from checkpointing, and the examples exchange configurations with
//! external plotting. The v1 format is deliberately trivial:
//!
//! ```text
//! psr-lattice v1
//! <width> <height>
//! <row 0: one state id per cell, space separated>
//! …
//! ```
//!
//! The v2 format is the checkpoint format of `psr-engine`: the same lattice
//! body prefixed by resume metadata, so a half-finished run can continue
//! *bit-identically* (same clock, same step count, same RNG stream):
//!
//! ```text
//! psr-lattice v2
//! time_bits <u64: f64::to_bits of the simulated clock>
//! steps <u64: algorithm steps completed>
//! rng <u64> <u64: opaque generator state words>
//! <width> <height>
//! <rows as in v1>
//! ```
//!
//! The clock is stored as raw IEEE-754 bits because a decimal rendering
//! would lose the low mantissa bits and break bit-identical resume.

use crate::geometry::Dims;
use crate::lattice::Lattice;
use std::io::Write as _;

/// Magic header line of the v1 snapshot format.
const MAGIC: &str = "psr-lattice v1";

/// Magic header line of the v2 (checkpoint) snapshot format.
const MAGIC_V2: &str = "psr-lattice v2";

/// Serialise a lattice to the snapshot text format.
pub fn to_text(lattice: &Lattice) -> String {
    let mut out = Vec::new();
    let _ = writeln!(out, "{MAGIC}");
    write_body(&mut out, lattice);
    into_text(out)
}

/// Append the dimension line and the cell rows both format versions share,
/// writing each cell's decimal digits straight into `out`.
fn write_body(out: &mut Vec<u8>, lattice: &Lattice) {
    let dims = lattice.dims();
    let _ = writeln!(out, "{} {}", dims.width(), dims.height());
    // One digit and a separator per cell: exact for fewer than ten states.
    out.reserve(lattice.len() * 2);
    for row in lattice.cells().chunks(dims.width() as usize) {
        for (x, &v) in row.iter().enumerate() {
            if x > 0 {
                out.push(b' ');
            }
            if v >= 100 {
                out.push(b'0' + v / 100);
            }
            if v >= 10 {
                out.push(b'0' + v / 10 % 10);
            }
            out.push(b'0' + v % 10);
        }
        out.push(b'\n');
    }
}

fn into_text(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("snapshot text is ASCII")
}

/// Parse the dimension line plus cell rows shared by both format versions,
/// rejecting short/long rows, malformed cells, trailing garbage and sizes
/// beyond `u32` site indexing. `text_len` bounds what the rows can hold:
/// every cell takes at least two bytes (a digit and a separator) but the
/// last, so no more than that is reserved before the rows are read.
fn parse_body(lines: &mut std::str::Lines<'_>, text_len: usize) -> Result<Lattice, String> {
    let dims_line = lines.next().ok_or("missing dimension line")?;
    let mut parts = dims_line.split_whitespace();
    let width: u32 = parts
        .next()
        .ok_or("missing width")?
        .parse()
        .map_err(|e| format!("bad width: {e}"))?;
    let height: u32 = parts
        .next()
        .ok_or("missing height")?
        .parse()
        .map_err(|e| format!("bad height: {e}"))?;
    if parts.next().is_some() {
        return Err("trailing tokens on the dimension line".to_owned());
    }
    if width == 0 || height == 0 {
        return Err("dimensions must be positive".to_owned());
    }
    let sites = u64::from(width) * u64::from(height);
    if sites > u64::from(u32::MAX) {
        return Err(format!("{width}x{height} sites exceed u32 indexing"));
    }
    let dims = Dims::new(width, height);
    let mut cells = Vec::with_capacity((sites as usize).min(text_len / 2 + 1));
    for y in 0..height {
        let row = lines.next().ok_or_else(|| format!("missing row {y}"))?;
        let mut count = 0u32;
        for token in row.split_whitespace() {
            let v: u8 = token
                .parse()
                .map_err(|e| format!("row {y}: bad cell {token:?}: {e}"))?;
            cells.push(v);
            count += 1;
        }
        if count != width {
            return Err(format!("row {y} has {count} cells, expected {width}"));
        }
    }
    if lines.any(|l| !l.trim().is_empty()) {
        return Err("trailing content after the last row".to_owned());
    }
    Ok(Lattice::from_cells(dims, cells))
}

/// Parse a snapshot produced by [`to_text`].
///
/// # Errors
///
/// Returns a description of the first format violation encountered.
pub fn from_text(text: &str) -> Result<Lattice, String> {
    let mut lines = text.lines();
    let magic = lines.next().ok_or("empty snapshot")?;
    if magic.trim() != MAGIC {
        return Err(format!("bad header {magic:?}, expected {MAGIC:?}"));
    }
    parse_body(&mut lines, text.len())
}

/// Resume metadata carried by a v2 (checkpoint) snapshot.
///
/// The `rng` words are opaque to this crate — `psr-engine` stores the
/// serialised `Pcg32` state there; any generator whose state fits two words
/// can use the slots.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SnapshotMeta {
    /// Simulated clock at checkpoint time.
    pub time: f64,
    /// Algorithm steps completed at checkpoint time.
    pub steps: u64,
    /// Opaque RNG state words.
    pub rng: [u64; 2],
}

/// Serialise a lattice plus resume metadata to the v2 checkpoint format.
pub fn to_text_v2(lattice: &Lattice, meta: &SnapshotMeta) -> String {
    let mut out = Vec::new();
    let _ = writeln!(out, "{MAGIC_V2}");
    let _ = writeln!(out, "time_bits {}", meta.time.to_bits());
    let _ = writeln!(out, "steps {}", meta.steps);
    let _ = writeln!(out, "rng {} {}", meta.rng[0], meta.rng[1]);
    write_body(&mut out, lattice);
    into_text(out)
}

/// Parse one `<key> <u64>…` metadata line of the v2 header.
fn parse_meta_words<const N: usize>(
    lines: &mut std::str::Lines<'_>,
    key: &str,
) -> Result<[u64; N], String> {
    let line = lines.next().ok_or_else(|| format!("missing {key} line"))?;
    let mut parts = line.split_whitespace();
    let found = parts.next().ok_or_else(|| format!("missing {key} line"))?;
    if found != key {
        return Err(format!("expected {key:?} line, found {found:?}"));
    }
    let mut words = [0u64; N];
    for w in words.iter_mut() {
        *w = parts
            .next()
            .ok_or_else(|| format!("{key}: too few words"))?
            .parse()
            .map_err(|e| format!("{key}: bad word: {e}"))?;
    }
    if parts.next().is_some() {
        return Err(format!("{key}: trailing tokens"));
    }
    Ok(words)
}

/// Parse a checkpoint produced by [`to_text_v2`].
///
/// # Errors
///
/// Returns a description of the first format violation encountered.
pub fn from_text_v2(text: &str) -> Result<(Lattice, SnapshotMeta), String> {
    let mut lines = text.lines();
    let magic = lines.next().ok_or("empty snapshot")?;
    if magic.trim() != MAGIC_V2 {
        return Err(format!("bad header {magic:?}, expected {MAGIC_V2:?}"));
    }
    let [time_bits] = parse_meta_words::<1>(&mut lines, "time_bits")?;
    let [steps] = parse_meta_words::<1>(&mut lines, "steps")?;
    let rng = parse_meta_words::<2>(&mut lines, "rng")?;
    let time = f64::from_bits(time_bits);
    if !time.is_finite() || time < 0.0 {
        return Err(format!("time {time} is not a valid simulation clock"));
    }
    let lattice = parse_body(&mut lines, text.len())?;
    Ok((lattice, SnapshotMeta { time, steps, rng }))
}

/// Write a v2 checkpoint to a file.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save_v2(
    lattice: &Lattice,
    meta: &SnapshotMeta,
    path: &std::path::Path,
) -> std::io::Result<()> {
    std::fs::write(path, to_text_v2(lattice, meta))
}

/// Read a v2 checkpoint from a file.
///
/// # Errors
///
/// Propagates I/O errors; format violations become `InvalidData`.
pub fn load_v2(path: &std::path::Path) -> std::io::Result<(Lattice, SnapshotMeta)> {
    let text = std::fs::read_to_string(path)?;
    from_text_v2(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Write a snapshot to a file.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save(lattice: &Lattice, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, to_text(lattice))
}

/// Read a snapshot from a file.
///
/// # Errors
///
/// Propagates I/O errors; format violations become `InvalidData`.
pub fn load(path: &std::path::Path) -> std::io::Result<Lattice> {
    let text = std::fs::read_to_string(path)?;
    from_text(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let dims = Dims::new(4, 3);
        let cells: Vec<u8> = (0..12).map(|i| (i % 5) as u8).collect();
        let lattice = Lattice::from_cells(dims, cells);
        let text = to_text(&lattice);
        let back = from_text(&text).expect("parse");
        assert_eq!(back, lattice);
    }

    #[test]
    fn file_roundtrip() {
        let dims = Dims::new(3, 3);
        let lattice = Lattice::from_cells(dims, vec![0, 1, 2, 2, 1, 0, 1, 1, 1]);
        let path = std::env::temp_dir().join("psr_snapshot_test.txt");
        save(&lattice, &path).expect("save");
        let back = load(&path).expect("load");
        assert_eq!(back, lattice);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(from_text("nonsense\n2 2\n0 0\n0 0\n")
            .unwrap_err()
            .contains("bad header"));
    }

    #[test]
    fn rejects_short_row() {
        let text = format!("{MAGIC}\n3 1\n0 1\n");
        assert!(from_text(&text).unwrap_err().contains("has 2 cells"));
    }

    #[test]
    fn rejects_missing_row() {
        let text = format!("{MAGIC}\n2 2\n0 0\n");
        assert!(from_text(&text).unwrap_err().contains("missing row 1"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let text = format!("{MAGIC}\n1 1\n0\nextra\n");
        assert!(from_text(&text).unwrap_err().contains("trailing"));
    }

    #[test]
    fn rejects_non_numeric_cell() {
        let text = format!("{MAGIC}\n2 1\n0 x\n");
        assert!(from_text(&text).unwrap_err().contains("bad cell"));
    }

    #[test]
    fn rejects_long_row() {
        let text = format!("{MAGIC}\n2 1\n0 1 2\n");
        assert!(from_text(&text).unwrap_err().contains("has 3 cells"));
    }

    #[test]
    fn rejects_dimension_line_garbage() {
        let text = format!("{MAGIC}\n2 1 9\n0 1\n");
        assert!(from_text(&text).unwrap_err().contains("dimension line"));
    }

    fn meta() -> SnapshotMeta {
        SnapshotMeta {
            // A value with low mantissa bits set: decimal printing at any
            // fixed precision would corrupt it, bit storage must not.
            time: f64::from_bits(0x3FF0_0000_0000_0002),
            steps: 12345,
            rng: [0xdead_beef_0123_4567, 0x8765_4321_0bad_f00d | 1],
        }
    }

    #[test]
    fn v2_roundtrip_preserves_meta_bits() {
        let lattice = Lattice::from_cells(Dims::new(3, 2), vec![0, 1, 2, 3, 4, 5]);
        let m = meta();
        let text = to_text_v2(&lattice, &m);
        let (back, back_meta) = from_text_v2(&text).expect("parse");
        assert_eq!(back, lattice);
        assert_eq!(back_meta.time.to_bits(), m.time.to_bits());
        assert_eq!(back_meta.steps, m.steps);
        assert_eq!(back_meta.rng, m.rng);
    }

    #[test]
    fn v2_file_roundtrip() {
        let lattice = Lattice::from_cells(Dims::new(2, 2), vec![1, 0, 0, 1]);
        let path = std::env::temp_dir().join("psr_snapshot_v2_test.txt");
        save_v2(&lattice, &meta(), &path).expect("save");
        let (back, back_meta) = load_v2(&path).expect("load");
        assert_eq!(back, lattice);
        assert_eq!(back_meta, meta());
    }

    #[test]
    fn v2_rejects_v1_header_and_vice_versa() {
        let lattice = Lattice::from_cells(Dims::new(1, 1), vec![0]);
        assert!(from_text_v2(&to_text(&lattice)).is_err());
        assert!(from_text(&to_text_v2(&lattice, &meta())).is_err());
    }

    #[test]
    fn v2_rejects_missing_and_malformed_meta() {
        let text = format!("{MAGIC_V2}\nsteps 3\nrng 1 1\n1 1\n0\n");
        assert!(from_text_v2(&text).unwrap_err().contains("time_bits"));
        let text = format!("{MAGIC_V2}\ntime_bits 0\nsteps 3\nrng 1\n1 1\n0\n");
        assert!(from_text_v2(&text).unwrap_err().contains("too few words"));
        let nan = f64::NAN.to_bits();
        let text = format!("{MAGIC_V2}\ntime_bits {nan}\nsteps 3\nrng 1 1\n1 1\n0\n");
        assert!(from_text_v2(&text).unwrap_err().contains("not a valid"));
    }

    #[test]
    fn v2_rejects_trailing_garbage() {
        let lattice = Lattice::from_cells(Dims::new(1, 1), vec![0]);
        let text = format!("{}junk\n", to_text_v2(&lattice, &meta()));
        assert!(from_text_v2(&text).unwrap_err().contains("trailing"));
    }
}
