//! The CONFIG blob: everything a worker process needs to rebuild the run.
//!
//! A socket worker shares no memory with the hub, so the handshake ships
//! the complete run definition — model (species names, reactions, rates,
//! transforms), partition (explicit per-chunk site lists, preserving the
//! exact sweep order the determinism contract keys RNG streams by), the
//! full starting lattice, the worker grid, seed, selection, step window,
//! and timeouts. The worker compiles its own kernel and scatters its own
//! [`SubLattice`](psr_lattice::SubLattice) from the blob, exactly as the
//! in-process executors do from shared references — which is why the
//! trajectories stay bit-identical across transports.

use crate::domain::ShardGrid;
use psr_ca::partition::Partition;
use psr_ca::pndca::ChunkSelection;
use psr_lattice::{Dims, Lattice, Offset, Site};
use psr_model::{Model, ReactionType, Species, SpeciesSet, Transform};

/// Stable `u8` tag for each [`ChunkSelection`] variant.
fn selection_tag(selection: ChunkSelection) -> u8 {
    match selection {
        ChunkSelection::InOrder => 0,
        ChunkSelection::RandomOrder => 1,
        ChunkSelection::RandomWithReplacement => 2,
        ChunkSelection::WeightedByRates => 3,
    }
}

fn selection_from_tag(tag: u8) -> Result<ChunkSelection, String> {
    Ok(match tag {
        0 => ChunkSelection::InOrder,
        1 => ChunkSelection::RandomOrder,
        2 => ChunkSelection::RandomWithReplacement,
        3 => ChunkSelection::WeightedByRates,
        other => return Err(format!("unknown chunk selection tag {other}")),
    })
}

const MAGIC: u32 = 0x5053_524E; // "PSRN"
const VERSION: u8 = 1;

/// A decoded CONFIG blob — the worker-side owned copy of the run.
pub struct RunConfig {
    /// Worker grid the lattice is tiled over.
    pub grid: ShardGrid,
    /// Run seed (every RNG stream derives from it).
    pub seed: u64,
    /// Chunk-selection strategy.
    pub selection: ChunkSelection,
    /// Absolute first step of this run window.
    pub start_step: u64,
    /// Number of steps to run.
    pub steps: u64,
    /// Per-receive deadline, milliseconds.
    pub recv_timeout_ms: u64,
    /// The reaction model.
    pub model: Model,
    /// The sweep partition, chunk order preserved exactly.
    pub partition: Partition,
    /// The full starting lattice.
    pub lattice: Lattice,
}

/// Encode a CONFIG blob from the hub's borrowed run state.
#[allow(clippy::too_many_arguments)]
pub fn encode_config(
    model: &Model,
    partition: &Partition,
    lattice: &Lattice,
    grid: ShardGrid,
    seed: u64,
    selection: ChunkSelection,
    start_step: u64,
    steps: u64,
    recv_timeout_ms: u64,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + lattice.len() + 4 * partition.num_sites());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.extend_from_slice(&grid.gx().to_le_bytes());
    out.extend_from_slice(&grid.gy().to_le_bytes());
    out.extend_from_slice(&seed.to_le_bytes());
    out.push(selection_tag(selection));
    out.extend_from_slice(&start_step.to_le_bytes());
    out.extend_from_slice(&steps.to_le_bytes());
    out.extend_from_slice(&recv_timeout_ms.to_le_bytes());
    // Model: species names, then reactions.
    let species = model.species();
    out.extend_from_slice(&(species.len() as u32).to_le_bytes());
    for i in 0..species.len() {
        put_str(&mut out, species.name(Species(i as u8)));
    }
    out.extend_from_slice(&(model.num_reactions() as u32).to_le_bytes());
    for r in model.reactions() {
        put_str(&mut out, r.name());
        out.extend_from_slice(&r.rate().to_bits().to_le_bytes());
        out.extend_from_slice(&(r.transforms().len() as u32).to_le_bytes());
        for t in r.transforms() {
            out.extend_from_slice(&t.offset.dx.to_le_bytes());
            out.extend_from_slice(&t.offset.dy.to_le_bytes());
            out.push(t.src.id());
            out.push(t.tgt.id());
        }
    }
    // Partition: explicit ordered chunk site lists.
    out.extend_from_slice(&(partition.num_chunks() as u32).to_le_bytes());
    for chunk in partition.chunks() {
        out.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
        for site in chunk {
            out.extend_from_slice(&site.0.to_le_bytes());
        }
    }
    // Lattice: dims + raw cells.
    let dims = lattice.dims();
    out.extend_from_slice(&dims.width().to_le_bytes());
    out.extend_from_slice(&dims.height().to_le_bytes());
    out.extend_from_slice(&(lattice.len() as u32).to_le_bytes());
    out.extend_from_slice(lattice.cells());
    out
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked little-endian cursor over a CONFIG blob.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("config blob truncated at byte {}", self.at))?;
        let out = &self.bytes[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn i32(&mut self) -> Result<i32, String> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|e| format!("config string: {e}"))
    }

    /// A `u32` element count, refused unless the rest of the blob can hold
    /// that many elements of at least `min_bytes` each — so a hostile
    /// count can never size an allocation beyond the blob's own length.
    fn count(&mut self, min_bytes: usize) -> Result<usize, String> {
        let n = self.u32()? as usize;
        if n > (self.bytes.len() - self.at) / min_bytes {
            return Err(format!(
                "config blob declares {n} elements at byte {} but is too short to hold them",
                self.at
            ));
        }
        Ok(n)
    }
}

impl RunConfig {
    /// Decode a CONFIG payload.
    ///
    /// # Errors
    ///
    /// Reports the structural violation — truncation, bad magic/version,
    /// unknown tags, a count the blob is too short for, a grid, model,
    /// partition or lattice that breaks its constructor's preconditions, or
    /// a partition that conflicts for the model (the hub's
    /// [`ShardedPndca::new`](crate::ShardedPndca::new) precondition, not
    /// trusted across the wire) — without panicking and without allocating
    /// more than the blob's own length: on the wire this is an I/O
    /// condition, not a protocol bug.
    pub fn decode(bytes: &[u8]) -> Result<RunConfig, String> {
        let mut c = Cursor { bytes, at: 0 };
        if c.u32()? != MAGIC {
            return Err("config blob has wrong magic".into());
        }
        let version = c.u8()?;
        if version != VERSION {
            return Err(format!("config blob version {version}, expected {VERSION}"));
        }
        let (gx, gy) = (c.u32()?, c.u32()?);
        if gx == 0 || gy == 0 || gx.checked_mul(gy).is_none() {
            return Err(format!("config blob has a {gx}x{gy} worker grid"));
        }
        let grid = ShardGrid::new(gx, gy);
        let seed = c.u64()?;
        let selection = selection_from_tag(c.u8()?)?;
        let start_step = c.u64()?;
        let steps = c.u64()?;
        if start_step.checked_add(steps).is_none() {
            return Err(format!(
                "config blob runs {steps} steps from step {start_step}"
            ));
        }
        let recv_timeout_ms = c.u64()?;
        let num_species = c.count(4)?;
        let mut names = Vec::with_capacity(num_species);
        for _ in 0..num_species {
            names.push(c.str()?);
        }
        let species = SpeciesSet::try_new(&names)?;
        let num_reactions = c.count(16)?;
        let mut reactions = Vec::with_capacity(num_reactions);
        let mut reach = 0u32;
        for _ in 0..num_reactions {
            let name = c.str()?;
            let rate = f64::from_bits(c.u64()?);
            let num_transforms = c.count(10)?;
            let mut transforms = Vec::with_capacity(num_transforms);
            for _ in 0..num_transforms {
                let dx = c.i32()?;
                let dy = c.i32()?;
                let src = Species(c.u8()?);
                let tgt = Species(c.u8()?);
                reach = reach.max(dx.unsigned_abs()).max(dy.unsigned_abs());
                transforms.push(Transform {
                    offset: Offset { dx, dy },
                    src,
                    tgt,
                });
            }
            reactions.push(ReactionType::try_new(name, transforms, rate)?);
        }
        let model = Model::try_new(species, reactions)?;
        let num_chunks = c.count(8)?;
        let mut chunks = Vec::with_capacity(num_chunks);
        for _ in 0..num_chunks {
            let len = c.count(4)?;
            let mut sites = Vec::with_capacity(len);
            for _ in 0..len {
                sites.push(Site(c.u32()?));
            }
            chunks.push(sites);
        }
        let (width, height) = (c.u32()?, c.u32()?);
        let num_cells = c.u32()? as usize;
        let cells = c.take(num_cells)?.to_vec();
        if c.at != bytes.len() {
            return Err(format!(
                "config blob has {} trailing bytes",
                bytes.len() - c.at
            ));
        }
        // Compared in u64 before anything is sized by the sides (the
        // lattice's wrap tables, the partition's site index): a lattice the
        // blob actually carries is never larger than the blob.
        if width == 0 || height == 0 || u64::from(width) * u64::from(height) != cells.len() as u64 {
            return Err(format!(
                "config blob carries {} cells for a {width}x{height} lattice",
                cells.len()
            ));
        }
        let dims = Dims::new(width, height);
        // No offset longer than a side (so the L1 radius cannot overflow),
        // then what `ShardedPndca::new` checked on the hub side and
        // `Worker::new` relies on.
        if reach >= width.min(height) {
            return Err(format!(
                "a transform offset of {reach} does not fit a {width}x{height} lattice"
            ));
        }
        grid.check(dims, model.interaction_radius())?;
        let partition = Partition::try_new(dims, chunks)?;
        if let Some((a, b)) = partition.find_conflict(&model) {
            return Err(format!(
                "config blob partition conflicts for its model: sites {} and {} share a chunk \
                 and their neighborhoods overlap",
                a.0, b.0
            ));
        }
        let lattice = Lattice::from_cells(dims, cells);
        Ok(RunConfig {
            grid,
            seed,
            selection,
            start_step,
            steps,
            recv_timeout_ms,
            model,
            partition,
            lattice,
        })
    }
}

/// Encode the PEERS payload: the data address of every worker, id order.
pub fn encode_peers(addrs: &[String]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(addrs.len() as u32).to_le_bytes());
    for a in addrs {
        put_str(&mut out, a);
    }
    out
}

/// Decode a PEERS payload.
///
/// # Errors
///
/// Reports truncation, a count the payload is too short for, or malformed
/// strings.
pub fn decode_peers(bytes: &[u8]) -> Result<Vec<String>, String> {
    let mut c = Cursor { bytes, at: 0 };
    let n = c.count(4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(c.str()?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_ca::partition_builder::{five_coloring, single_chunk};
    use psr_model::library::zgb::zgb_ziff;

    #[test]
    fn config_roundtrip_preserves_the_run() {
        let model = zgb_ziff(0.515, 3.0);
        let dims = Dims::new(20, 20);
        let partition = five_coloring(dims);
        let mut lattice = Lattice::filled(dims, 0);
        for i in 0..lattice.len() {
            lattice.cells_mut()[i] = (i % 3) as u8;
        }
        let blob = encode_config(
            &model,
            &partition,
            &lattice,
            ShardGrid::new(2, 2),
            42,
            ChunkSelection::WeightedByRates,
            7,
            100,
            5000,
        );
        let cfg = RunConfig::decode(&blob).expect("roundtrip");
        assert_eq!(cfg.grid.workers(), 4);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.selection, ChunkSelection::WeightedByRates);
        assert_eq!((cfg.start_step, cfg.steps), (7, 100));
        assert_eq!(cfg.recv_timeout_ms, 5000);
        assert_eq!(cfg.model.num_reactions(), model.num_reactions());
        for (a, b) in cfg.model.reactions().iter().zip(model.reactions()) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.rate().to_bits(), b.rate().to_bits());
            assert_eq!(a.transforms(), b.transforms());
        }
        assert_eq!(cfg.partition.chunks(), partition.chunks());
        assert_eq!(cfg.lattice.cells(), lattice.cells());
    }

    #[test]
    fn truncated_config_rejected() {
        let model = zgb_ziff(0.515, 3.0);
        let dims = Dims::new(10, 10);
        let partition = five_coloring(dims);
        let lattice = Lattice::filled(dims, 0);
        let blob = encode_config(
            &model,
            &partition,
            &lattice,
            ShardGrid::new(1, 1),
            1,
            ChunkSelection::InOrder,
            0,
            10,
            1000,
        );
        assert!(RunConfig::decode(&blob[..blob.len() - 3]).is_err());
        assert!(RunConfig::decode(&blob[1..]).is_err());
    }

    #[test]
    fn conflicting_partition_is_rejected() {
        // One chunk holds every site: ZGB's pair reactions overlap in it, so
        // `Worker::new` would race write-backs across domain edges.
        let dims = Dims::new(10, 10);
        let blob = encode_config(
            &zgb_ziff(0.515, 3.0),
            &single_chunk(dims),
            &Lattice::filled(dims, 0),
            ShardGrid::new(2, 1),
            1,
            ChunkSelection::InOrder,
            0,
            10,
            1000,
        );
        let err = RunConfig::decode(&blob)
            .err()
            .expect("a conflicting partition");
        assert!(err.contains("conflicts"), "{err}");
    }

    #[test]
    fn peers_roundtrip() {
        let addrs = vec!["/tmp/a.sock".to_string(), "127.0.0.1:4000".to_string()];
        assert_eq!(decode_peers(&encode_peers(&addrs)).unwrap(), addrs);
    }
}
