//! The Segers domain-decomposition baseline (paper §3).
//!
//! Segers et al. parallelised RSM by assigning coherent lattice *blocks*
//! ("chunks" in their terminology) to processors. Reactions whose
//! neighborhood stays inside a block run locally; reactions touching the
//! block boundary require exchanging state with the neighbor processor.
//! The paper's motivation for the partitioned CA is exactly that this
//! communication dominates: "the overhead of the parallel algorithm is
//! considerable because of the high communication latency".
//!
//! This module reproduces the *kinetically exact* sequential semantics of
//! the scheme (trials are executed in RSM order) while instrumenting the
//! communication it would force on `p` processors: every trial anchored in
//! a block's boundary strip counts as a halo exchange. The resulting cost
//! model quantifies the volume/boundary trade-off the paper cites.

use psr_dmc::events::EventHook;
use psr_dmc::recorder::Recorder;
use psr_dmc::rsm::{Rsm, RunStats};
use psr_dmc::sim::SimState;
use psr_lattice::Dims;
use psr_model::Model;
use psr_rng::SimRng;

/// Communication statistics of a domain-decomposed run.
///
/// The Segers baseline fills only the *modeled* trial counters (it runs
/// sequentially and counts the exchanges a block decomposition would
/// force). The sharded executor (psr-shard) fills all four fields with
/// *measured* values: every halo/write-back frame that crosses a worker
/// boundary is counted with its encoded byte size.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Trials anchored strictly inside a block (no communication).
    pub local_trials: u64,
    /// Trials in a boundary strip (would require a halo exchange).
    pub boundary_trials: u64,
    /// Frames actually sent between distinct workers (0 when modeled).
    pub halo_messages: u64,
    /// Encoded bytes of those frames, headers included (0 when modeled).
    pub halo_bytes: u64,
    /// Frames that crossed a real socket (0 for in-process transports).
    pub wire_frames: u64,
    /// Bytes written to sockets, frame headers included.
    pub wire_bytes: u64,
    /// Socket flushes that carried more than one frame (coalescing wins).
    pub wire_batches: u64,
    /// Socket flushes: one buffered write per (peer, phase) with data.
    pub wire_flushes: u64,
}

impl CommStats {
    /// Fraction of trials requiring communication.
    pub fn boundary_fraction(&self) -> f64 {
        let total = self.local_trials + self.boundary_trials;
        if total == 0 {
            0.0
        } else {
            self.boundary_trials as f64 / total as f64
        }
    }
}

impl std::ops::AddAssign for CommStats {
    fn add_assign(&mut self, rhs: Self) {
        self.local_trials += rhs.local_trials;
        self.boundary_trials += rhs.boundary_trials;
        self.halo_messages += rhs.halo_messages;
        self.halo_bytes += rhs.halo_bytes;
        self.wire_frames += rhs.wire_frames;
        self.wire_bytes += rhs.wire_bytes;
        self.wire_batches += rhs.wire_batches;
        self.wire_flushes += rhs.wire_flushes;
    }
}

/// RSM over a `bx × by` block grid with boundary-trial accounting.
pub struct SegersDecomposition<'m> {
    rsm: Rsm<'m>,
    /// Per-site flag: true when the site's combined neighborhood crosses
    /// its block's edge.
    is_boundary: Vec<bool>,
    blocks_x: u32,
    blocks_y: u32,
}

impl<'m> SegersDecomposition<'m> {
    /// Decompose `dims` into a `blocks_x × blocks_y` grid of blocks.
    ///
    /// # Panics
    ///
    /// Panics unless the block grid divides the lattice evenly and each
    /// block is at least as wide as the model's interaction diameter.
    pub fn new(model: &'m Model, dims: Dims, blocks_x: u32, blocks_y: u32) -> Self {
        assert!(blocks_x > 0 && blocks_y > 0, "need at least one block");
        assert!(
            dims.width().is_multiple_of(blocks_x) && dims.height().is_multiple_of(blocks_y),
            "block grid {blocks_x}x{blocks_y} does not divide {}x{}",
            dims.width(),
            dims.height()
        );
        let bw = dims.width() / blocks_x;
        let bh = dims.height() / blocks_y;
        let radius = model.interaction_radius();
        assert!(
            bw > 2 * radius && bh > 2 * radius,
            "blocks of {bw}x{bh} are too small for interaction radius {radius}"
        );
        // A site is "boundary" when some neighborhood offset leaves its
        // block: within distance `radius` of a block edge.
        let mut is_boundary = vec![false; dims.sites() as usize];
        for site in dims.iter_sites() {
            let c = dims.coord(site);
            let lx = c.x as u32 % bw;
            let ly = c.y as u32 % bh;
            let near_x = lx < radius || lx >= bw - radius;
            let near_y = ly < radius || ly >= bh - radius;
            is_boundary[site.0 as usize] = near_x || near_y;
        }
        SegersDecomposition {
            rsm: Rsm::new(model),
            is_boundary,
            blocks_x,
            blocks_y,
        }
    }

    /// Number of processors (= blocks).
    pub fn num_blocks(&self) -> u32 {
        self.blocks_x * self.blocks_y
    }

    /// Fraction of lattice sites in boundary strips (the static
    /// volume/boundary ratio of the decomposition).
    pub fn static_boundary_fraction(&self) -> f64 {
        let boundary = self.is_boundary.iter().filter(|&&b| b).count();
        boundary as f64 / self.is_boundary.len() as f64
    }

    /// Run `steps` MC steps of exact RSM, accounting communication.
    pub fn run_mc_steps(
        &mut self,
        state: &mut SimState,
        rng: &mut SimRng,
        steps: u64,
        recorder: Option<&mut Recorder>,
        hook: &mut impl EventHook,
    ) -> (RunStats, CommStats) {
        let mut comm = CommStats::default();
        let is_boundary = &self.is_boundary;
        let mut counting_hook = |event: psr_dmc::events::Event| {
            if is_boundary[event.site.0 as usize] {
                comm.boundary_trials += 1;
            } else {
                comm.local_trials += 1;
            }
            hook.on_event(event);
        };
        let stats = self
            .rsm
            .run_mc_steps(state, rng, steps, recorder, &mut counting_hook);
        (stats, comm)
    }

    /// Modelled parallel step time: local work is divided over the blocks,
    /// every boundary trial additionally pays `comm_latency` seconds.
    pub fn modeled_step_time(
        &self,
        comm: &CommStats,
        steps: u64,
        t_site: f64,
        comm_latency: f64,
    ) -> f64 {
        let p = self.num_blocks() as f64;
        let per_step_local = comm.local_trials as f64 / steps as f64;
        let per_step_boundary = comm.boundary_trials as f64 / steps as f64;
        per_step_local * t_site / p + per_step_boundary * (t_site + comm_latency)
    }

    /// Modelled speedup versus one processor (which pays no latency).
    pub fn modeled_speedup(
        &self,
        comm: &CommStats,
        steps: u64,
        t_site: f64,
        comm_latency: f64,
    ) -> f64 {
        let total = (comm.local_trials + comm.boundary_trials) as f64 / steps as f64;
        let t1 = total * t_site;
        t1 / self.modeled_step_time(comm, steps, t_site, comm_latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_dmc::events::NoHook;
    use psr_lattice::Lattice;
    use psr_model::library::zgb::zgb_ziff;
    use psr_rng::rng_from_seed;

    #[test]
    fn boundary_fraction_matches_geometry() {
        // 20x20 lattice in 2x2 blocks of 10x10, radius 1: boundary strip
        // is the 2-site-wide frame minus… exactly the sites within 1 of a
        // block edge: per block 10² − 8² = 36 of 100.
        let model = zgb_ziff(0.5, 1.0);
        let d = Dims::new(20, 20);
        let seg = SegersDecomposition::new(&model, d, 2, 2);
        assert!((seg.static_boundary_fraction() - 0.36).abs() < 1e-12);
        assert_eq!(seg.num_blocks(), 4);
    }

    #[test]
    fn comm_counts_match_boundary_fraction() {
        let model = zgb_ziff(0.5, 2.0);
        let d = Dims::new(20, 20);
        let mut seg = SegersDecomposition::new(&model, d, 2, 2);
        let mut state = SimState::new(Lattice::filled(d, 0), &model);
        let mut rng = rng_from_seed(3);
        let (stats, comm) = seg.run_mc_steps(&mut state, &mut rng, 20, None, &mut NoHook);
        assert_eq!(stats.trials, comm.local_trials + comm.boundary_trials);
        // RSM picks sites uniformly → boundary fraction ≈ static fraction.
        assert!(
            (comm.boundary_fraction() - 0.36).abs() < 0.03,
            "got {}",
            comm.boundary_fraction()
        );
    }

    #[test]
    fn high_latency_kills_speedup() {
        // The paper's observation: with large communication latency the
        // domain decomposition hardly speeds up at all.
        let model = zgb_ziff(0.5, 2.0);
        let d = Dims::new(40, 40);
        let mut seg = SegersDecomposition::new(&model, d, 2, 2);
        let mut state = SimState::new(Lattice::filled(d, 0), &model);
        let mut rng = rng_from_seed(4);
        let (_, comm) = seg.run_mc_steps(&mut state, &mut rng, 10, None, &mut NoHook);
        let t_site = 100e-9;
        let fast_net = seg.modeled_speedup(&comm, 10, t_site, 10e-9);
        let slow_net = seg.modeled_speedup(&comm, 10, t_site, 100e-6);
        assert!(fast_net > 2.0, "fast network speedup {fast_net}");
        assert!(
            slow_net < 1.0,
            "slow network must be a slowdown: {slow_net}"
        );
    }

    #[test]
    fn bigger_blocks_communicate_less() {
        let model = zgb_ziff(0.5, 1.0);
        let small_blocks = SegersDecomposition::new(&model, Dims::new(40, 40), 8, 8);
        let large_blocks = SegersDecomposition::new(&model, Dims::new(40, 40), 2, 2);
        assert!(large_blocks.static_boundary_fraction() < small_blocks.static_boundary_fraction());
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn undersized_blocks_rejected() {
        let model = zgb_ziff(0.5, 1.0);
        SegersDecomposition::new(&model, Dims::new(8, 8), 4, 4);
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn uneven_grid_rejected() {
        let model = zgb_ziff(0.5, 1.0);
        SegersDecomposition::new(&model, Dims::new(10, 10), 3, 2);
    }
}
