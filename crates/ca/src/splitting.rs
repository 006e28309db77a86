//! Fractional-step operator-splitting parallel KMC (Lie / Strang).
//!
//! The Arampatzis/Katsoulakis/Plecháč family (arXiv:1105.4673) sits between
//! the exact DMC algorithms and the paper's approximate PNDCA: the lattice
//! is tiled into rectangular blocks, the generator is split as
//! `L = Σ_g L_g` over *groups* of mutually non-interacting blocks, and each
//! fractional step runs **exact** VSSM-style KMC on one group's blocks for a
//! sub-interval of the time window `Δt` while every other block is frozen.
//! Events anchored in an active block may still *write* into neighbouring
//! frozen blocks (those writes apply immediately); events anchored in frozen
//! blocks are deferred to that block's own fractional step. The splitting
//! error is controlled by the window:
//!
//! - [`Schedule::Lie`] sweeps each group once per window — first-order
//!   `O(Δt)` local error;
//! - [`Schedule::Strang`] runs the palindromic half-window sweep
//!   `e^{Δt/2·L_0}…e^{Δt/2·L_{G-2}}·e^{Δt·L_{G-1}}·e^{Δt/2·L_{G-2}}…e^{Δt/2·L_0}`
//!   — second-order `O(Δt²)` error per window.
//!
//! Under either schedule every block integrates exactly `Δt` of its own
//! local clock per window (a Strang edge group splits it into two halves at
//! different interleavings), so event timestamps are `window_start + τ` with
//! `τ` the block's integrated clock — inter-event times at any fixed site
//! are exact exponential samples, which is what the validate tier's
//! waiting-time KS test measures.
//!
//! Determinism: every `(window, slot, block)` triple draws from its own
//! counter-keyed RNG stream, so the trajectory is a pure function of
//! `(seed, partition, schedule)` — resumable from `(lattice, window count)`
//! alone, with window boundaries as the checkpoint seam.

use std::sync::Arc;

use crate::partition::Partition;
use psr_dmc::events::{Event, EventHook};
use psr_dmc::recorder::Recorder;
use psr_dmc::rsm::RunStats;
use psr_dmc::sim::SimState;
use psr_dmc::vssm::EnabledIndex;
use psr_kernel::{CompiledModel, SiteKernel};
use psr_lattice::{Dims, Site};
use psr_model::Model;
use psr_rng::{SimRng, StreamFactory};

/// XOR-folded into the master seed so fractional-step streams can never
/// collide with `rng_from_seed(seed)` (= stream 0 of the unsalted factory).
pub const FS_STREAM_NAMESPACE: u64 = 0xF5C0_5EED_0F5C_A11E;

/// Operator-splitting schedule: the order fractional steps visit the block
/// groups within one window, which sets the splitting-error order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// One full-window sweep of the groups per window: `O(Δt)` error.
    Lie,
    /// Symmetric half-window sweeps (palindromic composition): `O(Δt²)`.
    Strang,
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Schedule::Lie => "lie",
            Schedule::Strang => "strang",
        })
    }
}

impl std::str::FromStr for Schedule {
    type Err = String;

    /// Parse the names printed by `Display` (batch spec files).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "lie" => Ok(Schedule::Lie),
            "strang" => Ok(Schedule::Strang),
            other => Err(format!(
                "unknown splitting schedule {other:?} (expected lie or strang)"
            )),
        }
    }
}

/// The squarest `(gx, gy)` factorisation of `blocks` (`gx ≥ gy`), used by
/// engine specs that give a block *count* rather than a grid.
pub fn squarest_grid(blocks: u32) -> (u32, u32) {
    let mut gy = 1;
    let mut d = 1;
    while d * d <= blocks {
        if blocks.is_multiple_of(d) {
            gy = d;
        }
        d += 1;
    }
    (blocks / gy, gy)
}

/// A validated decomposition of the lattice into a `gx × gy` torus of
/// rectangular blocks, coloured into groups of mutually non-interacting
/// blocks (Moore-adjacency colouring, same bound as the shard grid: block
/// sides strictly greater than twice the interaction radius).
#[derive(Clone, Debug)]
pub struct SplitPlan {
    partition: Partition,
    gx: u32,
    gy: u32,
    groups: Vec<Vec<usize>>,
}

impl SplitPlan {
    /// Tile `dims` into a `gx × gy` block grid.
    ///
    /// # Errors
    ///
    /// The grid must divide both lattice dimensions, and each block side
    /// must exceed `2 · radius` so that blocks in the same colour group can
    /// never read or write a common site within a fractional step.
    pub fn new(dims: Dims, gx: u32, gy: u32, radius: u32) -> Result<Self, String> {
        if gx == 0 || gy == 0 {
            return Err("block grid dimensions must be at least 1".to_string());
        }
        let (w, h) = (dims.width(), dims.height());
        if w % gx != 0 {
            return Err(format!("block grid x = {gx} does not divide width {w}"));
        }
        if h % gy != 0 {
            return Err(format!("block grid y = {gy} does not divide height {h}"));
        }
        let (bw, bh) = (w / gx, h / gy);
        if bw <= 2 * radius || bh <= 2 * radius {
            return Err(format!(
                "{bw}x{bh} blocks are too small for interaction radius {radius} \
                 (sides must exceed {})",
                2 * radius
            ));
        }
        let labels: Vec<u32> = dims
            .iter_sites()
            .map(|s| {
                let c = dims.coord(s);
                let (bx, by) = (c.x as u32 / bw, c.y as u32 / bh);
                by * gx + bx
            })
            .collect();
        let partition = Partition::from_labels(dims, &labels);
        let groups = moore_coloring(gx as usize, gy as usize);
        Ok(SplitPlan {
            partition,
            gx,
            gy,
            groups,
        })
    }

    /// The block partition (chunk index = `by * gx + bx`, sites row-major).
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Number of blocks (`gx · gy`).
    pub fn num_blocks(&self) -> usize {
        (self.gx * self.gy) as usize
    }

    /// The block grid shape.
    pub fn grid(&self) -> (u32, u32) {
        (self.gx, self.gy)
    }

    /// The colour groups: each inner vector lists mutually non-interacting
    /// block indices, visited in ascending order within a fractional step.
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }
}

/// Greedy colouring of the `gx × gy` block torus under Moore (8-neighbour)
/// adjacency with wrap-around; returns blocks grouped by colour. Degenerate
/// grids (a dimension of 1 or 2 wraps a block onto or next to itself both
/// ways) fall out naturally: a 1×1 grid is one singleton group, a 2×2 grid
/// is four.
fn moore_coloring(gx: usize, gy: usize) -> Vec<Vec<usize>> {
    let nb = gx * gy;
    let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); nb];
    for by in 0..gy {
        for bx in 0..gx {
            let b = by * gx + bx;
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let nx = (bx as i64 + dx).rem_euclid(gx as i64) as usize;
                    let ny = (by as i64 + dy).rem_euclid(gy as i64) as usize;
                    let n = ny * gx + nx;
                    if n != b && !neighbors[b].contains(&n) {
                        neighbors[b].push(n);
                    }
                }
            }
        }
    }
    let mut color = vec![usize::MAX; nb];
    let mut num_colors = 0;
    for b in 0..nb {
        let mut used = vec![false; num_colors + 1];
        for &n in &neighbors[b] {
            if color[n] != usize::MAX {
                used[color[n]] = true;
            }
        }
        let c = used.iter().position(|&u| !u).expect("a free colour exists");
        color[b] = c;
        num_colors = num_colors.max(c + 1);
    }
    let mut groups = vec![Vec::new(); num_colors];
    for (b, &c) in color.iter().enumerate() {
        groups[c].push(b);
    }
    groups
}

/// One fractional step: run group `group` for the sub-interval
/// `[lo, hi] · Δt` of each member block's local window clock.
#[derive(Clone, Copy, Debug)]
struct Slot {
    group: usize,
    lo: f64,
    hi: f64,
}

fn slot_table(schedule: Schedule, groups: usize) -> Vec<Slot> {
    match schedule {
        Schedule::Lie => (0..groups)
            .map(|group| Slot {
                group,
                lo: 0.0,
                hi: 1.0,
            })
            .collect(),
        Schedule::Strang => {
            if groups == 1 {
                // A single group is exact KMC; Strang degenerates to Lie.
                return slot_table(Schedule::Lie, 1);
            }
            let mut slots = Vec::with_capacity(2 * groups - 1);
            for group in 0..groups - 1 {
                slots.push(Slot {
                    group,
                    lo: 0.0,
                    hi: 0.5,
                });
            }
            // The innermost group runs its whole window in one slot (the
            // two palindromic halves merge).
            slots.push(Slot {
                group: groups - 1,
                lo: 0.0,
                hi: 1.0,
            });
            for group in (0..groups - 1).rev() {
                slots.push(Slot {
                    group,
                    lo: 0.5,
                    hi: 1.0,
                });
            }
            slots
        }
    }
}

/// The fractional-step executor: exact VSSM within each block for its share
/// of the window, blocks interleaved per the [`Schedule`].
///
/// One *step* (in [`SimSession`](../../psr_core) terms) is one whole window:
/// at every window boundary the state is `(lattice, w·Δt)` and nothing else
/// — the RNG streams are keyed by `(window, slot, block)` — so windows are
/// clean checkpoint seams despite the event-driven interior.
#[derive(Clone, Debug)]
pub struct FractionalStepKmc<'m, 'p> {
    model: &'m Model,
    plan: &'p SplitPlan,
    window: f64,
    factory: StreamFactory,
    slots: Vec<Slot>,
    /// Index of the next window to run (`set_start_window` on resume).
    next_window: u64,
    /// `Vssm`'s enabled index, rebuilt per (slot, block) over the active
    /// block only; allocations reused across blocks.
    index: EnabledIndex,
    compiled: Arc<CompiledModel>,
    /// Lattice-bound kernel, bound on every `run_windows`.
    kernel: Option<SiteKernel>,
}

impl<'m, 'p> FractionalStepKmc<'m, 'p> {
    /// Build an executor over `plan` with time window `window` (> 0).
    pub fn new(
        model: &'m Model,
        plan: &'p SplitPlan,
        schedule: Schedule,
        window: f64,
        seed: u64,
    ) -> Self {
        assert!(
            window.is_finite() && window > 0.0,
            "fskmc window must be positive and finite (got {window})"
        );
        let slots = slot_table(schedule, plan.groups().len());
        FractionalStepKmc {
            model,
            plan,
            window,
            factory: StreamFactory::new(seed ^ FS_STREAM_NAMESPACE),
            slots,
            next_window: 0,
            index: EnabledIndex::new(&model.rate_weights(), plan.partition().num_sites()),
            compiled: Arc::new(CompiledModel::compile(model)),
            kernel: None,
        }
    }

    /// Resume support: the index of the next window (= whole windows already
    /// run). Streams are keyed on it, so this fully positions the executor.
    pub fn set_start_window(&mut self, window: u64) {
        self.next_window = window;
    }

    /// The RNG stream a given `(window, slot, block)` fractional step draws
    /// from — exposed so differential tests can drive a reference VSSM with
    /// the identical stream.
    pub fn stream(&self, window: u64, slot: usize, block: usize) -> SimRng {
        let slots = self.slots.len() as u64;
        let blocks = self.plan.num_blocks() as u64;
        self.factory
            .stream((window * slots + slot as u64) * blocks + block as u64)
    }

    /// Number of fractional steps per window under the configured schedule.
    pub fn slots_per_window(&self) -> usize {
        self.slots.len()
    }

    /// `window · (w + frac)`: the one expression used for every clock value,
    /// so window boundaries are bit-stable functions of the window index.
    fn time_at(&self, window: u64, frac: f64) -> f64 {
        self.window * (window as f64 + frac)
    }

    /// Exact KMC on `block` from `t_lo` to `t_hi` (absolute clock values on
    /// the block's own integrated window clock): [`Vssm`](psr_dmc::Vssm)'s
    /// stepping over an index of the block's sites, so events are drawn in
    /// its exact per-event order (total → exponential → reaction scan → site
    /// sample). Anchors in frozen blocks stay out of the index; their own
    /// fractional step rebuilds it. The per-set insertion order (block
    /// sites row-major) matches a fresh `Vssm::new` scan when the block is
    /// the whole lattice — the single-chunk bit-identity hinges on this.
    #[allow(clippy::too_many_arguments)]
    fn run_block_slot(
        &mut self,
        kernel: &mut SiteKernel,
        state: &mut SimState,
        rng: &mut SimRng,
        block: usize,
        t_lo: f64,
        t_hi: f64,
        changes: &mut Vec<(Site, u8, u8)>,
        hook: &mut impl EventHook,
    ) -> u64 {
        let partition = &self.plan.partition;
        let sites = partition.chunk(block).iter().copied();
        self.index.rebuild(sites, |site, ri| {
            kernel.is_enabled(site, ri, |s| state.lattice.get(s))
        });
        let in_block = |anchor| partition.chunk_of(anchor) == block;
        let mut t = t_lo;
        let mut events = 0u64;
        while let Some((total, dt)) = self.index.waiting_time(rng) {
            if t + dt > t_hi {
                // The overshooting draw is consumed, exactly as VSSM's
                // clamped step consumes it.
                break;
            }
            let Some((chosen, site)) = self.index.pick(rng, total) else {
                break;
            };
            t += dt;
            let executed = state.fire(kernel, site, chosen, changes);
            debug_assert!(executed, "enabled index held a disabled reaction");
            for &(z, _, _) in changes.iter() {
                self.index
                    .refresh_around(kernel, &state.lattice, z, in_block);
            }
            hook.on_event(Event {
                time: t,
                site,
                reaction: chosen,
                executed: true,
            });
            events += 1;
        }
        events
    }

    /// Run one whole window (index `w`); returns executed events.
    fn run_window(
        &mut self,
        kernel: &mut SiteKernel,
        state: &mut SimState,
        w: u64,
        hook: &mut impl EventHook,
    ) -> u64 {
        let mut events = 0;
        let mut changes = Vec::with_capacity(4);
        for slot_idx in 0..self.slots.len() {
            let slot = self.slots[slot_idx];
            let plan = self.plan;
            let (t_lo, t_hi) = (self.time_at(w, slot.lo), self.time_at(w, slot.hi));
            for &block in &plan.groups()[slot.group] {
                let mut rng = self.stream(w, slot_idx, block);
                events += self.run_block_slot(
                    kernel,
                    state,
                    &mut rng,
                    block,
                    t_lo,
                    t_hi,
                    &mut changes,
                    hook,
                );
            }
        }
        // The window boundary is the checkpoint seam: the clock is a pure
        // function of the window index, never of the event history.
        state.time = self.time_at(w + 1, 0.0);
        events
    }

    /// Advance by `windows` whole windows, recording coverage at each
    /// window boundary.
    pub fn run_windows(
        &mut self,
        state: &mut SimState,
        windows: u64,
        mut recorder: Option<&mut Recorder>,
        hook: &mut impl EventHook,
    ) -> RunStats {
        // Detached while running so the window methods can borrow `self`.
        let mut slot = self.kernel.take();
        let kernel = SiteKernel::bind(
            &mut slot,
            &self.compiled,
            &state.lattice,
            state.mutation_epoch(),
        );
        let mut stats = RunStats::default();
        for _ in 0..windows {
            let w = self.next_window;
            let events = self.run_window(kernel, state, w, hook);
            self.next_window += 1;
            stats.trials += events;
            stats.executed += events;
            if let Some(rec) = recorder.as_deref_mut() {
                rec.record(state.time, &state.coverage);
            }
        }
        debug_assert!(kernel.matches_scan(self.model, &state.lattice));
        self.kernel = slot;
        stats
    }

    /// Run whole windows until the clock reaches `t_end` (the final window
    /// may overshoot: windows are never split).
    pub fn run_until(
        &mut self,
        state: &mut SimState,
        t_end: f64,
        mut recorder: Option<&mut Recorder>,
        hook: &mut impl EventHook,
    ) -> RunStats {
        let mut stats = RunStats::default();
        while state.time < t_end {
            stats += self.run_windows(state, 1, recorder.as_deref_mut(), hook);
        }
        if let Some(rec) = recorder {
            rec.record(t_end, &state.coverage);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_dmc::events::NoHook;
    use psr_lattice::Lattice;
    use psr_model::library::zgb::zgb_ziff;
    use psr_model::ModelBuilder;

    #[test]
    fn squarest_grid_factorisations() {
        assert_eq!(squarest_grid(1), (1, 1));
        assert_eq!(squarest_grid(2), (2, 1));
        assert_eq!(squarest_grid(4), (2, 2));
        assert_eq!(squarest_grid(6), (3, 2));
        assert_eq!(squarest_grid(7), (7, 1));
        assert_eq!(squarest_grid(16), (4, 4));
    }

    #[test]
    fn schedule_round_trips_through_strings() {
        for s in [Schedule::Lie, Schedule::Strang] {
            assert_eq!(s.to_string().parse::<Schedule>().unwrap(), s);
        }
        assert!("trotter".parse::<Schedule>().is_err());
    }

    #[test]
    fn plan_validates_divisibility_and_radius() {
        let dims = Dims::square(20);
        assert!(SplitPlan::new(dims, 3, 2, 1)
            .unwrap_err()
            .contains("divide"));
        assert!(SplitPlan::new(dims, 2, 3, 1)
            .unwrap_err()
            .contains("divide"));
        assert!(SplitPlan::new(dims, 10, 10, 1)
            .unwrap_err()
            .contains("too small"));
        assert!(SplitPlan::new(dims, 0, 2, 1).is_err());
        let plan = SplitPlan::new(dims, 2, 2, 1).expect("valid");
        assert_eq!(plan.num_blocks(), 4);
        assert_eq!(plan.grid(), (2, 2));
    }

    #[test]
    fn moore_coloring_groups_are_independent_sets() {
        for (gx, gy) in [(1, 1), (2, 1), (2, 2), (3, 3), (4, 4), (5, 3), (8, 8)] {
            let groups = moore_coloring(gx, gy);
            let blocks: usize = groups.iter().map(Vec::len).sum();
            assert_eq!(blocks, gx * gy, "{gx}x{gy}: every block coloured once");
            for group in &groups {
                for (i, &a) in group.iter().enumerate() {
                    for &b in &group[i + 1..] {
                        let (ax, ay) = (a % gx, a / gx);
                        let (bx, by) = (b % gx, b / gx);
                        let ddx = (ax as i64 - bx as i64).rem_euclid(gx as i64);
                        let ddy = (ay as i64 - by as i64).rem_euclid(gy as i64);
                        let adjacent_x = ddx <= 1 || ddx == gx as i64 - 1;
                        let adjacent_y = ddy <= 1 || ddy == gy as i64 - 1;
                        assert!(
                            !(adjacent_x && adjacent_y),
                            "{gx}x{gy}: same-group blocks {a} and {b} are Moore-adjacent"
                        );
                    }
                }
            }
        }
        // The degenerate grids: fully-connected tori fall to singletons.
        assert_eq!(moore_coloring(1, 1), vec![vec![0]]);
        assert_eq!(moore_coloring(2, 2).len(), 4);
    }

    #[test]
    fn strang_slot_table_is_palindromic() {
        let slots = slot_table(Schedule::Strang, 4);
        assert_eq!(slots.len(), 7);
        let order: Vec<usize> = slots.iter().map(|s| s.group).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 2, 1, 0]);
        // Every group integrates exactly one whole window of its own clock.
        let mut share = [0.0; 4];
        for s in &slots {
            share[s.group] += s.hi - s.lo;
        }
        assert!(share.iter().all(|&x| (x - 1.0).abs() < 1e-12));
        // One group degenerates to plain Lie.
        assert_eq!(slot_table(Schedule::Strang, 1).len(), 1);
    }

    fn run(schedule: Schedule, window: f64, seed: u64, windows: u64) -> (Lattice, f64) {
        let model = zgb_ziff(0.5, 4.0);
        let dims = Dims::square(12);
        let plan = SplitPlan::new(dims, 2, 2, model.interaction_radius()).expect("plan");
        let mut state = SimState::new(Lattice::filled(dims, 0), &model);
        let mut exec = FractionalStepKmc::new(&model, &plan, schedule, window, seed);
        let stats = exec.run_windows(&mut state, windows, None, &mut NoHook);
        assert!(stats.executed > 0, "no events executed");
        assert!(state.coverage.matches(&state.lattice), "coverage diverged");
        (state.lattice.clone(), state.time)
    }

    #[test]
    fn window_boundaries_are_pure_functions_of_the_window_index() {
        let (_, t) = run(Schedule::Strang, 0.25, 7, 8);
        assert_eq!(t.to_bits(), (0.25f64 * 8.0).to_bits());
    }

    #[test]
    fn resume_from_a_window_boundary_is_bit_identical() {
        let model = zgb_ziff(0.5, 4.0);
        let dims = Dims::square(12);
        let plan = SplitPlan::new(dims, 2, 2, model.interaction_radius()).expect("plan");
        for schedule in [Schedule::Lie, Schedule::Strang] {
            let mut whole = SimState::new(Lattice::filled(dims, 0), &model);
            FractionalStepKmc::new(&model, &plan, schedule, 0.2, 9).run_windows(
                &mut whole,
                10,
                None,
                &mut NoHook,
            );

            let mut split = SimState::new(Lattice::filled(dims, 0), &model);
            let mut first = FractionalStepKmc::new(&model, &plan, schedule, 0.2, 9);
            first.run_windows(&mut split, 4, None, &mut NoHook);
            // A brand-new executor positioned at window 4 — everything it
            // needs is (lattice, window index).
            let mut second = FractionalStepKmc::new(&model, &plan, schedule, 0.2, 9);
            second.set_start_window(4);
            second.run_windows(&mut split, 6, None, &mut NoHook);

            assert_eq!(whole.lattice, split.lattice, "{schedule}: resume diverged");
            assert_eq!(whole.time.to_bits(), split.time.to_bits());
        }
    }

    #[test]
    fn frozen_blocks_defer_but_do_not_lose_events() {
        // Pure adsorption: every site must fill exactly once even though
        // each block only runs in its own fractional steps.
        let model = ModelBuilder::new(&["*", "A"])
            .reaction("ads", 5.0, |r| {
                r.site((0, 0), "*", "A");
            })
            .build();
        let dims = Dims::square(8);
        let plan = SplitPlan::new(dims, 2, 2, 1).expect("plan");
        let mut state = SimState::new(Lattice::filled(dims, 0), &model);
        let mut exec = FractionalStepKmc::new(&model, &plan, Schedule::Strang, 0.5, 3);
        exec.run_windows(&mut state, 20, None, &mut NoHook);
        assert_eq!(state.coverage.count(1), 64, "every site adsorbed once");
    }
}
