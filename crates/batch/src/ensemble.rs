//! Ensemble driving: lockstep `run_until` loops and batched observables.
//!
//! [`run_lockstep`] replicates, per slot, the block loop every production
//! replica runs (`while time < t_end { run_blocks(block); sample }`):
//! each iteration advances every unfinished slot by `block` steps, then
//! samples it; a slot whose clock has passed `t_end` freezes while its
//! batch-mates finish. Because slot streams are independent, the frozen
//! lanes change nothing for the others — the trajectory of slot `r` is a
//! pure function of `seeds[r]`, not of the batch width.
//!
//! [`BatchRateMeter`] is the batched
//! [`RateMeter`](psr_dmc::rate_meter::RateMeter): executed events bucket into fixed windows per slot, and the
//! completed-window count is recovered from the slot's final clock — the
//! single-replica meter rolls windows on every trial, and the last trial's
//! clock *is* the final clock, so the two agree exactly.

use crate::engine::{BatchAlgorithm, BatchHook, BatchSim, LANES};
use psr_lattice::{Dims, Site};
use psr_model::Model;
use psr_stats::TimeSeries;

/// Executed-event windowing for every slot of a batch, producing the same
/// rate series as a per-replica `RateMeter` with one tracked group.
pub struct BatchRateMeter {
    window: f64,
    num_sites: f64,
    /// Reaction index → tracked (single group, like the ZGB CO₂ group).
    tracked: Vec<bool>,
    /// Per slot: executed-event count per window index, grown on demand.
    counts: Vec<Vec<u64>>,
}

impl BatchRateMeter {
    /// Track one `group` of reaction indices over `window`-sized time
    /// windows on a lattice of `num_sites` sites, for `slots` replicas.
    pub fn new(
        num_reactions: usize,
        num_sites: usize,
        window: f64,
        group: &[usize],
        slots: usize,
    ) -> Self {
        assert!(
            window > 0.0 && window.is_finite(),
            "window must be positive"
        );
        assert!(num_sites > 0, "need at least one site");
        let mut tracked = vec![false; num_reactions];
        for &ri in group {
            tracked[ri] = true;
        }
        BatchRateMeter {
            window,
            num_sites: num_sites as f64,
            tracked,
            counts: vec![Vec::new(); slots],
        }
    }

    /// Rate series of one slot: events / site / time per completed window,
    /// timestamped at the window centre — `RateMeter::rate_series`
    /// semantics, with completed windows derived from the slot's final
    /// clock `final_time`.
    pub fn rate_series(&self, slot: usize, final_time: f64) -> TimeSeries {
        let completed = (final_time / self.window) as u64;
        let mut series = TimeSeries::new();
        for w in 0..completed {
            let count = self.counts[slot].get(w as usize).copied().unwrap_or(0);
            let t = (w as f64 + 0.5) * self.window;
            series.push(t, count as f64 / (self.num_sites * self.window));
        }
        series
    }
}

impl BatchHook for BatchRateMeter {
    #[inline]
    fn on_exec(&mut self, slot: usize, time: f64, _site: Site, reaction: usize) {
        if self.tracked[reaction] {
            let w = (time / self.window) as usize;
            let counts = &mut self.counts[slot];
            if counts.len() <= w {
                counts.resize(w + 1, 0);
            }
            counts[w] += 1;
        }
    }
}

/// Advance a fresh batch to `t_end` in `block`-step strides, calling
/// `sample(&sim, slot)` after each stride for every slot that was still
/// running, and return the finished sim for observable extraction.
#[allow(clippy::too_many_arguments)]
pub fn run_lockstep(
    model: &Model,
    dims: Dims,
    algorithm: BatchAlgorithm,
    seeds: &[u64],
    block: u64,
    t_end: f64,
    hook: &mut dyn BatchHook,
    mut sample: impl FnMut(&BatchSim, usize),
) -> BatchSim {
    let mut sim = BatchSim::new(model, dims, algorithm, seeds);
    let slots = sim.slots();
    loop {
        let mut any = false;
        for slot in 0..slots {
            let running = sim.time(slot) < t_end;
            sim.set_active(slot, running);
            any |= running;
        }
        if !any {
            break;
        }
        sim.run_steps(block, hook);
        for slot in 0..slots {
            // The flags set before the stride mark exactly the slots that
            // ran it — those are the ones a single-replica loop samples.
            if sim.is_active(slot) {
                sample(&sim, slot);
            }
        }
    }
    sim
}

/// Drop-in replacement for looping `run_replicas` over a block-driven
/// replica function: replica `i` of `count` is seeded `base_seed + i`,
/// exactly like the sequential-ensemble batches in the validate tier.
pub struct BatchEnsemble<'m> {
    model: &'m Model,
    dims: Dims,
    algorithm: BatchAlgorithm,
    /// Steps per sampling stride.
    pub block: u64,
    /// End of simulated time per replica.
    pub t_end: f64,
}

impl<'m> BatchEnsemble<'m> {
    /// Ensemble of `model` replicas on `dims` under `algorithm`.
    pub fn new(
        model: &'m Model,
        dims: Dims,
        algorithm: BatchAlgorithm,
        block: u64,
        t_end: f64,
    ) -> Self {
        BatchEnsemble {
            model,
            dims,
            algorithm,
            block,
            t_end,
        }
    }

    /// Run `count` replicas seeded `base_seed..base_seed + count` to
    /// `t_end`, sampling every stride, and map each *requested* slot (the
    /// lane padding is skipped) through `finish`.
    pub fn run<T>(
        &self,
        count: u64,
        base_seed: u64,
        hook: &mut dyn BatchHook,
        sample: impl FnMut(&BatchSim, usize),
        mut finish: impl FnMut(&BatchSim, usize) -> T,
    ) -> Vec<T> {
        let seeds: Vec<u64> = (0..count).map(|i| base_seed + i).collect();
        let sim = run_lockstep(
            self.model,
            self.dims,
            self.algorithm.clone(),
            &seeds,
            self.block,
            self.t_end,
            hook,
            sample,
        );
        (0..count as usize).map(|slot| finish(&sim, slot)).collect()
    }

    /// Slot count a `count`-replica batch simulates (padding included) —
    /// what a [`BatchRateMeter`] must be sized for.
    pub fn slots_for(count: u64) -> usize {
        (count as usize).div_ceil(LANES) * LANES
    }
}
