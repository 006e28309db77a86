//! The lockstep core: packed SoA replica state over one shared model.
//!
//! Layout. With `G = ceil(replicas / LANES)` lane groups, per-site state is
//! stored site-major: `cells/codes/masks[(site·G + g)·LANES + lane]`. One
//! `(site, group)` row of masks is 64 contiguous bytes — a single register
//! load in the SIMD sweep — and a row-major sweep streams memory
//! sequentially. Per-slot state (`slot = g·LANES + lane`) is slot-major:
//! RNG words, clocks, trial/executed counters, coverage counts.
//!
//! RNG. Each slot carries the state/increment words of the `psr-rng` Pcg32
//! seeded exactly like a single replica (`rng_from_seed(seed_r)`). The hot
//! loop advances the packed words with an inlined copy of the generator
//! (pinned to the real one by a test); cold per-step draws (sweep shuffles,
//! chunk selections) round-trip through a reconstructed [`SimRng`] and the
//! *same library functions* the single-replica algorithms call, so every
//! slot consumes its stream in the identical order.

use std::sync::Arc;

use psr_ca::pndca::ChunkSelection;
use psr_ca::propensity::draw_weighted;
use psr_ca::Partition;
use psr_kernel::{count_diff, group_weights, CompiledModel};
use psr_lattice::{Dims, Lattice, Offset, Site};
use psr_model::Model;
use psr_rng::sample::shuffle;
use psr_rng::{rng_from_seed, AliasTable, SimRng};

/// Replica lanes per group: one AVX-512 register of 64-bit lanes.
pub const LANES: usize = 8;

/// PCG-XSH-RR 64/32 multiplier (O'Neill, public domain), replicated from
/// `psr-rng` so the lockstep loop can advance packed states without
/// round-tripping through `Pcg32` structs. `pcg_inline_matches_pcg32`
/// pins this replica to the real generator.
pub(crate) const PCG_MULT: u64 = 6364136223846793005;
/// Two-LCG-step multiplier: one 64-bit draw consumes two 32-bit outputs.
pub(crate) const PCG_MULT_SQ: u64 = PCG_MULT.wrapping_mul(PCG_MULT);

/// XSH-RR output permutation of one LCG state word.
#[inline(always)]
pub(crate) fn pcg_permute(state: u64) -> u32 {
    let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
    let rot = (state >> 59) as u32;
    xorshifted.rotate_right(rot)
}

/// One 64-bit draw: two consecutive 32-bit outputs, low word first,
/// advancing the LCG by two steps in one fused update — bit-identical to
/// `Pcg32::next_u64`.
#[inline(always)]
pub(crate) fn pcg_next_u64(state: &mut u64, inc: u64) -> u64 {
    let s0 = *state;
    let s1 = s0.wrapping_mul(PCG_MULT).wrapping_add(inc);
    *state = s0
        .wrapping_mul(PCG_MULT_SQ)
        .wrapping_add(PCG_MULT.wrapping_add(1).wrapping_mul(inc));
    let lo = pcg_permute(s0) as u64;
    let hi = pcg_permute(s1) as u64;
    (hi << 32) | lo
}

/// Alias-table draw on packed RNG words — bit-identical to
/// [`AliasTable::sample`]: low 32 bits pick the bucket (Lemire reduction
/// with exact rejection), the *first* draw's high 32 bits decide accept vs
/// alias even when the bucket is redrawn.
#[inline(always)]
pub(crate) fn alias_sample_raw(entries: &[u64], state: &mut u64, inc: u64) -> usize {
    let n = entries.len() as u64;
    let x = pcg_next_u64(state, inc);
    let accept_bits = x >> 32;
    let mut m = (x & 0xFFFF_FFFF) * n;
    let mut lo = m & 0xFFFF_FFFF;
    if lo < n {
        let t = ((1u64 << 32) - n) % n;
        while lo < t {
            m = (pcg_next_u64(state, inc) & 0xFFFF_FFFF) * n;
            lo = m & 0xFFFF_FFFF;
        }
    }
    let i = (m >> 32) as usize;
    let e = entries[i];
    let a = (e >> 32) as usize;
    let accept = (accept_bits < (e & 0xFFFF_FFFF)) as usize;
    a ^ ((i ^ a) & accept.wrapping_neg())
}

/// Flat index of `(site, group, lane)` in the group-major SoA arrays: one
/// `(group, site)` row is `LANES` contiguous entries (the masks row is one
/// 64-byte register load), and a group's row-major sweep streams memory
/// sequentially.
#[inline(always)]
pub(crate) fn soa_index(site: usize, n_sites: usize, g: usize, lane: usize) -> usize {
    (g * n_sites + site) * LANES + lane
}

/// Rebuild a [`SimRng`] from packed words for cold library draws.
#[inline]
fn unpack_rng(state: u64, inc: u64) -> SimRng {
    SimRng::from_state([state, inc]).expect("packed rng increment is odd by construction")
}

/// Which single-replica algorithm the batch replicates, trial for trial.
#[derive(Clone, Debug)]
pub enum BatchAlgorithm {
    /// [`psr_ca::Ndca`] with discretized time.
    Ndca {
        /// Shuffle the site order each step instead of row-major sweeps.
        shuffled: bool,
    },
    /// [`psr_ca::Pndca`] with discretized time.
    Pndca {
        /// Lattice partition (shared by every replica).
        partition: Partition,
        /// Chunk-selection strategy.
        selection: ChunkSelection,
    },
}

/// Observer of executed events, the batch analogue of
/// [`EventHook`](psr_dmc::events::EventHook).
///
/// Only *executed* trials are reported: for windowed metering (the only
/// hook the ensemble tier uses) failed trials carry no information beyond
/// the clock, and each slot's final clock is available from the sim.
pub trait BatchHook {
    /// An executed reaction in `slot` at post-increment clock `time`.
    fn on_exec(&mut self, slot: usize, time: f64, site: Site, reaction: usize);
}

/// A hook that ignores every event.
pub struct NoBatchHook;

impl BatchHook for NoBatchHook {
    #[inline(always)]
    fn on_exec(&mut self, _slot: usize, _time: f64, _site: Site, _reaction: usize) {}
}

/// Dispatch shape of one batch step, resolved at construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StepKind {
    NdcaRowMajor,
    NdcaShuffled,
    Pndca(ChunkSelection),
}

/// A batch of replicas of one model advancing in lockstep.
///
/// Construction pads the replica count up to a multiple of [`LANES`]; the
/// padding slots simulate normally (re-running the last seeds) but are
/// excluded from [`replicas`](Self::replicas)-indexed reporting.
pub struct BatchSim {
    dims: Dims,
    kind: StepKind,
    pub(crate) n_sites: usize,
    num_states: usize,
    num_cells: usize,
    num_reactions: usize,
    pub(crate) groups: usize,
    replicas: usize,
    /// Time per trial, `1/(N·K)` — the discretized NDCA/PNDCA clock.
    pub(crate) dt: f64,
    // --- shared read-only tables (one copy across all replicas) ---
    /// Packed alias buckets, copied from [`AliasTable::entries`].
    pub(crate) alias_entries: Vec<u64>,
    /// `anchors[site·C + j]` = flat index of `site − cells[j]`.
    anchors: Vec<u32>,
    /// Base-S digit weight of each stencil cell.
    cell_weights: Vec<u32>,
    /// code → enabled-reaction mask.
    pub(crate) lut_mask: Vec<u64>,
    /// Rate constant per reaction (weighted chunk selection).
    rates: Vec<f64>,
    /// Flattened transforms `(offset id, target species)` of all reactions;
    /// offset ids index the deduplicated transform-offset list.
    exec_tf: Vec<(u32, u8)>,
    /// Transform range of each reaction within `exec_tf`.
    exec_range: Vec<(u32, u32)>,
    /// `exec_targets[site·O + oid]` = flat index of `site + offsets[oid]`,
    /// precomputed so `execute` never pays `Dims::translate`'s div/mod.
    exec_targets: Vec<u32>,
    /// Number of distinct transform offsets `O`.
    num_exec_offsets: usize,
    // --- partition tables (PNDCA only) ---
    /// Chunk site lists, concatenated in chunk order.
    chunk_sites: Vec<u32>,
    /// Site range of each chunk within `chunk_sites`.
    chunk_range: Vec<(u32, u32)>,
    /// Chunk index of each site.
    chunk_of: Vec<u32>,
    /// Maintain per-chunk enabled counts (WeightedByRates only).
    weighted: bool,
    // --- per-replica SoA state, site-major ---
    pub(crate) cells: Vec<u8>,
    pub(crate) codes: Vec<u32>,
    pub(crate) masks: Vec<u64>,
    // --- per-slot state ---
    pub(crate) rng_state: Vec<u64>,
    pub(crate) rng_inc: Vec<u64>,
    pub(crate) time: Vec<f64>,
    pub(crate) trials: Vec<u64>,
    pub(crate) executed: Vec<u64>,
    pub(crate) active: Vec<bool>,
    /// `coverage[slot·num_states + s]` = sites of species `s`.
    coverage: Vec<u64>,
    /// `counts[(slot·chunks + c)·R + m]` = chunk-`c` sites with reaction
    /// `m` enabled: per slot, the counts a single replica's kernel keeps
    /// (`SiteKernel::attach_counts`), moved by the same [`count_diff`].
    prop_counts: Vec<u32>,
    // --- scratch ---
    orders: Vec<u32>,
    weights_scratch: Vec<f64>,
    chunk_pick: Vec<u32>,
    pub(crate) use_simd: bool,
}

impl BatchSim {
    /// Batch over the all-vacant initial lattice (what
    /// `Simulator::into_session` starts from), one replica per seed.
    pub fn new(model: &Model, dims: Dims, algorithm: BatchAlgorithm, seeds: &[u64]) -> Self {
        Self::with_initial(model, &Lattice::filled(dims, 0), algorithm, seeds)
    }

    /// Batch with an explicit shared initial lattice.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty, the model cannot be LUT-compiled, or a
    /// PNDCA partition does not match `lattice`'s dimensions.
    pub fn with_initial(
        model: &Model,
        lattice: &Lattice,
        algorithm: BatchAlgorithm,
        seeds: &[u64],
    ) -> Self {
        assert!(!seeds.is_empty(), "batch needs at least one replica seed");
        psr_kernel::require_masks(model.num_reactions()).unwrap_or_else(|e| panic!("{e}"));
        let compiled = Arc::new(CompiledModel::compile(model));
        assert!(
            compiled.has_lut(),
            "batch engine requires the LUT kernel path"
        );
        let dims = lattice.dims();
        let n = lattice.len();
        let c = compiled.cells().len();

        // Neighbor/anchor tables, built exactly like `SiteKernel::new`.
        let mut neighbors = vec![0u32; n * c];
        let mut anchors = vec![0u32; n * c];
        let wrap = lattice.wrap_tables();
        for (j, &offset) in compiled.cells().iter().enumerate() {
            let back = offset.negated();
            if wrap.covers(offset) && wrap.covers(back) {
                let mut site = 0usize;
                for y in 0..dims.height() {
                    for x in 0..dims.width() {
                        neighbors[site * c + j] = wrap.translate_xy(x, y, offset).0;
                        anchors[site * c + j] = wrap.translate_xy(x, y, back).0;
                        site += 1;
                    }
                }
            } else {
                for site in dims.iter_sites() {
                    neighbors[site.0 as usize * c + j] = dims.translate(site, offset).0;
                    anchors[site.0 as usize * c + j] = dims.translate(site, back).0;
                }
            }
        }
        let cell_weights: Vec<u32> = (0..c).map(|j| compiled.weight(j)).collect();
        let lut_mask = compiled
            .lut_masks()
            .expect("has_lut checked above")
            .to_vec();

        let alias = AliasTable::new(&model.rate_weights());
        let num_reactions = model.num_reactions();
        let rates: Vec<f64> = (0..num_reactions)
            .map(|r| model.reaction(r).rate())
            .collect();
        let mut exec_offsets: Vec<Offset> = Vec::new();
        let mut exec_tf = Vec::new();
        let mut exec_range = Vec::with_capacity(num_reactions);
        for r in 0..num_reactions {
            let start = exec_tf.len() as u32;
            for t in model.reaction(r).transforms() {
                let oid = exec_offsets
                    .iter()
                    .position(|&o| o == t.offset)
                    .unwrap_or_else(|| {
                        exec_offsets.push(t.offset);
                        exec_offsets.len() - 1
                    }) as u32;
                exec_tf.push((oid, t.tgt.id()));
            }
            exec_range.push((start, exec_tf.len() as u32));
        }
        // Per-site transform targets, via the same `Dims::translate` that
        // `ReactionType::execute` calls — identical wrapping by definition.
        let num_exec_offsets = exec_offsets.len();
        let mut exec_targets = vec![0u32; n * num_exec_offsets];
        for site in dims.iter_sites() {
            for (oid, &offset) in exec_offsets.iter().enumerate() {
                exec_targets[site.0 as usize * num_exec_offsets + oid] =
                    dims.translate(site, offset).0;
            }
        }

        let (kind, chunk_sites, chunk_range, chunk_of, weighted) = match &algorithm {
            BatchAlgorithm::Ndca { shuffled: false } => (
                StepKind::NdcaRowMajor,
                Vec::new(),
                Vec::new(),
                Vec::new(),
                false,
            ),
            BatchAlgorithm::Ndca { shuffled: true } => (
                StepKind::NdcaShuffled,
                Vec::new(),
                Vec::new(),
                Vec::new(),
                false,
            ),
            BatchAlgorithm::Pndca {
                partition,
                selection,
            } => {
                assert_eq!(partition.dims(), dims, "partition/lattice dims differ");
                let mut sites = Vec::with_capacity(n);
                let mut range = Vec::with_capacity(partition.num_chunks());
                for ci in 0..partition.num_chunks() {
                    let start = sites.len() as u32;
                    sites.extend(partition.chunk(ci).iter().map(|s| s.0));
                    range.push((start, sites.len() as u32));
                }
                let of = partition.chunk_labels().to_vec();
                let weighted = *selection == ChunkSelection::WeightedByRates;
                (StepKind::Pndca(*selection), sites, range, of, weighted)
            }
        };

        let replicas = seeds.len();
        let groups = replicas.div_ceil(LANES);
        let slots = groups * LANES;
        let num_states = (compiled.num_states() as usize).max(1);

        // Per-site shared seed values: one scan, broadcast to every lane.
        let mut base_codes = vec![0u32; n];
        let mut base_masks = vec![0u64; n];
        let lattice_cells = lattice.cells();
        for site in 0..n {
            let mut code = 0u32;
            for (j, &w) in cell_weights.iter().enumerate() {
                code += w * u32::from(lattice_cells[neighbors[site * c + j] as usize]);
            }
            base_codes[site] = code;
            base_masks[site] = lut_mask[code as usize];
        }
        let mut cells = vec![0u8; n * slots];
        let mut codes = vec![0u32; n * slots];
        let mut masks = vec![0u64; n * slots];
        for g in 0..groups {
            for site in 0..n {
                let row = soa_index(site, n, g, 0);
                cells[row..row + LANES].fill(lattice_cells[site]);
                codes[row..row + LANES].fill(base_codes[site]);
                masks[row..row + LANES].fill(base_masks[site]);
            }
        }

        let mut base_cov = vec![0u64; num_states];
        for &v in lattice_cells {
            base_cov[v as usize] += 1;
        }
        let mut coverage = vec![0u64; slots * num_states];
        for slot in 0..slots {
            coverage[slot * num_states..(slot + 1) * num_states].copy_from_slice(&base_cov);
        }

        let prop_counts = if weighted {
            let chunks = chunk_range.len();
            let mut base = vec![0u32; chunks * num_reactions];
            for (&chunk, &mask) in chunk_of.iter().zip(&base_masks) {
                count_diff(&mut base, num_reactions, chunk, 0, mask);
            }
            let mut counts = vec![0u32; slots * chunks * num_reactions];
            for slot in 0..slots {
                let at = slot * chunks * num_reactions;
                counts[at..at + chunks * num_reactions].copy_from_slice(&base);
            }
            counts
        } else {
            Vec::new()
        };

        let mut rng_state = vec![0u64; slots];
        let mut rng_inc = vec![0u64; slots];
        for slot in 0..slots {
            // Padding slots re-run the tail seeds; they are simulated but
            // never reported.
            let seed = seeds[slot.min(replicas - 1)];
            let words = rng_from_seed(seed).state();
            rng_state[slot] = words[0];
            rng_inc[slot] = words[1];
        }

        let use_simd = kind == StepKind::NdcaRowMajor && Self::simd_available(alias.len(), groups);

        BatchSim {
            dims,
            kind,
            n_sites: n,
            num_states,
            num_cells: c,
            num_reactions,
            groups,
            replicas,
            dt: 1.0 / (n as f64 * model.total_rate()),
            alias_entries: alias.entries().to_vec(),
            anchors,
            cell_weights,
            lut_mask,
            rates,
            exec_tf,
            exec_range,
            exec_targets,
            num_exec_offsets,
            chunk_sites,
            chunk_range,
            chunk_of,
            weighted,
            cells,
            codes,
            masks,
            rng_state,
            rng_inc,
            time: vec![0.0; slots],
            trials: vec![0; slots],
            executed: vec![0; slots],
            active: vec![true; slots],
            coverage,
            prop_counts,
            orders: Vec::new(),
            weights_scratch: Vec::new(),
            chunk_pick: Vec::new(),
            use_simd,
        }
    }

    #[cfg(target_arch = "x86_64")]
    fn simd_available(alias_len: usize, groups: usize) -> bool {
        alias_len <= LANES
            && groups <= crate::simd::MAX_GROUPS
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn simd_available(_alias_len: usize, _groups: usize) -> bool {
        false
    }

    /// Force the scalar lockstep path even where AVX-512 is available
    /// (benchmark arms and scalar-vs-SIMD equality tests).
    pub fn set_simd(&mut self, enable: bool) {
        self.use_simd = enable
            && self.kind == StepKind::NdcaRowMajor
            && Self::simd_available(self.alias_entries.len(), self.groups);
    }

    /// Whether the SIMD sweep is in use.
    pub fn simd_active(&self) -> bool {
        self.use_simd
    }

    /// Requested replica count (excludes lane padding).
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Total simulated slots (replicas padded to a multiple of [`LANES`]).
    pub fn slots(&self) -> usize {
        self.groups * LANES
    }

    /// Lattice geometry shared by every replica.
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Simulated clock of one slot.
    pub fn time(&self, slot: usize) -> f64 {
        self.time[slot]
    }

    /// Trials taken by one slot.
    pub fn trials(&self, slot: usize) -> u64 {
        self.trials[slot]
    }

    /// Executed events of one slot.
    pub fn executed(&self, slot: usize) -> u64 {
        self.executed[slot]
    }

    /// Packed `[state, inc]` RNG words of one slot.
    pub fn rng_words(&self, slot: usize) -> [u64; 2] {
        [self.rng_state[slot], self.rng_inc[slot]]
    }

    /// Freeze or thaw one slot. Frozen slots take no trials, draw no
    /// randomness, and advance no clock — the lockstep analogue of a
    /// replica whose `run_until` loop has ended.
    pub fn set_active(&mut self, slot: usize, active: bool) {
        self.active[slot] = active;
    }

    /// Whether a slot is currently thawed.
    pub fn is_active(&self, slot: usize) -> bool {
        self.active[slot]
    }

    /// Species fraction in one slot — `Coverage::fraction` semantics.
    pub fn coverage_fraction(&self, slot: usize, species: usize) -> f64 {
        self.coverage[slot * self.num_states + species] as f64 / self.n_sites as f64
    }

    /// Per-species site counts of one slot (allocation-free sampling:
    /// batched observables read these counters, never a histogram buffer).
    pub fn coverage_counts(&self, slot: usize) -> &[u64] {
        &self.coverage[slot * self.num_states..(slot + 1) * self.num_states]
    }

    /// Materialise one slot's lattice (test/diagnostic path).
    pub fn lattice_of(&self, slot: usize) -> Lattice {
        let g = slot / LANES;
        let l = slot % LANES;
        let mut lattice = Lattice::filled(self.dims, 0);
        for site in 0..self.n_sites {
            lattice.set(
                Site(site as u32),
                self.cells[soa_index(site, self.n_sites, g, l)],
            );
        }
        lattice
    }

    /// Advance every active slot by `steps` lockstep CA steps (each step
    /// visits all N sites once per slot, exactly like the single-replica
    /// algorithms).
    pub fn run_steps(&mut self, steps: u64, hook: &mut dyn BatchHook) {
        for _ in 0..steps {
            match self.kind {
                StepKind::NdcaRowMajor => {
                    #[cfg(target_arch = "x86_64")]
                    if self.use_simd {
                        // SAFETY: `use_simd` is only set after runtime
                        // detection of avx512f + avx512dq.
                        unsafe { crate::simd::step_ndca_rowmajor(self, hook) };
                        continue;
                    }
                    self.step_ndca_rowmajor(hook);
                }
                StepKind::NdcaShuffled => self.step_ndca_shuffled(hook),
                StepKind::Pndca(selection) => self.step_pndca(selection, hook),
            }
        }
    }

    /// One row-major NDCA sweep, scalar lockstep.
    fn step_ndca_rowmajor(&mut self, hook: &mut dyn BatchHook) {
        let n = self.n_sites;
        for site in 0..n {
            for g in 0..self.groups {
                for l in 0..LANES {
                    if self.active[g * LANES + l] {
                        self.trial(g, l, site, hook);
                    }
                }
            }
        }
        self.bump_trials(n as u64);
    }

    /// One shuffled-order NDCA sweep: each lane shuffles its own identity
    /// permutation from its own stream, exactly like `SweepOrder::Shuffled`.
    fn step_ndca_shuffled(&mut self, hook: &mut dyn BatchHook) {
        let n = self.n_sites;
        let slots = self.slots();
        if self.orders.len() != slots * n {
            self.orders = vec![0u32; slots * n];
        }
        for slot in 0..slots {
            if !self.active[slot] {
                continue;
            }
            let mut rng = unpack_rng(self.rng_state[slot], self.rng_inc[slot]);
            let order = &mut self.orders[slot * n..(slot + 1) * n];
            for (i, v) in order.iter_mut().enumerate() {
                *v = i as u32;
            }
            shuffle(&mut rng, order);
            self.rng_state[slot] = rng.state()[0];
        }
        for pos in 0..n {
            for g in 0..self.groups {
                for l in 0..LANES {
                    let slot = g * LANES + l;
                    if self.active[slot] {
                        let site = self.orders[slot * n + pos] as usize;
                        self.trial(g, l, site, hook);
                    }
                }
            }
        }
        self.bump_trials(n as u64);
    }

    /// One PNDCA step: `m` chunk sweeps per slot, chunk choice per the
    /// selection strategy, each drawn from the slot's own stream in the
    /// exact order `Pndca::step` draws them.
    fn step_pndca(&mut self, selection: ChunkSelection, hook: &mut dyn BatchHook) {
        let m = self.chunk_range.len();
        let slots = self.slots();
        if selection == ChunkSelection::RandomOrder {
            if self.orders.len() != slots * m {
                self.orders = vec![0u32; slots * m];
            }
            for slot in 0..slots {
                if !self.active[slot] {
                    continue;
                }
                let mut rng = unpack_rng(self.rng_state[slot], self.rng_inc[slot]);
                let order = &mut self.orders[slot * m..(slot + 1) * m];
                for (i, v) in order.iter_mut().enumerate() {
                    *v = i as u32;
                }
                shuffle(&mut rng, order);
                self.rng_state[slot] = rng.state()[0];
            }
        }
        if self.chunk_pick.len() != slots {
            self.chunk_pick = vec![0u32; slots];
        }
        for round in 0..m {
            for slot in 0..slots {
                if !self.active[slot] {
                    continue;
                }
                let chunk = match selection {
                    ChunkSelection::InOrder => round,
                    ChunkSelection::RandomOrder => self.orders[slot * m + round] as usize,
                    ChunkSelection::RandomWithReplacement => {
                        let mut rng = unpack_rng(self.rng_state[slot], self.rng_inc[slot]);
                        let c = rng.index(m);
                        self.rng_state[slot] = rng.state()[0];
                        c
                    }
                    ChunkSelection::WeightedByRates => {
                        self.fill_slot_weights(slot);
                        let mut rng = unpack_rng(self.rng_state[slot], self.rng_inc[slot]);
                        let c = draw_weighted(&mut rng, &self.weights_scratch);
                        self.rng_state[slot] = rng.state()[0];
                        c
                    }
                };
                self.chunk_pick[slot] = chunk as u32;
            }
            let max_len = (0..slots)
                .filter(|&s| self.active[s])
                .map(|s| {
                    let (cs, ce) = self.chunk_range[self.chunk_pick[s] as usize];
                    (ce - cs) as usize
                })
                .max()
                .unwrap_or(0);
            for k in 0..max_len {
                for g in 0..self.groups {
                    for l in 0..LANES {
                        let slot = g * LANES + l;
                        if !self.active[slot] {
                            continue;
                        }
                        let (cs, ce) = self.chunk_range[self.chunk_pick[slot] as usize];
                        if k < (ce - cs) as usize {
                            let site = self.chunk_sites[cs as usize + k] as usize;
                            self.trial(g, l, site, hook);
                        }
                    }
                }
            }
            for slot in 0..slots {
                if self.active[slot] {
                    let (cs, ce) = self.chunk_range[self.chunk_pick[slot] as usize];
                    self.trials[slot] += u64::from(ce - cs);
                }
            }
        }
    }

    /// The chunk weights of one slot, by the single-replica executors'
    /// [`group_weights`] (bit-identical totals).
    fn fill_slot_weights(&mut self, slot: usize) {
        let row = self.chunk_range.len() * self.num_reactions;
        let counts = &self.prop_counts[slot * row..(slot + 1) * row];
        group_weights(
            counts,
            &self.rates,
            0..self.num_reactions,
            &mut self.weights_scratch,
        );
    }

    /// One trial of one slot at `site`: sample → mask test → (execute) →
    /// clock tick → hook, replicating the single-replica trial exactly.
    #[inline(always)]
    pub(crate) fn trial(&mut self, g: usize, l: usize, site: usize, hook: &mut dyn BatchHook) {
        let slot = g * LANES + l;
        let inc = self.rng_inc[slot];
        let mut st = self.rng_state[slot];
        let reaction = alias_sample_raw(&self.alias_entries, &mut st, inc);
        self.rng_state[slot] = st;
        // The enabled check consumes no randomness (same invariant the
        // compiled single-replica kernel relies on).
        let enabled = (self.masks[soa_index(site, self.n_sites, g, l)] >> reaction) & 1 != 0;
        if enabled {
            self.execute(g, l, site, reaction);
        }
        let t = self.time[slot] + self.dt;
        self.time[slot] = t;
        if enabled {
            self.executed[slot] += 1;
            hook.on_exec(slot, t, Site(site as u32), reaction);
        }
    }

    /// Apply one executed reaction in one slot: transforms in declaration
    /// order, each folding its coverage transition and kernel update as it
    /// lands. The single-replica path journals first and folds after
    /// (`SimState::fire` → `SimState::apply_changes` →
    /// `SiteKernel::apply_changes`, whose fold also moves the chunk
    /// counts), but the folds are commuting increments keyed only on each
    /// change's `(old, new)` pair, so fusing them per transform is
    /// bit-identical — and skips the journal allocation.
    pub(crate) fn execute(&mut self, g: usize, l: usize, site: usize, reaction: usize) {
        let ns = self.n_sites;
        let c = self.num_cells;
        let slot = g * LANES + l;
        let lane = g * ns * LANES + l;
        let cov = slot * self.num_states;
        let reactions = self.num_reactions;
        let counts_row = self.chunk_range.len() * reactions;
        let tgt_row = site * self.num_exec_offsets;
        let (start, end) = self.exec_range[reaction];
        for k in start as usize..end as usize {
            let (oid, new) = self.exec_tf[k];
            let target = self.exec_targets[tgt_row + oid as usize] as usize;
            let idx = lane + target * LANES;
            let old = self.cells[idx];
            self.cells[idx] = new;
            if old == new {
                continue;
            }
            self.coverage[cov + old as usize] -= 1;
            self.coverage[cov + new as usize] += 1;
            let nb = target * c;
            for j in 0..c {
                let anchor = self.anchors[nb + j] as usize;
                let w = self.cell_weights[j];
                let delta = w
                    .wrapping_mul(u32::from(new))
                    .wrapping_sub(w.wrapping_mul(u32::from(old)));
                let aidx = lane + anchor * LANES;
                let code = self.codes[aidx].wrapping_add(delta);
                self.codes[aidx] = code;
                let new_mask = self.lut_mask[code as usize];
                let old_mask = self.masks[aidx];
                self.masks[aidx] = new_mask;
                if self.weighted && old_mask != new_mask {
                    let counts = &mut self.prop_counts[slot * counts_row..][..counts_row];
                    count_diff(counts, reactions, self.chunk_of[anchor], old_mask, new_mask);
                }
            }
        }
    }

    /// Credit one sweep's trials to every active slot (NDCA counts trials
    /// per sweep, not per trial; the totals are identical).
    pub(crate) fn bump_trials(&mut self, per_slot: u64) {
        for slot in 0..self.slots() {
            if self.active[slot] {
                self.trials[slot] += per_slot;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcg_inline_matches_pcg32() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
            let mut reference = rng_from_seed(seed);
            let words = reference.state();
            let mut state = words[0];
            let inc = words[1];
            for _ in 0..64 {
                assert_eq!(pcg_next_u64(&mut state, inc), reference.next_u64());
            }
            assert_eq!(state, reference.state()[0]);
        }
    }

    #[test]
    fn alias_inline_matches_alias_table() {
        for weights in [
            vec![1.0, 2.0, 7.0],
            vec![0.5; 7],
            vec![1.0],
            (1..=52).map(f64::from).collect::<Vec<_>>(),
        ] {
            let table = AliasTable::new(&weights);
            let mut reference = rng_from_seed(9);
            let words = reference.state();
            let mut state = words[0];
            let inc = words[1];
            for _ in 0..4096 {
                let want = table.sample(&mut reference);
                let got = alias_sample_raw(table.entries(), &mut state, inc);
                assert_eq!(got, want);
                assert_eq!(state, reference.state()[0]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "MAX_KERNEL_REACTIONS = 64")]
    fn more_reaction_types_than_masks_track_are_rejected() {
        let mut builder = psr_model::ModelBuilder::new(&["*", "A"]);
        for i in 0..=psr_kernel::MAX_KERNEL_REACTIONS {
            builder = builder.reaction(format!("r{i}"), 1.0, |r| {
                r.site((0, 0), "*", "A");
            });
        }
        let algorithm = BatchAlgorithm::Ndca { shuffled: false };
        BatchSim::new(&builder.build(), Dims::square(8), algorithm, &[1, 2]);
    }
}
