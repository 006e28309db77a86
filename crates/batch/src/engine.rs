//! The lockstep core: packed SoA replica state over one shared model.
//!
//! Layout. With `G = ceil(replicas / LANES)` lane groups, per-site state is
//! stored group-major: `cells/codes/masks[(g·n + site)·LANES + lane]` (see
//! `soa_index`). One `(group, site)` row of masks is 64 contiguous bytes:
//! a single register load when every lane visits the same site (row-major
//! NDCA), eight gathered qwords of one group's block otherwise. Per-slot
//! state (`slot = g·LANES + lane`) is slot-major: RNG words, clocks,
//! trial/executed counters, coverage counts, sweep site windows.
//!
//! Sweeps. Every kind runs one position loop over per-slot site windows:
//! the lattice, the slot's shuffled order, or its chunk of a PNDCA round.
//!
//! RNG. Each slot carries the state/increment words of the `psr-rng` Pcg32
//! seeded exactly like a single replica (`rng_from_seed(seed_r)`). The hot
//! loop advances the packed words through `psr-rng`'s own word-level step
//! and alias draw ([`psr_rng::draw_u64`], [`draw_alias`] — what
//! `Pcg32::next_u64` and `AliasTable::sample` are); cold per-step draws (chunk selections, and
//! sweep shuffles off the SIMD path) round-trip through a reconstructed
//! [`SimRng`] and the *same library functions* the single-replica
//! algorithms call, so every slot consumes its stream in the identical
//! order. The SIMD shuffle draws eight lanes' Fisher–Yates indices at once,
//! pinned to [`shuffle`] by a test.
//!
//! Kernel. The shared tables are one [`CompiledModel`] and one [`Stencil`]
//! on the lattice's geometry, the addressing [`SiteKernel`] uses; the
//! initial codes, masks and weighted-selection counts are a `SiteKernel`'s,
//! broadcast to every lane. An executed trial away from the edges applies
//! the kernel's compiled fire ([`Deltas`]) at lane stride: its writes and
//! merged anchor code deltas through [`fold_code`]. In the edge band it
//! writes the reaction's requirements at `stencil.at(site, cell)` and
//! folds every changed cell through [`fold_anchor`], the kernel's own fold
//! step.

use std::sync::Arc;

use psr_ca::pndca::ChunkSelection;
use psr_ca::propensity::draw_weighted;
use psr_ca::Partition;
use psr_kernel::{
    count_diff, fold_anchor, fold_code, group_weights, CompiledModel, Deltas, SiteKernel,
};
use psr_lattice::{Dims, Lattice, Site, Stencil};
use psr_model::Model;
use psr_rng::sample::shuffle;
use psr_rng::{draw_alias, rng_from_seed, AliasTable, SimRng};

/// Replica lanes per group: one AVX-512 register of 64-bit lanes.
pub const LANES: usize = 8;

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
    kind: StepKind,
    pub(crate) n_sites: usize,
    num_states: usize,
    pub(crate) groups: usize,
    replicas: usize,
    /// Time per trial, `1/(N·K)` — the discretized NDCA/PNDCA clock.
    pub(crate) dt: f64,
    // --- shared read-only tables (one copy across all replicas) ---
    /// Stencil cells, requirements, digit weights and rates.
    compiled: Arc<CompiledModel>,
    /// `site + cells[j]` on the shared geometry, as `SiteKernel` addresses.
    stencil: Stencil,
    /// code → enabled-reaction mask (a flat copy of the compiled LUT).
    lut_mask: Vec<u64>,
    /// The kernel's compiled fires on the shared geometry.
    deltas: Deltas,
    /// The reaction-type sampler.
    pub(crate) alias: AliasTable,
    // --- partition tables (PNDCA only) ---
    /// Chunk site lists, concatenated in chunk order.
    chunk_sites: Vec<u32>,
    /// Site range of each chunk within `chunk_sites`.
    chunk_range: Vec<(u32, u32)>,
    /// Chunk index of each site.
    chunk_of: Vec<u32>,
    /// Maintain per-chunk enabled counts (WeightedByRates only).
    weighted: bool,
    // --- per-replica SoA state, group-major (`soa_index`) ---
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
    /// `(base, len)` site window of each slot's current sweep: into
    /// `orders`/`chunk_sites`, or `(0, n)` for row-major NDCA.
    pub(crate) windows: Vec<(u32, u32)>,
    // --- scratch ---
    /// Per-slot shuffled site or chunk orders, `orders[slot·len + i]`.
    pub(crate) orders: Vec<u32>,
    weights_scratch: Vec<f64>,
    pub(crate) use_simd: bool,
}

/// `per_site` in the group-major SoA layout, every lane of every one of
/// `groups` groups starting from the same value.
fn broadcast<T: Copy>(per_site: &[T], groups: usize) -> Vec<T> {
    let row: Vec<T> = per_site.iter().flat_map(|&v| [v; LANES]).collect();
    row.repeat(groups)
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
        let mut kernel = SiteKernel::new(Arc::clone(&compiled), lattice);

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

        // The single-replica kernel's initial state, broadcast to every slot.
        let prop_counts = if weighted {
            kernel.attach_counts(chunk_of.clone(), chunk_range.len());
            kernel.counts(0).repeat(slots)
        } else {
            Vec::new()
        };
        let mut coverage = vec![0u64; num_states];
        for &v in lattice.cells() {
            coverage[v as usize] += 1;
        }

        let mut rng_state = vec![0u64; slots];
        let mut rng_inc = vec![0u64; slots];
        for slot in 0..slots {
            // Padding slots re-run the tail seeds; they are simulated but
            // never reported.
            let seed = seeds[slot.min(replicas - 1)];
            [rng_state[slot], rng_inc[slot]] = rng_from_seed(seed).state();
        }

        // PNDCA sets its windows per chunk round; slot s of shuffled NDCA
        // sweeps its own order, `orders[s·n..]`.
        let shuffled = u32::from(kind == StepKind::NdcaShuffled);
        let windows = (0..slots as u32).map(|s| (s * n as u32 * shuffled, n as u32));
        let alias = AliasTable::new(&model.rate_weights());

        BatchSim {
            kind,
            n_sites: n,
            num_states,
            groups,
            replicas,
            dt: 1.0 / (n as f64 * model.total_rate()),
            stencil: Stencil::new(dims, compiled.cells()),
            deltas: Deltas::new(&compiled, dims).expect("has_lut checked above"),
            lut_mask: compiled
                .lut_masks()
                .expect("has_lut checked above")
                .to_vec(),
            compiled,
            use_simd: Self::simd_available(alias.len()),
            alias,
            chunk_sites,
            chunk_range,
            chunk_of,
            weighted,
            cells: broadcast(lattice.cells(), groups),
            codes: broadcast(kernel.codes(), groups),
            masks: broadcast(kernel.enabled_masks(), groups),
            rng_state,
            rng_inc,
            time: vec![0.0; slots],
            trials: vec![0; slots],
            executed: vec![0; slots],
            active: vec![true; slots],
            coverage: coverage.repeat(slots),
            prop_counts,
            windows: windows.collect(),
            orders: Vec::new(),
            weights_scratch: Vec::new(),
        }
    }

    /// The AVX-512 sweep serves every kind and width; it keeps the alias
    /// table in one register, so it needs `alias_len <= LANES`.
    #[cfg(target_arch = "x86_64")]
    fn simd_available(alias_len: usize) -> bool {
        alias_len <= LANES
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn simd_available(_alias_len: usize) -> bool {
        false
    }

    /// Enable (where available) or force off the AVX-512 sweep for every
    /// kind (benchmark arms and scalar-vs-SIMD equality tests).
    pub fn set_simd(&mut self, enable: bool) {
        self.use_simd = enable && Self::simd_available(self.alias.len());
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
        self.stencil.dims()
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
        let mut lattice = Lattice::filled(self.dims(), 0);
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
                StepKind::NdcaRowMajor => self.sweep(None, hook),
                StepKind::NdcaShuffled => {
                    self.shuffle_orders(self.n_sites);
                    let orders = std::mem::take(&mut self.orders);
                    self.sweep(Some(&orders), hook);
                    self.orders = orders;
                }
                StepKind::Pndca(selection) => self.step_pndca(selection, hook),
            }
        }
    }

    /// One PNDCA step: `m` chunk sweeps per slot, chunk choice per the
    /// selection strategy, each drawn from the slot's own stream in the
    /// exact order `Pndca::step` draws them.
    fn step_pndca(&mut self, selection: ChunkSelection, hook: &mut dyn BatchHook) {
        let m = self.chunk_range.len();
        if selection == ChunkSelection::RandomOrder {
            self.shuffle_orders(m);
        }
        let chunk_sites = std::mem::take(&mut self.chunk_sites);
        for round in 0..m {
            for slot in 0..self.slots() {
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
                let (cs, ce) = self.chunk_range[chunk];
                self.windows[slot] = (cs, ce - cs);
            }
            self.sweep(Some(&chunk_sites), hook);
        }
        self.chunk_sites = chunk_sites;
    }

    /// Reset each active slot's `orders` row to the identity on `0..len`
    /// and shuffle it from the slot's own stream, exactly as [`shuffle`].
    pub(crate) fn shuffle_orders(&mut self, len: usize) {
        let slots = self.slots();
        if self.orders.len() != slots * len {
            self.orders = vec![0u32; slots * len];
        }
        for slot in (0..slots).filter(|&s| self.active[s]) {
            let order = self.orders[slot * len..].iter_mut().take(len);
            order.zip(0..).for_each(|(v, i)| *v = i);
        }
        #[cfg(target_arch = "x86_64")]
        if self.use_simd {
            // SAFETY: `use_simd` is only set after avx512f + avx512dq detection.
            return unsafe { crate::simd::shuffle_orders(self, len) };
        }
        for slot in (0..slots).filter(|&s| self.active[s]) {
            let mut rng = unpack_rng(self.rng_state[slot], self.rng_inc[slot]);
            shuffle(&mut rng, &mut self.orders[slot * len..(slot + 1) * len]);
            self.rng_state[slot] = rng.state()[0];
        }
    }

    /// One lockstep pass over every active slot's site window: at position
    /// `k`, a slot with window `(base, len)` tries site `table[base + k]`
    /// (site `k` without a table) while `k < len`, and is credited `len`
    /// trials. `table` entries are sites (`< n`).
    fn sweep(&mut self, table: Option<&[u32]>, hook: &mut dyn BatchHook) {
        // Credited up front: nothing reads the counters mid-sweep.
        let slots = self.slots();
        for slot in (0..slots).filter(|&s| self.active[s]) {
            self.trials[slot] += u64::from(self.windows[slot].1);
        }
        #[cfg(target_arch = "x86_64")]
        if self.use_simd {
            debug_assert!(table.is_none_or(|t| t.iter().all(|&s| (s as usize) < self.n_sites)));
            for g0 in (0..self.groups).step_by(crate::simd::MAX_GROUPS) {
                let block = g0..self.groups.min(g0 + crate::simd::MAX_GROUPS);
                // SAFETY: `use_simd` is only set after avx512f + avx512dq
                // detection and with `alias.len() <= LANES`; `table`
                // holds sites; `simd::sweep` checks the windows against it.
                unsafe { crate::simd::sweep(self, block, table, hook) };
            }
            return;
        }
        let active = (0..slots).filter(|&s| self.active[s]);
        let longest = active.map(|s| self.windows[s].1).max().unwrap_or(0);
        for k in 0..longest as usize {
            for slot in 0..slots {
                let (base, len) = self.windows[slot];
                if self.active[slot] && k < len as usize {
                    let site = table.map_or(k, |t| t[base as usize + k] as usize);
                    self.trial(slot / LANES, slot % LANES, site, hook);
                }
            }
        }
    }

    /// The chunk weights of one slot, by the single-replica executors'
    /// [`group_weights`] (bit-identical totals).
    fn fill_slot_weights(&mut self, slot: usize) {
        let (rates, out) = (self.compiled.rates(), &mut self.weights_scratch);
        let row = self.chunk_range.len() * rates.len();
        let counts = &self.prop_counts[slot * row..(slot + 1) * row];
        group_weights(counts, rates, 0..rates.len(), out);
    }

    /// One trial of one slot at `site`: sample → mask test → (execute) →
    /// clock tick → hook, replicating the single-replica trial exactly.
    #[inline(always)]
    pub(crate) fn trial(&mut self, g: usize, l: usize, site: usize, hook: &mut dyn BatchHook) {
        let slot = g * LANES + l;
        let inc = self.rng_inc[slot];
        let mut st = self.rng_state[slot];
        let reaction = draw_alias(self.alias.entries(), &mut st, inc);
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

    /// Apply one executed reaction in one slot: `SiteKernel::fire`'s writes
    /// in requirement order, each folding its coverage transition and
    /// kernel update as it lands. The single-replica path journals first
    /// and folds after (`SimState::fire` → `SimState::apply_changes` →
    /// `SiteKernel::apply_changes`, whose fold also moves the chunk
    /// counts), but the folds are commuting increments keyed only on each
    /// change's `(old, new)` pair, so fusing them per write is
    /// bit-identical — and skips the journal allocation.
    pub(crate) fn execute(&mut self, g: usize, l: usize, site: usize, reaction: usize) {
        // One fold loop per flag: the unweighted one never tests it.
        match self.weighted {
            true => self.apply::<true>(g, l, site, reaction),
            false => self.apply::<false>(g, l, site, reaction),
        }
    }

    #[inline(always)]
    fn apply<const WEIGHTED: bool>(&mut self, g: usize, l: usize, site: usize, reaction: usize) {
        let (slot, n) = (g * LANES + l, self.n_sites);
        // This slot's lane of the group's rows: site `s` is at `s·LANES`.
        let lane = g * n * LANES + l;
        let cells = &mut self.cells[lane..];
        let (codes, masks) = (&mut self.codes[lane..], &mut self.masks[lane..]);
        let coverage = &mut self.coverage[slot * self.num_states..][..self.num_states];
        let (compiled, stencil, lut_mask) = (&*self.compiled, &self.stencil, &self.lut_mask[..]);
        let reactions = compiled.num_reactions();
        let row = usize::from(WEIGHTED) * self.chunk_range.len() * reactions;
        let counts = &mut self.prop_counts[slot * row..][..row];
        if let Some((writes, anchors)) = self.deltas.at(Site(site as u32), reaction) {
            // Away from the edges: the kernel's compiled fire, at lane
            // stride.
            for w in writes {
                let at = (site as u32).wrapping_add(w.offset) as usize;
                let old = std::mem::replace(&mut cells[at * LANES], w.tgt);
                coverage[old as usize] -= 1;
                coverage[w.tgt as usize] += 1;
            }
            for a in anchors {
                let anchor = (site as u32).wrapping_add(a.offset) as usize;
                let at = anchor * LANES;
                fold_code(
                    lut_mask,
                    (&mut codes[at], &mut masks[at]),
                    a.delta,
                    WEIGHTED.then_some(|was, now| {
                        count_diff(counts, reactions, self.chunk_of[anchor], was, now)
                    }),
                );
            }
            return;
        }
        let c = compiled.cells().len();
        let at = stencil.locate(Site(site as u32));
        for r in compiled.requirements(reaction) {
            let target = stencil.locate(stencil.at(at, r.cell as usize));
            let new = r.tgt;
            let old = std::mem::replace(&mut cells[target.site().0 as usize * LANES], new);
            if old == new {
                continue;
            }
            coverage[old as usize] -= 1;
            coverage[new as usize] += 1;
            // `target + cells[c − 1 − j]` is the anchor that reads `target`
            // as its cell `j`.
            for &j in compiled.read_cells() {
                let anchor = stencil.at(target, c - 1 - j as usize).0 as usize;
                let a = anchor * LANES;
                fold_anchor(
                    lut_mask,
                    (&mut codes[a], &mut masks[a]),
                    compiled.weight(j as usize),
                    (old, new),
                    WEIGHTED.then_some(|was, now| {
                        count_diff(counts, reactions, self.chunk_of[anchor], was, now)
                    }),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
