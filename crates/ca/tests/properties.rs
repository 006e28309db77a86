//! Property-based tests for partitions and the CA algorithms.

use proptest::prelude::*;
use psr_ca::lpndca::LPndca;
use psr_ca::ndca::Ndca;
use psr_ca::partition::Partition;
use psr_ca::partition_builder::{five_coloring, greedy_coloring, singleton_chunks};
use psr_ca::pndca::{ChunkSelection, Pndca};
use psr_dmc::events::{Event, EventHook};
use psr_dmc::rsm::Rsm;
use psr_dmc::sim::SimState;
use psr_kernel::{CompiledModel, SiteKernel, DEFAULT_LUT_CAP, NO_GROUP};
use psr_lattice::{Dims, Lattice, Site};
use psr_model::library::kuzovkov::{kuzovkov_model, KuzovkovParams};
use psr_model::library::zgb::zgb_ziff;
use psr_model::{Model, ModelBuilder};
use psr_rng::rng_from_seed;
use std::sync::Arc;

struct CountVisits(Vec<u32>);
impl EventHook for CountVisits {
    fn on_event(&mut self, event: Event) {
        self.0[event.site.0 as usize] += 1;
    }
}

/// A random model whose patterns are single sites or von Neumann pairs.
fn model_strategy() -> impl Strategy<Value = Model> {
    prop::collection::vec(
        (
            prop::bool::ANY,                  // pair?
            0u32..4,                          // orientation
            (0u8..3, 0u8..3, 0u8..3, 0u8..3), // src/tgt for both sites
            0.01f64..5.0,
        ),
        1..6,
    )
    .prop_map(|specs| {
        let names = ["*", "A", "B"];
        let mut b = ModelBuilder::new(&names);
        for (i, (pair, orient, (s0, t0, s1, t1), rate)) in specs.into_iter().enumerate() {
            let name = format!("r{i}");
            b = b.reaction(name, rate, |r| {
                r.site((0, 0), names[s0 as usize], names[t0 as usize]);
                if pair {
                    let off = match orient {
                        0 => (1, 0),
                        1 => (0, 1),
                        2 => (-1, 0),
                        _ => (0, -1),
                    };
                    r.site(off, names[s1 as usize], names[t1 as usize]);
                }
            });
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn five_coloring_valid_for_any_von_neumann_model(model in model_strategy()) {
        let p = five_coloring(Dims::square(10));
        prop_assert!(p.is_valid_for(&model));
    }

    #[test]
    fn greedy_coloring_always_valid(
        model in model_strategy(),
        w in 4u32..12,
        h in 4u32..12,
    ) {
        let p = greedy_coloring(Dims::new(w, h), &model);
        prop_assert!(p.is_valid_for(&model), "greedy produced an invalid partition");
    }

    #[test]
    fn singleton_partition_valid_for_everything(model in model_strategy()) {
        let p = singleton_chunks(Dims::square(8));
        prop_assert!(p.is_valid_for(&model));
    }

    #[test]
    fn partition_from_labels_is_a_disjoint_cover(
        labels in prop::collection::vec(0u32..4, 36),
    ) {
        // Densify labels so from_labels accepts them.
        let mut dense = labels.clone();
        let mut map = std::collections::BTreeMap::new();
        for l in &mut dense {
            let next = map.len() as u32;
            *l = *map.entry(*l).or_insert(next);
        }
        let dims = Dims::new(6, 6);
        let p = Partition::from_labels(dims, &dense);
        let total: usize = (0..p.num_chunks()).map(|c| p.chunk(c).len()).sum();
        prop_assert_eq!(total, 36);
        for c in 0..p.num_chunks() {
            for &site in p.chunk(c) {
                prop_assert_eq!(p.chunk_of(site), c);
            }
        }
    }

    #[test]
    fn pndca_step_visits_every_site_once_for_any_model(
        model in model_strategy(),
        seed in 0u64..1000,
    ) {
        let dims = Dims::square(10);
        let p = five_coloring(dims);
        let mut pndca = Pndca::new(&model, &p).with_selection(ChunkSelection::RandomOrder);
        let mut state = SimState::new(Lattice::filled(dims, 0), &model);
        let mut rng = rng_from_seed(seed);
        let mut visits = CountVisits(vec![0; 100]);
        pndca.step(&mut state, &mut rng, &mut visits);
        prop_assert!(visits.0.iter().all(|&v| v == 1));
        prop_assert!(state.coverage.matches(&state.lattice));
    }

    #[test]
    fn pndca_coverage_consistent_after_random_runs(
        model in model_strategy(),
        seed in 0u64..1000,
        steps in 1u64..5,
    ) {
        let dims = Dims::square(10);
        let p = five_coloring(dims);
        let mut pndca = Pndca::new(&model, &p);
        let mut state = SimState::new(Lattice::filled(dims, 0), &model);
        let mut rng = rng_from_seed(seed);
        pndca.run_steps(&mut state, &mut rng, steps, None, &mut psr_dmc::events::NoHook);
        prop_assert!(state.coverage.matches(&state.lattice));
    }
}

/// In LUT and in mask mode: a kernel counting enabled sites per chunk of
/// `partition`, and per chunk of the same partition with every third site
/// a hole (`NO_GROUP`, like a shard's halo cells), folds 300 randomly drawn
/// reactions executed at randomly drawn sites directly on the lattice and
/// still agrees with a recount from the model's own matcher.
fn kernel_counts_match_scan(model: &Model, partition: &Partition, seed: u64) -> bool {
    let chunks = partition.chunk_labels();
    let holey = chunks.iter().enumerate();
    let holey: Vec<u32> = holey
        .map(|(s, &c)| if s % 3 == 0 { NO_GROUP } else { c })
        .collect();
    [DEFAULT_LUT_CAP, 0].into_iter().all(|cap| {
        let mut lattice = Lattice::filled(partition.dims(), 0);
        let compiled = CompiledModel::compile_with_cap(model, cap);
        let mut kernel = SiteKernel::new(Arc::new(compiled), &lattice);
        kernel.attach_counts(chunks.to_vec(), partition.num_chunks());
        kernel.attach_counts(holey.clone(), partition.num_chunks());
        let mut rng = rng_from_seed(seed);
        let mut changes = Vec::new();
        for _ in 0..300 {
            let ri = rng.index(model.num_reactions());
            let site = Site(rng.index(lattice.len()) as u32);
            changes.clear();
            if model
                .reaction(ri)
                .try_execute(&mut lattice, site, &mut changes)
            {
                kernel.apply_changes(&lattice, &changes);
            }
        }
        kernel.assert_matches_scan(model, &lattice);
        kernel.matches_scan(model, &lattice)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn propensity_cache_matches_scan_on_zgb(seed in 0u64..1000) {
        let model = zgb_ziff(0.45, 5.0);
        let p = five_coloring(Dims::square(10));
        prop_assert!(kernel_counts_match_scan(&model, &p, seed));
    }

    #[test]
    fn propensity_cache_matches_scan_on_kuzovkov(seed in 0u64..1000) {
        // Kuzovkov has phase-transformation reactions with larger
        // neighborhoods than ZGB — a harder stencil test.
        let model = kuzovkov_model(KuzovkovParams::default());
        let p = greedy_coloring(Dims::new(9, 7), &model);
        prop_assert!(kernel_counts_match_scan(&model, &p, seed));
    }
}

/// 65 reaction types — one more than enabled-set masks track — cycling
/// single-site and pair patterns over three species.
fn sixty_five_type_model() -> Model {
    let mut builder = ModelBuilder::new(&["*", "A", "B"]);
    for i in 0..=psr_kernel::MAX_KERNEL_REACTIONS {
        builder = builder.reaction(format!("r{i}"), 1.0 + 0.01 * i as f64, |r| {
            match i % 5 {
                0 => r.site((0, 0), "*", "A"),
                1 => r.site((0, 0), "A", "B"),
                2 => r.site((0, 0), "B", "*"),
                3 => r.site((0, 0), "A", "*").site((1, 0), "B", "*"),
                _ => r.site((0, 0), "*", "B").site((0, 1), "*", "A"),
            };
        });
    }
    builder.build()
}

#[test]
fn models_beyond_the_mask_limit_run_through_the_untracked_kernel() {
    let model = sixty_five_type_model();
    let dims = Dims::square(10);
    let partition = five_coloring(dims);
    let fresh = || SimState::new(Lattice::filled(dims, 0), &model);
    let hook = &mut psr_dmc::events::NoHook;

    let mut ndca_state = fresh();
    let stats = Ndca::new(&model).run_steps(&mut ndca_state, &mut rng_from_seed(5), 20, None, hook);
    assert!(stats.executed > 0);
    assert!(ndca_state.coverage.matches(&ndca_state.lattice));
    // Row-major discretised NDCA is simple enough to restate on the
    // model's own matcher: same draws, same lattice.
    let alias = psr_rng::AliasTable::new(&model.rate_weights());
    let (mut reference, mut rng, mut changes) = (fresh().lattice, rng_from_seed(5), Vec::new());
    for _ in 0..20 {
        for site in dims.iter_sites() {
            let reaction = alias.sample(&mut rng);
            model
                .reaction(reaction)
                .try_execute(&mut reference, site, &mut changes);
        }
    }
    assert_eq!(ndca_state.lattice, reference);

    // In-order PNDCA: the chunks in index order, each swept in list order.
    let mut state = fresh();
    let stats =
        Pndca::new(&model, &partition).run_steps(&mut state, &mut rng_from_seed(6), 20, None, hook);
    assert!(stats.executed > 0);
    assert!(state.coverage.matches(&state.lattice));
    let (mut reference, mut rng) = (fresh().lattice, rng_from_seed(6));
    for _ in 0..20 {
        for chunk in partition.chunks() {
            for &site in chunk {
                let reaction = alias.sample(&mut rng);
                model
                    .reaction(reaction)
                    .try_execute(&mut reference, site, &mut changes);
            }
        }
    }
    assert_eq!(state.lattice, reference);

    // Size-weighted L-PNDCA: a chunk drawn by size, then up to L uniform
    // draws from it, each followed by its reaction draw.
    let l = 7;
    let mut state = fresh();
    let stats = LPndca::new(&model, &partition, l).run_steps(
        &mut state,
        &mut rng_from_seed(8),
        20,
        None,
        hook,
    );
    assert!(stats.executed > 0);
    assert!(state.coverage.matches(&state.lattice));
    let cumulative: Vec<f64> = partition
        .chunks()
        .iter()
        .scan(0.0, |acc, c| {
            *acc += c.len() as f64;
            Some(*acc)
        })
        .collect();
    let (mut reference, mut rng, n) = (fresh().lattice, rng_from_seed(8), partition.num_sites());
    for _ in 0..20 {
        let mut trials = 0;
        while trials < n {
            let x = rng.f64() * cumulative[cumulative.len() - 1];
            let sites = partition.chunk(cumulative.partition_point(|&c| c <= x));
            let burst = l.min(n - trials);
            trials += burst;
            for _ in 0..burst {
                let site = sites[rng.index(sites.len())];
                let reaction = alias.sample(&mut rng);
                model
                    .reaction(reaction)
                    .try_execute(&mut reference, site, &mut changes);
            }
        }
    }
    assert_eq!(state.lattice, reference);

    let mut state = fresh();
    let stats = Rsm::new(&model).run_mc_steps(&mut state, &mut rng_from_seed(7), 20, None, hook);
    assert!(stats.executed > 0);
    assert!(state.coverage.matches(&state.lattice));
}

#[test]
#[should_panic(expected = "MAX_KERNEL_REACTIONS = 64")]
fn weighted_selection_rejects_models_beyond_the_mask_limit() {
    let model = sixty_five_type_model();
    let partition = five_coloring(Dims::square(10));
    let _ = Pndca::new(&model, &partition).with_selection(ChunkSelection::WeightedByRates);
}

#[test]
#[should_panic(expected = "MAX_KERNEL_REACTIONS = 64")]
fn weighted_type_chunks_reject_models_beyond_the_mask_limit() {
    // Every subset of the type partition is small; it is the model's type
    // count that the masks cannot hold.
    let model = sixty_five_type_model();
    let types = psr_ca::tpndca::axis_type_partition(&model, Dims::square(10));
    let _ = psr_ca::tpndca::TPndca::new(&model, types).with_weighted_chunks(true);
}
