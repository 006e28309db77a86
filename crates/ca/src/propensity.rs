//! The chunk draw of weighted chunk selection (paper §5, strategy 4).
//!
//! A chunk's weight is the summed rate of the reactions enabled at its
//! sites, `Σ count·k` over per-(chunk, reaction) enabled-site counts. The
//! counts live beside the enabled masks they are read from: a
//! [`SiteKernel`](psr_kernel::SiteKernel) given the partition's chunk map
//! ([`SiteKernel::attach_counts`](psr_kernel::SiteKernel::attach_counts))
//! updates them in the fold that updates the masks, and
//! [`psr_kernel::group_weights`] turns them into weights. What is left here
//! is the draw every weighted executor makes from those weights.

use psr_rng::SimRng;

/// One weighted index draw: linear walk over `weights`, uniform fallback
/// when the total is non-positive (no reaction enabled anywhere). Consumes
/// exactly one random number either way, so every weighted executor stays
/// on the same random stream.
pub fn draw_weighted(rng: &mut SimRng, weights: &[f64]) -> usize {
    let m = weights.len();
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return rng.index(m);
    }
    let mut x = rng.f64() * total;
    let mut chosen = m - 1;
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            chosen = i;
            break;
        }
        x -= w;
    }
    chosen
}

#[cfg(test)]
mod tests {
    use crate::partition::Partition;
    use crate::partition_builder::five_coloring;
    use psr_kernel::{CompiledModel, SiteKernel};
    use psr_lattice::{Dims, Lattice, Site};
    use psr_model::library::zgb::zgb_ziff;
    use psr_model::Model;
    use psr_rng::rng_from_seed;
    use std::sync::Arc;

    /// A kernel on `lattice` counting over `partition`'s chunks.
    fn counting_kernel(model: &Model, partition: &Partition, lattice: &Lattice) -> SiteKernel {
        let mut kernel = SiteKernel::new(Arc::new(CompiledModel::compile(model)), lattice);
        kernel.attach_counts(partition.chunk_labels().to_vec(), partition.num_chunks());
        kernel
    }

    /// The weight a fresh scan gives `chunk` over `reactions`, counted then
    /// multiplied like the kernel's weights, so the two compare bit-for-bit.
    fn scan_weight(
        model: &Model,
        reactions: std::ops::Range<usize>,
        partition: &Partition,
        lattice: &Lattice,
        chunk: usize,
    ) -> f64 {
        let mut w = 0.0;
        for ri in reactions {
            let rt = model.reaction(ri);
            let count = partition
                .chunk(chunk)
                .iter()
                .filter(|&&site| rt.is_enabled(lattice, site))
                .count();
            w += count as f64 * rt.rate();
        }
        w
    }

    #[test]
    fn fresh_cache_matches_scan_weights() {
        let model = zgb_ziff(0.5, 2.0);
        let d = Dims::square(10);
        let partition = five_coloring(d);
        let mut lattice = Lattice::filled(d, 0);
        // Scatter some species so enabledness is non-trivial.
        let mut rng = rng_from_seed(3);
        for i in 0..lattice.len() {
            lattice.set(Site(i as u32), (rng.index(3)) as u8);
        }
        let kernel = counting_kernel(&model, &partition, &lattice);
        kernel.assert_matches_scan(&model, &lattice);
        let all = 0..model.num_reactions();
        let mut weights = Vec::new();
        kernel.weights_into(0, all.clone(), &mut weights);
        for (c, &w) in weights.iter().enumerate() {
            let scan = scan_weight(&model, all.clone(), &partition, &lattice, c);
            assert_eq!(w, scan, "chunk {c} weight");
        }
    }

    #[test]
    fn empty_surface_counts_only_adsorption() {
        let model = zgb_ziff(0.5, 2.0);
        let d = Dims::square(10);
        let partition = five_coloring(d);
        let lattice = Lattice::filled(d, 0);
        let kernel = counting_kernel(&model, &partition, &lattice);
        // On the empty ZGB surface, CO adsorption and both O2 adsorption
        // orientations are enabled at every site; reaction patterns are not.
        let mut weights = Vec::new();
        kernel.weights_into(0, 0..model.num_reactions(), &mut weights);
        let total: f64 = weights.iter().sum();
        assert_eq!(total, model.total_propensity(&lattice));
    }

    #[test]
    fn incremental_update_tracks_executed_reactions() {
        let model = zgb_ziff(0.5, 2.0);
        let d = Dims::square(10);
        let partition = five_coloring(d);
        let mut lattice = Lattice::filled(d, 0);
        let mut kernel = counting_kernel(&model, &partition, &lattice);
        let mut rng = rng_from_seed(7);
        let mut changes = Vec::new();
        // Execute 200 random enabled reactions, folding each into the kernel.
        for _ in 0..200 {
            let site = Site(rng.index(lattice.len()) as u32);
            let ri = rng.index(model.num_reactions());
            changes.clear();
            if model
                .reaction(ri)
                .try_execute(&mut lattice, site, &mut changes)
            {
                kernel.apply_changes(&lattice, &changes);
            }
        }
        kernel.assert_matches_scan(&model, &lattice);
    }

    #[test]
    fn subset_cache_tracks_only_its_reactions() {
        // The Ω×T member weight: one reaction's `count·k` per chunk.
        let model = zgb_ziff(0.5, 2.0);
        let d = Dims::square(10);
        let partition = five_coloring(d);
        let lattice = Lattice::filled(d, 0);
        let co_ads = model.reaction_index("RtCO").expect("exists");
        let kernel = counting_kernel(&model, &partition, &lattice);
        let mut weights = Vec::new();
        kernel.weights_into(0, co_ads..co_ads + 1, &mut weights);
        for (c, &w) in weights.iter().enumerate() {
            // Every vacant site enables CO adsorption.
            let sites = partition.chunk(c).len();
            assert_eq!(w, sites as f64 * model.reaction(co_ads).rate());
            let scan = scan_weight(&model, co_ads..co_ads + 1, &partition, &lattice, c);
            assert_eq!(w, scan);
        }
    }

    #[test]
    fn ensure_fresh_rebuilds_on_epoch_mismatch() {
        let model = zgb_ziff(0.5, 2.0);
        let d = Dims::square(5);
        let partition = five_coloring(d);
        let mut lattice = Lattice::filled(d, 0);
        let mut kernel = counting_kernel(&model, &partition, &lattice);
        kernel.note_epoch(1);
        // Mutate the lattice behind the kernel's back.
        lattice.set(Site(0), 1);
        assert!(!kernel.matches_scan(&model, &lattice));
        kernel.ensure_fresh(&lattice, 2);
        assert_eq!(kernel.epoch(), 2);
        kernel.assert_matches_scan(&model, &lattice);
        // Same epoch again: no rebuild needed, still consistent.
        kernel.ensure_fresh(&lattice, 2);
        assert!(kernel.matches_scan(&model, &lattice));
    }

    #[test]
    #[should_panic(expected = "MAX_KERNEL_REACTIONS = 64")]
    fn more_reactions_than_masks_track_rejected() {
        use psr_model::ModelBuilder;
        let mut builder = ModelBuilder::new(&["*", "A"]);
        for i in 0..=psr_kernel::MAX_KERNEL_REACTIONS {
            builder = builder.reaction(format!("r{i}"), 1.0, |r| {
                r.site((0, 0), "*", "A");
            });
        }
        let model = builder.build();
        let d = Dims::square(5);
        counting_kernel(&model, &five_coloring(d), &Lattice::filled(d, 0));
    }
}
