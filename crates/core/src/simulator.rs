//! The unified simulator builder.

use crate::output::SimOutput;
use crate::session::{SimSession, Span};
use psr_ca::lpndca::ChunkVisit;
use psr_ca::partition::Partition;
use psr_ca::partition_builder::{
    checkerboard, five_coloring, greedy_coloring, single_chunk, singleton_chunks,
};
use psr_ca::pndca::ChunkSelection;
use psr_ca::splitting::{squarest_grid, Schedule};
use psr_dmc::events::NoHook;
use psr_dmc::recorder::Recorder;
use psr_lattice::{Dims, Lattice};
use psr_model::Model;
use psr_shard::ScheduleMode;

/// How the lattice is partitioned for the partitioned algorithms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionSpec {
    /// The optimal 5-chunk von Neumann partition (Fig 4); dimensions must
    /// be divisible by 5.
    FiveColoring,
    /// Greedy conflict-graph coloring (works for any model/size).
    Greedy,
    /// The 2-chunk checkerboard (only valid per-reaction; for `TPndca`).
    Checkerboard,
    /// One chunk holding the whole lattice (`m = 1`).
    SingleChunk,
    /// One chunk per site (`m = N`).
    Singletons,
}

impl std::fmt::Display for PartitionSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PartitionSpec::FiveColoring => "five",
            PartitionSpec::Greedy => "greedy",
            PartitionSpec::Checkerboard => "checkerboard",
            PartitionSpec::SingleChunk => "single",
            PartitionSpec::Singletons => "singletons",
        })
    }
}

impl std::str::FromStr for PartitionSpec {
    type Err = String;

    /// Parse the names printed by `Display` (batch spec files).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "five" => Ok(PartitionSpec::FiveColoring),
            "greedy" => Ok(PartitionSpec::Greedy),
            "checkerboard" => Ok(PartitionSpec::Checkerboard),
            "single" => Ok(PartitionSpec::SingleChunk),
            "singletons" => Ok(PartitionSpec::Singletons),
            other => Err(format!(
                "unknown partition {other:?} (expected five, greedy, checkerboard, single \
                 or singletons)"
            )),
        }
    }
}

impl PartitionSpec {
    /// Materialise the partition.
    ///
    /// # Errors
    ///
    /// The five-colouring needs sides divisible by 5 and the checkerboard
    /// even sides; either is an `Err` on any other `dims`.
    pub fn build(&self, dims: Dims, model: &Model) -> Result<Partition, String> {
        Ok(match self {
            PartitionSpec::FiveColoring => {
                sides_divisible(dims, 5, "partition five")?;
                five_coloring(dims)
            }
            PartitionSpec::Greedy => greedy_coloring(dims, model),
            PartitionSpec::Checkerboard => {
                sides_divisible(dims, 2, "partition checkerboard")?;
                checkerboard(dims)
            }
            PartitionSpec::SingleChunk => single_chunk(dims),
            PartitionSpec::Singletons => singleton_chunks(dims),
        })
    }
}

/// `Err` unless both sides of `dims` are multiples of `k`, which `what`
/// needs to wrap consistently on the torus.
pub(crate) fn sides_divisible(dims: Dims, k: u32, what: &str) -> Result<(), String> {
    if dims.width().is_multiple_of(k) && dims.height().is_multiple_of(k) {
        return Ok(());
    }
    Err(format!(
        "{what} needs dimensions divisible by {k}, got {}x{}",
        dims.width(),
        dims.height()
    ))
}

/// The simulation algorithm to run.
///
/// `Display` and `FromStr` are the one text form of an algorithm: the value
/// of an `algorithm =` line in an engine spec or a served job. `FromStr`
/// accepts the step-resumable subset (`rsm`, `rsm-discretized`, `ndca`,
/// `ndca-shuffled`, `pndca <partition> <selection>`,
/// `lpndca <partition> <l> <visit>`, `tpndca`, `fskmc`); what that line
/// cannot say — the `fskmc` window, schedule and block count, the shard
/// count and transport of a sharded `pndca` — rides on the job keys of
/// [`fold_key`](Algorithm::fold_key).
#[derive(Clone, Debug, PartialEq)]
pub enum Algorithm {
    /// Random Selection Method (paper §3) with stochastic time.
    Rsm,
    /// RSM with the discretised `1/(N·K)` clock.
    RsmDiscretized,
    /// Variable Step Size Method (Gillespie direct).
    Vssm,
    /// VSSM over a segment-tree propensity index (O(log) selection).
    VssmTree,
    /// First Reaction Method.
    Frm,
    /// Non-deterministic CA (paper §4).
    Ndca {
        /// Shuffle the site order each step instead of row-major sweeps.
        shuffled: bool,
    },
    /// Partitioned NDCA (paper §5).
    Pndca {
        /// Lattice partition.
        partition: PartitionSpec,
        /// Chunk-selection strategy.
        selection: ChunkSelection,
    },
    /// L-PNDCA (paper §5) with trial budget `l` per chunk visit.
    LPndca {
        /// Lattice partition.
        partition: PartitionSpec,
        /// Trial budget per chunk visit.
        l: usize,
        /// Chunk-visit mode.
        visit: ChunkVisit,
    },
    /// Type-partitioned NDCA over Ω×T (paper §5, Table II).
    TPndca,
    /// Threaded PNDCA over a conflict-free partition.
    Parallel {
        /// Lattice partition.
        partition: PartitionSpec,
        /// Worker threads.
        threads: usize,
    },
    /// PNDCA over `workers` halo-exchanging lattice domains (`psr-shard`).
    /// Every draw stream is keyed by the absolute step, so the trajectory
    /// is a pure function of `(seed, partition, selection)` — the same for
    /// any worker count and transport — and resumable from
    /// `(lattice, time, steps)` alone.
    Sharded {
        /// Lattice partition.
        partition: PartitionSpec,
        /// Chunk-selection strategy.
        selection: ChunkSelection,
        /// Worker count; the grid is [`psr_shard::ShardGrid::for_workers`].
        workers: u32,
        /// In-process scheduling or one OS process per worker.
        mode: ScheduleMode,
    },
    /// Fractional-step operator-splitting KMC (Lie/Strang): exact VSSM
    /// within `gx × gy` blocks for a window `Δt`, groups interleaved per
    /// the schedule. One step = one whole window.
    Fskmc {
        /// Block grid columns (must divide the lattice width).
        gx: u32,
        /// Block grid rows (must divide the lattice height).
        gy: u32,
        /// Lie (first-order) or Strang (second-order) group schedule.
        schedule: Schedule,
        /// Time window Δt per splitting sweep.
        window: f64,
    },
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algorithm::Rsm => f.write_str("rsm"),
            Algorithm::RsmDiscretized => f.write_str("rsm-discretized"),
            Algorithm::Vssm => f.write_str("vssm"),
            Algorithm::VssmTree => f.write_str("vssm-tree"),
            Algorithm::Frm => f.write_str("frm"),
            Algorithm::Ndca { shuffled: false } => f.write_str("ndca"),
            Algorithm::Ndca { shuffled: true } => f.write_str("ndca-shuffled"),
            Algorithm::Pndca {
                partition,
                selection,
            }
            | Algorithm::Sharded {
                partition,
                selection,
                ..
            } => write!(f, "pndca {partition} {selection}"),
            Algorithm::LPndca {
                partition,
                l,
                visit,
            } => write!(f, "lpndca {partition} {l} {visit}"),
            Algorithm::TPndca => f.write_str("tpndca"),
            Algorithm::Parallel { partition, threads } => {
                write!(f, "parallel {partition} {threads}")
            }
            Algorithm::Fskmc { .. } => f.write_str("fskmc"),
        }
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    /// `fskmc` starts from 2×2 blocks, Lie, window 0.1.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split_whitespace();
        let head = parts.next().ok_or("empty algorithm")?;
        let alg = match head {
            "rsm" => Algorithm::Rsm,
            "rsm-discretized" => Algorithm::RsmDiscretized,
            "ndca" => Algorithm::Ndca { shuffled: false },
            "ndca-shuffled" => Algorithm::Ndca { shuffled: true },
            "tpndca" => Algorithm::TPndca,
            "fskmc" => Algorithm::Fskmc {
                gx: 2,
                gy: 2,
                schedule: Schedule::Lie,
                window: 0.1,
            },
            "pndca" => {
                let mut next = || parts.next().ok_or("pndca needs <partition> <selection>");
                Algorithm::Pndca {
                    partition: next()?.parse()?,
                    selection: next()?.parse()?,
                }
            }
            "lpndca" => {
                let mut next = || parts.next().ok_or("lpndca needs <partition> <l> <visit>");
                Algorithm::LPndca {
                    partition: next()?.parse()?,
                    l: next()?.parse().map_err(|e| format!("lpndca l: {e}"))?,
                    visit: next()?.parse()?,
                }
            }
            other => return Err(format!("unknown algorithm {other:?}")),
        };
        if let Some(extra) = parts.next() {
            return Err(format!("trailing token {extra:?} in algorithm spec"));
        }
        Ok(alg)
    }
}

impl Algorithm {
    /// Fold one job key onto the algorithm: `splitting`, `window` and
    /// `blocks` set the parameters of an `fskmc`; `shards = N` above 1 turns
    /// a `pndca` into its sharded form and `transport` picks how those
    /// shards talk. Applied in key order after the `algorithm =` line is
    /// parsed, these reach every step-resumable value.
    ///
    /// # Errors
    ///
    /// A malformed value, or a key the algorithm has no use for.
    pub fn fold_key(&mut self, key: &str, value: &str) -> Result<(), String> {
        match (key, &mut *self) {
            ("splitting", Algorithm::Fskmc { schedule, .. }) => *schedule = value.parse()?,
            ("window", Algorithm::Fskmc { window, .. }) => {
                let w: f64 = value.parse().map_err(|e| format!("window: {e}"))?;
                if !w.is_finite() || w <= 0.0 {
                    return Err(format!("window = {w} must be positive and finite"));
                }
                *window = w;
            }
            ("blocks", Algorithm::Fskmc { gx, gy, .. }) => {
                let b: u32 = value.parse().map_err(|e| format!("blocks: {e}"))?;
                if b == 0 {
                    return Err("blocks must be positive".to_owned());
                }
                (*gx, *gy) = squarest_grid(b);
            }
            ("splitting" | "window" | "blocks", _) => {
                return Err("`splitting`/`window`/`blocks` require algorithm = fskmc".to_owned())
            }
            ("shards", this) => {
                let workers: u32 = value.parse().map_err(|e| format!("shards: {e}"))?;
                let (Algorithm::Pndca {
                    partition,
                    selection,
                }
                | Algorithm::Sharded {
                    partition,
                    selection,
                    ..
                }) = &*this
                else {
                    // One shard is what every algorithm runs on.
                    return if workers == 1 {
                        Ok(())
                    } else {
                        Err(format!(
                            "shards = {workers} requires a pndca algorithm (got {this})"
                        ))
                    };
                };
                let (partition, selection) = (partition.clone(), *selection);
                *this = match workers {
                    0 => return Err("shards must be positive".to_owned()),
                    1 => Algorithm::Pndca {
                        partition,
                        selection,
                    },
                    _ => Algorithm::Sharded {
                        partition,
                        selection,
                        workers,
                        mode: ScheduleMode::Inline,
                    },
                };
            }
            ("transport", this) => match (value.parse()?, this) {
                (transport, Algorithm::Sharded { mode, .. }) => *mode = transport,
                (ScheduleMode::Inline, _) => {}
                (transport, _) => {
                    return Err(format!("transport = {transport} requires shards > 1"))
                }
            },
            (other, _) => return Err(format!("unknown job key `{other}`")),
        }
        Ok(())
    }

    /// The keys that, folded onto `self.to_string().parse()`, give `self`
    /// back, in key order. A block grid is spelled as its block count, so
    /// only the squarest grid of a count comes back.
    pub fn folded_keys(&self) -> Vec<(&'static str, String)> {
        match self {
            Algorithm::Fskmc {
                gx,
                gy,
                schedule,
                window,
            } => vec![
                ("blocks", (gx * gy).to_string()),
                ("splitting", schedule.to_string()),
                ("window", window.to_string()),
            ],
            Algorithm::Sharded { workers, mode, .. } => vec![
                ("shards", workers.to_string()),
                ("transport", mode.to_string()),
            ],
            _ => Vec::new(),
        }
    }
}

/// Builder/runner around a model.
#[derive(Clone, Debug)]
pub struct Simulator {
    model: Model,
    dims: Dims,
    seed: u64,
    algorithm: Algorithm,
    sample_dt: f64,
    initial: Option<Lattice>,
}

impl Simulator {
    /// A simulator for `model` with defaults: 100×100 lattice, seed 0, RSM,
    /// sampling every 1.0 time units, empty initial surface.
    pub fn new(model: Model) -> Self {
        Simulator {
            model,
            dims: Dims::square(100),
            seed: 0,
            algorithm: Algorithm::Rsm,
            sample_dt: 1.0,
            initial: None,
        }
    }

    /// Set the lattice dimensions.
    pub fn dims(mut self, dims: Dims) -> Self {
        self.dims = dims;
        self
    }

    /// Set the RNG master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Select the algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Set the coverage sampling interval.
    pub fn sample_dt(mut self, dt: f64) -> Self {
        self.sample_dt = dt;
        self
    }

    /// Start from an explicit initial configuration instead of the empty
    /// surface.
    pub fn initial_lattice(mut self, lattice: Lattice) -> Self {
        self.initial = Some(lattice);
        self
    }

    /// The model being simulated.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Convert the configuration into a step-wise, checkpointable
    /// [`SimSession`].
    ///
    /// # Errors
    ///
    /// Rejects algorithms that cannot be checkpointed step-wise (VSSM, FRM
    /// and the threaded executor) and configurations the algorithm cannot
    /// run (a block or shard grid that does not tile the lattice).
    pub fn into_session(self) -> Result<SimSession, String> {
        if matches!(
            self.algorithm,
            Algorithm::Vssm | Algorithm::VssmTree | Algorithm::Frm | Algorithm::Parallel { .. }
        ) {
            return Err(format!(
                "algorithm {} does not support checkpointed step-wise execution",
                self.algorithm
            ));
        }
        SimSession::from_parts(
            self.model,
            self.dims,
            self.seed,
            self.algorithm,
            self.initial,
        )
    }

    /// Run until simulated time `t_end`; returns coverage series and stats.
    ///
    /// # Panics
    ///
    /// Panics on a configuration the algorithm cannot run.
    pub fn run_until(&self, t_end: f64) -> SimOutput {
        let this = self.clone();
        let mut recorder = Recorder::new(self.model.species().len(), self.sample_dt);
        let mut session = SimSession::from_parts(
            this.model,
            this.dims,
            this.seed,
            this.algorithm,
            this.initial,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        let stats = session.advance(Span::Until(t_end), Some(&mut recorder), &mut NoHook);
        SimOutput::new(session.into_state(), recorder, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use psr_model::library::zgb::zgb_ziff;
    use psr_shard::Wire;

    /// Through the text form and back: the `algorithm =` spelling, then
    /// the folded keys.
    fn reparse(algorithm: &Algorithm) -> Result<Algorithm, String> {
        let mut back: Algorithm = algorithm.to_string().parse()?;
        for (key, value) in algorithm.folded_keys() {
            back.fold_key(key, &value)?;
        }
        Ok(back)
    }

    #[test]
    fn canonical_spellings_roundtrip_through_display() {
        for s in [
            "rsm",
            "rsm-discretized",
            "ndca",
            "ndca-shuffled",
            "tpndca",
            "fskmc",
            "pndca five weighted",
            "pndca greedy in-order",
            "lpndca single 100 size-weighted",
            "lpndca five 1 random-once",
        ] {
            let parsed: Algorithm = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(parsed.to_string(), s);
            assert_eq!(reparse(&parsed), Ok(parsed));
        }
        for (s, needle) in [
            ("pndca five weighted extra", "trailing token"),
            ("pndca nowhere weighted", "unknown partition"),
            ("pndca five", "pndca needs"),
            ("lpndca five many size-weighted", "lpndca l:"),
            ("fskmc strang", "trailing token"),
            ("vssm", "unknown algorithm"),
            ("", "empty algorithm"),
        ] {
            let err = s.parse::<Algorithm>().unwrap_err();
            assert!(err.contains(needle), "{s:?}: {err:?} missing {needle:?}");
        }
    }

    /// Every step-resumable value, from plain indices (the vendored
    /// proptest has no `prop_oneof`).
    fn steppable(variant: usize, a: usize, b: usize, n: u32, x: f64) -> Algorithm {
        use {ChunkSelection::*, PartitionSpec::*, ScheduleMode::*};
        let partition =
            [FiveColoring, Greedy, Checkerboard, SingleChunk, Singletons][a % 5].clone();
        let selection = [InOrder, RandomOrder, RandomWithReplacement, WeightedByRates][b % 4];
        let visit = [ChunkVisit::SizeWeighted, ChunkVisit::RandomOnce][b % 2];
        let mode = [Inline, Threaded, Socket(Wire::Unix), Socket(Wire::Tcp)][a % 4];
        let (gx, gy) = squarest_grid(n);
        match variant {
            0 => Algorithm::Rsm,
            1 => Algorithm::RsmDiscretized,
            2 => Algorithm::Ndca {
                shuffled: b % 2 == 1,
            },
            3 => Algorithm::Pndca {
                partition,
                selection,
            },
            4 => Algorithm::LPndca {
                partition,
                l: n as usize,
                visit,
            },
            5 => Algorithm::TPndca,
            6 => Algorithm::Fskmc {
                gx,
                gy,
                schedule: [Schedule::Lie, Schedule::Strang][b % 2],
                window: x,
            },
            _ => Algorithm::Sharded {
                partition,
                selection,
                workers: n + 1,
                mode,
            },
        }
    }

    proptest! {
        #[test]
        fn steppable_algorithms_survive_their_text_form(
            variant in 0usize..8,
            a in 0usize..20,
            b in 0usize..4,
            n in 1u32..200,
            x in 1e-6f64..1e3,
        ) {
            let algorithm = steppable(variant, a, b, n, x);
            prop_assert_eq!(reparse(&algorithm), Ok(algorithm));
        }
    }

    fn sim(algorithm: Algorithm) -> SimOutput {
        Simulator::new(zgb_ziff(0.5, 5.0))
            .dims(Dims::square(20))
            .seed(1)
            .algorithm(algorithm)
            .sample_dt(0.25)
            .run_until(2.0)
    }

    #[test]
    fn all_algorithms_run_and_record() {
        let algorithms = crate::session::tests::steppable_algorithms()
            .into_iter()
            .chain([
                Algorithm::Vssm,
                Algorithm::VssmTree,
                Algorithm::Frm,
                Algorithm::Parallel {
                    partition: PartitionSpec::FiveColoring,
                    threads: 2,
                },
            ]);
        for algorithm in algorithms {
            let label = format!("{algorithm:?}");
            let out = sim(algorithm);
            assert!(out.stats().trials > 0, "{label}: no trials");
            assert!(
                out.series(0).len() >= 8,
                "{label}: too few samples ({})",
                out.series(0).len()
            );
            assert!(
                out.state().coverage.matches(&out.state().lattice),
                "{label}: coverage diverged"
            );
            // Something must have adsorbed by t = 2.
            let vacant_final = *out.series(0).values().last().expect("samples");
            assert!(vacant_final < 1.0, "{label}: surface still empty");
        }
    }

    #[test]
    fn seeds_reproduce() {
        let a = sim(Algorithm::Rsm);
        let b = sim(Algorithm::Rsm);
        assert_eq!(a.series(1).values(), b.series(1).values());
    }

    #[test]
    fn different_algorithms_agree_on_kinetics() {
        // RSM and VSSM both simulate the exact ME: their coverage curves
        // must agree within stochastic noise on a 20×20 lattice.
        let rsm = sim(Algorithm::Rsm);
        let vssm = sim(Algorithm::Vssm);
        let dev = psr_stats::rms_deviation(rsm.series(1), vssm.series(1), 50)
            .expect("overlapping series");
        assert!(dev < 0.08, "RSM vs VSSM deviation {dev}");
    }

    #[test]
    fn custom_initial_lattice_used() {
        let model = zgb_ziff(0.5, 5.0);
        let dims = Dims::square(10);
        let full = Lattice::filled(dims, 1); // all CO
        let out = Simulator::new(model)
            .dims(dims)
            .initial_lattice(full)
            .sample_dt(0.5)
            .run_until(0.5);
        let first_co = out.series(1).values()[0];
        assert_eq!(first_co, 1.0);
    }

    #[test]
    #[should_panic(expected = "dimensions disagree")]
    fn mismatched_initial_lattice_panics() {
        let model = zgb_ziff(0.5, 5.0);
        let out = Simulator::new(model)
            .dims(Dims::square(10))
            .initial_lattice(Lattice::filled(Dims::square(5), 0));
        out.run_until(0.1);
    }
}
