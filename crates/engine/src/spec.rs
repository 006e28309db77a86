//! Declarative batch specifications.
//!
//! A batch is a set of independent simulation jobs plus engine settings,
//! written in a tiny INI-style text format (`EXPERIMENTS.md` has a worked
//! example):
//!
//! ```text
//! # comment
//! [engine]
//! workers = 2
//! checkpoint_dir = results/engine_state
//! max_retries = 2
//!
//! [job zgb_small]
//! model = zgb 0.51 5
//! algorithm = pndca five random-order
//! side = 20
//! seed = 7
//! steps = 200
//! checkpoint_every = 50
//! ```
//!
//! The two `*_at_step` keys are fault injection for durability testing:
//! `fail_at_step` panics the job once (first attempt only), exercising the
//! retry path; `abort_at_step` interrupts the whole run after the job
//! checkpoints at that step, simulating a kill so `--resume` can be
//! exercised deterministically.

use psr_core::{Algorithm, SimSession, Simulator};
use psr_lattice::Dims;
use psr_model::library::kuzovkov::{kuzovkov_model, KuzovkovParams};
use psr_model::library::zgb::zgb_ziff;
use psr_model::Model;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Which reaction model a job simulates.
#[derive(Clone, Debug, PartialEq)]
pub enum ModelSpec {
    /// ZGB CO oxidation at CO fraction `y` with reaction rate `k`.
    Zgb {
        /// CO impingement fraction.
        y: f64,
        /// CO+O reaction rate.
        k: f64,
    },
    /// The Kuzovkov Pt(100) oscillation model with default parameters.
    Kuzovkov,
}

impl ModelSpec {
    /// Materialise the model.
    pub fn build(&self) -> Model {
        match self {
            ModelSpec::Zgb { y, k } => zgb_ziff(*y, *k),
            ModelSpec::Kuzovkov => kuzovkov_model(KuzovkovParams::default()),
        }
    }

    /// Parse `zgb <y> <k>` or `kuzovkov`.
    ///
    /// # Errors
    ///
    /// Describes the first problem with the spec string.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut parts = s.split_whitespace();
        match parts.next() {
            Some("zgb") => {
                let mut next = |what| number(what, parts.next().ok_or("zgb needs <y> <k>")?);
                let (y, k): (f64, f64) = (next("zgb y")?, next("zgb k")?);
                if !(0.0..=1.0).contains(&y) || !k.is_finite() || k <= 0.0 {
                    return Err(format!("zgb parameters out of range: y={y} k={k}"));
                }
                Ok(ModelSpec::Zgb { y, k })
            }
            Some("kuzovkov") => Ok(ModelSpec::Kuzovkov),
            other => Err(format!(
                "unknown model {other:?} (expected zgb or kuzovkov)"
            )),
        }
    }
}

impl std::fmt::Display for ModelSpec {
    /// The spelling [`parse`](Self::parse) reads. `{y}`/`{k}` use Rust's
    /// shortest-round-trip float form: one spelling per f64 value.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelSpec::Zgb { y, k } => write!(f, "zgb {y} {k}"),
            ModelSpec::Kuzovkov => f.write_str("kuzovkov"),
        }
    }
}

/// One durable simulation job.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Unique name; used as the checkpoint/journal key and file stem.
    pub name: String,
    /// Reaction model.
    pub model: ModelSpec,
    /// Algorithm (must be step-resumable). `shards`, `transport` and the
    /// `fskmc` keys of the text form are folded into it.
    pub algorithm: Algorithm,
    /// Square lattice side.
    pub side: u32,
    /// Master RNG seed.
    pub seed: u64,
    /// Whole algorithm steps to run.
    pub steps: u64,
    /// Checkpoint every this many steps.
    pub checkpoint_every: u64,
    /// Fault injection: panic once when the first attempt reaches this step.
    pub fail_at_step: Option<u64>,
    /// Fault injection: interrupt (simulated kill) after the checkpoint at
    /// this step.
    pub abort_at_step: Option<u64>,
}

fn number<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{key}: {e}"))
}

impl JobSpec {
    /// A job with required fields set and defaults elsewhere
    /// (`checkpoint_every = max(1, steps / 10)`, no fault injection).
    pub fn new(
        name: &str,
        model: ModelSpec,
        algorithm: Algorithm,
        side: u32,
        seed: u64,
        steps: u64,
    ) -> Self {
        JobSpec {
            name: name.to_owned(),
            model,
            algorithm,
            side,
            seed,
            steps,
            checkpoint_every: (steps / 10).max(1),
            fail_at_step: None,
            abort_at_step: None,
        }
    }

    /// Build a job from its `(key, value, line)` entries — the one reader
    /// of job keys, behind both batch files and served submissions. Keys
    /// this crate does not own go to [`Algorithm::fold_key`], in key order,
    /// once the `algorithm =` line is known; it also names the unknown ones.
    ///
    /// # Errors
    ///
    /// The first problem and the line it sits on (`None`: a key is missing).
    pub fn from_keys<'a>(
        name: &str,
        keys: impl IntoIterator<Item = (&'a str, &'a str, usize)>,
    ) -> Result<Self, (Option<usize>, String)> {
        let mut model = None;
        let mut algorithm = None;
        let mut side = None;
        let mut seed = 0u64;
        let mut steps = None;
        let mut checkpoint_every = None;
        let mut fail_at_step = None;
        let mut abort_at_step = None;
        let mut folded = Vec::new();
        for (key, value, line) in keys {
            let at = |e: String| (Some(line), e);
            match key {
                "model" => model = Some(ModelSpec::parse(value).map_err(at)?),
                "algorithm" => algorithm = Some(value.parse::<Algorithm>().map_err(at)?),
                "side" => side = Some(number(key, value).map_err(at)?),
                "seed" => seed = number(key, value).map_err(at)?,
                "steps" => steps = Some(number(key, value).map_err(at)?),
                "checkpoint_every" => checkpoint_every = Some(number(key, value).map_err(at)?),
                "fail_at_step" => fail_at_step = Some(number(key, value).map_err(at)?),
                "abort_at_step" => abort_at_step = Some(number(key, value).map_err(at)?),
                _ => folded.push((key, value, line)),
            }
        }
        let missing = |what: &str| (None, format!("missing {what}"));
        let steps = steps.ok_or_else(|| missing("steps"))?;
        let mut job = JobSpec::new(
            name,
            model.ok_or_else(|| missing("model"))?,
            algorithm.ok_or_else(|| missing("algorithm"))?,
            side.ok_or_else(|| missing("side"))?,
            seed,
            steps,
        );
        if let Some(ce) = checkpoint_every {
            job.checkpoint_every = ce;
        }
        job.fail_at_step = fail_at_step;
        job.abort_at_step = abort_at_step;
        folded.sort_by_key(|&(key, _, _)| key);
        for (key, value, line) in folded {
            job.algorithm
                .fold_key(key, value)
                .map_err(|e| (Some(line), e))?;
        }
        Ok(job)
    }

    /// Every key that shapes the run, defaults resolved, sorted.
    fn keys(&self) -> BTreeMap<&'static str, String> {
        let mut keys = BTreeMap::from([
            ("algorithm", self.algorithm.to_string()),
            ("checkpoint_every", self.checkpoint_every.to_string()),
            ("model", self.model.to_string()),
            ("seed", self.seed.to_string()),
            ("shards", "1".to_owned()),
            ("side", self.side.to_string()),
            ("steps", self.steps.to_string()),
        ]);
        keys.extend(self.algorithm.folded_keys());
        keys
    }

    /// The canonical rendering of the job's physics: sorted keys, one
    /// spelling per value, every default resolved — and neither the name,
    /// the fault keys nor `transport`, none of which moves the trajectory.
    /// Equal text ⇔ same run; [`from_keys`](Self::from_keys) reads it back.
    pub fn canonical_text(&self) -> String {
        let mut keys = self.keys();
        keys.remove("transport");
        keys.iter().map(|(k, v)| format!("{k} = {v}\n")).collect()
    }

    /// Validate self-consistency (positive sizes, sane fault steps, a name
    /// usable as a file stem).
    ///
    /// # Errors
    ///
    /// Describes the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(format!(
                "job name {:?} must be non-empty [A-Za-z0-9_-] (it names checkpoint files)",
                self.name
            ));
        }
        if self.side == 0 {
            return Err(format!("job {}: side must be positive", self.name));
        }
        if self.steps == 0 {
            return Err(format!("job {}: steps must be positive", self.name));
        }
        if self.checkpoint_every == 0 {
            return Err(format!(
                "job {}: checkpoint_every must be positive",
                self.name
            ));
        }
        for (key, v) in [
            ("fail_at_step", self.fail_at_step),
            ("abort_at_step", self.abort_at_step),
        ] {
            if let Some(v) = v {
                if v == 0 || v >= self.steps {
                    return Err(format!(
                        "job {}: {key} = {v} must lie strictly inside (0, steps)",
                        self.name
                    ));
                }
            }
        }
        Ok(())
    }

    /// The session that runs this job.
    ///
    /// # Errors
    ///
    /// What [`Simulator::into_session`] rejects: an algorithm that is not
    /// step-resumable, a block or shard grid that does not tile the lattice.
    pub fn session(&self) -> Result<SimSession, String> {
        Simulator::new(self.model.build())
            .dims(Dims::square(self.side))
            .seed(self.seed)
            .algorithm(self.algorithm.clone())
            .into_session()
            .map_err(|e| format!("job {}: {e}", self.name))
    }
}

impl std::fmt::Display for JobSpec {
    /// The job as a `[job …]` section that [`BatchSpec::parse`] reads back.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut keys = self.keys();
        for (key, step) in [
            ("fail_at_step", self.fail_at_step),
            ("abort_at_step", self.abort_at_step),
        ] {
            keys.extend(step.map(|s| (key, s.to_string())));
        }
        writeln!(f, "[job {}]", self.name)?;
        keys.iter().try_for_each(|(k, v)| writeln!(f, "{k} = {v}"))
    }
}

/// Engine-wide settings.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Directory holding checkpoints, final snapshots and the journal.
    pub checkpoint_dir: PathBuf,
    /// Journal path (defaults to `<checkpoint_dir>/journal.jsonl`).
    pub journal_path: Option<PathBuf>,
    /// Retries after a job panic before giving up.
    pub max_retries: u32,
    /// First retry backoff.
    pub backoff_base_ms: u64,
    /// Backoff cap (doubling stops here).
    pub backoff_cap_ms: u64,
    /// Per-job wall-clock budget; exceeded jobs checkpoint and fail.
    pub deadline_ms: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 1,
            checkpoint_dir: PathBuf::from("engine-state"),
            journal_path: None,
            max_retries: 2,
            backoff_base_ms: 50,
            backoff_cap_ms: 2000,
            deadline_ms: None,
        }
    }
}

impl EngineConfig {
    /// The journal path (explicit or the default inside `checkpoint_dir`).
    pub fn journal(&self) -> PathBuf {
        self.journal_path
            .clone()
            .unwrap_or_else(|| self.checkpoint_dir.join("journal.jsonl"))
    }
}

/// A parsed batch: engine settings plus jobs, in file order.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchSpec {
    /// Engine settings.
    pub engine: EngineConfig,
    /// Jobs, in declaration order.
    pub jobs: Vec<JobSpec>,
}

impl BatchSpec {
    /// Parse the INI-style batch format (see the module docs).
    ///
    /// # Errors
    ///
    /// Reports the first malformed line with its line number.
    pub fn parse(text: &str) -> Result<Self, String> {
        enum Section {
            None,
            Engine,
            Job(usize),
        }
        // Per-job: name plus its (key, value, line-number) entries.
        type JobKeys = Vec<(String, String, usize)>;
        let mut engine = EngineConfig::default();
        let mut jobs: Vec<JobSpec> = Vec::new();
        // (name, line number of the `[job …]` header, keys)
        let mut partial: Vec<(String, usize, JobKeys)> = Vec::new();
        let mut section = Section::None;

        for (lineno, raw) in text.lines().enumerate() {
            let lineno = lineno + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let header = header.trim();
                if header == "engine" {
                    section = Section::Engine;
                } else if let Some(name) = header.strip_prefix("job ") {
                    let name = name.trim().to_owned();
                    if partial.iter().any(|(n, _, _)| *n == name) {
                        return Err(format!("line {lineno}: duplicate job {name:?}"));
                    }
                    partial.push((name, lineno, Vec::new()));
                    section = Section::Job(partial.len() - 1);
                } else {
                    return Err(format!("line {lineno}: unknown section [{header}]"));
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or(format!("line {lineno}: expected `key = value`"))?;
            let (key, value) = (key.trim().to_owned(), value.trim().to_owned());
            match section {
                Section::None => {
                    return Err(format!("line {lineno}: `{key}` outside any section"));
                }
                Section::Engine => {
                    Self::apply_engine_key(&mut engine, &key, &value)
                        .map_err(|e| format!("line {lineno}: {e}"))?;
                }
                Section::Job(i) => partial[i].2.push((key, value, lineno)),
            }
        }

        let mut header_lines = Vec::new();
        for (name, header_line, keys) in partial {
            let keys = keys
                .iter()
                .map(|(k, v, line)| (k.as_str(), v.as_str(), *line));
            jobs.push(
                JobSpec::from_keys(&name, keys).map_err(|(line, e)| match line {
                    Some(line) => format!("line {line} (job {name}): {e}"),
                    None => format!("line {header_line}: job {name}: {e}"),
                })?,
            );
            header_lines.push(header_line);
        }
        if jobs.is_empty() {
            return Err("batch declares no jobs".to_owned());
        }
        for (job, header_line) in jobs.iter().zip(&header_lines) {
            job.validate()
                .map_err(|e| format!("line {header_line}: {e}"))?;
        }
        Ok(BatchSpec { engine, jobs })
    }

    fn apply_engine_key(cfg: &mut EngineConfig, key: &str, value: &str) -> Result<(), String> {
        match key {
            "workers" => {
                cfg.workers = number(key, value)?;
                if cfg.workers == 0 {
                    return Err("workers must be positive".to_owned());
                }
            }
            "checkpoint_dir" => cfg.checkpoint_dir = PathBuf::from(value),
            "journal" => cfg.journal_path = Some(PathBuf::from(value)),
            "max_retries" => cfg.max_retries = number(key, value)?,
            "backoff_base_ms" => cfg.backoff_base_ms = number(key, value)?,
            "backoff_cap_ms" => cfg.backoff_cap_ms = number(key, value)?,
            "deadline_ms" => cfg.deadline_ms = Some(number(key, value)?),
            other => return Err(format!("unknown engine key `{other}`")),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_ca::pndca::ChunkSelection;
    use psr_ca::splitting::Schedule;
    use psr_core::PartitionSpec;
    use psr_shard::{ScheduleMode, Wire};

    const SPEC: &str = "
# demo batch
[engine]
workers = 2
checkpoint_dir = /tmp/psr-ckpt
max_retries = 3
deadline_ms = 60000

[job a]
model = zgb 0.51 5
algorithm = pndca five random-order
side = 20
seed = 7
steps = 200
checkpoint_every = 50

[job b]
model = kuzovkov          # inline comment
algorithm = ndca
side = 30
steps = 40
fail_at_step = 9

[job c]
model = zgb 0.5 2
algorithm = pndca five in-order
side = 20
steps = 30
shards = 4
transport = unix
";

    #[test]
    fn parses_engine_and_jobs() {
        let batch = BatchSpec::parse(SPEC).expect("parse");
        assert_eq!(batch.engine.workers, 2);
        assert_eq!(batch.engine.max_retries, 3);
        assert_eq!(batch.engine.deadline_ms, Some(60000));
        assert_eq!(batch.jobs.len(), 3);
        let a = &batch.jobs[0];
        assert_eq!(a.name, "a");
        assert_eq!(a.model, ModelSpec::Zgb { y: 0.51, k: 5.0 });
        assert_eq!(
            a.algorithm,
            Algorithm::Pndca {
                partition: PartitionSpec::FiveColoring,
                selection: ChunkSelection::RandomOrder,
            }
        );
        assert_eq!(a.checkpoint_every, 50);
        let b = &batch.jobs[1];
        assert_eq!(b.model, ModelSpec::Kuzovkov);
        assert_eq!(b.seed, 0);
        assert_eq!(b.checkpoint_every, 4); // steps/10 default
        assert_eq!(b.fail_at_step, Some(9));
        assert_eq!(b.algorithm, Algorithm::Ndca { shuffled: false }); // one shard
                                                                      // `shards` and `transport` fold onto the pndca algorithm.
        assert_eq!(
            batch.jobs[2].algorithm,
            Algorithm::Sharded {
                partition: PartitionSpec::FiveColoring,
                selection: ChunkSelection::InOrder,
                workers: 4,
                mode: ScheduleMode::Socket(Wire::Unix),
            }
        );
    }

    #[test]
    fn jobs_print_as_sections_that_parse_back() {
        let mut batch = BatchSpec::parse(SPEC).expect("parse");
        batch.jobs[0].abort_at_step = Some(120);
        batch.jobs.push(
            BatchSpec::parse(
                "[job fsk]\nmodel = zgb 0.5 5\nalgorithm = fskmc\nside = 24\nsteps = 10\n\
                 splitting = strang\nwindow = 0.25\nblocks = 8",
            )
            .expect("parse")
            .jobs
            .remove(0),
        );
        let text: String = batch.jobs.iter().map(JobSpec::to_string).collect();
        assert_eq!(BatchSpec::parse(&text).expect("reparse").jobs, batch.jobs);
        // The canonical text is the physics alone: no name, faults or
        // transport, `shards` always spelled out.
        assert_eq!(
            batch.jobs[2].canonical_text(),
            "algorithm = pndca five in-order\ncheckpoint_every = 3\nmodel = zgb 0.5 2\n\
             seed = 0\nshards = 4\nside = 20\nsteps = 30\n"
        );
        assert_eq!(
            batch.jobs[3].canonical_text(),
            "algorithm = fskmc\nblocks = 8\ncheckpoint_every = 1\nmodel = zgb 0.5 5\n\
             seed = 0\nshards = 1\nside = 24\nsplitting = strang\nsteps = 10\nwindow = 0.25\n"
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for (snippet, needle) in [
            ("workers = 2", "outside any section"),
            ("[engine]\nworkers = 0", "positive"),
            ("[mystery]\n", "unknown section"),
            ("[job a]\nsteps = 5", "missing model"),
            ("[engine]\nworkers = 1", "no jobs"),
            (
                "[job a]\nmodel = zgb 2.0 5\nalgorithm = rsm\nside = 10\nsteps = 5",
                "out of range",
            ),
            (
                "[job a]\nmodel = zgb 0.5 5\nalgorithm = warp\nside = 10\nsteps = 5",
                "unknown algorithm",
            ),
            (
                "[job a]\nmodel = zgb 0.5 5\nalgorithm = rsm\nside = 10\nsteps = 5\n[job a]\nmodel = kuzovkov\nalgorithm = rsm\nside = 10\nsteps = 5",
                "duplicate job",
            ),
            (
                "[job bad name]\nmodel = kuzovkov\nalgorithm = rsm\nside = 10\nsteps = 5",
                "A-Za-z0-9",
            ),
            (
                "[job a]\nmodel = kuzovkov\nalgorithm = rsm\nside = 10\nsteps = 5\nfail_at_step = 5",
                "strictly inside",
            ),
            (
                "[job a]\nmodel = zgb 0.5 2\nalgorithm = pndca five in-order\nside = 10\nsteps = 5\nshards = 0",
                "shards must be positive",
            ),
            (
                "[job a]\nmodel = zgb 0.5 2\nalgorithm = pndca five in-order\nside = 10\nsteps = 5\nshards = two",
                "shards:",
            ),
            (
                "[job a]\nmodel = kuzovkov\nalgorithm = ndca\nside = 10\nsteps = 5\nshards = 4",
                "requires a pndca algorithm",
            ),
            (
                "[job a]\nmodel = zgb 0.5 2\nalgorithm = pndca five in-order\nside = 10\nsteps = 5\nshards = 4\ntransport = carrier-pigeon",
                "unknown transport",
            ),
            (
                "[job a]\nmodel = zgb 0.5 2\nalgorithm = pndca five in-order\nside = 10\nsteps = 5\ntransport = unix",
                "requires shards > 1",
            ),
        ] {
            let err = BatchSpec::parse(snippet).unwrap_err();
            assert!(
                err.contains(needle),
                "spec {snippet:?}: error {err:?} missing {needle:?}"
            );
        }
    }

    #[test]
    fn malformed_job_sections_report_line_numbers() {
        // Server clients fixing a rejected spec need a position, so every
        // job-section problem must cite a line: bad values cite their own
        // line, missing keys and validation failures cite the `[job]`
        // header line.
        for (snippet, needle) in [
            // Bad value on line 3 of the section body.
            (
                "[job a]\nmodel = zgb 0.5 5\nalgorithm = warp\nside = 10\nsteps = 5",
                "line 3 (job a): unknown algorithm",
            ),
            (
                "\n\n[job a]\nmodel = zgb nope 5\nalgorithm = rsm\nside = 10\nsteps = 5",
                "line 4 (job a): zgb y",
            ),
            (
                "[job a]\nmodel = kuzovkov\nalgorithm = rsm\nside = ten\nsteps = 5",
                "line 4 (job a): side",
            ),
            (
                "[job a]\nmodel = kuzovkov\nalgorithm = rsm\nside = 10\nsteps = 5\nfrobnicate = 1",
                "line 6 (job a): unknown job key `frobnicate`",
            ),
            // Missing keys cite the header line of the offending job.
            ("[job a]\nsteps = 5", "line 1: job a: missing model"),
            (
                "\n[job a]\nmodel = kuzovkov\nalgorithm = rsm\nside = 10",
                "line 2: job a: missing steps",
            ),
            (
                "[job ok]\nmodel = kuzovkov\nalgorithm = rsm\nside = 10\nsteps = 5\n\n[job b]\nmodel = kuzovkov\nsteps = 5",
                "line 7: job b: missing algorithm",
            ),
            // Validation failures (out-of-range cross-field constraints)
            // also cite the header line.
            (
                "[job a]\nmodel = kuzovkov\nalgorithm = rsm\nside = 0\nsteps = 5",
                "line 1: job a: side must be positive",
            ),
            (
                "\n\n\n[job a]\nmodel = kuzovkov\nalgorithm = rsm\nside = 10\nsteps = 5\nfail_at_step = 5",
                "line 4: job a: fail_at_step = 5 must lie strictly inside",
            ),
            (
                "[job a]\nmodel = zgb 2.0 5\nalgorithm = rsm\nside = 10\nsteps = 5",
                "line 2 (job a): zgb parameters out of range",
            ),
        ] {
            let err = BatchSpec::parse(snippet).unwrap_err();
            assert!(
                err.contains(needle),
                "spec {snippet:?}: error {err:?} missing {needle:?}"
            );
        }
    }

    #[test]
    fn fskmc_jobs_parse_splitting_keys() {
        let batch = BatchSpec::parse(
            "[job fsk]\nmodel = zgb 0.5 5\nalgorithm = fskmc\nside = 24\nsteps = 10\n\
             splitting = strang\nwindow = 0.25\nblocks = 8",
        )
        .expect("parse");
        assert_eq!(
            batch.jobs[0].algorithm,
            Algorithm::Fskmc {
                gx: 4,
                gy: 2,
                schedule: Schedule::Strang,
                window: 0.25,
            }
        );
        // Bare fskmc keeps the documented defaults.
        let batch = BatchSpec::parse(
            "[job fsk]\nmodel = zgb 0.5 5\nalgorithm = fskmc\nside = 24\nsteps = 10",
        )
        .expect("parse");
        assert_eq!(
            batch.jobs[0].algorithm,
            Algorithm::Fskmc {
                gx: 2,
                gy: 2,
                schedule: Schedule::Lie,
                window: 0.1,
            }
        );
    }

    #[test]
    fn splitting_keys_are_rejected_without_fskmc() {
        for (snippet, needle) in [
            (
                "[job a]\nmodel = kuzovkov\nalgorithm = ndca\nside = 10\nsteps = 5\nsplitting = lie",
                "require algorithm = fskmc",
            ),
            (
                "[job a]\nmodel = kuzovkov\nsplitting = lie\nalgorithm = ndca\nside = 10\nsteps = 5",
                "line 3 (job a)",
            ),
            (
                "[job a]\nmodel = kuzovkov\nalgorithm = fskmc\nside = 10\nsteps = 5\nwindow = 0",
                "must be positive",
            ),
            (
                "[job a]\nmodel = kuzovkov\nalgorithm = fskmc\nside = 10\nsteps = 5\nblocks = 0",
                "blocks must be positive",
            ),
            (
                "[job a]\nmodel = kuzovkov\nalgorithm = fskmc\nside = 10\nsteps = 5\nsplitting = trotter",
                "unknown splitting schedule",
            ),
            (
                "[job a]\nmodel = zgb 0.5 2\nalgorithm = fskmc\nside = 20\nsteps = 5\nshards = 4",
                "requires a pndca algorithm",
            ),
        ] {
            let err = BatchSpec::parse(snippet).unwrap_err();
            assert!(
                err.contains(needle),
                "spec {snippet:?}: error {err:?} missing {needle:?}"
            );
        }
    }

    #[test]
    fn model_specs_build() {
        assert!(
            ModelSpec::parse("zgb 0.5 5")
                .unwrap()
                .build()
                .num_reactions()
                > 0
        );
        assert!(
            ModelSpec::parse("kuzovkov")
                .unwrap()
                .build()
                .num_reactions()
                > 0
        );
    }
}
