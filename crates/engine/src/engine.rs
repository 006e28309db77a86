//! The batch engine: a bounded worker pool with retries and graceful
//! shutdown.
//!
//! Jobs are pulled from a shared queue by `workers` OS threads. A job
//! attempt that panics (a bug — or the injected `fail_at_step` fault) is
//! caught with `catch_unwind`, journalled, and retried from its last
//! checkpoint after a capped exponential backoff; configuration and I/O
//! errors are not retried. Raising the cancellation flag makes running jobs
//! stop at their next checkpoint boundary and queued jobs drain untouched,
//! so a batch can always be continued later with `resume`.

use crate::checkpoint::CheckpointStore;
use crate::dashboard::{self, JobProgress};
use crate::journal::{Journal, JsonLine};
use crate::metrics::Registry;
use crate::runner::{Interrupt, JobRun, NoObserver, RunOutcome};
use crate::spec::{BatchSpec, EngineConfig, JobSpec};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Terminal status of one job within a batch run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran to its final step (or already had a `.done` snapshot).
    Completed,
    /// Stopped early but resumably (shutdown or injected abort); a
    /// checkpoint is on disk.
    Interrupted(Interrupt),
    /// Gave up: configuration/I-O error, retries exhausted, or deadline.
    Failed(String),
}

/// One job's outcome plus how many attempts it took.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobReport {
    /// Job name.
    pub name: String,
    /// Terminal status.
    pub status: JobStatus,
    /// Attempts consumed (0 when drained before starting).
    pub attempts: u32,
}

/// Outcome of a whole batch run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchReport {
    /// Per-job reports, in spec order.
    pub jobs: Vec<JobReport>,
}

impl BatchReport {
    /// Every job completed.
    pub fn all_completed(&self) -> bool {
        self.jobs.iter().all(|j| j.status == JobStatus::Completed)
    }

    /// At least one job failed terminally.
    pub fn any_failed(&self) -> bool {
        self.jobs
            .iter()
            .any(|j| matches!(j.status, JobStatus::Failed(_)))
    }

    /// At least one job was interrupted resumably.
    pub fn any_interrupted(&self) -> bool {
        self.jobs
            .iter()
            .any(|j| matches!(j.status, JobStatus::Interrupted(_)))
    }
}

/// Per-run options (the batch spec holds the durable configuration).
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Continue a previous run: append to the journal and pick up
    /// checkpoints instead of starting fresh.
    pub resume: bool,
    /// Strip fault injection from the specs (the CI reference run).
    pub ignore_faults: bool,
    /// Print a dashboard frame this often.
    pub status_every: Option<Duration>,
}

/// The batch engine.
pub struct Engine {
    config: EngineConfig,
    cancel: Arc<AtomicBool>,
    metrics: Registry,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

impl Engine {
    /// An engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            cancel: Arc::new(AtomicBool::new(false)),
            metrics: Registry::new(),
            config,
        }
    }

    /// The cancellation flag: raise it (e.g. from a signal handler) to shut
    /// down gracefully — running jobs checkpoint, queued jobs drain.
    pub fn cancel_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Run a batch to quiescence, discarding status frames.
    ///
    /// # Errors
    ///
    /// Fails on journal/checkpoint-directory I/O errors; per-job problems
    /// are reported in the [`BatchReport`] instead.
    pub fn run(&self, batch: &BatchSpec, opts: &RunOptions) -> Result<BatchReport, String> {
        self.run_with_status(batch, opts, |_| {})
    }

    /// Run a batch to quiescence, passing each dashboard frame to `status`.
    ///
    /// # Errors
    ///
    /// Fails on journal/checkpoint-directory I/O errors; per-job problems
    /// are reported in the [`BatchReport`] instead.
    pub fn run_with_status(
        &self,
        batch: &BatchSpec,
        opts: &RunOptions,
        status: impl Fn(&str) + Sync,
    ) -> Result<BatchReport, String> {
        let store = CheckpointStore::open(&self.config.checkpoint_dir)
            .map_err(|e| format!("opening checkpoint dir: {e}"))?;
        let journal_path = self.config.journal();
        let journal = if opts.resume {
            Journal::append(&journal_path)
        } else {
            Journal::create(&journal_path)
        }
        .map_err(|e| format!("opening journal {}: {e}", journal_path.display()))?;

        journal.log(
            JsonLine::event("batch_start")
                .u64("jobs", batch.jobs.len() as u64)
                .u64("workers", self.config.workers as u64)
                .bool("resume", opts.resume)
                .bool("ignore_faults", opts.ignore_faults),
        );

        let queue: Mutex<VecDeque<usize>> = Mutex::new((0..batch.jobs.len()).collect());
        let results: Mutex<Vec<Option<JobReport>>> = Mutex::new(vec![None; batch.jobs.len()]);
        let remaining = AtomicUsize::new(batch.jobs.len());
        let queue_depth = self.metrics.gauge("queue_depth");
        queue_depth.set(batch.jobs.len() as f64);
        let started = Instant::now();
        let mut samples: Vec<(f64, f64)> = vec![(0.0, 0.0)];

        std::thread::scope(|s| {
            for _ in 0..self.config.workers {
                s.spawn(|| loop {
                    let idx = {
                        let mut q = queue.lock().expect("queue lock");
                        let idx = q.pop_front();
                        queue_depth.set(q.len() as f64);
                        idx
                    };
                    let Some(idx) = idx else { break };
                    let spec = &batch.jobs[idx];
                    let report = if self.cancel.load(Ordering::SeqCst) {
                        journal.log(JsonLine::event("job_drained").str("job", &spec.name));
                        JobReport {
                            name: spec.name.clone(),
                            status: JobStatus::Interrupted(Interrupt::Cancelled),
                            attempts: 0,
                        }
                    } else {
                        self.run_job(spec, &store, &journal, opts)
                    };
                    results.lock().expect("results lock")[idx] = Some(report);
                    remaining.fetch_sub(1, Ordering::SeqCst);
                });
            }

            // The scope thread doubles as the status ticker.
            let mut last = (Instant::now(), 0u64, 0u64);
            let tick = self.config.status_tick(opts);
            while remaining.load(Ordering::SeqCst) > 0 {
                std::thread::sleep(Duration::from_millis(20));
                if last.0.elapsed() < tick {
                    continue;
                }
                let steps = self.metrics.counter("steps").get();
                let trials = self.metrics.counter("trials").get();
                let dt = last.0.elapsed().as_secs_f64();
                let steps_rate = (steps - last.1) as f64 / dt;
                self.metrics.gauge("steps_per_sec").set(steps_rate);
                self.metrics
                    .gauge("trials_per_sec")
                    .set((trials - last.2) as f64 / dt);
                last = (Instant::now(), steps, trials);
                let wall = started.elapsed().as_secs_f64();
                samples.push((wall, steps_rate));
                let snap = self.metrics.snapshot();
                journal.log_metrics(started.elapsed().as_millis() as u64, &snap);
                if opts.status_every.is_some() {
                    let progress = self.job_progress(batch, &results.lock().expect("results lock"));
                    status(&dashboard::render(wall, &progress, &snap, &samples));
                }
            }
        });

        // Always close with one final frame so short batches still get a
        // dashboard (and the user sees the terminal per-job states).
        if opts.status_every.is_some() {
            let wall = started.elapsed().as_secs_f64();
            let progress = self.job_progress(batch, &results.lock().expect("results lock"));
            status(&dashboard::render(
                wall,
                &progress,
                &self.metrics.snapshot(),
                &samples,
            ));
        }

        let jobs: Vec<JobReport> = results
            .into_inner()
            .expect("results lock")
            .into_iter()
            .map(|r| r.expect("every job reported"))
            .collect();
        let report = BatchReport { jobs };
        journal.log(
            JsonLine::event("batch_end")
                .bool("all_completed", report.all_completed())
                .bool("any_failed", report.any_failed())
                .u64("wall_ms", started.elapsed().as_millis() as u64),
        );
        Ok(report)
    }

    fn job_progress(&self, batch: &BatchSpec, results: &[Option<JobReport>]) -> Vec<JobProgress> {
        batch
            .jobs
            .iter()
            .zip(results)
            .map(|(spec, report)| {
                let step = self.metrics.gauge(&format!("job.{}.step", spec.name)).get() as u64;
                let state = match report {
                    None if step > 0 => "running",
                    None => "queued",
                    Some(r) => match &r.status {
                        JobStatus::Completed => "done",
                        JobStatus::Interrupted(_) => "interrupted",
                        JobStatus::Failed(_) => "failed",
                    },
                };
                JobProgress {
                    name: spec.name.clone(),
                    step: step.min(spec.steps),
                    steps: spec.steps,
                    state,
                }
            })
            .collect()
    }

    /// One job, with the retry loop around panicking attempts.
    fn run_job(
        &self,
        spec: &JobSpec,
        store: &CheckpointStore,
        journal: &Journal,
        opts: &RunOptions,
    ) -> JobReport {
        let retries = self.metrics.counter("retries");
        let mut attempt = 0u32;
        loop {
            let run = JobRun {
                spec,
                store,
                journal,
                metrics: &self.metrics,
                cancel: &self.cancel,
                deadline: self.config.deadline_ms.map(Duration::from_millis),
                ignore_faults: opts.ignore_faults,
                attempt,
                observer: &NoObserver,
            };
            let status = match catch_unwind(AssertUnwindSafe(|| run.run())) {
                Ok(Ok(RunOutcome::Completed)) => JobStatus::Completed,
                Ok(Ok(RunOutcome::Interrupted {
                    at_step,
                    reason: Interrupt::Deadline,
                })) => JobStatus::Failed(format!("deadline exceeded at step {at_step}")),
                Ok(Ok(RunOutcome::Interrupted { reason, .. })) => JobStatus::Interrupted(reason),
                Ok(Err(e)) => JobStatus::Failed(e),
                Err(payload) => {
                    let msg = panic_message(payload);
                    retries.add(1);
                    journal.log(
                        JsonLine::event("retry")
                            .str("job", &spec.name)
                            .u64("attempt", attempt as u64)
                            .str("panic", &msg),
                    );
                    if attempt >= self.config.max_retries {
                        JobStatus::Failed(format!(
                            "panicked on all {} attempts, last: {msg}",
                            attempt + 1
                        ))
                    } else {
                        let backoff = self
                            .config
                            .backoff_base_ms
                            .checked_shl(attempt)
                            .unwrap_or(u64::MAX)
                            .min(self.config.backoff_cap_ms);
                        std::thread::sleep(Duration::from_millis(backoff));
                        attempt += 1;
                        continue;
                    }
                }
            };
            return JobReport {
                name: spec.name.clone(),
                status,
                attempts: attempt + 1,
            };
        }
    }
}

impl EngineConfig {
    /// How often the status loop samples rates (the dashboard interval, or
    /// a coarse default when no dashboard was requested — the samples also
    /// feed the journal's periodic metrics events).
    fn status_tick(&self, opts: &RunOptions) -> Duration {
        opts.status_every.unwrap_or(Duration::from_millis(500))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ModelSpec;
    use psr_core::Algorithm;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("psr_engine_pool_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn job(name: &str, steps: u64) -> JobSpec {
        let mut spec = JobSpec::new(
            name,
            ModelSpec::Zgb { y: 0.5, k: 5.0 },
            Algorithm::Ndca { shuffled: false },
            10,
            7,
            steps,
        );
        spec.checkpoint_every = 5;
        spec
    }

    fn batch(tag: &str, jobs: Vec<JobSpec>) -> BatchSpec {
        BatchSpec {
            engine: EngineConfig {
                workers: 2,
                checkpoint_dir: temp_dir(tag),
                backoff_base_ms: 1,
                backoff_cap_ms: 4,
                ..EngineConfig::default()
            },
            jobs,
        }
    }

    #[test]
    fn runs_a_batch_to_completion_on_two_workers() {
        let batch = batch("complete", vec![job("a", 20), job("b", 15), job("c", 10)]);
        let engine = Engine::new(batch.engine.clone());
        let report = engine
            .run(&batch, &RunOptions::default())
            .expect("batch runs");
        assert!(report.all_completed(), "{report:?}");
        assert_eq!(report.jobs.len(), 3);
        assert_eq!(engine.metrics().counter("steps").get(), 45);
        let journal = std::fs::read_to_string(batch.engine.journal()).expect("journal written");
        assert!(journal.contains("\"ev\":\"batch_start\""));
        assert_eq!(journal.matches("\"ev\":\"job_done\"").count(), 3);
        assert!(journal.contains("\"ev\":\"batch_end\""));
    }

    #[test]
    fn injected_panic_is_retried_and_the_batch_still_completes() {
        let mut j = job("flaky", 20);
        j.fail_at_step = Some(8);
        let batch = batch("retry", vec![j]);
        let engine = Engine::new(batch.engine.clone());
        let report = engine
            .run(&batch, &RunOptions::default())
            .expect("batch runs");
        assert!(report.all_completed(), "{report:?}");
        assert_eq!(report.jobs[0].attempts, 2);
        assert_eq!(engine.metrics().counter("retries").get(), 1);
        let journal = std::fs::read_to_string(batch.engine.journal()).expect("journal");
        assert!(journal.contains("\"ev\":\"retry\""));
        assert!(journal.contains("injected fault"));
    }

    #[test]
    fn retries_exhausted_marks_the_job_failed() {
        let mut j = job("doomed", 20);
        j.fail_at_step = Some(8);
        let mut batch = batch("exhaust", vec![j]);
        batch.engine.max_retries = 0;
        let engine = Engine::new(batch.engine.clone());
        let report = engine
            .run(&batch, &RunOptions::default())
            .expect("batch runs");
        assert!(report.any_failed());
        assert!(matches!(
            &report.jobs[0].status,
            JobStatus::Failed(msg) if msg.contains("panicked on all 1 attempts")
        ));
    }

    #[test]
    fn a_partition_that_does_not_fit_fails_on_the_first_attempt() {
        // Side 12 is not a multiple of 5: a build error, not a panic to retry.
        let mut j = job("misfit", 20);
        j.side = 12;
        j.algorithm = Algorithm::Pndca {
            partition: psr_core::PartitionSpec::FiveColoring,
            selection: psr_ca::pndca::ChunkSelection::InOrder,
        };
        let batch = batch("misfit", vec![j]);
        let engine = Engine::new(batch.engine.clone());
        let report = engine
            .run(&batch, &RunOptions::default())
            .expect("batch runs");
        assert!(matches!(
            &report.jobs[0].status,
            JobStatus::Failed(msg) if msg.contains("divisible by 5")
        ));
        assert_eq!(report.jobs[0].attempts, 1);
        assert_eq!(engine.metrics().counter("retries").get(), 0);
    }

    #[test]
    fn pre_cancelled_engine_drains_the_queue_resumably() {
        let batch = batch("drain", vec![job("a", 20), job("b", 20)]);
        let engine = Engine::new(batch.engine.clone());
        engine.cancel_flag().store(true, Ordering::SeqCst);
        let report = engine
            .run(&batch, &RunOptions::default())
            .expect("batch runs");
        assert!(report.any_interrupted());
        assert!(!report.any_failed());
        for j in &report.jobs {
            assert_eq!(j.status, JobStatus::Interrupted(Interrupt::Cancelled));
            assert_eq!(j.attempts, 0);
        }
        // Nothing ran, so resuming later completes the batch.
        let engine2 = Engine::new(batch.engine.clone());
        let report2 = engine2
            .run(
                &batch,
                &RunOptions {
                    resume: true,
                    ..RunOptions::default()
                },
            )
            .expect("resumed batch runs");
        assert!(report2.all_completed(), "{report2:?}");
    }

    #[test]
    fn abort_then_resume_matches_the_clean_run_bit_for_bit() {
        let mut j = job("k", 20);
        j.abort_at_step = Some(10);
        let faulty = batch("bits_faulty", vec![j]);
        let engine = Engine::new(faulty.engine.clone());
        let report = engine
            .run(&faulty, &RunOptions::default())
            .expect("first run");
        assert!(report.any_interrupted());
        let report = Engine::new(faulty.engine.clone())
            .run(
                &faulty,
                &RunOptions {
                    resume: true,
                    ..RunOptions::default()
                },
            )
            .expect("resumed run");
        assert!(report.all_completed(), "{report:?}");

        let clean = batch("bits_clean", vec![job("k", 20)]);
        Engine::new(clean.engine.clone())
            .run(&clean, &RunOptions::default())
            .expect("clean run");

        let a = std::fs::read_to_string(faulty.engine.checkpoint_dir.join("k.done")).unwrap();
        let b = std::fs::read_to_string(clean.engine.checkpoint_dir.join("k.done")).unwrap();
        assert_eq!(a, b, "resumed batch diverged from clean run");
    }

    #[test]
    fn status_frames_are_emitted_when_requested() {
        let batch = batch("status", vec![job("a", 50)]);
        let engine = Engine::new(batch.engine.clone());
        let frames = Mutex::new(Vec::new());
        engine
            .run_with_status(
                &batch,
                &RunOptions {
                    status_every: Some(Duration::from_millis(1)),
                    ..RunOptions::default()
                },
                |frame| frames.lock().expect("frames").push(frame.to_owned()),
            )
            .expect("batch runs");
        let frames = frames.into_inner().expect("frames");
        assert!(!frames.is_empty(), "expected at least one status frame");
        assert!(frames[0].contains("psr-engine"));
    }
}
