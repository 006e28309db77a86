//! Single-job execution: the checkpointed block loop.
//!
//! A job runs as a sequence of *blocks* of whole algorithm steps. Block
//! boundaries are the checkpoint grid (`checkpoint_every`) plus any fault
//! injection steps, so the runner checkpoints at deterministic step numbers
//! regardless of where an attempt started. Between blocks it checks the
//! cancellation flag and the per-attempt deadline; either way the last
//! checkpoint is already on disk, so the job can resume bit-identically.
//!
//! Trajectory fidelity across differently-sized blocks is guaranteed by
//! `psr-core::session` (block-splitting invariance is tested there), which
//! is what makes checkpoint placement a pure performance/durability choice.

use crate::checkpoint::CheckpointStore;
use crate::journal::{Journal, JsonLine};
use crate::metrics::Registry;
use crate::spec::JobSpec;
use psr_core::{Checkpointable, SessionCheckpoint};
use psr_dmc::events::NoHook;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Observer of the durable checkpoints a job attempt writes.
///
/// This is the run-to-journal seam the serving layer builds on: the
/// observer fires *after* each checkpoint (or the final snapshot) reaches
/// disk, so anything it derives from the [`SessionCheckpoint`] — coverage
/// observables, progress records — is never ahead of the durable state it
/// would be resumed from. Checkpoint placement is deterministic (the
/// `checkpoint_every` grid plus fault steps), so the observation stream is
/// a pure function of the job spec, interrupted or not.
pub trait BlockObserver: Sync {
    /// A checkpoint for `job` was durably written. `done` is true for the
    /// final snapshot (the job completed at `ck.steps`).
    fn on_checkpoint(&self, job: &str, ck: &SessionCheckpoint, done: bool);
}

/// The default observer: ignore checkpoints.
pub struct NoObserver;

impl BlockObserver for NoObserver {
    fn on_checkpoint(&self, _job: &str, _ck: &SessionCheckpoint, _done: bool) {}
}

/// Why a job attempt stopped before its final step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interrupt {
    /// The engine's cancellation flag was raised (graceful shutdown).
    Cancelled,
    /// The spec's `abort_at_step` fired (simulated kill for tests/CI).
    InjectedAbort,
    /// The per-attempt wall-clock deadline expired.
    Deadline,
}

impl Interrupt {
    /// Journal-friendly name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Interrupt::Cancelled => "cancelled",
            Interrupt::InjectedAbort => "injected-abort",
            Interrupt::Deadline => "deadline",
        }
    }
}

/// Result of one job attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Ran to the final step; the `.done` snapshot is persisted.
    Completed,
    /// Stopped early at the given step, with a fresh `.ckpt` on disk.
    Interrupted {
        /// Steps completed when the attempt stopped.
        at_step: u64,
        /// Why it stopped.
        reason: Interrupt,
    },
}

/// Everything one job attempt needs (borrowed from the engine).
pub struct JobRun<'a> {
    /// The job being executed.
    pub spec: &'a JobSpec,
    /// Checkpoint storage for the batch.
    pub store: &'a CheckpointStore,
    /// Event journal.
    pub journal: &'a Journal,
    /// Shared metrics registry.
    pub metrics: &'a Registry,
    /// Raised to request graceful shutdown.
    pub cancel: &'a AtomicBool,
    /// Per-attempt wall-clock budget.
    pub deadline: Option<Duration>,
    /// Strip fault injection (the CI reference run).
    pub ignore_faults: bool,
    /// Zero-based attempt number (faults only fire on attempt 0).
    pub attempt: u32,
    /// Fires after every durably written checkpoint ([`NoObserver`] when
    /// nobody is watching).
    pub observer: &'a dyn BlockObserver,
}

impl JobRun<'_> {
    fn fault(&self, step: Option<u64>) -> Option<u64> {
        if self.ignore_faults {
            None
        } else {
            step
        }
    }

    /// The next block boundary strictly after `done`: the checkpoint grid
    /// plus fault steps, capped at the job's final step.
    fn next_boundary(&self, done: u64) -> u64 {
        let spec = self.spec;
        let mut next = (done / spec.checkpoint_every + 1) * spec.checkpoint_every;
        for f in [
            self.fault(spec.fail_at_step),
            self.fault(spec.abort_at_step),
        ]
        .into_iter()
        .flatten()
        {
            if f > done {
                next = next.min(f);
            }
        }
        next.min(spec.steps)
    }

    /// Execute one attempt of the job.
    ///
    /// Builds the session, restores the latest checkpoint if one exists,
    /// then runs block by block. Panics (only) when the injected
    /// `fail_at_step` fault fires — the engine catches it and retries.
    ///
    /// # Errors
    ///
    /// Configuration and I/O problems (bad algorithm, corrupt checkpoint,
    /// unwritable checkpoint dir) are returned as `Err` and are not
    /// retried.
    pub fn run(&self) -> Result<RunOutcome, String> {
        let spec = self.spec;
        if self.store.is_done(&spec.name) {
            return Ok(RunOutcome::Completed);
        }
        let mut session = spec.session()?;
        // A checkpoint only continues the run it was taken from: a fresh
        // start records the job's canonical text beside where checkpoints
        // go, and a resume must still match it.
        let canonical = spec.canonical_text();
        let spec_path = self.store.ckpt_path(&spec.name).with_extension("spec");
        let mut resumed_from = None;
        if let Some(ck) = self
            .store
            .load(&spec.name)
            .map_err(|e| format!("job {}: loading checkpoint: {e}", spec.name))?
        {
            // No record: a checkpoint from before records were kept.
            if let Ok(recorded) = std::fs::read_to_string(&spec_path) {
                if recorded != canonical {
                    return Err(format!(
                        "job {}: the checkpoint at step {} belongs to a different spec; \
                         refusing to resume it.\ncheckpointed:\n{recorded}requested:\n{canonical}",
                        spec.name, ck.steps
                    ));
                }
            }
            session.restore(&ck)?;
            resumed_from = Some(ck.steps);
        } else {
            std::fs::write(&spec_path, &canonical)
                .map_err(|e| format!("job {}: recording spec: {e}", spec.name))?;
        }
        let start_steps = session.steps_done();
        self.journal.log(
            JsonLine::event("job_start")
                .str("job", &spec.name)
                .u64("attempt", self.attempt as u64)
                .u64("from_step", start_steps)
                .bool("resumed", resumed_from.is_some()),
        );

        let steps = self.metrics.counter("steps");
        let trials = self.metrics.counter("trials");
        let executed = self.metrics.counter("executed");
        let checkpoints = self.metrics.counter("checkpoints");
        let ckpt_bytes = self.metrics.histogram("checkpoint_bytes");
        let block_ms = self.metrics.histogram("block_ms");
        let progress = self.metrics.gauge(&format!("job.{}.step", spec.name));
        progress.set(start_steps as f64);

        let started = Instant::now();
        while session.steps_done() < spec.steps {
            let done = session.steps_done();
            let block = self.next_boundary(done) - done;
            let t0 = Instant::now();
            let stats = session.run_blocks(block, &mut NoHook);
            trials.add(stats.trials);
            executed.add(stats.executed);
            let comm = session.take_comm();
            if comm.local_trials + comm.boundary_trials > 0 {
                // Measured shard communication; the wire counters stay
                // zero on the in-process transports.
                for (name, value) in [
                    ("shard_halo_messages", comm.halo_messages),
                    ("shard_halo_bytes", comm.halo_bytes),
                    ("shard_local_trials", comm.local_trials),
                    ("shard_boundary_trials", comm.boundary_trials),
                    ("shard_wire_frames", comm.wire_frames),
                    ("shard_wire_bytes", comm.wire_bytes),
                    ("shard_wire_batches", comm.wire_batches),
                    ("shard_wire_flushes", comm.wire_flushes),
                ] {
                    self.metrics.counter(name).add(value);
                }
                self.metrics
                    .gauge(&format!("job.{}.boundary_fraction", spec.name))
                    .set(comm.boundary_fraction());
            }
            block_ms.record(t0.elapsed().as_millis() as u64);
            steps.add(block);
            let now = session.steps_done();
            progress.set(now as f64);

            if self.fault(spec.fail_at_step) == Some(now) && self.attempt == 0 {
                // Injected crash: no checkpoint for this block, so the retry
                // re-runs it from the previous checkpoint.
                panic!(
                    "injected fault: job {} failed at step {now} (attempt {})",
                    spec.name, self.attempt
                );
            }

            if now < spec.steps {
                let ck = session.checkpoint();
                let bytes = self
                    .store
                    .save(&spec.name, &ck)
                    .map_err(|e| format!("job {}: saving checkpoint: {e}", spec.name))?;
                checkpoints.add(1);
                ckpt_bytes.record(bytes);
                self.journal.log(
                    JsonLine::event("checkpoint")
                        .str("job", &spec.name)
                        .u64("step", now)
                        .f64("time", ck.time)
                        .u64("bytes", bytes),
                );
                self.observer.on_checkpoint(&spec.name, &ck, false);
            }

            let interrupt = if self.fault(spec.abort_at_step) == Some(now) && start_steps < now {
                // Simulated kill: only fires on an attempt that actually ran
                // through this step, so a resumed run does not re-trigger.
                Some(Interrupt::InjectedAbort)
            } else if self.cancel.load(Ordering::SeqCst) {
                Some(Interrupt::Cancelled)
            } else if self.deadline.is_some_and(|d| started.elapsed() >= d) {
                Some(Interrupt::Deadline)
            } else {
                None
            };
            if let Some(reason) = interrupt {
                if now >= spec.steps {
                    break; // finished exactly at the boundary: complete normally
                }
                self.journal.log(
                    JsonLine::event("interrupt")
                        .str("job", &spec.name)
                        .str("reason", reason.as_str())
                        .u64("step", now),
                );
                return Ok(RunOutcome::Interrupted {
                    at_step: now,
                    reason,
                });
            }
        }

        let ck = session.checkpoint();
        let bytes = self
            .store
            .finish(&spec.name, &ck)
            .map_err(|e| format!("job {}: saving final snapshot: {e}", spec.name))?;
        let _ = std::fs::remove_file(&spec_path);
        checkpoints.add(1);
        ckpt_bytes.record(bytes);
        self.journal.log(
            JsonLine::event("job_done")
                .str("job", &spec.name)
                .u64("steps", ck.steps)
                .f64("time", ck.time)
                .u64("bytes", bytes),
        );
        self.observer.on_checkpoint(&spec.name, &ck, true);
        Ok(RunOutcome::Completed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ModelSpec;
    use psr_core::Algorithm;
    use psr_dmc::rsm::RunStats;

    fn base_spec() -> JobSpec {
        let mut spec = JobSpec::new(
            "t",
            ModelSpec::Zgb { y: 0.5, k: 5.0 },
            Algorithm::Ndca { shuffled: false },
            10,
            3,
            20,
        );
        spec.checkpoint_every = 6;
        spec
    }

    fn harness(tag: &str) -> (CheckpointStore, Journal, Registry, AtomicBool) {
        let dir = std::env::temp_dir().join(format!("psr_engine_runner_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("store");
        let journal = Journal::create(&dir.join("journal.jsonl")).expect("journal");
        (store, journal, Registry::new(), AtomicBool::new(false))
    }

    fn run(
        spec: &JobSpec,
        h: &(CheckpointStore, Journal, Registry, AtomicBool),
        attempt: u32,
    ) -> Result<RunOutcome, String> {
        JobRun {
            spec,
            store: &h.0,
            journal: &h.1,
            metrics: &h.2,
            cancel: &h.3,
            deadline: None,
            ignore_faults: false,
            attempt,
            observer: &NoObserver,
        }
        .run()
    }

    #[test]
    fn boundaries_follow_the_checkpoint_grid_and_faults() {
        let mut spec = base_spec();
        spec.fail_at_step = Some(8);
        spec.abort_at_step = Some(13);
        let h = harness("bounds");
        let jr = JobRun {
            spec: &spec,
            store: &h.0,
            journal: &h.1,
            metrics: &h.2,
            cancel: &h.3,
            deadline: None,
            ignore_faults: false,
            attempt: 0,
            observer: &NoObserver,
        };
        assert_eq!(jr.next_boundary(0), 6);
        assert_eq!(jr.next_boundary(6), 8); // clamped by fail_at_step
        assert_eq!(jr.next_boundary(8), 12);
        assert_eq!(jr.next_boundary(12), 13); // clamped by abort_at_step
        assert_eq!(jr.next_boundary(13), 18);
        assert_eq!(jr.next_boundary(18), 20); // capped at steps
        let ignoring = JobRun {
            ignore_faults: true,
            ..jr
        };
        assert_eq!(ignoring.next_boundary(6), 12);
    }

    #[test]
    fn completes_and_promotes_to_done() {
        let spec = base_spec();
        let h = harness("complete");
        assert_eq!(run(&spec, &h, 0).expect("run"), RunOutcome::Completed);
        assert!(h.0.is_done("t"));
        assert!(h.0.load("t").expect("load").is_none());
        assert_eq!(h.2.counter("steps").get(), 20);
        assert!(h.2.counter("trials").get() > 0);
        // Re-running a finished job is a no-op.
        assert_eq!(run(&spec, &h, 0).expect("rerun"), RunOutcome::Completed);
        assert_eq!(h.2.counter("steps").get(), 20);
    }

    #[test]
    fn trial_counters_are_the_sums_of_the_block_stats() {
        use psr_dmc::events::Event;
        let spec = base_spec(); // NDCA, 10×10, 20 steps in blocks of 6, 6, 6, 2
        let h = harness("counters");
        run(&spec, &h, 0).expect("run");
        // The same blocks on a bare session, counted trial by trial.
        let mut session = spec.session().expect("session");
        let (mut hooked, mut summed) = (RunStats::default(), RunStats::default());
        for block in [6, 6, 6, 2] {
            summed += session.run_blocks(block, &mut |e: Event| {
                hooked.trials += 1;
                hooked.executed += e.executed as u64;
            });
        }
        assert_eq!(hooked, summed);
        assert_eq!(summed.trials, 20 * 100, "one trial per site per NDCA step");
        assert_eq!(h.2.counter("trials").get(), summed.trials);
        assert_eq!(h.2.counter("executed").get(), summed.executed);
    }

    #[test]
    fn resuming_under_an_edited_spec_is_refused() {
        let mut spec = base_spec();
        spec.abort_at_step = Some(13);
        let h = harness("edited");
        run(&spec, &h, 0).expect("run to the abort");
        let mut edited = spec.clone();
        edited.seed = 4;
        let err = run(&edited, &h, 0).unwrap_err();
        assert!(err.contains("different spec"), "{err}");
        assert!(
            err.contains("seed = 3") && err.contains("seed = 4"),
            "{err}"
        );
        // Fault keys are not physics: still the same run.
        spec.abort_at_step = None;
        assert_eq!(run(&spec, &h, 0).expect("resume"), RunOutcome::Completed);
        assert!(!h.0.ckpt_path("t").with_extension("spec").exists());
    }

    #[test]
    fn injected_fail_panics_once_then_retry_succeeds() {
        let mut spec = base_spec();
        spec.fail_at_step = Some(8);
        let h = harness("fail");
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&spec, &h, 0)));
        assert!(panic.is_err(), "attempt 0 must panic at the injected fault");
        // The last checkpoint is from step 6; the retry resumes there.
        assert_eq!(h.0.load("t").expect("load").expect("ckpt").steps, 6);
        assert_eq!(run(&spec, &h, 1).expect("retry"), RunOutcome::Completed);
        assert!(h.0.is_done("t"));
    }

    #[test]
    fn injected_abort_interrupts_resumably() {
        let mut spec = base_spec();
        spec.abort_at_step = Some(13);
        let h = harness("abort");
        assert_eq!(
            run(&spec, &h, 0).expect("run"),
            RunOutcome::Interrupted {
                at_step: 13,
                reason: Interrupt::InjectedAbort,
            }
        );
        assert_eq!(h.0.load("t").expect("load").expect("ckpt").steps, 13);
        // The resumed attempt starts at 13, so the abort does not re-fire.
        assert_eq!(run(&spec, &h, 0).expect("resume"), RunOutcome::Completed);
        assert!(h.0.is_done("t"));
    }

    #[test]
    fn interrupted_then_resumed_matches_uninterrupted_bits() {
        let mut spec = base_spec();
        spec.abort_at_step = Some(13);
        let h = harness("bits_a");
        run(&spec, &h, 0).expect("run");
        run(&spec, &h, 0).expect("resume");

        let clean = base_spec();
        let h2 = harness("bits_b");
        run(&clean, &h2, 0).expect("clean run");

        let a = std::fs::read_to_string(h.0.done_path("t")).expect("a");
        let b = std::fs::read_to_string(h2.0.done_path("t")).expect("b");
        assert_eq!(a, b, "resumed trajectory diverged from uninterrupted run");
    }

    #[test]
    fn observer_sees_every_durable_checkpoint_in_order() {
        use std::sync::Mutex;
        struct Collect(Mutex<Vec<(u64, bool)>>);
        impl BlockObserver for Collect {
            fn on_checkpoint(&self, job: &str, ck: &SessionCheckpoint, done: bool) {
                assert_eq!(job, "t");
                self.0.lock().unwrap().push((ck.steps, done));
            }
        }
        let spec = base_spec(); // 20 steps, checkpoint_every = 6
        let h = harness("observer");
        let collect = Collect(Mutex::new(Vec::new()));
        let out = JobRun {
            spec: &spec,
            store: &h.0,
            journal: &h.1,
            metrics: &h.2,
            cancel: &h.3,
            deadline: None,
            ignore_faults: false,
            attempt: 0,
            observer: &collect,
        }
        .run()
        .expect("run");
        assert_eq!(out, RunOutcome::Completed);
        let seen = collect.0.into_inner().unwrap();
        assert_eq!(
            seen,
            vec![(6, false), (12, false), (18, false), (20, true)],
            "observer must fire once per durable checkpoint plus the final snapshot"
        );
    }

    #[test]
    fn cancel_flag_stops_at_the_next_boundary() {
        let spec = base_spec();
        let h = harness("cancel");
        h.3.store(true, Ordering::SeqCst);
        match run(&spec, &h, 0).expect("run") {
            RunOutcome::Interrupted {
                at_step,
                reason: Interrupt::Cancelled,
            } => assert_eq!(at_step, 6),
            other => panic!("expected cancellation, got {other:?}"),
        }
        assert_eq!(h.0.load("t").expect("load").expect("ckpt").steps, 6);
    }

    #[test]
    fn zero_deadline_interrupts_after_first_block() {
        let spec = base_spec();
        let h = harness("deadline");
        let out = JobRun {
            spec: &spec,
            store: &h.0,
            journal: &h.1,
            metrics: &h.2,
            cancel: &h.3,
            deadline: Some(Duration::ZERO),
            ignore_faults: false,
            attempt: 0,
            observer: &NoObserver,
        }
        .run()
        .expect("run");
        assert_eq!(
            out,
            RunOutcome::Interrupted {
                at_step: 6,
                reason: Interrupt::Deadline,
            }
        );
    }
}
