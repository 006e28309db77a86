//! Durable job queue with per-tenant fair scheduling.
//!
//! Every state change is one JSONL event appended (and flushed) to
//! `queue.jsonl` *before* the caller observes it — in particular a
//! submission is journaled before its ACK is sent, so a job the client saw
//! accepted survives `kill -9`. Restart replays the journal: submissions
//! without a matching `done`/`failed` come back as pending (a job that was
//! mid-flight resumes from its engine checkpoint; the runner makes that
//! bit-identical).
//!
//! Scheduling is round-robin over tenants with runnable work, oldest job
//! first within a tenant, so one tenant's burst cannot starve another.
//! Jobs are identified by submission id but *executed* by cache key: two
//! pending submissions of the same spec are satisfied by one run, and a key
//! is never dispatched to two workers at once (they would race on the
//! shared checkpoint files).

use crate::json;
use crate::request::JobRequest;
use psr_engine::JsonLine;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::{Condvar, Mutex};

/// Lifecycle of one submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Pending,
    /// A worker is executing (or resuming) its key.
    Running,
    /// Result is in the cache.
    Done,
    /// Execution failed (the message says why).
    Failed(String),
}

impl JobState {
    /// API-facing name.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Pending => "pending",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed(_) => "failed",
        }
    }
}

/// One accepted submission.
#[derive(Clone, Debug)]
pub struct Job {
    /// Submission id (monotonic across restarts).
    pub id: u64,
    /// Submitting tenant (scheduling unit).
    pub tenant: String,
    /// Cache key — the canonical spec digest.
    pub key: String,
    /// The parsed request.
    pub req: JobRequest,
    /// Current state.
    pub state: JobState,
}

struct State {
    jobs: Vec<Job>,
    next_id: u64,
    /// Keys currently held by a worker.
    running_keys: HashSet<String>,
    /// Round-robin cursor over tenants with runnable work.
    rr: usize,
    draining: bool,
}

/// The queue handle (thread-safe).
pub struct Queue {
    log: Mutex<BufWriter<File>>,
    inner: Mutex<State>,
    cv: Condvar,
}

impl Queue {
    /// Open the queue, replaying `path` if it exists.
    ///
    /// Replay is total on the journal's bytes: a line that is not UTF-8, not
    /// JSON, not a well-formed event, or a `submit` repeating an earlier id
    /// is dropped on its own (a crash mid-append tears only the last line;
    /// everything before it was flushed line-at-a-time) and never takes a
    /// well-formed line with it. A job's cache key is derived from its
    /// parsed spec, not read back, so an edited line cannot file a result
    /// under another spec's key.
    ///
    /// # Errors
    ///
    /// I/O errors other than the journal not existing yet.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let mut state = State {
            jobs: Vec::new(),
            next_id: 1,
            running_keys: HashSet::new(),
            rr: 0,
            draining: false,
        };
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let mut index_of: HashMap<u64, usize> = HashMap::new();
        for line in bytes.split(|&b| b == b'\n') {
            let Ok(line) = std::str::from_utf8(line) else {
                continue;
            };
            let Ok(v) = json::parse(line) else { continue };
            let ev = v.get("ev").and_then(json::Value::as_str).unwrap_or("");
            let Some(id) = v.get("id").and_then(json::Value::as_u64) else {
                continue;
            };
            match ev {
                "submit" => {
                    let (Some(tenant), Some(spec)) = (
                        v.get("tenant").and_then(json::Value::as_str),
                        v.get("spec").and_then(json::Value::as_str),
                    ) else {
                        continue;
                    };
                    let Ok(req) = JobRequest::parse(spec) else {
                        continue;
                    };
                    let Entry::Vacant(slot) = index_of.entry(id) else {
                        continue;
                    };
                    slot.insert(state.jobs.len());
                    state.jobs.push(Job {
                        id,
                        tenant: tenant.to_owned(),
                        key: req.cache_key(),
                        req,
                        state: JobState::Pending,
                    });
                    state.next_id = state.next_id.max(id.saturating_add(1));
                }
                "done" => {
                    if let Some(&i) = index_of.get(&id) {
                        state.jobs[i].state = JobState::Done;
                    }
                }
                "failed" => {
                    let msg = v
                        .get("error")
                        .and_then(json::Value::as_str)
                        .unwrap_or("unknown")
                        .to_owned();
                    if let Some(&i) = index_of.get(&id) {
                        state.jobs[i].state = JobState::Failed(msg);
                    }
                }
                _ => {}
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Queue {
            log: Mutex::new(BufWriter::new(file)),
            inner: Mutex::new(state),
            cv: Condvar::new(),
        })
    }

    fn log_line(&self, line: JsonLine) -> std::io::Result<()> {
        let mut w = self.log.lock().expect("queue log lock");
        writeln!(w, "{}", line.finish())?;
        w.flush()
    }

    /// Accept a submission: journal it, then make it pending. Returns the
    /// id only after the journal write succeeded (the durability ACK).
    ///
    /// # Errors
    ///
    /// Journal I/O errors (the job is then *not* accepted).
    pub fn submit(&self, tenant: &str, req: &JobRequest) -> std::io::Result<u64> {
        self.submit_in(tenant, req, JobState::Pending)
    }

    /// Accept a submission already satisfied by the cache: journal
    /// `submit` + `done` and record it as done (uniform status lookups).
    ///
    /// # Errors
    ///
    /// Journal I/O errors.
    pub fn submit_done(&self, tenant: &str, req: &JobRequest) -> std::io::Result<u64> {
        self.submit_in(tenant, req, JobState::Done)
    }

    fn submit_in(&self, tenant: &str, req: &JobRequest, state: JobState) -> std::io::Result<u64> {
        let key = req.cache_key();
        let mut inner = self.inner.lock().expect("queue lock");
        let id = inner.next_id;
        // Only a replayed journal naming id 2^64 - 1 gets here.
        inner.next_id = id
            .checked_add(1)
            .ok_or_else(|| std::io::Error::other("the journal's job ids are used up"))?;
        self.log_line(
            JsonLine::event("submit")
                .u64("id", id)
                .str("tenant", tenant)
                .str("key", &key)
                .str("spec", &req.canonical_text()),
        )?;
        if state == JobState::Done {
            self.log_line(JsonLine::event("done").u64("id", id))?;
        }
        inner.jobs.push(Job {
            id,
            tenant: tenant.to_owned(),
            key,
            req: req.clone(),
            state,
        });
        drop(inner);
        self.cv.notify_all();
        Ok(id)
    }

    /// Indices of pending jobs whose key no worker holds, in id order.
    fn runnable(state: &State) -> Vec<usize> {
        state
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.state == JobState::Pending && !state.running_keys.contains(&j.key))
            .map(|(i, _)| i)
            .collect()
    }

    /// Block until a job is available (tenant-fair) or the queue drains.
    /// Returns `None` when draining — the worker should exit.
    pub fn take(&self) -> Option<Job> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if inner.draining {
                return None;
            }
            let runnable = Self::runnable(&inner);
            if !runnable.is_empty() {
                // Distinct tenants with runnable work, in first-submission
                // order; the cursor rotates among them.
                let mut tenants: Vec<&str> = Vec::new();
                for &i in &runnable {
                    let t = inner.jobs[i].tenant.as_str();
                    if !tenants.contains(&t) {
                        tenants.push(t);
                    }
                }
                let tenant = tenants[inner.rr % tenants.len()].to_owned();
                inner.rr += 1;
                let idx = runnable
                    .into_iter()
                    .find(|&i| inner.jobs[i].tenant == tenant)
                    .expect("tenant has runnable work");
                inner.jobs[idx].state = JobState::Running;
                let key = inner.jobs[idx].key.clone();
                inner.running_keys.insert(key);
                return Some(inner.jobs[idx].clone());
            }
            inner = self.cv.wait(inner).expect("queue lock");
        }
    }

    fn finish_key(&self, key: &str, result: Result<(), &str>) -> std::io::Result<()> {
        let mut inner = self.inner.lock().expect("queue lock");
        for i in 0..inner.jobs.len() {
            if inner.jobs[i].key != key
                || !matches!(inner.jobs[i].state, JobState::Pending | JobState::Running)
            {
                continue;
            }
            let id = inner.jobs[i].id;
            match result {
                Ok(()) => {
                    self.log_line(JsonLine::event("done").u64("id", id))?;
                    inner.jobs[i].state = JobState::Done;
                }
                Err(msg) => {
                    self.log_line(JsonLine::event("failed").u64("id", id).str("error", msg))?;
                    inner.jobs[i].state = JobState::Failed(msg.to_owned());
                }
            }
        }
        inner.running_keys.remove(key);
        drop(inner);
        self.cv.notify_all();
        Ok(())
    }

    /// Mark every submission of `key` done (its result is cached).
    ///
    /// # Errors
    ///
    /// Journal I/O errors.
    pub fn complete_key(&self, key: &str) -> std::io::Result<()> {
        self.finish_key(key, Ok(()))
    }

    /// Mark every submission of `key` failed.
    ///
    /// # Errors
    ///
    /// Journal I/O errors.
    pub fn fail_key(&self, key: &str, error: &str) -> std::io::Result<()> {
        self.finish_key(key, Err(error))
    }

    /// Return a running job to pending (graceful drain: the job
    /// checkpointed and will resume after restart). Not journaled — the
    /// submission is still outstanding.
    pub fn release(&self, id: u64) {
        let mut inner = self.inner.lock().expect("queue lock");
        if let Some(j) = inner.jobs.iter_mut().find(|j| j.id == id) {
            j.state = JobState::Pending;
            let key = j.key.clone();
            inner.running_keys.remove(&key);
        }
        drop(inner);
        self.cv.notify_all();
    }

    /// Snapshot of one submission.
    pub fn status(&self, id: u64) -> Option<Job> {
        self.inner
            .lock()
            .expect("queue lock")
            .jobs
            .iter()
            .find(|j| j.id == id)
            .cloned()
    }

    /// Pending + running submissions (the load-shedding watermark).
    pub fn in_flight(&self) -> usize {
        self.inner
            .lock()
            .expect("queue lock")
            .jobs
            .iter()
            .filter(|j| matches!(j.state, JobState::Pending | JobState::Running))
            .count()
    }

    /// Begin draining: `take` returns `None` once current picks are done.
    pub fn drain(&self) {
        self.inner.lock().expect("queue lock").draining = true;
        self.cv.notify_all();
    }

    /// Whether draining has begun.
    pub fn is_draining(&self) -> bool {
        self.inner.lock().expect("queue lock").draining
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("psr_serve_queue_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join("queue.jsonl")
    }

    fn req(seed: u64) -> JobRequest {
        JobRequest::parse(&format!(
            "model = zgb 0.5 5\nalgorithm = ndca\nside = 10\nseed = {seed}\nsteps = 20"
        ))
        .expect("req")
    }

    #[test]
    fn submit_take_complete_roundtrip() {
        let q = Queue::open(&temp_path("roundtrip")).expect("open");
        let id = q.submit("acme", &req(1)).expect("submit");
        assert_eq!(q.status(id).expect("status").state, JobState::Pending);
        assert_eq!(q.in_flight(), 1);
        let job = q.take().expect("take");
        assert_eq!(job.id, id);
        assert_eq!(q.status(id).expect("status").state, JobState::Running);
        q.complete_key(&job.key).expect("complete");
        assert_eq!(q.status(id).expect("status").state, JobState::Done);
        assert_eq!(q.in_flight(), 0);
    }

    #[test]
    fn restart_replays_acked_but_unfinished_jobs() {
        let path = temp_path("replay");
        let key;
        {
            let q = Queue::open(&path).expect("open");
            q.submit("a", &req(1)).expect("submit 1");
            q.submit("a", &req(2)).expect("submit 2");
            let job = q.take().expect("take");
            key = job.key.clone();
            q.complete_key(&key).expect("complete");
            // Job 2 is still pending when the "process dies".
        }
        let q2 = Queue::open(&path).expect("reopen");
        assert_eq!(q2.status(1).expect("job 1").state, JobState::Done);
        assert_eq!(q2.status(2).expect("job 2").state, JobState::Pending);
        assert_eq!(q2.in_flight(), 1);
        // A job that was *running* at the kill replays as pending too.
        let j = q2.take().expect("take");
        assert_eq!(j.id, 2);
    }

    #[test]
    fn tenant_round_robin_prevents_starvation() {
        let q = Queue::open(&temp_path("fair")).expect("open");
        q.submit("a", &req(1)).expect("a1");
        q.submit("a", &req(2)).expect("a2");
        q.submit("a", &req(3)).expect("a3");
        q.submit("b", &req(4)).expect("b1");
        let order: Vec<String> = (0..4)
            .map(|_| {
                let j = q.take().expect("take");
                q.complete_key(&j.key).expect("complete");
                j.tenant
            })
            .collect();
        // b's single job is served second, not after all of a's burst.
        assert_eq!(order, vec!["a", "b", "a", "a"]);
    }

    #[test]
    fn duplicate_keys_are_never_dispatched_concurrently_and_finish_together() {
        let q = Queue::open(&temp_path("dup")).expect("open");
        let id1 = q.submit("a", &req(7)).expect("submit");
        let id2 = q.submit("b", &req(7)).expect("same spec, other tenant");
        let job = q.take().expect("take");
        // The duplicate key is not runnable while the first is held.
        assert_eq!(q.in_flight(), 2);
        q.drain();
        assert!(q.take().is_none(), "same key must not dispatch twice");
        q.complete_key(&job.key).expect("complete");
        assert_eq!(q.status(id1).expect("1").state, JobState::Done);
        assert_eq!(q.status(id2).expect("2").state, JobState::Done);
    }

    #[test]
    fn failed_jobs_record_the_error() {
        let path = temp_path("fail");
        let q = Queue::open(&path).expect("open");
        let id = q.submit("a", &req(1)).expect("submit");
        let job = q.take().expect("take");
        q.fail_key(&job.key, "boom").expect("fail");
        assert_eq!(
            q.status(id).expect("status").state,
            JobState::Failed("boom".to_owned())
        );
        let q2 = Queue::open(&path).expect("reopen");
        assert!(matches!(
            q2.status(id).expect("status").state,
            JobState::Failed(ref m) if m == "boom"
        ));
    }

    #[test]
    fn release_returns_a_running_job_to_pending() {
        let q = Queue::open(&temp_path("release")).expect("open");
        let id = q.submit("a", &req(1)).expect("submit");
        let job = q.take().expect("take");
        q.release(job.id);
        assert_eq!(q.status(id).expect("status").state, JobState::Pending);
        // And it can be taken again.
        assert_eq!(q.take().expect("retake").id, id);
    }

    #[test]
    fn cached_submissions_are_journaled_done() {
        let path = temp_path("cached");
        let q = Queue::open(&path).expect("open");
        let id = q.submit_done("a", &req(1)).expect("submit");
        assert_eq!(q.status(id).expect("status").state, JobState::Done);
        assert_eq!(q.in_flight(), 0);
        let q2 = Queue::open(&path).expect("reopen");
        assert_eq!(q2.status(id).expect("status").state, JobState::Done);
    }
}
