//! Observable streams derived from durable checkpoints.
//!
//! A job's observables are one JSONL line per checkpoint —
//! `{"step":N,"time":T,"counts":[…]}` with per-species occupation counts
//! from the lattice histogram — appended to a *partial* file as the engine's
//! `BlockObserver` fires. The observer fires only after a checkpoint is on
//! disk, so the partial never runs ahead of resumable state; and checkpoint
//! placement is deterministic, so the finished file is a pure function of
//! the job spec. That file, verbatim, becomes the cached result.
//!
//! Crashes leave two kinds of damage the writer must repair on resume:
//! a torn trailing line (killed mid-append) and a missing line for the
//! resume checkpoint (killed between the checkpoint write and the append).
//! [`Partial::reconcile`] handles both by truncating to the lines at or
//! before the resume step and re-deriving the resume line from the loaded
//! checkpoint itself.

use crate::json;
use psr_core::SessionCheckpoint;
use psr_engine::JsonLine;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Render the observable line for one checkpoint.
pub fn line(num_states: usize, ck: &SessionCheckpoint) -> String {
    let counts = ck.lattice.histogram(num_states);
    let mut arr = String::from("[");
    for (i, c) in counts.iter().enumerate() {
        if i > 0 {
            arr.push(',');
        }
        arr.push_str(&c.to_string());
    }
    arr.push(']');
    JsonLine::object()
        .u64("step", ck.steps)
        .f64("time", ck.time)
        .raw("counts", &arr)
        .finish()
}

/// Step number of a parsed observable line, if the line is well-formed.
fn line_step(text: &str) -> Option<u64> {
    json::parse(text).ok()?.get("step")?.as_u64()
}

/// The in-progress observable file for one job key.
#[derive(Clone, Debug)]
pub struct Partial {
    path: PathBuf,
}

impl Partial {
    /// The partial for `key` under `dir`.
    pub fn new(dir: &Path, key: &str) -> Self {
        Partial {
            path: dir.join(format!("{key}.jsonl")),
        }
    }

    /// Where the partial lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one observable line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn append(&self, line: &str) -> std::io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        f.write_all(line.as_bytes())?;
        f.write_all(b"\n")?;
        Ok(())
    }

    /// Current contents (empty if the file does not exist yet).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than "not found".
    pub fn read(&self) -> std::io::Result<Vec<u8>> {
        match std::fs::read(&self.path) {
            Ok(b) => Ok(b),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    /// Remove the partial (after its contents moved into the result cache).
    pub fn remove(&self) {
        let _ = std::fs::remove_file(&self.path);
    }

    /// Repair the partial before (re)running the job.
    ///
    /// With no resume checkpoint the job restarts from step 0, so the
    /// partial is reset to empty. With one, keep the well-formed prefix of
    /// lines up to the resume step (dropping a torn trailing line and
    /// anything the lost attempt wrote past the checkpoint), and append the
    /// resume step's line — derived from the checkpoint itself — if the
    /// crash ate it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn reconcile(
        &self,
        num_states: usize,
        resume: Option<&SessionCheckpoint>,
    ) -> std::io::Result<()> {
        let Some(ck) = resume else {
            self.remove();
            return Ok(());
        };
        let text = String::from_utf8_lossy(&self.read()?).into_owned();
        let mut kept = String::new();
        let mut last_step = None;
        for l in text.lines() {
            match line_step(l) {
                Some(step) if step <= ck.steps && last_step.is_none_or(|p| step > p) => {
                    kept.push_str(l);
                    kept.push('\n');
                    last_step = Some(step);
                }
                // Torn, out-of-order or post-checkpoint line: everything
                // from here on is untrustworthy.
                _ => break,
            }
        }
        if last_step != Some(ck.steps) {
            kept.push_str(&line(num_states, ck));
            kept.push('\n');
        }
        psr_engine::atomic_put(&self.path, kept.as_bytes())
    }

    /// Append the final observable line if it is not already the last line
    /// (the crash window between the `.done` snapshot and the append).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn ensure_final(&self, num_states: usize, done: &SessionCheckpoint) -> std::io::Result<()> {
        let text = String::from_utf8_lossy(&self.read()?).into_owned();
        if text.lines().last().and_then(line_step) == Some(done.steps) {
            return Ok(());
        }
        self.append(&line(num_states, done))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_lattice::{Dims, Lattice};

    fn ck(steps: u64, fill: u8) -> SessionCheckpoint {
        SessionCheckpoint {
            lattice: Lattice::filled(Dims::square(4), fill),
            time: steps as f64 * 0.5,
            steps,
            rng: [1, 2],
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("psr_serve_observe_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn line_counts_the_lattice() {
        let l = line(3, &ck(6, 2));
        assert_eq!(l, "{\"step\":6,\"time\":3,\"counts\":[0,0,16]}");
        let v = json::parse(&l).expect("parse");
        assert_eq!(v.get("step").and_then(json::Value::as_u64), Some(6));
    }

    #[test]
    fn reconcile_without_checkpoint_resets() {
        let dir = temp_dir("reset");
        let p = Partial::new(&dir, "k");
        p.append(&line(3, &ck(6, 1))).expect("append");
        p.reconcile(3, None).expect("reconcile");
        assert!(p.read().expect("read").is_empty());
    }

    #[test]
    fn reconcile_drops_torn_and_future_lines() {
        let dir = temp_dir("torn");
        let p = Partial::new(&dir, "k");
        p.append(&line(3, &ck(6, 1))).expect("append");
        p.append(&line(3, &ck(12, 1))).expect("append");
        p.append(&line(3, &ck(18, 1))).expect("append"); // past the resume point
        p.append("{\"step\":24,\"ti").expect("torn"); // killed mid-write
        p.reconcile(3, Some(&ck(12, 1))).expect("reconcile");
        let text = String::from_utf8(p.read().expect("read")).expect("utf8");
        let steps: Vec<_> = text.lines().map(|l| line_step(l).expect("step")).collect();
        assert_eq!(steps, vec![6, 12]);
    }

    #[test]
    fn reconcile_rederives_a_missing_resume_line() {
        let dir = temp_dir("missing");
        let p = Partial::new(&dir, "k");
        p.append(&line(3, &ck(6, 1))).expect("append");
        // Crash between the step-12 checkpoint write and the append: the
        // reconcile must produce exactly the line the append would have.
        p.reconcile(3, Some(&ck(12, 2))).expect("reconcile");
        let text = String::from_utf8(p.read().expect("read")).expect("utf8");
        assert_eq!(text.lines().count(), 2);
        assert_eq!(text.lines().last(), Some(line(3, &ck(12, 2)).as_str()));
    }

    #[test]
    fn ensure_final_is_idempotent() {
        let dir = temp_dir("final");
        let p = Partial::new(&dir, "k");
        p.append(&line(3, &ck(6, 1))).expect("append");
        p.ensure_final(3, &ck(10, 1)).expect("ensure");
        p.ensure_final(3, &ck(10, 1)).expect("ensure again");
        let text = String::from_utf8(p.read().expect("read")).expect("utf8");
        assert_eq!(text.lines().count(), 2);
    }
}
