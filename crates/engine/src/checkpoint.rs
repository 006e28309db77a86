//! Durable checkpoint storage, one file per job.
//!
//! A running job periodically writes `<dir>/<job>.ckpt` (the v2 snapshot
//! format of `psr-lattice::io`, carrying clock/steps/RNG); on completion it
//! writes `<dir>/<job>.done` and removes the in-flight checkpoint, so the
//! directory doubles as the batch's progress ledger: a `.done` file means
//! the job finished, a `.ckpt` file means it can be resumed mid-flight.
//!
//! Writes go through [`atomic_put`], so a killed process leaves the
//! previous checkpoint intact rather than a torn file.

use psr_core::SessionCheckpoint;
use psr_lattice::io::{self, SnapshotMeta};
use std::path::{Path, PathBuf};

/// Replace the file at `path` with `bytes`: written in full to
/// `<path>.tmp` (the extension swapped for `tmp`), then renamed over
/// `path`. A killed process leaves the old file or the new one, never a
/// torn one. Nothing is fsynced, so an OS crash or power loss can still
/// lose the write or tear it.
///
/// # Errors
///
/// Propagates I/O errors from the write or the rename.
pub fn atomic_put(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Checkpoint directory handle for one batch.
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Open (creating if needed) the checkpoint directory.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(CheckpointStore {
            dir: dir.to_owned(),
        })
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the in-flight checkpoint for `job`.
    pub fn ckpt_path(&self, job: &str) -> PathBuf {
        self.dir.join(format!("{job}.ckpt"))
    }

    /// Path of the final snapshot for `job`.
    pub fn done_path(&self, job: &str) -> PathBuf {
        self.dir.join(format!("{job}.done"))
    }

    fn write_atomic(&self, path: &Path, ck: &SessionCheckpoint) -> std::io::Result<u64> {
        let meta = SnapshotMeta {
            time: ck.time,
            steps: ck.steps,
            rng: ck.rng,
        };
        let text = io::to_text_v2(&ck.lattice, &meta);
        atomic_put(path, text.as_bytes())?;
        Ok(text.len() as u64)
    }

    /// Atomically persist the in-flight checkpoint for `job`, returning the
    /// snapshot size in bytes (fed to the `checkpoint_bytes` histogram).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, job: &str, ck: &SessionCheckpoint) -> std::io::Result<u64> {
        self.write_atomic(&self.ckpt_path(job), ck)
    }

    /// Atomically persist the final snapshot for `job` and remove its
    /// in-flight checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn finish(&self, job: &str, ck: &SessionCheckpoint) -> std::io::Result<u64> {
        let bytes = self.write_atomic(&self.done_path(job), ck)?;
        match std::fs::remove_file(self.ckpt_path(job)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        Ok(bytes)
    }

    /// Load the in-flight checkpoint for `job`, if one exists.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than "no checkpoint yet", including
    /// malformed snapshot files (`InvalidData`).
    pub fn load(&self, job: &str) -> std::io::Result<Option<SessionCheckpoint>> {
        match io::load_v2(&self.ckpt_path(job)) {
            Ok((lattice, meta)) => Ok(Some(SessionCheckpoint {
                lattice,
                time: meta.time,
                steps: meta.steps,
                rng: meta.rng,
            })),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Whether `job` already has a final snapshot.
    pub fn is_done(&self, job: &str) -> bool {
        self.done_path(job).exists()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_lattice::{Dims, Lattice};

    fn checkpoint(fill: u8) -> SessionCheckpoint {
        SessionCheckpoint {
            lattice: Lattice::filled(Dims::square(4), fill),
            time: 1.5f64 + f64::EPSILON,
            steps: 40,
            rng: [0x1234, 0x5679],
        }
    }

    fn temp_store(tag: &str) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("psr_engine_ckpt_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::open(&dir).expect("open store")
    }

    #[test]
    fn save_load_roundtrip_preserves_bits() {
        let store = temp_store("roundtrip");
        let ck = checkpoint(2);
        let bytes = store.save("job_a", &ck).expect("save");
        assert!(bytes > 0);
        let back = store.load("job_a").expect("load").expect("present");
        assert_eq!(back.lattice, ck.lattice);
        assert_eq!(back.time.to_bits(), ck.time.to_bits());
        assert_eq!(back.steps, ck.steps);
        assert_eq!(back.rng, ck.rng);
    }

    #[test]
    fn missing_checkpoint_is_none_not_error() {
        let store = temp_store("missing");
        assert!(store.load("nope").expect("load").is_none());
        assert!(!store.is_done("nope"));
    }

    #[test]
    fn finish_promotes_and_clears_inflight() {
        let store = temp_store("finish");
        store.save("j", &checkpoint(1)).expect("save");
        store.finish("j", &checkpoint(3)).expect("finish");
        assert!(store.is_done("j"));
        assert!(store.load("j").expect("load").is_none());
        let (lattice, meta) = psr_lattice::io::load_v2(&store.done_path("j")).expect("done file");
        assert_eq!(lattice, checkpoint(3).lattice);
        assert_eq!(meta.steps, 40);
    }

    #[test]
    fn saves_replace_atomically() {
        let store = temp_store("atomic");
        store.save("j", &checkpoint(1)).expect("save 1");
        store.save("j", &checkpoint(2)).expect("save 2");
        let back = store.load("j").expect("load").expect("present");
        assert_eq!(back.lattice, checkpoint(2).lattice);
        // No stray temp file left behind.
        assert!(!store.ckpt_path("j").with_extension("tmp").exists());
    }
}
