//! No run hangs: whatever is in flight too long is named and the process
//! exits non-zero.
//!
//! Every blocking call the harness makes has its own deadline (shard
//! receive timeout, client socket timeout, per-job served deadline); the
//! watchdog is the backstop for an in-process call that never returns.

use crate::host;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The whole run, build excluded.
const RUN_CAP: Duration = Duration::from_secs(120);
/// One job, one set-up, the verification, or the probes.
const ITEM_CAP: Duration = Duration::from_secs(60);
const EXIT_STUCK: i32 = 3;

struct Shared {
    stop: AtomicBool,
    next: AtomicU64,
    in_flight: Mutex<BTreeMap<u64, (String, Instant)>>,
}

pub struct Watchdog {
    shared: Arc<Shared>,
    thread: JoinHandle<()>,
}

/// Removes its entry when dropped.
pub struct Watched<'w> {
    shared: &'w Shared,
    id: u64,
}

impl Drop for Watched<'_> {
    fn drop(&mut self) {
        if let Ok(mut map) = self.shared.in_flight.lock() {
            map.remove(&self.id);
        }
    }
}

impl Watchdog {
    /// `tag` and `tmp` name this run's stragglers and scratch directory,
    /// both removed before a forced exit.
    pub fn start(tag: String, tmp: PathBuf) -> Watchdog {
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            next: AtomicU64::new(0),
            in_flight: Mutex::new(BTreeMap::new()),
        });
        let seen = Arc::clone(&shared);
        let thread = std::thread::spawn(move || {
            let started = Instant::now();
            while !seen.stop.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(100));
                let overdue = started.elapsed() > RUN_CAP;
                let stuck: Vec<String> = {
                    let map = seen.in_flight.lock().expect("watch entries are plain data");
                    map.values()
                        .filter(|(_, since)| overdue || since.elapsed() > ITEM_CAP)
                        .map(|(label, since)| {
                            format!("{label}, for {:.1} s", since.elapsed().as_secs_f64())
                        })
                        .collect()
                };
                if !stuck.is_empty() || overdue {
                    eprintln!(
                        "psr-benchmark: stuck after {:.0} s in: {}",
                        started.elapsed().as_secs_f64(),
                        if stuck.is_empty() {
                            "nothing watched".to_owned()
                        } else {
                            stuck.join("; ")
                        }
                    );
                    host::kill_stragglers(&tag);
                    let _ = std::fs::remove_dir_all(&tmp);
                    std::process::exit(EXIT_STUCK);
                }
            }
        });
        Watchdog { shared, thread }
    }

    /// Watch `label` until the guard drops.
    pub fn watch(&self, label: String) -> Watched<'_> {
        let id = self.shared.next.fetch_add(1, Ordering::Relaxed);
        self.shared
            .in_flight
            .lock()
            .expect("watch entries are plain data")
            .insert(id, (label, Instant::now()));
        Watched {
            shared: &self.shared,
            id,
        }
    }

    pub fn stop(self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        let _ = self.thread.join();
    }
}
