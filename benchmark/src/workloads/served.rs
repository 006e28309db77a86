//! `served_jobs`: the outermost door, HTTP submit to result bytes.
//!
//! An in-process `psr-serve` server with 2 workers on `127.0.0.1:0` and a
//! fresh state directory; 2 closed-loop clients on pooled keep-alive
//! connections do POST `/v1/jobs`, poll the status every millisecond, GET
//! the result. 30 % of jobs hit the cache (four specs warmed at set-up);
//! the rest are cold simulations through `psr-serve` -> `psr-engine` ->
//! `psr-core`. It uses the serial kernel of `serial_lattice` differently:
//! per-trial hooks, an executor rebuilt every block, checkpoint and cache
//! writes beside cache reads — so a gain for long bare sweeps that costs
//! short hooked blocks shows here.

use super::{Outcome, Workload};
use crate::jobs::{ClassDef, Job};
use crate::stats::{fnv1a, FNV_OFFSET};
use crate::trace::JobCtx;
use psr_serve::client::Pool;
use psr_serve::json;
use psr_serve::server::{start, ServerConfig, ServerHandle};
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const SIDE: u32 = 128;
const HOT_SPECS: u64 = 4;
/// Cold jobs re-submitted after the measured phase: the cached bytes must
/// equal the fresh ones.
const RESUBMITS: usize = 3;
/// Socket timeout of every client request.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// A job not done this long after its submit has failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);
const POLL: Duration = Duration::from_millis(1);

/// Job classes, ascending in job time. A hit is a warmed [`NDCA`] spec.
pub const HIT: usize = 0;
pub const NDCA: usize = 1;
pub const PNDCA_KUZOVKOV: usize = 2;
pub const RSM: usize = 3;

/// The spec a cold class and seed name: (body, simulation trials).
pub fn spec(class: usize, seed: u64) -> (String, u64) {
    let (model, algorithm, steps) = match class {
        RSM => ("zgb 0.5 2", "rsm", 300),
        PNDCA_KUZOVKOV => ("kuzovkov", "pndca greedy random-order", 300),
        _ => ("zgb 0.5 2", "ndca", 300),
    };
    (
        format!(
            "model = {model}\nalgorithm = {algorithm}\nside = {SIDE}\nseed = {seed}\nsteps = {steps}\n"
        ),
        u64::from(SIDE * SIDE) * steps,
    )
}

/// A running server that stops, and drains, when dropped.
pub struct Server {
    handle: Option<ServerHandle>,
    pub addr: String,
}

impl Server {
    pub fn start(state_dir: &Path) -> Result<Server, String> {
        let cfg = ServerConfig {
            state_dir: state_dir.to_owned(),
            workers: 2,
            ..ServerConfig::default()
        };
        let handle = start(cfg, Arc::new(AtomicBool::new(false)))
            .map_err(|e| format!("server start: {e}"))?;
        Ok(Server {
            addr: handle.addr.to_string(),
            handle: Some(handle),
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown_and_join();
        }
    }
}

/// What one served job cost its client.
pub struct Served {
    pub hit: bool,
    pub bytes: Vec<u8>,
    pub polls: u32,
    pub shed_429: u32,
    pub submit: Duration,
    pub fetch: Duration,
    pub total: Duration,
}

/// Submit -> poll -> result on one pool. Every status must be 2xx, or a
/// 429 that is retried and counted.
pub fn serve_job(pool: &Pool, body: &str, ctx: Option<JobCtx<'_>>) -> Result<Served, String> {
    let t0 = Instant::now();
    let deadline = t0 + JOB_TIMEOUT;
    let mut shed_429 = 0;
    let submitted = {
        let _door = ctx.map(|c| c.span("serve.submit"));
        loop {
            let r = pool.post("/v1/jobs", &[("x-tenant", "bench")], body.as_bytes())?;
            match r.status {
                200 | 202 => break r,
                429 if Instant::now() < deadline => {
                    shed_429 += 1;
                    std::thread::sleep(Duration::from_millis(20));
                }
                status => return Err(format!("submit: {status} {}", r.text().trim())),
            }
        }
    };
    let submit = t0.elapsed();
    let ack = json::parse(submitted.text().trim()).map_err(|e| format!("submit body: {e}"))?;
    let id = ack
        .get("id")
        .and_then(json::Value::as_u64)
        .ok_or("submit body lacks id")?;
    let hit = ack.get("cached").and_then(json::Value::as_bool) == Some(true);
    let mut polls = 0;
    {
        let _door = ctx.map(|c| c.span("serve.wait"));
        loop {
            let r = pool.get(&format!("/v1/jobs/{id}"))?;
            polls += 1;
            if r.status != 200 {
                return Err(format!("status of job {id}: {}", r.status));
            }
            let status = json::parse(r.text().trim())
                .ok()
                .and_then(|v| {
                    v.get("status")
                        .and_then(json::Value::as_str)
                        .map(String::from)
                })
                .unwrap_or_default();
            match status.as_str() {
                "done" => break,
                "failed" => return Err(format!("job {id} failed: {}", r.text().trim())),
                _ if Instant::now() > deadline => return Err(format!("job {id} timed out")),
                _ => std::thread::sleep(POLL),
            }
        }
    }
    let t_fetch = Instant::now();
    let result = {
        let _door = ctx.map(|c| c.span("serve.result"));
        pool.get(&format!("/v1/jobs/{id}/result"))?
    };
    if result.status != 200 || result.body.is_empty() {
        return Err(format!("result of job {id}: {}", result.status));
    }
    Ok(Served {
        hit,
        bytes: result.body,
        polls,
        shed_429,
        submit,
        fetch: t_fetch.elapsed(),
        total: t0.elapsed(),
    })
}

/// The last observable line must count every site exactly once.
fn check_result(bytes: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "result is not UTF-8".to_owned())?;
    let last = text.lines().last().ok_or("result is empty")?;
    let line = json::parse(last).map_err(|e| format!("result line: {e}"))?;
    let Some(json::Value::Arr(counts)) = line.get("counts") else {
        return Err("result line lacks counts".to_owned());
    };
    let total: u64 = counts.iter().filter_map(json::Value::as_u64).sum();
    if total != u64::from(SIDE * SIDE) {
        return Err(format!(
            "coverage counts sum to {total}, not {}",
            SIDE * SIDE
        ));
    }
    Ok(())
}

pub struct ServedJobs {
    /// One pool per client; a client keeps its connections across jobs.
    /// Declared before the server so the connections close before it drains.
    pools: Vec<Pool>,
    /// Result bytes of the warmed specs, as first computed.
    hot: Vec<Vec<u8>>,
    _server: Server,
}

impl ServedJobs {
    fn hot_index(job: &Job) -> usize {
        (job.seed % HOT_SPECS) as usize
    }

    fn body(job: &Job) -> (String, u64) {
        if job.class == HIT {
            (spec(NDCA, 1 + Self::hot_index(job) as u64).0, 0)
        } else {
            spec(job.class, job.seed)
        }
    }
}

impl Workload for ServedJobs {
    const NAME: &'static str = "served_jobs";
    // Ascending job time; the 50th percentile falls inside the second
    // class and the 90th inside the fourth.
    const CLASSES: &'static [ClassDef] = &[
        ClassDef {
            name: "cache_hit",
            per_block: 6,
            repeats: true,
        },
        ClassDef {
            name: "cold_ndca_zgb",
            per_block: 6,
            repeats: false,
        },
        ClassDef {
            name: "cold_pndca_kuzovkov",
            per_block: 4,
            repeats: false,
        },
        ClassDef {
            name: "cold_rsm_zgb",
            per_block: 4,
            repeats: false,
        },
    ];
    const CLIENTS: usize = 2;
    const JOBS_PER_SECOND: f64 = 12.5;

    fn setup(dir: &Path) -> Result<Self, String> {
        let server = Server::start(&dir.join("serve-state"))?;
        let pools: Vec<Pool> = (0..Self::CLIENTS)
            .map(|_| Pool::new(&server.addr, IO_TIMEOUT))
            .collect();
        let mut hot = Vec::new();
        for i in 0..HOT_SPECS {
            hot.push(serve_job(&pools[0], &spec(NDCA, 1 + i).0, None)?.bytes);
        }
        Ok(ServedJobs {
            pools,
            hot,
            _server: server,
        })
    }

    fn run_job(&self, job: &Job, ctx: JobCtx<'_>) -> Result<Outcome, String> {
        // Jobs are dealt to clients in turn; a job's pool is its client's.
        let pool = &self.pools[ctx.client % self.pools.len()];
        let (body, trials) = Self::body(job);
        let served = serve_job(pool, &body, Some(ctx))?;
        check_result(&served.bytes)?;
        if job.class == HIT {
            if !served.hit {
                return Err("a warmed spec missed the cache".to_owned());
            }
            if served.bytes != self.hot[Self::hot_index(job)] {
                return Err("cached bytes differ from the bytes first computed".to_owned());
            }
        }
        Ok(Outcome {
            trials,
            digest: fnv1a(FNV_OFFSET, &served.bytes),
        })
    }

    /// Re-submitting a cold spec must now hit, with the same bytes.
    fn verify(&self, jobs: &[Job], outcomes: &[Option<Outcome>]) -> Vec<String> {
        let mut errors = Vec::new();
        let cold = jobs
            .iter()
            .zip(outcomes)
            .filter(|(job, outcome)| job.class != HIT && outcome.is_some());
        for (job, outcome) in cold.take(RESUBMITS) {
            match serve_job(&self.pools[0], &Self::body(job).0, None) {
                Ok(again) => {
                    let same = Some(fnv1a(FNV_OFFSET, &again.bytes)) == outcome.map(|o| o.digest);
                    if !again.hit || !same {
                        errors.push(format!(
                            "job {}: resubmission hit = {}, bytes equal = {same}",
                            job.id, again.hit
                        ));
                    }
                }
                Err(e) => errors.push(format!("job {}: resubmission: {e}", job.id)),
            }
        }
        errors
    }
}
