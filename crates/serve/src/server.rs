//! The HTTP server: accept loop, routing, backpressure, graceful drain.
//!
//! One thread polls a non-blocking listener; each accepted connection gets
//! a handler thread (bounded — over the cap the server answers 503 without
//! reading the request). Load-shedding happens at submission: once pending
//! plus running jobs reach `queue_cap` the server answers 429 with
//! `Retry-After`, *except* for specs already in the cache, which cost no
//! worker time and are always served. Shutdown (a signal, or
//! [`ServerHandle::shutdown`]) stops accepting, drains the queue — workers
//! checkpoint in-flight jobs — and joins everything before returning.
//!
//! ## Endpoints
//!
//! | Method/path | Purpose |
//! |---|---|
//! | `POST /v1/jobs` | submit a spec (`X-Tenant` header names the tenant) |
//! | `GET /v1/jobs/<id>` | submission status |
//! | `GET /v1/jobs/<id>/result` | finished observables (JSONL) |
//! | `GET /v1/jobs/<id>/stream` | chunked JSONL, tailing a running job |
//! | `GET /v1/results/<key>` | cache lookup by content address |
//! | `GET /metrics` | registry snapshot (text) |
//! | `GET /healthz` | liveness |

use crate::cache::ResultCache;
use crate::http::{self, Parse, Request};
use crate::queue::{JobState, Queue};
use crate::request::JobRequest;
use crate::worker::{self, Ctx};
use psr_engine::{CheckpointStore, Journal, JsonLine, Registry};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server settings.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a random port).
    pub addr: String,
    /// State directory: queue journal, checkpoints, partials, cache.
    pub state_dir: PathBuf,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// High-water mark: submissions past this many in-flight jobs get 429.
    pub queue_cap: usize,
    /// Result cache budget in bytes.
    pub cache_bytes: u64,
    /// Largest accepted lattice side.
    pub max_side: u32,
    /// Largest accepted step count.
    pub max_steps: u64,
    /// Concurrent connection cap (beyond it: 503 and close).
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            state_dir: PathBuf::from("serve-state"),
            workers: 2,
            queue_cap: 64,
            cache_bytes: 64 << 20,
            max_side: 512,
            max_steps: 1_000_000,
            max_connections: 64,
        }
    }
}

/// A started server: bound address plus the handle to stop it.
pub struct ServerHandle {
    /// The actual bound address (port resolved).
    pub addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl ServerHandle {
    /// Request shutdown: drain the queue (checkpointing in-flight jobs)
    /// and stop accepting.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Request shutdown and wait for the drain to finish.
    pub fn shutdown_and_join(self) {
        self.shutdown();
        let _ = self.thread.join();
    }

    /// Wait for the server to exit (e.g. after an external signal).
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

/// Bind, recover state, spawn workers, and serve until shutdown.
///
/// `external_stop` is polled alongside the handle's own flag so a process
/// signal handler can drive the drain; pass a never-set flag when unused.
///
/// # Errors
///
/// Bind/state-directory I/O errors. Everything after a successful return is
/// reported through the journal and `/metrics`.
pub fn start(cfg: ServerConfig, external_stop: Arc<AtomicBool>) -> std::io::Result<ServerHandle> {
    std::fs::create_dir_all(&cfg.state_dir)?;
    let partials = cfg.state_dir.join("partials");
    std::fs::create_dir_all(&partials)?;
    let ctx = Arc::new(Ctx {
        queue: Queue::open(&cfg.state_dir.join("queue.jsonl"))?,
        cache: ResultCache::open(&cfg.state_dir.join("cache"), cfg.cache_bytes)?,
        store: CheckpointStore::open(&cfg.state_dir.join("ckpts"))?,
        journal: Journal::append(&cfg.state_dir.join("serve.jsonl"))?,
        metrics: Registry::new(),
        cancel: AtomicBool::new(false),
        partials,
    });
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    // Random-port discovery for scripts and tests.
    std::fs::write(cfg.state_dir.join("addr"), addr.to_string())?;
    ctx.journal.log(
        JsonLine::event("serve_start")
            .str("addr", &addr.to_string())
            .u64("workers", cfg.workers as u64)
            .u64("queue_cap", cfg.queue_cap as u64)
            .u64("recovered_jobs", ctx.queue.in_flight() as u64),
    );
    let shutdown = Arc::new(AtomicBool::new(false));
    let thread = {
        let shutdown = Arc::clone(&shutdown);
        std::thread::Builder::new()
            .name("psr-serve-accept".to_owned())
            .spawn(move || accept_loop(listener, cfg, ctx, shutdown, external_stop))
            .expect("spawn accept loop")
    };
    Ok(ServerHandle {
        addr,
        shutdown,
        thread,
    })
}

/// One of the `max_connections` handler slots, given back on drop — so
/// also when the handler thread unwinds from a panic.
struct ConnSlot(Arc<AtomicUsize>);

impl ConnSlot {
    fn take(connections: &Arc<AtomicUsize>) -> Self {
        connections.fetch_add(1, Ordering::SeqCst);
        ConnSlot(Arc::clone(connections))
    }
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn accept_loop(
    listener: TcpListener,
    cfg: ServerConfig,
    ctx: Arc<Ctx>,
    shutdown: Arc<AtomicBool>,
    external_stop: Arc<AtomicBool>,
) {
    let workers = worker::spawn_workers(cfg.workers, &ctx);
    let connections = Arc::new(AtomicUsize::new(0));
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !(shutdown.load(Ordering::SeqCst) || external_stop.load(Ordering::SeqCst)) {
        match listener.accept() {
            Ok((stream, _)) => {
                ctx.metrics.counter("serve.connections").add(1);
                if connections.load(Ordering::SeqCst) >= cfg.max_connections {
                    ctx.metrics.counter("serve.shed_503").add(1);
                    let _ = respond_oneshot(stream, 503, b"connection limit reached\n");
                    continue;
                }
                let slot = ConnSlot::take(&connections);
                let ctx = Arc::clone(&ctx);
                let cfg = cfg.clone();
                let h = std::thread::Builder::new()
                    .name("psr-serve-conn".to_owned())
                    .spawn(move || {
                        let _slot = slot;
                        handle_connection(stream, &cfg, &ctx);
                    })
                    .expect("spawn handler");
                handlers.push(h);
                handlers.retain(|h| !h.is_finished());
            }
            // Short poll: this sleep bounds connection-accept latency,
            // which is the floor under every cache-hit response.
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    // Graceful drain: interrupt running jobs at their next checkpoint,
    // stop the workers, then journal the shutdown.
    ctx.cancel.store(true, Ordering::SeqCst);
    ctx.queue.drain();
    for w in workers {
        let _ = w.join();
    }
    for h in handlers {
        let _ = h.join();
    }
    ctx.journal
        .log(JsonLine::event("serve_stop").u64("in_flight", ctx.queue.in_flight() as u64));
}

fn respond_oneshot(mut stream: TcpStream, status: u16, body: &[u8]) -> std::io::Result<()> {
    stream.write_all(&http::response(
        status,
        &[("content-type", "text/plain")],
        body,
    ))
}

/// Read one request off the stream (bounded size, bounded time). `buf`
/// persists across requests on a keep-alive connection — a pipelined
/// second request's bytes stay buffered for the next call. `Ok(None)` is
/// a clean close (EOF or idle timeout between requests).
fn read_request(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Result<Option<Request>, String> {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut chunk = [0u8; 4096];
    loop {
        match crate::http::parse_request(buf)? {
            Parse::Complete(req, consumed) => {
                buf.drain(..consumed);
                return Ok(Some(req));
            }
            Parse::Partial => {}
        }
        match stream.read(&mut chunk) {
            Ok(0) if buf.is_empty() => return Ok(None),
            Ok(0) => return Err("connection closed mid-request".to_owned()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            // An idle keep-alive connection timing out between requests is
            // a clean close, not a protocol error.
            Err(_) if buf.is_empty() => return Ok(None),
            Err(e) => return Err(format!("read: {e}")),
        }
    }
}

/// Serve requests off one connection until the peer closes, asks to
/// close, errors, or takes a streamed response (which advertises
/// `Connection: close`).
fn handle_connection(mut stream: TcpStream, cfg: &ServerConfig, ctx: &Ctx) {
    let mut buf = Vec::new();
    loop {
        let req = match read_request(&mut stream, &mut buf) {
            Ok(Some(r)) => r,
            Ok(None) => return,
            Err(e) => {
                let _ = stream.write_all(&http::response(
                    400,
                    &[("content-type", "text/plain")],
                    format!("{e}\n").as_bytes(),
                ));
                return;
            }
        };
        ctx.metrics.counter("serve.http_requests").add(1);
        let t0 = Instant::now();
        let close = req
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"));
        let out = route(&req, &mut stream, cfg, ctx);
        ctx.metrics
            .histogram("serve.request_us")
            .record(t0.elapsed().as_micros() as u64);
        match out {
            Some(bytes) => {
                if stream.write_all(&bytes).is_err() {
                    return;
                }
            }
            None => return, // streamed chunked response; it closes
        }
        if close {
            return;
        }
    }
}

fn json_response(status: u16, line: JsonLine) -> Vec<u8> {
    let mut body = line.finish();
    body.push('\n');
    http::response(
        status,
        &[("content-type", "application/json")],
        body.as_bytes(),
    )
}

fn error_response(status: u16, msg: &str) -> Vec<u8> {
    json_response(status, JsonLine::object().str("error", msg))
}

fn job_status_line(job: &crate::queue::Job, ctx: &Ctx) -> JsonLine {
    let mut line = JsonLine::object()
        .u64("id", job.id)
        .str("key", &job.key)
        .str("tenant", &job.tenant)
        .str("status", job.state.as_str());
    if let JobState::Failed(msg) = &job.state {
        line = line.str("error", msg);
    }
    // The runner publishes per-job progress as a gauge named by the key.
    let step = ctx.metrics.gauge(&format!("job.{}.step", job.key)).get();
    if step > 0.0 {
        line = line.u64("step", step as u64);
    }
    line
}

/// Dispatch one request. Returns the response bytes, or `None` when the
/// handler streamed its response itself.
fn route(req: &Request, stream: &mut TcpStream, cfg: &ServerConfig, ctx: &Ctx) -> Option<Vec<u8>> {
    let path = req.path().to_owned();
    let segs: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    Some(match (req.method.as_str(), segs.as_slice()) {
        ("GET", ["healthz"]) => http::response(200, &[("content-type", "text/plain")], b"ok\n"),
        ("GET", ["metrics"]) => render_metrics(ctx),
        ("POST", ["v1", "jobs"]) => submit(req, cfg, ctx),
        ("GET", ["v1", "jobs", id]) => {
            match id.parse::<u64>().ok().and_then(|i| ctx.queue.status(i)) {
                Some(job) => json_response(200, job_status_line(&job, ctx)),
                None => error_response(404, "no such job"),
            }
        }
        ("GET", ["v1", "jobs", id, "result"]) => {
            match id.parse::<u64>().ok().and_then(|i| ctx.queue.status(i)) {
                Some(job) => match &job.state {
                    JobState::Done => match ctx.cache.get(&job.key) {
                        Some(bytes) => {
                            ctx.metrics.counter("serve.hits").add(1);
                            http::response(200, &[("content-type", "application/jsonl")], &bytes)
                        }
                        // Done but evicted: the spec still reproduces it.
                        None => error_response(410, "result evicted; resubmit to regenerate"),
                    },
                    JobState::Failed(msg) => error_response(500, msg),
                    _ => error_response(404, "not finished"),
                },
                None => error_response(404, "no such job"),
            }
        }
        ("GET", ["v1", "jobs", id, "stream"]) => {
            match id.parse::<u64>().ok().and_then(|i| ctx.queue.status(i)) {
                Some(job) => {
                    stream_job(stream, ctx, job.id);
                    return None;
                }
                None => error_response(404, "no such job"),
            }
        }
        ("GET", ["v1", "results", key]) => {
            if key.len() != 64 || !key.bytes().all(|b| b.is_ascii_hexdigit()) {
                error_response(400, "keys are 64 hex chars")
            } else {
                match ctx.cache.get(key) {
                    Some(bytes) => {
                        ctx.metrics.counter("serve.hits").add(1);
                        http::response(200, &[("content-type", "application/jsonl")], &bytes)
                    }
                    None => {
                        ctx.metrics.counter("serve.misses").add(1);
                        error_response(404, "not cached")
                    }
                }
            }
        }
        ("GET" | "POST", _) => error_response(404, "no such endpoint"),
        _ => error_response(405, "method not allowed"),
    })
}

fn submit(req: &Request, cfg: &ServerConfig, ctx: &Ctx) -> Vec<u8> {
    if ctx.queue.is_draining() {
        return error_response(503, "server is draining");
    }
    let tenant = req
        .header("x-tenant")
        .or_else(|| req.query_param("tenant"))
        .unwrap_or("anon")
        .to_owned();
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return error_response(400, "body must be UTF-8");
    };
    let job = match JobRequest::parse(body) {
        Ok(j) => j,
        Err(e) => return error_response(400, &e),
    };
    if job.side > cfg.max_side {
        return error_response(
            400,
            &format!("side {} exceeds cap {}", job.side, cfg.max_side),
        );
    }
    if job.steps > cfg.max_steps {
        return error_response(
            400,
            &format!("steps {} exceeds cap {}", job.steps, cfg.max_steps),
        );
    }
    let key = job.cache_key();
    // Cache hits bypass load-shedding: they cost no worker time.
    if ctx.cache.contains(&key) {
        ctx.metrics.counter("serve.hits").add(1);
        return match ctx.queue.submit_done(&tenant, &job) {
            Ok(id) => json_response(
                200,
                JsonLine::object()
                    .u64("id", id)
                    .str("key", &key)
                    .str("status", "done")
                    .bool("cached", true),
            ),
            Err(e) => error_response(500, &format!("journal: {e}")),
        };
    }
    if ctx.queue.in_flight() >= cfg.queue_cap {
        ctx.metrics.counter("serve.shed_429").add(1);
        let mut body = JsonLine::object()
            .str("error", "queue is full; retry later")
            .finish();
        body.push('\n');
        return http::response(
            429,
            &[("content-type", "application/json"), ("retry-after", "1")],
            body.as_bytes(),
        );
    }
    ctx.metrics.counter("serve.misses").add(1);
    match ctx.queue.submit(&tenant, &job) {
        Ok(id) => {
            ctx.metrics.counter("serve.submitted").add(1);
            ctx.metrics
                .gauge("serve.queue_depth")
                .set(ctx.queue.in_flight() as f64);
            json_response(
                202,
                JsonLine::object()
                    .u64("id", id)
                    .str("key", &key)
                    .str("status", "pending")
                    .bool("cached", false),
            )
        }
        Err(e) => error_response(500, &format!("journal: {e}")),
    }
}

/// Tail a job's observables as chunked JSONL until it finishes (or a
/// 60 s safety timeout).
fn stream_job(stream: &mut TcpStream, ctx: &Ctx, id: u64) {
    let _ = stream.write_all(&http::chunked_head(
        200,
        &[("content-type", "application/jsonl")],
    ));
    let mut sent = 0usize;
    let deadline = Instant::now() + Duration::from_secs(60);
    while let Some(job) = ctx.queue.status(id) {
        let finished = matches!(job.state, JobState::Done | JobState::Failed(_));
        // Once done the partial has moved into the cache; prefer it.
        let bytes = if job.state == JobState::Done {
            ctx.cache.get(&job.key).unwrap_or_default()
        } else {
            ctx.partial(&job.key).read().unwrap_or_default()
        };
        if bytes.len() > sent && stream.write_all(&http::chunk(&bytes[sent..])).is_err() {
            return; // client went away
        }
        sent = sent.max(bytes.len());
        if finished || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let _ = stream.write_all(http::last_chunk());
}

fn render_metrics(ctx: &Ctx) -> Vec<u8> {
    ctx.metrics
        .gauge("serve.queue_depth")
        .set(ctx.queue.in_flight() as f64);
    let (entries, bytes) = ctx.cache.stats();
    ctx.metrics.gauge("serve.cache_entries").set(entries as f64);
    ctx.metrics.gauge("serve.cache_bytes").set(bytes as f64);
    let snap = ctx.metrics.snapshot();
    let mut out = String::new();
    for (k, v) in &snap.counters {
        out.push_str(&format!("c.{k} {v}\n"));
    }
    for (k, v) in &snap.gauges {
        out.push_str(&format!("g.{k} {v}\n"));
    }
    for (k, s) in &snap.histograms {
        out.push_str(&format!(
            "h.{k} count={} p50={} p95={} p99={}\n",
            s.count, s.p50, s.p95, s.p99
        ));
    }
    http::response(200, &[("content-type", "text/plain")], out.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_handler_gives_its_connection_slot_back() {
        let connections = Arc::new(AtomicUsize::new(0));
        let slot = ConnSlot::take(&connections);
        assert_eq!(connections.load(Ordering::SeqCst), 1);
        let handler = std::thread::spawn(move || {
            let _slot = slot;
            panic!("handler bug");
        });
        assert!(handler.join().is_err(), "the handler must have panicked");
        assert_eq!(connections.load(Ordering::SeqCst), 0);
    }
}
