//! End-to-end API tests against in-process servers on real sockets.

use psr_serve::client;
use psr_serve::json;
use psr_serve::server::{start, ServerConfig, ServerHandle};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

const T: Duration = Duration::from_secs(20);

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("psr_serve_api_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn server(tag: &str, tweak: impl FnOnce(&mut ServerConfig)) -> ServerHandle {
    let mut cfg = ServerConfig {
        state_dir: state_dir(tag),
        workers: 2,
        ..ServerConfig::default()
    };
    tweak(&mut cfg);
    start(cfg, Arc::new(AtomicBool::new(false))).expect("start server")
}

fn spec(seed: u64, steps: u64) -> String {
    format!("model = zgb 0.51 5\nalgorithm = ndca\nside = 12\nseed = {seed}\nsteps = {steps}\n")
}

/// Submit and return `(id, key, cached)`.
fn submit(addr: &str, tenant: &str, body: &str) -> (u64, String, bool) {
    let resp = client::post(
        addr,
        "/v1/jobs",
        &[("x-tenant", tenant)],
        body.as_bytes(),
        T,
    )
    .expect("submit");
    assert!(
        resp.status == 200 || resp.status == 202,
        "submit: {} {}",
        resp.status,
        resp.text()
    );
    let v = json::parse(resp.text().trim()).expect("submit body");
    (
        v.get("id").and_then(json::Value::as_u64).expect("id"),
        v.get("key")
            .and_then(json::Value::as_str)
            .expect("key")
            .to_owned(),
        v.get("cached")
            .and_then(json::Value::as_bool)
            .expect("cached"),
    )
}

fn wait_done(addr: &str, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let resp = client::get(addr, &format!("/v1/jobs/{id}"), T).expect("status");
        let v = json::parse(resp.text().trim()).expect("status body");
        match v.get("status").and_then(json::Value::as_str) {
            Some("done") => return,
            Some("failed") => panic!("job {id} failed: {}", resp.text()),
            _ => {
                assert!(Instant::now() < deadline, "job {id} never finished");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn result_bytes(addr: &str, id: u64) -> Vec<u8> {
    let resp = client::get(addr, &format!("/v1/jobs/{id}/result"), T).expect("result");
    assert_eq!(resp.status, 200, "{}", resp.text());
    resp.body
}

#[test]
fn cached_response_is_byte_identical_to_fresh_across_servers() {
    let h1 = server("bits1", |_| {});
    let addr1 = h1.addr.to_string();
    let body = spec(42, 100);

    // Fresh run on server 1.
    let (id_fresh, key, cached) = submit(&addr1, "a", &body);
    assert!(!cached);
    wait_done(&addr1, id_fresh);
    let fresh = result_bytes(&addr1, id_fresh);
    assert!(!fresh.is_empty());

    // Same spec again: a cache hit, done immediately, same bytes.
    let (id_hit, key2, cached) = submit(&addr1, "b", &body);
    assert!(cached, "second submission must hit the cache");
    assert_eq!(key, key2);
    let hit = result_bytes(&addr1, id_hit);
    assert_eq!(hit, fresh, "cached response must be byte-identical");

    // The content address serves the same bytes directly.
    let by_key = client::get(&addr1, &format!("/v1/results/{key}"), T).expect("by key");
    assert_eq!(by_key.status, 200);
    assert_eq!(by_key.body, fresh);
    h1.shutdown_and_join();

    // A brand-new server (fresh state) computes identical bytes.
    let h2 = server("bits2", |_| {});
    let addr2 = h2.addr.to_string();
    let (id2, _, cached) = submit(&addr2, "c", &body);
    assert!(!cached);
    wait_done(&addr2, id2);
    assert_eq!(
        result_bytes(&addr2, id2),
        fresh,
        "fresh recomputation on another server must be byte-identical"
    );
    h2.shutdown_and_join();
}

#[test]
fn overload_returns_429_with_retry_after_and_cache_hits_bypass() {
    let h = server("shed", |cfg| {
        cfg.workers = 1;
        cfg.queue_cap = 1;
    });
    let addr = h.addr.to_string();

    // Prime the cache with a tiny job while the queue is empty.
    let hot = spec(7, 20);
    let (hot_id, _, _) = submit(&addr, "a", &hot);
    wait_done(&addr, hot_id);

    // Fill the queue past the high-water mark with slow jobs.
    let slow = spec(1, 50_000);
    let (_, _, cached) = submit(&addr, "a", &slow);
    assert!(!cached);
    let mut saw_429 = false;
    for seed in 2..12 {
        let resp = client::post(
            &addr,
            "/v1/jobs",
            &[("x-tenant", "a")],
            spec(seed, 50_000).as_bytes(),
            T,
        )
        .expect("submit");
        if resp.status == 429 {
            assert_eq!(
                resp.header("retry-after"),
                Some("1"),
                "429 must carry Retry-After"
            );
            saw_429 = true;
            break;
        }
        assert_eq!(resp.status, 202);
    }
    assert!(saw_429, "the bounded queue must shed load");

    // A cache hit is still served while the queue is saturated.
    let resp = client::post(&addr, "/v1/jobs", &[("x-tenant", "b")], hot.as_bytes(), T)
        .expect("hit submit");
    assert_eq!(resp.status, 200, "cache hits must bypass load-shedding");
    let v = json::parse(resp.text().trim()).expect("body");
    assert_eq!(v.get("cached").and_then(json::Value::as_bool), Some(true));
    h.shutdown_and_join();
}

#[test]
fn stream_tails_observables_and_matches_the_result() {
    let h = server("stream", |_| {});
    let addr = h.addr.to_string();
    let (id, _, _) = submit(&addr, "a", &spec(5, 200));
    // Stream while running: the chunked body must equal the final result.
    let streamed = client::get(
        &addr,
        &format!("/v1/jobs/{id}/stream"),
        Duration::from_secs(90),
    )
    .expect("stream");
    assert_eq!(streamed.status, 200);
    wait_done(&addr, id);
    let result = result_bytes(&addr, id);
    assert_eq!(
        streamed.body, result,
        "streamed JSONL must equal the stored result"
    );
    // Every line is valid JSON with monotonically increasing steps.
    let text = String::from_utf8(result).expect("utf8");
    let steps: Vec<u64> = text
        .lines()
        .map(|l| {
            json::parse(l)
                .expect("line")
                .get("step")
                .and_then(json::Value::as_u64)
                .expect("step")
        })
        .collect();
    assert!(
        steps.windows(2).all(|w| w[0] < w[1]),
        "steps must increase: {steps:?}"
    );
    assert_eq!(*steps.last().expect("line"), 200);
    h.shutdown_and_join();
}

#[test]
fn fskmc_submission_is_accepted_and_matches_the_engine() {
    use psr_engine::{BlockObserver, CheckpointStore, JobRun, Journal, Registry};
    use psr_serve::request::JobRequest;
    use std::sync::Mutex;

    const BODY: &str = "model = zgb 0.51 5\nalgorithm = fskmc\nside = 16\nseed = 3\nsteps = 12\n\
                        checkpoint_every = 4\nsplitting = strang\nwindow = 0.25\nblocks = 4\n";
    let h = server("fskmc", |_| {});
    let addr = h.addr.to_string();
    let resp = client::post(&addr, "/v1/jobs", &[], BODY.as_bytes(), T).expect("submit");
    assert_eq!(resp.status, 202, "{}", resp.text());
    let id = json::parse(resp.text().trim())
        .expect("submit body")
        .get("id")
        .and_then(json::Value::as_u64)
        .expect("id");
    wait_done(&addr, id);
    let served = result_bytes(&addr, id);
    // The handler thread survived canonicalising an fskmc spec.
    assert_eq!(
        client::get(&addr, "/healthz", T).expect("healthz").status,
        200
    );
    h.shutdown_and_join();

    // The same job straight through psr-engine, one line per checkpoint.
    struct Lines(usize, Mutex<Vec<u8>>);
    impl BlockObserver for Lines {
        fn on_checkpoint(&self, _job: &str, ck: &psr_core::SessionCheckpoint, _done: bool) {
            let mut out = self.1.lock().expect("lines lock");
            out.extend_from_slice(psr_serve::observe::line(self.0, ck).as_bytes());
            out.push(b'\n');
        }
    }
    let spec = JobRequest::parse(BODY)
        .expect("parse")
        .to_job_spec("direct");
    let dir = state_dir("fskmc_direct");
    let lines = Lines(spec.model.build().species().len(), Mutex::new(Vec::new()));
    JobRun {
        spec: &spec,
        store: &CheckpointStore::open(&dir).expect("store"),
        journal: &Journal::create(&dir.join("journal.jsonl")).expect("journal"),
        metrics: &Registry::new(),
        cancel: &AtomicBool::new(false),
        deadline: None,
        ignore_faults: true,
        attempt: 0,
        observer: &lines,
    }
    .run()
    .expect("direct run");
    let direct = lines.1.into_inner().expect("lines lock");
    assert_eq!(direct.iter().filter(|&&b| b == b'\n').count(), 3);
    assert_eq!(served, direct, "served bytes must be the engine's");
}

#[test]
fn bad_submissions_get_400_with_line_numbers() {
    let h = server("bad", |_| {});
    let addr = h.addr.to_string();
    let resp = client::post(
        &addr,
        "/v1/jobs",
        &[],
        b"model = zgb 0.5 5\nalgorithm = warp\nside = 10\nsteps = 5",
        T,
    )
    .expect("submit");
    assert_eq!(resp.status, 400);
    assert!(
        resp.text().contains("line 2"),
        "error must cite the offending line: {}",
        resp.text()
    );
    // Oversized work is rejected up front.
    let resp =
        client::post(&addr, "/v1/jobs", &[], spec(1, 100_000_000).as_bytes(), T).expect("submit");
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("exceeds cap"), "{}", resp.text());
    h.shutdown_and_join();
}

#[test]
fn status_metrics_and_health_endpoints_respond() {
    let h = server("metrics", |_| {});
    let addr = h.addr.to_string();
    assert_eq!(
        client::get(&addr, "/healthz", T).expect("healthz").status,
        200
    );
    let (id, key, _) = submit(&addr, "acme", &spec(9, 40));
    wait_done(&addr, id);
    let resp = client::get(&addr, &format!("/v1/jobs/{id}"), T).expect("status");
    let v = json::parse(resp.text().trim()).expect("body");
    assert_eq!(v.get("tenant").and_then(json::Value::as_str), Some("acme"));
    assert_eq!(
        v.get("key").and_then(json::Value::as_str),
        Some(key.as_str())
    );
    let metrics = client::get(&addr, "/metrics", T).expect("metrics").text();
    assert!(metrics.contains("c.serve.completed 1"), "{metrics}");
    assert!(metrics.contains("g.serve.cache_entries 1"), "{metrics}");
    assert!(metrics.contains("h.serve.request_us"), "{metrics}");
    assert_eq!(
        client::get(&addr, "/v1/jobs/999", T).expect("404").status,
        404
    );
    assert_eq!(client::get(&addr, "/nope", T).expect("404").status, 404);
    h.shutdown_and_join();
}

#[test]
fn draining_server_refuses_new_submissions() {
    let h = server("drainrefuse", |_| {});
    let addr = h.addr.to_string();
    let (id, _, _) = submit(&addr, "a", &spec(3, 40));
    wait_done(&addr, id);
    h.shutdown();
    // The accept loop may take a poll interval to notice; the queue flag
    // flips with it. Poll briefly for the 503.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match client::post(&addr, "/v1/jobs", &[], spec(99, 40).as_bytes(), T) {
            Ok(resp) if resp.status == 503 => break,
            Ok(_) | Err(_) if Instant::now() > deadline => break, // closed entirely is fine too
            Err(_) => break,                                      // connection refused: drained
            Ok(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    h.join();
}
