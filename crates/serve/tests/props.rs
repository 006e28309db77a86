//! Property tests for the HTTP parser, spec canonicalization and queue
//! journal replay.
//!
//! The parser faces arbitrary network bytes, so its contract is "never
//! panic, never mis-frame": any byte soup yields `Ok`/`Err`, any prefix of
//! a valid request is `Partial` or an error (never a bogus `Complete`), and
//! `render ∘ parse` is the identity on the requests the client builds.
//!
//! Canonicalization carries the cache's correctness: submissions that mean
//! the same job (reordered keys, noise whitespace, comments, spelled-out
//! defaults) must hash identically, and submissions differing in any
//! semantic field — seed above all — must not.
//!
//! The queue journal is read back after a crash, from a disk anyone can
//! have touched: `Queue::open` never panics on it, and a damaged, repeated
//! or edited line costs that line only — never an earlier well-formed one.

use proptest::prelude::*;
use psr_serve::http::{parse_request, Parse, Request};
use psr_serve::queue::{JobState, Queue};
use psr_serve::request::JobRequest;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Token-name alphabet for generated methods and header names.
fn token(picks: &[usize], alphabet: &[u8]) -> String {
    picks
        .iter()
        .map(|&i| alphabet[i % alphabet.len()] as char)
        .collect()
}

/// The algorithm lines of a submission: plain, `fskmc` with its splitting
/// keys, or a `pndca` over `n` shards.
fn algorithm_lines(variant: usize, n: u32, window: f64) -> Vec<String> {
    match variant {
        0 => vec!["algorithm = ndca".to_owned()],
        1 => vec![
            "algorithm = fskmc".to_owned(),
            "splitting = strang".to_owned(),
            format!("window = {window}"),
            format!("blocks = {n}"),
        ],
        _ => vec![
            "algorithm = pndca five random-order".to_owned(),
            format!("shards = {n}"),
        ],
    }
}

proptest! {
    #[test]
    fn parser_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255, 0..2048usize),
    ) {
        let _ = parse_request(&bytes); // Ok or Err — never a panic
    }

    #[test]
    fn complete_parses_stay_within_the_buffer(
        bytes in prop::collection::vec(0u8..=255, 0..2048usize),
    ) {
        if let Ok(Parse::Complete(_, consumed)) = parse_request(&bytes) {
            prop_assert!(consumed <= bytes.len());
        }
    }

    #[test]
    fn render_parse_roundtrip(
        method_picks in prop::collection::vec(0usize..26, 1..8usize),
        path_picks in prop::collection::vec(0usize..37, 0..24usize),
        name_picks in prop::collection::vec(0usize..37, 1..16usize),
        value_picks in prop::collection::vec(0usize..95, 0..32usize),
        body in prop::collection::vec(0u8..=255, 0..256usize),
    ) {
        let method = token(&method_picks, b"ABCDEFGHIJKLMNOPQRSTUVWXYZ");
        let path = format!(
            "/{}",
            token(&path_picks, b"abcdefghijklmnopqrstuvwxyz0123456789/")
        );
        // Header names start with a letter so they can't collide with the
        // framing headers render() synthesises (content-length), and can't
        // be transfer-encoding (no 'x-' prefix there) — force the prefix.
        let header_name = format!(
            "x-{}",
            token(&name_picks, b"abcdefghijklmnopqrstuvwxyz0123456789-")
        );
        // Printable ASCII values, trimmed the way the parser trims them.
        let header_value: String = value_picks
            .iter()
            .map(|&i| (b' ' + (i % 95) as u8) as char)
            .collect();
        let header_value = header_value.trim().to_owned();
        let req = Request {
            method: method.clone(),
            target: path.clone(),
            headers: vec![(header_name.clone(), header_value.clone())],
            body: body.clone(),
        };
        let wire = req.render();
        let parsed = parse_request(&wire).expect("rendered request must parse");
        let Parse::Complete(back, consumed) = parsed else {
            panic!("rendered request must be complete");
        };
        prop_assert_eq!(consumed, wire.len());
        prop_assert_eq!(back.method, method);
        prop_assert_eq!(back.target, path);
        prop_assert_eq!(back.header(&header_name), Some(header_value.as_str()));
        prop_assert_eq!(back.body, body);
    }

    #[test]
    fn prefixes_of_valid_requests_never_misparse(cut in 0usize..64) {
        let wire = b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        let cut = cut.min(wire.len());
        match parse_request(&wire[..cut]) {
            Ok(Parse::Partial) | Err(_) => {}
            Ok(Parse::Complete(..)) => {
                prop_assert!(cut == wire.len(), "complete at {} of {}", cut, wire.len());
            }
        }
    }

    #[test]
    fn reordered_and_reformatted_specs_hash_identically(
        y in 0.1f64..0.9,
        side in 2u32..64,
        seed in 0u64..u64::MAX,
        steps in 1u64..10_000,
        shuffle in 0usize..24,
        pad in 0usize..4,
        variant in 0usize..3,
        n in 2u32..64,
        window in 0.001f64..10.0,
    ) {
        let sp = " ".repeat(pad);
        let mut lines = vec![
            format!("model ={sp}zgb {y} 5"),
            format!("side{sp}= {side}"),
            format!("seed = {seed}"),
            format!("steps = {steps} # trailing comment"),
        ];
        lines.extend(algorithm_lines(variant, n, window).into_iter().map(|l| l + &sp));
        // One of the permutations via rotation + swap, derived from `shuffle`.
        let count = lines.len();
        lines.rotate_left(shuffle % count);
        if shuffle % 2 == 1 {
            lines.swap(0, count - 1);
        }
        let shuffled = format!("# leading comment\n{}\n", lines.join("\n\n"));
        let canonical_input = format!(
            "model = zgb {y} 5\n{}\nside = {side}\nseed = {seed}\nsteps = {steps}\n",
            algorithm_lines(variant, n, window).join("\n")
        );
        let a = JobRequest::parse(&shuffled).expect("shuffled").cache_key();
        let b = JobRequest::parse(&canonical_input).expect("canonical").cache_key();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn differing_seeds_never_collide(
        seed_a in 0u64..u64::MAX,
        delta in 1u64..1_000_000,
    ) {
        // Construct a guaranteed-distinct pair instead of rejecting
        // collisions: the vendored proptest has no prop_assume.
        let seed_b = seed_a.wrapping_add(delta);
        let spec = |seed: u64| {
            JobRequest::parse(&format!(
                "model = kuzovkov\nalgorithm = ndca\nside = 10\nseed = {seed}\nsteps = 50"
            ))
            .expect("parse")
        };
        prop_assert_ne!(spec(seed_a).cache_key(), spec(seed_b).cache_key());
    }

    #[test]
    fn canonical_text_is_a_fixed_point(
        y in 0.1f64..0.9,
        side in 2u32..64,
        seed in 0u64..u64::MAX,
        steps in 1u64..10_000,
        variant in 0usize..3,
        n in 2u32..64,
        window in 0.001f64..10.0,
    ) {
        let req = JobRequest::parse(&format!(
            "model = zgb {y} 5\n{}\nside = {side}\nseed = {seed}\nsteps = {steps}",
            algorithm_lines(variant, n, window).join("\n")
        )).expect("parse");
        let canon = req.canonical_text();
        let again = JobRequest::parse(&canon).expect("reparse");
        prop_assert_eq!(&again, &req);
        prop_assert_eq!(again.canonical_text(), canon);
    }
}

/// A fresh `queue.jsonl` path (tests and proptest cases run concurrently).
fn journal_path() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "psr_serve_props_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join("queue.jsonl")
}

fn job(seed: u64) -> JobRequest {
    JobRequest::parse(&format!(
        "model = zgb 0.5 5\nalgorithm = ndca\nside = 10\nseed = {seed}\nsteps = 20"
    ))
    .expect("request")
}

/// What replay is judged by: `(tenant, key, state)` of ids 1–4, and the
/// in-flight count (which a job pushed twice would raise).
type Replayed = (Vec<Option<(String, String, JobState)>>, usize);

fn replay(journal: &[u8]) -> Replayed {
    let path = journal_path();
    std::fs::write(&path, journal).expect("write journal");
    let q = Queue::open(&path).expect("open");
    let jobs = (1..=4)
        .map(|id| q.status(id).map(|j| (j.tenant, j.key, j.state)))
        .collect();
    let replayed = (jobs, q.in_flight());
    drop(q);
    let _ = std::fs::remove_dir_all(path.parent().expect("dir"));
    replayed
}

/// A journal the queue wrote itself: 1 and 3 (the same spec, two tenants)
/// done, 2 failed, 4 pending — seven lines.
fn journal() -> Vec<u8> {
    let path = journal_path();
    let q = Queue::open(&path).expect("open");
    q.submit("a", &job(1)).expect("1");
    q.submit("a", &job(2)).expect("2");
    q.submit("b", &job(1)).expect("3");
    let first = q.take().expect("take");
    q.complete_key(&first.key).expect("complete");
    let second = q.take().expect("take");
    q.fail_key(&second.key, "boom").expect("fail");
    q.submit("b", &job(4)).expect("4");
    drop(q);
    let bytes = std::fs::read(&path).expect("read");
    let _ = std::fs::remove_dir_all(path.parent().expect("dir"));
    assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), 7);
    bytes
}

fn lines(journal: &[u8]) -> Vec<&[u8]> {
    journal.split_inclusive(|&b| b == b'\n').collect()
}

#[test]
fn journal_replays_to_what_the_queue_held() {
    let (jobs, in_flight) = replay(&journal());
    let states: Vec<JobState> = jobs.into_iter().map(|j| j.expect("replayed").2).collect();
    assert_eq!(
        states,
        vec![
            JobState::Done,
            JobState::Failed("boom".to_owned()),
            JobState::Done,
            JobState::Pending
        ]
    );
    assert_eq!(in_flight, 1);
}

#[test]
fn an_edited_key_is_rederived_from_the_spec() {
    let clean = journal();
    let other = job(2).cache_key();
    let text = String::from_utf8(clean.clone()).expect("utf-8");
    let edited = text.replacen(&job(1).cache_key(), &other, 1);
    assert_ne!(edited, text);
    assert_eq!(replay(edited.as_bytes()), replay(&clean));
}

#[test]
fn the_largest_id_neither_overflows_replay_nor_is_reissued() {
    let mut bytes = journal();
    let text = String::from_utf8(lines(&bytes)[0].to_vec()).expect("utf-8");
    bytes.extend_from_slice(
        text.replacen("\"id\":1,", "\"id\":18446744073709551615,", 1)
            .as_bytes(),
    );
    let path = journal_path();
    std::fs::write(&path, &bytes).expect("write");
    let q = Queue::open(&path).expect("open");
    assert_eq!(
        q.status(u64::MAX).expect("replayed").state,
        JobState::Pending
    );
    assert!(q.submit("a", &job(9)).is_err(), "no id is left to hand out");
    assert_eq!(q.status(4).expect("4").state, JobState::Pending);
    drop(q);
    let _ = std::fs::remove_dir_all(path.parent().expect("dir"));
}

proptest! {
    // A line of bytes that are not UTF-8 costs that line only. (Read as one
    // string, the whole journal was dropped — then appended to.)
    #[test]
    fn a_non_utf8_line_costs_only_itself(
        at in 0usize..8,
        junk in prop::collection::vec(0x80u8..=0xff, 1..40usize),
    ) {
        let clean = journal();
        let mut dirty = Vec::new();
        for (i, line) in lines(&clean).into_iter().enumerate() {
            if i == at {
                dirty.extend_from_slice(&junk);
                dirty.push(b'\n');
            }
            dirty.extend_from_slice(line);
        }
        if at == 7 {
            dirty.extend_from_slice(&junk); // torn, unterminated tail
        }
        prop_assert_eq!(replay(&dirty), replay(&clean));
    }

    // Any line written again anywhere later changes nothing: a repeated
    // `submit` is not a second job, a repeated `done` is idempotent.
    #[test]
    fn duplicated_lines_change_nothing(which in 0usize..7, gap in 0usize..7) {
        let clean = journal();
        let mut all = lines(&clean);
        let again = all[which];
        let at = (which + 1 + gap).min(all.len());
        all.insert(at, again);
        prop_assert_eq!(replay(&all.concat()), replay(&clean));
    }

    // Truncated anywhere, replay keeps exactly the whole lines before the cut.
    #[test]
    fn truncation_keeps_every_whole_line(cut in 0usize..4096) {
        let clean = journal();
        let cut = cut % (clean.len() + 1);
        let whole: Vec<u8> = lines(&clean)
            .into_iter()
            .scan(0, |end, line| {
                *end += line.len();
                Some((*end, line))
            })
            .take_while(|&(end, _)| end <= cut)
            .flat_map(|(_, line)| line.iter().copied())
            .collect();
        prop_assert_eq!(replay(&clean[..cut]), replay(&whole));
    }

    // Bytes overwritten at random: Ok or Err, never a panic — and every
    // submission journaled before the damage still replays.
    #[test]
    fn mutated_journals_never_panic_and_keep_earlier_lines(
        at in 0usize..4096,
        junk in prop::collection::vec(0u8..=255, 1..16usize),
    ) {
        let clean = journal();
        let at = at % clean.len();
        let mut dirty = clean.clone();
        for (slot, byte) in dirty[at..].iter_mut().zip(&junk) {
            // Line boundaries stay put, so "before the damage" is decidable.
            if *slot != b'\n' && *byte != b'\n' {
                *slot = *byte;
            }
        }
        let (jobs, _) = replay(&dirty);
        let (expected, _) = replay(&clean);
        let mut end = 0;
        // Lines 0, 1, 2 and 6 are the submits of ids 1, 2, 3 and 4.
        for (line, id) in lines(&clean).into_iter().zip([1, 2, 3, 0, 0, 0, 4]) {
            end += line.len();
            if id != 0 && end <= at {
                let got = jobs[id - 1].as_ref().map(|j| (&j.0, &j.1));
                let want = expected[id - 1].as_ref().map(|j| (&j.0, &j.1));
                prop_assert_eq!(got, want);
            }
        }
    }
}
