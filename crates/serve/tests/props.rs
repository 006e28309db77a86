//! Property tests for the HTTP parser and spec canonicalization.
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

use proptest::prelude::*;
use psr_serve::http::{parse_request, Parse, Request};
use psr_serve::request::JobRequest;

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
