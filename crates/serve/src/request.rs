//! Job submissions and their canonical, content-addressed form.
//!
//! A submission is the body of `POST /v1/jobs`: `key = value` lines naming
//! a model, algorithm, lattice side, seed, steps — the single-job subset of
//! the engine's batch format. Two submissions that mean the same job must
//! be served from the same cache entry, so the cache key is not a hash of
//! the raw text but of a *canonical* rendering: keys sorted, whitespace and
//! comments gone, defaults resolved, numbers re-rendered from their parsed
//! values (so `0.50` and `0.5` agree) — then SHA-256. Trajectories are a
//! pure function of the canonical fields, which is what makes the cache
//! semantically lossless.
//!
//! `checkpoint_every` is part of the key: observables are sampled on the
//! checkpoint grid, so the grid shapes the result bytes. The tenant is
//! deliberately *not* part of the key — identical physics is shared across
//! tenants; only scheduling is per-tenant.

use crate::sha256::sha256_hex;
use psr_engine::JobSpec;

/// The job keys a submission may set: the engine's, less `transport` (an
/// execution choice the server makes) and the fault-injection keys.
const KEYS: [&str; 10] = [
    "algorithm",
    "blocks",
    "checkpoint_every",
    "model",
    "seed",
    "shards",
    "side",
    "splitting",
    "steps",
    "window",
];

/// A parsed, validated job submission: an unnamed engine [`JobSpec`].
#[derive(Clone, Debug, PartialEq)]
pub struct JobRequest(JobSpec);

impl std::ops::Deref for JobRequest {
    type Target = JobSpec;

    fn deref(&self) -> &JobSpec {
        &self.0
    }
}

impl JobRequest {
    /// Parse a submission body.
    ///
    /// # Errors
    ///
    /// Reports the first problem with its line number (server clients need
    /// a position to fix a rejected spec).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut keys: Vec<(&str, &str, usize)> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let lineno = lineno + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or(format!("line {lineno}: expected `key = value`"))?;
            let (key, value) = (key.trim(), value.trim());
            if keys.iter().any(|(k, _, _)| *k == key) {
                return Err(format!("line {lineno}: duplicate key `{key}`"));
            }
            if !KEYS.contains(&key) {
                return Err(format!("line {lineno}: unknown key `{key}`"));
            }
            keys.push((key, value, lineno));
        }
        // Named only so the engine's validation has something to print.
        let spec = JobSpec::from_keys("probe", keys).map_err(|(line, e)| match line {
            Some(line) => format!("line {line}: {e}"),
            None => e,
        })?;
        spec.validate()?;
        Ok(JobRequest(spec))
    }

    /// Content address: SHA-256 of the spec's
    /// [`canonical_text`](JobSpec::canonical_text), lowercase hex.
    pub fn cache_key(&self) -> String {
        sha256_hex(self.canonical_text().as_bytes())
    }

    /// Materialise the engine job spec this request describes.
    pub fn to_job_spec(&self, name: &str) -> JobSpec {
        JobSpec {
            name: name.to_owned(),
            ..self.0.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BODY: &str = "
model = zgb 0.51 5
algorithm = pndca five random-order
side = 20
seed = 7
steps = 200
checkpoint_every = 50
";

    #[test]
    fn parses_and_canonicalises() {
        let req = JobRequest::parse(BODY).expect("parse");
        assert_eq!(req.side, 20);
        assert_eq!(req.seed, 7);
        assert_eq!(
            req.canonical_text(),
            "algorithm = pndca five random-order\ncheckpoint_every = 50\nmodel = zgb 0.51 5\nseed = 7\nshards = 1\nside = 20\nsteps = 200\n"
        );
        assert_eq!(req.cache_key().len(), 64);
    }

    #[test]
    fn semantically_identical_specs_share_a_key() {
        let base = JobRequest::parse(BODY).expect("parse");
        for variant in [
            // Reordered keys, noise whitespace, comments.
            "steps=200\nseed = 7\n# hi\nside =20\ncheckpoint_every= 50\nalgorithm = pndca five random-order\nmodel = zgb 0.51 5",
            // Different float spelling of the same value.
            "model = zgb 0.510 5.0\nalgorithm = pndca five random-order\nside = 20\nseed = 7\nsteps = 200\ncheckpoint_every = 50",
            // Default shards spelled out.
            "shards = 1\nmodel = zgb 0.51 5\nalgorithm = pndca five random-order\nside = 20\nseed = 7\nsteps = 200\ncheckpoint_every = 50",
        ] {
            let req = JobRequest::parse(variant).expect(variant);
            assert_eq!(req.cache_key(), base.cache_key(), "{variant}");
        }
        // Omitted checkpoint_every resolves to the default grid — same key
        // as the default spelled out.
        let defaulted =
            JobRequest::parse("model = kuzovkov\nalgorithm = ndca\nside = 30\nsteps = 40")
                .expect("parse");
        let spelled = JobRequest::parse(
            "model = kuzovkov\nalgorithm = ndca\nside = 30\nsteps = 40\ncheckpoint_every = 4",
        )
        .expect("parse");
        assert_eq!(defaulted.cache_key(), spelled.cache_key());
    }

    #[test]
    fn differing_fields_change_the_key() {
        let base = JobRequest::parse(BODY).expect("parse");
        for (variant, what) in [
            (BODY.replace("seed = 7", "seed = 8"), "seed"),
            (BODY.replace("steps = 200", "steps = 201"), "steps"),
            (BODY.replace("side = 20", "side = 40"), "side"),
            (
                BODY.replace("checkpoint_every = 50", "checkpoint_every = 25"),
                "checkpoint grid",
            ),
            (BODY.replace("zgb 0.51 5", "zgb 0.52 5"), "model params"),
            (
                BODY.replace("pndca five random-order", "pndca five in-order"),
                "selection",
            ),
        ] {
            let req = JobRequest::parse(&variant).expect(&variant);
            assert_ne!(req.cache_key(), base.cache_key(), "{what} must change key");
        }
    }

    #[test]
    fn rejects_bad_submissions_with_line_numbers() {
        for (body, needle) in [
            ("model = zgb 0.5 5", "missing steps"),
            ("steps = 5\nside = 10\nalgorithm = rsm", "missing model"),
            ("model = warp\nsteps = 5", "line 1: unknown model"),
            (
                "model = kuzovkov\nalgorithm = bogus\nside = 10\nsteps = 5",
                "line 2: unknown algorithm",
            ),
            (
                "model = kuzovkov\nalgorithm = rsm\nside = 10\nsteps = 5\nside = 11",
                "line 5: duplicate key",
            ),
            (
                "model = kuzovkov\nalgorithm = rsm\nside = 10\nsteps = 5\nfrobnicate = 1",
                "line 5: unknown key",
            ),
            (
                "model = kuzovkov\nalgorithm = rsm\nside
= 10\nsteps = 5",
                "line 3: expected `key = value`",
            ),
            (
                "model = kuzovkov\nalgorithm = rsm\nside = 0\nsteps = 5",
                "side must be positive",
            ),
            (
                "model = kuzovkov\nalgorithm = ndca\nside = 10\nsteps = 5\nshards = 4",
                "requires a pndca algorithm",
            ),
            // Execution and fault-injection keys are the operator's, not
            // a client's.
            (
                "model = zgb 0.5 2\nalgorithm = pndca five in-order\nside = 20\nsteps = 5\nshards = 4\ntransport = unix",
                "line 6: unknown key `transport`",
            ),
            (
                "model = kuzovkov\nalgorithm = rsm\nside = 10\nsteps = 5\nfail_at_step = 2",
                "line 5: unknown key `fail_at_step`",
            ),
            (
                "model = kuzovkov\nalgorithm = rsm\nside = 10\nsteps = 5\nabort_at_step = 2",
                "line 5: unknown key `abort_at_step`",
            ),
            (
                "model = kuzovkov\nalgorithm = ndca\nside = 10\nsteps = 5\nwindow = 0.5",
                "line 5: `splitting`/`window`/`blocks` require algorithm = fskmc",
            ),
        ] {
            let err = JobRequest::parse(body).expect_err(body);
            assert!(err.contains(needle), "{body:?}: {err:?} missing {needle:?}");
        }
    }

    #[test]
    fn canonical_text_reparses_to_the_same_request() {
        // The queue journals the canonical text and replays it on restart.
        for body in [
            BODY.to_owned(),
            BODY.replace("seed = 7", "shards = 4"),
            "model = zgb 0.5 5\nalgorithm = fskmc\nside = 24\nsteps = 10".to_owned(),
            "model = zgb 0.5 5\nalgorithm = fskmc\nside = 24\nsteps = 10\n\
             splitting = strang\nwindow = 0.250\nblocks = 8"
                .to_owned(),
        ] {
            let req = JobRequest::parse(&body).expect(&body);
            let back = JobRequest::parse(&req.canonical_text()).expect("reparse");
            assert_eq!(back, req, "{body}");
            assert_eq!(back.cache_key(), req.cache_key());
        }
    }
}
