//! In-memory spans around every call into a layer's public door.
//!
//! A traced run records one span per job and one per door call inside it
//! (name, start, end, parent, job id), keeps them in memory, and writes
//! them out when the run ends. A span's self time is its duration minus
//! the durations of its direct children. With tracing off a span costs
//! one branch.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub job: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Open a span; it is recorded when the guard drops.
    pub fn span(&self, name: &'static str, job: u32, parent: u32) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                id: NO_PARENT,
                parent,
                job,
                name,
                start_ns: 0,
            };
        }
        SpanGuard {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            job,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
        }
    }

    /// Every recorded span, in completion order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("no span holder panics"))
    }
}

pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: u32,
    parent: u32,
    job: u32,
    name: &'static str,
    start_ns: u64,
}

impl SpanGuard<'_> {
    /// Id to pass as `parent` of spans opened inside this one.
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.tracer.enabled {
            return;
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            job: self.job,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.tracer.epoch.elapsed().as_nanos() as u64,
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// What a job hands to the code it runs: where to hang its door spans.
#[derive(Clone, Copy)]
pub struct JobCtx<'t> {
    pub tracer: &'t Tracer,
    pub job: u32,
    pub parent: u32,
    /// Which closed-loop client runs the job.
    pub client: usize,
}

impl<'t> JobCtx<'t> {
    pub fn span(&self, name: &'static str) -> SpanGuard<'t> {
        self.tracer.span(name, self.job, self.parent)
    }
}

/// Total self time per span name, nanoseconds, names ascending.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut child_ns = vec![0u64; spans.iter().map(|s| s.id + 1).max().unwrap_or(0) as usize];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut by_name = std::collections::BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
        *by_name.entry(s.name).or_insert(0u64) += own;
    }
    by_name.into_iter().collect()
}

/// One JSON object per span, one per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            "null".to_owned()
        } else {
            s.parent.to_string()
        };
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, s.job, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let span = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            job: 0,
            name,
            start_ns,
            end_ns,
        };
        let spans = [
            span(1, 0, "door.a", 10, 40),
            span(2, 0, "door.b", 50, 90),
            span(0, NO_PARENT, "job", 0, 100),
        ];
        assert_eq!(
            self_times(&spans),
            vec![("door.a", 30), ("door.b", 40), ("job", 30)]
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        drop(t.span("job", 0, NO_PARENT));
        assert!(t.take().is_empty());
        let t = Tracer::new(true);
        let job = t.span("job", 7, NO_PARENT);
        drop(t.span("door", 7, job.id()));
        drop(job);
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, spans[1].id);
    }
}
