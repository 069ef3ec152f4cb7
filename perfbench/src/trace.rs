//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into the
//! library's public functions: a name, start and end (relative to the
//! tracer's creation), the parent span, the root span, and numeric
//! attributes (counts and program-reported values). Nothing is written
//! until the benchmark ends. A disabled tracer only runs the closures.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub root: usize,
    pub name: String,
    pub start: Duration,
    pub end: Duration,
    pub attrs: Vec<(String, f64)>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Records spans in memory while `enabled`.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span (or as a new root when none is open).
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let root = parent.map_or(id, |p| self.spans[p].root);
        self.spans.push(Span {
            id,
            parent,
            root,
            name: name.to_string(),
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            attrs: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.epoch.elapsed();
        out
    }

    /// Attaches a numeric attribute to the innermost open span.
    pub fn attr(&mut self, key: &str, value: f64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].attrs.push((key.to_string(), value));
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per root that holds a span with a `value`: the sum of those
    /// values. Roots never interleave, so one root's spans are adjacent.
    fn per_root(&self, value: impl Fn(&Span) -> Option<f64>) -> Vec<f64> {
        let mut sums: Vec<(usize, f64)> = Vec::new();
        for s in &self.spans {
            let Some(v) = value(s) else { continue };
            match sums.last_mut() {
                Some((root, sum)) if *root == s.root => *sum += v,
                _ => sums.push((s.root, v)),
            }
        }
        sums.into_iter().map(|(_, v)| v).collect()
    }

    /// Median over roots of the summed duration of spans named `name`,
    /// in seconds; `None` when no span has that name.
    pub fn secs(&self, name: &str) -> Option<f64> {
        median(&self.per_root(|s| (s.name == name).then(|| s.secs())))
    }

    /// Median over roots of the summed attribute `key`; `None` when no
    /// span carries it.
    pub fn attr_value(&self, key: &str) -> Option<f64> {
        median(&self.per_root(|s| s.attrs.iter().find(|(k, _)| k == key).map(|&(_, v)| v)))
    }

    /// Median over root spans named `root` of the share of their wall
    /// that no direct child covers (their self time over their duration).
    pub fn self_ratio(&self, root: &str) -> Option<f64> {
        let ratios: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|r| {
                let children: f64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(r.id))
                    .map(Span::secs)
                    .sum();
                (r.secs() - children) / r.secs()
            })
            .collect();
        median(&ratios)
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"root\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"attrs\":{{",
                s.id,
                parent,
                s.root,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
            for (i, (k, v)) in s.attrs.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\"{k}\":{v}");
            }
            out.push_str("}}\n");
        }
        out
    }
}

/// The median of `values` (mean of the middle two for an even count);
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_their_root() {
        let mut tr = Tracer::new(true);
        tr.span("iter", |tr| {
            tr.span("a", |tr| tr.attr("records", 3.0));
            tr.span("a", |tr| tr.attr("records", 4.0));
        });
        tr.span("replay/x", |tr| tr.span("a", |tr| tr.attr("records", 10.0)));
        let s = tr.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[..3].iter().all(|x| x.root == 0));
        assert_eq!(s[4].root, 3);
        // Per root sums are 7 and 10; their median is 8.5.
        assert_eq!(tr.attr_value("records"), Some(8.5));
        assert!(tr.secs("missing").is_none());
        let ratio = tr.self_ratio("iter").unwrap();
        assert!((0.0..=1.0).contains(&ratio), "{ratio}");
        assert_eq!(tr.to_jsonl().lines().count(), 5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let v = tr.span("iter", |tr| {
            tr.attr("k", 1.0);
            7
        });
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
    }
}
