//! [`Span`] — one node of a run's measurement tree.
//!
//! Every layer of the pipeline reports the same three numbers — wall
//! clock, items handled and bytes held — and nests its sub-steps as
//! children, so one `/`-separated path (`run/freeze/intern`) names any
//! measurement in the run report and in `bench_diff` gates.

use std::fmt::Write as _;
use std::time::Duration;

use crate::json::Json;

/// Throughput over a wall-clock window, `0.0` for an empty window.
///
/// A step whose wall clock rounds to zero has no measurable rate;
/// returning `0.0` instead of `f64::INFINITY` keeps every derived value
/// JSON-representable.
pub fn rate_per_sec(items: u64, wall: Duration) -> f64 {
    let s = wall.as_secs_f64();
    if s > 0.0 {
        items as f64 / s
    } else {
        0.0
    }
}

/// A node name for an id that may contain `/` (`T2/F12` → `T2-F12`), so
/// the id stays one segment of a span path.
pub fn stem(id: &str) -> String {
    id.replace('/', "-")
}

/// One measured step: its wall clock, the items it handled, the bytes it
/// held, and its sub-steps in execution order.
///
/// Children of a serial step run inside it, so their walls sum to no
/// more than the parent's; children that ran on parallel workers (shards
/// or passes at more than one thread) can sum to more.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Span {
    /// Node name, unique among its siblings and free of `/`.
    pub name: String,
    /// Wall clock of the step.
    pub wall: Duration,
    /// Items the step handled (records, keys, tries, units …).
    pub items: u64,
    /// Bytes the step held or produced.
    pub bytes: u64,
    /// Sub-steps, in execution order.
    pub children: Vec<Span>,
}

impl Span {
    /// A leaf span; `name` is passed through [`stem`].
    pub fn new(name: &str, wall: Duration) -> Self {
        Self {
            name: stem(name),
            wall,
            ..Self::default()
        }
    }

    /// Sets the item count, builder-style.
    pub fn with_items(mut self, items: u64) -> Self {
        self.items = items;
        self
    }

    /// Sets the byte count, builder-style.
    pub fn with_bytes(mut self, bytes: u64) -> Self {
        self.bytes = bytes;
        self
    }

    /// Appends a child, builder-style.
    pub fn with_child(mut self, child: Span) -> Self {
        self.children.push(child);
        self
    }

    /// Replaces the child of the same name, or appends `child` when there
    /// is none, so re-measuring a step never duplicates its node.
    pub fn set_child(&mut self, child: Span) {
        match self.children.iter_mut().find(|c| c.name == child.name) {
            Some(slot) => *slot = child,
            None => self.children.push(child),
        }
    }

    /// The descendant at a `/`-separated path relative to this span
    /// (`"freeze/intern"`); the empty path is the span itself.
    pub fn get(&self, path: &str) -> Option<&Span> {
        path.split('/')
            .filter(|seg| !seg.is_empty())
            .try_fold(self, |node, seg| {
                node.children.iter().find(|c| c.name == seg)
            })
    }

    /// Items per second of wall (`0.0` on a zero wall).
    pub fn items_per_sec(&self) -> f64 {
        rate_per_sec(self.items, self.wall)
    }

    /// The span as a JSON object: `wall_secs`, `items`, `bytes`,
    /// `items_per_sec`, then each child under its name.
    pub fn to_json(&self) -> Json {
        let mut json = Json::obj()
            .with("wall_secs", Json::num(self.wall.as_secs_f64()))
            .with("items", Json::UInt(self.items))
            .with("bytes", Json::UInt(self.bytes))
            .with("items_per_sec", Json::num(self.items_per_sec()));
        for child in &self.children {
            json.set(&child.name, child.to_json());
        }
        json
    }

    /// One line per node, indented by depth.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let name = format!("{:indent$}{}", "", self.name, indent = 2 * depth);
        let _ = writeln!(
            out,
            "{name:<28} {:>10.4}s {:>10} items {:>12} bytes",
            self.wall.as_secs_f64(),
            self.items,
            self.bytes
        );
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> Span {
        Span::new("run", Duration::from_millis(100))
            .with_items(5000)
            .with_child(Span::new("sim", Duration::from_millis(60)).with_bytes(70))
            .with_child(
                Span::new("freeze", Duration::from_millis(30))
                    .with_child(Span::new("intern", Duration::from_millis(10)).with_items(9)),
            )
    }

    #[test]
    fn paths_reach_every_node() {
        let t = tree();
        assert_eq!(t.get("").map(|s| &s.name), Some(&"run".to_string()));
        assert_eq!(t.get("freeze/intern").map(|s| s.items), Some(9));
        assert_eq!(t.get("sim").map(|s| s.bytes), Some(70));
        assert!(t.get("freeze/merge").is_none());
    }

    #[test]
    fn ids_with_slashes_are_stemmed() {
        assert_eq!(stem("T2/F12"), "T2-F12");
        assert_eq!(Span::new("/64", Duration::ZERO).name, "-64");
    }

    #[test]
    fn set_child_replaces_by_name() {
        let mut t = tree();
        t.set_child(Span::new("sim", Duration::from_millis(1)));
        t.set_child(Span::new("analysis", Duration::from_millis(2)));
        let names: Vec<&str> = t.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["sim", "freeze", "analysis"]);
        assert_eq!(t.get("sim").map(|s| s.wall), Some(Duration::from_millis(1)));
    }

    #[test]
    fn json_nests_children_by_name_with_finite_rates() {
        let text = Span::new("run", Duration::ZERO)
            .with_items(10)
            .with_child(tree())
            .to_json()
            .render();
        assert!(text.starts_with(
            "{\"wall_secs\":0,\"items\":10,\"bytes\":0,\"items_per_sec\":0,\"run\":{"
        ));
        assert!(text.contains("\"freeze\":{\"wall_secs\":0.03,"), "{text}");
        assert!(!text.contains("null"), "zero walls rate 0.0: {text}");
        assert_eq!(tree().items_per_sec(), 50_000.0);
    }

    #[test]
    fn render_indents_by_depth() {
        let text = tree().render();
        assert!(text.starts_with("run "));
        assert!(text.contains("\n    intern "), "{text}");
    }
}
