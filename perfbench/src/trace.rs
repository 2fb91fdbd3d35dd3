//! In-memory spans recorded around calls into the workspace crates.
//!
//! The benchmark is single-threaded on its own side (the program under
//! test runs its own threads), so a plain stack of open spans gives every
//! span its parent. Spans stay in memory and are written out once, at the
//! end of a traced run.

use std::collections::BTreeMap;
use std::io::Write;
use std::ops::Range;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One timed call. The layer is the span name up to its first `.`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans while enabled; when disabled `enter`/`exit` cost one
/// branch each, so the untraced run measures the bare program.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle of an open span (`None` while tracing is off).
#[must_use]
pub struct Open(Option<u32>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns span recording on or off between lifecycles.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "spans still open");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let end = self.now_ns();
            let top = self.open.pop();
            assert_eq!(top, Some(id), "spans must close in stack order");
            self.spans[id as usize].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of the spans called `name` in `scope`.
    pub fn durations_s(&self, scope: Range<usize>, name: &str) -> Vec<f64> {
        self.spans[scope]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    }

    /// Total seconds spent in spans called `name` in `scope`.
    pub fn total_s(&self, scope: Range<usize>, name: &str) -> f64 {
        self.durations_s(scope, name).iter().sum()
    }

    /// Self time per layer (span duration minus the time its direct
    /// children cover), in seconds, over the trees in `scope` whose root
    /// span is named `root`, plus the total time of those roots.
    /// Children of one span never overlap: they nest on one thread.
    pub fn self_time_by_layer(
        &self,
        scope: Range<usize>,
        root: &str,
    ) -> (BTreeMap<&'static str, f64>, f64) {
        let spans = &self.spans[..scope.end];
        let mut child_ns = vec![0u64; spans.len()];
        // Parents precede their children, so one forward pass finds
        // every span's root.
        let mut root_of = vec![0usize; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if s.parent == NO_PARENT {
                root_of[i] = i;
            } else {
                child_ns[s.parent as usize] += s.dur_ns();
                root_of[i] = root_of[s.parent as usize];
            }
        }
        let mut by_layer = BTreeMap::new();
        let mut root_ns = 0u64;
        for i in scope {
            let s = &spans[i];
            if spans[root_of[i]].name != root {
                continue;
            }
            let own = s.dur_ns().saturating_sub(child_ns[i]);
            *by_layer.entry(s.layer()).or_insert(0.0) += own as f64 / 1e9;
            if s.parent == NO_PARENT {
                root_ns += s.dur_ns();
            }
        }
        (by_layer, root_ns as f64 / 1e9)
    }

    /// Writes one JSON object per span: id, name, start, end, parent.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.enter("bench.root");
        let child = t.enter("engine.child");
        std::thread::sleep(std::time::Duration::from_millis(20));
        t.exit(child);
        std::thread::sleep(std::time::Duration::from_millis(10));
        t.exit(root);
        let (by_layer, root_s) = t.self_time_by_layer(0..t.spans().len(), "bench.root");
        let engine = by_layer["engine"];
        let bench = by_layer["bench"];
        assert!(engine >= 0.02 && bench >= 0.01);
        assert!((engine + bench - root_s).abs() < 1e-6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let x = t.span("engine.start", || 7);
        assert_eq!(x, 7);
        assert!(t.spans().is_empty());
    }
}
