//! In-memory span recorder for the traced run: one span (name, start,
//! end, parent) around each of the benchmark's calls into a layer. Spans
//! stay in memory while the workload runs and are rendered once at the
//! end; a span's self time is its duration minus its children's.

use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder. A disabled recorder runs the timed closures and records
/// nothing, so untraced code paths pay no clock reads.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Self time (ns) of every span: its duration minus the time its
    /// direct children cover.
    fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// JSON array of the spans, one object per line, with self times.
    pub fn render_json(&self) -> String {
        let self_ns = self.self_times();
        let lines: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                     \"parent\": {}, \"self_ns\": {}}}",
                    cobra_bench::json::escape_str(&s.name),
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    self_ns[i]
                )
            })
            .collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut sp = Spans::new(true);
        sp.time("outer", |sp| {
            sp.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            sp.time("inner", |_| ());
        });
        assert_eq!(sp.spans().len(), 3);
        assert_eq!(sp.spans()[1].parent, Some(0));
        assert_eq!(sp.durations_ns("inner").len(), 2);
        let outer = sp.durations_ns("outer")[0];
        let own = sp.self_times()[0] as f64;
        assert!(own < outer && outer - own >= 2e6);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut sp = Spans::new(false);
        let v = sp.time("x", |_| 7);
        assert_eq!(v, 7);
        assert!(sp.spans().is_empty());
    }
}
