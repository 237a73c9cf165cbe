//! Spans around calls into the layers' public functions, recorded from
//! the benchmark's side of the call (tracing inside the program is a
//! later change). Spans live in a preallocated `Vec` and are written out
//! when the process ends; with tracing off a call costs one branch.

use crate::clock::now_ns;
use crate::json::Json;
use std::collections::BTreeMap;

/// The layers a span can belong to: the workspace crates, `service`
/// split from `system` (ROADMAP targets it alone), and `bench` for the
/// harness's own grouping spans.
pub const LAYERS: [&str; 8] = [
    "bench", "sim", "mem", "sparse", "core", "model", "system", "service",
];

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub layer: &'static str,
    pub name: &'static str,
    /// Spans of one operation (rep, request) share this number.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u64,
    dropped: u64,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            on: false,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            dropped: 0,
        }
    }

    /// A recording tracer holding at most `capacity` spans; further spans
    /// are counted as dropped, never reallocated for mid-measurement.
    pub fn on(capacity: usize) -> Self {
        Tracer {
            on: true,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            ..Tracer::off()
        }
    }

    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// A span around `f`, which may open child spans through the tracer
    /// it is handed.
    pub fn scope<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            layer,
            name,
            request: self.request,
            start_ns: now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = now_ns();
        out
    }

    /// A leaf span around one call into a layer.
    pub fn call<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.scope(layer, name, |_| f())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("id", Json::Num(f64::from(s.id))),
                        (
                            "parent",
                            if s.parent == NO_PARENT {
                                Json::Null
                            } else {
                                Json::Num(f64::from(s.parent))
                            },
                        ),
                        ("layer", Json::str(s.layer)),
                        ("name", Json::str(s.name)),
                        ("request", Json::Num(s.request as f64)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                let hi = hi.min(s.end_ns);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per layer: `(self time in ns, spans)`; every layer is present.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut totals: BTreeMap<&'static str, (u64, u64)> =
        LAYERS.iter().map(|&l| (l, (0, 0))).collect();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = totals.entry(s.layer).or_default();
        t.0 += own;
        t.1 += 1;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "t",
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = [
            span(0, NO_PARENT, "bench", 0, 100),
            span(1, 0, "system", 10, 40), // child with its own child
            span(2, 1, "core", 15, 25),
            span(3, 0, "system", 50, 70),  // sibling
            span(4, 0, "sparse", 60, 80),  // overlaps its sibling by 10
            span(5, 0, "sparse", 90, 120), // runs past the parent: clipped
        ];
        // Parent: 100 - (30 + 20 + 10 + 10) = 30.
        assert_eq!(self_times(&spans), vec![30, 20, 10, 20, 20, 30]);
        let totals = layer_totals(&spans);
        assert_eq!(totals["bench"], (30, 1));
        assert_eq!(totals["system"], (40, 2));
        assert_eq!(totals["core"], (10, 1));
        assert_eq!(totals["sparse"], (50, 2));
        assert_eq!(totals["service"], (0, 0), "unused layers still report");
    }

    #[test]
    fn tracer_nests_and_the_off_tracer_records_nothing() {
        let mut tr = Tracer::on(8);
        tr.set_request(7);
        let v = tr.scope("bench", "rep", |tr| {
            tr.call("system", "run", || 1) + tr.call("sparse", "spmv", || 2)
        });
        assert_eq!(v, 3);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (NO_PARENT, 0, 0));
        assert!(s.iter().all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);

        let mut off = Tracer::off();
        assert_eq!(off.call("system", "run", || 5), 5);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn a_full_tracer_drops_instead_of_growing() {
        let mut tr = Tracer::on(1);
        tr.call("sim", "a", || ());
        tr.call("sim", "b", || ());
        assert_eq!((tr.spans().len(), tr.dropped()), (1, 1));
    }
}
