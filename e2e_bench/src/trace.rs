//! Spans recorded around the calls into each layer, and the stage table
//! built from them.
//!
//! A span has a name, start and end on the on-CPU clock, its parent span,
//! and the member it belongs to.  Spans stay in memory until the run ends.
//! A layer's self time is the duration of its spans minus the part their
//! child spans cover; the spans of one thread nest, so that is the sum of
//! the children's durations.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use nncps::scenarios::Json;

use crate::procfs::group_cpu_ns;

/// The layers of the stage table, in pipeline order.  `member` is the root
/// span of one member; its self time is the `other` layer.
pub const LAYERS: [&str; 7] = ["build", "sim", "lp", "compile", "smt", "level_set", "other"];

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub member: usize,
}

/// An in-memory span recorder on the process's on-CPU clock.
#[derive(Debug)]
pub struct Tracer {
    pid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    member: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            pid: std::process::id(),
            spans: Vec::new(),
            open: Vec::new(),
            member: 0,
        }
    }

    fn now(&self) -> u64 {
        group_cpu_ns(self.pid).expect("the process CPU clock of this process is readable")
    }

    /// Sets the member id of the spans opened from now on.
    pub fn set_member(&mut self, member: usize) {
        self.member = member;
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            member: self.member,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let index = self.open.pop().expect("exit matches an enter");
        self.spans[index].end_ns = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let result = f();
        self.exit();
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time in seconds per span name: each span's duration minus the
/// durations of its direct children.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.end_ns - span.start_ns;
        }
    }
    let mut layers = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let own = (span.end_ns - span.start_ns).saturating_sub(children);
        let name = if span.name == "member" {
            "other"
        } else {
            span.name
        };
        *layers.entry(name).or_insert(0.0) += own as f64 * 1e-9;
    }
    layers
}

/// Total on-CPU seconds covered by root spans.
pub fn root_total(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .sum()
}

/// Work counters recorded at the same call boundaries as the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub sim_rk4_steps: u64,
    pub sim_traces: u64,
    pub lp_solves: u64,
    pub lp_rows: u64,
    pub lp_cols: u64,
    pub compile_queries: u64,
    pub smt_queries: u64,
    pub smt_boxes_explored: u64,
    pub smt_boxes_pruned: u64,
    pub smt_bisections: u64,
    pub smt_instructions: u64,
    pub smt_specialized_tape_len_sum: u64,
    pub smt_newton_cuts: u64,
    pub level_set_iterations: u64,
}

impl Counters {
    pub fn add_solver(&mut self, stats: &nncps::deltasat::SolverStats) {
        self.smt_queries += 1;
        self.smt_boxes_explored += stats.boxes_explored as u64;
        self.smt_boxes_pruned += stats.boxes_pruned as u64;
        self.smt_bisections += stats.bisections as u64;
        self.smt_instructions += stats.instructions_executed as u64;
        self.smt_specialized_tape_len_sum += stats.specialized_tape_len_sum as u64;
        self.smt_newton_cuts += stats.newton_cuts as u64;
    }

    /// The counters as `(metric name, value)` pairs.
    pub fn metrics(&self) -> [(&'static str, u64); 14] {
        [
            ("sim.rk4_steps", self.sim_rk4_steps),
            ("sim.traces", self.sim_traces),
            ("lp.solves", self.lp_solves),
            ("lp.rows", self.lp_rows),
            ("lp.cols", self.lp_cols),
            ("compile.queries", self.compile_queries),
            ("smt.queries", self.smt_queries),
            ("smt.boxes_explored", self.smt_boxes_explored),
            ("smt.boxes_pruned", self.smt_boxes_pruned),
            ("smt.bisections", self.smt_bisections),
            ("smt.instructions", self.smt_instructions),
            (
                "smt.specialized_tape_len_sum",
                self.smt_specialized_tape_len_sum,
            ),
            ("smt.newton_cuts", self.smt_newton_cuts),
            ("level_set.iterations", self.level_set_iterations),
        ]
    }

    fn for_layer(&self, layer: &str) -> String {
        self.metrics()
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(name, value)| format!("{}={value}", &name[layer.len() + 1..]))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// The stage table: each layer's self time, its share of the total (shares
/// add up to 100%), and its counters.
pub fn stage_table(layers: &BTreeMap<&'static str, f64>, counters: &Counters) -> String {
    let total: f64 = LAYERS
        .iter()
        .map(|l| layers.get(l).copied().unwrap_or(0.0))
        .sum();
    let mut table = format!(
        "{:<10} {:>12} {:>8}  counters\n",
        "layer", "self cpu s", "share"
    );
    for layer in LAYERS {
        let seconds = layers.get(layer).copied().unwrap_or(0.0);
        let share = if total > 0.0 {
            100.0 * seconds / total
        } else {
            0.0
        };
        let _ = writeln!(
            table,
            "{layer:<10} {seconds:>12.6} {share:>7.2}%  {}",
            counters.for_layer(layer)
        );
    }
    let _ = writeln!(table, "{:<10} {total:>12.6} {:>7.2}%", "total", 100.0);
    let _ = write!(table, "largest layer: {}", largest_layer(layers));
    table
}

/// The largest layer of a stage table.
pub fn largest_layer(layers: &BTreeMap<&'static str, f64>) -> &'static str {
    LAYERS
        .iter()
        .copied()
        .max_by(|a, b| {
            let value = |l: &str| layers.get(l).copied().unwrap_or(0.0);
            value(a).total_cmp(&value(b))
        })
        .expect("LAYERS is not empty")
}

/// The spans as a JSON array, for the run's span file.
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Array(
        spans
            .iter()
            .map(|s| {
                Json::object([
                    ("name".to_string(), Json::from(s.name)),
                    ("start_ns".to_string(), Json::Number(s.start_ns as f64)),
                    ("end_ns".to_string(), Json::Number(s.end_ns as f64)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Json::Null, Json::from),
                    ),
                    ("member".to_string(), Json::from(s.member)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            member: 0,
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        let spans = [
            span("member", 0, 100, None),
            span("level_set", 10, 60, Some(0)),
            span("compile", 12, 20, Some(1)),
            span("smt", 20, 50, Some(1)),
            span("sim", 70, 90, Some(0)),
        ];
        let layers = self_times(&spans);
        let ns = |name: &str| (layers[name] * 1e9).round() as u64;
        assert_eq!(ns("other"), 30);
        assert_eq!(ns("level_set"), 12);
        assert_eq!(ns("compile"), 8);
        assert_eq!(ns("smt"), 30);
        assert_eq!(ns("sim"), 20);
        assert!((root_total(&spans) * 1e9 - 100.0).abs() < 1e-6);
        assert_eq!(largest_layer(&layers), "other");
    }

    #[test]
    fn stage_table_shares_add_up_to_one_hundred_percent() {
        let spans = [
            span("member", 0, 300, None),
            span("lp", 0, 200, Some(0)),
            span("member", 300, 400, None),
            span("sim", 300, 390, Some(2)),
        ];
        let layers = self_times(&spans);
        let table = stage_table(&layers, &Counters::default());
        let shares: f64 = table
            .lines()
            .filter(|l| {
                LAYERS
                    .iter()
                    .any(|layer| l.starts_with(&format!("{layer} ")))
            })
            .map(|l| {
                l.split_whitespace()
                    .nth(2)
                    .unwrap()
                    .trim_end_matches('%')
                    .parse::<f64>()
                    .unwrap()
            })
            .sum();
        assert!((shares - 100.0).abs() < 0.05, "{table}");
        assert_eq!(largest_layer(&layers), "lp");
    }

    #[test]
    fn tracer_nests_spans_and_tags_members() {
        let mut tracer = Tracer::new();
        tracer.set_member(3);
        tracer.enter("member");
        let value = tracer.span("lp", || 41 + 1);
        tracer.exit();
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].member, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
