//! In-memory spans recorded around calls into the program's public
//! functions (the program itself carries no spans yet).
//!
//! A span has a name, a start and an end, the span that caused it, and
//! the id of the operation (pair or query) it served. Spans are kept in
//! memory and written out once, at the end of the traced run; self times
//! and layer coverage are computed from them afterwards.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use crate::gen::Inputs;
use crate::util::{percentile, Report};

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An open span: finish it with [`Tracer::end`].
pub struct Open {
    id: u32,
    parent: u32,
    op: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// The span store. Id 0 is "no parent".
pub struct Tracer {
    t0: Instant,
    next: Mutex<u32>,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            next: Mutex::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&self, name: &'static str, parent: u32, op: u64) -> Open {
        let id = {
            let mut next = self.next.lock().expect("tracer lock poisoned");
            *next += 1;
            *next - 1
        };
        Open {
            id,
            parent,
            op,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Close a span and return it.
    pub fn end(&self, open: Open) -> Span {
        let span = Span {
            id: open.id,
            parent: open.parent,
            op: open.op,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
        };
        self.spans.lock().expect("tracer lock poisoned").push(span);
        span
    }

    /// Run `f` inside a span; returns its result and the closed span.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u32,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Span) {
        let open = self.begin(name, parent, op);
        let r = f();
        (r, self.end(open))
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("tracer lock poisoned"))
    }
}

/// Spans of a finished trace, with self times and coverage.
pub struct Analysis {
    spans: Vec<Span>,
    children: HashMap<u32, Vec<usize>>,
}

impl Analysis {
    pub fn new(spans: Vec<Span>) -> Analysis {
        let mut children: HashMap<u32, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            children.entry(s.parent).or_default().push(i);
        }
        Analysis { spans, children }
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// A span's duration minus the part of it its children cover.
    pub fn self_ms(&self, span: &Span) -> f64 {
        let kids: Vec<(u64, u64)> = self
            .children
            .get(&span.id)
            .map(|ix| {
                ix.iter()
                    .map(|&i| (self.spans[i].start_ns, self.spans[i].end_ns))
                    .collect()
            })
            .unwrap_or_default();
        let covered = union_ns(kids, span.start_ns, span.end_ns);
        (span.end_ns - span.start_ns - covered) as f64 / 1e6
    }

    /// Summed self time of every span called `name`.
    pub fn self_total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self.self_ms(s))
            .sum()
    }

    /// Share of `root`'s wall time covered by spans whose names are in
    /// `layers`.
    pub fn coverage(&self, root: &Span, layers: &[&str]) -> f64 {
        let ivs: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| layers.contains(&s.name))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        let wall = (root.end_ns - root.start_ns).max(1);
        union_ns(ivs, root.start_ns, root.end_ns) as f64 / wall as f64
    }

    /// Write the spans as tab-separated lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `ivs`, clipped to `[lo, hi]`.
fn union_ns(mut ivs: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    ivs.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in ivs {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    covered
}

/// Patch/fallback split of the traced attacks.
pub fn attack_metrics(attacks: &[(bool, f64)], compute_ms: &[f64], report: &mut Report) {
    let patch: Vec<f64> = attacks.iter().filter(|a| a.0).map(|a| a.1).collect();
    let fallback: Vec<f64> = attacks.iter().filter(|a| !a.0).map(|a| a.1).collect();
    report.metric("delta.attacks", "count", attacks.len() as f64, 1);
    report.metric("delta.patches", "count", patch.len() as f64, 1);
    report.metric("delta.fallbacks", "count", fallback.len() as f64, 1);
    report.metric(
        "delta.patch_frac",
        "ratio",
        patch.len() as f64 / attacks.len().max(1) as f64,
        attacks.len(),
    );
    report.metric("delta.patch_ms", "ms", patch.iter().sum(), patch.len());
    report.percentile("delta.patch_ms_p50", "ms", &patch, 0.5);
    report.metric(
        "delta.fallback_ms",
        "ms",
        fallback.iter().sum(),
        fallback.len(),
    );
    report.percentile("delta.fallback_ms_p50", "ms", &fallback, 0.5);
    match (percentile(&fallback, 0.5), percentile(compute_ms, 0.5)) {
        (Some(f), Some(c)) => report.metric(
            "delta.fallback_over_compute",
            "ratio",
            f / c,
            fallback.len(),
        ),
        _ => report.absent(
            "delta.fallback_over_compute",
            "ratio",
            "too few fallbacks or reference computes",
        ),
    }
}

/// Write the spans beside the workload's inputs; the path goes into the
/// notes.
pub fn write_spans(an: &Analysis, inputs: &Inputs, report: &mut Report) {
    match an.write(&inputs.spans) {
        Ok(()) => report
            .notes
            .push(format!("spans written to {}", inputs.spans.display())),
        Err(e) => report.notes.push(format!("spans not written: {e}")),
    }
}
