//! Small shared helpers: a seeded RNG, a content digest, percentiles with
//! a sample-count guard, peak memory, and the result record every
//! workload prints.

use std::fmt::Write as _;
use std::time::Instant;

/// SplitMix64: a tiny, fully specified generator, so the inputs a seed
/// produces never depend on a library's RNG version.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct items of `pool` in draw order (partial Fisher–Yates).
    pub fn choose<T: Copy>(&mut self, pool: &[T], k: usize) -> Vec<T> {
        let mut idx: Vec<usize> = (0..pool.len()).collect();
        let k = k.min(pool.len());
        for i in 0..k {
            let j = i + self.below(pool.len() - i);
            idx.swap(i, j);
        }
        idx[..k].iter().map(|&i| pool[i]).collect()
    }
}

/// FNV-1a 64, the digest for inputs and results.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.bytes(&x.to_bits().to_le_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Samples that must lie beyond a reported percentile.
pub const BEYOND: usize = 10;

/// The nearest-rank `p`-quantile of `samples`, or `None` when fewer than
/// [`BEYOND`] samples lie above it (the percentile would rest on a
/// handful of values).
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
    /// Why the layer reads zero on this workload, when it does.
    pub note: String,
}

/// What a workload run prints: counts, metrics and the digests the
/// self-test compares.
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    /// Operations attempted (pairs or queries).
    pub ops: u64,
    /// Operations that failed: error replies, lost pairs, check mismatches.
    pub ops_failed: u64,
    /// Output-check comparisons made and how many mismatched.
    pub checks: u64,
    pub check_mismatches: u64,
    pub metrics: Vec<Metric>,
    /// Digest of a fixed prefix of the results (equal across trace modes).
    pub results_digest: String,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &str, seed: u64, trace: bool) -> Report {
        Report {
            workload: workload.to_string(),
            seed,
            trace,
            ops: 0,
            ops_failed: 0,
            checks: 0,
            check_mismatches: 0,
            metrics: Vec::new(),
            results_digest: String::new(),
            notes: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
            note: String::new(),
        });
    }

    /// A layer this workload does not exercise: reported as 0 with the
    /// reason, so every workload prints the same per-layer names.
    pub fn absent(&mut self, name: &str, unit: &'static str, why: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value: 0.0,
            samples: 0,
            note: format!("n/a: {why}"),
        });
    }

    /// A percentile metric; when the guard refuses it, the metric reads 0
    /// with a note (the end-to-end check in `run.py` turns that into a
    /// failed benchmark).
    pub fn percentile(&mut self, name: &str, unit: &'static str, samples: &[f64], p: f64) {
        match percentile(samples, p) {
            Some(v) => self.metric(name, unit, v, samples.len()),
            None => self.metrics.push(Metric {
                name: name.to_string(),
                unit,
                value: 0.0,
                samples: samples.len(),
                note: format!(
                    "n/a: {} samples leave fewer than {BEYOND} beyond p{}",
                    samples.len(),
                    p * 100.0
                ),
            }),
        }
    }

    /// [`Report::percentile`] with the percentile named in the note, for a
    /// metric whose percentile is fixed per workload.
    pub fn tail(&mut self, name: &str, unit: &'static str, samples: &[f64], p: f64) {
        self.percentile(name, unit, samples, p);
        let m = self.metrics.last_mut().expect("just pushed");
        if m.note.is_empty() {
            m.note = format!("p{}", p * 100.0);
        }
    }

    pub fn to_json(&self) -> String {
        let mut j = String::new();
        let _ = write!(
            j,
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"ops\":{},\"ops_failed\":{},\
             \"checks\":{},\"check_mismatches\":{},\"results_digest\":\"{}\",\"metrics\":[",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.ops,
            self.ops_failed,
            self.checks,
            self.check_mismatches,
            self.results_digest
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                j.push(',');
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                j,
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"value\":{:e},\"samples\":{},\"note\":\"{}\"}}",
                m.name,
                m.unit,
                value,
                m.samples,
                escape(&m.note)
            );
        }
        j.push_str("],\"notes\":[");
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                j.push(',');
            }
            let _ = write!(j, "\"{}\"", escape(n));
        }
        j.push_str("]}");
        j
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
