//! `planner-10k`: the what-if service's own loop, `Planner::serve`, fed
//! through this benchmark's `Read`/`Write` pair in-process. One client,
//! closed loop: the next request frame is read only after the previous
//! reply was flushed. Default cache (256 entries), one thread.
//!
//! A query's latency runs from the first byte of its request frame being
//! read to the flush of its reply frame. The traced run calls the same
//! steps one by one — `read_frame`, `Query::parse`, `Planner::answer`,
//! `write_frame` — with a span around each.

use std::cell::Cell;
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use sbgp_core::{AttackScenario, AttackStrategy, Engine, Policy, SecurityModel};
use sbgp_sim::serve::{Planner, PlannerConfig, Query};
use sbgp_sim::supervise::{read_frame, write_frame};
use sbgp_sim::Parallelism;

use crate::gen::Inputs;
use crate::trace::{write_spans, Analysis, Tracer};
use crate::util::{median, ms_since, peak_rss_mb, Digest, Report};
use crate::{load_internet, repeat_setup, trace_topology};

const CACHE: usize = 256;
/// Pairs every query evaluates: 4 destinations × 2 stub attackers.
const PAIRS_PER_QUERY: u64 = 8;
/// Every `CHECK_EVERY`-th reply among the first file's worth of frames is
/// compared byte for byte with a cold planner's reply.
const CHECK_EVERY: u64 = 50;
/// Replies whose bytes form the digest and, in a traced run, the untraced
/// reference the traced pass must reproduce.
const PREFIX_QUERIES: u64 = 1024;
/// Prefix queries left out of the overhead comparison (warm-up).
const WARM_QUERIES: u64 = 256;
/// Check queries whose pairs are recomputed with `Engine::compute` in a
/// traced run (the reference compute time).
const COMPUTE_QUERIES: usize = 4;
/// The tail percentile of query latency: p99 lands on the miss path.
const TAIL: f64 = 0.99;

fn config() -> PlannerConfig {
    PlannerConfig {
        cache_capacity: CACHE,
        prewarm: 0,
        parallelism: Parallelism::sequential(),
    }
}

/// The frames of `path` whose indices are in `pick` (all when `None`), and
/// the file's frame count. Streams the file, so the query file is never
/// held in memory.
fn frames_at(path: &Path, pick: Option<&[u64]>) -> Result<(Vec<String>, u64), String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut r = BufReader::new(file);
    let mut out = Vec::new();
    let mut i = 0u64;
    while let Some(f) = read_frame(&mut r).map_err(|e| format!("{}: {e}", path.display()))? {
        if pick.is_none_or(|p| p.contains(&i)) {
            out.push(f);
        }
        i += 1;
    }
    Ok((out, i))
}

/// `Planner::new` plus the warm-up pass over the hot set.
fn setup(inputs: &Inputs, warmup: &[String]) -> Result<Planner, String> {
    let net = load_internet(inputs)?;
    let mut planner = Planner::new(net, config());
    for f in warmup {
        let reply = planner.handle(f).unwrap_or_default();
        if !reply.starts_with("{\"op\":\"reply\"") {
            return Err(format!("warm-up query failed: {reply}"));
        }
    }
    Ok(planner)
}

/// The request stream: frames read from the input file (cycled), one at
/// a time, stamping when each frame's first byte is read. Ends at a frame
/// boundary once the deadline or the frame limit is reached.
struct Feed {
    src: BufReader<File>,
    cur: Vec<u8>,
    pos: usize,
    started: Rc<Cell<Option<Instant>>>,
    deadline: Option<Instant>,
    limit: u64,
    sent: u64,
    bytes: u64,
}

impl Feed {
    fn open(inputs: &Inputs, started: Rc<Cell<Option<Instant>>>) -> Result<Feed, String> {
        let file = File::open(&inputs.queries)
            .map_err(|e| format!("{}: {e}", inputs.queries.display()))?;
        Ok(Feed {
            src: BufReader::with_capacity(1 << 16, file),
            cur: Vec::new(),
            pos: 0,
            started,
            deadline: None,
            limit: u64::MAX,
            sent: 0,
            bytes: 0,
        })
    }

    fn load_next(&mut self) -> std::io::Result<()> {
        let mut len = [0u8; 4];
        if let Err(e) = self.src.read_exact(&mut len) {
            if e.kind() != std::io::ErrorKind::UnexpectedEof {
                return Err(e);
            }
            self.src.seek(SeekFrom::Start(0))?;
            self.src.read_exact(&mut len)?;
        }
        let n = u32::from_be_bytes(len) as usize;
        self.cur.clear();
        self.cur.extend_from_slice(&len);
        self.cur.resize(4 + n, 0);
        self.src.read_exact(&mut self.cur[4..])?;
        self.pos = 0;
        self.sent += 1;
        self.bytes += n as u64;
        Ok(())
    }
}

impl Read for Feed {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.cur.len() {
            if self.sent >= self.limit || self.deadline.is_some_and(|d| Instant::now() >= d) {
                return Ok(0);
            }
            self.started.set(Some(Instant::now()));
            self.load_next()?;
        }
        let n = buf.len().min(self.cur.len() - self.pos);
        buf[..n].copy_from_slice(&self.cur[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The reply side: each flush ends the query in flight.
struct Sink {
    buf: Vec<u8>,
    started: Rc<Cell<Option<Instant>>>,
    latency_ms: Vec<f64>,
    errors: u64,
    replies: u64,
    /// (query index, reply) for the cold-planner check.
    kept: Vec<(u64, String)>,
    keep_below: u64,
    digest: Digest,
}

impl Sink {
    fn new(started: Rc<Cell<Option<Instant>>>, keep_below: u64) -> Sink {
        Sink {
            buf: Vec::new(),
            started,
            latency_ms: Vec::new(),
            errors: 0,
            replies: 0,
            kept: Vec::new(),
            keep_below,
            digest: Digest::new(),
        }
    }
}

impl Write for Sink {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        // The hello frame is flushed before any request is read.
        if let Some(start) = self.started.take() {
            self.latency_ms.push(ms_since(start));
            let payload = self.buf.get(4..).unwrap_or_default();
            if !payload.starts_with(b"{\"op\":\"reply\"") {
                self.errors += 1;
            }
            let q = self.replies;
            if q < PREFIX_QUERIES {
                self.digest.bytes(payload);
            }
            if q < self.keep_below && q.is_multiple_of(CHECK_EVERY) {
                self.kept
                    .push((q, String::from_utf8_lossy(payload).into_owned()));
            }
            self.replies += 1;
        }
        self.buf.clear();
        Ok(())
    }
}

/// Answer the kept queries with a cold planner and compare replies byte
/// for byte (the determinism contract: same query, same reply, at any
/// cache state).
fn check_replies(
    planner: &Planner,
    inputs: &Inputs,
    kept: &[(u64, String)],
    report: &mut Report,
) -> Result<(), String> {
    let indices: Vec<u64> = kept.iter().map(|k| k.0).collect();
    let (requests, _) = frames_at(&inputs.queries, Some(&indices))?;
    let mut cold = Planner::new(planner.net().clone(), config());
    for ((q, reply), request) in kept.iter().zip(&requests) {
        let want = cold.handle(request).unwrap_or_default();
        report.checks += 1;
        let pairs_ok = reply.contains(&format!("\"pairs\":{PAIRS_PER_QUERY},"));
        if &want != reply || !pairs_ok {
            report.check_mismatches += 1;
            report.ops_failed += 1;
            report
                .notes
                .push(format!("reply to query {q} differs from a cold planner's"));
        }
    }
    Ok(())
}

pub fn run(inputs: &Inputs, seconds: f64, traced: bool, report: &mut Report) -> Result<(), String> {
    if traced {
        trace_topology(inputs, report)?;
    }
    let (warmup, _) = frames_at(&inputs.warmup, None)?;
    let (_, file_frames) = frames_at(&inputs.queries, Some(&[]))?;
    let (mut planner, setup_times) = repeat_setup(|| setup(inputs, &warmup))?;

    let started = Rc::new(Cell::new(None));
    let mut feed = Feed::open(inputs, started.clone())?;
    let mut sink = Sink::new(started, file_frames);
    if traced {
        feed.limit = PREFIX_QUERIES;
    } else {
        feed.deadline = Some(Instant::now() + std::time::Duration::from_secs_f64(seconds));
    }
    let t0 = Instant::now();
    planner
        .serve(&mut feed, &mut sink)
        .map_err(|e| e.to_string())?;
    let wall = t0.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    let queries = sink.replies;
    report.ops = queries;
    report.ops_failed = sink.errors;
    report.results_digest = sink.digest.hex();
    check_replies(&planner, inputs, &sink.kept, report)?;

    if traced {
        drop(planner);
        let mut fresh = setup(inputs, &warmup)?;
        let reference = sink.digest.hex();
        let an = run_traced(
            &mut fresh,
            inputs,
            seconds,
            sink.latency_ms[WARM_QUERIES as usize..].iter().sum(),
            &reference,
            &sink.kept,
            report,
        )?;
        write_spans(&an, inputs, report);
        return Ok(());
    }
    report.metric("setup_s", "s", median(&setup_times), setup_times.len());
    report.metric(
        "pair_evals_per_s",
        "1/s",
        (queries * PAIRS_PER_QUERY) as f64 / wall,
        (queries * PAIRS_PER_QUERY) as usize,
    );
    report.percentile("op_p50_ms", "ms", &sink.latency_ms, 0.50);
    report.tail("op_tail_ms", "ms", &sink.latency_ms, TAIL);
    report.metric("peak_rss_mb", "MB", rss, 1);
    report.metric(
        "queries_per_s",
        "1/s",
        queries as f64 / wall,
        queries as usize,
    );
    report.metric("timed_s", "s", wall, 1);
    Ok(())
}

fn run_traced(
    planner: &mut Planner,
    inputs: &Inputs,
    seconds: f64,
    reference_ms: f64,
    reference_digest: &str,
    kept: &[(u64, String)],
    report: &mut Report,
) -> Result<Analysis, String> {
    let tracer = Tracer::new();
    let n = planner.net().len();
    let started = Rc::new(Cell::new(None));
    let mut feed = Feed::open(inputs, started.clone())?;
    let mut sink = Sink::new(started, 0);
    let (mut frame_us, mut decode_us, mut hit_ms, mut miss_ms) = (vec![], vec![], vec![], vec![]);
    let before = planner.cache_stats();
    let mut traced_ms = 0.0;

    let t_root = Instant::now();
    let root = tracer.begin("traced", 0, 0);
    let mut q = 0u64;
    while q < PREFIX_QUERIES || t_root.elapsed().as_secs_f64() < seconds {
        let op = tracer.begin("op", root.id(), q);
        let parent = op.id();
        let (text, read) = tracer.span("serve.read", parent, q, || read_frame(&mut feed));
        let text = text
            .map_err(|e| e.to_string())?
            .ok_or("request stream ended")?;
        let (query, decode) = tracer.span("serve.decode", parent, q, || Query::parse(&text, n));
        decode_us.push(decode.ms() * 1e3);
        let query = query.map_err(|e| format!("query {q}: {e}"))?;
        let misses = planner.cache_stats().misses;
        let (reply, answer) = tracer.span("serve.answer", parent, q, || planner.answer(&query));
        if planner.cache_stats().misses == misses {
            hit_ms.push(answer.ms());
        } else {
            miss_ms.push(answer.ms());
        }
        let (written, write) =
            tracer.span("serve.write", parent, q, || write_frame(&mut sink, &reply));
        written.map_err(|e| e.to_string())?;
        frame_us.push((read.ms() + write.ms()) * 1e3);
        let op = tracer.end(op);
        if (WARM_QUERIES..PREFIX_QUERIES).contains(&q) {
            traced_ms += op.ms();
        }
        q += 1;
    }
    let root = tracer.end(root);
    report.ops += q;
    report.ops_failed += sink.errors;
    report.checks += 1;
    report.results_digest = sink.digest.hex();
    if sink.digest.hex() != reference_digest {
        report.check_mismatches += 1;
        report.ops_failed += 1;
        report
            .notes
            .push("traced replies differ from the untraced replies".into());
    }
    let after = planner.cache_stats();
    let an = Analysis::new(tracer.take());

    // Reference computes: every pair of the first few checked queries.
    let indices: Vec<u64> = kept.iter().take(COMPUTE_QUERIES).map(|k| k.0).collect();
    let (requests, _) = frames_at(&inputs.queries, Some(&indices))?;
    let mut engine = Engine::new(&planner.net().graph);
    let mut compute_ms = Vec::new();
    for request in &requests {
        let query = Query::parse(request, n)?;
        let dep = query.deployment(n);
        for &d in &query.destinations {
            for &m in &query.attackers {
                let t = Instant::now();
                let scenario = AttackScenario::attack(m, d).with_strategy(AttackStrategy::FakeLink);
                engine.compute(scenario, &dep, Policy::new(SecurityModel::Security1st));
                compute_ms.push(ms_since(t));
            }
        }
    }
    report.percentile("engine.compute_ms_p50", "ms", &compute_ms, 0.5);
    report.percentile("serve.frame_us_p50", "us", &frame_us, 0.5);
    report.percentile("serve.decode_us_p50", "us", &decode_us, 0.5);
    report.percentile("serve.answer_hit_ms_p50", "ms", &hit_ms, 0.5);
    report.percentile("serve.answer_miss_ms_p50", "ms", &miss_ms, 0.5);
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    report.metric("serve.cache_hits", "count", hits as f64, 1);
    report.metric("serve.cache_misses", "count", misses as f64, 1);
    report.metric(
        "serve.cache_evictions",
        "count",
        (after.evictions - before.evictions) as f64,
        1,
    );
    report.metric(
        "serve.cache_hit_frac",
        "ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        1,
    );
    report.metric(
        "serve.request_bytes_mean",
        "B",
        feed.bytes as f64 / feed.sent.max(1) as f64,
        feed.sent as usize,
    );
    report.metric(
        "trace.overhead_frac",
        "ratio",
        traced_ms / reference_ms - 1.0,
        1,
    );
    let layers = ["serve.read", "serve.decode", "serve.answer", "serve.write"];
    report.metric(
        "trace.coverage_frac",
        "ratio",
        an.coverage(&root, &layers),
        1,
    );
    Ok(an)
}
