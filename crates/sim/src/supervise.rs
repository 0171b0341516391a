//! The supervised multi-process campaign: coordinator, worker protocol,
//! retry ladder, and checkpoint-integrity primitives.
//!
//! The paper's grids ran on Blue Gene under MPI (Appendix H); this module
//! is the single-machine analogue with *crash containment*: a coordinator
//! ([`Supervisor`]) shards a round's destination groups across N worker
//! **processes** (the campaign binary re-invoked in `--worker` mode),
//! speaking length-prefixed JSON over stdin/stdout. Work assignment is
//! work-stealing (idle workers pull the next queued group), every
//! in-flight group has a wall-clock watchdog, and failures walk a retry
//! ladder:
//!
//! > worker crash / timeout / wrong-schema reply ⇒ kill & respawn with
//! > exponential backoff ⇒ reassign the group to another worker ⇒ after
//! > `strikes` failures mark the group **degraded** and keep going.
//!
//! Degradation is graceful by contract: a degraded group's pairs are
//! excluded from the estimates (tracked in
//! [`AdaptiveRun::lost_groups`] / [`AdaptiveRun::lost_pairs`]), the
//! campaign's final JSON lists the affected cells under `"degraded"`, and
//! the grid still validates.
//!
//! **Bit-identity.** [`estimate_adaptive_supervised`] runs the very round
//! loop of [`crate::stats::estimate_adaptive_cells`]; only the evaluation
//! of a round's destination groups differs. Workers evaluate a group
//! through the same [`CellEval`] kernel and stream back raw per-stratum
//! Welford triples (floats as `to_bits`, so the wire round trip is exact);
//! the coordinator folds group accumulators **in group order** into a fresh
//! round accumulator, which the shared loop merges into the persistent
//! state — the same Chan-merge sequence the in-process chunk-ordered
//! reduction performs. An N-worker run therefore produces the same bits
//! as the single-process run, for any N (pinned at full precision by
//! `tests/campaign.rs`).
//!
//! Checkpoint integrity rides along: [`content_checksum`] /
//! [`verify_checksum`] give per-cell JSON files an FNV-1a content
//! checksum, so resume can distinguish a good checkpoint from a torn or
//! corrupted one and quarantine the latter instead of trusting it.

use std::collections::{HashSet, VecDeque};
use std::io::{Read, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use sbgp_core::Bounds;
use sbgp_topology::AsId;

use crate::faultpoint;
use crate::stats::{
    adaptive_rounds, empty_strata, merge_strata, AdaptiveRun, CellEval, CellStrata,
    EstimatorConfig, PairUniverse, Welford,
};

// ---------------------------------------------------------------------------
// Length-prefixed JSON frames
// ---------------------------------------------------------------------------

/// Upper bound on a frame payload; anything larger is protocol garbage.
const MAX_FRAME: u32 = 256 * 1024 * 1024;

/// Write one length-prefixed (u32 big-endian) UTF-8 frame.
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    let len = payload.len() as u32;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Read one frame; `Ok(None)` on clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<String>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

// ---------------------------------------------------------------------------
// Wire messages (hand-rolled JSON, like every serializer in this repo)
// ---------------------------------------------------------------------------

/// The string value of `key` (no escapes: the protocol vocabulary is
/// plain tokens), or `None` when the key is absent or holds no string.
pub(crate) fn json_str_field<'t>(text: &'t str, key: &str) -> Option<&'t str> {
    let rest = json_value(text, key)?.strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

/// The unsigned-integer value of `key`, or `None` when the key is absent
/// or holds anything else (a string, a sign, a fraction, a number past
/// `u64::MAX`).
pub(crate) fn json_u64_field(text: &str, key: &str) -> Option<u64> {
    let value = json_value(text, key)?;
    let end = value
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(value.len());
    let after = value[end..].trim_start_matches(JSON_WS);
    if !(after.is_empty() || after.starts_with([',', '}', ']'])) {
        return None;
    }
    value[..end].parse().ok()
}

/// The text right after `"key"` and its colon (JSON whitespace allowed on
/// both sides of the colon), or `None` when the outermost object has no
/// such key. Keys of nested objects and the contents of strings (escapes
/// included) are skipped, so a nested `"key":` never shadows a top-level
/// one.
pub(crate) fn json_value<'t>(text: &'t str, key: &str) -> Option<&'t str> {
    // Most lookups are for absent optional keys: one substring search
    // rules those out without walking the frame.
    if !text.contains(&format!("\"{key}\"")) {
        return None;
    }
    let mut depth = 0i64;
    let mut rest = text;
    // String by string: between two strings only brackets matter, and a
    // branch-free count over that stretch keeps long id lists cheap.
    while let Some(open) = rest.find('"') {
        depth += nesting(&rest.as_bytes()[..open]);
        let body = &rest[open + 1..];
        let close = string_end(body.as_bytes())?;
        rest = &body[close + 1..];
        if depth == 1 && body[..close] == *key {
            if let Some(value) = rest.trim_start_matches(JSON_WS).strip_prefix(':') {
                return Some(value.trim_start_matches(JSON_WS));
            }
        }
    }
    None
}

/// Opening minus closing brackets in `bytes`, counted in chunks small
/// enough for byte-wide counters so the loop vectorizes.
fn nesting(bytes: &[u8]) -> i64 {
    bytes
        .chunks(255)
        .map(|chunk| {
            let (mut open, mut close) = (0u8, 0u8);
            for &c in chunk {
                open += u8::from(c == b'{' || c == b'[');
                close += u8::from(c == b'}' || c == b']');
            }
            i64::from(open) - i64::from(close)
        })
        .sum()
}

/// The index of the quote that ends a JSON string whose contents start at
/// `body[0]`, skipping escaped characters; `None` when it never ends.
fn string_end(body: &[u8]) -> Option<usize> {
    let mut i = 0;
    loop {
        i += body
            .get(i..)?
            .iter()
            .position(|&c| c == b'"' || c == b'\\')?;
        if body[i] == b'"' {
            return Some(i);
        }
        i += 2;
    }
}

pub(crate) const JSON_WS: [char; 4] = [' ', '\t', '\n', '\r'];

/// Parse the value of `key` as a flat or one-level-nested array of
/// unsigned integers — every number in source order, nesting flattened.
/// JSON whitespace may surround every token. `None` when the key is absent
/// or its value is anything else: a stray token, an empty element, deeper
/// nesting, or a number past `u64::MAX`.
pub(crate) fn json_u64s(text: &str, key: &str) -> Option<Vec<u64>> {
    let value = json_value(text, key)?;
    if !value.starts_with('[') {
        return None;
    }
    let b = value.as_bytes();
    let mut out = Vec::new();
    let (mut i, mut depth) = (0, 0);
    // Right after `[` or `,` a value must follow; `]` may close an array
    // right after `[` or a value, and `,` may only follow a value.
    let (mut want_value, mut may_close) = (true, true);
    loop {
        while b.get(i).is_some_and(|c| JSON_WS.contains(&char::from(*c))) {
            i += 1;
        }
        match *b.get(i)? {
            b'[' if want_value && depth < 2 => {
                depth += 1;
                may_close = true;
                i += 1;
            }
            b']' if may_close => {
                depth -= 1;
                if depth == 0 {
                    return Some(out);
                }
                want_value = false;
                i += 1;
            }
            b',' if !want_value => {
                want_value = true;
                may_close = false;
                i += 1;
            }
            b'0'..=b'9' if want_value => {
                let start = i;
                while b.get(i).is_some_and(u8::is_ascii_digit) {
                    i += 1;
                }
                out.push(value[start..i].parse().ok()?);
                want_value = false;
                may_close = true;
            }
            _ => return None,
        }
    }
}

pub(crate) fn sanitize(msg: &str) -> String {
    msg.chars()
        .map(|c| {
            if c == '"' || c == '\\' || c.is_control() {
                ' '
            } else {
                c
            }
        })
        .take(300)
        .collect()
}

/// A coordinator→worker message, as the worker loop consumes it.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkerMsg {
    /// (Re)configure for a figure group; payload is the campaign-defined
    /// group spec, passed through verbatim.
    Init(String),
    /// Evaluate one destination group.
    Task {
        /// Batch-local task id, echoed in the reply.
        id: u64,
        /// The group's destination.
        dest: AsId,
        /// `(attacker, stratum)` pairs in evaluation order.
        attackers: Vec<(AsId, usize)>,
    },
    /// Exit the worker loop.
    Shutdown,
}

/// Encode an init message around an opaque single-line JSON payload.
pub fn encode_init(payload: &str) -> String {
    format!("{{\"type\":\"init\",\"payload\":{payload}}}")
}

/// Encode a task message.
pub fn encode_task(id: u64, dest: AsId, attackers: &[(AsId, usize)]) -> String {
    let mut s = format!(
        "{{\"type\":\"task\",\"id\":{id},\"dest\":{},\"attackers\":[",
        dest.0
    );
    for (i, (m, h)) in attackers.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("[{},{h}]", m.0));
    }
    s.push_str("]}");
    s
}

/// The shutdown message.
pub fn encode_shutdown() -> String {
    "{\"type\":\"shutdown\"}".to_string()
}

/// Encode the worker's post-init handshake: the shape it will produce.
pub fn encode_ready(cell_stats: &[usize], nstrata: usize) -> String {
    let mut s = String::from("{\"type\":\"ready\",\"stats\":[");
    for (i, k) in cell_stats.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&k.to_string());
    }
    s.push_str(&format!("],\"strata\":{nstrata}}}"));
    s
}

/// Encode a task result (the flat accumulator data of [`encode_task`]'s
/// group — see [`eval_task_data`] for the layout).
pub fn encode_result(id: u64, data: &[u64]) -> String {
    let mut s = format!("{{\"type\":\"result\",\"id\":{id},\"data\":[");
    for (i, v) in data.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&v.to_string());
    }
    s.push_str("]}");
    s
}

/// Encode a recoverable per-task failure (the worker survives; the
/// coordinator strikes the task).
pub fn encode_error(id: u64, msg: &str) -> String {
    format!(
        "{{\"type\":\"error\",\"id\":{id},\"msg\":\"{}\"}}",
        sanitize(msg)
    )
}

/// Parse a coordinator→worker frame.
pub fn parse_worker_msg(text: &str) -> Result<WorkerMsg, String> {
    match json_str_field(text, "type") {
        Some("init") => {
            let pat = "\"payload\":";
            let start = text
                .find(pat)
                .ok_or_else(|| "init without payload".to_string())?
                + pat.len();
            let payload = text[start..]
                .strip_suffix('}')
                .ok_or_else(|| "unterminated init".to_string())?;
            Ok(WorkerMsg::Init(payload.to_string()))
        }
        Some("task") => {
            let id = json_u64_field(text, "id").ok_or_else(|| "task without id".to_string())?;
            let dest =
                json_u64_field(text, "dest").ok_or_else(|| "task without dest".to_string())?;
            let flat =
                json_u64s(text, "attackers").ok_or_else(|| "task without attackers".to_string())?;
            if flat.len() % 2 != 0 {
                return Err("odd attacker list".to_string());
            }
            let attackers = flat
                .chunks_exact(2)
                .map(|p| (AsId(p[0] as u32), p[1] as usize))
                .collect();
            Ok(WorkerMsg::Task {
                id,
                dest: AsId(dest as u32),
                attackers,
            })
        }
        Some("shutdown") => Ok(WorkerMsg::Shutdown),
        other => Err(format!("unknown message type {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// Worker-side evaluation
// ---------------------------------------------------------------------------

/// Evaluate one destination group through a [`CellEval`] kernel and return
/// the accumulator data in wire layout: for each cell `c`, statistic `k`,
/// stratum `h`, the six `u64`s `(n, mean, m2)` of the lower then the upper
/// Welford accumulator (floats as `to_bits`). This is byte-for-byte the
/// chunk accumulator the in-process reduction would have produced for the
/// same group, which is the whole bit-identity argument.
pub fn eval_task_data<E: CellEval>(
    eval: &E,
    w: &mut E::Worker,
    nstrata: usize,
    dest: AsId,
    attackers: &[(AsId, usize)],
) -> Vec<u64> {
    let cell_stats = eval.cell_stats();
    let mut acc = empty_strata(&cell_stats, nstrata);
    eval.begin(w, dest);
    for &(m, h) in attackers {
        eval.eval_pair(w, m, dest, &mut |c, k, b: Bounds| {
            acc[c][k][h].push(b);
        });
    }
    let mut data = Vec::with_capacity(data_len(&cell_stats, nstrata));
    for s in acc.iter().flatten().flatten() {
        for (n, mean, m2) in [s.lower.raw(), s.upper.raw()] {
            data.extend([n, mean.to_bits(), m2.to_bits()]);
        }
    }
    data
}

/// Wire length of one task's data for a shape.
pub fn data_len(cell_stats: &[usize], nstrata: usize) -> usize {
    cell_stats.iter().sum::<usize>() * nstrata * 6
}

/// The accumulators of one [`eval_task_data`] reply (whose length the
/// supervisor has already checked against [`data_len`]).
fn decode_result_data(data: &[u64], cell_stats: &[usize], nstrata: usize) -> CellStrata {
    let mut welfords = data
        .chunks_exact(3)
        .map(|t| Welford::from_raw(t[0], f64::from_bits(t[1]), f64::from_bits(t[2])));
    let mut acc = empty_strata(cell_stats, nstrata);
    for s in acc.iter_mut().flatten().flatten() {
        s.lower = welfords.next().unwrap_or_default();
        s.upper = welfords.next().unwrap_or_default();
    }
    acc
}

// ---------------------------------------------------------------------------
// The supervisor
// ---------------------------------------------------------------------------

/// Supervisor knobs (campaign flags map onto these).
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Worker process count (≥ 1).
    pub workers: usize,
    /// Worker command line: program plus base arguments. The supervisor
    /// appends `--worker-id <spawn-id>` so every incarnation has a unique
    /// fault-plan role.
    pub argv: Vec<String>,
    /// Per-task wall-clock watchdog.
    pub watchdog: Duration,
    /// Failures before a task is marked degraded.
    pub strikes: u32,
    /// Base respawn backoff, doubled per consecutive failure of a slot.
    pub backoff: Duration,
}

/// The outcome of one task of a batch.
#[derive(Clone, Debug)]
pub enum TaskOutcome {
    /// Accumulator data in wire layout (see [`eval_task_data`]).
    Done(Vec<u64>),
    /// The task failed `strikes` times and was abandoned.
    Degraded {
        /// Failures charged to the task.
        strikes: u32,
        /// The last failure's description.
        last_error: String,
    },
}

enum Event {
    Frame(String),
    Gone(String),
}

#[derive(Clone, Copy)]
enum ProcState {
    AwaitingReady,
    Idle,
    Busy { task: usize, deadline: Instant },
}

struct Proc {
    spawn_id: u64,
    child: Child,
    stdin: ChildStdin,
    state: ProcState,
}

struct Slot {
    proc: Option<Proc>,
    failures: u32,
    respawn_at: Instant,
}

/// One failure charged to a task: requeue it, or degrade it at the strike
/// cap.
fn charge_strike(
    t: usize,
    why: &str,
    max: u32,
    strikes: &mut [u32],
    queue: &mut VecDeque<usize>,
    outcomes: &mut [Option<TaskOutcome>],
    pending: &mut usize,
) {
    strikes[t] += 1;
    eprintln!("supervisor: task {t} strike {}/{max}: {why}", strikes[t]);
    if strikes[t] >= max {
        eprintln!("supervisor: task {t} degraded after {} strikes", strikes[t]);
        outcomes[t] = Some(TaskOutcome::Degraded {
            strikes: strikes[t],
            last_error: why.to_string(),
        });
        *pending -= 1;
    } else {
        queue.push_back(t);
    }
}

/// A pool of supervised worker processes serving destination-group tasks.
///
/// One `Supervisor` lives across many batches (and many figure groups —
/// each re-inits the workers); dropping it shuts the workers down.
pub struct Supervisor {
    cfg: SupervisorConfig,
    slots: Vec<Slot>,
    tx: Sender<(u64, Event)>,
    rx: Receiver<(u64, Event)>,
    next_spawn: u64,
    /// Spawn ids whose events are stale (killed or replaced processes).
    dead: HashSet<u64>,
    init: Option<String>,
    boot_failures: u32,
}

impl Supervisor {
    /// Build a pool; workers are spawned lazily on the first batch.
    pub fn new(cfg: SupervisorConfig) -> Supervisor {
        assert!(cfg.workers >= 1, "supervisor needs at least one worker");
        assert!(cfg.strikes >= 1, "retry ladder needs at least one strike");
        let (tx, rx) = std::sync::mpsc::channel();
        let slots = (0..cfg.workers)
            .map(|_| Slot {
                proc: None,
                failures: 0,
                respawn_at: Instant::now(),
            })
            .collect();
        Supervisor {
            cfg,
            slots,
            tx,
            rx,
            next_spawn: 0,
            dead: HashSet::new(),
            init: None,
            boot_failures: 0,
        }
    }

    fn spawn(&mut self, slot: usize) {
        let spawn_id = self.next_spawn;
        self.next_spawn += 1;
        let init = self.init.clone().expect("spawn only inside a batch");
        let mut cmd = Command::new(&self.cfg.argv[0]);
        cmd.args(&self.cfg.argv[1..])
            .arg("--worker-id")
            .arg(spawn_id.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = match cmd.spawn() {
            Ok(c) => c,
            Err(e) => {
                eprintln!("supervisor: cannot spawn worker{spawn_id}: {e}");
                self.note_boot_failure(slot);
                return;
            }
        };
        let mut stdin = child.stdin.take().expect("piped stdin");
        let mut stdout = child.stdout.take().expect("piped stdout");
        let tx = self.tx.clone();
        std::thread::spawn(move || loop {
            match read_frame(&mut stdout) {
                Ok(Some(frame)) => {
                    if tx.send((spawn_id, Event::Frame(frame))).is_err() {
                        break;
                    }
                }
                Ok(None) => {
                    let _ = tx.send((spawn_id, Event::Gone("eof".to_string())));
                    break;
                }
                Err(e) => {
                    let _ = tx.send((spawn_id, Event::Gone(e.to_string())));
                    break;
                }
            }
        });
        // A failed init write means the child died at birth; its Gone
        // event retires the slot once the proc is registered below.
        let _ = write_frame(&mut stdin, &encode_init(&init));
        self.slots[slot].proc = Some(Proc {
            spawn_id,
            child,
            stdin,
            state: ProcState::AwaitingReady,
        });
    }

    fn note_boot_failure(&mut self, slot: usize) {
        self.boot_failures += 1;
        let backoff = self.backoff(self.slots[slot].failures + 1);
        let s = &mut self.slots[slot];
        s.failures += 1;
        s.respawn_at = Instant::now() + backoff;
    }

    fn backoff(&self, failures: u32) -> Duration {
        self.cfg.backoff * 2u32.pow(failures.saturating_sub(1).min(5))
    }

    fn retire(&mut self, slot: usize, kill: bool) {
        if let Some(mut p) = self.slots[slot].proc.take() {
            self.dead.insert(p.spawn_id);
            if kill {
                let _ = p.child.kill();
            }
            let _ = p.child.wait();
        }
        let backoff = self.backoff(self.slots[slot].failures + 1);
        let s = &mut self.slots[slot];
        s.failures += 1;
        s.respawn_at = Instant::now() + backoff;
    }

    fn slot_of(&self, spawn_id: u64) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.proc.as_ref().is_some_and(|p| p.spawn_id == spawn_id))
    }

    fn state_of(&self, slot: usize) -> ProcState {
        self.slots[slot].proc.as_ref().expect("live proc").state
    }

    fn set_state(&mut self, slot: usize, state: ProcState) {
        self.slots[slot].proc.as_mut().expect("live proc").state = state;
    }

    /// Run one batch of destination-group tasks to completion, returning
    /// outcomes in task order. `init` reconfigures workers whose current
    /// figure group differs; `cell_stats`/`nstrata` pin the reply shape
    /// (a mismatched `ready` is a boot failure, a mismatched result a
    /// strike).
    pub fn run_batch(
        &mut self,
        init: &str,
        cell_stats: &[usize],
        nstrata: usize,
        tasks: &[(AsId, Vec<(AsId, usize)>)],
    ) -> Vec<TaskOutcome> {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        let expected_len = data_len(cell_stats, nstrata);
        let max_strikes = self.cfg.strikes;
        let mut outcomes: Vec<Option<TaskOutcome>> = (0..n).map(|_| None).collect();

        // Re-init live workers when the figure group changed.
        if self.init.as_deref() != Some(init) {
            self.init = Some(init.to_string());
            let msg = encode_init(init);
            for slot in 0..self.slots.len() {
                if self.slots[slot].proc.is_none() {
                    continue;
                }
                let ok = {
                    let p = self.slots[slot].proc.as_mut().expect("live proc");
                    write_frame(&mut p.stdin, &msg).is_ok()
                };
                if ok {
                    self.set_state(slot, ProcState::AwaitingReady);
                } else {
                    self.retire(slot, true);
                }
            }
        }

        let mut queue: VecDeque<usize> = (0..n).collect();
        let mut strikes = vec![0u32; n];
        let mut pending = n;
        // Boot-failure circuit breaker: if workers can't even reach
        // `ready` this many times in a row, the fleet is unusable and the
        // whole batch degrades rather than retrying forever.
        let boot_cap = (max_strikes * self.cfg.workers as u32).max(4);
        self.boot_failures = 0;

        while pending > 0 {
            let now = Instant::now();

            // Respawn empty slots whose backoff expired.
            for slot in 0..self.slots.len() {
                if self.slots[slot].proc.is_none()
                    && now >= self.slots[slot].respawn_at
                    && self.boot_failures < boot_cap
                {
                    self.spawn(slot);
                }
            }

            // Work stealing: every idle worker pulls the next queued task.
            for slot in 0..self.slots.len() {
                if queue.is_empty() {
                    break;
                }
                let idle = self.slots[slot]
                    .proc
                    .as_ref()
                    .is_some_and(|p| matches!(p.state, ProcState::Idle));
                if !idle {
                    continue;
                }
                let t = queue.pop_front().expect("checked nonempty");
                let mut msg = encode_task(t as u64, tasks[t].0, &tasks[t].1);
                match faultpoint::check("coord.frame", &format!("task{t}")) {
                    Some(faultpoint::Fault::Garbage) => msg = "{\"type\":\"task\"}".to_string(),
                    Some(_) => msg.clear(), // an empty frame is wire garbage too
                    None => {}
                }
                let ok = {
                    let p = self.slots[slot].proc.as_mut().expect("live proc");
                    write_frame(&mut p.stdin, &msg).is_ok()
                };
                if ok {
                    self.set_state(
                        slot,
                        ProcState::Busy {
                            task: t,
                            deadline: Instant::now() + self.cfg.watchdog,
                        },
                    );
                } else {
                    // Death during assignment: requeue without a strike —
                    // the crash predates the task.
                    queue.push_front(t);
                    self.retire(slot, true);
                }
            }

            // Fleet unusable and nothing in flight: degrade what's left.
            if self.boot_failures >= boot_cap && self.slots.iter().all(|s| s.proc.is_none()) {
                for (t, o) in outcomes.iter_mut().enumerate() {
                    if o.is_none() {
                        eprintln!("supervisor: task {t} degraded, worker fleet failed to boot");
                        *o = Some(TaskOutcome::Degraded {
                            strikes: strikes[t],
                            last_error: "worker fleet failed to boot".to_string(),
                        });
                    }
                }
                break;
            }

            // Sleep until the next deadline or respawn, whichever first.
            let mut wake: Option<Instant> = None;
            for s in &self.slots {
                let t = match &s.proc {
                    Some(p) => match p.state {
                        ProcState::Busy { deadline, .. } => Some(deadline),
                        _ => None,
                    },
                    None => Some(s.respawn_at),
                };
                if let Some(t) = t {
                    wake = Some(match wake {
                        Some(w) => w.min(t),
                        None => t,
                    });
                }
            }
            let timeout = wake
                .map(|w| w.saturating_duration_since(now))
                .unwrap_or(Duration::from_millis(200))
                .max(Duration::from_millis(1));

            match self.rx.recv_timeout(timeout) {
                Ok((spawn_id, _)) if self.dead.contains(&spawn_id) => {}
                Ok((spawn_id, Event::Gone(why))) => {
                    if let Some(slot) = self.slot_of(spawn_id) {
                        match self.state_of(slot) {
                            ProcState::Busy { task, .. } => charge_strike(
                                task,
                                &format!("worker{spawn_id} died ({why})"),
                                max_strikes,
                                &mut strikes,
                                &mut queue,
                                &mut outcomes,
                                &mut pending,
                            ),
                            ProcState::AwaitingReady => {
                                eprintln!("supervisor: worker{spawn_id} died before ready ({why})");
                                self.boot_failures += 1;
                            }
                            ProcState::Idle => {
                                eprintln!("supervisor: idle worker{spawn_id} died ({why})");
                            }
                        }
                        self.retire(slot, false);
                    }
                }
                Ok((spawn_id, Event::Frame(frame))) => {
                    let Some(slot) = self.slot_of(spawn_id) else {
                        continue;
                    };
                    match json_str_field(&frame, "type") {
                        Some("ready") => {
                            let stats = json_u64s(&frame, "stats").unwrap_or_default();
                            let strata = json_u64_field(&frame, "strata");
                            let want: Vec<u64> = cell_stats.iter().map(|&k| k as u64).collect();
                            if stats == want && strata == Some(nstrata as u64) {
                                self.set_state(slot, ProcState::Idle);
                                self.slots[slot].failures = 0;
                                self.boot_failures = 0;
                            } else {
                                eprintln!(
                                    "supervisor: worker{spawn_id} ready with wrong shape, retiring"
                                );
                                self.boot_failures += 1;
                                self.retire(slot, true);
                            }
                        }
                        Some("result") => {
                            let ProcState::Busy { task, .. } = self.state_of(slot) else {
                                eprintln!(
                                    "supervisor: unexpected result from worker{spawn_id}, retiring"
                                );
                                self.retire(slot, true);
                                continue;
                            };
                            let id = json_u64_field(&frame, "id");
                            let data = json_u64s(&frame, "data");
                            match (id, data) {
                                (Some(id), Some(data))
                                    if id == task as u64 && data.len() == expected_len =>
                                {
                                    outcomes[task] = Some(TaskOutcome::Done(data));
                                    pending -= 1;
                                    self.set_state(slot, ProcState::Idle);
                                }
                                _ => {
                                    charge_strike(
                                        task,
                                        &format!(
                                            "worker{spawn_id} replied with a wrong-schema result"
                                        ),
                                        max_strikes,
                                        &mut strikes,
                                        &mut queue,
                                        &mut outcomes,
                                        &mut pending,
                                    );
                                    self.retire(slot, true);
                                }
                            }
                        }
                        Some("error") => {
                            // The worker survived (caught panic / injected
                            // eval error): strike the task, keep the
                            // worker.
                            let ProcState::Busy { task, .. } = self.state_of(slot) else {
                                self.retire(slot, true);
                                continue;
                            };
                            let msg = json_str_field(&frame, "msg").unwrap_or("?").to_string();
                            self.set_state(slot, ProcState::Idle);
                            charge_strike(
                                task,
                                &format!("worker{spawn_id} eval failed: {msg}"),
                                max_strikes,
                                &mut strikes,
                                &mut queue,
                                &mut outcomes,
                                &mut pending,
                            );
                        }
                        _ => {
                            eprintln!("supervisor: garbage frame from worker{spawn_id}, retiring");
                            if let ProcState::Busy { task, .. } = self.state_of(slot) {
                                charge_strike(
                                    task,
                                    &format!("worker{spawn_id} sent a garbage frame"),
                                    max_strikes,
                                    &mut strikes,
                                    &mut queue,
                                    &mut outcomes,
                                    &mut pending,
                                );
                            }
                            self.retire(slot, true);
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => unreachable!("supervisor holds a sender"),
            }

            // Watchdog sweep: kill anything past its deadline.
            let now = Instant::now();
            for slot in 0..self.slots.len() {
                let expired = match &self.slots[slot].proc {
                    Some(p) => match p.state {
                        ProcState::Busy { task, deadline } if now >= deadline => {
                            Some((task, p.spawn_id))
                        }
                        _ => None,
                    },
                    None => None,
                };
                if let Some((task, sid)) = expired {
                    eprintln!(
                        "supervisor: watchdog expired for task {task} on worker{sid}, killing"
                    );
                    charge_strike(
                        task,
                        &format!("watchdog expired on worker{sid}"),
                        max_strikes,
                        &mut strikes,
                        &mut queue,
                        &mut outcomes,
                        &mut pending,
                    );
                    self.retire(slot, true);
                }
            }
        }

        outcomes
            .into_iter()
            .map(|o| o.expect("all tasks resolved"))
            .collect()
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        for slot in &mut self.slots {
            if let Some(mut p) = slot.proc.take() {
                let _ = write_frame(&mut p.stdin, &encode_shutdown());
                let _ = p.child.kill();
                let _ = p.child.wait();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The distributed adaptive estimator
// ---------------------------------------------------------------------------

/// [`crate::stats::estimate_adaptive_cells`] over a [`Supervisor`]'s
/// worker pool: the same round loop, universe, seeded round schedule and
/// merge order, with each round's destination groups served by
/// [`Supervisor::run_batch`] — bit-identical to the in-process estimator
/// for any worker count. Degraded groups surface as
/// [`AdaptiveRun::lost_groups`] / [`AdaptiveRun::lost_pairs`] on every
/// cell still active that round.
pub fn estimate_adaptive_supervised(
    universe: &PairUniverse,
    cfg: &EstimatorConfig,
    cell_stats: &[usize],
    init: &str,
    sup: &mut Supervisor,
) -> Vec<AdaptiveRun> {
    let nstrata = universe.strata().len();
    adaptive_rounds(universe, cfg, cell_stats, |groups, active| {
        // Fold group accumulators in group (= task) order into a fresh
        // round accumulator, exactly as the in-process pool folds its
        // chunks; a stopped cell folds nothing, as in process.
        let mut round = empty_strata(cell_stats, nstrata);
        let mut lost = Vec::new();
        let outcomes = sup.run_batch(init, cell_stats, nstrata, groups);
        for (g, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                TaskOutcome::Done(data) => {
                    let mut group = decode_result_data(&data, cell_stats, nstrata);
                    for (cell, &live) in group.iter_mut().zip(active) {
                        if !live {
                            cell.clear();
                        }
                    }
                    merge_strata(&mut round, group);
                }
                TaskOutcome::Degraded { .. } => lost.push(g),
            }
        }
        (round, lost)
    })
}

// ---------------------------------------------------------------------------
// Checkpoint integrity
// ---------------------------------------------------------------------------

/// FNV-1a 64 over `text`, line by line, with any `"checksum"` line elided —
/// so a checkpoint can embed its own checksum and still verify.
pub fn content_checksum(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    fn eat(h: &mut u64, b: u8) {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for line in text.lines() {
        if line.trim_start().starts_with("\"checksum\":") {
            continue;
        }
        for &b in line.as_bytes() {
            eat(&mut h, b);
        }
        eat(&mut h, b'\n');
    }
    h
}

/// The 16-hex-digit form of [`content_checksum`], as embedded in cell JSON.
pub fn checksum_hex(text: &str) -> String {
    format!("{:016x}", content_checksum(text))
}

/// What [`verify_checksum`] found in a checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChecksumStatus {
    /// No checksum line (pre-hardening checkpoint, or not a checkpoint).
    Missing,
    /// Checksum present and matching the content.
    Valid,
    /// Checksum present but wrong: the file is torn or corrupted.
    Mismatch,
}

/// Audit a checkpoint's embedded `"checksum"` line against its content.
pub fn verify_checksum(text: &str) -> ChecksumStatus {
    let pat = "\"checksum\": \"";
    let Some(start) = text.find(pat) else {
        return ChecksumStatus::Missing;
    };
    let hex = &text[start + pat.len()..];
    let Some(end) = hex.find('"') else {
        return ChecksumStatus::Mismatch;
    };
    match u64::from_str_radix(&hex[..end], 16) {
        Ok(v) if v == content_checksum(text) => ChecksumStatus::Valid,
        _ => ChecksumStatus::Mismatch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::StratumStats;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        write_frame(&mut buf, "").unwrap();
        write_frame(&mut buf, "{\"x\":1}").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("hello"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("{\"x\":1}"));
        assert_eq!(read_frame(&mut r).unwrap(), None);
        // A frame truncated mid-payload is an error, not a silent EOF.
        let mut r = &buf[..6];
        assert!(read_frame(&mut r).is_err());
        // An insane length is rejected before allocation.
        let mut bad = Vec::new();
        bad.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut r = &bad[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn messages_round_trip() {
        let init = encode_init("{\"figure\":\"baseline\",\"asns\":400}");
        match parse_worker_msg(&init).unwrap() {
            WorkerMsg::Init(p) => assert_eq!(p, "{\"figure\":\"baseline\",\"asns\":400}"),
            other => panic!("{other:?}"),
        }
        let task = encode_task(7, AsId(42), &[(AsId(5), 0), (AsId(9), 3)]);
        assert_eq!(
            parse_worker_msg(&task).unwrap(),
            WorkerMsg::Task {
                id: 7,
                dest: AsId(42),
                attackers: vec![(AsId(5), 0), (AsId(9), 3)],
            }
        );
        let empty = encode_task(0, AsId(1), &[]);
        assert_eq!(
            parse_worker_msg(&empty).unwrap(),
            WorkerMsg::Task {
                id: 0,
                dest: AsId(1),
                attackers: vec![],
            }
        );
        assert_eq!(
            parse_worker_msg(&encode_shutdown()).unwrap(),
            WorkerMsg::Shutdown
        );
        assert!(parse_worker_msg("{\"type\":\"task\"}").is_err());
        assert!(parse_worker_msg("nonsense").is_err());

        let ready = encode_ready(&[4, 4, 4], 25);
        assert_eq!(json_u64s(&ready, "stats"), Some(vec![4, 4, 4]));
        assert_eq!(json_u64_field(&ready, "strata"), Some(25));

        let result = encode_result(3, &[1, u64::MAX, 0]);
        assert_eq!(json_u64_field(&result, "id"), Some(3));
        assert_eq!(json_u64s(&result, "data"), Some(vec![1, u64::MAX, 0]));

        let err = encode_error(2, "boom \"quoted\"\nline");
        assert_eq!(json_u64_field(&err, "id"), Some(2));
        assert_eq!(json_str_field(&err, "msg"), Some("boom  quoted  line"));
    }

    #[test]
    fn u64_lists_accept_json_whitespace_and_reject_overflow() {
        let parse = |text: &str| json_u64s(text, "k");
        assert_eq!(parse("{\"k\":[1,2]}"), Some(vec![1, 2]));
        assert_eq!(parse("{\"k\" : [ 1 , 2 ] }"), Some(vec![1, 2]));
        assert_eq!(parse("{\"k\":\n[[1, 2],\t[3]]}"), Some(vec![1, 2, 3]));
        assert_eq!(parse("{\"k\":[ ]}"), Some(vec![]));
        assert_eq!(
            parse("{\"k\":[18446744073709551615]}"),
            Some(vec![u64::MAX])
        );
        for bad in [
            "{\"k\":[18446744073709551616]}",
            "{\"k\":[18446744073709551621]}",
            "{\"k\":[1,x]}",
            "{\"k\":[1,,2]}",
            "{\"k\":[1,]}",
            "{\"k\":[,1]}",
            "{\"k\":[1 2]}",
            "{\"k\":[-1]}",
            "{\"k\":[1.5]}",
            "{\"k\":[[[1]]]}",
            "{\"k\":[1",
            "{\"k\":1}",
            "{\"j\":[1]}",
        ] {
            assert_eq!(parse(bad), None, "accepted: {bad}");
        }
        // A string value that spells the key is not the key.
        assert_eq!(parse("{\"x\":\"k\",\"k\":[4]}"), Some(vec![4]));
        // Nor is a key of a nested object, or text inside a string.
        assert_eq!(parse("{\"x\":{\"k\":[1]},\"k\":[2]}"), Some(vec![2]));
        assert_eq!(parse("{\"x\":[{\"k\":[1]}]}"), None);
        assert_eq!(parse("{\"s\":\"a\\\"k\\\":[9]\",\"k\":[3]}"), Some(vec![3]));
    }

    #[test]
    fn result_data_round_trips_bit_exactly() {
        let mut s = StratumStats::default();
        s.push(Bounds {
            lower: 0.123456789,
            upper: 0.987654321,
        });
        s.push(Bounds {
            lower: 1.0 / 3.0,
            upper: 2.0 / 7.0,
        });
        let mut data = Vec::new();
        for w in [&s.lower, &s.upper] {
            let (n, mean, m2) = w.raw();
            data.extend_from_slice(&[n, mean.to_bits(), m2.to_bits()]);
        }
        let text = encode_result(0, &data);
        let back = json_u64s(&text, "data").unwrap();
        assert_eq!(back, data);
        let decoded = decode_result_data(&back, &[1], 1);
        let d = &decoded[0][0][0];
        assert_eq!(d.lower.raw(), s.lower.raw());
        assert_eq!(d.upper.raw(), s.upper.raw());
        let mut merged = Welford::default();
        merged.merge(d.lower);
        assert_eq!(merged.raw(), s.lower.raw());
    }

    #[test]
    fn checksums_catch_any_flip() {
        let cell = "    {\n      \"schema\": \"campaign-cell-v1\",\n      \"pairs\": 300\n    }";
        let sum = checksum_hex(cell);
        let with = format!(
            "    {{\n      \"schema\": \"campaign-cell-v1\",\n      \"checksum\": \"{sum}\",\n      \"pairs\": 300\n    }}"
        );
        assert_eq!(verify_checksum(&with), ChecksumStatus::Valid);
        assert_eq!(verify_checksum(cell), ChecksumStatus::Missing);
        // Any single byte flip trips it — including inside the checksum
        // digits themselves. The one blind spot is bytes *after* the hex
        // value on the elided checksum line (its trailing comma), which
        // no self-embedded checksum can cover.
        let comma = with.find(&format!("{sum}\"")).unwrap() + sum.len() + 1;
        assert_eq!(with.as_bytes()[comma], b',');
        for i in 0..with.len() {
            if i == comma {
                continue;
            }
            let mut bytes = with.as_bytes().to_vec();
            bytes[i] ^= 0x01;
            if let Ok(s) = String::from_utf8(bytes) {
                assert_ne!(verify_checksum(&s), ChecksumStatus::Valid, "flip at {i}");
            }
        }
        assert_eq!(verify_checksum(""), ChecksumStatus::Missing);
    }
}
