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

use std::borrow::Cow;
use std::collections::{HashSet, VecDeque};
use std::io::{Read, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use sbgp_core::Bounds;
use sbgp_topology::AsId;

use crate::faultpoint;
use crate::json::{self, JsonError, Reader};
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
// Wire messages (written by hand, read through `crate::json`)
// ---------------------------------------------------------------------------

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
    let mut s = format!("{{\"type\":\"error\",\"id\":{id},\"msg\":");
    json::write_str(&mut s, msg);
    s.push('}');
    s
}

/// Convert `v` to a `T` (a graph id, a stratum), naming `what` it was
/// when it does not fit.
fn fits<T: TryFrom<u64>>(v: u64, what: &str) -> Result<T, String> {
    T::try_from(v).map_err(|_| format!("{what} {v} out of range"))
}

/// Read a list of unsigned integers.
fn u64_list(r: &mut Reader<'_>) -> Result<Vec<u64>, JsonError> {
    let mut out = Vec::new();
    r.list(|r| {
        out.push(r.u64()?);
        Ok(())
    })?;
    Ok(out)
}

/// Read a task's `[[attacker, stratum], ...]` list.
fn attacker_pairs(r: &mut Reader<'_>) -> Result<Vec<(AsId, usize)>, JsonError> {
    let mut pairs = Vec::new();
    r.list(|r| {
        let pair = r.read_as(u64_list, |pair| match pair[..] {
            [m, h] => Ok((AsId(fits(m, "attacker id")?), fits(h, "stratum")?)),
            _ => Err("expected an [attacker, stratum] pair".to_string()),
        })?;
        pairs.push(pair);
        Ok(())
    })?;
    Ok(pairs)
}

/// A protocol frame, in either direction: its `type` (with the offset of
/// that value) and whichever fields it carries.
#[derive(Default)]
struct Frame<'t> {
    kind: Option<(usize, Cow<'t, str>)>,
    payload: Option<&'t str>,
    id: Option<u64>,
    dest: Option<AsId>,
    attackers: Option<Vec<(AsId, usize)>>,
    stats: Option<Vec<u64>>,
    strata: Option<u64>,
    data: Option<Vec<u64>>,
    msg: Option<Cow<'t, str>>,
}

impl<'t> Frame<'t> {
    /// Read a frame, and the offset of its closing brace.
    fn read(text: &'t str) -> Result<(Frame<'t>, usize), JsonError> {
        let mut f = Frame::default();
        let end = Reader::parse(text, |r| {
            r.object(|key, r| {
                match key {
                    "type" => f.kind = Some((r.at(), r.str()?)),
                    "payload" => f.payload = Some(r.skip()?),
                    "id" => f.id = Some(r.u64()?),
                    "dest" => {
                        f.dest = Some(AsId(r.read_as(Reader::u64, |v| fits(v, "destination id"))?))
                    }
                    "attackers" => f.attackers = Some(attacker_pairs(r)?),
                    "stats" => f.stats = Some(u64_list(r)?),
                    "strata" => f.strata = Some(r.u64()?),
                    "data" => f.data = Some(u64_list(r)?),
                    "msg" => f.msg = Some(r.str()?),
                    _ => _ = r.skip()?,
                }
                Ok(())
            })
        })?;
        Ok((f, end))
    }

    /// The frame's type; empty when it has none.
    fn kind(&self) -> &str {
        self.kind.as_ref().map_or("", |(_, k)| k)
    }
}

/// Parse a coordinator→worker frame. Every error names the byte it
/// concerns.
pub fn parse_worker_msg(text: &str) -> Result<WorkerMsg, String> {
    let (f, end) = Frame::read(text).map_err(|e| e.to_string())?;
    let absent = |what: &str| format!("byte {end}: {what}");
    let Frame {
        kind,
        payload,
        id,
        dest,
        attackers,
        ..
    } = f;
    match kind.as_ref().map(|(at, k)| (*at, &**k)) {
        Some((_, "init")) => payload
            .map(|p| WorkerMsg::Init(p.to_string()))
            .ok_or_else(|| absent("init without payload")),
        Some((_, "task")) => Ok(WorkerMsg::Task {
            id: id.ok_or_else(|| absent("task without id"))?,
            dest: dest.ok_or_else(|| absent("task without dest"))?,
            attackers: attackers.ok_or_else(|| absent("task without attackers"))?,
        }),
        Some((_, "shutdown")) => Ok(WorkerMsg::Shutdown),
        Some((at, other)) => Err(format!("byte {at}: unknown message type {other:?}")),
        None => Err(absent("message without type")),
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
pub fn eval_task_data<E: CellEval + ?Sized>(
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
                    // A frame that is not valid JSON has no type: garbage.
                    let reply = Frame::read(&frame).map(|(f, _)| f).unwrap_or_default();
                    match reply.kind() {
                        "ready" => {
                            let want: Vec<u64> = cell_stats.iter().map(|&k| k as u64).collect();
                            if reply.stats == Some(want) && reply.strata == Some(nstrata as u64) {
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
                        "result" => {
                            let ProcState::Busy { task, .. } = self.state_of(slot) else {
                                eprintln!(
                                    "supervisor: unexpected result from worker{spawn_id}, retiring"
                                );
                                self.retire(slot, true);
                                continue;
                            };
                            match (reply.id, reply.data) {
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
                        "error" => {
                            // The worker survived (caught panic / injected
                            // eval error): strike the task, keep the
                            // worker.
                            let ProcState::Busy { task, .. } = self.state_of(slot) else {
                                self.retire(slot, true);
                                continue;
                            };
                            let msg = reply.msg.as_deref().unwrap_or("?");
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
        // Any key order, JSON whitespace anywhere, the payload verbatim.
        let spaced = "{ \"payload\" : {\"b\": [1, {}]} ,\n\"type\": \"init\" }";
        assert_eq!(
            parse_worker_msg(spaced),
            Ok(WorkerMsg::Init("{\"b\": [1, {}]}".to_string()))
        );
        for (bad, err) in [
            ("{\"type\":\"task\"}", "byte 14: task without id"),
            ("nonsense", "byte 0: expected '{'"),
            ("{\"type\":\"init\"}", "byte 14: init without payload"),
            (
                "{\"type\":\"jump\"}",
                "byte 8: unknown message type \"jump\"",
            ),
            (
                "{\"type\":\"shutdown\"} {}",
                "byte 20: trailing bytes after the value",
            ),
            (
                "{\"type\":\"shutdown\",\"type\":\"task\"}",
                "byte 19: duplicate key \"type\"",
            ),
            (
                "{\"type\":\"task\",\"id\":1,\"dest\":2,\"attackers\":[[1]]}",
                "byte 44: expected an [attacker, stratum] pair",
            ),
        ] {
            assert_eq!(parse_worker_msg(bad), Err(err.to_string()), "{bad}");
        }

        let ready = encode_ready(&[4, 4, 4], 25);
        let (ready, _) = Frame::read(&ready).unwrap();
        assert_eq!(ready.kind(), "ready");
        assert_eq!(ready.stats, Some(vec![4, 4, 4]));
        assert_eq!(ready.strata, Some(25));

        let result = encode_result(3, &[1, u64::MAX, 0]);
        let (result, _) = Frame::read(&result).unwrap();
        assert_eq!(result.id, Some(3));
        assert_eq!(result.data, Some(vec![1, u64::MAX, 0]));

        // Error messages come back exactly, quotes and newlines included.
        let msg = "boom \"quoted\"\nline \\ path";
        let err = encode_error(2, msg);
        let (err, _) = Frame::read(&err).unwrap();
        assert_eq!(err.id, Some(2));
        assert_eq!(err.msg.as_deref(), Some(msg));
        assert!(Frame::read("{\"type\":\"error\"").is_err());
    }

    /// An id past `u32::MAX` is a located error, never a truncated id:
    /// a destination at its value, an attacker at its pair.
    #[test]
    fn task_ids_out_of_range_are_rejected_where_they_stand() {
        let max = u32::MAX;
        let ok = format!("{{\"type\":\"task\",\"id\":1,\"dest\":{max},\"attackers\":[[{max},0]]}}");
        assert_eq!(
            parse_worker_msg(&ok),
            Ok(WorkerMsg::Task {
                id: 1,
                dest: AsId(max),
                attackers: vec![(AsId(max), 0)],
            })
        );
        for (bad, err) in [
            (
                "{\"type\":\"task\",\"id\":1,\"dest\":4294967296,\"attackers\":[]}",
                "byte 29: destination id 4294967296 out of range",
            ),
            (
                "{\"type\":\"task\",\"id\":1,\"dest\":0,\"attackers\":[[5,0],[4294967301,1]]}",
                "byte 50: attacker id 4294967301 out of range",
            ),
        ] {
            assert_eq!(parse_worker_msg(bad), Err(err.to_string()), "{bad}");
        }
    }

    #[test]
    fn u64_lists_accept_json_whitespace_and_reject_overflow() {
        // The top-level `k` read as a list of unsigned integers; `None`
        // when the key is absent or the text is not such an object.
        let parse = |text: &str| {
            Reader::parse(text, |r| {
                let mut out = None;
                r.object(|key, r| {
                    match key {
                        "k" => out = Some(u64_list(r)?),
                        _ => {
                            r.skip()?;
                        }
                    }
                    Ok(())
                })?;
                Ok(out)
            })
            .ok()
            .flatten()
        };
        assert_eq!(parse("{\"k\":[1,2]}"), Some(vec![1, 2]));
        assert_eq!(parse("{\"k\" : [ 1 , 2 ] }"), Some(vec![1, 2]));
        assert_eq!(parse("{\"k\":\n[1,\t2]}"), Some(vec![1, 2]));
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
            "{\"k\":[[1]]}",
            "{\"k\":[1",
            "{\"k\":1}",
            "{\"j\":[1]}",
        ] {
            assert_eq!(parse(bad), None, "accepted: {bad}");
        }
        // Nested task pairs, with whitespace, read through the task path.
        let task = "{\"type\":\"task\",\"id\":1,\"dest\":2,\"attackers\":\n[[1, 2],\t[3,4]]}";
        assert_eq!(
            parse_worker_msg(task),
            Ok(WorkerMsg::Task {
                id: 1,
                dest: AsId(2),
                attackers: vec![(AsId(1), 2), (AsId(3), 4)],
            })
        );
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
        let back = Frame::read(&text).unwrap().0.data.unwrap();
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
