//! Distributed campaign execution: a lease-based coordinator/worker layer
//! over a length-prefixed TCP protocol (localhost-first, std-only).
//!
//! # Shape
//!
//! The unit of distribution is the unit of durability: one (benchmark,
//! start-point) task, exactly as the journal defines it. The coordinator
//! ([`serve_campaign`]) enumerates the campaign's tasks, hands out
//! time-bounded leases ([`LeaseTable`]) and collects completed tasks;
//! workers ([`run_worker`]) reconstruct the campaign from the wire
//! identity header (the journal header, verbatim), execute tasks through
//! the ordinary engines ([`execute_task`]), append them to a private
//! journal shard, and report them back. The coordinator's final census is
//! produced by replaying every accepted task through the same aggregation
//! the single-process path uses
//! ([`run_campaign_with_tasks`](crate::run_campaign_with_tasks)), so it is
//! byte-identical to a local run by construction — shard-count- and
//! failure-schedule-determinism are the thread-count-determinism argument
//! applied to a coarser scheduler.
//!
//! A worker keeps the golden walk (the spine) of the benchmark it last
//! worked on, which serves all of that benchmark's start points, and the
//! coordinator grants each worker its last benchmark's pending tasks
//! first and keeps a benchmark's last pending task for the worker holding
//! that benchmark ([`LeaseTable::grant`]), so a benchmark's golden run is
//! walked about once however its start points are leased. Neither changes
//! the wire format.
//!
//! # Protocol
//!
//! Frames are a 4-byte little-endian length followed by one JSON object
//! with an `"m"` discriminator. Every worker→coordinator message except
//! `heartbeat` gets exactly one response, in order:
//!
//! ```text
//! worker                    coordinator
//! hello                  →
//!                        ←  welcome {worker, meta, lease_ms, heartbeat_ms}
//! request                →
//!                        ←  grant {bench, sp, token} | wait {ms} | done
//! heartbeat {token}      →                       (no response)
//! complete {token, task} →
//!                        ←  ack {accepted, duplicate} | reject {reason}
//! ```
//!
//! Heartbeats are deliberately fire-and-forget: they are the only frames a
//! second worker thread sends, and giving them no response keeps the main
//! thread's request/response pairing strict. Duplicated frames (chaos, or
//! a retransmitting middlebox) can still offset that pairing — the worker
//! therefore *skips* stale responses and *stashes* an unexpected `grant`
//! (a real lease it will execute next) rather than trusting positions.
//!
//! # Failure model
//!
//! Worker death or hang: the lease expires (no heartbeats) and the task is
//! re-granted. Worker partition: capped-exponential-backoff reconnect; a
//! computed-but-unacknowledged task is re-sent after reconnect under its
//! old token, and the lease table accepts the first completion per task
//! regardless of token staleness (results are deterministic, so the early
//! finisher's bytes equal the replacement's). Coordinator death: workers
//! run out of reconnect attempts and exit nonzero; the coordinator's
//! journal lets `--resume` finish the campaign. All workers dead: the
//! coordinator exits incomplete after `idle_timeout_ms` with the journal
//! intact. Torn shard tails are repaired by the journal's ordinary
//! recovery rule at merge time.

use std::collections::BTreeSet;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tfsim_check::{Chaos, FaultKind};
use tfsim_obs::json::{self, obj, Json};
use tfsim_obs::{Event, EventSink};
use tfsim_workloads::Workload;

use crate::campaign::{execute_task, BenchSpine, CampaignConfig};
use crate::journal::{task_from_json, task_to_json, CampaignJournal, JournalMeta};
use crate::lease::{CompleteOutcome, LeaseStats, LeaseTable, TaskId};
use crate::JournaledTask;

/// Upper bound on one frame's payload; a `complete` carrying a journaled
/// task is the largest message and sits far below this.
const MAX_FRAME: usize = 64 << 20;
/// Coordinator-side read-poll tick: how often a connection handler wakes
/// to check the done flag and how often the accept loop expires leases.
const TICK_MS: u64 = 5;
/// Bytes a `tear` chaos fault rips off the shard tail — enough to cut the
/// final newline and leave an unterminated (recoverable) line.
const TEAR_BYTES: u64 = 9;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(invalid(format!("frame of {} bytes exceeds the cap", bytes.len())));
    }
    w.write_all(&(bytes.len() as u32).to_le_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

fn read_frame(r: &mut impl Read) -> io::Result<String> {
    FrameReader::default().read(r)
}

/// Reassembles frames from a stream whose reads may time out mid-frame:
/// the bytes read before a `WouldBlock` or `TimedOut` stay buffered, and
/// the next [`FrameReader::read`] resumes the same frame where the last
/// one stopped. It never reads past the frame it is assembling.
#[derive(Default)]
struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    fn read(&mut self, r: &mut impl Read) -> io::Result<String> {
        self.fill(r, 4)?;
        let len = u32::from_le_bytes(self.buf[..4].try_into().expect("four bytes")) as usize;
        if len > MAX_FRAME {
            return Err(invalid(format!("frame of {len} bytes exceeds the cap")));
        }
        self.fill(r, 4 + len)?;
        let payload = self.buf.split_off(4);
        self.buf.clear();
        String::from_utf8(payload).map_err(|e| invalid(format!("frame is not UTF-8: {e}")))
    }

    /// Reads until the buffer holds `want` bytes.
    fn fill(&mut self, r: &mut impl Read, want: usize) -> io::Result<()> {
        while self.buf.len() < want {
            let have = self.buf.len();
            self.buf.resize(want, 0);
            match r.read(&mut self.buf[have..]) {
                Ok(0) => {
                    self.buf.truncate(have);
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                Ok(n) => self.buf.truncate(have + n),
                Err(e) => {
                    self.buf.truncate(have);
                    if e.kind() != io::ErrorKind::Interrupted {
                        return Err(e);
                    }
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum Msg {
    Hello,
    Welcome { worker: u64, meta: String, lease_ms: u64, heartbeat_ms: u64 },
    Request,
    Grant { bench: u64, sp: u64, token: u64 },
    Wait { ms: u64 },
    Done,
    Heartbeat { token: u64 },
    Complete { token: u64, task: Box<JournaledTask> },
    Ack { accepted: bool, duplicate: bool },
    Reject { reason: String },
}

impl Msg {
    fn render(&self) -> String {
        let v = match self {
            Msg::Hello => obj([("m", Json::Str("hello".into()))]),
            Msg::Welcome { worker, meta, lease_ms, heartbeat_ms } => obj([
                ("m", Json::Str("welcome".into())),
                ("worker", Json::Int(*worker as i128)),
                ("meta", Json::Str(meta.clone())),
                ("lease_ms", Json::Int(*lease_ms as i128)),
                ("heartbeat_ms", Json::Int(*heartbeat_ms as i128)),
            ]),
            Msg::Request => obj([("m", Json::Str("request".into()))]),
            Msg::Grant { bench, sp, token } => obj([
                ("m", Json::Str("grant".into())),
                ("bench", Json::Int(*bench as i128)),
                ("sp", Json::Int(*sp as i128)),
                ("token", Json::Int(*token as i128)),
            ]),
            Msg::Wait { ms } => {
                obj([("m", Json::Str("wait".into())), ("ms", Json::Int(*ms as i128))])
            }
            Msg::Done => obj([("m", Json::Str("done".into()))]),
            Msg::Heartbeat { token } => obj([
                ("m", Json::Str("heartbeat".into())),
                ("token", Json::Int(*token as i128)),
            ]),
            Msg::Complete { token, task } => obj([
                ("m", Json::Str("complete".into())),
                ("token", Json::Int(*token as i128)),
                ("task", task_to_json(task)),
            ]),
            Msg::Ack { accepted, duplicate } => obj([
                ("m", Json::Str("ack".into())),
                ("accepted", Json::Bool(*accepted)),
                ("duplicate", Json::Bool(*duplicate)),
            ]),
            Msg::Reject { reason } => obj([
                ("m", Json::Str("reject".into())),
                ("reason", Json::Str(reason.clone())),
            ]),
        };
        v.render()
    }

    fn parse(payload: &str) -> Result<Msg, String> {
        let v = json::parse(payload)?;
        let num = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("message missing integer {key:?}"))
        };
        let text = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("message missing string {key:?}"))
        };
        match v.get("m").and_then(Json::as_str) {
            Some("hello") => Ok(Msg::Hello),
            Some("welcome") => Ok(Msg::Welcome {
                worker: num("worker")?,
                meta: text("meta")?,
                lease_ms: num("lease_ms")?,
                heartbeat_ms: num("heartbeat_ms")?,
            }),
            Some("request") => Ok(Msg::Request),
            Some("grant") => {
                Ok(Msg::Grant { bench: num("bench")?, sp: num("sp")?, token: num("token")? })
            }
            Some("wait") => Ok(Msg::Wait { ms: num("ms")? }),
            Some("done") => Ok(Msg::Done),
            Some("heartbeat") => Ok(Msg::Heartbeat { token: num("token")? }),
            Some("complete") => Ok(Msg::Complete {
                token: num("token")?,
                task: Box::new(task_from_json(
                    v.get("task").ok_or("complete missing \"task\"")?,
                )?),
            }),
            Some("ack") => {
                let flag = |key: &str| match v.get(key) {
                    Some(Json::Bool(b)) => Ok(*b),
                    _ => Err(format!("ack missing bool {key:?}")),
                };
                Ok(Msg::Ack { accepted: flag("accepted")?, duplicate: flag("duplicate")? })
            }
            Some("reject") => Ok(Msg::Reject { reason: text("reason")? }),
            other => Err(format!("unknown message {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// Coordinator tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Lease duration: a task is re-granted if its worker goes this long
    /// without a heartbeat or completion.
    pub lease_ms: u64,
    /// Heartbeat interval advertised to workers (renewals arrive well
    /// inside the lease window).
    pub heartbeat_ms: u64,
    /// Exit incomplete (journal intact, for `--resume`) when no worker is
    /// connected for this long. `0` waits forever.
    pub idle_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig { lease_ms: 5_000, heartbeat_ms: 500, idle_timeout_ms: 0 }
    }
}

/// What a [`serve_campaign`] run produced.
#[derive(Debug)]
pub struct ServeReport {
    /// Accepted tasks (journal-replayed plus worker-completed), unordered.
    /// Feed to [`run_campaign_with_tasks`](crate::run_campaign_with_tasks)
    /// for the census.
    pub tasks: Vec<JournaledTask>,
    /// Lease accounting totals.
    pub stats: LeaseStats,
    /// Whether every task of the campaign completed.
    pub complete: bool,
    /// Workers that ever said hello.
    pub workers_seen: u64,
}

struct Coord<'a> {
    table: LeaseTable,
    accepted: Vec<JournaledTask>,
    journal: Option<&'a CampaignJournal>,
    ops: &'a dyn EventSink,
    epoch: Instant,
    /// The campaign identity, against which completions are validated.
    meta: JournalMeta,
    next_worker: u64,
    workers_seen: u64,
    active_conns: usize,
    last_activity: Instant,
}

impl Coord<'_> {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn lease_event(&self, worker: u64, task: TaskId, token: u64, action: &str) {
        if self.ops.enabled() {
            self.ops.emit(&Event::Lease {
                at_ms: self.now_ms(),
                worker,
                benchmark: task.0 as u64,
                start_point: task.1,
                token,
                action: action.to_string(),
            });
        }
    }

    fn worker_event(&self, worker: u64, action: &str) {
        if self.ops.enabled() {
            self.ops.emit(&Event::Worker {
                at_ms: self.now_ms(),
                worker,
                action: action.to_string(),
            });
        }
    }
}

/// Runs the coordinator side of a distributed campaign on an
/// already-bound listener until the campaign completes or the idle
/// timeout fires. Tasks already present in `journal` are counted as
/// complete up front (resume); newly accepted tasks are durably appended
/// to it before they are acknowledged.
///
/// Operational events ([`Event::Worker`], [`Event::Lease`]) go to `ops` —
/// a sink separate from any campaign trace, so campaign traces stay
/// byte-identical to single-process runs.
pub fn serve_campaign(
    listener: TcpListener,
    config: &CampaignConfig,
    workloads: &[Workload],
    journal: Option<&CampaignJournal>,
    ops: &dyn EventSink,
    serve: &ServeConfig,
) -> io::Result<ServeReport> {
    let identity = JournalMeta::new(config, workloads);
    let meta = identity.render();
    let replayed: Vec<JournaledTask> =
        journal.map(|j| j.completed().to_vec()).unwrap_or_default();
    let done: BTreeSet<TaskId> =
        replayed.iter().map(|t| (t.bench, t.start_point as u64)).collect();
    // The same grant order as the in-process pool: sorted so the most
    // expensive tasks (highest start point) pop first.
    let mut tasks: Vec<TaskId> = (0..workloads.len())
        .flat_map(|b| (0..config.start_points).map(move |s| (b, s as u64)))
        .filter(|t| !done.contains(t))
        .collect();
    tasks.sort_by_key(|&(b, s)| (s, std::cmp::Reverse(b)));
    let total = workloads.len() * config.start_points as usize;

    listener.set_nonblocking(true)?;
    let coord = Mutex::new(Coord {
        table: LeaseTable::new(tasks, serve.lease_ms),
        accepted: replayed,
        journal,
        ops,
        epoch: Instant::now(),
        meta: identity,
        next_worker: 1,
        workers_seen: 0,
        active_conns: 0,
        last_activity: Instant::now(),
    });
    let all_done = AtomicBool::new(lock(&coord).table.all_done());

    std::thread::scope(|scope| -> io::Result<()> {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    {
                        let mut c = lock(&coord);
                        c.active_conns += 1;
                        c.last_activity = Instant::now();
                    }
                    let coord = &coord;
                    let all_done = &all_done;
                    let meta = meta.clone();
                    let serve = serve.clone();
                    scope.spawn(move || {
                        handle_conn(stream, coord, all_done, &meta, &serve);
                        let mut c = lock(coord);
                        c.active_conns -= 1;
                        c.last_activity = Instant::now();
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(TICK_MS));
                }
                Err(e) => return Err(e),
            }
            let mut c = lock(&coord);
            let now = c.now_ms();
            for (task, worker, token) in c.table.expire(now) {
                c.lease_event(worker, task, token, "expired");
            }
            if c.table.all_done() {
                all_done.store(true, Ordering::SeqCst);
                // Linger briefly so connected workers can request and be
                // told `done` instead of hitting a closed socket.
                if c.active_conns == 0 {
                    return Ok(());
                }
            }
            if serve.idle_timeout_ms > 0
                && c.active_conns == 0
                && !c.table.all_done()
                && c.last_activity.elapsed() >= Duration::from_millis(serve.idle_timeout_ms)
            {
                return Ok(());
            }
        }
    })?;

    let c = lock(&coord);
    Ok(ServeReport {
        complete: c.accepted.len() == total,
        stats: c.table.stats(),
        workers_seen: c.workers_seen,
        tasks: {
            // `accepted` is behind the mutex; clone out rather than
            // fighting the borrow of the poisoned-lock recovery path.
            c.accepted.clone()
        },
    })
}

/// One coordinator connection: strict request→response over the framed
/// protocol, ticking on a short read timeout so the done flag and worker
/// disconnects are noticed promptly. A tick that lands inside a frame
/// keeps the bytes read so far in the connection's [`FrameReader`].
fn handle_conn(
    mut stream: TcpStream,
    coord: &Mutex<Coord<'_>>,
    all_done: &AtomicBool,
    meta: &str,
    serve: &ServeConfig,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(Duration::from_millis(TICK_MS.max(10)))).is_err() {
        return;
    }
    let mut worker_id: u64 = 0;
    let mut idle_ticks_after_done: u32 = 0;
    let mut frames = FrameReader::default();
    loop {
        let frame = match frames.read(&mut stream) {
            Ok(f) => f,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                if all_done.load(Ordering::SeqCst) {
                    // Give the worker a couple of ticks to request (and be
                    // told `done`) before hanging up.
                    idle_ticks_after_done += 1;
                    if idle_ticks_after_done > 20 {
                        break;
                    }
                }
                continue;
            }
            Err(_) => break, // disconnect (or torn frame): lease expiry reclaims
        };
        idle_ticks_after_done = 0;
        let msg = match Msg::parse(&frame) {
            Ok(m) => m,
            Err(reason) => {
                let _ = write_frame(&mut stream, &Msg::Reject { reason }.render());
                continue;
            }
        };
        let response = {
            let mut c = lock(coord);
            c.last_activity = Instant::now();
            let now = c.now_ms();
            for (task, worker, token) in c.table.expire(now) {
                c.lease_event(worker, task, token, "expired");
            }
            match msg {
                Msg::Hello => {
                    worker_id = c.next_worker;
                    c.next_worker += 1;
                    c.workers_seen += 1;
                    c.worker_event(worker_id, "connected");
                    Some(Msg::Welcome {
                        worker: worker_id,
                        meta: meta.to_string(),
                        lease_ms: serve.lease_ms,
                        heartbeat_ms: serve.heartbeat_ms,
                    })
                }
                Msg::Request => {
                    if c.table.all_done() {
                        c.worker_event(worker_id, "done");
                        Some(Msg::Done)
                    } else {
                        let regrants_before = c.table.stats().regranted;
                        if let Some((task, token)) = c.table.grant(worker_id, now) {
                            let action = if c.table.stats().regranted > regrants_before {
                                "regranted"
                            } else {
                                "granted"
                            };
                            c.lease_event(worker_id, task, token, action);
                            Some(Msg::Grant { bench: task.0 as u64, sp: task.1, token })
                        } else if c.table.work_remaining() {
                            // Re-poll on the coordinator's tick cadence, not
                            // the heartbeat interval: an idle worker at the
                            // campaign tail must notice newly expired leases
                            // (or completion) promptly, or it serializes the
                            // whole shutdown behind a long sleep.
                            Some(Msg::Wait { ms: TICK_MS })
                        } else {
                            c.worker_event(worker_id, "done");
                            Some(Msg::Done)
                        }
                    }
                }
                Msg::Heartbeat { token } => {
                    let _ = c.table.heartbeat(token, now);
                    None // fire-and-forget by design
                }
                Msg::Complete { token, task } => {
                    let id: TaskId = (task.bench, task.start_point as u64);
                    if let Err(reason) = c.meta.check_task(&task) {
                        Some(Msg::Reject { reason })
                    } else {
                        match c.table.complete(id, token) {
                            CompleteOutcome::Accepted => {
                                // Durability before visibility, as in the
                                // single-process path.
                                if let Some(j) = c.journal {
                                    if let Err(e) = j.append_task(&task) {
                                        eprintln!(
                                            "warning: coordinator journal append \
                                             failed for task ({}, {}): {e}",
                                            task.bench, task.start_point
                                        );
                                    }
                                }
                                c.accepted.push(*task);
                                c.lease_event(worker_id, id, token, "completed");
                                if c.table.all_done() {
                                    all_done.store(true, Ordering::SeqCst);
                                }
                                Some(Msg::Ack { accepted: true, duplicate: false })
                            }
                            CompleteOutcome::Duplicate => {
                                c.lease_event(worker_id, id, token, "duplicate");
                                Some(Msg::Ack { accepted: false, duplicate: true })
                            }
                        }
                    }
                }
                // A worker never sends these; answer so a confused peer
                // fails fast instead of deadlocking on a missing response.
                Msg::Welcome { .. }
                | Msg::Grant { .. }
                | Msg::Wait { .. }
                | Msg::Done
                | Msg::Ack { .. }
                | Msg::Reject { .. } => {
                    Some(Msg::Reject { reason: "unexpected message direction".to_string() })
                }
            }
        };
        if let Some(resp) = response {
            if write_frame(&mut stream, &resp.render()).is_err() {
                break;
            }
        }
    }
    if worker_id != 0 {
        let c = lock(coord);
        c.worker_event(worker_id, "disconnected");
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// Worker tuning knobs.
#[derive(Debug)]
pub struct WorkerConfig {
    /// Coordinator address, e.g. `127.0.0.1:7400`.
    pub addr: String,
    /// Journal shard this worker appends completed tasks to, if any.
    pub shard: Option<PathBuf>,
    /// Deterministic failure schedule ([`Chaos::off`] in production).
    pub chaos: Chaos,
    /// First reconnect delay; doubles per attempt up to the cap.
    pub backoff_base_ms: u64,
    /// Reconnect delay ceiling.
    pub backoff_cap_ms: u64,
    /// Consecutive failed connect/serve attempts before giving up.
    pub max_retries: u32,
}

impl WorkerConfig {
    /// A worker for `addr` with production defaults and no chaos.
    pub fn new(addr: impl Into<String>) -> WorkerConfig {
        WorkerConfig {
            addr: addr.into(),
            shard: None,
            chaos: Chaos::off(),
            backoff_base_ms: 50,
            backoff_cap_ms: 2_000,
            max_retries: 8,
        }
    }
}

/// What one worker run accomplished.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkerReport {
    /// Completions the coordinator accepted into the census.
    pub accepted: u64,
    /// Completions the coordinator flagged as duplicates.
    pub duplicates: u64,
    /// Reconnects performed (0 for an undisturbed run).
    pub reconnects: u64,
    /// Benchmark spines walked: the worker keeps the golden walk of the
    /// benchmark it last worked on and walks another only when a task of
    /// another benchmark arrives.
    pub spines: u64,
}

/// A task computed (and journaled) but not yet acknowledged: survives
/// reconnects and is re-sent under its original token.
struct Pending {
    task: JournaledTask,
    token: u64,
}

struct WorkerState {
    campaign: Option<(CampaignConfig, Vec<Workload>, String)>,
    /// The golden walk of the benchmark this worker last worked on.
    spine: Option<BenchSpine>,
    shard: Option<CampaignJournal>,
    pending: Option<Pending>,
    stashed: Option<(u64, u64, u64)>, // (bench, sp, token) from a dup'd request
    report: WorkerReport,
}

/// What the worker thread is waiting for.
#[derive(Clone, Copy, PartialEq)]
enum Want {
    Welcome,
    Task, // grant | wait | done
    Ack,
}

/// Runs one worker against a coordinator until the coordinator says
/// `done`. Returns an error on chaos kill (`ErrorKind::Interrupted`, the
/// CLI maps it to a nonzero exit) or when reconnect attempts are
/// exhausted.
pub fn run_worker(wc: &WorkerConfig) -> io::Result<WorkerReport> {
    let mut state = WorkerState {
        campaign: None,
        spine: None,
        shard: None,
        pending: None,
        stashed: None,
        report: WorkerReport::default(),
    };
    let mut backoff = wc.backoff_base_ms;
    let mut retries = 0u32;
    loop {
        match serve_session(wc, &mut state) {
            Ok(()) => return Ok(state.report),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return Err(e), // chaos kill
            Err(e) if e.kind() == io::ErrorKind::InvalidData => return Err(e), // protocol
            Err(e) => {
                retries += 1;
                if retries > wc.max_retries {
                    return Err(io::Error::new(
                        e.kind(),
                        format!("giving up after {retries} attempts: {e}"),
                    ));
                }
                std::thread::sleep(Duration::from_millis(backoff));
                backoff = (backoff * 2).min(wc.backoff_cap_ms);
                state.report.reconnects += 1;
            }
        }
    }
}

/// Sends one frame, honoring the drop/dup chaos arms. Only main-thread
/// frames route through here; heartbeats are exempt so `nK` chaos
/// schedules stay a pure function of the protocol sequence rather than of
/// wall-clock heartbeat counts.
fn send_chaotic(writer: &Mutex<TcpStream>, chaos: &Chaos, msg: &Msg) -> io::Result<()> {
    let payload = msg.render();
    let mut w = lock(writer);
    if chaos.fires(FaultKind::DropFrame) {
        return Ok(()); // silently lost
    }
    write_frame(&mut *w, &payload)?;
    if chaos.fires(FaultKind::DupFrame) {
        write_frame(&mut *w, &payload)?;
    }
    Ok(())
}

/// Reads frames until one matches `want`. Stale responses left over from
/// duplicated frames are skipped; an unexpected `grant` is a real lease
/// and is stashed for execution after the current exchange.
fn await_msg(
    stream: &mut TcpStream,
    want: Want,
    stashed: &mut Option<(u64, u64, u64)>,
) -> io::Result<Msg> {
    for _ in 0..32 {
        let msg = Msg::parse(&read_frame(stream)?).map_err(invalid)?;
        match (&msg, want) {
            (Msg::Welcome { .. }, Want::Welcome)
            | (Msg::Grant { .. }, Want::Task)
            | (Msg::Wait { .. }, Want::Task)
            | (Msg::Done, Want::Task)
            | (Msg::Ack { .. }, Want::Ack) => return Ok(msg),
            (Msg::Reject { reason }, _) => {
                return Err(invalid(format!("coordinator rejected: {reason}")))
            }
            (Msg::Grant { bench, sp, token }, _) => {
                // A lease granted against a duplicated `request`: ours to
                // execute, just not what this read was waiting for.
                *stashed = Some((*bench, *sp, *token));
            }
            _ => {} // stale response to a duplicated frame: skip
        }
    }
    Err(invalid("no expected response within 32 frames"))
}

/// One connection's lifetime: hello/welcome, then the request loop.
/// Returns `Ok(())` only on a clean `done`.
fn serve_session(wc: &WorkerConfig, state: &mut WorkerState) -> io::Result<()> {
    let mut stream = TcpStream::connect(&wc.addr)?;
    let _ = stream.set_nodelay(true);
    let writer = Mutex::new(stream.try_clone()?);

    send_chaotic(&writer, &wc.chaos, &Msg::Hello)?;
    // Until the welcome arrives we do not know the lease duration; use a
    // generous fixed timeout for the handshake.
    stream.set_read_timeout(Some(Duration::from_millis(2_000)))?;
    let (meta_line, lease_ms, heartbeat_ms) =
        match await_msg(&mut stream, Want::Welcome, &mut state.stashed)? {
            Msg::Welcome { meta, lease_ms, heartbeat_ms, .. } => (meta, lease_ms, heartbeat_ms),
            _ => unreachable!("await_msg returned a non-welcome"),
        };
    stream.set_read_timeout(Some(Duration::from_millis(lease_ms.max(500))))?;

    if state.campaign.is_none() {
        let meta = JournalMeta::parse(&meta_line).map_err(invalid)?;
        let (config, workloads) = meta.to_campaign().map_err(invalid)?;
        if let Some(path) = &wc.shard {
            state.shard = Some(CampaignJournal::create(path, &meta)?);
        }
        state.campaign = Some((config, workloads, meta_line.clone()));
    } else if state.campaign.as_ref().is_some_and(|(_, _, m)| *m != meta_line) {
        return Err(invalid("coordinator changed campaign identity across reconnects"));
    }

    loop {
        // A computed-but-unacknowledged task outranks new work: re-send it
        // (possibly under a now-stale token; first completion still wins).
        if let Some(p) = &state.pending {
            send_chaotic(
                &writer,
                &wc.chaos,
                &Msg::Complete { token: p.token, task: Box::new(p.task.clone()) },
            )?;
            match await_msg(&mut stream, Want::Ack, &mut state.stashed)? {
                Msg::Ack { accepted, duplicate } => {
                    if accepted {
                        state.report.accepted += 1;
                    }
                    if duplicate {
                        state.report.duplicates += 1;
                    }
                    state.pending = None;
                }
                _ => unreachable!("await_msg returned a non-ack"),
            }
            continue;
        }

        let (bench, sp, token) = if let Some(g) = state.stashed.take() {
            g
        } else {
            send_chaotic(&writer, &wc.chaos, &Msg::Request)?;
            match await_msg(&mut stream, Want::Task, &mut state.stashed)? {
                Msg::Grant { bench, sp, token } => (bench, sp, token),
                Msg::Wait { ms } => {
                    std::thread::sleep(Duration::from_millis(ms.min(1_000)));
                    continue;
                }
                Msg::Done => return Ok(()),
                _ => unreachable!("await_msg returned a non-task message"),
            }
        };

        let (config, workloads, _) = state.campaign.as_ref().expect("campaign set at welcome");
        let bench = bench as usize;
        if bench >= workloads.len() || sp >= config.start_points as u64 {
            return Err(invalid(format!("grant ({bench}, {sp}) is outside the campaign grid")));
        }

        // Chaos: a stalled worker computes but never renews its lease, and
        // holds its completion until the coordinator must have expired it
        // (one heartbeat past the lease), however fast the task ran.
        let granted_at = Instant::now();
        let stall = wc.chaos.fires(FaultKind::StallHeartbeat);
        let task = {
            let stop = AtomicBool::new(false);
            std::thread::scope(|scope| {
                if !stall {
                    scope.spawn(|| {
                        // Fine-grained stop checks: the scope join at task
                        // end waits for this loop to notice the flag, and
                        // that latency is paid once per task.
                        let mut since_beat = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            std::thread::sleep(Duration::from_millis(2));
                            since_beat += 2;
                            if since_beat >= heartbeat_ms {
                                since_beat = 0;
                                let mut w = lock(&writer);
                                let _ = write_frame(&mut *w, &Msg::Heartbeat { token }.render());
                            }
                        }
                    });
                }
                let (task, walked) =
                    execute_task(config, workloads, bench, sp as u32, &mut state.spine);
                stop.store(true, Ordering::Relaxed);
                state.report.spines += walked as u64;
                task
            })
        };
        if stall {
            let hold = Duration::from_millis(lease_ms + heartbeat_ms);
            std::thread::sleep(hold.saturating_sub(granted_at.elapsed()));
        }

        // Durability before visibility, shard-locally: the task reaches
        // the shard before the coordinator can learn of it.
        if let Some(shard) = &state.shard {
            if let Err(e) = shard.append_task(&task) {
                eprintln!("warning: shard append failed for task ({bench}, {sp}): {e}");
            }
            if wc.chaos.fires(FaultKind::TearShard) {
                // Crash between write and sync: rip the tail, then die
                // before reporting. Merge-time recovery drops the torn
                // line and the task is re-executed elsewhere.
                let _ = shard.tear_tail(TEAR_BYTES);
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    format!("chaos: shard torn and worker killed (seed {})", wc.chaos.seed()),
                ));
            }
        } else {
            // Keep the tear arm's poll cadence identical with or without
            // a shard, so one seed means one schedule.
            if wc.chaos.fires(FaultKind::TearShard) {
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    format!("chaos: worker killed before reporting (seed {})", wc.chaos.seed()),
                ));
            }
        }
        if wc.chaos.fires(FaultKind::KillWorker) {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("chaos: worker killed (seed {})", wc.chaos.seed()),
            ));
        }

        state.pending = Some(Pending { task, token });
    }
}

// ---------------------------------------------------------------------------
// Shard merge
// ---------------------------------------------------------------------------

/// Merge accounting for the report footer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Distinct tasks recovered across all shards.
    pub tasks: usize,
    /// Task records dropped because an earlier shard already supplied the
    /// same (benchmark, start point) — expired-lease re-executions.
    pub duplicates_dropped: usize,
}

/// Merges worker journal shards into one task set: every shard's header
/// must match `meta` (the resume-time identity check), torn tails are
/// repaired in place, and the first completion per (benchmark, start
/// point) wins — in `paths` order, then shard-internal order. Feed the
/// result to [`run_campaign_with_tasks`](crate::run_campaign_with_tasks).
pub fn merge_shards(
    meta: &JournalMeta,
    paths: &[PathBuf],
) -> io::Result<(Vec<JournaledTask>, MergeStats)> {
    let mut seen: BTreeSet<(usize, u32)> = BTreeSet::new();
    let mut tasks = Vec::new();
    let mut stats = MergeStats::default();
    for path in paths {
        let shard = CampaignJournal::resume(path, meta)?;
        for t in shard.completed() {
            if seen.insert((t.bench, t.start_point)) {
                tasks.push(t.clone());
            } else {
                stats.duplicates_dropped += 1;
            }
        }
    }
    stats.tasks = tasks.len();
    Ok((tasks, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::{TrialFault, TrialSpec};

    /// A completion that parses but cannot belong to the campaign is
    /// rejected by the coordinator, never accepted into the census.
    #[test]
    fn coordinator_rejects_a_meaningless_completion() {
        let mut config = CampaignConfig::quick(5);
        config.start_points = 1;
        config.trials_per_start_point = 2;
        let workloads = &tfsim_workloads::all()[..1];
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let serve = ServeConfig { lease_ms: 5_000, heartbeat_ms: 500, idle_timeout_ms: 200 };
        std::thread::scope(|scope| {
            let coordinator = scope.spawn(|| {
                serve_campaign(listener, &config, workloads, None, &tfsim_obs::NoopSink, &serve)
            });
            let mut stream = TcpStream::connect(addr).expect("connect");
            // As the worker does: a frame's length and body must not wait
            // on Nagle, or the coordinator's short read timeout splits it.
            stream.set_nodelay(true).expect("nodelay");
            let mut call = |msg: Msg| {
                write_frame(&mut stream, &msg.render()).expect("send");
                Msg::parse(&read_frame(&mut stream).expect("response")).expect("parse")
            };
            assert!(matches!(call(Msg::Hello), Msg::Welcome { .. }));
            let Msg::Grant { token, .. } = call(Msg::Request) else { panic!("no grant") };
            let spec = TrialSpec { target: 3, inject_cycle: 4 };
            let task = JournaledTask {
                bench: 0,
                start_point: 0,
                eligible_bits: 1,
                specs: vec![spec],
                records: Vec::new(),
                traces: Vec::new(),
                faults: vec![TrialFault { index: 0, spec, panic_msg: String::new() }],
            };
            match call(Msg::Complete { token, task: Box::new(task) }) {
                Msg::Reject { reason } => assert!(reason.contains("has 1 specs"), "{reason}"),
                other => panic!("expected a rejection, got {other:?}"),
            }
            drop(stream);
            let report = coordinator.join().expect("coordinator thread").expect("serve");
            assert!(!report.complete && report.tasks.is_empty(), "{report:?}");
        });
    }

    /// A frame nested past the JSON parser's cap is answered with a
    /// rejection on its own connection; the coordinator lives on and a
    /// worker then completes the campaign.
    #[test]
    fn a_deeply_nested_frame_does_not_kill_the_coordinator() {
        let mut config = CampaignConfig::quick(5);
        config.start_points = 1;
        config.trials_per_start_point = 2;
        config.monitor_cycles = 200;
        config.scale = 1;
        let workloads = &tfsim_workloads::all()[..1];
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let serve = ServeConfig { lease_ms: 5_000, heartbeat_ms: 100, idle_timeout_ms: 10_000 };
        std::thread::scope(|scope| {
            let coordinator = scope.spawn(|| {
                serve_campaign(listener, &config, workloads, None, &tfsim_obs::NoopSink, &serve)
            });
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            write_frame(&mut stream, &"[".repeat(200_000)).expect("send");
            match Msg::parse(&read_frame(&mut stream).expect("response")) {
                Ok(Msg::Reject { reason }) => assert!(reason.contains("nested"), "{reason}"),
                other => panic!("expected a rejection, got {other:?}"),
            }
            drop(stream);
            let report = run_worker(&WorkerConfig::new(addr.to_string())).expect("worker");
            assert_eq!(report.accepted, 1, "{report:?}");
            let report = coordinator.join().expect("coordinator thread").expect("serve");
            assert!(report.complete, "{report:?}");
        });
    }

    #[test]
    fn frames_round_trip() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, "{\"m\":\"hello\"}").unwrap();
        write_frame(&mut buf, "{\"m\":\"request\"}").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), "{\"m\":\"hello\"}");
        assert_eq!(read_frame(&mut r).unwrap(), "{\"m\":\"request\"}");
        assert!(read_frame(&mut r).is_err()); // clean EOF is an error, not a frame
    }

    /// A stream that serves its chunks in order and times out (as a socket
    /// read timeout does) at each `None`.
    struct Stuttering(std::collections::VecDeque<Option<Vec<u8>>>);

    impl Read for Stuttering {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(None) => Err(io::ErrorKind::WouldBlock.into()),
                Some(Some(mut chunk)) => {
                    let n = chunk.len().min(out.len());
                    out[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.0.push_front(Some(chunk.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    /// The coordinator's read tick can fire between a frame's length and
    /// its body, or inside the body: the frame must still arrive intact,
    /// and the one after it too.
    #[test]
    fn a_frame_split_by_read_timeouts_arrives_intact() {
        let (first, second) = ("{\"m\":\"heartbeat\",\"token\":7}", "{\"m\":\"request\"}");
        let mut bytes = Vec::new();
        write_frame(&mut bytes, first).unwrap();
        write_frame(&mut bytes, second).unwrap();
        let body_mid = 4 + first.len() / 2;
        let mut stream = Stuttering(
            [
                Some(bytes[..4].to_vec()),
                None,
                Some(bytes[4..body_mid].to_vec()),
                None,
                Some(bytes[body_mid..].to_vec()),
            ]
            .into(),
        );
        // The connection handler's loop: a timeout is a tick, not an error.
        let mut frames = FrameReader::default();
        let mut ticks = 0;
        let mut next = || loop {
            match frames.read(&mut stream) {
                Ok(frame) => return frame,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => ticks += 1,
                Err(e) => panic!("frame lost after {ticks} ticks: {e}"),
            }
        };
        assert_eq!(next(), first);
        assert_eq!(next(), second);
        assert_eq!(ticks, 2);
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn messages_round_trip() {
        let msgs = [
            Msg::Hello,
            Msg::Welcome {
                worker: 3,
                meta: "{\"journal\":\"x\"}".to_string(),
                lease_ms: 5000,
                heartbeat_ms: 500,
            },
            Msg::Request,
            Msg::Grant { bench: 2, sp: 5, token: 17 },
            Msg::Wait { ms: 250 },
            Msg::Done,
            Msg::Heartbeat { token: 17 },
            Msg::Ack { accepted: true, duplicate: false },
            Msg::Reject { reason: "nope".to_string() },
        ];
        for m in &msgs {
            let back = Msg::parse(&m.render()).unwrap();
            assert_eq!(format!("{back:?}"), format!("{m:?}"));
        }
        assert!(Msg::parse("{\"m\":\"bogus\"}").is_err());
        assert!(Msg::parse("{}").is_err());
        assert!(Msg::parse("{\"m\":\"grant\",\"bench\":1}").is_err());
    }

    /// Applies one mutation to `bytes`: `kind` picks it, `a` and `b` place
    /// it.
    fn mutate(bytes: &mut Vec<u8>, kind: u8, a: u64, b: u64) {
        let at = |n: usize| (a % (n as u64 + 1)) as usize;
        match kind {
            // Flip one bit.
            0 if !bytes.is_empty() => {
                let i = at(bytes.len() - 1);
                bytes[i] ^= 1 << (b % 8);
            }
            // Insert a byte.
            1 => bytes.insert(at(bytes.len()), b as u8),
            // Delete a byte.
            2 if !bytes.is_empty() => {
                bytes.remove(at(bytes.len() - 1));
            }
            // Splice a 20-digit number over one of the frame's digits.
            3 => {
                let digits: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i].is_ascii_digit()).collect();
                let i = digits.get(a as usize % digits.len().max(1)).copied().unwrap_or(at(bytes.len()));
                let j = (i + 1).min(bytes.len());
                bytes.splice(i..j, format!("{b:020}").into_bytes());
            }
            // Duplicate a span of up to 64 bytes.
            4 => {
                let i = at(bytes.len());
                let j = (i + (b % 64) as usize).min(bytes.len());
                let span = bytes[i..j].to_vec();
                bytes.splice(j..j, span);
            }
            // Truncate.
            5 => bytes.truncate(at(bytes.len())),
            _ => {}
        }
    }

    /// Seeded mutations of a valid frame of every message kind never make
    /// the wire's parsers panic: `Msg::parse`, `JournalMeta::check_task`
    /// on the task of any completion that still parses, and
    /// `FrameReader::read` on the frame behind its own length and behind
    /// the unmutated frame's.
    #[test]
    fn mutated_frames_are_refused_not_a_crash() {
        use tfsim_check::prop::{self, any_u64, ints, vecs, Config};
        let mut config = CampaignConfig::quick(5);
        config.start_points = 1;
        config.trials_per_start_point = 4;
        config.monitor_cycles = 200;
        config.scale = 1;
        let workloads = &tfsim_workloads::all()[..1];
        let meta = JournalMeta::new(&config, workloads);
        let (task, _) = execute_task(&config, workloads, 0, 0, &mut None);
        assert_eq!(meta.check_task(&task), Ok(()));
        let frames: Vec<String> = [
            Msg::Hello,
            Msg::Welcome { worker: 3, meta: meta.render(), lease_ms: 5_000, heartbeat_ms: 500 },
            Msg::Request,
            Msg::Grant { bench: 0, sp: 0, token: 17 },
            Msg::Wait { ms: 250 },
            Msg::Done,
            Msg::Heartbeat { token: 17 },
            Msg::Complete { token: 17, task: Box::new(task) },
            Msg::Ack { accepted: true, duplicate: false },
            Msg::Reject { reason: "task (9, 0) is outside the campaign grid".to_string() },
        ]
        .iter()
        .map(Msg::render)
        .collect();
        let mut cfg = Config::from_env();
        if std::env::var_os("TFSIM_PROP_CASES").is_none() {
            cfg.cases = 10_000;
        }
        let gen = (ints(0..frames.len()), vecs((ints(0u8..6), any_u64(), any_u64()), 1..5));
        prop::run(&cfg, "mutated_frames_are_refused_not_a_crash", &gen, |(k, mutations)| {
            let mut bytes = frames[*k].clone().into_bytes();
            for &(kind, a, b) in mutations {
                mutate(&mut bytes, kind, a, b);
            }
            if let Ok(Msg::Complete { task, .. }) = Msg::parse(&String::from_utf8_lossy(&bytes)) {
                let _ = meta.check_task(&task);
            }
            for len in [bytes.len(), frames[*k].len()] {
                let mut framed = (len as u32).to_le_bytes().to_vec();
                framed.extend_from_slice(&bytes);
                let _ = FrameReader::default().read(&mut &framed[..]);
            }
            Ok(())
        });
    }
}
