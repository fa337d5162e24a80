//! The collab workloads: two designer clients in closed loops against one
//! in-process `CollabServer` over loopback.

use crate::gen::{generate_scenario, DesignOp, OpMix, OpStream, LARGE_NET, TEAMSIM_SHARES};
use crate::layers::{
    constraint_pass, core_pass, same_network_state, session_pass, wire_pass, JournalProbe,
    ReadPoint, ReplayOp,
};
use crate::stats::{median, Dist};
use crate::trace::Tracer;
use crate::{report, Outcome};
use adpm_collab::{
    recover, CollabServer, FsyncPolicy, JournalConfig, JournalWriter, ServerOptions,
    SessionOptions, WireOp, DEFAULT_SESSION,
};
use adpm_collab::{Frame, JournalError};
use adpm_constraint::Value;
use adpm_core::{DesignProcessManager, DesignerId, DpmConfig, Operation, ProblemId};
use adpm_dddl::CompiledScenario;
use adpm_observe::{parse_exposition, Counter, InMemorySink, NoopSink, SpanKind};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// A collab workload.
#[derive(Debug, Clone, Copy)]
pub struct CollabSpec {
    /// Workload name.
    pub name: &'static str,
    /// Journal with `FsyncPolicy::Always` and periodic compaction.
    pub durable: bool,
    /// The generated network instead of the sensing builtin.
    pub generated: bool,
    /// Percent of each designer's operations that are snapshot reads. The
    /// rest follow the assign/unbind/verify shares of TeamSim's designers
    /// ([`TEAMSIM_SHARES`]).
    pub snapshot_pct: u32,
}

/// The paper's sensing scenario, journaled durably, with occasional reads.
pub const SENSING_DURABLE: CollabSpec = CollabSpec {
    name: "collab-sensing-durable",
    durable: true,
    generated: false,
    snapshot_pct: 10,
};

/// A generated multi-subsystem network, no journal, read-heavier: 30% reads
/// give the eight pooled sessions over 1000 reads, enough for a read p99
/// with ten samples beyond it.
pub const LARGE_NET_SPEC: CollabSpec = CollabSpec {
    name: "collab-large-net",
    durable: false,
    generated: true,
    snapshot_pct: 30,
};

/// The two designer clients: the subsystem owners of both scenarios.
const CLIENTS: [u32; 2] = [1, 2];
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Durable journals compact after this many appends.
const COMPACT_EVERY: u64 = 256;
/// Checkpoint cadence of the journal (the program default).
const CHECKPOINT_EVERY: u64 = 32;
/// A reply slower than this counts as a timeout.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// After the measured phase, events are still collected until the link
/// has been quiet this long.
const DRAIN_QUIET: Duration = Duration::from_millis(50);
/// Bound on the negative self times along the submit path, as a share of
/// the mean client submit.
const RECONCILE_BOUND: f64 = 0.25;
/// Replayed and live mean `core.execute` agree within this factor.
const IN_SITU_FACTOR: f64 = 2.0;
/// Operations each client issues in one session, reads included.
const SESSION_OPS: usize = 400;
/// Operations each client issues in the session run without
/// `TCP_QUICKACK`, where about half of all replies stall.
const PLAIN_SESSION_OPS: usize = 100;
/// A reply at least this slow stalled on a delayed ACK: ordinary replies
/// take well under a millisecond, and the Linux delayed-ACK timer is 40 ms.
const STALL: Duration = Duration::from_millis(20);
/// Operations each client issues in the session the traced run replays:
/// enough for a p99 of every replayed layer.
const REPLAY_SESSION_OPS: usize = 1000;
/// Sessions whose raw samples are pooled for the printed distributions.
const POOLED_SESSIONS: usize = 8;
/// Spacing of the session seeds of neighbouring benchmark seeds.
const SESSION_STRIDE: u64 = 1_000_003;

/// Why a client request did not get its answer.
#[derive(Debug)]
enum Fail {
    Timeout,
    Closed,
    Io(String),
    Protocol(String),
}

impl std::fmt::Display for Fail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fail::Timeout => write!(f, "no reply within {REPLY_TIMEOUT:?}"),
            Fail::Closed => write!(f, "connection closed by the server"),
            Fail::Io(e) => write!(f, "I/O error: {e}"),
            Fail::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

/// Asks the kernel to acknowledge the next segments at once instead of
/// delaying the ACK.
///
/// The server leaves Nagle's algorithm on for accepted sockets, so a frame
/// it writes while an earlier one is unacknowledged waits for the client's
/// ACK. With Linux's delayed ACK that wait is a 40 ms timer, which would
/// turn every multi-frame reply into a 40 ms stall whose frequency depends
/// on thread scheduling. Re-arming `TCP_QUICKACK` before each read keeps
/// the Nagle cost measurable (one round trip per held frame) without the
/// timer. The option resets itself, hence the re-arming.
#[cfg(target_os = "linux")]
fn quickack(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *const std::ffi::c_void,
            len: u32,
        ) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let on: i32 = 1;
    // SAFETY: the descriptor belongs to `stream`, which outlives the call;
    // `value` points to a live `i32` and `len` is its size. A failure only
    // leaves the default ACK behaviour in place, so the result is ignored.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            (&on as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        );
    }
}

#[cfg(not(target_os = "linux"))]
fn quickack(_stream: &TcpStream) {}

/// How the clients of one session connect and how much they do.
#[derive(Debug, Clone, Copy)]
struct ClientOpts {
    /// Operations each client issues, reads included.
    ops: usize,
    /// Keep every wire line for the wire replay.
    capture: bool,
    /// Re-arm `TCP_QUICKACK` before each read; off, the client behaves like
    /// `CollabClient` and any plain socket.
    quickack: bool,
}

impl ClientOpts {
    /// The measured sessions.
    const MEASURED: ClientOpts = ClientOpts {
        ops: SESSION_OPS,
        capture: false,
        quickack: true,
    };
}

/// One client connection: a raw socket speaking the wire protocol, which
/// timestamps every frame it reads.
struct Conn {
    stream: TcpStream,
    pending: Vec<u8>,
    /// Every line sent or received, for the wire replay.
    capture: Option<Vec<String>>,
    quickack: bool,
}

impl Conn {
    fn connect(addr: SocketAddr, opts: ClientOpts) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(50)))?;
        Ok(Conn {
            stream,
            pending: Vec::new(),
            capture: opts.capture.then(Vec::new),
            quickack: opts.quickack,
        })
    }

    /// Sends `frame`; returns when the request started.
    fn send(&mut self, frame: &Frame) -> Result<Instant, Fail> {
        let started = Instant::now();
        let line = frame.to_line();
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| Fail::Io(e.to_string()))?;
        if let Some(capture) = self.capture.as_mut() {
            capture.push(line);
        }
        Ok(started)
    }

    /// The next frame other than liveness traffic, and when it was read.
    fn recv(&mut self, deadline: Instant) -> Result<(Frame, Instant), Fail> {
        loop {
            if let Some(pos) = self.pending.iter().position(|b| *b == b'\n') {
                let at = Instant::now();
                let rest = self.pending.split_off(pos + 1);
                let bytes = std::mem::replace(&mut self.pending, rest);
                let line = String::from_utf8(bytes).map_err(|e| Fail::Protocol(e.to_string()))?;
                let frame =
                    Frame::parse_line(&line).map_err(|e| Fail::Protocol(e.message.clone()))?;
                if let Some(capture) = self.capture.as_mut() {
                    capture.push(line);
                }
                match frame {
                    Frame::Ping { nonce } => {
                        self.send(&Frame::Pong { nonce })?;
                    }
                    Frame::Pong { .. } | Frame::Warning { .. } => {}
                    frame => return Ok((frame, at)),
                }
                continue;
            }
            if Instant::now() >= deadline {
                return Err(Fail::Timeout);
            }
            if self.quickack {
                quickack(&self.stream);
            }
            let mut chunk = [0u8; 65536];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(Fail::Closed),
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => return Err(Fail::Io(e.to_string())),
            }
        }
    }

    /// Sends `frame` and returns the first non-event reply.
    fn request(&mut self, frame: &Frame) -> Result<Frame, Fail> {
        self.send(frame)?;
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            match self.recv(deadline)?.0 {
                Frame::Event { .. } => {}
                reply => return Ok(reply),
            }
        }
    }
}

/// A wire snapshot: the `state` header and one `prop` frame per property.
#[derive(Debug, Default)]
struct WireState {
    operations: u64,
    violations: u32,
    props: Vec<(String, f64, f64, bool)>,
}

/// One submitted operation as its client saw it.
struct SubmitRec {
    sent: Instant,
    done: Instant,
    cid: u64,
    /// `Some(seq)` when it executed.
    seq: Option<u64>,
    op: WireOp,
}

/// What one designer client did during the measured phase.
struct ClientLog {
    designer: u32,
    submits: Vec<SubmitRec>,
    reads: Vec<(Instant, Instant)>,
    /// `(seq, read at)` of every event frame.
    events: Vec<(u64, Instant)>,
    failed: u64,
    rejected: u64,
    /// Verdicts for a cid the client was not waiting on.
    stray_verdicts: u64,
    /// What the first failure was, for the report.
    first_failure: Option<String>,
    conn: Option<Conn>,
}

impl ClientLog {
    fn fail(&mut self, why: impl std::fmt::Display) {
        self.failed += 1;
        self.first_failure.get_or_insert_with(|| why.to_string());
    }
}

/// Reads the rest of a snapshot after its request was sent.
fn read_snapshot(
    conn: &mut Conn,
    mut on_event: impl FnMut(u64, Instant),
) -> Result<(WireState, Instant), Fail> {
    let deadline = Instant::now() + REPLY_TIMEOUT;
    let mut state = None;
    let mut props = Vec::new();
    loop {
        let (frame, at) = conn.recv(deadline)?;
        match frame {
            Frame::Event { seq, .. } => on_event(seq, at),
            Frame::State {
                operations,
                violations,
                ..
            } if state.is_none() => state = Some((operations, violations)),
            Frame::Prop {
                name,
                lo,
                hi,
                bound,
            } if state.is_some() => props.push((name, lo, hi, bound)),
            Frame::End if state.is_some() => {
                let (operations, violations) = state.expect("checked");
                let state = WireState {
                    operations,
                    violations,
                    props,
                };
                return Ok((state, at));
            }
            other => return Err(Fail::Protocol(format!("`{}` in a snapshot", other.tag()))),
        }
    }
}

/// One closed-loop designer client: issue the next operation as soon as the
/// previous one is answered, `ops` operations in all.
fn drive(
    mut conn: Conn,
    designer: u32,
    stream: OpStream,
    start: &Barrier,
    ops: usize,
) -> ClientLog {
    let mut log = ClientLog {
        designer,
        submits: Vec::new(),
        reads: Vec::new(),
        events: Vec::new(),
        failed: 0,
        rejected: 0,
        stray_verdicts: 0,
        first_failure: None,
        conn: None,
    };
    start.wait();
    for (op, cid) in stream.take(ops).zip(1u64..) {
        let sent = match conn.send(&op.frame(cid)) {
            Ok(sent) => sent,
            Err(e) => {
                log.fail(e);
                break;
            }
        };
        let mut healthy = true;
        match op {
            DesignOp::Snapshot => {
                let events = &mut log.events;
                match read_snapshot(&mut conn, |seq, at| events.push((seq, at))) {
                    Ok((_, done)) => log.reads.push((sent, done)),
                    Err(e) => {
                        log.fail(e);
                        healthy = false;
                    }
                }
            }
            DesignOp::Submit(wire) => {
                let reply_deadline = sent + REPLY_TIMEOUT;
                loop {
                    let (frame, at) = match conn.recv(reply_deadline) {
                        Ok(got) => got,
                        Err(e) => {
                            log.fail(e);
                            healthy = false;
                            break;
                        }
                    };
                    let verdict = |seq| SubmitRec {
                        sent,
                        done: at,
                        cid,
                        seq,
                        op: wire.clone(),
                    };
                    match frame {
                        Frame::Event { seq, .. } => log.events.push((seq, at)),
                        Frame::Executed {
                            seq, cid: Some(c), ..
                        } if c == cid => {
                            log.submits.push(verdict(Some(seq)));
                            break;
                        }
                        Frame::Rejected {
                            reason,
                            cid: Some(c),
                        } if c == cid => {
                            if reason.contains("degraded") {
                                log.fail(reason);
                            } else {
                                log.rejected += 1;
                                log.submits.push(verdict(None));
                            }
                            break;
                        }
                        Frame::Executed { .. } | Frame::Rejected { .. } => log.stray_verdicts += 1,
                        // Overloaded, error frames and anything else in
                        // place of a verdict.
                        other => {
                            log.fail(format!("`{}` in place of a verdict", other.tag()));
                            break;
                        }
                    }
                }
            }
        }
        if !healthy {
            break;
        }
    }
    // Collect the events still in flight for the last operations.
    loop {
        match conn.recv(Instant::now() + DRAIN_QUIET) {
            Ok((Frame::Event { seq, .. }, at)) => log.events.push((seq, at)),
            Ok(_) => log.stray_verdicts += 1,
            Err(Fail::Timeout) => break,
            Err(e) => {
                log.fail(e);
                break;
            }
        }
    }
    log.conn = Some(conn);
    log
}

/// Name tables for turning wire operations back into operations by id.
struct Names {
    problems: BTreeMap<String, ProblemId>,
}

impl Names {
    fn new(dpm: &DesignProcessManager) -> Self {
        let problems = dpm
            .problems()
            .ids()
            .map(|id| (dpm.problems().problem(id).name().to_owned(), id))
            .collect();
        Names { problems }
    }

    fn operation(
        &self,
        scenario: &CompiledScenario,
        designer: u32,
        op: &WireOp,
    ) -> Result<Operation, String> {
        let designer = DesignerId::new(designer);
        let problem = |name: &str| {
            self.problems
                .get(name)
                .copied()
                .ok_or_else(|| format!("unknown problem {name}"))
        };
        let property = |name: &str| {
            name.split_once('.')
                .and_then(|(object, prop)| scenario.property(object, prop))
                .ok_or_else(|| format!("unknown property {name}"))
        };
        Ok(match op {
            WireOp::Assign {
                problem: p,
                property: q,
                value,
            } => Operation::assign(designer, problem(p)?, property(q)?, Value::number(*value)),
            WireOp::Unbind {
                problem: p,
                property: q,
            } => Operation::unbind(designer, problem(p)?, property(q)?),
            WireOp::Verify { problem: p, .. } => Operation::verify(designer, problem(p)?),
        })
    }
}

/// Compares a wire snapshot with a DPM: feasible bounds, bound flags,
/// violation count and operation count must all be equal.
fn check_state(wire: &WireState, dpm: &DesignProcessManager) -> Result<(), String> {
    let network = dpm.network();
    if wire.props.len() != network.property_count() {
        return Err(format!(
            "snapshot has {} properties, the network {}",
            wire.props.len(),
            network.property_count()
        ));
    }
    for ((name, lo, hi, bound), id) in wire.props.iter().zip(network.property_ids()) {
        let meta = network.property(id);
        let expected = network
            .feasible(id)
            .enclosing_interval()
            .map_or((1.0, 0.0), |iv| (iv.lo(), iv.hi()));
        if *name != format!("{}.{}", meta.object(), meta.name())
            || (*lo, *hi) != expected
            || *bound != network.is_bound(id)
        {
            return Err(format!(
                "{name}: wire [{lo}, {hi}] bound={bound}, replay {expected:?} bound={}",
                network.is_bound(id)
            ));
        }
    }
    let violations = network.violated_constraints().len() as u32;
    if wire.violations != violations || wire.operations != dpm.operations_total() as u64 {
        return Err(format!(
            "wire: {} ops, {} violations; replay: {} ops, {violations} violations",
            wire.operations,
            wire.violations,
            dpm.operations_total()
        ));
    }
    Ok(())
}

/// A served scenario with its clients connected and subscribed.
struct Live {
    server: CollabServer,
    conns: Vec<Conn>,
    journal: Option<PathBuf>,
}

impl Live {
    fn close(self) {
        drop(self.conns);
        let _ = self.server.shutdown();
    }
}

/// Everything a phase needs that does not depend on the server.
struct Prepared {
    scenario: CompiledScenario,
    /// The initialized DPM before any operation.
    fresh: DesignProcessManager,
}

fn journal_config(path: &Path, fsync: FsyncPolicy) -> JournalConfig {
    JournalConfig {
        path: path.to_owned(),
        fsync,
        checkpoint_every: CHECKPOINT_EVERY,
        compact_every: COMPACT_EVERY,
    }
}

/// Compiles the scenario, builds and initializes the DPM, binds the server
/// and connects and subscribes both clients. Returns the set-up time, which
/// excludes only the benchmark's own copy of the initial DPM.
fn setup(
    spec: &CollabSpec,
    seed: u64,
    journal: Option<PathBuf>,
    sink: Option<Arc<InMemorySink>>,
    opts: ClientOpts,
) -> Result<(Live, Prepared, f64), String> {
    let started = Instant::now();
    let text = scenario_text(spec, seed);
    let scenario = adpm_dddl::compile_source(&text).map_err(|e| e.to_string())?;
    let mut dpm = scenario.build_dpm(DpmConfig::adpm());
    if let Some(sink) = &sink {
        dpm.set_sink(sink.clone());
    }
    dpm.initialize();
    let mut elapsed = started.elapsed();
    let mut fresh = dpm.clone();
    fresh.set_sink(Arc::new(NoopSink));
    let started = Instant::now();
    let writer = match &journal {
        Some(path) => Some(
            JournalWriter::open(journal_config(path, FsyncPolicy::Always), &dpm, None)
                .map_err(|e| e.to_string())?,
        ),
        None => None,
    };
    let server = CollabServer::bind_with(
        dpm,
        0,
        ServerOptions {
            metrics_addr: Some(SocketAddr::from(([127, 0, 0, 1], 0))),
            ..ServerOptions::default()
        },
        SessionOptions {
            journal: writer,
            ..SessionOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let mut conns = Vec::new();
    for designer in CLIENTS {
        let mut conn = Conn::connect(server.local_addr(), opts).map_err(|e| e.to_string())?;
        let welcome = conn.request(&Frame::Hello { designer });
        let subscribed = conn.request(&Frame::Subscribe {
            all: false,
            resume_from: None,
        });
        match (welcome, subscribed) {
            (Ok(Frame::Welcome { .. }), Ok(Frame::Subscribed { .. })) => conns.push(conn),
            other => return Err(format!("designer {designer} handshake: {other:?}")),
        }
    }
    elapsed += started.elapsed();
    Ok((
        Live {
            server,
            conns,
            journal,
        },
        Prepared { scenario, fresh },
        elapsed.as_secs_f64(),
    ))
}

/// A finished measured phase.
struct Phase {
    logs: Vec<ClientLog>,
    wall_s: f64,
    final_state: WireState,
    delivered: u64,
    dropped: u64,
    journal: Option<PathBuf>,
}

/// Runs both clients through `ops` operations each, then takes the final
/// wire snapshot, scrapes the server's counters and shuts the server down.
fn measure(
    live: Live,
    prepared: &Prepared,
    seed: u64,
    mix: OpMix,
    ops: usize,
) -> Result<Phase, String> {
    let Live {
        server,
        conns,
        journal,
    } = live;
    let start = Arc::new(Barrier::new(CLIENTS.len() + 1));
    let workers: Vec<_> = conns
        .into_iter()
        .zip(CLIENTS)
        .map(|(conn, designer)| {
            let stream = OpStream::new(&prepared.fresh, DesignerId::new(designer), seed, mix);
            let start = start.clone();
            std::thread::spawn(move || drive(conn, designer, stream, &start, ops))
        })
        .collect();
    start.wait();
    let began = Instant::now();
    let mut logs: Vec<ClientLog> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .collect();
    let wall_s = logs
        .iter()
        .flat_map(|l| {
            l.submits
                .iter()
                .map(|s| s.done)
                .chain(l.reads.iter().map(|r| r.1))
        })
        .max()
        .map_or(0.0, |end| {
            end.saturating_duration_since(began).as_secs_f64()
        });
    let conn = logs[0].conn.as_mut().expect("client connection");
    conn.send(&Frame::Snapshot)
        .map_err(|e| format!("final snapshot: {e}"))?;
    let (final_state, _) =
        read_snapshot(conn, |_, _| {}).map_err(|e| format!("final snapshot: {e}"))?;
    let mut body = String::new();
    let scrape = server.metrics_addr().expect("scrape listener");
    TcpStream::connect(scrape)
        .and_then(|mut s| s.read_to_string(&mut body))
        .map_err(|e| format!("scrape: {e}"))?;
    let counters = parse_exposition(&body)
        .remove(DEFAULT_SESSION)
        .ok_or("scrape lacks the default session")?;
    for conn in logs.iter().filter_map(|l| l.conn.as_ref()) {
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
    }
    let _ = server.shutdown();
    Ok(Phase {
        logs,
        wall_s,
        final_state,
        delivered: counters.get(Counter::InboxDelivered),
        dropped: counters.get(Counter::InboxDropped),
        journal,
    })
}

/// Latency figures of one phase. The distributions feed the pooled
/// report lines; the scalars feed the medians over sessions.
struct PhaseFigures {
    submit_p50: f64,
    submit_mean: f64,
    submits: usize,
    submit: Dist,
    read: Dist,
    notify: Dist,
    notify_lag: Dist,
    ops_per_s: f64,
    failed: u64,
    /// The first failure any client saw.
    first_failure: Option<String>,
    rejected: u64,
    attempted: u64,
}

fn us(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e6
}

fn figures(phase: &Phase) -> PhaseFigures {
    let mut by_seq: BTreeMap<u64, (u32, Instant, Instant)> = BTreeMap::new();
    let mut submit = Vec::new();
    let mut read = Vec::new();
    let (mut failed, mut rejected, mut attempted) = (0, 0, 0);
    let mut first_failure = None;
    for log in &phase.logs {
        for s in &log.submits {
            submit.push(us(s.sent, s.done));
            if let Some(seq) = s.seq {
                by_seq.insert(seq, (log.designer, s.sent, s.done));
            }
        }
        read.extend(log.reads.iter().map(|(a, b)| us(*a, *b)));
        failed += log.failed + log.stray_verdicts;
        if first_failure.is_none() {
            first_failure.clone_from(&log.first_failure);
        }
        rejected += log.rejected;
        attempted += (log.submits.len() + log.reads.len()) as u64 + log.failed;
    }
    let (mut notify, mut lag) = (Vec::new(), Vec::new());
    for log in &phase.logs {
        let mut first_read: BTreeMap<u64, Instant> = BTreeMap::new();
        for (seq, at) in &log.events {
            first_read.entry(*seq).or_insert(*at);
        }
        for (seq, at) in first_read {
            if let Some((designer, sent, done)) = by_seq.get(&seq) {
                if *designer != log.designer {
                    notify.push(us(*sent, at));
                    let signed = at.saturating_duration_since(*done).as_secs_f64()
                        - done.saturating_duration_since(at).as_secs_f64();
                    lag.push(signed * 1e6);
                }
            }
        }
    }
    let submit = Dist::new(submit);
    PhaseFigures {
        submit_p50: submit.p50().unwrap_or(f64::NAN),
        submit_mean: submit.mean().unwrap_or(f64::NAN),
        submits: submit.n(),
        ops_per_s: submit.n() as f64 / phase.wall_s,
        submit,
        read: Dist::new(read),
        notify: Dist::new(notify),
        notify_lag: Dist::new(lag),
        failed,
        first_failure,
        rejected,
        attempted,
    }
}

/// The executed operations in `seq` order, with their client spans.
struct Executed {
    ops: Vec<ReplayOp>,
    /// Client submit `(sent, done)` per operation.
    spans: Vec<(Instant, Instant)>,
    /// Client reads `(sent, done, after_seq)`.
    reads: Vec<(Instant, Instant, u64)>,
}

fn executed_ops(phase: &Phase, prepared: &Prepared) -> Result<Executed, String> {
    let names = Names::new(&prepared.fresh);
    let mut rows = Vec::new();
    for log in &phase.logs {
        for s in &log.submits {
            if let Some(seq) = s.seq {
                let operation = names.operation(&prepared.scenario, log.designer, &s.op)?;
                rows.push((seq, s.cid, operation, (s.sent, s.done)));
            }
        }
    }
    rows.sort_by_key(|r| r.0);
    for (i, row) in rows.iter().enumerate() {
        if row.0 != i as u64 + 1 {
            return Err(format!(
                "executed seqs are not 1..={}: position {} holds seq {}",
                rows.len(),
                i + 1,
                row.0
            ));
        }
    }
    let mut done: Vec<(Instant, u64)> = rows.iter().map(|r| (r.3 .1, r.0)).collect();
    done.sort();
    let mut reads: Vec<(Instant, Instant, u64)> = phase
        .logs
        .iter()
        .flat_map(|l| l.reads.iter())
        .map(|(sent, end)| {
            let after = done
                .iter()
                .take_while(|(at, _)| at <= sent)
                .map(|(_, seq)| *seq)
                .max()
                .unwrap_or(0);
            (*sent, *end, after)
        })
        .collect();
    reads.sort_by_key(|r| (r.2, r.0));
    let spans = rows.iter().map(|r| r.3).collect();
    let ops = rows
        .into_iter()
        .map(|(seq, cid, operation, _)| ReplayOp {
            seq,
            cid,
            operation,
        })
        .collect();
    Ok(Executed { ops, spans, reads })
}

/// Output checks common to every phase: exactly one verdict per submit,
/// contiguous executed seqs, and the final wire snapshot equal to a fresh
/// DPM replaying the executed operations (and, when durable, to the
/// journal's recovery).
fn check_phase(phase: &Phase, prepared: &Prepared, executed: &Executed) -> Result<(), String> {
    let strays: u64 = phase.logs.iter().map(|l| l.stray_verdicts).sum();
    if strays > 0 {
        return Err(format!(
            "{strays} verdicts arrived for no outstanding submit"
        ));
    }
    let mut replayed = prepared.fresh.clone();
    for op in &executed.ops {
        replayed
            .execute(op.operation.clone())
            .map_err(|e| format!("replay of seq {}: {e}", op.seq))?;
    }
    check_state(&phase.final_state, &replayed).map_err(|e| format!("wire vs replay: {e}"))?;
    if let Some(path) = &phase.journal {
        let mut recovered = prepared.fresh.clone();
        recover(path, &mut recovered).map_err(|e: JournalError| format!("recover: {e}"))?;
        check_state(&phase.final_state, &recovered)
            .map_err(|e| format!("wire vs journal recovery: {e}"))?;
    }
    Ok(())
}

fn scenario_text(spec: &CollabSpec, seed: u64) -> String {
    if spec.generated {
        generate_scenario(seed, &LARGE_NET).text
    } else {
        adpm_scenarios::SENSING_DDDL.to_owned()
    }
}

/// Median set-up time over `SETUP_REPS` set-ups.
fn setup_seconds(spec: &CollabSpec, seed: u64, dir: &Path) -> Result<f64, String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let journal = spec
            .durable
            .then(|| dir.join(format!("journal-setup-{rep}.jsonl")));
        let (live, _, secs) = setup(spec, seed, journal, None, ClientOpts::MEASURED)?;
        times.push(secs);
        live.close();
    }
    Ok(median(&times).expect("set-up times"))
}

/// A session kept whole for the nested replay.
type Kept = (Prepared, Phase, Executed);

/// One checked session: a fresh server, both clients through `opts.ops`
/// operations each, then the output checks. The session's scenario (when
/// generated) and operation streams come from its own seed, derived from
/// the run's seed and `index`, so a run averages over many networks rather
/// than depending on one.
fn session(
    spec: &CollabSpec,
    mix: OpMix,
    seed: u64,
    index: u64,
    dir: &Path,
    sink: Option<Arc<InMemorySink>>,
    opts: ClientOpts,
) -> Result<(PhaseFigures, Kept), String> {
    let journal = spec
        .durable
        .then(|| dir.join(format!("journal-{index}.jsonl")));
    let session_seed = seed.wrapping_mul(SESSION_STRIDE).wrapping_add(index);
    let (live, prepared, _) = setup(spec, session_seed, journal, sink, opts)?;
    let phase = measure(live, &prepared, session_seed, mix, opts.ops)?;
    let executed = executed_ops(&phase, &prepared)?;
    check_phase(&phase, &prepared, &executed)?;
    Ok((figures(&phase), (prepared, phase, executed)))
}

/// Sessions of `SESSION_OPS` operations per client, numbered from `first`,
/// until `budget` has elapsed (at least one).
fn sessions(
    spec: &CollabSpec,
    mix: OpMix,
    seed: u64,
    first: u64,
    budget: Duration,
    dir: &Path,
    sink: Option<Arc<InMemorySink>>,
) -> Result<Vec<PhaseFigures>, String> {
    let until = Instant::now() + budget;
    let mut figs = Vec::new();
    for index in first.. {
        let (mut fig, _) = session(
            spec,
            mix,
            seed,
            index,
            dir,
            sink.clone(),
            ClientOpts::MEASURED,
        )?;
        if figs.len() >= POOLED_SESSIONS {
            // Keep the benchmark's own memory independent of how many
            // sessions the program's speed allows.
            fig.submit = Dist::default();
            fig.read = Dist::default();
            fig.notify = Dist::default();
            fig.notify_lag = Dist::default();
        }
        figs.push(fig);
        if Instant::now() >= until {
            break;
        }
    }
    Ok(figs)
}

/// One session whose clients do not re-arm `TCP_QUICKACK`, as
/// `CollabClient` and any plain socket do not. Prints the share of submits
/// and reads that stalled on a delayed ACK: the figure a server that sets
/// `TCP_NODELAY` should bring to zero.
fn plain_session(
    spec: &CollabSpec,
    mix: OpMix,
    seed: u64,
    index: u64,
    dir: &Path,
) -> Result<PhaseFigures, String> {
    let opts = ClientOpts {
        ops: PLAIN_SESSION_OPS,
        capture: false,
        quickack: false,
    };
    let (fig, _) = session(spec, mix, seed, index, dir, None, opts)?;
    let replies: Vec<f64> = fig
        .submit
        .samples()
        .iter()
        .chain(fig.read.samples())
        .copied()
        .collect();
    let stall_us = STALL.as_secs_f64() * 1e6;
    let stalled = replies.iter().filter(|us| **us >= stall_us).count();
    report::value(
        "plain.stalled_share",
        stalled as f64 / replies.len().max(1) as f64,
        "ratio",
        replies.len(),
    );
    report::dist("plain.submit", &fig.submit, "us");
    report::dist("plain.read", &fig.read, "us");
    Ok(fig)
}

/// The per-session figures over a run's sessions.
struct Summary {
    /// Mean over sessions of the session's median submit latency.
    p50: f64,
    mean: f64,
    ops_per_s: f64,
    attempted: u64,
    failed: u64,
    rejected: u64,
    submits: usize,
    sessions: usize,
}

fn summarize(figs: &[PhaseFigures]) -> Summary {
    let per = |f: &dyn Fn(&PhaseFigures) -> f64| {
        median(&figs.iter().map(f).collect::<Vec<_>>()).expect("at least one session")
    };
    let pooled = |f: &dyn Fn(&PhaseFigures) -> &Dist| {
        Dist::new(
            figs.iter()
                .flat_map(|x| f(x).samples().iter().copied())
                .collect(),
        )
    };
    report::dist("submit (pooled)", &pooled(&|f| &f.submit), "us");
    report::dist("notify (pooled)", &pooled(&|f| &f.notify), "us");
    report::dist("read (pooled)", &pooled(&|f| &f.read), "us");
    report::dist("notify.lag (pooled)", &pooled(&|f| &f.notify_lag), "us");
    let summary = Summary {
        p50: figs.iter().map(|f| f.submit_p50).sum::<f64>() / figs.len() as f64,
        mean: per(&|f| f.submit_mean),
        ops_per_s: per(&|f| f.ops_per_s),
        attempted: figs.iter().map(|f| f.attempted).sum(),
        failed: figs.iter().map(|f| f.failed).sum(),
        rejected: figs.iter().map(|f| f.rejected).sum(),
        submits: figs.iter().map(|f| f.submits).sum(),
        sessions: figs.len(),
    };
    report::line(format!(
        "{} sessions of {SESSION_OPS} operations per client: {} submits ({} rejected), {} failed",
        summary.sessions, summary.submits, summary.rejected, summary.failed
    ));
    if let Some(why) = figs.iter().find_map(|f| f.first_failure.as_ref()) {
        report::line(format!("first failure: {why}"));
    }
    summary
}

/// Runs a collab workload.
pub fn run(
    spec: &CollabSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    dir: &Path,
) -> Result<Outcome, String> {
    let text = scenario_text(spec, seed);
    report::line(format!(
        "workload {}: closed loop, {} designer clients, {} flush, scenario {} bytes of DDDL",
        spec.name,
        CLIENTS.len(),
        if spec.durable {
            "fsync-always journal"
        } else {
            "no journal"
        },
        text.len()
    ));
    let shares = TEAMSIM_SHARES;
    let mix = shares.mix(spec.snapshot_pct);
    let submits = (shares.assign + shares.unbind + shares.verify) as f64;
    let pct = |n: u64| n as f64 / submits * f64::from(100 - spec.snapshot_pct);
    report::line(format!(
        "operation mix: assign {:.1}% unbind {:.1}% verify {:.1}% in the proportions of TeamSim's \
         ADPM designers on sensing ({} assign, {} unbind, {} verify, {} without a wire form), \
         snapshot {}% (a stress parameter)",
        pct(shares.assign),
        pct(shares.unbind),
        pct(shares.verify),
        shares.assign,
        shares.unbind,
        shares.verify,
        shares.other,
        spec.snapshot_pct
    ));
    let setup_s = setup_seconds(spec, seed, dir)?;
    let budget = Duration::from_secs_f64(if traced { seconds / 2.0 } else { seconds });
    let figs = sessions(spec, mix, seed, 0, budget, dir, None)?;
    let untraced = summarize(&figs);
    let mut outcome = Outcome::new(untraced.attempted, untraced.failed);
    let plain = plain_session(spec, mix, seed, figs.len() as u64, dir)?;
    outcome.attempted += plain.attempted;
    outcome.failed += plain.failed;
    if !traced {
        outcome.metric("setup_s", setup_s, "s", SETUP_REPS);
        outcome.metric("op_p50_us", untraced.p50, "us", untraced.submits);
        outcome.metric("rss_peak_mb", crate::rss_peak_mb(), "MiB", 1);
        report::value("submit_mean_us", untraced.mean, "us", untraced.submits);
        report::value(
            "submits_per_s",
            untraced.ops_per_s,
            "ops/s",
            untraced.submits,
        );
        return Ok(outcome);
    }

    // Traced sessions: the base sink aggregates in memory. One longer
    // session, with its wire lines captured, feeds the nested replay.
    let mut tracer = Tracer::new(Instant::now());
    let sink = Arc::new(InMemorySink::new());
    let first = figs.len() as u64 + 1;
    let (_, kept) = session(
        spec,
        mix,
        seed,
        first,
        dir,
        Some(sink.clone()),
        ClientOpts {
            ops: REPLAY_SESSION_OPS,
            capture: true,
            quickack: true,
        },
    )?;
    // The live DPM's own timing of its operations in the kept session.
    let live_execute = sink.histogram(SpanKind::Operation);
    let live_execute_us = live_execute.sum() as f64 / live_execute.count().max(1) as f64;
    let figs_b = sessions(spec, mix, seed, first + 1, budget, dir, Some(sink))?;
    let traced_summary = summarize(&figs_b);
    outcome.attempted += traced_summary.attempted;
    outcome.failed += traced_summary.failed;
    let (prepared_b, mut phase_b, executed_b) = kept;
    let fig_b = figures(&phase_b);
    let client_spans: Vec<Option<usize>> = executed_b
        .ops
        .iter()
        .zip(&executed_b.spans)
        .map(|(op, (sent, done))| Some(tracer.record("client.submit", *sent, *done, None, op.seq)))
        .collect();
    let reads: Vec<ReadPoint> = executed_b
        .reads
        .iter()
        .map(|(sent, done, after)| ReadPoint {
            after_seq: *after,
            parent: Some(tracer.record("client.read", *sent, *done, None, *after)),
        })
        .collect();
    let session_journal = spec
        .durable
        .then(|| journal_config(&dir.join("replay-session.jsonl"), FsyncPolicy::Always));
    let subscribers: Vec<DesignerId> = CLIENTS.iter().map(|d| DesignerId::new(*d)).collect();
    let session_spans = session_pass(
        &prepared_b.fresh,
        &executed_b.ops,
        &client_spans,
        &reads,
        session_journal,
        &subscribers,
        &mut tracer,
    )?;
    let mut probe = JournalProbe::open(
        journal_config(&dir.join("replay-probe.jsonl"), FsyncPolicy::Never),
        &prepared_b.fresh,
    )?;
    let parents: Vec<Option<usize>> = session_spans.into_iter().map(Some).collect();
    let core = core_pass(
        &prepared_b.fresh,
        &executed_b.ops,
        &parents,
        Some(&mut probe),
        &mut tracer,
    )?;
    check_state(&phase_b.final_state, &core.dpm).map_err(|e| format!("core replay: {e}"))?;
    let parents: Vec<Option<usize>> = core.spans.iter().copied().map(Some).collect();
    let (net, counts) = constraint_pass(
        &prepared_b.fresh,
        &DpmConfig::adpm(),
        &executed_b.ops,
        &parents,
        &mut tracer,
    )?;
    if !same_network_state(&net, core.dpm.network()) {
        return Err("constraint replay diverged from the DPM".into());
    }
    let lines: Vec<String> = phase_b
        .logs
        .iter_mut()
        .flat_map(|l| l.conn_capture())
        .collect();
    let mismatches = wire_pass(&lines, &mut tracer)?;
    if mismatches > 0 {
        return Err(format!(
            "{mismatches} wire lines did not re-encode to themselves"
        ));
    }
    let recover_path = phase_b
        .journal
        .clone()
        .unwrap_or_else(|| dir.join("replay-probe.jsonl"));
    let mut recovered = prepared_b.fresh.clone();
    recover(&recover_path, &mut recovered).map_err(|e| format!("recover: {e}"))?;
    check_state(&phase_b.final_state, &recovered)
        .map_err(|e| format!("wire vs recovery of {}: {e}", recover_path.display()))?;
    let recover_us = crate::layers::median_us(3, || {
        let mut dpm = prepared_b.fresh.clone();
        recover(&recover_path, &mut dpm).expect("the run's journal recovers")
    });

    let n_ops = executed_b.ops.len().max(1) as f64;
    crate::dddl_metrics(&mut outcome, &[text.as_str()]);
    crate::constraint_metrics(&mut outcome, &tracer, &counts);
    let init_us = crate::initialize_us(&prepared_b.scenario, &DpmConfig::adpm());
    let events = core.counts.get(Counter::Notifications) as f64 / n_ops;
    crate::core_metrics(&mut outcome, &tracer, events, init_us);
    outcome.metric(
        "observe.trace_overhead_pct",
        (traced_summary.p50 - untraced.p50) / untraced.p50 * 100.0,
        "%",
        traced_summary.submits,
    );

    // Layers of the collab path, printed with the registered metrics.
    let session = Dist::new(tracer.durations_us("session.submit"));
    report::dist("session.submit", &session, "us");
    report::value(
        "session.self_us",
        tracer.mean_self_us("session.submit"),
        "us",
        session.n(),
    );
    report::value(
        "session.snapshot_us",
        mean(&tracer.durations_us("session.snapshot")),
        "us",
        reads.len(),
    );
    let append = Dist::new(tracer.durations_us("journal.append"));
    let plain: Vec<f64> = tracer
        .durations_us("journal.append")
        .into_iter()
        .zip(&probe.compacting)
        .filter_map(|(d, c)| (!c).then_some(d))
        .collect();
    let compacting: Vec<f64> = tracer
        .durations_us("journal.append")
        .into_iter()
        .zip(&probe.compacting)
        .filter_map(|(d, c)| c.then_some(d))
        .collect();
    report::value("journal.append_us", mean(&plain), "us", plain.len());
    report::value(
        "journal.sync_us",
        mean(&tracer.durations_us("journal.sync")),
        "us",
        append.n(),
    );
    report::value(
        "journal.bytes_per_op",
        core.counts.get(Counter::JournalBytes) as f64 / n_ops,
        "B",
        append.n(),
    );
    let live_syncs = if spec.durable {
        1.0 + compacting.len() as f64 / n_ops
    } else {
        0.0
    };
    report::value("journal.syncs_per_op", live_syncs, "1/op", append.n());
    report::value(
        "journal.compact_us",
        mean(&compacting) - mean(&plain),
        "us",
        compacting.len(),
    );
    report::value("journal.recover_us", recover_us, "us", 3);
    let bytes: usize = lines.iter().map(String::len).sum();
    report::value(
        "wire.encode_us",
        mean(&tracer.durations_us("wire.encode")),
        "us",
        tracer.durations_us("wire.encode").len(),
    );
    report::value(
        "wire.decode_us",
        mean(&tracer.durations_us("wire.decode")),
        "us",
        tracer.durations_us("wire.decode").len(),
    );
    report::value("wire.bytes_per_op", bytes as f64 / n_ops, "B", lines.len());
    let server_self = tracer.mean_self_us("client.submit");
    report::value("server.self_us", server_self, "us", fig_b.submit.n());
    report::value(
        "server.read_self_us",
        tracer.mean_self_us("client.read"),
        "us",
        reads.len(),
    );
    report::value(
        "notify.lag_p50_us",
        fig_b.notify_lag.p50().unwrap_or(0.0),
        "us",
        fig_b.notify_lag.n(),
    );
    report::value("notify.delivered", phase_b.delivered as f64, "count", 1);
    report::value("notify.dropped", phase_b.dropped as f64, "count", 1);
    report::dist("notify", &fig_b.notify, "us");

    crate::in_situ(
        "core.execute",
        mean(&tracer.durations_us("core.execute")),
        live_execute_us,
        IN_SITU_FACTOR,
    )?;
    // The submit path's mean, split into layer self times.
    let client_mean = tracer.total_us("client.submit") / n_ops;
    let parts = [
        (
            "server.self",
            tracer.self_total_us("client.submit").0 / n_ops,
        ),
        (
            "session.self",
            tracer.self_total_us("session.submit").0 / n_ops,
        ),
        ("core.self", tracer.self_total_us("core.execute").0 / n_ops),
        (
            "constraint.propagate",
            tracer.total_us("constraint.propagate") / n_ops,
        ),
        (
            "constraint.mine",
            tracer.total_us("constraint.mine") / n_ops,
        ),
    ];
    crate::breakdown("client submit", client_mean, &parts, RECONCILE_BOUND)?;
    let journal_us = if spec.durable {
        mean(&plain) + mean(&tracer.durations_us("journal.sync"))
    } else {
        0.0
    };
    let collab_side = journal_us + server_self + fig_b.notify_lag.p50().unwrap_or(0.0).max(0.0);
    report::line(format!(
        "share: journal+server+notify {:.1} us vs constraint {:.1} us",
        collab_side,
        parts[3].1 + parts[4].1
    ));
    crate::write_spans(&tracer, spec.name, seed)?;
    Ok(outcome)
}

fn mean(values: &[f64]) -> f64 {
    Dist::new(values.to_vec()).mean().unwrap_or(0.0)
}

impl ClientLog {
    fn conn_capture(&mut self) -> Vec<String> {
        self.conn
            .as_mut()
            .and_then(|c| c.capture.take())
            .unwrap_or_default()
    }
}
