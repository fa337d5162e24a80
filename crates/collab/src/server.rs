//! The collaboration server: a registry of named sessions, many TCP
//! connections.
//!
//! [`CollabServer::bind`] takes ownership of a configured
//! [`DesignProcessManager`], moves it into a [`SessionEngine`], and
//! accepts JSONL wire-protocol connections on a loopback TCP listener.
//! Each connection runs a reader thread and a writer thread. The reader
//! blocks on the socket, runs each request on its own thread through the
//! session's [`SessionHandle`], so concurrent clients interleave exactly
//! like concurrent handle users — linearized by the session lock, with one
//! authoritative history per session — and writes the reply itself.
//!
//! Who writes: the reader writes every reply, `snapshot` batches included,
//! in one write together with the events queued in the designer's inbox,
//! events first. A submit's own routed events are queued before the
//! session answers it, so they always reach the submitter ahead of its
//! `executed` frame. From the moment the reader starts handling a frame
//! until that write the connection is busy, and inbox pushes do not wake
//! the writer thread. The writer thread writes only events while the
//! reader is idle in `read`, and `ping`s; it also keeps the idle and
//! queue-age deadlines. The socket's write half sits behind its own lock
//! in the connection's outbox, taken before the outbox state; whoever
//! drains the inbox holds it until its write ends, so events leave in
//! routing order, and no wait for a slow socket holds the state lock that
//! inbox pushes take.
//!
//! Multi-tenancy ([`CollabServer::bind_registry`]): the server hosts a
//! **registry of named sessions**, each owning its own [`SessionEngine`]
//! (and therefore its own design state, event log, journal, and name
//! tables). Every connection starts bound to the default session
//! ([`DEFAULT_SESSION`]) — single-session clients never notice the
//! registry — and may rebind with the `create`/`attach`/`detach` handshake
//! frames. New sessions are built by a caller-supplied [`SessionFactory`];
//! `create` on an existing name is an idempotent attach, `create` on a
//! missing name requires [`ServerOptions::allow_create`], and `attach`
//! always rejects missing names with a typed `attach_rejected` frame. The
//! factory runs under the registry lock, so concurrent creates of the same
//! name yield exactly one session.
//!
//! Wire frames carry names, not ids: each session's name table (the
//! `names` module; the one its journal writes through, when it has one)
//! resolves both directions on the connection threads without consulting
//! the session.
//!
//! Fault tolerance ([`ServerOptions`]):
//!
//! - **Heartbeats.** After [`heartbeat`](ServerOptions::heartbeat) of
//!   silence from the peer the connection's writer sends a
//!   `ping` frame, counts unanswered pings into `heartbeats_missed`, and
//!   after [`idle_timeout`](ServerOptions::idle_timeout) declares the peer
//!   half-open and drops it — the failure a plain blocking read can never
//!   detect.
//! - **Write deadlines.** Every connection socket gets a 5 s write
//!   timeout, so one stalled client cannot wedge its connection's threads
//!   forever; the bounded inbox in front of it sheds load first.
//! - **Resynchronization.** Oversized or undecodable lines are skipped to
//!   the next newline; skipped bytes count into `wire_bytes_skipped`, emit
//!   a `wire_skip` trace event, and the peer is told with a `warn` frame.
//! - **Fault injection.** With a [`FaultPlan`](crate::fault::FaultPlan)
//!   installed, every outgoing
//!   frame passes through a per-connection deterministic
//!   [`FaultInjector`] — chaos tests run against real torn bytes.

use crate::fault::FaultInjector;
use crate::journal::JournalWriter;
use crate::names::NameTable;
use crate::notify::Inbox;
use crate::session::{
    OpOutcome, SessionEngine, SessionHandle, SessionOptions, DEFAULT_INBOX_CAPACITY,
};
use crate::wire::{write_prop_line, BufferedLine, Frame, LineBuffer, WireOp};
use adpm_core::{DesignProcessManager, DesignerId};
use adpm_observe::{
    write_exposition, Counter, FlightRecorder, MetricsHub, MetricsSink, Snapshot, SpanKind,
    TeeSink, TraceEvent, ROLLUP_SESSION,
};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown as NetShutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, Weak};
use std::task::{Wake, Waker};
use std::thread;
use std::time::{Duration, Instant};

/// Per-connection socket write timeout.
const WRITE_DEADLINE: Duration = Duration::from_secs(5);

/// Backoff hint carried on every [`Frame::Overloaded`] the server sends.
const RETRY_AFTER_MS: u64 = 250;

/// Backoff after an `accept(2)` error. Persistent failures (e.g. EMFILE)
/// otherwise turn the accept loop into a 100% CPU spin.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(50);

/// Name of the session every connection starts bound to. It always exists:
/// [`CollabServer::bind`] seeds it from the DPM it is given.
pub const DEFAULT_SESSION: &str = "default";

/// Liveness and degradation policy for served connections.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Silence before the server pings a quiet peer (and between pings).
    pub heartbeat: Duration,
    /// Total silence after which a peer is declared half-open and dropped.
    pub idle_timeout: Duration,
    /// Inject these faults into every outgoing frame (chaos testing).
    pub fault_plan: Option<crate::fault::FaultPlan>,
    /// Whether a client's `create` frame may create a session that does
    /// not exist yet (it needs a [`SessionFactory`] to do so). `create` on
    /// an existing name is an idempotent attach regardless of this flag.
    pub allow_create: bool,
    /// Additionally serve a plaintext metrics exposition on this address:
    /// each accepted connection gets the full per-session scrape body (see
    /// [`write_exposition`]) and is closed. `None` disables the listener.
    pub metrics_addr: Option<SocketAddr>,
    /// Most sessions the registry will host; a `create` past the cap is
    /// answered with a typed `attach_rejected`.
    pub max_sessions: usize,
    /// Most connections one session accepts; both fresh connections to
    /// the default session and `create`/`attach` frames past the cap are
    /// shed.
    pub max_clients_per_session: usize,
    /// Most submissions the server executes concurrently across all
    /// connections; excess submits are answered with a typed
    /// [`Frame::Overloaded`] instead of queueing without bound.
    pub max_inflight: usize,
    /// Longest a subscriber's outbound event queue may stay continuously
    /// non-empty before the connection is evicted as a slow client —
    /// an age bound, so a client that keeps the bounded inbox pinned
    /// near-full (depth never triggers) still gets cut loose.
    pub max_queue_age: Duration,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            heartbeat: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(30),
            fault_plan: None,
            allow_create: false,
            metrics_addr: None,
            max_sessions: 1024,
            max_clients_per_session: 1024,
            max_inflight: 4096,
            max_queue_age: Duration::from_secs(10),
        }
    }
}

/// What a connection needs to know about its session, shared read-only
/// across connection threads: the session facts plus its name table.
struct SessionInfo {
    mode: &'static str,
    designers: u32,
    /// Whether the session was spawned with a negotiation engine —
    /// gates the client-facing negotiation frames.
    negotiation: bool,
    names: Arc<NameTable>,
}

/// Builds the design state for a freshly created named session: a
/// configured, initialized [`DesignProcessManager`] plus the session
/// extras (journal, …) it should run with. Called with the session name,
/// under the registry lock, so one name never races into two engines.
pub type SessionFactory =
    Box<dyn Fn(&str) -> io::Result<(DesignProcessManager, SessionOptions)> + Send + Sync>;

/// One hosted session: its engine, the name tables snapshot shared by
/// every connection bound to it, and its flight recorder.
struct SessionSlot {
    engine: SessionEngine,
    info: Arc<SessionInfo>,
    recorder: Arc<FlightRecorder>,
}

impl SessionSlot {
    /// A binding to this slot's session, hosted under `name`.
    fn binding(&self, name: &str) -> Binding {
        Binding {
            name: name.to_owned(),
            handle: self.engine.handle(),
            info: self.info.clone(),
        }
    }
}

/// The session a connection is bound to.
struct Binding {
    /// The session's name — feeds the per-session connection counts in
    /// `stats_reply` and scopes `stats`/`dump`.
    name: String,
    handle: SessionHandle,
    info: Arc<SessionInfo>,
}

/// The registry of named sessions a [`CollabServer`] hosts.
struct Registry {
    slots: Mutex<BTreeMap<String, SessionSlot>>,
    factory: Option<SessionFactory>,
    allow_create: bool,
    /// Server-level counters (accept errors, session churn, wire skips):
    /// the caller's sink teed with the hub rollup.
    sink: Arc<dyn MetricsSink>,
    /// The caller's original sink, before any telemetry tee — the base
    /// every per-session tee is built on.
    base: Arc<dyn MetricsSink>,
    /// Per-session telemetry: one [`InMemorySink`](adpm_observe::InMemorySink)
    /// per hosted session plus a server-wide rollup, all fed off the hot
    /// path by the per-session sink tees.
    hub: Arc<MetricsHub>,
    /// Which session each live connection is currently bound to, by
    /// connection index — the source of `stats_reply.connections` and of
    /// the per-session client-count admission checks.
    conn_sessions: Mutex<BTreeMap<u64, String>>,
    /// See [`ServerOptions::max_sessions`].
    max_sessions: usize,
    /// See [`ServerOptions::max_clients_per_session`].
    max_clients_per_session: usize,
    /// Submissions currently executing across every connection thread —
    /// the gauge behind [`ServerOptions::max_inflight`].
    inflight: AtomicUsize,
}

/// Session names double as journal-path suffixes, so keep them to a
/// filesystem- and wire-safe alphabet.
fn validate_session_name(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > 64 {
        return Err(format!(
            "session name must be 1-64 characters, got {}",
            name.len()
        ));
    }
    if !name
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
    {
        return Err(format!(
            "session name `{name}` may only contain letters, digits, `-`, and `_`"
        ));
    }
    Ok(())
}

impl Registry {
    /// Wires a session's telemetry and spawns its engine: the DPM's sink
    /// becomes a tee of the caller's base sink, the hub rollup, the
    /// session's own hub entry, and a fresh flight recorder (which the
    /// engine also dumps on panic). None of this touches the submit path
    /// beyond the counter increments the session already makes.
    fn build_slot(
        &self,
        name: &str,
        mut dpm: DesignProcessManager,
        mut session: SessionOptions,
    ) -> SessionSlot {
        let recorder = Arc::new(FlightRecorder::default());
        let children: Vec<Arc<dyn MetricsSink>> = vec![
            self.base.clone(),
            self.hub.rollup(),
            self.hub.register(name),
            recorder.clone(),
        ];
        dpm.set_sink(Arc::new(TeeSink::new(children)));
        if session.recorder.is_none() {
            session.recorder = Some(recorder.clone());
        }
        let info = Arc::new(SessionInfo {
            mode: dpm.mode().as_str(),
            designers: dpm.designers().len() as u32,
            negotiation: session.negotiation.is_some(),
            names: session
                .journal
                .as_ref()
                .map_or_else(|| Arc::new(NameTable::build(&dpm)), JournalWriter::names),
        });
        let engine = SessionEngine::spawn_with(dpm, session);
        self.sink.incr(Counter::SessionsActive, 1);
        SessionSlot {
            engine,
            info,
            recorder,
        }
    }

    /// Spawns an engine for `dpm` and registers it under `name`.
    fn insert(&self, name: &str, dpm: DesignProcessManager, session: SessionOptions) {
        let slot = self.build_slot(name, dpm, session);
        lock(&self.slots).insert(name.to_owned(), slot);
    }

    /// The session every connection starts in.
    fn default_session(&self) -> Binding {
        lock(&self.slots)
            .get(DEFAULT_SESSION)
            .expect("the default session always exists")
            .binding(DEFAULT_SESSION)
    }

    /// Resolves a session `create`/`attach` request to a binding, creating
    /// the session when `create` is set and the server allows it. The
    /// returned flag says whether this request created the session.
    fn attach(&self, name: &str, create: bool) -> Result<(Binding, bool), String> {
        let reject = |reason: String| {
            self.sink.incr(Counter::AttachRejected, 1);
            reason
        };
        validate_session_name(name).map_err(reject)?;
        let mut slots = lock(&self.slots);
        if let Some(slot) = slots.get(name) {
            let bound = lock(&self.conn_sessions)
                .values()
                .filter(|s| s.as_str() == name)
                .count();
            if bound >= self.max_clients_per_session {
                self.sink.incr(Counter::OverloadSheds, 1);
                return Err(reject(format!(
                    "session `{name}` is full ({bound} clients)"
                )));
            }
            return Ok((slot.binding(name), false));
        }
        if !create {
            return Err(reject(format!("unknown session `{name}`")));
        }
        if slots.len() >= self.max_sessions {
            self.sink.incr(Counter::OverloadSheds, 1);
            return Err(reject(format!(
                "session limit reached ({} sessions hosted)",
                slots.len()
            )));
        }
        if !self.allow_create {
            return Err(reject(format!(
                "unknown session `{name}` (dynamic session creation is disabled)"
            )));
        }
        let Some(factory) = &self.factory else {
            return Err(reject(format!(
                "cannot create session `{name}`: the server has no session factory"
            )));
        };
        // The factory runs while we hold the slots lock: a concurrent
        // create of the same name waits here and then finds the slot.
        let (dpm, session) =
            factory(name).map_err(|e| reject(format!("could not create session `{name}`: {e}")))?;
        let slot = self.build_slot(name, dpm, session);
        let binding = slot.binding(name);
        slots.insert(name.to_owned(), slot);
        self.sink.incr(Counter::SessionsCreated, 1);
        Ok((binding, true))
    }

    /// Sorted comma-joined session names plus their count.
    fn list(&self) -> (String, u32) {
        let slots = lock(&self.slots);
        let names: Vec<&str> = slots.keys().map(String::as_str).collect();
        (names.join(","), names.len() as u32)
    }

    /// The flight recorder of a hosted session, if the session exists.
    fn recorder(&self, name: &str) -> Option<Arc<FlightRecorder>> {
        lock(&self.slots)
            .get(name)
            .map(|slot| slot.recorder.clone())
    }

    /// One `stats_reply` frame for one session snapshot. Submit-latency
    /// percentiles come from the `session` span the engine times around
    /// every command.
    fn stats_reply(name: &str, snapshot: &Snapshot, connections: u32) -> Frame {
        let span = snapshot.span(SpanKind::Session);
        Frame::StatsReply {
            session: name.to_owned(),
            connections,
            counters: Box::new(snapshot.counters),
            events: snapshot.events,
            p50_us: span.p50,
            p90_us: span.p90,
            p99_us: span.p99,
        }
    }

    /// The `stats_reply` frames for one report, then its `end`: the
    /// attached session's alone, or (with `all`) every hosted session plus
    /// the `*` rollup.
    fn stats_report(&self, session: &str, all: bool) -> Vec<Frame> {
        let connections: BTreeMap<String, u32> = {
            let conns = lock(&self.conn_sessions);
            let mut counts = BTreeMap::new();
            for name in conns.values() {
                *counts.entry(name.clone()).or_insert(0u32) += 1;
            }
            counts
        };
        let conns_for = |name: &str| connections.get(name).copied().unwrap_or(0);
        let mut frames = if all {
            let mut frames: Vec<Frame> = self
                .hub
                .snapshot_all()
                .iter()
                .map(|(name, snapshot)| Registry::stats_reply(name, snapshot, conns_for(name)))
                .collect();
            frames.push(Registry::stats_reply(
                ROLLUP_SESSION,
                &self.hub.rollup_snapshot(),
                connections.values().sum(),
            ));
            frames
        } else {
            match self.hub.snapshot(session) {
                Some(snapshot) => {
                    vec![Registry::stats_reply(
                        session,
                        &snapshot,
                        conns_for(session),
                    )]
                }
                None => Vec::new(),
            }
        };
        frames.push(Frame::End);
        frames
    }
}

/// A TCP server hosting a registry of named collaboration sessions.
///
/// Created by [`CollabServer::bind`]; torn down by [`CollabServer::wait`]
/// (block until a client sends `shutdown`) or [`CollabServer::shutdown`]
/// (immediate). Both shut every hosted session down and return the
/// *default* session's final [`DesignProcessManager`] so callers can
/// inspect or persist the end state.
pub struct CollabServer {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    registry: Arc<Registry>,
    accept_thread: Option<thread::JoinHandle<()>>,
    metrics_thread: Option<thread::JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
    conn_streams: Arc<Mutex<BTreeMap<u64, TcpStream>>>,
    stop: Arc<AtomicBool>,
    shutdown_signal: Arc<(Mutex<bool>, Condvar)>,
}

impl fmt::Debug for CollabServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CollabServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl CollabServer {
    /// Sets up the default session and starts accepting connections on
    /// `127.0.0.1:port` (`port` 0 picks an ephemeral port; see
    /// [`local_addr`](Self::local_addr)). The DPM is served as given —
    /// callers run scenario setup and `initialize()` first.
    ///
    /// # Errors
    ///
    /// Propagates the listener's bind error.
    pub fn bind(dpm: DesignProcessManager, port: u16) -> io::Result<CollabServer> {
        CollabServer::bind_with(
            dpm,
            port,
            ServerOptions::default(),
            SessionOptions::default(),
        )
    }

    /// [`bind`](Self::bind) with explicit liveness policy and session
    /// extras (e.g. an operation journal).
    ///
    /// # Errors
    ///
    /// Propagates the listener's bind error.
    pub fn bind_with(
        dpm: DesignProcessManager,
        port: u16,
        options: ServerOptions,
        session: SessionOptions,
    ) -> io::Result<CollabServer> {
        CollabServer::bind_registry(dpm, port, options, session, None, &[])
    }

    /// [`bind_with`](Self::bind_with) plus multi-tenancy: `dpm`/`session`
    /// seed the default session, `factory` builds the state for any other
    /// session (each `precreate` name immediately, plus dynamic `create`
    /// frames when [`ServerOptions::allow_create`] is set).
    ///
    /// # Errors
    ///
    /// Propagates the listener's bind error, a factory failure on a
    /// pre-created session, or an invalid pre-create name.
    pub fn bind_registry(
        dpm: DesignProcessManager,
        port: u16,
        options: ServerOptions,
        session: SessionOptions,
        factory: Option<SessionFactory>,
        precreate: &[String],
    ) -> io::Result<CollabServer> {
        let base = dpm.metrics_sink().clone();
        let hub = Arc::new(MetricsHub::new());
        // Server-level counters also land in the hub rollup, so a scrape
        // of `*` sees accept errors and wire skips alongside session work.
        let sink: Arc<dyn MetricsSink> = Arc::new(TeeSink::new(vec![base.clone(), hub.rollup()]));
        let registry = Arc::new(Registry {
            slots: Mutex::new(BTreeMap::new()),
            factory,
            allow_create: options.allow_create,
            sink: sink.clone(),
            base,
            hub: hub.clone(),
            conn_sessions: Mutex::new(BTreeMap::new()),
            max_sessions: options.max_sessions,
            max_clients_per_session: options.max_clients_per_session,
            inflight: AtomicUsize::new(0),
        });
        registry.insert(DEFAULT_SESSION, dpm, session);
        for name in precreate {
            let invalid = |m: String| io::Error::new(io::ErrorKind::InvalidInput, m);
            validate_session_name(name).map_err(invalid)?;
            if name == DEFAULT_SESSION {
                continue; // already seeded above
            }
            let factory = registry.factory.as_ref().ok_or_else(|| {
                invalid("pre-creating sessions requires a session factory".into())
            })?;
            let (session_dpm, session_options) = factory(name)?;
            registry.insert(name, session_dpm, session_options);
        }
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (metrics_addr, metrics_thread) = match options.metrics_addr {
            None => (None, None),
            Some(scrape_addr) => {
                let scrape = TcpListener::bind(scrape_addr)?;
                let bound = scrape.local_addr()?;
                let hub = hub.clone();
                let stop = stop.clone();
                let worker = thread::Builder::new()
                    .name("adpm-metrics".into())
                    .spawn(move || serve_scrapes(&scrape, &hub, &stop))
                    .expect("spawn metrics thread");
                (Some(bound), Some(worker))
            }
        };
        let options = Arc::new(options);
        let shutdown_signal = Arc::new((Mutex::new(false), Condvar::new()));
        let conn_threads: Arc<Mutex<Vec<thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let conn_streams: Arc<Mutex<BTreeMap<u64, TcpStream>>> =
            Arc::new(Mutex::new(BTreeMap::new()));
        let accept_thread = {
            let registry = registry.clone();
            let stop = stop.clone();
            let signal = shutdown_signal.clone();
            let threads = conn_threads.clone();
            let streams = conn_streams.clone();
            thread::Builder::new()
                .name("adpm-accept".into())
                .spawn(move || {
                    let mut conn_index: u64 = 0;
                    for incoming in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let stream = match incoming {
                            Ok(stream) => stream,
                            Err(_) => {
                                // Persistent accept errors (EMFILE, …)
                                // must not turn into a busy spin.
                                sink.incr(Counter::AcceptErrors, 1);
                                thread::sleep(ACCEPT_ERROR_BACKOFF);
                                continue;
                            }
                        };
                        // Reap workers that already finished, so
                        // connect/disconnect churn cannot grow the thread
                        // and stream registries without bound.
                        let finished: Vec<_> = {
                            let mut guard = lock(&threads);
                            let (finished, live) = guard
                                .drain(..)
                                .partition(|t: &thread::JoinHandle<()>| t.is_finished());
                            *guard = live;
                            finished
                        };
                        for t in finished {
                            let _ = t.join();
                        }
                        // Replies are written whole (see `ConnWriter`);
                        // Nagle would hold a reply's tail behind the peer's
                        // delayed ACK of its head.
                        let _ = stream.set_nodelay(true);
                        if let Ok(clone) = stream.try_clone() {
                            lock(&streams).insert(conn_index, clone);
                        }
                        let registry = registry.clone();
                        let streams = streams.clone();
                        let signal = signal.clone();
                        let options = options.clone();
                        let sink = sink.clone();
                        let index = conn_index;
                        conn_index += 1;
                        let worker =
                            thread::Builder::new()
                                .name("adpm-conn".into())
                                .spawn(move || {
                                    serve_connection(
                                        stream, registry, streams, signal, options, sink, index,
                                    )
                                });
                        if let Ok(worker) = worker {
                            lock(&threads).push(worker);
                        }
                    }
                })
                .expect("spawn accept thread")
        };
        Ok(CollabServer {
            addr,
            metrics_addr,
            registry,
            accept_thread: Some(accept_thread),
            metrics_thread,
            conn_threads,
            conn_streams,
            stop,
            shutdown_signal,
        })
    }

    /// The bound address, e.g. `127.0.0.1:41873`.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound address of the plaintext metrics scrape listener, when
    /// [`ServerOptions::metrics_addr`] asked for one.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The per-session metrics hub the server feeds — for in-process
    /// reconciliation against what `stats` frames and scrapes report.
    pub fn metrics_hub(&self) -> Arc<MetricsHub> {
        self.registry.hub.clone()
    }

    /// The flight recorder of a hosted session, if the session exists.
    pub fn flight_recorder(&self, name: &str) -> Option<Arc<FlightRecorder>> {
        self.registry.recorder(name)
    }

    /// A handle onto the hosted *default* session, for in-process
    /// submitters that want to skip the socket (the concurrent TeamSim
    /// driver).
    pub fn handle(&self) -> SessionHandle {
        self.registry.default_session().handle
    }

    /// The *default* session's name table.
    pub(crate) fn names(&self) -> Arc<NameTable> {
        self.registry.default_session().info.names.clone()
    }

    /// Sorted names of the sessions currently hosted.
    pub fn session_names(&self) -> Vec<String> {
        lock(&self.registry.slots).keys().cloned().collect()
    }

    /// How many connection streams and worker threads the server is
    /// currently tracking — `(streams, threads)`. Exposed so churn tests
    /// can prove the registries stay bounded: workers deregister their
    /// stream on exit, and finished threads are reaped by the accept loop.
    pub fn connection_counts(&self) -> (usize, usize) {
        (
            lock(&self.conn_streams).len(),
            lock(&self.conn_threads).len(),
        )
    }

    /// Blocks until some client sends a `shutdown` frame, then tears the
    /// server down and returns the final design state of the default
    /// session.
    ///
    /// # Errors
    ///
    /// The sorted names of the hosted sessions that had closed before the
    /// shutdown because a journal append failed or a command panicked
    /// (see [`SessionEngine::shutdown`]); their in-memory state is gone.
    pub fn wait(self) -> Result<DesignProcessManager, Vec<String>> {
        {
            let (flag, cvar) = &*self.shutdown_signal;
            let mut requested = lock(flag);
            while !*requested {
                requested = cvar
                    .wait(requested)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        self.finish()
    }

    /// Tears the server down now: stops accepting, closes connections,
    /// joins every thread, and shuts every session down. Returns the
    /// default session's final design state; `None` when any hosted
    /// session had closed (see [`wait`](Self::wait)).
    pub fn shutdown(self) -> Option<DesignProcessManager> {
        self.finish().ok()
    }

    fn finish(mut self) -> Result<DesignProcessManager, Vec<String>> {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock both accept loops with a throwaway connection each.
        for addr in std::iter::once(self.addr).chain(self.metrics_addr) {
            let _ = TcpStream::connect(addr);
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.metrics_thread.take() {
            let _ = t.join();
        }
        // Unblock connection readers; their clients are done either way.
        for (_, stream) in std::mem::take(&mut *lock(&self.conn_streams)) {
            let _ = stream.shutdown(NetShutdown::Both);
        }
        let threads: Vec<_> = lock(&self.conn_threads).drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
        // Shut every hosted session down; hand back the default one, or
        // name the sessions that had closed.
        let slots = std::mem::take(&mut *lock(&self.registry.slots));
        let mut default_dpm = None;
        let mut closed = Vec::new();
        for (name, slot) in slots {
            match slot.engine.shutdown() {
                Some(dpm) if name == DEFAULT_SESSION => default_dpm = Some(dpm),
                Some(_) => {}
                None => closed.push(name),
            }
        }
        match default_dpm {
            Some(dpm) if closed.is_empty() => Ok(dpm),
            _ => Err(closed),
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The plaintext scrape loop: accept, write one exposition body covering
/// every hosted session plus the `*` rollup, close. Like the main accept
/// loop, it is woken for shutdown by a throwaway connection.
fn serve_scrapes(listener: &TcpListener, hub: &MetricsHub, stop: &AtomicBool) {
    for incoming in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = incoming else {
            thread::sleep(ACCEPT_ERROR_BACKOFF);
            continue;
        };
        let mut body = String::new();
        for (name, snapshot) in hub.snapshot_all() {
            write_exposition(&mut body, &name, &snapshot);
        }
        write_exposition(&mut body, ROLLUP_SESSION, &hub.rollup_snapshot());
        let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
        let _ = stream.write_all(body.as_bytes());
        let _ = stream.shutdown(NetShutdown::Both);
    }
}

/// The write half of one connection: the socket plus the optional fault
/// injector every outgoing line passes through.
struct ConnWriter {
    stream: TcpStream,
    injector: Option<FaultInjector>,
}

impl ConnWriter {
    /// Writes a batch of encoded lines. Without a fault plan the batch
    /// leaves in a single `write_all`, so a snapshot's `state`, `prop`…
    /// `end` frames fill as few segments as the socket allows instead of
    /// one each; with one, every line passes through the injector.
    fn write(&mut self, batch: &str) -> io::Result<()> {
        match self.injector.as_mut() {
            Some(injector) => injector.write_lines(&mut self.stream, batch),
            None => {
                self.stream.write_all(batch.as_bytes())?;
                self.stream.flush()
            }
        }
    }

    /// Writes the events queued in `subscription`'s inbox, then `tail`
    /// (encoded lines, possibly none), in one write. Callers hold the
    /// outbox's writer lock from the drain to the end of the write, so
    /// events leave in the order the session routed them.
    fn send(
        &mut self,
        subscription: Option<&(Inbox, Arc<SessionInfo>)>,
        tail: &str,
    ) -> io::Result<()> {
        let mut batch = String::new();
        if let Some((inbox, info)) = subscription {
            for entry in inbox.drain() {
                info.names.event_frame(&entry).write_line(&mut batch);
            }
        }
        if batch.is_empty() {
            return if tail.is_empty() {
                Ok(())
            } else {
                self.write(tail)
            };
        }
        batch.push_str(tail);
        self.write(&batch)
    }
}

/// One connection's outbound side. The reader writes each reply itself,
/// the events queued for its designer ahead of it; the writer thread
/// writes only what falls due while the reader is idle. Lock order:
/// `writer`, then `state`.
struct Outbox {
    /// The socket's write half. A thread that writes takes it before
    /// `state` and keeps it until its write ends, so no wait for a slow
    /// socket ever holds `state`, which the session's inbox pushes take.
    writer: Mutex<ConnWriter>,
    state: Mutex<OutboxState>,
    /// Wakes the writer thread.
    changed: Condvar,
}

struct OutboxState {
    /// The inbox and the name tables its events are encoded with.
    subscription: Option<(Inbox, Arc<SessionInfo>)>,
    /// When the reader last received bytes from the peer.
    last_read: Instant,
    /// Set from the moment the reader starts handling a frame until its
    /// reply: the reply carries the events queued meanwhile, so inbox
    /// pushes do not wake the writer thread.
    busy: bool,
    /// Set by whichever thread ends the connection first.
    closed: bool,
}

impl Outbox {
    /// Marks the connection busy: the reader has a frame to answer.
    fn begin(&self) {
        lock(&self.state).busy = true;
    }

    /// The reader's answer to one frame: ends the busy mark, then writes
    /// the events queued for the designer and `reply` (encoded lines,
    /// possibly none) in one write. Fails once the connection is closed.
    fn reply(&self, reply: &str) -> io::Result<()> {
        let mut writer = lock(&self.writer);
        let mut state = lock(&self.state);
        state.busy = false;
        if state.closed {
            return Err(io::ErrorKind::NotConnected.into());
        }
        let subscription = state.subscription.clone();
        drop(state);
        writer.send(subscription.as_ref(), reply)
    }

    /// Ends the connection and its subscription, and wakes the writer
    /// thread.
    fn close(&self) {
        let mut state = lock(&self.state);
        state.closed = true;
        if let Some((inbox, _)) = state.subscription.take() {
            inbox.close();
        }
        self.changed.notify_all();
    }
}

/// Wakes a connection's writer thread after a push to its inbox, unless
/// the reader is busy and will write the event with its reply; weak,
/// because the outbox holds the inbox that holds this.
struct WakeWriter(Weak<Outbox>);

impl Wake for WakeWriter {
    fn wake(self: Arc<Self>) {
        if let Some(outbox) = self.0.upgrade() {
            // Taking the lock orders this wake after the writer thread's
            // look at the inbox, so it cannot fall between that look and
            // the wait, and after any reply that cleared the busy mark
            // before draining.
            let state = lock(&outbox.state);
            if !state.busy {
                outbox.changed.notify_all();
            }
        }
    }
}

/// The connection's writer thread. Each round sends a due `ping` and,
/// while the reader is idle, the subscription's events, or sleeps until
/// the idle deadline, the next ping or an inbox push. On exit (outbox
/// closed, write failed, peer idle) it shuts the socket down, ending the
/// reader.
fn write_connection(outbox: &Outbox, options: &ServerOptions, sink: &dyn MetricsSink) {
    let mut pings: u64 = 0;
    let mut pinged_at: Option<Instant> = None;
    // Slow-client eviction is by queue AGE, not depth: the bounded inbox
    // caps depth on its own, so a client that keeps it pinned near-full
    // is losing events forever without ever tripping a depth check.
    let mut backlogged_since: Option<Instant> = None;
    loop {
        let mut writer = lock(&outbox.writer);
        let state = lock(&outbox.state);
        if state.closed {
            break;
        }
        let now = Instant::now();
        let idle_deadline = deadline(state.last_read, options.idle_timeout);
        if now >= idle_deadline {
            // Half-open peer: nothing (not even pongs) for the whole idle
            // window.
            sink.incr(Counter::HeartbeatsMissed, 1);
            break;
        }
        // A ping sent after the last read is still unanswered.
        let unanswered = pinged_at.filter(|at| *at > state.last_read);
        let ping_due = deadline(unanswered.unwrap_or(state.last_read), options.heartbeat);
        // A busy reader writes the queued events with its reply.
        let events = state
            .subscription
            .clone()
            .filter(|(inbox, _)| !state.busy && !inbox.is_empty());
        if events.is_none() {
            backlogged_since = None;
            if now < ping_due {
                drop(writer);
                let wake_at = idle_deadline.min(ping_due);
                drop(
                    outbox
                        .changed
                        .wait_timeout(state, wake_at.saturating_duration_since(now))
                        .unwrap_or_else(PoisonError::into_inner),
                );
                continue;
            }
        }
        drop(state);
        let mut tail = String::new();
        if now >= ping_due {
            if unanswered.is_some() {
                sink.incr(Counter::HeartbeatsMissed, 1);
            }
            pings += 1;
            Frame::Ping { nonce: pings }.write_line(&mut tail);
            pinged_at = Some(now);
        }
        if writer.send(events.as_ref(), &tail).is_err() {
            break;
        }
        drop(writer);
        if let Some((inbox, _)) = &events {
            if inbox.is_empty() {
                backlogged_since = None;
            } else if backlogged_since.get_or_insert_with(Instant::now).elapsed()
                > options.max_queue_age
            {
                sink.incr(Counter::OverloadSheds, 1);
                inbox.close();
                inbox.drain();
                backlogged_since = None;
            }
        }
    }
    outbox.close();
    let _ = lock(&outbox.writer).stream.shutdown(NetShutdown::Both);
}

/// `from + wait`, the wait capped at ~136 years: `Instant` arithmetic
/// panics past what the clock holds, and the heartbeat and idle timeout
/// come from the command line.
fn deadline(from: Instant, wait: Duration) -> Instant {
    from + wait.min(Duration::from_secs(1 << 32))
}

/// Rebinds a connection to session `to` after a successful
/// `create`/`attach`/`detach`: the old subscription is closed (the old
/// session GCs it), a designer index that does not exist in the new
/// session is forgotten, forcing a fresh `hello`, and the registry's
/// connection count moves to the new session.
fn switch_session(
    to: Binding,
    bound: &mut Binding,
    designer: &mut Option<DesignerId>,
    outbox: &Outbox,
    registry: &Registry,
    conn_index: u64,
) {
    if let Some((old, _)) = lock(&outbox.state).subscription.take() {
        old.close();
    }
    if let Some(d) = *designer {
        if d.index() as u32 >= to.info.designers {
            *designer = None;
        }
    }
    lock(&registry.conn_sessions).insert(conn_index, to.name.clone());
    *bound = to;
}

fn serve_connection(
    stream: TcpStream,
    registry: Arc<Registry>,
    streams: Arc<Mutex<BTreeMap<u64, TcpStream>>>,
    shutdown_signal: Arc<(Mutex<bool>, Condvar)>,
    options: Arc<ServerOptions>,
    sink: Arc<dyn MetricsSink>,
    conn_index: u64,
) {
    lock(&registry.conn_sessions).insert(conn_index, DEFAULT_SESSION.to_owned());
    if run_connection(stream, &registry, &options, &sink, conn_index) {
        let (flag, cvar) = &*shutdown_signal;
        *lock(flag) = true;
        cvar.notify_all();
    }
    // The accept loop retains a clone of this socket (to unblock readers
    // at server shutdown), so dropping our halves is not enough to close
    // it — shut the underlying socket down so the peer sees EOF now, and
    // deregister the clone so churn cannot accumulate dead streams.
    if let Some(stream) = lock(&streams).remove(&conn_index) {
        let _ = stream.shutdown(NetShutdown::Both);
    }
    lock(&registry.conn_sessions).remove(&conn_index);
}

/// Reads and answers one connection's requests, writing each reply (see
/// [`Outbox::reply`]); a writer thread spawned here writes what falls due
/// while the reader is idle. Returns, after joining the writer thread,
/// whether the peer asked the server to shut down.
fn run_connection(
    stream: TcpStream,
    registry: &Arc<Registry>,
    options: &Arc<ServerOptions>,
    sink: &Arc<dyn MetricsSink>,
    conn_index: u64,
) -> bool {
    let Ok(mut read_half) = stream.try_clone() else {
        return false;
    };
    let _ = stream.set_write_timeout(Some(WRITE_DEADLINE));
    let injector = options
        .fault_plan
        .as_ref()
        .map(|plan| FaultInjector::new(plan, conn_index).with_sink(sink.clone()));
    let mut writer = ConnWriter { stream, injector };
    // Admission: a default session already at its client cap sheds the
    // fresh connection with a typed frame (the count includes this
    // connection) — the one frame written before the outbox exists.
    let default_conns = lock(&registry.conn_sessions)
        .values()
        .filter(|s| s.as_str() == DEFAULT_SESSION)
        .count();
    if default_conns > options.max_clients_per_session {
        sink.incr(Counter::OverloadSheds, 1);
        let overloaded = Frame::Overloaded {
            retry_after_ms: RETRY_AFTER_MS,
            cid: None,
        };
        let _ = writer.write(&overloaded.to_line());
        return false;
    }
    let outbox = Arc::new(Outbox {
        writer: Mutex::new(writer),
        state: Mutex::new(OutboxState {
            subscription: None,
            last_read: Instant::now(),
            busy: false,
            closed: false,
        }),
        changed: Condvar::new(),
    });
    let writer_thread = {
        let (outbox, options, sink) = (outbox.clone(), options.clone(), sink.clone());
        thread::Builder::new()
            .name("adpm-write".into())
            .spawn(move || write_connection(&outbox, &options, &*sink))
    };
    let Ok(writer_thread) = writer_thread else {
        return false;
    };
    let mut bound = registry.default_session();
    let mut buffer = LineBuffer::new();
    let mut chunk = [0u8; 4096];
    let mut designer: Option<DesignerId> = None;
    let shutdown = 'conn: loop {
        let line = loop {
            match buffer.take() {
                Some(BufferedLine::Line(line)) => break line,
                Some(BufferedLine::Skipped { bytes }) => {
                    sink.incr(Counter::WireBytesSkipped, bytes);
                    if sink.is_enabled() {
                        sink.record(&TraceEvent::WireSkip { bytes });
                    }
                    let warning = Frame::Warning {
                        message: format!("{bytes} bytes discarded resynchronizing the stream"),
                    };
                    if outbox.reply(&warning.to_line()).is_err() {
                        break 'conn false;
                    }
                }
                None => match read_half.read(&mut chunk) {
                    Ok(0) | Err(_) => break 'conn false,
                    Ok(n) => {
                        buffer.push(&chunk[..n]);
                        lock(&outbox.state).last_read = Instant::now();
                    }
                },
            }
        };
        outbox.begin();
        let frame = match Frame::parse_line(&line) {
            Ok(frame) => frame,
            Err(err) => {
                // Parse errors keep the line-synchronized connection open.
                let error = Frame::Error {
                    message: err.message,
                };
                if outbox.reply(&error.to_line()).is_err() {
                    break false;
                }
                continue;
            }
        };
        // The reply's encoded lines: one frame, or several for the arms
        // that break out with their own.
        let reply = 'reply: {
            let reply = match frame {
                Frame::Hello { designer: index } => {
                    if index < bound.info.designers {
                        designer = Some(DesignerId::new(index));
                        Frame::Welcome {
                            mode: bound.info.mode.to_owned(),
                            designers: bound.info.designers,
                            properties: bound.info.names.property_names().len() as u32,
                            constraints: bound.info.names.constraint_count() as u32,
                        }
                    } else {
                        Frame::Error {
                            message: format!(
                                "unknown designer {index} (session has {})",
                                bound.info.designers
                            ),
                        }
                    }
                }
                // `all` is accepted for older clients and ignored: every
                // subscription receives the designer's routed stream.
                Frame::Subscribe { resume_from, .. } => match designer {
                    None => Frame::Error {
                        message: "subscribe requires a hello first".into(),
                    },
                    Some(d) => {
                        match bound
                            .handle
                            .subscribe_from(d, DEFAULT_INBOX_CAPACITY, resume_from)
                        {
                            Err(_) => Frame::Error {
                                message: "session is shut down".into(),
                            },
                            Ok((inbox, last_idx)) => {
                                inbox.set_waker(Waker::from(Arc::new(WakeWriter(Arc::downgrade(
                                    &outbox,
                                )))));
                                // A re-subscribe (resume) supersedes the previous
                                // inbox; closing it lets the session GC it.
                                let subscription = (inbox, bound.info.clone());
                                if let Some((old, _)) =
                                    lock(&outbox.state).subscription.replace(subscription)
                                {
                                    old.close();
                                }
                                Frame::Subscribed {
                                    designer: d.index() as u32,
                                    last_idx,
                                }
                            }
                        }
                    }
                },
                Frame::Submit { op, cid } => match designer {
                    None => Frame::Error {
                        message: "submit requires a hello first".into(),
                    },
                    Some(d) => {
                        // Bounded in-flight work: over the cap the submit is
                        // shed with a typed frame instead of waiting on the
                        // session lock without bound. The client retries
                        // with the same cid, so a shed costs one round trip,
                        // never a duplicate execution.
                        let inflight = registry.inflight.fetch_add(1, Ordering::SeqCst);
                        let reply = if inflight >= options.max_inflight {
                            sink.incr(Counter::OverloadSheds, 1);
                            Frame::Overloaded {
                                retry_after_ms: RETRY_AFTER_MS,
                                cid,
                            }
                        } else {
                            submit(&bound.handle, &bound.info.names, d, op, cid)
                        };
                        registry.inflight.fetch_sub(1, Ordering::SeqCst);
                        reply
                    }
                },
                Frame::Snapshot => match bound.handle.read(WireState::copy) {
                    Err(_) => Frame::Error {
                        message: "session is shut down".into(),
                    },
                    Ok(state) => break 'reply state.render(&bound.info.names),
                },
                Frame::Ping { nonce } => Frame::Pong { nonce },
                // Any traffic already refreshed `last_activity`; a pong needs
                // no reply.
                Frame::Pong { .. } => break 'reply String::new(),
                Frame::Shutdown => {
                    let _ = outbox.reply(&Frame::Bye.to_line());
                    break 'conn true;
                }
                Frame::Bye => {
                    let _ = outbox.reply(&Frame::Bye.to_line());
                    break 'conn false;
                }
                Frame::CreateSession { name } => match registry.attach(&name, true) {
                    Err(reason) => Frame::AttachRejected { name, reason },
                    Ok((to, created)) => {
                        switch_session(
                            to,
                            &mut bound,
                            &mut designer,
                            &outbox,
                            registry,
                            conn_index,
                        );
                        Frame::SessionAttached { name, created }
                    }
                },
                Frame::AttachSession { name } => match registry.attach(&name, false) {
                    Err(reason) => Frame::AttachRejected { name, reason },
                    Ok((to, _)) => {
                        switch_session(
                            to,
                            &mut bound,
                            &mut designer,
                            &outbox,
                            registry,
                            conn_index,
                        );
                        Frame::SessionAttached {
                            name,
                            created: false,
                        }
                    }
                },
                Frame::DetachSession => {
                    let to = registry.default_session();
                    switch_session(to, &mut bound, &mut designer, &outbox, registry, conn_index);
                    Frame::SessionAttached {
                        name: DEFAULT_SESSION.into(),
                        created: false,
                    }
                }
                Frame::ListSessions => {
                    let (names, count) = registry.list();
                    Frame::SessionList { names, count }
                }
                Frame::Stats { all } => {
                    if all && bound.name != DEFAULT_SESSION {
                        Frame::Error {
                            message: "`stats` across all sessions requires the default (operator) \
                                  session"
                                .into(),
                        }
                    } else {
                        break 'reply encode(&registry.stats_report(&bound.name, all));
                    }
                }
                Frame::Dump => match registry.recorder(&bound.name) {
                    None => Frame::Error {
                        message: format!("session `{}` is gone", bound.name),
                    },
                    Some(recorder) => {
                        // Each command records its `session` line before it
                        // releases the session lock, so every command answered
                        // so far is already whole in the recorder.
                        let lines = recorder.dump_indexed();
                        let mut frames = vec![Frame::DumpReply {
                            session: bound.name.clone(),
                            count: lines.len() as u32,
                            recorded: recorder.recorded(),
                        }];
                        frames.extend(
                            lines
                                .into_iter()
                                .map(|(idx, line)| Frame::Flight { idx, line }),
                        );
                        frames.push(Frame::End);
                        break 'reply encode(&frames);
                    }
                },
                // A client-sent `propose` asks the server to negotiate the
                // named conflict now. The server's engine generates the actual
                // proposals; the direct reply is the closing `resolved` frame
                // (outcome `consistent` when the constraint was not violated).
                Frame::Propose { constraint, .. } => {
                    if !bound.info.negotiation {
                        Frame::NegotiationRejected {
                            message: "negotiation is disabled for this session".into(),
                        }
                    } else if designer.is_none() {
                        Frame::Error {
                            message: "propose requires a hello first".into(),
                        }
                    } else {
                        match bound.info.names.constraint_id(&constraint) {
                            None => Frame::Error {
                                message: format!("unknown constraint `{constraint}`"),
                            },
                            Some(cid) => match bound.handle.negotiate(cid) {
                                Err(_) => Frame::Error {
                                    message: "session is shut down".into(),
                                },
                                Ok(report) => Frame::Resolved {
                                    seq: 0,
                                    constraint,
                                    rounds: report.rounds,
                                    proposals: report.proposals,
                                    outcome: if !report.seed_violated {
                                        "consistent"
                                    } else if report.resolved {
                                        "resolved"
                                    } else {
                                        "abandoned"
                                    }
                                    .into(),
                                    idx: 0,
                                },
                            },
                        }
                    }
                }
                // The remaining negotiation frames are server-generated:
                // answers come from the session's designer policies, never
                // from the wire. Reject them as typed data, not a bare error,
                // so clients can distinguish "disabled" from "malformed".
                Frame::CounterProposal { .. }
                | Frame::Accept { .. }
                | Frame::Reject { .. }
                | Frame::Resolved { .. } => Frame::NegotiationRejected {
                    message: if bound.info.negotiation {
                        "negotiation answers are computed by the session's designer policies".into()
                    } else {
                        "negotiation is disabled for this session".into()
                    },
                },
                // Response-only frames arriving from a client are protocol
                // misuse, but harmless: name them and carry on.
                other => Frame::Error {
                    message: format!("unexpected `{}` frame from a client", other.tag()),
                },
            };
            reply.to_line()
        };
        if outbox.reply(&reply).is_err() {
            break false;
        }
    };
    outbox.close();
    let _ = writer_thread.join();
    shutdown
}

/// `frames` encoded one line each.
fn encode(frames: &[Frame]) -> String {
    let mut out = String::new();
    for frame in frames {
        frame.write_line(&mut out);
    }
    out
}

fn submit(
    handle: &SessionHandle,
    names: &NameTable,
    designer: DesignerId,
    op: WireOp,
    cid: Option<u64>,
) -> Frame {
    let operation = match names.resolve_operation(designer, op) {
        Ok(operation) => operation,
        Err(message) => return Frame::Error { message },
    };
    match handle.submit_with_cid(operation, cid) {
        Err(_) => Frame::Error {
            message: "session is shut down".into(),
        },
        Ok(OpOutcome::Rejected(reason)) => Frame::Rejected {
            reason: reason.to_string(),
            cid,
        },
        Ok(OpOutcome::Executed(record)) => names.executed(&record, cid),
    }
}

/// What a `snapshot` reply carries, copied under the session lock by
/// [`WireState::copy`] so that the session waits only for the copy; the
/// reply is rendered after the lock is released.
struct WireState {
    operations: u64,
    bound: u32,
    violations: u32,
    /// `(lo, hi, bound)` per property, in id order. An empty feasible
    /// subspace is encoded as an inverted interval.
    props: Vec<(f64, f64, bool)>,
}

impl WireState {
    fn copy(dpm: &DesignProcessManager) -> WireState {
        let network = dpm.network();
        let props: Vec<(f64, f64, bool)> = network
            .property_ids()
            .map(|id| {
                let (lo, hi) = network
                    .feasible(id)
                    .enclosing_interval()
                    .map_or((1.0, 0.0), |iv| (iv.lo(), iv.hi()));
                (lo, hi, network.is_bound(id))
            })
            .collect();
        WireState {
            operations: dpm.operations_total() as u64,
            bound: props.iter().filter(|(_, _, bound)| *bound).count() as u32,
            violations: network.violated_constraints().len() as u32,
            props,
        }
    }

    /// The encoded `state`, `prop`… `end` reply to a `snapshot` request.
    fn render(&self, names: &NameTable) -> String {
        let mut out = String::with_capacity(64 * (self.props.len() + 2));
        Frame::State {
            operations: self.operations,
            bound: self.bound,
            violations: self.violations,
        }
        .write_line(&mut out);
        for (&(lo, hi, bound), name) in self.props.iter().zip(names.property_names()) {
            write_prop_line(&mut out, name, lo, hi, bound);
        }
        Frame::End.write_line(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::CollabClient;
    use adpm_observe::{InMemorySink, DEFAULT_FLIGHT_CAPACITY};
    use adpm_scenarios::sensing_system;
    use adpm_teamsim::SimulationConfig;
    use std::time::Duration;

    fn sensing_dpm() -> DesignProcessManager {
        let scenario = sensing_system();
        let config = SimulationConfig::adpm(7);
        let mut dpm = scenario.build_dpm(config.dpm_config());
        dpm.initialize();
        dpm
    }

    fn serve_sensing() -> CollabServer {
        CollabServer::bind(sensing_dpm(), 0).expect("bind")
    }

    /// A multi-tenant server whose factory clones the sensing scenario
    /// for every named session.
    fn serve_multi(allow_create: bool, precreate: &[&str]) -> CollabServer {
        let options = ServerOptions {
            allow_create,
            ..ServerOptions::default()
        };
        let factory: SessionFactory =
            Box::new(|_name| Ok((sensing_dpm(), SessionOptions::default())));
        let precreate: Vec<String> = precreate.iter().map(|s| (*s).to_owned()).collect();
        CollabServer::bind_registry(
            sensing_dpm(),
            0,
            options,
            SessionOptions::default(),
            Some(factory),
            &precreate,
        )
        .expect("bind registry")
    }

    fn assign_s_area(client: &mut CollabClient, value: f64) -> Frame {
        client
            .request(&Frame::Submit {
                op: WireOp::Assign {
                    problem: "pressure-sensor".into(),
                    property: "sensor.s-area".into(),
                    value,
                },
                cid: None,
            })
            .expect("submit")
    }

    #[test]
    fn negotiation_frames_rejected_when_disabled() {
        let server = serve_sensing();
        let mut client = CollabClient::connect(server.local_addr()).expect("connect");
        client
            .request(&Frame::Hello { designer: 0 })
            .expect("hello");
        // Satellite: a typed `negotiation_rejected`, not a silent drop or
        // a bare `err`, answers every negotiation frame on a
        // negotiation-disabled session.
        for frame in [
            Frame::Propose {
                seq: 0,
                round: 0,
                proposer: 0,
                kind: String::new(),
                constraint: "MeetArea".into(),
                property: String::new(),
                slack: 0.0,
                idx: 0,
            },
            Frame::Accept {
                seq: 1,
                round: 1,
                designer: 0,
                idx: 0,
            },
            Frame::Reject {
                seq: 1,
                round: 1,
                designer: 0,
                idx: 0,
            },
        ] {
            let reply = client.request(&frame).expect("reply");
            assert!(
                matches!(
                    &reply,
                    Frame::NegotiationRejected { message }
                        if message.contains("disabled")
                ),
                "frame {frame:?} got {reply:?}"
            );
        }
        server.shutdown();
    }

    #[test]
    fn propose_frame_negotiates_on_an_enabled_session() {
        use crate::negotiate::NegotiationConfig;
        let server = CollabServer::bind_with(
            sensing_dpm(),
            0,
            ServerOptions::default(),
            SessionOptions {
                negotiation: Some(NegotiationConfig::default()),
                ..SessionOptions::default()
            },
        )
        .expect("bind");
        let mut client = CollabClient::connect(server.local_addr()).expect("connect");
        client
            .request(&Frame::Hello { designer: 0 })
            .expect("hello");
        // A conflict-free constraint negotiates to `consistent` directly.
        let reply = client
            .request(&Frame::Propose {
                seq: 0,
                round: 0,
                proposer: 0,
                kind: String::new(),
                constraint: "MeetArea".into(),
                property: String::new(),
                slack: 0.0,
                idx: 0,
            })
            .expect("propose");
        match &reply {
            Frame::Resolved {
                constraint,
                outcome,
                rounds,
                ..
            } => {
                assert_eq!(constraint, "MeetArea");
                assert_eq!(outcome, "consistent");
                assert_eq!(*rounds, 0);
            }
            other => panic!("expected resolved, got {other:?}"),
        }
        // Unknown names error; answer frames stay server-generated.
        let reply = client
            .request(&Frame::Propose {
                seq: 0,
                round: 0,
                proposer: 0,
                kind: String::new(),
                constraint: "NoSuchConstraint".into(),
                property: String::new(),
                slack: 0.0,
                idx: 0,
            })
            .expect("propose");
        assert!(matches!(reply, Frame::Error { .. }));
        let reply = client
            .request(&Frame::Accept {
                seq: 1,
                round: 1,
                designer: 0,
                idx: 0,
            })
            .expect("accept");
        assert!(matches!(
            &reply,
            Frame::NegotiationRejected { message } if message.contains("policies")
        ));
        server.shutdown();
    }

    #[test]
    fn hello_welcome_and_snapshot_over_loopback() {
        let server = serve_sensing();
        let mut client = CollabClient::connect(server.local_addr()).expect("connect");
        let welcome = client
            .request(&Frame::Hello { designer: 0 })
            .expect("hello");
        let Frame::Welcome {
            mode,
            designers,
            properties,
            constraints,
        } = welcome
        else {
            panic!("expected welcome, got {welcome:?}");
        };
        assert_eq!(mode, "adpm");
        assert_eq!(designers, 3);
        assert!(properties > 0 && constraints > 0);
        let (state, props) = client.read_snapshot().expect("snapshot");
        let Frame::State { operations, .. } = state else {
            panic!("expected state, got {state:?}");
        };
        assert_eq!(operations, 0);
        assert_eq!(props.len(), properties as usize);
        server.shutdown();
    }

    /// The batched snapshot reply reads back, line by line on a plain
    /// socket, as `state`, one `prop` per property, then `end`.
    #[test]
    fn batched_snapshot_reply_parses_as_state_props_end() {
        use std::io::BufRead;

        let server = serve_sensing();
        let properties = sensing_dpm().network().property_count();
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut reader = io::BufReader::new(stream.try_clone().expect("clone"));
        (&stream)
            .write_all(Frame::Snapshot.to_line().as_bytes())
            .expect("send");
        let mut next = || {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            Frame::parse_line(line.trim_end()).expect("one frame per line")
        };
        assert!(matches!(next(), Frame::State { operations: 0, .. }));
        let mut names = std::collections::BTreeSet::new();
        for _ in 0..properties {
            let Frame::Prop { name, .. } = next() else {
                panic!("expected one prop frame per property");
            };
            names.insert(name);
        }
        assert_eq!(names.len(), properties);
        assert_eq!(next(), Frame::End);
        server.shutdown();
    }

    /// Every accepted socket has Nagle off, so no reply waits on the
    /// peer's delayed ACK.
    #[test]
    fn accepted_streams_have_nodelay() {
        let server = serve_sensing();
        let mut clients: Vec<_> = (0..3)
            .map(|_| TcpStream::connect(server.local_addr()).expect("connect"))
            .collect();
        for client in &mut clients {
            // A reply proves the server has registered the connection.
            client
                .write_all(Frame::Ping { nonce: 1 }.to_line().as_bytes())
                .expect("ping");
            let mut byte = [0u8; 1];
            client.read_exact(&mut byte).expect("pong");
        }
        let streams = lock(&server.conn_streams);
        assert_eq!(streams.len(), clients.len());
        for stream in streams.values() {
            assert_eq!(stream.nodelay().ok(), Some(true));
        }
        drop(streams);
        server.shutdown();
    }

    #[test]
    fn submit_executes_and_notifies_interested_subscriber() {
        let server = serve_sensing();
        let addr = server.local_addr();

        // Designer 2 (interface-circuit) subscribes.
        let mut watcher = CollabClient::connect(addr).expect("connect watcher");
        let welcome = watcher
            .request(&Frame::Hello { designer: 2 })
            .expect("hello");
        assert!(matches!(welcome, Frame::Welcome { .. }));
        let subscribed = watcher
            .request(&Frame::Subscribe {
                all: false,
                resume_from: None,
            })
            .expect("subscribe");
        assert_eq!(
            subscribed,
            Frame::Subscribed {
                designer: 2,
                last_idx: 0
            }
        );

        // Designer 1 binds a sensor output that shares a cross constraint
        // with the interface circuit; propagation narrows interface
        // properties, which must reach the watcher.
        let mut actor = CollabClient::connect(addr).expect("connect actor");
        actor.request(&Frame::Hello { designer: 1 }).expect("hello");
        let outcome = actor
            .request(&Frame::Submit {
                op: WireOp::Assign {
                    problem: "pressure-sensor".into(),
                    property: "sensor.s-area".into(),
                    value: 4.0,
                },
                cid: None,
            })
            .expect("submit");
        assert!(
            matches!(outcome, Frame::Executed { .. }),
            "expected executed, got {outcome:?}"
        );

        let event = watcher
            .next_event(Duration::from_secs(5))
            .expect("event wait")
            .expect("an interest-filtered event should arrive");
        let Frame::Event { seq, kind, idx, .. } = &event else {
            panic!("expected event, got {event:?}");
        };
        assert_eq!(*seq, 1);
        assert!(*idx >= 1, "delivery indices are 1-based");
        assert!(
            kind == "feasible_reduced" || kind == "violation_detected",
            "unexpected kind {kind}"
        );
        server.shutdown();
    }

    #[test]
    fn protocol_misuse_yields_errors_not_disconnects() {
        let server = serve_sensing();
        let mut client = CollabClient::connect(server.local_addr()).expect("connect");
        // Submit before hello.
        let err = client
            .request(&Frame::Submit {
                op: WireOp::Verify {
                    problem: "sensing-system".into(),
                    constraints: String::new(),
                },
                cid: None,
            })
            .expect("reply");
        assert!(matches!(err, Frame::Error { .. }));
        // Unknown designer.
        let err = client
            .request(&Frame::Hello { designer: 99 })
            .expect("reply");
        assert!(matches!(err, Frame::Error { .. }));
        // Unknown names after a valid hello.
        client
            .request(&Frame::Hello { designer: 0 })
            .expect("hello");
        let err = client
            .request(&Frame::Submit {
                op: WireOp::Assign {
                    problem: "no-such-problem".into(),
                    property: "sensor.s-area".into(),
                    value: 1.0,
                },
                cid: None,
            })
            .expect("reply");
        assert!(matches!(err, Frame::Error { .. }));
        // Malformed line: connection survives, next request works.
        client.send_raw("this is not json\n").expect("send raw");
        let err = client
            .recv(Duration::from_secs(5))
            .expect("recv")
            .expect("frame");
        assert!(matches!(err, Frame::Error { .. }));
        // An unknown tag (here `watch`, which older clients sent): `err`,
        // and the connection stays usable.
        client
            .send_raw("{\"t\":\"watch\",\"interval_ms\":30}\n")
            .expect("send raw");
        let err = client
            .recv(Duration::from_secs(5))
            .expect("recv")
            .expect("frame");
        assert!(
            matches!(&err, Frame::Error { message } if message.contains("unknown frame tag")),
            "{err:?}"
        );
        let welcome = client
            .request(&Frame::Hello { designer: 0 })
            .expect("hello");
        assert!(matches!(welcome, Frame::Welcome { .. }));
        server.shutdown();
    }

    #[test]
    fn client_shutdown_frame_releases_wait() {
        let server = serve_sensing();
        let addr = server.local_addr();
        let waiter = thread::spawn(move || server.wait());
        let mut client = CollabClient::connect(addr).expect("connect");
        client.send(&Frame::Shutdown).expect("send shutdown");
        let bye = client
            .recv(Duration::from_secs(5))
            .expect("recv")
            .expect("frame");
        assert_eq!(bye, Frame::Bye);
        let dpm = waiter.join().expect("wait join").expect("session open");
        assert_eq!(dpm.history().len(), 0);
    }

    /// A submit whose journal append fails closes the session: the
    /// submitter gets an error frame, a subscribed peer gets no event, the
    /// journal holds no operation, and the server still shuts down.
    #[test]
    fn failed_journal_append_closes_the_session_before_any_event() {
        use crate::fault::{DiskFaultInjector, FaultPlan};
        use crate::journal::JournalConfig;
        let dir = std::env::temp_dir().join(format!("adpm-server-failstop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("journal.jsonl");
        std::fs::remove_file(&path).ok();
        let dpm = sensing_dpm();
        let plan: FaultPlan = "seed=3,enospc=1.0".parse().expect("plan");
        let journal = JournalWriter::open(JournalConfig::new(&path), &dpm, None)
            .expect("open journal")
            .with_disk_faults(DiskFaultInjector::new(&plan, 0));
        let session = SessionOptions {
            journal: Some(journal),
            ..SessionOptions::default()
        };
        let server =
            CollabServer::bind_with(dpm, 0, ServerOptions::default(), session).expect("bind");
        let addr = server.local_addr();
        let mut watcher = CollabClient::connect(addr).expect("connect watcher");
        watcher
            .request(&Frame::Hello { designer: 2 })
            .expect("hello");
        let subscribed = watcher
            .request(&Frame::Subscribe {
                all: false,
                resume_from: None,
            })
            .expect("subscribe");
        assert!(
            matches!(subscribed, Frame::Subscribed { .. }),
            "{subscribed:?}"
        );
        let before = std::fs::metadata(&path).expect("journal").len();

        let mut actor = CollabClient::connect(addr).expect("connect actor");
        actor.request(&Frame::Hello { designer: 1 }).expect("hello");
        let reply = assign_s_area(&mut actor, 4.0);
        assert!(matches!(reply, Frame::Error { .. }), "{reply:?}");
        let event = watcher
            .next_event(Duration::from_millis(300))
            .expect("event wait");
        assert_eq!(event, None, "a peer learned of an unjournaled operation");
        assert!(server.shutdown().is_none(), "the session closed");
        assert_eq!(std::fs::metadata(&path).expect("journal").len(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A server whose session closed after a panicking command answers
    /// submits with an error frame and shuts down without panicking.
    #[test]
    fn server_with_a_panicked_session_shuts_down_cleanly() {
        let server = serve_sensing();
        let mut client = CollabClient::connect(server.local_addr()).expect("connect");
        client
            .request(&Frame::Hello { designer: 1 })
            .expect("hello");
        let answer = server
            .handle()
            .read(|_| -> u32 { panic!("a read that panics") });
        assert!(answer.is_err(), "the panic closes the session");
        let reply = assign_s_area(&mut client, 4.0);
        assert!(matches!(reply, Frame::Error { .. }), "{reply:?}");
        assert!(server.shutdown().is_none());
    }

    #[test]
    fn dropped_client_does_not_wedge_the_server() {
        let server = serve_sensing();
        let addr = server.local_addr();
        {
            let mut client = CollabClient::connect(addr).expect("connect");
            client
                .request(&Frame::Hello { designer: 0 })
                .expect("hello");
            client
                .request(&Frame::Subscribe {
                    all: true,
                    resume_from: None,
                })
                .expect("subscribe");
            // Dropped here with an active subscription: the reader thread
            // sees EOF and closes the outbox, and the connection's writer
            // thread must notice that (or the dead socket) and exit.
        }
        let mut client = CollabClient::connect(addr).expect("connect again");
        let welcome = client
            .request(&Frame::Hello { designer: 1 })
            .expect("hello");
        assert!(matches!(welcome, Frame::Welcome { .. }));
        // shutdown() joins every connection thread; a wedged writer would
        // hang the test here.
        server.shutdown();
    }

    #[test]
    fn oversized_line_is_skipped_counted_and_warned() {
        let mut dpm = sensing_dpm();
        let sink = Arc::new(InMemorySink::new());
        dpm.set_sink(sink.clone());
        let server = CollabServer::bind(dpm, 0).expect("bind");
        let mut client = CollabClient::connect(server.local_addr()).expect("connect");
        // A single line far beyond the frame limit: the server must skip
        // to the next newline, count the bytes, and warn us.
        let huge = "x".repeat(crate::wire::MAX_LINE_BYTES + 100);
        client.send_raw(&huge).expect("send oversized");
        client.send_raw("\n").expect("terminate");
        // The connection stays usable.
        let welcome = client
            .request(&Frame::Hello { designer: 0 })
            .expect("hello");
        assert!(matches!(welcome, Frame::Welcome { .. }));
        let warnings = client.take_warnings();
        assert!(
            warnings.iter().any(|w| w.contains("discarded")),
            "expected a resync warning, got {warnings:?}"
        );
        assert!(
            sink.get(Counter::WireBytesSkipped) as usize > crate::wire::MAX_LINE_BYTES,
            "skipped bytes must be counted"
        );
        server.shutdown();
    }

    #[test]
    fn half_open_client_is_detected_and_dropped() {
        let mut dpm = sensing_dpm();
        let sink = Arc::new(InMemorySink::new());
        dpm.set_sink(sink.clone());
        let options = ServerOptions {
            heartbeat: Duration::from_millis(50),
            idle_timeout: Duration::from_millis(250),
            ..ServerOptions::default()
        };
        let server =
            CollabServer::bind_with(dpm, 0, options, SessionOptions::default()).expect("bind");
        // A raw socket that says hello and then goes silent — it never
        // answers pings (a CollabClient would auto-pong).
        let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
        raw.write_all(b"{\"t\":\"hello\",\"designer\":0}\n")
            .expect("hello");
        raw.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        // Drain until the server gives up on us: EOF proves the
        // disconnect; the counter proves it was heartbeat-driven.
        let mut sunk = Vec::new();
        let mut buf = [0u8; 1024];
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match raw.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => sunk.extend_from_slice(&buf[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    assert!(Instant::now() < deadline, "server never dropped us");
                }
                Err(_) => break,
            }
        }
        let text = String::from_utf8_lossy(&sunk);
        assert!(
            text.contains("\"t\":\"ping\""),
            "server must have pinged: {text}"
        );
        assert!(sink.get(Counter::HeartbeatsMissed) >= 1);
        server.shutdown();
    }

    #[test]
    fn resubscribe_with_resume_redelivers_the_gap_exactly_once() {
        let server = serve_sensing();
        let addr = server.local_addr();

        // Watcher subscribes to everything, sees the first bind's events.
        let mut watcher = CollabClient::connect(addr).expect("connect watcher");
        watcher
            .request(&Frame::Hello { designer: 2 })
            .expect("hello");
        let sub = watcher
            .request(&Frame::Subscribe {
                all: true,
                resume_from: None,
            })
            .expect("subscribe");
        assert!(matches!(sub, Frame::Subscribed { last_idx: 0, .. }));

        let mut actor = CollabClient::connect(addr).expect("connect actor");
        actor.request(&Frame::Hello { designer: 1 }).expect("hello");
        let mut assign = |property: &str, value: f64| {
            let outcome = actor
                .request(&Frame::Submit {
                    op: WireOp::Assign {
                        problem: "pressure-sensor".into(),
                        property: property.into(),
                        value,
                    },
                    cid: None,
                })
                .expect("submit");
            assert!(matches!(outcome, Frame::Executed { .. }), "{outcome:?}");
        };
        assign("sensor.s-area", 4.0);
        let mut seen = Vec::new();
        while let Some(Frame::Event { idx, .. }) = watcher
            .next_event(Duration::from_millis(if seen.is_empty() {
                5000
            } else {
                400
            }))
            .expect("event wait")
        {
            seen.push(idx);
        }
        let last_seen = *seen.iter().max().expect("at least one event");

        // Watcher drops; the actor keeps designing (the gap).
        // s-drive couples to interface.i-vref (VrefDrive), so the gap
        // produces events routed to the watching designer.
        drop(watcher);
        assign("sensor.s-drive", 8.0);

        // Reconnect and resume from the last seen index: the gap arrives,
        // nothing before it is repeated.
        let mut watcher = CollabClient::connect(addr).expect("reconnect watcher");
        watcher
            .request(&Frame::Hello { designer: 2 })
            .expect("hello");
        let sub = watcher
            .request(&Frame::Subscribe {
                all: true,
                resume_from: Some(last_seen),
            })
            .expect("resubscribe");
        let Frame::Subscribed { last_idx, .. } = sub else {
            panic!("expected subscribed, got {sub:?}");
        };
        assert!(last_idx > last_seen, "the gap must have advanced the log");
        let mut redelivered = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while (redelivered.len() as u64) < last_idx - last_seen {
            assert!(
                Instant::now() < deadline,
                "gap never arrived: {redelivered:?}"
            );
            if let Some(Frame::Event { idx, .. }) = watcher
                .next_event(Duration::from_millis(200))
                .expect("wait")
            {
                redelivered.push(idx);
            }
        }
        let expected: Vec<u64> = (last_seen + 1..=last_idx).collect();
        assert_eq!(
            redelivered, expected,
            "gap redelivered exactly once, in order"
        );
        server.shutdown();
    }

    #[test]
    fn create_attach_list_and_detach_round_trip() {
        let server = serve_multi(true, &[]);
        let addr = server.local_addr();
        let mut client = CollabClient::connect(addr).expect("connect");
        client
            .request(&Frame::Hello { designer: 0 })
            .expect("hello");

        // Create binds the connection to the new session.
        let created = client
            .request(&Frame::CreateSession {
                name: "alpha".into(),
            })
            .expect("create");
        assert_eq!(
            created,
            Frame::SessionAttached {
                name: "alpha".into(),
                created: true
            }
        );
        // Creating the same name again is an idempotent attach.
        let again = client
            .request(&Frame::CreateSession {
                name: "alpha".into(),
            })
            .expect("re-create");
        assert_eq!(
            again,
            Frame::SessionAttached {
                name: "alpha".into(),
                created: false
            }
        );
        // List sees both sessions, sorted.
        let list = client.request(&Frame::ListSessions).expect("list");
        assert_eq!(
            list,
            Frame::SessionList {
                names: "alpha,default".into(),
                count: 2
            }
        );
        // A second connection attaches to the existing session.
        let mut other = CollabClient::connect(addr).expect("connect other");
        let attached = other
            .request(&Frame::AttachSession {
                name: "alpha".into(),
            })
            .expect("attach");
        assert_eq!(
            attached,
            Frame::SessionAttached {
                name: "alpha".into(),
                created: false
            }
        );
        // Detach returns to the default session.
        let detached = client.request(&Frame::DetachSession).expect("detach");
        assert_eq!(
            detached,
            Frame::SessionAttached {
                name: DEFAULT_SESSION.into(),
                created: false
            }
        );
        assert_eq!(server.session_names(), vec!["alpha", "default"]);
        server.shutdown();
    }

    #[test]
    fn two_sessions_are_fully_isolated() {
        let server = serve_multi(false, &["s1", "s2"]);
        let addr = server.local_addr();

        // Watcher subscribes to *everything* in s2.
        let mut watcher = CollabClient::connect(addr).expect("connect watcher");
        watcher
            .request(&Frame::AttachSession { name: "s2".into() })
            .expect("attach");
        watcher
            .request(&Frame::Hello { designer: 2 })
            .expect("hello");
        watcher
            .request(&Frame::Subscribe {
                all: true,
                resume_from: None,
            })
            .expect("subscribe");

        // An operation in s1 must not produce any event in s2...
        let mut actor = CollabClient::connect(addr).expect("connect actor");
        actor
            .request(&Frame::AttachSession { name: "s1".into() })
            .expect("attach");
        actor.request(&Frame::Hello { designer: 1 }).expect("hello");
        assert!(matches!(
            assign_s_area(&mut actor, 4.0),
            Frame::Executed { .. }
        ));
        assert_eq!(
            watcher
                .next_event(Duration::from_millis(400))
                .expect("wait"),
            None,
            "an operation in s1 leaked an event into s2"
        );

        // ...while the same operation in s2 reaches the watcher, and the
        // sessions' histories stay independent (seq restarts at 1).
        let mut actor2 = CollabClient::connect(addr).expect("connect actor2");
        actor2
            .request(&Frame::AttachSession { name: "s2".into() })
            .expect("attach");
        actor2
            .request(&Frame::Hello { designer: 1 })
            .expect("hello");
        let Frame::Executed { seq, .. } = assign_s_area(&mut actor2, 4.0) else {
            panic!("expected executed");
        };
        assert_eq!(seq, 1, "s2's history is independent of s1's");
        let event = watcher
            .next_event(Duration::from_secs(5))
            .expect("wait")
            .expect("the s2 operation must notify the s2 watcher");
        assert!(matches!(event, Frame::Event { seq: 1, .. }));

        // The default session saw none of it.
        let dpm = server.shutdown().expect("session open");
        assert_eq!(dpm.history().len(), 0);
    }

    #[test]
    fn attach_to_missing_session_yields_typed_reject() {
        let server = serve_multi(false, &[]);
        let mut client = CollabClient::connect(server.local_addr()).expect("connect");
        let reply = client
            .request(&Frame::AttachSession {
                name: "ghost".into(),
            })
            .expect("attach");
        let Frame::AttachRejected { name, reason } = reply else {
            panic!("expected attach_rejected, got {reply:?}");
        };
        assert_eq!(name, "ghost");
        assert!(reason.contains("unknown session"), "reason: {reason}");
        // Creation is disabled on this server, so `create` rejects too.
        let reply = client
            .request(&Frame::CreateSession {
                name: "ghost".into(),
            })
            .expect("create");
        assert!(matches!(reply, Frame::AttachRejected { .. }), "{reply:?}");
        // Invalid names are rejected before touching the registry.
        let reply = client
            .request(&Frame::CreateSession {
                name: "no/slashes".into(),
            })
            .expect("create");
        assert!(matches!(reply, Frame::AttachRejected { .. }), "{reply:?}");
        // The connection survives and stays bound to the default session.
        let welcome = client
            .request(&Frame::Hello { designer: 0 })
            .expect("hello");
        assert!(matches!(welcome, Frame::Welcome { .. }));
        server.shutdown();
    }

    #[test]
    fn concurrent_creates_of_same_name_yield_exactly_one_session() {
        let mut dpm = sensing_dpm();
        let sink = Arc::new(InMemorySink::new());
        dpm.set_sink(sink.clone());
        let factory: SessionFactory =
            Box::new(|_name| Ok((sensing_dpm(), SessionOptions::default())));
        let server = CollabServer::bind_registry(
            dpm,
            0,
            ServerOptions {
                allow_create: true,
                ..ServerOptions::default()
            },
            SessionOptions::default(),
            Some(factory),
            &[],
        )
        .expect("bind");
        let addr = server.local_addr();
        let workers: Vec<_> = (0..8)
            .map(|_| {
                thread::spawn(move || {
                    let mut client = CollabClient::connect(addr).expect("connect");
                    let reply = client
                        .request(&Frame::CreateSession {
                            name: "shared".into(),
                        })
                        .expect("create");
                    match reply {
                        Frame::SessionAttached { created, .. } => created,
                        other => panic!("expected session frame, got {other:?}"),
                    }
                })
            })
            .collect();
        let created: usize = workers
            .into_iter()
            .map(|w| usize::from(w.join().expect("join")))
            .sum();
        assert_eq!(created, 1, "exactly one create must win the race");
        assert_eq!(server.session_names(), vec!["default", "shared"]);
        assert_eq!(sink.get(Counter::SessionsCreated), 1);
        assert_eq!(sink.get(Counter::SessionsActive), 2);
        server.shutdown();
    }

    #[test]
    fn connection_churn_keeps_registries_bounded() {
        let server = serve_sensing();
        let addr = server.local_addr();
        for _ in 0..40 {
            let mut client = CollabClient::connect(addr).expect("connect");
            client
                .request(&Frame::Hello { designer: 0 })
                .expect("hello");
            // Dropped here: the worker sees EOF and must deregister itself.
        }
        // One more connection triggers the accept loop's reap of finished
        // workers; poll until the registries settle.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut client = CollabClient::connect(addr).expect("connect");
            client
                .request(&Frame::Hello { designer: 0 })
                .expect("hello");
            drop(client);
            let (streams, threads) = server.connection_counts();
            if streams <= 4 && threads <= 4 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "connection registries never shrank: {streams} streams, {threads} threads \
                 after 40 churned connections"
            );
            thread::sleep(Duration::from_millis(50));
        }
        server.shutdown();
    }

    #[test]
    fn duplicate_cid_is_answered_without_reexecution() {
        let server = serve_sensing();
        let mut client = CollabClient::connect(server.local_addr()).expect("connect");
        client
            .request(&Frame::Hello { designer: 1 })
            .expect("hello");
        let submit = Frame::Submit {
            op: WireOp::Assign {
                problem: "pressure-sensor".into(),
                property: "sensor.s-area".into(),
                value: 4.0,
            },
            cid: Some(77),
        };
        let first = client.request(&submit).expect("first submit");
        let Frame::Executed { seq, cid, .. } = first else {
            panic!("expected executed, got {first:?}");
        };
        assert_eq!(cid, Some(77));
        // The retry (same cid) gets the remembered outcome — same seq, no
        // second history entry.
        let second = client.request(&submit).expect("retried submit");
        let Frame::Executed { seq: seq2, cid, .. } = second else {
            panic!("expected executed, got {second:?}");
        };
        assert_eq!(cid, Some(77));
        assert_eq!(seq2, seq);
        let dpm = server.shutdown().expect("session open");
        assert_eq!(dpm.history().len(), 1, "the operation ran exactly once");
    }

    /// Sends `frame` and collects every reply frame up to (excluding) the
    /// terminating `end`.
    fn read_batch(client: &mut CollabClient, frame: &Frame) -> Vec<Frame> {
        client.send(frame).expect("send");
        let mut frames = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            match client.recv(Duration::from_millis(100)).expect("recv") {
                Some(Frame::End) => return frames,
                Some(frame) => frames.push(frame),
                None => {}
            }
        }
        panic!("no `end` frame arrived; got {frames:?}");
    }

    #[test]
    fn stats_one_shot_reports_session_counters() {
        let server = serve_sensing();
        let mut client = CollabClient::connect(server.local_addr()).expect("connect");
        client
            .request(&Frame::Hello { designer: 1 })
            .expect("hello");
        assert!(matches!(
            assign_s_area(&mut client, 4.0),
            Frame::Executed { .. }
        ));
        assert!(matches!(
            assign_s_area(&mut client, 5.0),
            Frame::Executed { .. }
        ));
        let frames = read_batch(&mut client, &Frame::Stats { all: false });
        assert_eq!(
            frames.len(),
            1,
            "one attached session, one reply: {frames:?}"
        );
        let Frame::StatsReply {
            session,
            connections,
            counters,
            events,
            p50_us,
            p99_us,
            ..
        } = &frames[0]
        else {
            panic!("expected stats_reply, got {:?}", frames[0]);
        };
        assert_eq!(session, DEFAULT_SESSION);
        assert_eq!(*connections, 1);
        assert_eq!(counters.get(Counter::SessionOps), 2);
        assert!(counters.get(Counter::Operations) >= 2);
        assert!(*events > 0, "session commands emit trace events");
        assert!(p99_us >= p50_us);
        // The wire-reported counters reconcile with the server's own hub.
        let hub_snapshot = server
            .metrics_hub()
            .snapshot(DEFAULT_SESSION)
            .expect("hub entry");
        assert_eq!(**counters, hub_snapshot.counters);
        server.shutdown();
    }

    #[test]
    fn stats_all_scope_is_an_operator_privilege() {
        let server = serve_multi(false, &["s1"]);
        let addr = server.local_addr();

        // Attached to a named session: own stats fine, `all` rejected.
        let mut member = CollabClient::connect(addr).expect("connect");
        let attached = member
            .request(&Frame::AttachSession { name: "s1".into() })
            .expect("attach");
        assert!(matches!(attached, Frame::SessionAttached { .. }));
        let denied = member.request(&Frame::Stats { all: true }).expect("reply");
        assert!(
            matches!(denied, Frame::Error { .. }),
            "expected a privilege error, got {denied:?}"
        );
        let own = read_batch(&mut member, &Frame::Stats { all: false });
        assert_eq!(own.len(), 1);
        assert!(
            matches!(&own[0], Frame::StatsReply { session, connections, .. }
                if session == "s1" && *connections == 1)
        );

        // Attached to the default session: `all` covers every session
        // plus the rollup.
        let mut operator = CollabClient::connect(addr).expect("connect");
        let frames = read_batch(&mut operator, &Frame::Stats { all: true });
        let sessions: Vec<&str> = frames
            .iter()
            .map(|f| match f {
                Frame::StatsReply { session, .. } => session.as_str(),
                other => panic!("expected stats_reply, got {other:?}"),
            })
            .collect();
        assert_eq!(sessions, vec!["default", "s1", ROLLUP_SESSION]);
        server.shutdown();
    }

    /// A sensing server counting into an in-memory sink.
    fn serve_sensing_counted(options: ServerOptions) -> (CollabServer, Arc<InMemorySink>) {
        let mut dpm = sensing_dpm();
        let sink = Arc::new(InMemorySink::new());
        dpm.set_sink(sink.clone());
        let server =
            CollabServer::bind_with(dpm, 0, options, SessionOptions::default()).expect("bind");
        (server, sink)
    }

    /// A client of `designer` that has said hello and subscribed.
    fn subscribed(addr: SocketAddr, designer: u32) -> CollabClient {
        let mut client = CollabClient::connect(addr).expect("connect");
        client.request(&Frame::Hello { designer }).expect("hello");
        let subscribed = client
            .request(&Frame::Subscribe {
                all: false,
                resume_from: None,
            })
            .expect("subscribe");
        assert!(
            matches!(subscribed, Frame::Subscribed { .. }),
            "{subscribed:?}"
        );
        client
    }

    /// Designer 1 moves the sensor area and designer 2 the interface area;
    /// both appear in `MeetArea`, so each one's assigns reach the other.
    fn assign_area(client: &mut CollabClient, designer: u32, round: usize) -> Frame {
        let (problem, property, values) = if designer == 1 {
            ("pressure-sensor", "sensor.s-area", [4.0, 5.0])
        } else {
            ("interface-circuit", "interface.i-area", [1.0, 1.5])
        };
        client
            .request(&Frame::Submit {
                op: WireOp::Assign {
                    problem: problem.into(),
                    property: property.into(),
                    value: values[round % 2],
                },
                cid: None,
            })
            .expect("submit")
    }

    /// The reader writes a submit's verdict behind the events the
    /// operation routed to the submitter's own designer.
    #[test]
    fn submitters_own_events_arrive_before_its_executed_frame() {
        let server = serve_sensing();
        let mut client = subscribed(server.local_addr(), 1);
        client
            .send(&Frame::Submit {
                op: WireOp::Assign {
                    problem: "pressure-sensor".into(),
                    property: "sensor.s-area".into(),
                    value: 4.0,
                },
                cid: Some(1),
            })
            .expect("submit");
        let mut events = 0;
        loop {
            match client.recv(Duration::from_secs(5)).expect("recv") {
                Some(Frame::Event { seq, .. }) => {
                    assert_eq!(seq, 1);
                    events += 1;
                }
                Some(Frame::Executed { seq, .. }) => {
                    assert_eq!(seq, 1);
                    break;
                }
                other => panic!("expected events then the verdict, got {other:?}"),
            }
        }
        assert!(events > 0, "the assign routes events to its own designer");
        assert_eq!(
            client.recv(Duration::from_millis(200)).expect("recv"),
            None,
            "nothing of the operation follows its verdict"
        );
        server.shutdown();
    }

    /// A peer whose reader sits in `read` gets its events from the writer
    /// thread: every one arrives well inside the 10 s heartbeat, which
    /// would be the first thing to flush an inbox whose wake-up was lost.
    #[test]
    fn idle_peer_receives_every_event_while_another_connection_submits() {
        let (server, sink) = serve_sensing_counted(ServerOptions::default());
        let addr = server.local_addr();
        let mut peer = subscribed(addr, 2);
        let actor = thread::spawn(move || {
            let mut client = CollabClient::connect(addr).expect("connect");
            client
                .request(&Frame::Hello { designer: 1 })
                .expect("hello");
            for round in 0..100 {
                let verdict = assign_area(&mut client, 1, round);
                assert!(matches!(verdict, Frame::Executed { .. }), "{verdict:?}");
            }
        });
        let mut seen = Vec::new();
        let mut deadline = None;
        loop {
            if deadline.is_none() && actor.is_finished() {
                deadline = Some(Instant::now() + Duration::from_secs(3));
            }
            let delivered = sink.get(Counter::InboxDelivered);
            if deadline.is_some() && seen.len() as u64 == delivered {
                break;
            }
            assert!(
                deadline.is_none_or(|at| Instant::now() < at),
                "{} of {delivered} routed events reached the idle peer",
                seen.len()
            );
            if let Some(Frame::Event { idx, .. }) = peer
                .next_event(Duration::from_millis(20))
                .expect("event wait")
            {
                seen.push(idx);
            }
        }
        actor.join().expect("actor");
        assert!(!seen.is_empty(), "the actor's assigns reach designer 2");
        assert_eq!(sink.get(Counter::InboxDropped), 0);
        let expected: Vec<u64> = (1..=seen.len() as u64).collect();
        assert_eq!(seen, expected, "every event once, in routing order");
        server.shutdown();
    }

    /// Two designers submit concurrently: each one's events leave with its
    /// own replies or from its writer thread, and together they are
    /// exactly the events the session delivered into their inboxes.
    #[test]
    fn concurrent_submitters_receive_every_delivered_event() {
        let (server, sink) = serve_sensing_counted(ServerOptions::default());
        let addr = server.local_addr();
        // Both subscribe before either submits, so each sees its
        // designer's events from the first.
        let clients = [(1, subscribed(addr, 1)), (2, subscribed(addr, 2))];
        let workers: Vec<_> = clients
            .into_iter()
            .map(|(designer, mut client)| {
                thread::spawn(move || {
                    for round in 0..60 {
                        let verdict = assign_area(&mut client, designer, round);
                        assert!(matches!(verdict, Frame::Executed { .. }), "{verdict:?}");
                    }
                    client
                })
            })
            .collect();
        let mut clients: Vec<CollabClient> = workers
            .into_iter()
            .map(|worker| worker.join().expect("worker"))
            .collect();
        let delivered = sink.get(Counter::InboxDelivered);
        let mut received = vec![Vec::new(); clients.len()];
        let deadline = Instant::now() + Duration::from_secs(3);
        while received.iter().map(Vec::len).sum::<usize>() < delivered as usize {
            assert!(
                Instant::now() < deadline,
                "{received:?} of {delivered} delivered events arrived"
            );
            for (client, seen) in clients.iter_mut().zip(&mut received) {
                if let Some(Frame::Event { idx, .. }) =
                    client.next_event(Duration::from_millis(10)).expect("wait")
                {
                    seen.push(idx);
                }
            }
        }
        assert_eq!(sink.get(Counter::InboxDropped), 0);
        for seen in &received {
            assert!(!seen.is_empty(), "each designer's assigns reach the other");
            let expected: Vec<u64> = (1..=seen.len() as u64).collect();
            assert_eq!(seen, &expected, "every event once, in routing order");
        }
        for client in &mut clients {
            assert_eq!(
                client.next_event(Duration::from_millis(100)).expect("wait"),
                None,
                "no event beyond the delivered count"
            );
        }
        server.shutdown();
    }

    /// A fault-plan kill on a reply the reader writes ends the connection:
    /// the peer reads end of stream and the server deregisters it.
    #[test]
    fn kill_during_a_reader_written_reply_closes_the_connection() {
        let options = ServerOptions {
            fault_plan: Some("seed=1,kill=2".parse().expect("plan")),
            ..ServerOptions::default()
        };
        let (server, _) = serve_sensing_counted(options);
        let mut client = CollabClient::connect(server.local_addr()).expect("connect");
        let welcome = client
            .request(&Frame::Hello { designer: 0 })
            .expect("first reply");
        assert!(matches!(welcome, Frame::Welcome { .. }), "{welcome:?}");
        // The second outgoing frame is the scripted kill.
        client.send(&Frame::Hello { designer: 0 }).expect("send");
        assert!(
            client.recv(Duration::from_secs(5)).is_err(),
            "the killed connection must end, not time out"
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.connection_counts().0 > 0 {
            assert!(
                Instant::now() < deadline,
                "the server kept the killed connection"
            );
            thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
    }

    #[test]
    fn backlogged_subscriber_is_evicted_by_queue_age() {
        let mut dpm = sensing_dpm();
        let sink = Arc::new(InMemorySink::new());
        dpm.set_sink(sink.clone());
        let assign = |value: f64| {
            let op = WireOp::Assign {
                problem: "pressure-sensor".into(),
                property: "sensor.s-area".into(),
                value,
            };
            NameTable::build(&dpm)
                .resolve_operation(DesignerId::new(1), op)
                .expect("names")
        };
        let operations = [assign(4.0), assign(5.0)];
        // Every line to every wire client crawls out 20 ms late.
        let options = ServerOptions {
            fault_plan: Some("seed=1,delay=1.0:20ms".parse().expect("plan")),
            max_queue_age: Duration::from_millis(100),
            ..ServerOptions::default()
        };
        let server =
            CollabServer::bind_with(dpm, 0, options, SessionOptions::default()).expect("bind");
        let mut subscriber = CollabClient::connect(server.local_addr()).expect("connect");
        subscriber
            .request(&Frame::Hello { designer: 2 })
            .expect("hello");
        subscriber
            .request(&Frame::Subscribe {
                all: true,
                resume_from: None,
            })
            .expect("subscribe");
        // The actor runs in process: over the wire its own replies would be
        // delayed as much as the subscriber's events.
        let handle = server.handle();
        let mut operations = operations.iter().cycle();
        let mut design = || {
            let operation = operations.next().expect("endless cycle").clone();
            handle.submit(operation).expect("session alive");
            thread::sleep(Duration::from_millis(2));
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while sink.get(Counter::OverloadSheds) == 0 {
            assert!(
                Instant::now() < deadline,
                "the subscriber was never evicted"
            );
            design();
        }
        // Keep designing a while: the evicted subscription sheds no more.
        let until = Instant::now() + Duration::from_millis(200);
        while Instant::now() < until {
            design();
        }
        assert_eq!(sink.get(Counter::OverloadSheds), 1);
        server.shutdown();
    }

    #[test]
    fn dump_streams_the_flight_recorder() {
        let server = serve_sensing();
        let mut client = CollabClient::connect(server.local_addr()).expect("connect");
        client
            .request(&Frame::Hello { designer: 1 })
            .expect("hello");
        assert!(matches!(
            assign_s_area(&mut client, 4.0),
            Frame::Executed { .. }
        ));
        let frames = read_batch(&mut client, &Frame::Dump);
        let Frame::DumpReply {
            session,
            count,
            recorded,
        } = &frames[0]
        else {
            panic!("expected dump_reply, got {:?}", frames[0]);
        };
        assert_eq!(session, DEFAULT_SESSION);
        assert!(*count > 0, "the submit left trace events in the ring");
        assert!(*recorded >= u64::from(*count));
        assert_eq!(frames.len(), 1 + *count as usize);
        let mut last_idx = 0;
        for frame in &frames[1..] {
            let Frame::Flight { idx, line } = frame else {
                panic!("expected flight, got {frame:?}");
            };
            assert!(*idx > last_idx, "flight events arrive oldest-first");
            last_idx = *idx;
            assert!(line.contains("\"t\":"), "ring lines are trace JSON: {line}");
        }
        // The in-process accessor sees the same ring (which may have
        // grown since the dump — the session keeps recording).
        let recorder = server.flight_recorder(DEFAULT_SESSION).expect("recorder");
        assert!(recorder.len() >= *count as usize);
        server.shutdown();
    }

    /// A chain `x0 <= x1 <= … <= xN` of more constraints than the flight
    /// recorder holds, so one propagation touches more constraints than
    /// the ring has room for.
    fn chain_dpm(constraints: usize) -> DesignProcessManager {
        let mut source = String::from("object chain {\n");
        for i in 0..=constraints {
            source.push_str(&format!("    property x{i} : interval(0, 100);\n"));
        }
        source.push_str("}\n");
        let names: Vec<String> = (0..constraints).map(|i| format!("c{i}")).collect();
        for (i, name) in names.iter().enumerate() {
            source.push_str(&format!(
                "constraint {name}: chain.x{i} <= chain.x{};\n",
                i + 1
            ));
        }
        source.push_str(&format!(
            "problem chain {{ outputs: chain.x0, chain.x100, chain.x200; \
             constraints: {}; designer 0; }}\n",
            names.join(", ")
        ));
        let scenario = adpm_dddl::compile_source(&source).expect("chain compiles");
        let mut dpm = scenario.build_dpm(SimulationConfig::adpm(7).dpm_config());
        dpm.initialize();
        dpm
    }

    #[test]
    fn dump_keeps_whole_operations_on_a_large_network() {
        let constraints = DEFAULT_FLIGHT_CAPACITY + 44;
        let server = CollabServer::bind(chain_dpm(constraints), 0).expect("bind");
        let mut client = CollabClient::connect(server.local_addr()).expect("connect");
        client
            .request(&Frame::Hello { designer: 0 })
            .expect("hello");
        let mut executed = Vec::new();
        for (property, value) in [
            ("chain.x0", 10.0),
            ("chain.x100", 50.0),
            ("chain.x200", 60.0),
        ] {
            let reply = client
                .request(&Frame::Submit {
                    op: WireOp::Assign {
                        problem: "chain".into(),
                        property: property.into(),
                        value,
                    },
                    cid: None,
                })
                .expect("submit");
            let Frame::Executed {
                seq, evaluations, ..
            } = reply
            else {
                panic!("expected executed, got {reply:?}");
            };
            executed.push(seq);
            assert!(evaluations > 100, "each assign propagates along the chain");
        }
        let frames = read_batch(&mut client, &Frame::Dump);
        let lines: Vec<&str> = frames[1..]
            .iter()
            .map(|frame| match frame {
                Frame::Flight { line, .. } => line.as_str(),
                other => panic!("expected flight, got {other:?}"),
            })
            .collect();
        let trace = adpm_observe::parse_trace(&lines.join("\n")).expect("ring lines parse");
        for seq in &executed {
            assert!(
                trace
                    .iter()
                    .any(|l| l.tag() == "op" && l.u64_field("seq") == Some(*seq)),
                "the ring lost the `op` line of operation {seq}"
            );
        }
        let submits = trace
            .iter()
            .filter(|l| l.tag() == "session" && l.str_field("kind") == Some("submit"))
            .count();
        assert_eq!(submits, executed.len(), "one `session` line per submit");
        assert!(
            trace
                .iter()
                .all(|l| l.tag() != "cprof" && l.tag() != "pprof"),
            "profile lines stay out of the ring"
        );
        server.shutdown();
    }

    #[test]
    fn profiles_reach_a_trace_writer_but_not_the_flight_recorder() {
        let dir = std::env::temp_dir().join("adpm-collab-server-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join(format!("profiles-{:?}.jsonl", std::thread::current().id()));
        let trace = Arc::new(adpm_observe::JsonlSink::create(&path).expect("trace file"));
        let mut dpm = sensing_dpm();
        dpm.set_sink(Arc::new(TeeSink::new(vec![
            trace.clone() as Arc<dyn MetricsSink>
        ])));
        let server =
            CollabServer::bind_with(dpm, 0, ServerOptions::default(), SessionOptions::default())
                .expect("bind");
        let mut client = CollabClient::connect(server.local_addr()).expect("connect");
        client
            .request(&Frame::Hello { designer: 1 })
            .expect("hello");
        for value in [4.0, 5.0, 6.0] {
            assert!(matches!(
                assign_s_area(&mut client, value),
                Frame::Executed { .. }
            ));
        }
        let recorder = server.flight_recorder(DEFAULT_SESSION).expect("recorder");
        server.shutdown();
        let dump = recorder.dump();
        let ring = adpm_observe::parse_trace(&dump.join("\n")).expect("ring parses");
        assert_eq!(ring.iter().filter(|l| l.tag() == "op").count(), 3);
        assert!(
            ring.iter()
                .all(|l| l.tag() != "cprof" && l.tag() != "pprof"),
            "profile lines stay out of the ring"
        );
        trace.finish().expect("flush trace");
        let text = std::fs::read_to_string(&path).expect("read trace");
        std::fs::remove_file(&path).ok();
        let lines = adpm_observe::parse_trace(&text).expect("trace parses");
        // The ring renders at dump what the writer rendered at record:
        // every dumped line is the writer's line, byte for byte.
        let written: Vec<&str> = text
            .lines()
            .zip(&lines)
            .filter(|(_, l)| !matches!(l.tag(), "cprof" | "pprof" | "counters"))
            .map(|(line, _)| line)
            .collect();
        assert!(dump.len() < recorder.capacity(), "the ring kept everything");
        assert_eq!(dump, written);
        let cprof: u64 = lines
            .iter()
            .filter(|l| l.tag() == "cprof")
            .map(|l| l.u64_field("evaluations").expect("evaluations field"))
            .sum();
        assert!(
            lines.iter().any(|l| l.tag() == "pprof"),
            "narrowings are profiled"
        );
        let counters = lines.last().expect("non-empty trace");
        assert_eq!(counters.tag(), "counters");
        assert_eq!(Some(cprof), counters.u64_field("evaluations"));
    }

    #[test]
    fn scrape_listener_serves_a_parseable_exposition() {
        let options = ServerOptions {
            metrics_addr: Some("127.0.0.1:0".parse().expect("addr")),
            ..ServerOptions::default()
        };
        let server = CollabServer::bind_with(sensing_dpm(), 0, options, SessionOptions::default())
            .expect("bind");
        let scrape_addr = server.metrics_addr().expect("metrics listener");
        let mut client = CollabClient::connect(server.local_addr()).expect("connect");
        client
            .request(&Frame::Hello { designer: 1 })
            .expect("hello");
        assert!(matches!(
            assign_s_area(&mut client, 4.0),
            Frame::Executed { .. }
        ));

        let mut body = String::new();
        let mut scrape = TcpStream::connect(scrape_addr).expect("connect scrape");
        scrape.read_to_string(&mut body).expect("read scrape");
        let parsed = adpm_observe::parse_exposition(&body);
        assert!(parsed.contains_key(DEFAULT_SESSION), "sessions are labeled");
        assert!(
            parsed.contains_key(ROLLUP_SESSION),
            "the rollup is labeled `*`"
        );
        assert_eq!(parsed[DEFAULT_SESSION].get(Counter::SessionOps), 1);
        assert!(
            parsed[ROLLUP_SESSION].get(Counter::SessionOps)
                >= parsed[DEFAULT_SESSION].get(Counter::SessionOps)
        );
        // The scrape reconciles with the hub the server feeds.
        let hub_snapshot = server.metrics_hub().snapshot(DEFAULT_SESSION).expect("hub");
        assert_eq!(parsed[DEFAULT_SESSION], hub_snapshot.counters);
        server.shutdown();
    }

    #[test]
    fn submits_over_the_inflight_cap_get_a_typed_overloaded_frame() {
        // Cap zero makes every submit "over the cap" deterministically —
        // no need to race enough concurrent clients to fill a real limit.
        let options = ServerOptions {
            max_inflight: 0,
            ..ServerOptions::default()
        };
        let server = CollabServer::bind_with(sensing_dpm(), 0, options, SessionOptions::default())
            .expect("bind");
        let mut client = CollabClient::connect(server.local_addr()).expect("connect");
        client
            .request(&Frame::Hello { designer: 0 })
            .expect("hello");
        let reply = client
            .request(&Frame::Submit {
                op: WireOp::Assign {
                    problem: "pressure-sensor".into(),
                    property: "sensor.s-area".into(),
                    value: 4.0,
                },
                cid: Some(9),
            })
            .expect("submit");
        assert_eq!(
            reply,
            Frame::Overloaded {
                retry_after_ms: RETRY_AFTER_MS,
                cid: Some(9),
            },
            "a shed submit echoes the cid and the server's backoff"
        );
        // The design state is untouched: a snapshot still reports zero
        // operations, so a retry later cannot double-execute.
        client.send(&Frame::Snapshot).expect("send snapshot");
        let (state, _) = client.read_snapshot().expect("snapshot");
        assert!(matches!(state, Frame::State { operations: 0, .. }));
        server.shutdown();
    }

    #[test]
    fn session_create_past_the_session_cap_is_rejected() {
        let options = ServerOptions {
            allow_create: true,
            max_sessions: 1, // the default session fills the registry
            ..ServerOptions::default()
        };
        let factory: SessionFactory =
            Box::new(|_name| Ok((sensing_dpm(), SessionOptions::default())));
        let server = CollabServer::bind_registry(
            sensing_dpm(),
            0,
            options,
            SessionOptions::default(),
            Some(factory),
            &[],
        )
        .expect("bind registry");
        let mut client = CollabClient::connect(server.local_addr()).expect("connect");
        let reply = client
            .request(&Frame::CreateSession {
                name: "extra".into(),
            })
            .expect("create");
        let Frame::AttachRejected { name, reason } = reply else {
            panic!("expected attach_rejected, got {reply:?}");
        };
        assert_eq!(name, "extra");
        assert!(reason.contains("session limit"), "reason: {reason}");
        server.shutdown();
    }

    #[test]
    fn attach_to_a_full_session_is_rejected() {
        let options = ServerOptions {
            max_clients_per_session: 1,
            ..ServerOptions::default()
        };
        let factory: SessionFactory =
            Box::new(|_name| Ok((sensing_dpm(), SessionOptions::default())));
        let server = CollabServer::bind_registry(
            sensing_dpm(),
            0,
            options,
            SessionOptions::default(),
            Some(factory),
            &["s1".to_owned()],
        )
        .expect("bind registry");
        let mut first = CollabClient::connect(server.local_addr()).expect("connect");
        assert!(matches!(
            first
                .request(&Frame::AttachSession { name: "s1".into() })
                .expect("attach"),
            Frame::SessionAttached { .. }
        ));
        let mut second = CollabClient::connect(server.local_addr()).expect("connect");
        let reply = second
            .request(&Frame::AttachSession { name: "s1".into() })
            .expect("attach");
        let Frame::AttachRejected { reason, .. } = reply else {
            panic!("expected attach_rejected, got {reply:?}");
        };
        assert!(reason.contains("full"), "reason: {reason}");
        server.shutdown();
    }
}
