//! A self-healing wrapper around [`CollabClient`]: reconnect with capped
//! exponential backoff, exactly-once resubmission, and subscription
//! resume.
//!
//! The plain client treats every transport hiccup as the caller's
//! problem. [`ResilientClient`] instead classifies failures with
//! [`CollabError`]: *retryable* ones (dead socket, timeout) trigger an
//! automatic reconnect — capped exponential backoff with seeded jitter —
//! followed by a transparent retry of the interrupted exchange; *fatal*
//! ones (protocol misuse, invalid operations) surface immediately.
//!
//! Two protocol features make the retries safe:
//!
//! - **Client operation ids.** Every submission carries a fresh `cid`.
//!   If the response is lost, the resubmission after reconnect presents
//!   the same `cid` and the session answers from its dedup window instead
//!   of executing twice — at-most-once execution, at-least-once delivery,
//!   so exactly-once effect. The session remembers `cid`s per designer,
//!   and several clients may act as one designer, so no two clients may
//!   share a `cid`: ids come from one process-wide counter, with the
//!   process id in their high bits.
//! - **Subscription resume.** The client remembers the highest delivery
//!   index it has seen; on reconnect it resubscribes with
//!   `resume_from = last_seen` and the server redelivers exactly the gap.
//!   Duplicates that slip through anyway (e.g. a fault plan duplicating
//!   frames) are dropped by an index check in
//!   [`next_event`](ResilientClient::next_event).

use crate::client::CollabClient;
use crate::error::CollabError;
use crate::fault::{FaultInjector, FaultPlan};
use crate::wire::{Frame, WireError, WireOp};
use adpm_observe::{Counter, MetricsSink, SpanKind, TraceEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bits of a `cid` below the process's pid: the process-wide count of
/// submissions.
const CID_COUNT_BITS: u32 = 31;

/// Bits of the pid a `cid` carries. 22 bits hold every Linux pid
/// (`PID_MAX_LIMIT` is 2²²), and 22 + [`CID_COUNT_BITS`] = 53 keeps every
/// `cid` an integer an `f64` holds exactly: the wire parses numbers as
/// `f64`, and a rounded `cid` would make the client discard its own verdict.
const CID_PID_BITS: u32 = 22;

/// A fresh client operation id, never handed to another client.
///
/// A session deduplicates per `(designer, cid)`, and every client that
/// says `hello` as the same designer shares that window. So a `cid` is
/// drawn from one process-wide counter, not per client: two clients of one
/// process never share one. The process id in the high bits keeps clients
/// of different processes apart. The count wraps after 2³¹ submissions of
/// one process, far beyond any dedup window.
fn next_cid() -> u64 {
    static SUBMITTED: AtomicU64 = AtomicU64::new(0);
    let count = SUBMITTED.fetch_add(1, Ordering::Relaxed) + 1;
    let pid = u64::from(std::process::id()) & ((1 << CID_PID_BITS) - 1);
    (pid << CID_COUNT_BITS) | (count & ((1 << CID_COUNT_BITS) - 1))
}

/// Reconnect/backoff policy for a [`ResilientClient`].
#[derive(Debug, Clone)]
pub struct ReconnectConfig {
    /// Attempts per exchange before giving up (connect + retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Backoff ceiling for the exponential schedule.
    pub max_backoff: Duration,
    /// How long one submission waits for its verdict before the exchange
    /// is declared lost and retried (possibly over a reconnect).
    pub request_timeout: Duration,
    /// Seed for the jitter RNG (deterministic retry schedules in tests).
    pub seed: u64,
}

impl Default for ReconnectConfig {
    fn default() -> Self {
        ReconnectConfig {
            max_attempts: 6,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            request_timeout: Duration::from_secs(30),
            seed: 0,
        }
    }
}

impl ReconnectConfig {
    /// The jittered backoff before retry `attempt` (1-based): the capped
    /// exponential `base * 2^(attempt-1)` scaled by a factor drawn
    /// uniformly from `[0.5, 1.5)`.
    fn backoff(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.max_backoff);
        exp.mul_f64(rng.gen_range(0.5..1.5))
    }
}

/// A [`CollabClient`] that survives connection loss.
pub struct ResilientClient {
    addr: SocketAddr,
    designer: u32,
    config: ReconnectConfig,
    rng: StdRng,
    client: Option<CollabClient>,
    /// Whether the client has subscribed (and so re-subscribes on every
    /// reconnect).
    subscribed: bool,
    /// Highest event delivery index seen (0 = none) — the resume cursor.
    last_seen_idx: u64,
    /// Named session to bind to on every (re)connection; `None` stays in
    /// the server's default session.
    session: Option<String>,
    /// Total reconnects performed.
    reconnects: u64,
    /// Connections opened so far (fault injector stream selector).
    connections: u64,
    fault_plan: Option<FaultPlan>,
    sink: Option<Arc<dyn MetricsSink>>,
}

impl std::fmt::Debug for ResilientClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientClient")
            .field("addr", &self.addr)
            .field("designer", &self.designer)
            .field("last_seen_idx", &self.last_seen_idx)
            .field("reconnects", &self.reconnects)
            .finish_non_exhaustive()
    }
}

impl ResilientClient {
    /// Connects and performs the hello handshake as `designer`.
    ///
    /// # Errors
    ///
    /// [`CollabError::Retryable`] when the server stayed unreachable
    /// through every attempt; [`CollabError::Fatal`] when it answered the
    /// hello with an error (e.g. unknown designer).
    pub fn connect(
        addr: SocketAddr,
        designer: u32,
        config: ReconnectConfig,
    ) -> Result<ResilientClient, CollabError> {
        let rng = StdRng::seed_from_u64(config.seed);
        let mut client = ResilientClient {
            addr,
            designer,
            config,
            rng,
            client: None,
            subscribed: false,
            last_seen_idx: 0,
            session: None,
            reconnects: 0,
            connections: 0,
            fault_plan: None,
            sink: None,
        };
        // The initial connect gets the same retry budget as a reconnect:
        // under fault injection even the handshake can be lost in transit.
        client.with_retries(|_, _| Ok(()))?;
        Ok(client)
    }

    /// Counts reconnects and emits `reconnect` spans/events into `sink`.
    pub fn with_sink(mut self, sink: Arc<dyn MetricsSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Binds every (re)connection to the named session (via a `create`
    /// frame, so the session comes into being on servers that allow
    /// dynamic creation and is an idempotent attach everywhere else).
    /// Reattachment happens transparently on reconnect, *before* the
    /// subscription is re-established, so gap redelivery stays scoped to
    /// the named session's event log.
    ///
    /// # Errors
    ///
    /// [`CollabError::Fatal`] when the server refuses the session (a typed
    /// `attach_rejected`).
    pub fn with_session(mut self, name: impl Into<String>) -> Result<Self, CollabError> {
        self.session = Some(name.into());
        // Rebind the live connection now instead of waiting for the next
        // reconnect — callers expect submissions to land in the session.
        // A lost reply drops the connection, and the next exchange
        // reconnects and attaches.
        if let Some(client) = self.client.as_mut() {
            match attach_session(client, self.session.as_deref().expect("just set")) {
                Err(e) if e.is_retryable() => self.client = None,
                attached => attached?,
            }
        }
        Ok(self)
    }

    /// Injects `plan` faults into every *outgoing* frame; each reconnect
    /// uses the next per-connection fault stream.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        if let Some(client) = self.client.as_mut() {
            client.set_fault_injector(FaultInjector::new(
                self.fault_plan.as_ref().expect("just set"),
                self.connections.saturating_sub(1),
            ));
        }
        self
    }

    /// Total reconnects performed so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// The highest event delivery index seen (the resume cursor).
    pub fn last_seen_idx(&self) -> u64 {
        self.last_seen_idx
    }

    /// Drops the current connection so the next exchange must reconnect —
    /// a test hook for the resume path. The subscription *intent* survives:
    /// the next connection re-subscribes and resumes from the last seen
    /// delivery index.
    pub fn force_disconnect(&mut self) {
        self.client = None;
    }

    /// Subscribes to the designer's notifications. After a reconnect the
    /// subscription is re-established automatically, resuming from the
    /// last seen delivery index.
    ///
    /// # Errors
    ///
    /// [`CollabError`] per the retryable/fatal taxonomy.
    pub fn subscribe(&mut self) -> Result<(), CollabError> {
        self.subscribed = true;
        let last_seen = self.last_seen_idx;
        // A connection opened from here on subscribes in its handshake;
        // only one that was already open needs the exchange.
        self.with_retries(|client, opened| {
            if opened {
                Ok(())
            } else {
                request_subscription(client, last_seen)
            }
        })
    }

    /// Submits an operation with exactly-once semantics and returns the
    /// server's verdict frame (`executed` or `rejected`).
    ///
    /// # Errors
    ///
    /// [`CollabError::Retryable`] when every attempt failed on transport;
    /// [`CollabError::Fatal`] for name-resolution/protocol errors.
    pub fn submit(&mut self, op: WireOp) -> Result<Frame, CollabError> {
        let cid = next_cid();
        let request_timeout = self.config.request_timeout;
        let max_attempts = self.config.max_attempts;
        self.with_retries(move |client, _| {
            client
                .send(&Frame::Submit {
                    op: op.clone(),
                    cid: Some(cid),
                })
                .map_err(|e| WireError::io(format!("send failed: {e}")))?;
            // Wait for *this* submission's verdict: responses to earlier,
            // abandoned submissions (a duplicate delivered by the network,
            // a response lost mid-read) carry a different cid and are
            // discarded instead of being mistaken for ours.
            let mut deadline = Instant::now() + request_timeout;
            let mut overload_resubmits: u32 = 0;
            loop {
                match client.recv(deadline.saturating_duration_since(Instant::now()))? {
                    None => return Err(WireError::timeout("timed out waiting for the verdict")),
                    Some(frame @ (Frame::Executed { .. } | Frame::Rejected { .. })) => {
                        let frame_cid = match &frame {
                            Frame::Executed { cid, .. } | Frame::Rejected { cid, .. } => *cid,
                            _ => unreachable!(),
                        };
                        if frame_cid == Some(cid) {
                            return Ok(frame);
                        }
                        // A stale verdict from a superseded exchange.
                    }
                    Some(Frame::Overloaded {
                        retry_after_ms,
                        cid: frame_cid,
                    }) if frame_cid.is_none() || frame_cid == Some(cid) => {
                        // The server shed this submission before executing
                        // it. Honor the backoff hint and resubmit with the
                        // SAME cid: the server's dedup window makes the
                        // retry at-most-once even if the shed raced an
                        // execution.
                        overload_resubmits += 1;
                        if overload_resubmits >= max_attempts {
                            return Err(WireError::timeout(
                                "server stayed overloaded across every resubmission",
                            ));
                        }
                        std::thread::sleep(Duration::from_millis(retry_after_ms));
                        client
                            .send(&Frame::Submit {
                                op: op.clone(),
                                cid: Some(cid),
                            })
                            .map_err(|e| WireError::io(format!("send failed: {e}")))?;
                        deadline = Instant::now() + request_timeout;
                    }
                    Some(Frame::Error { message }) => return Err(WireError::protocol(message)),
                    Some(_other) => {
                        // Snapshot fragments or misdelivered frames from an
                        // interrupted exchange; skip to the verdict.
                    }
                }
            }
        })
    }

    /// Returns the next *new* notification frame, waiting up to `timeout`.
    /// Events already seen (by delivery index) are dropped silently, so a
    /// resumed or duplicate-prone stream yields each event exactly once.
    /// `Ok(None)` means the wait elapsed.
    ///
    /// # Errors
    ///
    /// [`CollabError`] per the retryable/fatal taxonomy; connection loss
    /// here triggers a reconnect (with resubscribe) and returns `Ok(None)`
    /// for the caller to re-poll.
    pub fn next_event(&mut self, timeout: Duration) -> Result<Option<Frame>, CollabError> {
        self.ensure_connected()?;
        let deadline = Instant::now() + timeout;
        loop {
            let client = self.client.as_mut().expect("just connected");
            let window = deadline.saturating_duration_since(Instant::now());
            match client.next_event(window) {
                Ok(None) => return Ok(None),
                Ok(Some(frame)) => {
                    if let Frame::Event { idx, .. } = &frame {
                        if *idx > 0 && *idx <= self.last_seen_idx {
                            continue; // duplicate delivery
                        }
                        if *idx > 0 {
                            self.last_seen_idx = *idx;
                        }
                    }
                    return Ok(Some(frame));
                }
                Err(e) if e.is_retryable() => {
                    // Reconnect (and resubscribe) with backoff; there
                    // is no exchange to retry.
                    self.client = None;
                    self.with_retries(|_, _| Ok(()))?;
                    if Instant::now() >= deadline {
                        return Ok(None);
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Requests a state snapshot, retrying over reconnects.
    ///
    /// # Errors
    ///
    /// [`CollabError`] per the retryable/fatal taxonomy.
    pub fn read_snapshot(&mut self) -> Result<(Frame, Vec<Frame>), CollabError> {
        self.with_retries(|client, _| client.read_snapshot())
    }

    /// Drains the non-fatal server warnings collected so far.
    pub fn take_warnings(&mut self) -> Vec<String> {
        self.client
            .as_mut()
            .map(CollabClient::take_warnings)
            .unwrap_or_default()
    }

    /// Sends `shutdown`, asking the server to stop. Best-effort: transport
    /// errors after the send are ignored.
    ///
    /// # Errors
    ///
    /// [`CollabError`] when the shutdown frame could not be delivered.
    pub fn shutdown_server(&mut self) -> Result<(), CollabError> {
        self.ensure_connected()?;
        let client = self.client.as_mut().expect("just connected");
        client
            .send(&Frame::Shutdown)
            .map_err(|e| CollabError::Retryable(format!("send failed: {e}")))?;
        let _ = client.recv(Duration::from_secs(2));
        Ok(())
    }

    /// The one retry loop: up to `max_attempts` times, with the backoff
    /// schedule between attempts, (re)connects if needed and runs
    /// `exchange` on the live connection, telling it whether this attempt
    /// opened that connection. A retryable failure drops the connection
    /// for the next attempt; a fatal one returns at once.
    fn with_retries<T>(
        &mut self,
        mut exchange: impl FnMut(&mut CollabClient, bool) -> Result<T, WireError>,
    ) -> Result<T, CollabError> {
        let mut last_error = CollabError::Retryable("no attempt made".into());
        for attempt in 1..=self.config.max_attempts {
            if attempt > 1 {
                let backoff = self.config.backoff(attempt - 1, &mut self.rng);
                std::thread::sleep(backoff);
            }
            let opened = match self.ensure_connected() {
                Ok(opened) => opened,
                Err(e) if e.is_retryable() => {
                    last_error = e;
                    continue;
                }
                Err(e) => return Err(e),
            };
            let client = self.client.as_mut().expect("just connected");
            match exchange(client, opened) {
                Ok(value) => return Ok(value),
                Err(e) if e.is_retryable() => {
                    // The connection is suspect; rebuild it next attempt.
                    self.client = None;
                    last_error = e.into();
                }
                Err(e) => return Err(e.into()),
            }
        }
        Err(last_error)
    }

    /// Opens a connection if there is none: hello, the named session's
    /// attach, and the subscription if the client has one. Returns whether
    /// it opened one.
    fn ensure_connected(&mut self) -> Result<bool, CollabError> {
        if self.client.is_some() {
            return Ok(false);
        }
        let started = Instant::now();
        let first_connection = self.connections == 0;
        let mut client = CollabClient::connect(self.addr)
            .map_err(|e| CollabError::Retryable(format!("connect failed: {e}")))?;
        client.set_request_timeout(self.config.request_timeout);
        if let Some(plan) = &self.fault_plan {
            client.set_fault_injector(FaultInjector::new(plan, self.connections));
        }
        self.connections += 1;
        match client.request(&Frame::Hello {
            designer: self.designer,
        }) {
            Ok(Frame::Welcome { .. }) => {}
            Ok(Frame::Error { message }) => return Err(CollabError::Fatal(message)),
            Ok(other) => {
                return Err(CollabError::Fatal(format!(
                    "expected welcome, got `{}`",
                    other.tag()
                )))
            }
            Err(e) => return Err(e.into()),
        }
        // Rebind to the named session before resubscribing, so the resume
        // cursor applies to that session's event log.
        if let Some(name) = self.session.as_deref() {
            attach_session(&mut client, name)?;
        }
        // Re-establish the subscription, resuming after what we've seen.
        if self.subscribed {
            request_subscription(&mut client, self.last_seen_idx)?;
        }
        self.client = Some(client);
        if !first_connection {
            self.reconnects += 1;
            if let Some(sink) = &self.sink {
                let dur_us = started.elapsed().as_micros() as u64;
                sink.incr(Counter::Reconnects, 1);
                sink.time(SpanKind::Reconnect, dur_us);
                if sink.is_enabled() {
                    sink.record(&TraceEvent::Reconnect {
                        designer: self.designer,
                        attempt: self.reconnects as u32,
                        resumed_from: self.last_seen_idx,
                        dur_us,
                    });
                }
            }
        }
        Ok(true)
    }

    /// The named session this client binds to, if any.
    pub fn session(&self) -> Option<&str> {
        self.session.as_deref()
    }
}

/// Subscribes on `client`, resuming after delivery index `last_seen` (0 =
/// from now on).
fn request_subscription(client: &mut CollabClient, last_seen: u64) -> Result<(), WireError> {
    match client.request(&Frame::Subscribe {
        all: false,
        resume_from: (last_seen > 0).then_some(last_seen),
    })? {
        Frame::Subscribed { .. } => Ok(()),
        Frame::Error { message } => Err(WireError::protocol(message)),
        other => Err(WireError::protocol(format!(
            "expected subscribed, got `{}`",
            other.tag()
        ))),
    }
}

/// Runs the session `create` handshake on a fresh connection. A typed
/// rejection (or protocol error) is fatal: retrying the same name against
/// the same server cannot succeed.
fn attach_session(client: &mut CollabClient, name: &str) -> Result<(), CollabError> {
    match client.request(&Frame::CreateSession { name: name.into() }) {
        Ok(Frame::SessionAttached { .. }) => Ok(()),
        Ok(Frame::AttachRejected { reason, .. }) => Err(CollabError::Fatal(format!(
            "session `{name}` rejected: {reason}"
        ))),
        Ok(Frame::Error { message }) => Err(CollabError::Fatal(message)),
        Ok(other) => Err(CollabError::Fatal(format!(
            "expected session frame, got `{}`",
            other.tag()
        ))),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{CollabServer, SessionFactory};
    use adpm_scenarios::sensing_system;
    use adpm_teamsim::SimulationConfig;

    fn serve_sensing() -> CollabServer {
        let scenario = sensing_system();
        let config = SimulationConfig::adpm(7);
        let mut dpm = scenario.build_dpm(config.dpm_config());
        dpm.initialize();
        CollabServer::bind(dpm, 0).expect("bind")
    }

    fn fast_config() -> ReconnectConfig {
        ReconnectConfig {
            max_attempts: 5,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(50),
            seed: 11,
            ..ReconnectConfig::default()
        }
    }

    /// A subscribe that has to reconnect first subscribes once, in the new
    /// connection's handshake: one session command, not two.
    #[test]
    fn subscribe_after_a_disconnect_runs_one_session_command() {
        use adpm_observe::InMemorySink;
        let mut dpm = sensing_system().build_dpm(SimulationConfig::adpm(7).dpm_config());
        dpm.initialize();
        let sink = Arc::new(InMemorySink::new());
        dpm.set_sink(sink.clone());
        let server = CollabServer::bind(dpm, 0).expect("bind");
        let mut client =
            ResilientClient::connect(server.local_addr(), 1, fast_config()).expect("connect");
        client.force_disconnect();
        let before = sink.get(Counter::SessionOps);
        client.subscribe().expect("subscribe");
        assert_eq!(sink.get(Counter::SessionOps) - before, 1);
        // On the open connection the call itself subscribes.
        client.subscribe().expect("subscribe again");
        assert_eq!(sink.get(Counter::SessionOps) - before, 2);
        server.shutdown();
    }

    #[test]
    fn submit_survives_a_forced_disconnect() {
        let server = serve_sensing();
        let mut client =
            ResilientClient::connect(server.local_addr(), 1, fast_config()).expect("connect");
        client.force_disconnect();
        let verdict = client
            .submit(WireOp::Assign {
                problem: "pressure-sensor".into(),
                property: "sensor.s-area".into(),
                value: 4.0,
            })
            .expect("submit across reconnect");
        assert!(matches!(verdict, Frame::Executed { .. }), "{verdict:?}");
        assert_eq!(
            client.reconnects(),
            1,
            "re-established connections count as reconnects"
        );
        client.force_disconnect();
        let verdict = client
            .submit(WireOp::Verify {
                problem: "sensing-system".into(),
                constraints: String::new(),
            })
            .expect("second submit");
        assert!(matches!(verdict, Frame::Executed { .. }), "{verdict:?}");
        let dpm = server.shutdown().expect("session open");
        assert_eq!(dpm.history().len(), 2);
    }

    /// Two clients acting as one designer share the session's dedup
    /// window, so their operation ids must differ: each assign executes.
    #[test]
    fn two_clients_of_one_designer_each_execute() {
        let server = serve_sensing();
        let mut first =
            ResilientClient::connect(server.local_addr(), 0, fast_config()).expect("connect");
        let mut second =
            ResilientClient::connect(server.local_addr(), 0, fast_config()).expect("connect");
        for (client, value) in [(&mut first, 4.0), (&mut second, 3.0)] {
            let verdict = client
                .submit(WireOp::Assign {
                    problem: "pressure-sensor".into(),
                    property: "sensor.s-area".into(),
                    value,
                })
                .expect("submit");
            assert!(matches!(verdict, Frame::Executed { .. }), "{verdict:?}");
        }
        let dpm = server.shutdown().expect("session open");
        assert_eq!(dpm.history().len(), 2, "one assign was answered, not run");
    }

    /// Every `cid` the client draws survives the wire, whose numbers are
    /// `f64`: the largest one round-trips exactly, one past 2⁵³ does not.
    #[test]
    fn the_largest_cid_round_trips_through_the_wire() {
        const MAX_CID: u64 = (1 << (CID_PID_BITS + CID_COUNT_BITS)) - 1;
        assert_eq!(MAX_CID, (1 << 53) - 1);
        let (a, b) = (next_cid(), next_cid());
        assert_ne!(a, b);
        assert!(a <= MAX_CID && b <= MAX_CID, "{a} {b}");
        let submit = |cid| Frame::Submit {
            op: WireOp::Verify {
                problem: "sensing-system".into(),
                constraints: String::new(),
            },
            cid: Some(cid),
        };
        let round_trip = |frame: &Frame| Frame::parse_line(&frame.to_line()).expect("parse");
        assert_eq!(round_trip(&submit(MAX_CID)), submit(MAX_CID));
        let verdict = Frame::Executed {
            seq: 1,
            evaluations: 0,
            violations_after: 0,
            new_violations: String::new(),
            spin: false,
            cid: Some(MAX_CID),
        };
        assert_eq!(round_trip(&verdict), verdict);
        assert_ne!(round_trip(&submit(MAX_CID + 2)), submit(MAX_CID + 2));
    }

    #[test]
    fn unknown_designer_is_fatal_not_retried() {
        let server = serve_sensing();
        let err = ResilientClient::connect(server.local_addr(), 99, fast_config())
            .expect_err("hello must fail");
        assert!(!err.is_retryable(), "{err:?}");
        server.shutdown();
    }

    #[test]
    fn unreachable_server_exhausts_retries_as_retryable() {
        // Bind-then-drop guarantees a port with nothing listening.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("probe");
            listener.local_addr().expect("addr")
        };
        let config = ReconnectConfig {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            seed: 3,
            ..ReconnectConfig::default()
        };
        let err = ResilientClient::connect(addr, 0, config).expect_err("must fail");
        assert!(err.is_retryable(), "{err:?}");
    }

    #[test]
    fn events_resume_across_reconnect_without_duplicates() {
        let server = serve_sensing();
        let addr = server.local_addr();
        let mut watcher = ResilientClient::connect(addr, 2, fast_config()).expect("watcher");
        watcher.subscribe().expect("subscribe");
        let mut actor = ResilientClient::connect(addr, 1, fast_config()).expect("actor");
        let assign = |actor: &mut ResilientClient, property: &str, value: f64| {
            let verdict = actor
                .submit(WireOp::Assign {
                    problem: "pressure-sensor".into(),
                    property: property.into(),
                    value,
                })
                .expect("submit");
            assert!(matches!(verdict, Frame::Executed { .. }), "{verdict:?}");
        };
        assign(&mut actor, "sensor.s-area", 4.0);
        let mut indices = Vec::new();
        while let Some(Frame::Event { idx, .. }) = watcher
            .next_event(Duration::from_millis(if indices.is_empty() {
                5000
            } else {
                300
            }))
            .expect("event")
        {
            indices.push(idx);
        }
        assert!(!indices.is_empty(), "the first bind must produce events");

        // Connection dies; the gap happens while we're away. s-drive
        // couples to interface.i-vref (VrefDrive), so the gap produces
        // events routed to the watching designer.
        watcher.force_disconnect();
        assign(&mut actor, "sensor.s-drive", 8.0);

        // The resumed stream delivers exactly the gap: strictly ascending
        // indices continuing from where we stopped, no repeats.
        let before_gap = indices.len();
        while let Some(Frame::Event { idx, .. }) = watcher
            .next_event(Duration::from_millis(if indices.len() == before_gap {
                5000
            } else {
                300
            }))
            .expect("resumed event")
        {
            indices.push(idx);
        }
        assert!(indices.len() > before_gap, "the gap must be redelivered");
        assert_eq!(watcher.reconnects(), 1);
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            indices, sorted,
            "indices must be strictly ascending: {indices:?}"
        );
        server.shutdown();
    }

    #[test]
    fn named_session_reattaches_across_reconnect_with_gap_redelivery() {
        let scenario = sensing_system();
        let config = SimulationConfig::adpm(7);
        let mut dpm = scenario.build_dpm(config.dpm_config());
        dpm.initialize();
        let factory: SessionFactory = Box::new(|_name| {
            let scenario = sensing_system();
            let config = SimulationConfig::adpm(7);
            let mut dpm = scenario.build_dpm(config.dpm_config());
            dpm.initialize();
            Ok((dpm, crate::session::SessionOptions::default()))
        });
        let server = CollabServer::bind_registry(
            dpm,
            0,
            crate::server::ServerOptions {
                allow_create: true,
                ..crate::server::ServerOptions::default()
            },
            crate::session::SessionOptions::default(),
            Some(factory),
            &[],
        )
        .expect("bind");
        let addr = server.local_addr();

        let mut watcher = ResilientClient::connect(addr, 2, fast_config())
            .expect("watcher")
            .with_session("team-a")
            .expect("attach");
        watcher.subscribe().expect("subscribe");
        let mut actor = ResilientClient::connect(addr, 1, fast_config())
            .expect("actor")
            .with_session("team-a")
            .expect("attach");
        let assign = |actor: &mut ResilientClient, property: &str, value: f64| {
            let verdict = actor
                .submit(WireOp::Assign {
                    problem: "pressure-sensor".into(),
                    property: property.into(),
                    value,
                })
                .expect("submit");
            assert!(matches!(verdict, Frame::Executed { .. }), "{verdict:?}");
        };
        assign(&mut actor, "sensor.s-area", 4.0);
        let mut indices = Vec::new();
        while let Some(Frame::Event { idx, .. }) = watcher
            .next_event(Duration::from_millis(if indices.is_empty() {
                5000
            } else {
                300
            }))
            .expect("event")
        {
            indices.push(idx);
        }
        assert!(!indices.is_empty(), "the first bind must produce events");

        // The gap happens in `team-a` while the watcher is away; its
        // reconnect must reattach to `team-a` *then* resume.
        watcher.force_disconnect();
        assign(&mut actor, "sensor.s-drive", 8.0);
        let before_gap = indices.len();
        while let Some(Frame::Event { idx, .. }) = watcher
            .next_event(Duration::from_millis(if indices.len() == before_gap {
                5000
            } else {
                300
            }))
            .expect("resumed event")
        {
            indices.push(idx);
        }
        assert!(indices.len() > before_gap, "the gap must be redelivered");
        assert_eq!(watcher.reconnects(), 1);
        assert_eq!(watcher.session(), Some("team-a"));
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            indices, sorted,
            "indices must be strictly ascending: {indices:?}"
        );

        // Both operations landed in the named session, not the default.
        let dpm = server.shutdown().expect("session open");
        assert_eq!(dpm.history().len(), 0, "the default session saw nothing");
    }

    #[test]
    fn rejected_session_attach_is_fatal() {
        let server = serve_sensing(); // no factory, no allow_create
        let err = ResilientClient::connect(server.local_addr(), 1, fast_config())
            .expect("connect")
            .with_session("ghost")
            .expect_err("attach must fail");
        assert!(!err.is_retryable(), "{err:?}");
        server.shutdown();
    }

    /// Regression for the overload path: a server answering a submit with
    /// `overloaded` + `retry_after_ms` gets exactly one resubmission,
    /// carrying the SAME cid, no earlier than the hinted delay — so the
    /// server's dedup window can guarantee at-most-once execution. A
    /// scripted server makes the single-shed sequence deterministic (a
    /// real server sheds on a live gauge, which races).
    #[test]
    fn overloaded_reply_is_resubmitted_once_after_the_delay() {
        use std::io::{BufRead, BufReader, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let script = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut write = stream;
            let mut reply = |frame: &Frame| {
                write.write_all(frame.to_line().as_bytes()).expect("write");
            };
            let mut line = String::new();
            reader.read_line(&mut line).expect("hello");
            assert!(
                line.contains("\"t\":\"hello\""),
                "expected hello, got {line}"
            );
            reply(&Frame::Welcome {
                mode: "adpm".into(),
                designers: 7,
                properties: 1,
                constraints: 1,
            });
            line.clear();
            reader.read_line(&mut line).expect("submit");
            let Ok(Frame::Submit { cid: Some(cid), .. }) = Frame::parse_line(&line) else {
                panic!("expected a cid-carrying submit, got {line}");
            };
            let shed_at = Instant::now();
            reply(&Frame::Overloaded {
                retry_after_ms: 40,
                cid: Some(cid),
            });
            line.clear();
            reader.read_line(&mut line).expect("resubmit");
            let Ok(Frame::Submit {
                cid: Some(second), ..
            }) = Frame::parse_line(&line)
            else {
                panic!("expected the resubmission, got {line}");
            };
            assert_eq!(
                second, cid,
                "the retry must reuse the shed submission's cid"
            );
            let waited = shed_at.elapsed();
            assert!(
                waited >= Duration::from_millis(40),
                "client resubmitted after {waited:?}, inside the 40ms hint"
            );
            reply(&Frame::Executed {
                seq: 1,
                evaluations: 0,
                violations_after: 0,
                new_violations: String::new(),
                spin: false,
                cid: Some(cid),
            });
            // Exactly once: after the verdict, nothing but a goodbye (or
            // EOF at client drop) may arrive — a third submit would be a
            // duplicate execution.
            line.clear();
            let n = reader.read_line(&mut line).unwrap_or(0);
            assert!(
                n == 0 || line.contains("\"t\":\"bye\""),
                "unexpected frame after the verdict: {line}"
            );
        });
        let mut client = ResilientClient::connect(addr, 1, fast_config()).expect("connect");
        let verdict = client
            .submit(WireOp::Assign {
                problem: "pressure-sensor".into(),
                property: "sensor.s-area".into(),
                value: 4.0,
            })
            .expect("submit");
        assert!(
            matches!(verdict, Frame::Executed { seq: 1, .. }),
            "{verdict:?}"
        );
        drop(client);
        script.join().expect("scripted server");
    }

    #[test]
    fn backoff_schedule_is_capped_and_jittered() {
        let config = ReconnectConfig {
            max_attempts: 10,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(400),
            seed: 5,
            ..ReconnectConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(config.seed);
        for attempt in 1..=8 {
            let b = config.backoff(attempt, &mut rng);
            let uncapped = Duration::from_millis(100 * (1 << (attempt - 1).min(16)));
            let cap = uncapped.min(config.max_backoff);
            assert!(
                b >= cap.mul_f64(0.5) && b < cap.mul_f64(1.5),
                "attempt {attempt}: {b:?}"
            );
        }
    }
}
