//! # adpm-cli
//!
//! The `adpm` command-line tool: author a design scenario in DDDL, check
//! it, simulate it under either management mode, compare the modes, and
//! explain conflicts — the workflows a team evaluating Active Design
//! Process Management would run first.
//!
//! ```console
//! $ adpm check my-chip.dddl          # compile + propagate + feasibility report
//! $ adpm run my-chip.dddl --mode adpm --seed 7
//! $ adpm compare my-chip.dddl --seeds 30
//! $ adpm explain my-chip.dddl --bind rx.P-front=150 --bind rx.P-ser=100
//! $ adpm fmt my-chip.dddl            # normalized pretty-printed DDDL
//! $ adpm builtin receiver            # print an embedded paper scenario
//! $ adpm serve my-chip.dddl          # host a live collaboration session
//! $ adpm client 127.0.0.1:4000 --designer 1 --subscribe
//! $ adpm submit 127.0.0.1:4000 --designer 0 --problem fe --assign rx.P-front=150
//! ```
//!
//! Every subcommand is a library function returning the text it would
//! print, so the whole surface is unit-testable; `src/bin/adpm.rs` is a
//! thin argument-parsing shell.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use adpm_collab::{
    recover, run_concurrent_dpm, run_concurrent_remote, CollabClient, CollabServer,
    DiskFaultInjector, FaultInjector, FaultPlan, Frame, FsyncPolicy, JournalConfig, JournalWriter,
    NegotiationConfig, ServerOptions, SessionFactory, SessionOptions, WireError, WireOp,
    DEFAULT_SESSION,
};
use adpm_constraint::{
    explain_all_violations, propagate, NetworkError, PropagationConfig, PropagationKind, Value,
};
use adpm_core::{state_fingerprint, DesignProcessManager, DpmConfig, ManagementMode};
use adpm_dddl::{compile_source, parse, to_source, CompiledScenario};
use adpm_observe::analyze::{analyze_trace, diff_traces, render_comparison, DiffThresholds};
use adpm_observe::{parse_trace, Counter, InMemorySink, JsonlSink, MetricsSink, TeeSink};
use adpm_teamsim::{run_once, run_once_with_sink, Batch, NegotiationPolicy, SimulationConfig};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Command-line usage problem (unknown flag, missing argument, ...).
    Usage(String),
    /// The scenario file could not be read.
    Io(std::io::Error),
    /// The scenario failed to lex/parse/compile.
    Dddl(adpm_dddl::DddlError),
    /// The operation journal could not be recovered or opened.
    Journal(adpm_collab::JournalError),
    /// A `--bind` value was rejected by the network.
    Network(adpm_constraint::NetworkError),
    /// A trace file is not schema-valid JSONL.
    Trace(adpm_observe::TraceParseError),
    /// `diff-trace` found at least one regression; the payload is the
    /// rendered diff report. Mapped to a non-zero exit by the binary, so
    /// CI gates can use `adpm diff-trace` directly.
    Regression(String),
    /// A collaboration connection failed at the wire-protocol level, or a
    /// `client`/`submit` expectation (like `--expect-events`) was not met.
    Wire(WireError),
    /// A session `serve` hosted closed before shutdown (a journal append
    /// failed or a command panicked); the payload says how to recover.
    SessionClosed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Io(e) => write!(f, "cannot read scenario: {e}"),
            CliError::Dddl(e) => write!(f, "{e}"),
            CliError::Journal(e) => write!(f, "journal error: {e}"),
            CliError::Network(e) => write!(f, "{e}"),
            CliError::Trace(e) => write!(f, "invalid trace: {e}"),
            CliError::Regression(report) => write!(f, "{report}"),
            CliError::Wire(e) => write!(f, "{e}"),
            CliError::SessionClosed(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl CliError {
    /// Whether retrying the same invocation can plausibly succeed —
    /// transport-level failures (connection refused/reset, timeouts), as
    /// opposed to validation or protocol errors that will fail again.
    pub fn is_retryable(&self) -> bool {
        matches!(self, CliError::Wire(e) if e.is_retryable())
    }

    /// sysexits-style process exit code: 75 (`EX_TEMPFAIL`) for retryable
    /// transport failures, 65 (`EX_DATAERR`) for fatal wire/validation
    /// failures, 2 for usage errors, 1 for everything else. Scripts retry
    /// on 75 and give up on 65.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Wire(e) if e.is_retryable() => 75,
            CliError::Wire(_) => 65,
            CliError::Usage(_) => 2,
            _ => 1,
        }
    }
}

impl From<adpm_observe::TraceParseError> for CliError {
    fn from(e: adpm_observe::TraceParseError) -> Self {
        CliError::Trace(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<adpm_dddl::DddlError> for CliError {
    fn from(e: adpm_dddl::DddlError) -> Self {
        CliError::Dddl(e)
    }
}

impl From<adpm_constraint::NetworkError> for CliError {
    fn from(e: adpm_constraint::NetworkError) -> Self {
        CliError::Network(e)
    }
}

impl From<adpm_collab::JournalError> for CliError {
    fn from(e: adpm_collab::JournalError) -> Self {
        CliError::Journal(e)
    }
}

impl From<WireError> for CliError {
    fn from(e: WireError) -> Self {
        CliError::Wire(e)
    }
}

/// The usage text printed by `adpm help` (and on usage errors).
pub const USAGE: &str = "\
adpm — Active Design Process Management (DAC 2001 reproduction)

USAGE:
    adpm <command> [options]

COMMANDS:
    check   <file.dddl>                    compile, propagate, report feasibility
    run     <file.dddl> [--mode adpm|conventional] [--seed N] [--max-ops N]
            [--propagation full|incremental]
            [--csv] [--trace FILE] [--metrics]
            [--concurrent] [--turn-barrier] [--remote] [--fault-plan PLAN]
            [--negotiate]
                                           simulate one TeamSim run
                                           (--propagation picks the DCM path:
                                            full re-propagation after every
                                            operation, or incremental region
                                            propagation around what it
                                            changed; --csv prints the
                                            per-operation table, --trace streams
                                            a JSONL event trace to FILE,
                                            --metrics appends the aggregate
                                            counter totals; --concurrent runs
                                            designers as real threads against a
                                            collaboration session, and
                                            --turn-barrier makes that run a
                                            deterministic round-robin;
                                            --negotiate — implies
                                            --concurrent — resolves each
                                            new conflict by a bounded
                                            viewpoint negotiation among
                                            the affected designers
                                            instead of backtracking)
    compare <file.dddl> [--seeds N]        both modes over N seeds (default 20)
    analyze <trace.jsonl> [--json] [--vs other.jsonl]
                                           profile a JSONL trace: totals,
                                           constraint/property hot-spots,
                                           designer profiles, span timings
                                           (--json emits machine-readable
                                           JSONL, --vs prints a side-by-side
                                           λ=T vs λ=F style comparison)
    diff-trace <a.jsonl> <b.jsonl> [--abs N] [--rel F]
                                           compare b against baseline a over
                                           the paper's statistics; exits
                                           non-zero when b regresses beyond
                                           a + max(abs, a*rel)
    explain <file.dddl> [--bind obj.prop=V ...]
                                           bind values, propagate, explain conflicts
    fmt     <file.dddl>                    print normalized DDDL
    builtin <sensing|receiver|walkthrough> print an embedded paper scenario
    serve   <file.dddl> [--port N] [--mode adpm|conventional]
            [--journal FILE] [--fsync always|never] [--compact-every N]
            [--fault-plan PLAN] [--heartbeat-ms T] [--idle-timeout-ms T]
            [--sessions N] [--allow-create] [--metrics-addr HOST:PORT]
            [--negotiate]
                                           host a registry of collaboration
                                           sessions over the JSONL wire
                                           protocol; prints
                                           `listening on 127.0.0.1:PORT` up
                                           front (port 0 = ephemeral) and runs
                                           until a client sends shutdown.
                                           --negotiate arms every hosted
                                           session with the conflict
                                           negotiation engine and enables
                                           the client `propose` frame.
                                           --journal appends every executed
                                           operation to FILE and, on restart,
                                           replays it first (prints
                                           `recovered N operations`); each
                                           operation is synced before its
                                           reply unless --fsync never (for
                                           benchmarks); --compact-every N
                                           rewrites the journal as a state
                                           snapshot every N ops so recovery
                                           time stays flat as the session ages
                                           (0 = never, the default).
                                           --fault-plan
                                           (e.g. `seed=7,drop=0.1,delay=0.1:5ms,
                                           dup=0.1,corrupt=0.05,truncate=0.05,
                                           kill=20`) injects deterministic
                                           faults into outgoing frames;
                                           --heartbeat-ms / --idle-timeout-ms
                                           tune half-open peer detection.
                                           --sessions N pre-creates named
                                           sessions s1..sN (fresh copies of the
                                           scenario, with per-session journals
                                           FILE.s1..FILE.sN); --allow-create
                                           lets clients create further sessions
                                           with a `create` frame.
                                           --metrics-addr additionally serves a
                                           plaintext per-session metrics
                                           exposition on HOST:PORT (port 0 =
                                           ephemeral; prints `metrics on ADDR`)
                                           — scrape it with nc/curl
    top     <addr> [--session NAME] [--interval MS] [--json] [--count N]
                                           live per-session telemetry: polls
                                           the server with `stats` every MS
                                           and renders each report as a table
                                           (connections, ops/s, p99 submit
                                           latency, inbox drops, reconnects,
                                           journal bytes) — or as raw
                                           stats_reply JSONL with --json.
                                           Without --session it polls every
                                           session plus the `*` rollup (an
                                           operator view); --count N exits
                                           after N reports (0 = until the
                                           server goes away)
    client  <addr> [--designer N] [--subscribe]
            [--expect-events K] [--timeout-ms T] [--fault-plan PLAN]
            [--session NAME]
                                           connect as designer N, optionally
                                           bind to session NAME (creating it
                                           where the server allows), optionally
                                           subscribe to notifications, and print
                                           received frames as JSONL; exits
                                           non-zero if fewer than K events
                                           arrive within T ms (default 5000)
    submit  <addr> [--designer N] [--problem NAME] [--assign obj.prop=V]
            [--unbind obj.prop] [--verify] [--constraints c1,c2] [--shutdown]
            [--session NAME]
                                           one-shot scripted request: submit a
                                           design operation (or shut the whole
                                           server down) into session NAME (the
                                           default session if omitted) and
                                           print the response frames.
                                           Exit codes: 75 = retryable transport
                                           failure (connection, timeout), 65 =
                                           fatal (rejected operation, protocol
                                           error) — the binary prints which
    help                                   this text
";

/// `adpm check`: compile the scenario, run one propagation over the
/// initial requirements, and report sizes + per-property feasibility.
///
/// # Errors
///
/// Returns a [`CliError`] for unreadable or invalid scenarios.
pub fn check(source: &str) -> Result<String, CliError> {
    let scenario = compile_source(source)?;
    let dpm = scenario.build_dpm(DpmConfig::adpm());
    let mut net = dpm.network().clone();
    let outcome = propagate(&mut net, &PropagationConfig::default());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "scenario: {} properties, {} constraints, {} problems, {} designers",
        net.property_count(),
        net.constraint_count(),
        dpm.problems().len(),
        dpm.designers().len()
    );
    let cross = net
        .constraint_ids()
        .filter(|cid| net.is_cross_object(*cid))
        .count();
    let _ = writeln!(out, "cross-subsystem constraints: {cross}");
    let _ = writeln!(
        out,
        "initial propagation: {} evaluations, fixpoint = {}, conflicts = {}",
        outcome.evaluations,
        outcome.reached_fixpoint,
        outcome.conflicts.len()
    );
    for cid in &outcome.conflicts {
        let _ = writeln!(out, "  CONFLICT: {}", net.constraint(*cid));
    }
    let _ = writeln!(out, "feasible subspaces after propagation:");
    for pid in net.property_ids() {
        let meta = net.property(pid);
        let marker = if net.feasible(pid).is_empty() {
            "  EMPTY  "
        } else if net.is_bound(pid) {
            "  bound  "
        } else {
            "         "
        };
        let _ = writeln!(
            out,
            "{marker}{:<12}.{:<14} {}",
            meta.object(),
            meta.name(),
            net.feasible(pid)
        );
    }
    if outcome.conflicts.is_empty() && !net.property_ids().any(|p| net.feasible(p).is_empty()) {
        let _ = writeln!(out, "OK: the scenario is consistent");
    } else {
        let _ = writeln!(out, "WARNING: the scenario is over-constrained");
    }
    Ok(out)
}

/// Options for [`run`].
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Management mode (`λ`).
    pub mode: ManagementMode,
    /// Random seed.
    pub seed: u64,
    /// Operation cap.
    pub max_operations: usize,
    /// Which DCM propagation path ADPM runs after each operation.
    pub propagation: PropagationKind,
    /// Emit the per-operation capture as CSV instead of the summary.
    pub csv: bool,
    /// Stream a JSONL trace of the run (see `docs/OBSERVABILITY.md` for the
    /// schema) to this path.
    pub trace: Option<PathBuf>,
    /// Append the aggregate counter totals to the report.
    pub metrics: bool,
    /// Run designers as real threads against a collaboration session
    /// instead of the sequential engine.
    pub concurrent: bool,
    /// With [`concurrent`](Self::concurrent): act strictly round-robin so
    /// the run is a deterministic function of the seed.
    pub turn_barrier: bool,
    /// Route every submission over loopback TCP through reconnecting
    /// clients (implies the turn barrier) and report a `state digest`.
    pub remote: bool,
    /// With [`remote`](Self::remote): inject deterministic faults into
    /// every server-side outgoing frame.
    pub fault_plan: Option<FaultPlan>,
    /// Negotiate conflicts instead of leaving them to backtracking
    /// (implies [`concurrent`](Self::concurrent)): each new violation
    /// triggers a bounded viewpoint negotiation among the affected
    /// designers (policies cycle through the TeamSim roster —
    /// compromising, argumentative, stubborn) and an accepted relaxation
    /// is applied as a normal journaled operation.
    pub negotiate: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            mode: ManagementMode::Adpm,
            seed: 0,
            max_operations: 5_000,
            propagation: PropagationKind::Full,
            csv: false,
            trace: None,
            metrics: false,
            concurrent: false,
            turn_barrier: false,
            remote: false,
            fault_plan: None,
            negotiate: false,
        }
    }
}

/// `adpm run`: simulate one TeamSim run and report its statistics.
///
/// # Errors
///
/// Returns a [`CliError`] for invalid scenarios.
pub fn run(source: &str, options: &RunOptions) -> Result<String, CliError> {
    let scenario = compile_source(source)?;
    let mut config = SimulationConfig::for_mode(options.mode, options.seed);
    config.max_operations = options.max_operations;
    config.propagation_kind = options.propagation;

    let metrics = options.metrics.then(|| Arc::new(InMemorySink::new()));
    let trace = options
        .trace
        .as_deref()
        .map(JsonlSink::create)
        .transpose()?
        .map(Arc::new);
    let mut sinks: Vec<Arc<dyn MetricsSink>> = Vec::new();
    if let Some(m) = &metrics {
        sinks.push(m.clone() as Arc<dyn MetricsSink>);
    }
    if let Some(t) = &trace {
        sinks.push(t.clone() as Arc<dyn MetricsSink>);
    }
    let sink: Option<Arc<dyn MetricsSink>> =
        (!sinks.is_empty()).then(|| Arc::new(TeeSink::new(sinks)) as Arc<dyn MetricsSink>);
    let mut digest: Option<u64> = None;
    let stats = if options.remote {
        let mut dpm = scenario.build_dpm(config.dpm_config());
        if let Some(s) = &sink {
            dpm.set_sink(s.clone());
        }
        let outcome = run_concurrent_remote(dpm, &config, options.fault_plan.as_ref());
        digest = Some(state_fingerprint(&outcome.dpm));
        outcome.stats
    } else if options.concurrent || options.negotiate {
        let mut dpm = scenario.build_dpm(config.dpm_config());
        if let Some(s) = &sink {
            dpm.set_sink(s.clone());
        }
        let negotiation = options
            .negotiate
            .then(|| team_negotiation(dpm.designers().len()));
        run_concurrent_dpm(dpm, &config, options.turn_barrier, negotiation).stats
    } else {
        match &sink {
            None => run_once(&scenario, config),
            Some(s) => run_once_with_sink(&scenario, config, s.clone()),
        }
    };
    if let Some(t) = &trace {
        t.finish()?;
    }

    if options.csv {
        return Ok(adpm_teamsim::report::run_csv(&stats));
    }
    let mut out = String::new();
    let driver = if options.remote {
        if options.fault_plan.is_some() {
            " (remote, fault plan)"
        } else {
            " (remote)"
        }
    } else {
        match (
            options.concurrent || options.negotiate,
            options.turn_barrier,
            options.negotiate,
        ) {
            (false, _, _) => "",
            (true, false, false) => " (concurrent)",
            (true, true, false) => " (concurrent, turn barrier)",
            (true, false, true) => " (concurrent, negotiation)",
            (true, true, true) => " (concurrent, turn barrier, negotiation)",
        }
    };
    let _ = writeln!(
        out,
        "mode {:?}, seed {}{driver}: completed = {}",
        options.mode, options.seed, stats.completed
    );
    let _ = writeln!(out, "operations:             {}", stats.operations);
    let _ = writeln!(
        out,
        "constraint evaluations: {} ({} during setup)",
        stats.evaluations, stats.setup_evaluations
    );
    let _ = writeln!(out, "design spins:           {}", stats.spins);
    let _ = writeln!(
        out,
        "violations found:       {}",
        stats.total_violations_found()
    );
    let _ = writeln!(out, "operations per designer:");
    for (designer, ops) in stats.operations_by_designer() {
        let _ = writeln!(out, "  designer{designer}: {ops}");
    }
    if let Some(digest) = digest {
        let _ = writeln!(out, "state digest: {digest:016x}");
    }
    if let Some(m) = &metrics {
        let _ = writeln!(out, "counters:");
        let _ = write!(out, "{}", m.snapshot());
    }
    if let Some(path) = &options.trace {
        let _ = writeln!(out, "trace written to {}", path.display());
    }
    Ok(out)
}

/// `adpm compare`: run both modes over `seeds` seeds and print the Fig. 9
/// style comparison.
///
/// # Errors
///
/// Returns a [`CliError`] for invalid scenarios.
pub fn compare(source: &str, seeds: u64) -> Result<String, CliError> {
    let scenario = compile_source(source)?;
    let mut conventional = Batch::new();
    let mut adpm = Batch::new();
    for seed in 0..seeds {
        conventional.push(run_once(&scenario, SimulationConfig::conventional(seed)));
        adpm.push(run_once(&scenario, SimulationConfig::adpm(seed)));
    }
    Ok(adpm_teamsim::report::comparison_block(
        &format!("{seeds}-seed comparison"),
        &conventional,
        &adpm,
    ))
}

/// `adpm explain`: bind the given `object.property=value` assignments,
/// propagate, and print an explanation for every violated constraint.
///
/// # Errors
///
/// Returns a [`CliError`] for invalid scenarios, malformed bindings,
/// unknown properties, or out-of-range values.
pub fn explain(source: &str, bindings: &[String]) -> Result<String, CliError> {
    let scenario = compile_source(source)?;
    let dpm = scenario.build_dpm(DpmConfig::adpm());
    let mut net = dpm.network().clone();
    for binding in bindings {
        let (path, value) = binding.split_once('=').ok_or_else(|| {
            CliError::Usage(format!("--bind expects obj.prop=value, got `{binding}`"))
        })?;
        let (object, property) = path.split_once('.').ok_or_else(|| {
            CliError::Usage(format!("--bind expects obj.prop=value, got `{binding}`"))
        })?;
        let pid = net
            .property_by_name(object, property)
            .ok_or_else(|| CliError::Usage(format!("unknown property `{path}`")))?;
        let value: f64 = value
            .parse()
            .map_err(|_| CliError::Usage(format!("`{value}` is not a number")))?;
        // Re-contextualize network errors with the user's property path —
        // the network only knows internal ids, which mean nothing to the
        // person typing --bind.
        net.bind(pid, Value::number(value)).map_err(|e| {
            let reason = match &e {
                NetworkError::ValueOutsideDomain { .. } => {
                    format!("the domain is {}", net.property(pid).initial_domain())
                }
                NetworkError::KindMismatch { value_kind, .. } => {
                    format!("a {value_kind} value does not fit its domain kind")
                }
                _ => e.to_string(),
            };
            CliError::Usage(format!("cannot bind `{path}` to {value}: {reason}"))
        })?;
    }
    propagate(&mut net, &PropagationConfig::default());
    let explanations = explain_all_violations(&net);
    let mut out = String::new();
    if explanations.is_empty() {
        let _ = writeln!(out, "no violations — all constraints hold");
    } else {
        for e in explanations {
            let _ = write!(out, "{e}");
        }
    }
    Ok(out)
}

/// `adpm analyze`: profile a JSONL trace — totals, per-constraint and
/// per-property hot-spots, designer profiles, propagation shape, and span
/// timing rollups. With `json` the report is emitted as flat JSONL
/// (`a_*`-tagged lines, themselves parseable by [`parse_trace`]).
///
/// # Errors
///
/// Returns [`CliError::Trace`] for malformed trace text.
pub fn analyze(trace: &str, json: bool) -> Result<String, CliError> {
    let lines = parse_trace(trace)?;
    let report = analyze_trace(&lines);
    Ok(if json {
        report.to_jsonl()
    } else {
        report.render()
    })
}

/// `adpm analyze --vs`: side-by-side comparison of two trace profiles over
/// the paper's statistics — the λ=T vs λ=F view of §3.2.
///
/// # Errors
///
/// Returns [`CliError::Trace`] if either trace is malformed.
pub fn analyze_vs(a: &str, b: &str) -> Result<String, CliError> {
    let a = analyze_trace(&parse_trace(a)?);
    let b = analyze_trace(&parse_trace(b)?);
    Ok(render_comparison(&a, &b))
}

/// `adpm diff-trace`: compare candidate trace `b` against baseline `a`.
///
/// # Errors
///
/// Returns [`CliError::Trace`] for malformed traces, and
/// [`CliError::Regression`] (carrying the rendered report) when any
/// statistic regresses beyond the thresholds — the binary maps that to a
/// non-zero exit.
pub fn diff_trace(a: &str, b: &str, thresholds: &DiffThresholds) -> Result<String, CliError> {
    let a = analyze_trace(&parse_trace(a)?);
    let b = analyze_trace(&parse_trace(b)?);
    let diff = diff_traces(&a, &b, thresholds);
    let report = diff.render();
    if diff.has_regressions() {
        Err(CliError::Regression(report))
    } else {
        Ok(report)
    }
}

/// `adpm fmt`: parse and pretty-print the scenario (normalized DDDL).
///
/// # Errors
///
/// Returns a [`CliError`] for unparsable input (the input need not
/// compile — formatting is purely syntactic).
pub fn fmt(source: &str) -> Result<String, CliError> {
    Ok(to_source(&parse(source)?))
}

/// `adpm builtin`: the embedded source of one of the paper's scenarios.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for an unknown scenario name.
pub fn builtin(name: &str) -> Result<String, CliError> {
    match name {
        "sensing" => Ok(adpm_scenarios::SENSING_DDDL.to_owned()),
        "receiver" => Ok(adpm_scenarios::receiver_dddl(
            adpm_scenarios::DEFAULT_GAIN_REQUIREMENT,
        )),
        "walkthrough" => Ok(adpm_scenarios::WALKTHROUGH_DDDL.to_owned()),
        other => Err(CliError::Usage(format!(
            "unknown builtin `{other}` (expected sensing, receiver, or walkthrough)"
        ))),
    }
}

/// Options for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// TCP port on loopback; 0 picks an ephemeral port.
    pub port: u16,
    /// Management mode (`λ`) for the hosted session.
    pub mode: ManagementMode,
    /// Journal every executed operation to this file; on restart the
    /// journal is recovered (replayed) before the server binds.
    pub journal: Option<PathBuf>,
    /// Whether the journal syncs each operation before its reply.
    pub fsync: FsyncPolicy,
    /// Ops between journal compactions (snapshot + rotate); 0 disables
    /// compaction and the journal grows without bound.
    pub compact_every: u64,
    /// Deterministic faults injected into every outgoing frame.
    pub fault_plan: Option<FaultPlan>,
    /// Silence before the server pings a quiet connection (milliseconds).
    pub heartbeat_ms: u64,
    /// Silence after which a connection is declared half-open and dropped
    /// (milliseconds).
    pub idle_timeout_ms: u64,
    /// Pre-create this many named sessions (`s1`..`sN`), each a fresh copy
    /// of the scenario with its own journal at `FILE.sK`.
    pub sessions: u32,
    /// Let clients create further named sessions with a `create` frame.
    pub allow_create: bool,
    /// Also serve a plaintext metrics exposition on this address (the
    /// `metrics on HOST:PORT` announce line carries the bound address).
    pub metrics_addr: Option<std::net::SocketAddr>,
    /// Spawn every hosted session with a negotiation engine: new
    /// violations trigger bounded viewpoint negotiation (policies cycle
    /// through the TeamSim roster) and clients may `propose` on a
    /// violated constraint to trigger one on demand.
    pub negotiate: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            port: 0,
            mode: ManagementMode::Adpm,
            journal: None,
            fsync: FsyncPolicy::Always,
            compact_every: 0,
            fault_plan: None,
            heartbeat_ms: 10_000,
            idle_timeout_ms: 30_000,
            sessions: 0,
            allow_create: false,
            metrics_addr: None,
            negotiate: false,
        }
    }
}

/// `adpm serve`: host a collaboration session for the scenario over the
/// JSONL wire protocol on loopback TCP.
///
/// `announce` is called with the `listening on 127.0.0.1:PORT` line as
/// soon as the listener is bound — the binary prints and flushes it so
/// scripts can scrape the ephemeral port — and the function then blocks
/// until a client sends a `shutdown` frame. With a journal configured, a
/// `recovered N operations` line is announced first (recovery replays the
/// journal's longest valid prefix before the server binds), followed by
/// the same lines of each pre-created named session, prefixed
/// `session <name>: `; a session created later prints them to stderr.
/// Returns a summary of the final design state.
///
/// # Errors
///
/// Returns a [`CliError`] for invalid scenarios, bind failures, an
/// unrecoverable journal, or any hosted session that closed before the
/// shutdown because a journal append failed or a command panicked.
pub fn serve(
    source: &str,
    options: &ServeOptions,
    announce: &mut dyn FnMut(&str),
) -> Result<String, CliError> {
    let scenario = compile_source(source)?;
    let (dpm, session) =
        served_session_state(&scenario, options, options.journal.clone(), 0, announce)?;
    let server_options = ServerOptions {
        heartbeat: std::time::Duration::from_millis(options.heartbeat_ms),
        idle_timeout: std::time::Duration::from_millis(options.idle_timeout_ms),
        fault_plan: options.fault_plan.clone(),
        allow_create: options.allow_create,
        metrics_addr: options.metrics_addr,
        ..ServerOptions::default()
    };
    // Recovery lines of named sessions wait here until the server is bound,
    // so pre-created sessions announce theirs before `listening on`; once
    // the buffer is gone, a session created by a client prints to stderr.
    let recovery_lines: Arc<Mutex<Option<Vec<String>>>> = Arc::new(Mutex::new(Some(Vec::new())));
    let factory: SessionFactory = {
        let options = options.clone();
        let recovery_lines = recovery_lines.clone();
        Box::new(move |name| {
            // A named session journals at the sibling path `FILE.<name>`
            // and folds its name into its own disk-fault stream.
            let journal = options
                .journal
                .as_ref()
                .map(|base| session_journal(base, name));
            let stream = name.bytes().fold(0u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
            let mut report = |line: &str| {
                let line = format!("session {name}: {line}");
                match recovery_lines
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .as_mut()
                {
                    Some(buffer) => buffer.push(line),
                    None => eprintln!("{line}"),
                }
            };
            served_session_state(&scenario, &options, journal, stream, &mut report)
                .map_err(|e| std::io::Error::other(e.to_string()))
        })
    };
    let precreate: Vec<String> = (1..=options.sessions).map(|i| format!("s{i}")).collect();
    let server = CollabServer::bind_registry(
        dpm,
        options.port,
        server_options,
        session,
        Some(factory),
        &precreate,
    )?;
    let buffered = recovery_lines
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take();
    for line in buffered.into_iter().flatten() {
        announce(&line);
    }
    announce(&format!("listening on {}", server.local_addr()));
    if let Some(addr) = server.metrics_addr() {
        announce(&format!("metrics on {addr}"));
    }
    let dpm = server.wait().map_err(|closed| {
        let why: Vec<String> = closed
            .iter()
            .map(|name| {
                let session = if name == DEFAULT_SESSION {
                    "the session".to_owned()
                } else {
                    format!("session {name}")
                };
                match &options.journal {
                    Some(base) => format!(
                        "{session} closed before shutdown; restart with --journal {} \
                         to recover its acknowledged operations",
                        session_journal(base, name).display()
                    ),
                    None => format!("{session} closed before shutdown after a command panicked"),
                }
            })
            .collect();
        CliError::SessionClosed(why.join("; "))
    })?;
    let network = dpm.network();
    let bound = network
        .property_ids()
        .filter(|id| network.is_bound(*id))
        .count();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "session closed: {} operations, {} bound properties, {} violations",
        dpm.operations_total(),
        bound,
        network.violated_constraints().len()
    );
    Ok(out)
}

/// Where a served session journals: the default session at `base`, a
/// named one at the sibling path `base.<name>`.
fn session_journal(base: &std::path::Path, name: &str) -> PathBuf {
    if name == DEFAULT_SESSION {
        base.to_path_buf()
    } else {
        PathBuf::from(format!("{}.{name}", base.display()))
    }
}

/// The DPM configuration of a served session: region propagation in ADPM
/// mode.
fn served_config(mode: ManagementMode) -> DpmConfig {
    match mode {
        ManagementMode::Adpm => DpmConfig::adpm(),
        ManagementMode::Conventional => DpmConfig::conventional(),
    }
}

/// The negotiation engine of a team of `designers` under the TeamSim
/// roster's default policies.
fn team_negotiation(designers: usize) -> NegotiationConfig {
    NegotiationConfig {
        policies: NegotiationPolicy::default_team(designers),
        ..NegotiationConfig::default()
    }
}

/// Builds the state for one session hosted by [`serve`]: a fresh
/// initialized copy of the scenario plus, when `journal` is set, a journal
/// there — recovered first if it already exists, with recovery lines
/// passed to `announce` — that draws disk faults from `fault_stream`.
fn served_session_state(
    scenario: &CompiledScenario,
    options: &ServeOptions,
    journal: Option<PathBuf>,
    fault_stream: u64,
    announce: &mut dyn FnMut(&str),
) -> Result<(DesignProcessManager, SessionOptions), CliError> {
    let mut dpm = scenario.build_dpm(served_config(options.mode));
    dpm.initialize();
    let mut session = SessionOptions {
        negotiation: options
            .negotiate
            .then(|| team_negotiation(dpm.designers().len())),
        ..SessionOptions::default()
    };
    if let Some(path) = journal {
        let resumed = if path.exists() {
            let report = recover(&path, &mut dpm)?;
            announce(&format!(
                "recovered {} operations from {}{}",
                report.ops,
                path.display(),
                if report.truncated_bytes > 0 {
                    " (discarded a torn suffix)"
                } else {
                    ""
                }
            ));
            for warning in &report.warnings {
                announce(&format!("recovery warning: {warning}"));
            }
            Some(report.journal_bytes)
        } else {
            None
        };
        let mut writer = JournalWriter::open(
            JournalConfig {
                fsync: options.fsync,
                compact_every: options.compact_every,
                ..JournalConfig::new(path)
            },
            &dpm,
            resumed,
        )?;
        if let Some(plan) = options.fault_plan.as_ref().filter(|p| p.has_disk_faults()) {
            writer = writer.with_disk_faults(DiskFaultInjector::new(plan, fault_stream));
        }
        session.journal = Some(writer);
    }
    Ok((dpm, session))
}

/// Options for [`client`].
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Designer index to hello as.
    pub designer: u32,
    /// Subscribe to the designer's notifications.
    pub subscribe: bool,
    /// Wait for at least this many notification frames before exiting;
    /// fewer within the timeout is an error (the smoke-test contract).
    pub expect_events: usize,
    /// How long to wait for the expected events, in milliseconds.
    pub timeout_ms: u64,
    /// Deterministic faults injected into this client's *outgoing* frames.
    pub fault_plan: Option<FaultPlan>,
    /// Bind to this named session after the hello (creating it where the
    /// server allows); `None` stays in the default session.
    pub session: Option<String>,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            designer: 0,
            subscribe: false,
            expect_events: 0,
            timeout_ms: 5_000,
            fault_plan: None,
            session: None,
        }
    }
}

fn parse_addr(addr: &str) -> Result<std::net::SocketAddr, CliError> {
    use std::net::ToSocketAddrs;
    addr.to_socket_addrs()
        .map_err(CliError::Io)?
        .next()
        .ok_or_else(|| CliError::Usage(format!("cannot resolve `{addr}`")))
}

/// Fails on a protocol-level `err` response; passes everything else.
fn expect_ok(frame: Frame) -> Result<Frame, CliError> {
    match frame {
        Frame::Error { message } => Err(CliError::Wire(WireError::protocol(message))),
        other => Ok(other),
    }
}

/// Like [`expect_ok`], but also fails on the typed `attach_rejected`
/// reply to a session bind.
fn expect_session(frame: Frame) -> Result<Frame, CliError> {
    match frame {
        Frame::AttachRejected { name, reason } => Err(CliError::Wire(WireError::protocol(
            format!("session `{name}` rejected: {reason}"),
        ))),
        other => expect_ok(other),
    }
}

/// Connects, classifying failure as a *retryable* transport error so
/// scripted callers (`adpm submit`) exit 75, not a generic failure.
fn connect_wire(addr: &str) -> Result<CollabClient, CliError> {
    CollabClient::connect(parse_addr(addr)?)
        .map_err(|e| CliError::Wire(WireError::io(format!("connect failed: {e}"))))
}

/// `adpm client`: connect to a collaboration server as a designer,
/// optionally subscribe, and collect notification frames. Every received
/// frame is echoed in wire format (one JSON object per line), so the
/// output is itself machine-readable.
///
/// # Errors
///
/// Returns a [`CliError`] for connection or protocol failures, and a
/// [`CliError::Wire`] when fewer than `expect_events` notifications
/// arrive within the timeout.
pub fn client(addr: &str, options: &ClientOptions) -> Result<String, CliError> {
    let mut connection = connect_wire(addr)?;
    if let Some(plan) = &options.fault_plan {
        connection.set_fault_injector(FaultInjector::new(plan, 0));
    }
    let mut out = String::new();
    let welcome = expect_ok(connection.request(&Frame::Hello {
        designer: options.designer,
    })?)?;
    out.push_str(&welcome.to_line());
    if let Some(name) = &options.session {
        let attached =
            expect_session(connection.request(&Frame::CreateSession { name: name.clone() })?)?;
        out.push_str(&attached.to_line());
    }
    if options.subscribe {
        let subscribed = expect_ok(connection.request(&Frame::Subscribe {
            all: false,
            resume_from: None,
        })?)?;
        out.push_str(&subscribed.to_line());
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(options.timeout_ms);
    let mut received = 0usize;
    while received < options.expect_events {
        let now = std::time::Instant::now();
        if now >= deadline {
            break;
        }
        match connection.next_event(deadline - now)? {
            None => break,
            Some(event) => {
                out.push_str(&event.to_line());
                received += 1;
            }
        }
    }
    let _ = connection.send(&Frame::Bye);
    if received < options.expect_events {
        return Err(CliError::Wire(WireError::timeout(format!(
            "expected {} notification(s), received {received}",
            options.expect_events
        ))));
    }
    Ok(out)
}

/// What [`submit_request`] should send.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitAction {
    /// Bind `object.property` to a value.
    Assign {
        /// Property as `object.property`.
        property: String,
        /// The value to bind.
        value: f64,
    },
    /// Unbind `object.property`.
    Unbind {
        /// Property as `object.property`.
        property: String,
    },
    /// Run verification, optionally limited to comma-joined constraint
    /// names.
    Verify {
        /// Comma-joined constraint names; empty for all.
        constraints: String,
    },
    /// Ask the server to shut the whole session down.
    Shutdown,
}

/// `adpm submit`: one scripted request against a collaboration server —
/// hello, optionally bind to a named `session`, submit (or shutdown),
/// print the response frames in wire format.
///
/// # Errors
///
/// Errors are classified for scripting (see [`CliError::exit_code`]):
/// connection failures and timeouts are *retryable* (exit 75); a
/// `rejected` verdict, a protocol-level `err` response (unknown names,
/// missing `--problem`, ...), and malformed frames are *fatal* (exit 65).
pub fn submit_request(
    addr: &str,
    designer: u32,
    problem: Option<&str>,
    session: Option<&str>,
    action: &SubmitAction,
) -> Result<String, CliError> {
    let mut connection = connect_wire(addr)?;
    let mut out = String::new();
    if let SubmitAction::Shutdown = action {
        connection.send(&Frame::Shutdown).map_err(CliError::Io)?;
        if let Some(reply) = connection.recv(std::time::Duration::from_secs(5))? {
            out.push_str(&reply.to_line());
        }
        return Ok(out);
    }
    let problem = problem
        .ok_or_else(|| CliError::Usage("submit needs --problem NAME".into()))?
        .to_owned();
    let op = match action.clone() {
        SubmitAction::Assign { property, value } => WireOp::Assign {
            problem,
            property,
            value,
        },
        SubmitAction::Unbind { property } => WireOp::Unbind { problem, property },
        SubmitAction::Verify { constraints } => WireOp::Verify {
            problem,
            constraints,
        },
        SubmitAction::Shutdown => unreachable!("handled above"),
    };
    let welcome = expect_ok(connection.request(&Frame::Hello { designer })?)?;
    out.push_str(&welcome.to_line());
    if let Some(name) = session {
        let attached = expect_session(connection.request(&Frame::CreateSession {
            name: name.to_owned(),
        })?)?;
        out.push_str(&attached.to_line());
    }
    let outcome = expect_ok(connection.request(&Frame::Submit { op, cid: None })?)?;
    out.push_str(&outcome.to_line());
    let _ = connection.send(&Frame::Bye);
    if let Frame::Rejected { reason, .. } = &outcome {
        // The operation was *validly refused* — retrying the identical
        // request will be refused again, so the failure is fatal.
        return Err(CliError::Wire(WireError::protocol(format!(
            "operation rejected: {reason}"
        ))));
    }
    Ok(out)
}

/// Options for [`top`].
#[derive(Debug, Clone)]
pub struct TopOptions {
    /// Poll only this session (attaching to it). `None` polls every
    /// hosted session plus the `*` rollup — the operator view a fresh
    /// (default-session) connection is entitled to.
    pub session: Option<String>,
    /// Refresh interval in milliseconds.
    pub interval_ms: u64,
    /// Emit raw `stats_reply` frames as JSONL instead of a table.
    pub json: bool,
    /// Stop after this many reports; 0 keeps polling until the server
    /// goes away.
    pub count: u64,
}

impl Default for TopOptions {
    fn default() -> Self {
        TopOptions {
            session: None,
            interval_ms: 1000,
            json: false,
            count: 0,
        }
    }
}

/// `adpm top`: poll a server with `stats` every `interval_ms` and render
/// each report as a per-session table (or as raw `stats_reply` JSONL with
/// `--json`). Each report is handed to `emit`; ops/s is computed
/// client-side from successive `session_ops` samples.
///
/// # Errors
///
/// Returns a [`CliError`] for connection failures, a rejected session
/// attach, or a server-side error reply (e.g. asking for all sessions from
/// a non-operator connection).
pub fn top(
    addr: &str,
    options: &TopOptions,
    emit: &mut dyn FnMut(&str),
) -> Result<String, CliError> {
    let mut connection = connect_wire(addr)?;
    if let Some(name) = &options.session {
        expect_session(connection.request(&Frame::AttachSession { name: name.clone() })?)?;
    }
    let request = Frame::Stats {
        all: options.session.is_none(),
    };
    let interval = std::time::Duration::from_millis(options.interval_ms.max(1));
    let mut previous: std::collections::BTreeMap<String, (u64, std::time::Instant)> =
        std::collections::BTreeMap::new();
    let mut reports = 0u64;
    loop {
        let polled_at = std::time::Instant::now();
        let batch = match connection
            .send(&request)
            .map_err(CliError::Io)
            .and_then(|()| read_stats_batch(&mut connection, STATS_TIMEOUT))
        {
            Ok(batch) => batch,
            // After at least one report, a dropped connection is the
            // server shutting down — a clean exit for a poller.
            Err(_) if reports > 0 => break,
            Err(e) => return Err(e),
        };
        reports += 1;
        if options.json {
            for frame in &batch {
                emit(frame.to_line().trim_end());
            }
        } else {
            emit(&render_top_table(&batch, &mut previous));
        }
        if options.count != 0 && reports >= options.count {
            break;
        }
        // Wait out the interval in `recv`, which answers the server's
        // pings, so an interval past the idle timeout keeps the link.
        let next = polled_at + interval;
        while let Some(left) = next.checked_duration_since(std::time::Instant::now()) {
            if left.is_zero() || connection.recv(left).is_err() {
                break;
            }
        }
    }
    Ok(String::new())
}

/// How long [`top`] waits for the reply to one `stats` poll.
const STATS_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);

/// Collects one stats report: every `stats_reply` up to the terminating
/// `end`. Event frames interleaved by a subscription are ignored; an
/// `err` frame fails the poll.
fn read_stats_batch(
    connection: &mut CollabClient,
    timeout: std::time::Duration,
) -> Result<Vec<Frame>, CliError> {
    let deadline = std::time::Instant::now() + timeout;
    let mut batch = Vec::new();
    loop {
        let now = std::time::Instant::now();
        if now >= deadline {
            return Err(CliError::Wire(WireError::timeout(
                "timed out waiting for a stats report",
            )));
        }
        match connection.recv(deadline - now)? {
            None => continue,
            Some(Frame::End) => return Ok(batch),
            Some(reply @ Frame::StatsReply { .. }) => batch.push(reply),
            Some(Frame::Error { message }) => {
                return Err(CliError::Wire(WireError::protocol(message)))
            }
            Some(_) => {}
        }
    }
}

/// Renders one stats report as a fixed-width table. `previous` carries
/// each session's last `session_ops` sample for the ops/s column.
fn render_top_table(
    batch: &[Frame],
    previous: &mut std::collections::BTreeMap<String, (u64, std::time::Instant)>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>5} {:>8} {:>9} {:>7} {:>7} {:>11} {:>7} {:>8}",
        "SESSION", "CONN", "OPS/S", "P99(US)", "DROPS", "RECONN", "JOURNAL(B)", "SHED", "EVENTS"
    );
    let now = std::time::Instant::now();
    for frame in batch {
        let Frame::StatsReply {
            session,
            connections,
            counters,
            events,
            p99_us,
            ..
        } = frame
        else {
            continue;
        };
        let ops = counters.get(Counter::SessionOps);
        let rate = match previous.insert(session.clone(), (ops, now)) {
            None => 0.0,
            Some((prev_ops, prev_at)) => {
                let dt = now.duration_since(prev_at).as_secs_f64();
                if dt > 0.0 {
                    ops.saturating_sub(prev_ops) as f64 / dt
                } else {
                    0.0
                }
            }
        };
        // SHED is work refused at the limits; a failed journal append is
        // not a shed, it closes the session.
        let shed = counters.get(Counter::OverloadSheds);
        let _ = writeln!(
            out,
            "{session:<16} {connections:>5} {rate:>8.1} {p99_us:>9} {:>7} {:>7} {:>11} {shed:>7} {events:>8}",
            counters.get(Counter::InboxDropped),
            counters.get(Counter::Reconnects),
            counters.get(Counter::JournalBytes),
        );
    }
    out
}

/// Parses and dispatches a full argument vector (without the program
/// name). Returns the text to print.
///
/// # Errors
///
/// Returns a [`CliError`] describing what went wrong; the binary prints it
/// to stderr and exits non-zero.
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    let mut it = args.iter();
    let command = it.next().map(String::as_str).unwrap_or("help");
    match command {
        "help" | "--help" | "-h" => Ok(USAGE.to_owned()),
        "builtin" => {
            let name = it
                .next()
                .ok_or_else(|| CliError::Usage("builtin needs a scenario name".into()))?;
            builtin(name)
        }
        "analyze" => {
            let path = it
                .next()
                .ok_or_else(|| CliError::Usage("analyze needs a trace file".into()))?;
            let rest = it.as_slice();
            let mut json = false;
            let mut vs: Option<&str> = None;
            let mut flags = Flags::new(rest);
            while let Some(flag) = flags.next() {
                match flag {
                    "--json" => json = true,
                    "--vs" => vs = Some(flags.value_of("a trace file")?),
                    _ => return Err(flags.unknown()),
                }
            }
            let trace = std::fs::read_to_string(path)?;
            match vs {
                Some(other) => {
                    if json {
                        return Err(CliError::Usage("--json and --vs cannot be combined".into()));
                    }
                    analyze_vs(&trace, &std::fs::read_to_string(other)?)
                }
                None => analyze(&trace, json),
            }
        }
        "diff-trace" => {
            let a = it
                .next()
                .ok_or_else(|| CliError::Usage("diff-trace needs a baseline trace".into()))?;
            let b = it
                .next()
                .ok_or_else(|| CliError::Usage("diff-trace needs a candidate trace".into()))?;
            let rest = it.as_slice();
            let mut thresholds = DiffThresholds::default();
            let mut flags = Flags::new(rest);
            while let Some(flag) = flags.next() {
                match flag {
                    "--abs" => thresholds.absolute = flags.number()?,
                    "--rel" => thresholds.relative = flags.parse_as("a fraction")?,
                    _ => return Err(flags.unknown()),
                }
            }
            diff_trace(
                &std::fs::read_to_string(a)?,
                &std::fs::read_to_string(b)?,
                &thresholds,
            )
        }
        "serve" => {
            let path = it
                .next()
                .ok_or_else(|| CliError::Usage("serve needs a scenario file".into()))?;
            let source = std::fs::read_to_string(path)?;
            let rest = it.as_slice();
            let options = parse_serve_options(rest)?;
            // Print the listening line eagerly so scripts can scrape the
            // ephemeral port while the server blocks.
            serve(&source, &options, &mut |line| {
                use std::io::Write as _;
                println!("{line}");
                let _ = std::io::stdout().flush();
            })
        }
        "client" => {
            let addr = it
                .next()
                .ok_or_else(|| CliError::Usage("client needs a server address".into()))?;
            let rest = it.as_slice();
            let options = parse_client_options(rest)?;
            client(addr, &options)
        }
        "submit" => {
            let addr = it
                .next()
                .ok_or_else(|| CliError::Usage("submit needs a server address".into()))?;
            let rest = it.as_slice();
            let (designer, problem, session, action) = parse_submit_options(rest)?;
            submit_request(
                addr,
                designer,
                problem.as_deref(),
                session.as_deref(),
                &action,
            )
        }
        "top" => {
            let addr = it
                .next()
                .ok_or_else(|| CliError::Usage("top needs a server address".into()))?;
            let rest = it.as_slice();
            let options = parse_top_options(rest)?;
            top(addr, &options, &mut |report| {
                use std::io::Write as _;
                println!("{report}");
                let _ = std::io::stdout().flush();
            })
        }
        "check" | "fmt" | "run" | "compare" | "explain" => {
            let path = it
                .next()
                .ok_or_else(|| CliError::Usage(format!("{command} needs a scenario file")))?;
            let source = std::fs::read_to_string(path)?;
            let rest = it.as_slice();
            match command {
                "check" => check(&source),
                "fmt" => fmt(&source),
                "run" => {
                    let options = parse_run_options(rest)?;
                    run(&source, &options)
                }
                "compare" => {
                    let mut seeds = 20;
                    let mut flags = Flags::new(rest);
                    while let Some(flag) = flags.next() {
                        match flag {
                            "--seeds" => seeds = flags.number()?,
                            _ => return Err(flags.unknown()),
                        }
                    }
                    compare(&source, seeds)
                }
                _ => {
                    let mut bindings = Vec::new();
                    let mut flags = Flags::new(rest);
                    while let Some(flag) = flags.next() {
                        match flag {
                            "--bind" => bindings.push(flags.value_of("obj.prop=value")?.to_owned()),
                            _ => return Err(flags.unknown()),
                        }
                    }
                    explain(&source, &bindings)
                }
            }
        }
        other => Err(CliError::Usage(format!(
            "unknown command `{other}` — try `adpm help`"
        ))),
    }
}

/// A cursor over a command's flags. It yields each flag in turn and reads
/// the flag's value, so every command words its usage errors alike:
/// ``FLAG needs a value``, ``FLAG expects a number, got `V` ``,
/// ``FLAG: why`` and ``unknown flag `FLAG` ``.
struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
    /// The flag most recently yielded by [`next`](Self::next).
    flag: &'a str,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags {
            args: args.iter(),
            flag: "",
        }
    }

    /// The next flag, or `None` once every argument is read.
    fn next(&mut self) -> Option<&'a str> {
        self.flag = self.args.next()?;
        Some(self.flag)
    }

    /// The current flag's value; a missing one is `FLAG needs {what}`.
    fn value_of(&mut self, what: &str) -> Result<&'a str, CliError> {
        let flag = self.flag;
        self.args
            .next()
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("{flag} needs {what}")))
    }

    /// The current flag's value.
    fn value(&mut self) -> Result<&'a str, CliError> {
        self.value_of("a value")
    }

    /// The current flag's value as `T`; one that does not parse is
    /// ``FLAG expects {what}, got `V` ``.
    fn parse_as<T: std::str::FromStr>(&mut self, what: &str) -> Result<T, CliError> {
        let value = self.value()?;
        value.parse().map_err(|_| self.expected(what, value))
    }

    /// The current flag's value as a number.
    fn number<T: std::str::FromStr>(&mut self) -> Result<T, CliError> {
        self.parse_as("a number")
    }

    /// The current flag's value parsed by `T`'s own rules, whose error
    /// follows the flag: `FLAG: why`.
    fn parsed<T>(&mut self) -> Result<T, CliError>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        let value = self.value()?;
        value
            .parse()
            .map_err(|e| CliError::Usage(format!("{}: {e}", self.flag)))
    }

    /// The current flag's value as a management mode.
    fn mode(&mut self) -> Result<ManagementMode, CliError> {
        match self.value()? {
            "adpm" => Ok(ManagementMode::Adpm),
            "conventional" | "conv" => Ok(ManagementMode::Conventional),
            other => Err(self.expected("adpm or conventional", other)),
        }
    }

    fn expected(&self, what: &str, value: &str) -> CliError {
        CliError::Usage(format!("{} expects {what}, got `{value}`", self.flag))
    }

    /// The current flag is not one the command takes.
    fn unknown(&self) -> CliError {
        CliError::Usage(format!("unknown flag `{}`", self.flag))
    }
}

fn parse_run_options(args: &[String]) -> Result<RunOptions, CliError> {
    let mut options = RunOptions::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--mode" => options.mode = flags.mode()?,
            "--seed" => options.seed = flags.number()?,
            "--max-ops" => options.max_operations = flags.number()?,
            "--csv" => options.csv = true,
            "--trace" => options.trace = Some(PathBuf::from(flags.value()?)),
            "--metrics" => options.metrics = true,
            "--concurrent" => options.concurrent = true,
            "--turn-barrier" => options.turn_barrier = true,
            "--remote" => options.remote = true,
            "--negotiate" => options.negotiate = true,
            "--fault-plan" => options.fault_plan = Some(flags.parsed()?),
            "--propagation" => options.propagation = flags.parsed()?,
            other => match other.strip_prefix("--propagation=") {
                Some(v) => {
                    options.propagation = v
                        .parse()
                        .map_err(|e| CliError::Usage(format!("--propagation: {e}")))?;
                }
                None => return Err(flags.unknown()),
            },
        }
    }
    Ok(options)
}

fn parse_serve_options(args: &[String]) -> Result<ServeOptions, CliError> {
    let mut options = ServeOptions::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--port" => options.port = flags.number()?,
            "--mode" => options.mode = flags.mode()?,
            "--journal" => options.journal = Some(PathBuf::from(flags.value()?)),
            "--fsync" => options.fsync = flags.parsed()?,
            "--compact-every" => options.compact_every = flags.number()?,
            "--fault-plan" => options.fault_plan = Some(flags.parsed()?),
            "--heartbeat-ms" => options.heartbeat_ms = flags.number()?,
            "--idle-timeout-ms" => options.idle_timeout_ms = flags.number()?,
            "--sessions" => options.sessions = flags.number()?,
            "--allow-create" => options.allow_create = true,
            "--metrics-addr" => options.metrics_addr = Some(parse_addr(flags.value()?)?),
            "--negotiate" => options.negotiate = true,
            _ => return Err(flags.unknown()),
        }
    }
    Ok(options)
}

fn parse_top_options(args: &[String]) -> Result<TopOptions, CliError> {
    let mut options = TopOptions::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--session" => options.session = Some(flags.value()?.to_owned()),
            "--interval" => options.interval_ms = flags.number()?,
            "--json" => options.json = true,
            "--count" => options.count = flags.number()?,
            _ => return Err(flags.unknown()),
        }
    }
    Ok(options)
}

fn parse_client_options(args: &[String]) -> Result<ClientOptions, CliError> {
    let mut options = ClientOptions::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--designer" => options.designer = flags.number()?,
            "--subscribe" => options.subscribe = true,
            "--expect-events" => options.expect_events = flags.number()?,
            "--timeout-ms" => options.timeout_ms = flags.number()?,
            "--session" => options.session = Some(flags.value()?.to_owned()),
            "--fault-plan" => options.fault_plan = Some(flags.parsed()?),
            _ => return Err(flags.unknown()),
        }
    }
    Ok(options)
}

fn parse_submit_options(
    args: &[String],
) -> Result<(u32, Option<String>, Option<String>, SubmitAction), CliError> {
    let mut designer = 0u32;
    let mut problem: Option<String> = None;
    let mut session: Option<String> = None;
    let mut action: Option<SubmitAction> = None;
    let mut constraints = String::new();
    let set_action = |action: &mut Option<SubmitAction>, new: SubmitAction| {
        if action.is_some() {
            return Err(CliError::Usage(
                "submit takes exactly one of --assign, --unbind, --verify, --shutdown".into(),
            ));
        }
        *action = Some(new);
        Ok(())
    };
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--designer" => designer = flags.number()?,
            "--problem" => problem = Some(flags.value()?.to_owned()),
            "--session" => session = Some(flags.value()?.to_owned()),
            "--assign" => {
                let binding = flags.value()?;
                let (property, raw) = binding.split_once('=').ok_or_else(|| {
                    CliError::Usage(format!("--assign expects obj.prop=value, got `{binding}`"))
                })?;
                let value: f64 = raw
                    .parse()
                    .map_err(|_| CliError::Usage(format!("`{raw}` is not a number")))?;
                set_action(
                    &mut action,
                    SubmitAction::Assign {
                        property: property.to_owned(),
                        value,
                    },
                )?;
            }
            "--unbind" => {
                let property = flags.value()?.to_owned();
                set_action(&mut action, SubmitAction::Unbind { property })?;
            }
            "--verify" => set_action(
                &mut action,
                SubmitAction::Verify {
                    constraints: String::new(),
                },
            )?,
            "--constraints" => flags.value()?.clone_into(&mut constraints),
            "--shutdown" => set_action(&mut action, SubmitAction::Shutdown)?,
            _ => return Err(flags.unknown()),
        }
    }
    let mut action = action.ok_or_else(|| {
        CliError::Usage("submit needs one of --assign, --unbind, --verify, --shutdown".into())
    })?;
    if let SubmitAction::Verify {
        constraints: ref mut list,
    } = action
    {
        *list = constraints;
    } else if !constraints.is_empty() {
        return Err(CliError::Usage(
            "--constraints only applies to --verify".into(),
        ));
    }
    Ok((designer, problem, session, action))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adpm_observe::TraceLine;

    const MINI: &str = r#"
        object rx {
            property P-front : interval(0, 300);
            property P-ser : interval(0, 300);
        }
        constraint power: rx.P-front + rx.P-ser <= 200;
        problem top { constraints: power; designer 0; }
        problem fe under top { outputs: rx.P-front; designer 0; }
        problem de under top { outputs: rx.P-ser; designer 1; }
    "#;

    #[test]
    fn check_reports_sizes_and_consistency() {
        let out = check(MINI).expect("valid scenario");
        assert!(out.contains("2 properties"));
        assert!(out.contains("1 constraints"));
        assert!(out.contains("OK: the scenario is consistent"));
    }

    #[test]
    fn check_flags_overconstrained_scenarios() {
        let broken = r#"
            object o { property x : interval(0, 10); }
            constraint lo: o.x >= 8;
            constraint hi: o.x <= 2;
            problem p { outputs: o.x; designer 0; }
        "#;
        let out = check(broken).expect("compiles fine");
        assert!(
            out.contains("WARNING: the scenario is over-constrained"),
            "{out}"
        );
    }

    #[test]
    fn run_completes_the_mini_scenario_in_both_modes() {
        for mode in [ManagementMode::Adpm, ManagementMode::Conventional] {
            let out = run(
                MINI,
                &RunOptions {
                    mode,
                    seed: 1,
                    max_operations: 500,
                    ..RunOptions::default()
                },
            )
            .expect("valid scenario");
            assert!(out.contains("completed = true"), "{mode:?}: {out}");
            assert!(out.contains("operations per designer:"));
        }
    }

    #[test]
    fn run_csv_emits_per_operation_rows() {
        let out = run(
            MINI,
            &RunOptions {
                csv: true,
                seed: 1,
                ..RunOptions::default()
            },
        )
        .expect("valid scenario");
        assert!(out.starts_with("op,kind,"));
        assert!(out.lines().count() > 1);
    }

    #[test]
    fn compare_prints_ratio_lines() {
        let out = compare(MINI, 4).expect("valid scenario");
        assert!(out.contains("operations"));
        assert!(out.contains("ratio"));
    }

    #[test]
    fn explain_reports_no_violations_when_consistent() {
        let out = explain(MINI, &["rx.P-front=100".into()]).expect("valid");
        assert!(out.contains("no violations"));
    }

    #[test]
    fn explain_explains_violations() {
        let out = explain(MINI, &["rx.P-front=150".into(), "rx.P-ser=100".into()]).expect("valid");
        assert!(out.contains("power is violated"), "{out}");
        assert!(out.contains("required"), "{out}");
    }

    #[test]
    fn explain_reports_conflicts_on_unbounded_domains() {
        // `1e999` parses as infinity: x starts on the whole real line.
        let source = r#"
            object o { property x : interval(-1e999, 1e999); }
            constraint Lo: o.x <= 5;
            constraint Hi: o.x >= 7;
            problem top { constraints: Lo, Hi; designer 0; }
            problem p under top { outputs: o.x; designer 0; }
        "#;
        let out = explain(source, &[]).expect("valid");
        assert!(out.contains("Hi is violated"), "{out}");
        assert!(out.contains("current [-inf, 5.000000]"), "{out}");
        assert!(!out.contains("Lo is violated"), "{out}");
    }

    #[test]
    fn explain_rejects_malformed_bindings() {
        assert!(matches!(
            explain(MINI, &["nonsense".into()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            explain(MINI, &["rx.ghost=1".into()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            explain(MINI, &["rx.P-front=banana".into()]),
            Err(CliError::Usage(_))
        ));
        // Out-of-range values are re-contextualized with the property path.
        let err = explain(MINI, &["rx.P-front=9999".into()]).unwrap_err();
        assert!(
            err.to_string().contains("cannot bind `rx.P-front`"),
            "{err}"
        );
    }

    #[test]
    fn fmt_normalizes_and_reparses() {
        let out = fmt(MINI).expect("valid");
        assert!(out.contains("object rx {"));
        assert!(adpm_dddl::parse(&out).is_ok());
    }

    #[test]
    fn builtin_exposes_the_paper_scenarios() {
        for name in ["sensing", "receiver", "walkthrough"] {
            let source = builtin(name).expect("known builtin");
            assert!(adpm_dddl::compile_source(&source).is_ok(), "{name}");
        }
        assert!(matches!(builtin("nope"), Err(CliError::Usage(_))));
    }

    #[test]
    fn dispatch_help_and_unknowns() {
        let out = dispatch(&["help".into()]).expect("help works");
        assert!(out.contains("USAGE"));
        assert!(dispatch(&[]).expect("defaults to help").contains("USAGE"));
        assert!(matches!(
            dispatch(&["frobnicate".into()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            dispatch(&["check".into()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            dispatch(&["check".into(), "/no/such/file.dddl".into()]),
            Err(CliError::Io(_))
        ));
    }

    #[test]
    fn dispatch_runs_against_a_real_file() {
        let dir = std::env::temp_dir().join("adpm-cli-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("mini.dddl");
        std::fs::write(&path, MINI).expect("write scenario");
        let path = path.to_string_lossy().to_string();
        let out = dispatch(&["check".into(), path.clone()]).expect("check works");
        assert!(out.contains("OK"));
        let out = dispatch(&[
            "run".into(),
            path.clone(),
            "--mode".into(),
            "conventional".into(),
            "--seed".into(),
            "3".into(),
        ])
        .expect("run works");
        assert!(out.contains("completed = true"));
        let out = dispatch(&["compare".into(), path.clone(), "--seeds".into(), "3".into()])
            .expect("compare works");
        assert!(out.contains("ratio"));
        let out = dispatch(&[
            "explain".into(),
            path,
            "--bind".into(),
            "rx.P-front=150".into(),
            "--bind".into(),
            "rx.P-ser=100".into(),
        ])
        .expect("explain works");
        assert!(out.contains("violated"));
    }

    #[test]
    fn run_with_metrics_appends_the_counter_block() {
        let out = run(
            MINI,
            &RunOptions {
                seed: 1,
                metrics: true,
                ..RunOptions::default()
            },
        )
        .expect("valid scenario");
        assert!(out.contains("counters:"), "{out}");
        assert!(out.contains("operations"), "{out}");
        assert!(out.contains("waves"), "{out}");
    }

    #[test]
    fn run_with_trace_writes_schema_valid_jsonl() {
        let dir = std::env::temp_dir().join("adpm-cli-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("mini-trace.jsonl");
        let out = run(
            MINI,
            &RunOptions {
                seed: 1,
                trace: Some(path.clone()),
                ..RunOptions::default()
            },
        )
        .expect("valid scenario");
        assert!(out.contains("trace written to"), "{out}");
        let text = std::fs::read_to_string(&path).expect("trace file");
        let lines = adpm_observe::parse_trace(&text).expect("schema-valid JSONL");
        assert_eq!(lines.first().map(TraceLine::tag), Some("run_start"));
        assert_eq!(lines.last().map(TraceLine::tag), Some("counters"));
        assert!(lines.iter().any(|l| l.tag() == "summary"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dispatch_accepts_trace_and_metrics_flags() {
        let dir = std::env::temp_dir().join("adpm-cli-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let scenario = dir.join("mini-flags.dddl");
        std::fs::write(&scenario, MINI).expect("write scenario");
        let trace = dir.join("mini-flags.jsonl");
        let out = dispatch(&[
            "run".into(),
            scenario.to_string_lossy().into_owned(),
            "--metrics".into(),
            "--trace".into(),
            trace.to_string_lossy().into_owned(),
        ])
        .expect("run works");
        assert!(out.contains("counters:"), "{out}");
        assert!(trace.exists());
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn run_option_parsing_errors() {
        assert!(matches!(
            parse_run_options(&["--mode".into(), "quantum".into()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_run_options(&["--seed".into(), "NaN!".into()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_run_options(&["--wat".into()]),
            Err(CliError::Usage(_))
        ));
        let options =
            parse_run_options(&["--seed".into(), "9".into(), "--max-ops".into(), "10".into()])
                .expect("valid options");
        assert_eq!(options.seed, 9);
        assert_eq!(options.max_operations, 10);
        assert_eq!(options.propagation, PropagationKind::Full);
    }

    #[test]
    fn run_option_parsing_accepts_propagation_in_both_forms() {
        let options = parse_run_options(&["--propagation".into(), "incremental".into()])
            .expect("valid options");
        assert_eq!(options.propagation, PropagationKind::Incremental);
        let options =
            parse_run_options(&["--propagation=incremental".into()]).expect("valid options");
        assert_eq!(options.propagation, PropagationKind::Incremental);
        let options = parse_run_options(&["--propagation=full".into()]).expect("valid options");
        assert_eq!(options.propagation, PropagationKind::Full);
        let err = parse_run_options(&["--propagation".into(), "magic".into()]).unwrap_err();
        assert!(err.to_string().contains("--propagation"), "{err}");
        assert!(matches!(
            parse_run_options(&["--propagation=".into()]),
            Err(CliError::Usage(_))
        ));
    }

    /// Runs the mini scenario with a trace sink and returns the trace text.
    fn mini_trace(seed: u64) -> String {
        let dir = std::env::temp_dir().join("adpm-cli-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join(format!(
            "mini-analyze-{seed}-{:?}.jsonl",
            std::thread::current().id()
        ));
        run(
            MINI,
            &RunOptions {
                seed,
                trace: Some(path.clone()),
                ..RunOptions::default()
            },
        )
        .expect("valid scenario");
        let text = std::fs::read_to_string(&path).expect("trace file");
        std::fs::remove_file(&path).ok();
        text
    }

    #[test]
    fn analyze_renders_hot_spot_tables() {
        let trace = mini_trace(1);
        let out = analyze(&trace, false).expect("valid trace");
        assert!(out.contains("totals"), "{out}");
        assert!(out.contains("constraint hot-spots"), "{out}");
        assert!(out.contains("power"), "{out}");
        assert!(out.contains("property attribution"), "{out}");
        assert!(out.contains("designer profiles"), "{out}");
        assert!(out.contains("span timings"), "{out}");
    }

    #[test]
    fn analyze_json_round_trips_through_the_parser() {
        let trace = mini_trace(1);
        let out = analyze(&trace, true).expect("valid trace");
        let lines = adpm_observe::parse_trace(&out).expect("analysis JSONL parses");
        assert!(lines.iter().any(|l| l.tag() == "a_total"));
        assert!(lines.iter().any(|l| l.tag() == "a_constraint"));
    }

    #[test]
    fn analyze_vs_prints_a_mode_comparison() {
        let a = mini_trace(1);
        let out = analyze_vs(&a, &a).expect("valid traces");
        assert!(out.contains("operations"), "{out}");
        assert!(matches!(
            analyze("not json", false),
            Err(CliError::Trace(_))
        ));
    }

    #[test]
    fn diff_trace_passes_identical_and_fails_doctored_traces() {
        let trace = mini_trace(1);
        let clean = diff_trace(&trace, &trace, &DiffThresholds::default())
            .expect("identical traces never regress");
        assert!(clean.contains("0 regression(s)"), "{clean}");

        // Inflate the summary's evaluation count to fake a regression.
        let evals_field = trace
            .lines()
            .find(|l| l.contains("\"t\":\"summary\""))
            .and_then(|l| {
                l.split("\"evaluations\":")
                    .nth(1)
                    .and_then(|rest| rest.split(&[',', '}'][..]).next())
            })
            .expect("summary has an evaluation count")
            .to_owned();
        let doctored = trace.replace(
            &format!("\"evaluations\":{evals_field}"),
            "\"evaluations\":999999",
        );
        match diff_trace(&trace, &doctored, &DiffThresholds::default()) {
            Err(CliError::Regression(report)) => {
                assert!(report.contains("REGRESSION"), "{report}");
                assert!(report.contains("evaluations"), "{report}");
            }
            other => panic!("expected a regression, got {other:?}"),
        }
        // Generous thresholds absorb the same delta.
        let forgiving = DiffThresholds {
            absolute: 10_000_000,
            relative: 0.0,
        };
        assert!(diff_trace(&trace, &doctored, &forgiving).is_ok());
    }

    #[test]
    fn dispatch_analyze_and_diff_trace_work_end_to_end() {
        let dir = std::env::temp_dir().join("adpm-cli-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("dispatch-analyze.jsonl");
        std::fs::write(&path, mini_trace(2)).expect("write trace");
        let path_str = path.to_string_lossy().to_string();
        let out = dispatch(&["analyze".into(), path_str.clone()]).expect("analyze works");
        assert!(out.contains("constraint hot-spots"), "{out}");
        let out = dispatch(&["analyze".into(), path_str.clone(), "--json".into()])
            .expect("analyze --json works");
        assert!(adpm_observe::parse_trace(&out).is_ok());
        let out = dispatch(&[
            "diff-trace".into(),
            path_str.clone(),
            path_str.clone(),
            "--abs".into(),
            "5".into(),
            "--rel".into(),
            "0.1".into(),
        ])
        .expect("self-diff passes");
        assert!(out.contains("0 regression(s)"), "{out}");
        assert!(matches!(
            dispatch(&["analyze".into()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            dispatch(&["diff-trace".into(), path_str.clone()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            dispatch(&[
                "analyze".into(),
                path_str.clone(),
                "--json".into(),
                "--vs".into(),
                path_str
            ]),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_concurrent_completes_and_reports_the_driver() {
        let out = run(
            MINI,
            &RunOptions {
                seed: 1,
                max_operations: 500,
                concurrent: true,
                turn_barrier: true,
                ..RunOptions::default()
            },
        )
        .expect("valid scenario");
        assert!(out.contains("(concurrent, turn barrier)"), "{out}");
        assert!(out.contains("completed = true"), "{out}");
    }

    #[test]
    fn run_negotiate_implies_concurrent_and_reports_the_driver() {
        let out = run(
            MINI,
            &RunOptions {
                seed: 1,
                max_operations: 500,
                turn_barrier: true,
                negotiate: true,
                ..RunOptions::default()
            },
        )
        .expect("valid scenario");
        assert!(
            out.contains("(concurrent, turn barrier, negotiation)"),
            "{out}"
        );
        assert!(out.contains("completed = true"), "{out}");
    }

    #[test]
    fn serve_client_submit_end_to_end_over_loopback() {
        let (addr_tx, addr_rx) = std::sync::mpsc::channel::<String>();
        let server = std::thread::spawn(move || {
            serve(MINI, &ServeOptions::default(), &mut |line| {
                let addr = line.strip_prefix("listening on ").expect("announce");
                addr_tx.send(addr.to_owned()).expect("send addr");
            })
        });
        let addr = addr_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("server announces its address");

        // Designer 1 (owns rx.P-ser) subscribes in a background thread,
        // waiting for one notification.
        let watcher_addr = addr.clone();
        let watcher = std::thread::spawn(move || {
            client(
                &watcher_addr,
                &ClientOptions {
                    designer: 1,
                    subscribe: true,
                    expect_events: 1,
                    timeout_ms: 10_000,
                    ..ClientOptions::default()
                },
            )
        });
        // Give the watcher a moment to get its subscription in.
        std::thread::sleep(std::time::Duration::from_millis(200));

        // Designer 0 binds rx.P-front; the shared `power` constraint
        // narrows rx.P-ser, which the watcher is interested in.
        let out = submit_request(
            &addr,
            0,
            Some("fe"),
            None,
            &SubmitAction::Assign {
                property: "rx.P-front".into(),
                value: 150.0,
            },
        )
        .expect("submit works");
        assert!(out.contains("\"t\":\"executed\""), "{out}");

        let watched = watcher
            .join()
            .expect("watcher join")
            .expect("event arrives");
        assert!(watched.contains("\"t\":\"event\""), "{watched}");

        let bye = submit_request(&addr, 0, None, None, &SubmitAction::Shutdown).expect("shutdown");
        assert!(bye.contains("\"t\":\"bye\""), "{bye}");
        let summary = server.join().expect("server join").expect("serve returns");
        assert!(
            summary.contains("session closed: 1 operations"),
            "{summary}"
        );
    }

    #[test]
    fn serve_hosts_isolated_named_sessions() {
        let (addr, _lines, server) = spawn_serve(ServeOptions {
            sessions: 2,
            ..ServeOptions::default()
        });
        // The same property binds to *different* values in s1 and s2, and
        // both land as history seq 1 — each session owns a fresh copy of
        // the scenario.
        let out = submit_request(
            &addr,
            0,
            Some("fe"),
            Some("s1"),
            &SubmitAction::Assign {
                property: "rx.P-front".into(),
                value: 150.0,
            },
        )
        .expect("s1 submit");
        assert!(out.contains("\"t\":\"session\",\"name\":\"s1\""), "{out}");
        assert!(out.contains("\"t\":\"executed\",\"seq\":1"), "{out}");
        let out = submit_request(
            &addr,
            0,
            Some("fe"),
            Some("s2"),
            &SubmitAction::Assign {
                property: "rx.P-front".into(),
                value: 100.0,
            },
        )
        .expect("s2 submit");
        assert!(out.contains("\"t\":\"executed\",\"seq\":1"), "{out}");
        // Without --allow-create, an unknown session name is a typed
        // rejection — fatal for scripting, exit 65.
        let err = submit_request(
            &addr,
            0,
            Some("fe"),
            Some("ghost"),
            &SubmitAction::Assign {
                property: "rx.P-front".into(),
                value: 1.0,
            },
        )
        .expect_err("server does not create sessions");
        assert_eq!(err.exit_code(), 65);
        assert!(err.to_string().contains("ghost"), "{err}");
        submit_request(&addr, 0, None, None, &SubmitAction::Shutdown).expect("shutdown");
        // Both operations landed in named sessions, so the default
        // session's closing summary stays empty.
        let summary = server.join().expect("join").expect("serve returns");
        assert!(
            summary.contains("session closed: 0 operations"),
            "{summary}"
        );
    }

    #[test]
    fn submit_option_parsing() {
        let (designer, problem, session, action) = parse_submit_options(&[
            "--designer".into(),
            "1".into(),
            "--problem".into(),
            "fe".into(),
            "--session".into(),
            "team-a".into(),
            "--assign".into(),
            "rx.P-front=150".into(),
        ])
        .expect("valid options");
        assert_eq!(designer, 1);
        assert_eq!(problem.as_deref(), Some("fe"));
        assert_eq!(session.as_deref(), Some("team-a"));
        assert_eq!(
            action,
            SubmitAction::Assign {
                property: "rx.P-front".into(),
                value: 150.0
            }
        );
        let (_, _, _, action) = parse_submit_options(&[
            "--verify".into(),
            "--constraints".into(),
            "power".into(),
            "--problem".into(),
            "top".into(),
        ])
        .expect("valid options");
        assert_eq!(
            action,
            SubmitAction::Verify {
                constraints: "power".into()
            }
        );
        assert!(matches!(parse_submit_options(&[]), Err(CliError::Usage(_))));
        assert!(matches!(
            parse_submit_options(&["--assign".into(), "nonsense".into()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_submit_options(&[
                "--assign".into(),
                "rx.P-front=1".into(),
                "--shutdown".into()
            ]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_submit_options(&[
                "--unbind".into(),
                "rx.P-front".into(),
                "--constraints".into(),
                "power".into()
            ]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn client_and_serve_option_parsing() {
        let options = parse_client_options(&[
            "--designer".into(),
            "2".into(),
            "--subscribe".into(),
            "--expect-events".into(),
            "3".into(),
            "--timeout-ms".into(),
            "1234".into(),
        ])
        .expect("valid options");
        assert_eq!(options.designer, 2);
        assert!(options.subscribe);
        assert_eq!(options.expect_events, 3);
        assert_eq!(options.timeout_ms, 1234);
        assert!(matches!(
            parse_client_options(&["--wat".into()]),
            Err(CliError::Usage(_))
        ));
        let options =
            parse_client_options(&["--session".into(), "team-a".into()]).expect("valid options");
        assert_eq!(options.session.as_deref(), Some("team-a"));
        let options = parse_serve_options(&[
            "--port".into(),
            "0".into(),
            "--mode".into(),
            "conventional".into(),
            "--sessions".into(),
            "3".into(),
            "--allow-create".into(),
        ])
        .expect("valid options");
        assert_eq!(options.port, 0);
        assert_eq!(options.mode, ManagementMode::Conventional);
        assert_eq!(options.sessions, 3);
        assert!(options.allow_create);
        assert!(matches!(
            parse_serve_options(&["--port".into(), "banana".into()]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn client_fails_cleanly_when_no_server_listens() {
        // Bind-then-drop to get a port nothing listens on.
        let port = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").port()
        };
        let err = client(&format!("127.0.0.1:{port}"), &ClientOptions::default())
            .expect_err("nothing listening");
        assert!(matches!(err, CliError::Io(_) | CliError::Wire(_)));
    }

    /// Spawns [`serve`] on an ephemeral port, returning the scraped
    /// address, every announce line, and the join handle.
    #[allow(clippy::type_complexity)]
    fn spawn_serve(
        options: ServeOptions,
    ) -> (
        String,
        std::sync::mpsc::Receiver<String>,
        std::thread::JoinHandle<Result<String, CliError>>,
    ) {
        let (line_tx, line_rx) = std::sync::mpsc::channel::<String>();
        let server = std::thread::spawn(move || {
            serve(MINI, &options, &mut |line| {
                line_tx.send(line.to_owned()).expect("send announce");
            })
        });
        let addr = loop {
            let line = line_rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("server announces");
            if let Some(addr) = line.strip_prefix("listening on ") {
                break addr.to_owned();
            }
        };
        (addr, line_rx, server)
    }

    #[test]
    fn top_json_reports_per_session_counters_over_loopback() {
        let (addr, _lines, server) = spawn_serve(ServeOptions {
            sessions: 3,
            ..ServeOptions::default()
        });
        // One operation in s1, two in s2, none in s3.
        for (designer, problem, session, property, value) in [
            (0, "fe", "s1", "rx.P-front", 150.0),
            (0, "fe", "s2", "rx.P-front", 100.0),
            (1, "de", "s2", "rx.P-ser", 50.0),
        ] {
            submit_request(
                &addr,
                designer,
                Some(problem),
                Some(session),
                &SubmitAction::Assign {
                    property: property.into(),
                    value,
                },
            )
            .expect("submit");
        }
        let mut lines: Vec<String> = Vec::new();
        top(
            &addr,
            &TopOptions {
                json: true,
                count: 3,
                interval_ms: 50,
                ..TopOptions::default()
            },
            &mut |line| lines.push(line.to_owned()),
        )
        .expect("top");
        // Three polls, each one row per hosted session plus the rollup.
        assert_eq!(lines.len(), 15, "{lines:?}");
        for batch in lines.chunks(5) {
            let mut ops = std::collections::BTreeMap::new();
            for line in batch {
                assert!(!line.contains("\"watch\""), "{line}");
                let frame = Frame::parse_line(&format!("{line}\n")).expect("stats_reply parses");
                let Frame::StatsReply {
                    session, counters, ..
                } = frame
                else {
                    panic!("expected stats_reply, got {line}");
                };
                ops.insert(session, counters.get(Counter::SessionOps));
            }
            let sessions: Vec<&str> = ops.keys().map(String::as_str).collect();
            assert_eq!(sessions, vec!["*", "default", "s1", "s2", "s3"]);
            assert_eq!(ops["s1"], 1);
            assert_eq!(ops["s2"], 2);
            assert_eq!(ops["s3"], 0);
            assert!(ops["*"] >= 3, "the rollup aggregates every session");
        }
        submit_request(&addr, 0, None, None, &SubmitAction::Shutdown).expect("shutdown");
        server.join().expect("join").expect("serve returns");
    }

    #[test]
    fn serve_announces_and_serves_the_metrics_exposition() {
        let (addr, lines, server) = spawn_serve(ServeOptions {
            metrics_addr: Some("127.0.0.1:0".parse().expect("addr")),
            ..ServeOptions::default()
        });
        // `metrics on` is announced right after `listening on`, which
        // spawn_serve already consumed.
        let metrics = loop {
            let line = lines
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("metrics announce");
            if let Some(a) = line.strip_prefix("metrics on ") {
                break a.to_owned();
            }
        };
        submit_request(
            &addr,
            0,
            Some("fe"),
            None,
            &SubmitAction::Assign {
                property: "rx.P-front".into(),
                value: 150.0,
            },
        )
        .expect("submit");
        let mut body = String::new();
        let mut scrape = std::net::TcpStream::connect(&metrics).expect("connect scrape");
        std::io::Read::read_to_string(&mut scrape, &mut body).expect("read scrape");
        let parsed = adpm_observe::parse_exposition(&body);
        assert_eq!(parsed["default"].get(Counter::SessionOps), 1, "{body}");
        assert!(parsed.contains_key("*"), "the rollup is exposed");
        submit_request(&addr, 0, None, None, &SubmitAction::Shutdown).expect("shutdown");
        server.join().expect("join").expect("serve returns");
    }

    #[test]
    fn top_option_parsing() {
        let options = parse_top_options(&[
            "--session".into(),
            "s1".into(),
            "--interval".into(),
            "250".into(),
            "--json".into(),
            "--count".into(),
            "3".into(),
        ])
        .expect("valid options");
        assert_eq!(options.session.as_deref(), Some("s1"));
        assert_eq!(options.interval_ms, 250);
        assert!(options.json);
        assert_eq!(options.count, 3);
        assert!(parse_top_options(&["--bogus".into()]).is_err());
        let defaults = parse_top_options(&[]).expect("empty is fine");
        assert_eq!(defaults.interval_ms, 1000);
        assert_eq!(defaults.count, 0);
    }

    #[test]
    fn top_table_renders_per_session_rows() {
        use adpm_observe::CounterSnapshot;
        let reply = Frame::StatsReply {
            session: "default".into(),
            connections: 2,
            counters: Box::new(CounterSnapshot::from_fn(|c| match c {
                Counter::SessionOps => 10,
                Counter::InboxDropped => 3,
                Counter::JournalBytes => 4096,
                Counter::OverloadSheds => 5,
                Counter::JournalDegradations => 6,
                _ => 0,
            })),
            events: 7,
            p50_us: 10,
            p90_us: 20,
            p99_us: 30,
        };
        let mut previous = std::collections::BTreeMap::new();
        let table = render_top_table(std::slice::from_ref(&reply), &mut previous);
        let header = table.lines().next().expect("header");
        for column in [
            "SESSION",
            "CONN",
            "OPS/S",
            "P99(US)",
            "DROPS",
            "JOURNAL(B)",
            "SHED",
        ] {
            assert!(header.contains(column), "{header}");
        }
        let row = table.lines().nth(1).expect("row");
        // SHED = overload_sheds (5) alone; journal_degradations (6) is
        // not a shed.
        let cells: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cells[7], "5", "{row}");
        for cell in ["default", "2", "30", "3", "4096", "7"] {
            assert!(row.contains(cell), "{row}");
        }
        // The first sample has no predecessor: rate renders as 0.0.
        assert!(row.contains("0.0"), "{row}");
    }

    #[test]
    fn serve_recovers_its_journal_across_restarts() {
        let dir = std::env::temp_dir().join(format!("adpm-cli-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let journal = dir.join("serve-restart.journal");
        std::fs::remove_file(&journal).ok();
        let options = ServeOptions {
            journal: Some(journal.clone()),
            ..ServeOptions::default()
        };

        // First life: execute one operation, then shut down.
        let (addr, _lines, server) = spawn_serve(options.clone());
        let out = submit_request(
            &addr,
            0,
            Some("fe"),
            None,
            &SubmitAction::Assign {
                property: "rx.P-front".into(),
                value: 150.0,
            },
        )
        .expect("submit works");
        assert!(out.contains("\"t\":\"executed\""), "{out}");
        submit_request(&addr, 0, None, None, &SubmitAction::Shutdown).expect("shutdown");
        let summary = server.join().expect("join").expect("serve returns");
        assert!(
            summary.contains("session closed: 1 operations"),
            "{summary}"
        );

        // Second life: the journal replays the history before binding, and
        // the recovered operation counts toward the closing summary.
        let (line_tx, line_rx) = std::sync::mpsc::channel::<String>();
        let reborn = std::thread::spawn(move || {
            serve(MINI, &options, &mut |line| {
                line_tx.send(line.to_owned()).expect("send announce");
            })
        });
        let first = line_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("recovery announce");
        assert!(first.starts_with("recovered 1 operations from "), "{first}");
        let addr = line_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("listen announce")
            .strip_prefix("listening on ")
            .expect("announce shape")
            .to_owned();
        submit_request(&addr, 0, None, None, &SubmitAction::Shutdown).expect("shutdown");
        let summary = reborn.join().expect("join").expect("serve returns");
        assert!(
            summary.contains("session closed: 1 operations"),
            "{summary}"
        );
        std::fs::remove_file(&journal).ok();
    }

    /// A failed journal append closes the served session: the submit is
    /// refused, `serve` returns an error naming the journal to recover
    /// from, and the journal holds no operation.
    #[test]
    fn serve_fails_stop_when_the_journal_cannot_be_written() {
        let dir = std::env::temp_dir().join(format!("adpm-cli-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let journal = dir.join("serve-enospc.journal");
        std::fs::remove_file(&journal).ok();
        let (addr, _lines, server) = spawn_serve(ServeOptions {
            journal: Some(journal.clone()),
            fault_plan: Some("seed=3,enospc=1.0".parse().expect("plan")),
            ..ServeOptions::default()
        });
        let assign = SubmitAction::Assign {
            property: "rx.P-front".into(),
            value: 150.0,
        };
        let refused = submit_request(&addr, 0, Some("fe"), None, &assign);
        assert!(matches!(refused, Err(CliError::Wire(_))), "{refused:?}");
        submit_request(&addr, 0, None, None, &SubmitAction::Shutdown).expect("shutdown");
        let error = server.join().expect("join").expect_err("serve fails");
        assert!(matches!(error, CliError::SessionClosed(_)), "{error:?}");
        assert_eq!(error.exit_code(), 1);
        assert!(
            error.to_string().contains(&journal.display().to_string()),
            "{error}"
        );
        let text = std::fs::read_to_string(&journal).expect("journal");
        assert!(!text.contains("\"t\":\"jop\""), "{text}");
        std::fs::remove_file(&journal).ok();
    }

    /// A named session whose journal append fails fails `serve` too, and
    /// the error names that session's journal.
    #[test]
    fn serve_fails_stop_when_a_named_session_cannot_journal() {
        let dir = std::env::temp_dir().join(format!("adpm-cli-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let journal = dir.join("serve-named-enospc.journal");
        let named = PathBuf::from(format!("{}.s1", journal.display()));
        std::fs::remove_file(&journal).ok();
        std::fs::remove_file(&named).ok();
        let (addr, _lines, server) = spawn_serve(ServeOptions {
            journal: Some(journal.clone()),
            sessions: 1,
            fault_plan: Some("seed=3,enospc=1.0".parse().expect("plan")),
            ..ServeOptions::default()
        });
        let assign = SubmitAction::Assign {
            property: "rx.P-front".into(),
            value: 150.0,
        };
        let refused = submit_request(&addr, 0, Some("fe"), Some("s1"), &assign);
        assert!(matches!(refused, Err(CliError::Wire(_))), "{refused:?}");
        submit_request(&addr, 0, None, None, &SubmitAction::Shutdown).expect("shutdown");
        let error = server.join().expect("join").expect_err("serve fails");
        assert!(matches!(error, CliError::SessionClosed(_)), "{error:?}");
        assert_eq!(error.exit_code(), 1);
        assert_eq!(
            error.to_string(),
            format!(
                "session s1 closed before shutdown; restart with --journal {} \
                 to recover its acknowledged operations",
                named.display()
            )
        );
        std::fs::remove_file(&journal).ok();
        std::fs::remove_file(&named).ok();
    }

    #[test]
    fn named_sessions_announce_their_recovery_before_listening() {
        let dir = std::env::temp_dir().join(format!("adpm-cli-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let journal = dir.join("serve-named.journal");
        let named = PathBuf::from(format!("{}.s1", journal.display()));
        std::fs::remove_file(&journal).ok();
        std::fs::remove_file(&named).ok();
        let options = ServeOptions {
            journal: Some(journal.clone()),
            sessions: 1,
            ..ServeOptions::default()
        };

        // First life: one operation in s1, journaled at `FILE.s1`.
        let (addr, _lines, server) = spawn_serve(options.clone());
        let out = submit_request(
            &addr,
            0,
            Some("fe"),
            Some("s1"),
            &SubmitAction::Assign {
                property: "rx.P-front".into(),
                value: 150.0,
            },
        )
        .expect("submit works");
        assert!(out.contains("\"t\":\"executed\""), "{out}");
        submit_request(&addr, 0, None, None, &SubmitAction::Shutdown).expect("shutdown");
        server.join().expect("join").expect("serve returns");

        // Second life: s1 replays its journal and says so before the
        // server announces its address.
        let (line_tx, line_rx) = std::sync::mpsc::channel::<String>();
        let reborn = std::thread::spawn(move || {
            serve(MINI, &options, &mut |line| {
                line_tx.send(line.to_owned()).expect("send announce");
            })
        });
        let mut before_listening = Vec::new();
        let addr = loop {
            let line = line_rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("server announces");
            match line.strip_prefix("listening on ") {
                Some(addr) => break addr.to_owned(),
                None => before_listening.push(line),
            }
        };
        let expected = format!(
            "session s1: recovered 1 operations from {}",
            named.display()
        );
        assert!(before_listening.contains(&expected), "{before_listening:?}");
        submit_request(&addr, 0, None, None, &SubmitAction::Shutdown).expect("shutdown");
        reborn.join().expect("join").expect("serve returns");
        std::fs::remove_file(&journal).ok();
        std::fs::remove_file(&named).ok();
    }

    #[test]
    fn submit_failures_carry_distinct_exit_codes() {
        // Nothing listening: a *retryable* transport failure, exit 75.
        let port = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").port()
        };
        let err = submit_request(
            &format!("127.0.0.1:{port}"),
            0,
            Some("fe"),
            None,
            &SubmitAction::Assign {
                property: "rx.P-front".into(),
                value: 150.0,
            },
        )
        .expect_err("nothing listening");
        assert!(err.is_retryable(), "{err}");
        assert_eq!(err.exit_code(), 75);

        // A refused operation: *fatal*, exit 65 — retrying cannot help.
        let (addr, _lines, server) = spawn_serve(ServeOptions::default());
        let err = submit_request(
            &addr,
            0,
            Some("fe"),
            None,
            &SubmitAction::Assign {
                property: "rx.P-front".into(),
                value: 500.0, // outside interval(0, 300)
            },
        )
        .expect_err("out-of-domain assign is rejected");
        assert!(!err.is_retryable(), "{err}");
        assert_eq!(err.exit_code(), 65);
        assert!(err.to_string().contains("rejected"), "{err}");
        // Usage mistakes are neither: conventional exit 2.
        assert_eq!(CliError::Usage("x".into()).exit_code(), 2);
        submit_request(&addr, 0, None, None, &SubmitAction::Shutdown).expect("shutdown");
        server.join().expect("join").expect("serve returns");
    }

    #[test]
    fn run_remote_chaos_converges_to_the_clean_digest() {
        let clean = run(
            MINI,
            &RunOptions {
                seed: 3,
                max_operations: 500,
                remote: true,
                ..RunOptions::default()
            },
        )
        .expect("valid scenario");
        assert!(clean.contains("(remote)"), "{clean}");
        let digest_of = |out: &str| {
            out.lines()
                .find_map(|l| l.strip_prefix("state digest: ").map(str::to_owned))
                .expect("digest line")
        };
        let chaotic = run(
            MINI,
            &RunOptions {
                seed: 3,
                max_operations: 500,
                remote: true,
                fault_plan: Some(
                    "seed=5,drop=0.1,dup=0.1,delay=0.2:2ms,kill=9"
                        .parse()
                        .expect("plan"),
                ),
                ..RunOptions::default()
            },
        )
        .expect("faulty run still completes");
        assert!(chaotic.contains("fault plan"), "{chaotic}");
        assert_eq!(digest_of(&clean), digest_of(&chaotic));
    }

    #[test]
    fn traced_remote_run_keeps_constraint_profiles() {
        // `run --remote` tees the trace writer with the server's hub sinks
        // and flight recorder; only the writer wants `cprof`/`pprof`.
        let dir = std::env::temp_dir().join("adpm-cli-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join(format!(
            "mini-remote-{:?}.jsonl",
            std::thread::current().id()
        ));
        run(
            MINI,
            &RunOptions {
                seed: 7,
                remote: true,
                trace: Some(path.clone()),
                ..RunOptions::default()
            },
        )
        .expect("valid scenario");
        let text = std::fs::read_to_string(&path).expect("trace file");
        std::fs::remove_file(&path).ok();
        let lines = parse_trace(&text).expect("schema-valid JSONL");
        let cprof: u64 = lines
            .iter()
            .filter(|l| l.tag() == "cprof")
            .map(|l| l.u64_field("evaluations").expect("evaluations field"))
            .sum();
        let counters = lines.last().expect("non-empty trace");
        assert_eq!(counters.tag(), "counters");
        assert!(
            cprof > 0,
            "the served session still profiles into the trace"
        );
        assert_eq!(Some(cprof), counters.u64_field("evaluations"));
        let report = analyze(&text, false).expect("valid trace");
        assert!(report.contains("constraint hot-spots"), "{report}");
        assert!(!report.contains("no cprof"), "{report}");
    }

    #[test]
    fn fault_tolerance_option_parsing() {
        let options = parse_serve_options(&[
            "--journal".into(),
            "/tmp/x.journal".into(),
            "--fsync".into(),
            "never".into(),
            "--compact-every".into(),
            "64".into(),
            "--heartbeat-ms".into(),
            "250".into(),
            "--idle-timeout-ms".into(),
            "900".into(),
            "--fault-plan".into(),
            "seed=1,drop=0.5".into(),
        ])
        .expect("valid options");
        assert_eq!(
            options.journal.as_deref(),
            Some(std::path::Path::new("/tmp/x.journal"))
        );
        assert!(matches!(options.fsync, FsyncPolicy::Never));
        assert_eq!(options.compact_every, 64);
        assert_eq!(options.heartbeat_ms, 250);
        assert_eq!(options.idle_timeout_ms, 900);
        assert!(options.fault_plan.is_some());
        assert!(matches!(
            parse_serve_options(&["--fault-plan".into(), "drop=2.0".into()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_serve_options(&["--fsync".into(), "8".into()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_serve_options(&["--checkpoint-every".into(), "5".into()]),
            Err(CliError::Usage(ref m)) if m == "unknown flag `--checkpoint-every`"
        ));
        let options = parse_run_options(&[
            "--remote".into(),
            "--fault-plan".into(),
            "seed=2,dup=0.1".into(),
        ])
        .expect("valid options");
        assert!(options.remote);
        assert!(options.fault_plan.is_some());
        let options = parse_client_options(&["--fault-plan".into(), "seed=3,drop=0.1".into()])
            .expect("valid options");
        assert!(options.fault_plan.is_some());
    }

    #[test]
    fn run_incremental_matches_full_run_statistics() {
        let full = run(
            MINI,
            &RunOptions {
                seed: 1,
                max_operations: 500,
                ..RunOptions::default()
            },
        )
        .expect("valid scenario");
        let incremental = run(
            MINI,
            &RunOptions {
                seed: 1,
                max_operations: 500,
                propagation: PropagationKind::Incremental,
                ..RunOptions::default()
            },
        )
        .expect("valid scenario");
        assert!(incremental.contains("completed = true"), "{incremental}");
        // Same seed, same decisions: only the evaluation counts may differ.
        let ops = |report: &str| {
            report
                .lines()
                .find(|l| l.starts_with("operations:"))
                .map(str::to_owned)
        };
        assert_eq!(ops(&full), ops(&incremental));
    }
}
