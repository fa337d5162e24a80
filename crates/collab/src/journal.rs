//! The append-only operation journal and crash recovery.
//!
//! A journaled session appends one JSONL line per accepted operation, in
//! execution (sequence) order, to a plain text file. The format reuses the
//! trace/wire JSON dialect — one flat object per line, `"t"` tag first —
//! with five line kinds:
//!
//! | tag | written | carries |
//! |-----|---------|---------|
//! | `jmeta` | once, at file creation | format version, management mode, network shape |
//! | `jop`   | per executed operation | the full [`OperationRecord`]: operator, arguments (by name), repairs, and the recorded outcome (evaluations, violations, spin) |
//! | `jck`   | every `checkpoint_every` operations | the sequence number and the [`state_fingerprint`] of the design state at that point |
//! | `jsnap` | at each compaction, once, right after `jmeta` | the logical operation count, the length of the state program that follows, and the [`state_fingerprint`] the program must reproduce |
//! | `jsop`  | at each compaction, once per state-program operation | one operation of the snapshot's minimal state program (same field schema as `jop`) |
//!
//! Older journals may also hold `jneg` negotiation summaries; recovery
//! checks their shape and skips them.
//!
//! By default every append is synced before it returns
//! ([`FsyncPolicy::Always`]); recovery is **longest-valid-prefix**:
//! [`recover`] replays every *newline-terminated, fully parseable* line
//! and discards the torn or corrupt suffix a crash may have left
//! (counting the discarded bytes). Replaying through
//! [`adpm_core::replay_history`] re-derives all propagation state, so the
//! journal never needs to serialize domains or violation sets — and the
//! recorded per-operation outcomes double as an integrity check
//! ([`RecoveryReport::faithful`]), with `jck` fingerprints cross-checking
//! whole-state digests at every checkpoint.
//!
//! `jck` checkpoints are **verification-only**: recovery never uses them
//! to skip replay (snapshots are what bound replay), it only compares
//! each recorded fingerprint against the replayed state. A mismatch is
//! surfaced as a typed [`RecoveryWarning::CheckpointMismatch`] on the
//! report, not just a silent counter.
//!
//! # Snapshot compaction
//!
//! With [`JournalConfig::compact_every`] > 0 the writer periodically
//! rewrites the journal as *snapshot + tail*: the DPM's
//! [minimal state program](DesignProcessManager::state_program) — the
//! latest assign per property, the surviving verifications, and every
//! decompose/relax — is serialized as a `jsnap` header plus `jsop` lines
//! into a fresh `<path>.compact.tmp`, fsynced, and atomically renamed
//! over the journal after the old generation is preserved as
//! `<path>.prev` (a hard link, so disk usage is bounded at two
//! generations). The directory is synced before the writer returns, as
//! it is after creating a fresh journal, so an OS crash cannot bring the
//! old name back. Recovery then replays the short program and only the
//! post-snapshot tail, making recovery time O(tail), not O(history).
//! A crash at any point of the protocol leaves either the old journal or
//! a complete new one at `path`; a snapshot torn by byte-level damage is
//! tolerated by falling back to `<path>.prev`
//! ([`RecoveryWarning::TornSnapshotFallback`]).
//!
//! # Disk faults
//!
//! The writer accepts a seeded [`DiskFaultInjector`]
//! (ENOSPC, short writes, fsync failures, torn snapshots). A failed
//! append never panics and never leaves part of itself behind: the file
//! is truncated back to its length before the append, so an `Err` from
//! an append means none of its operations is on disk. A session appends
//! everything one submit executed — the operation and any relaxations
//! its negotiations applied — in one append, so the session answering
//! for that submit closes instead of acknowledging it (fail-stop), and a
//! restart recovers exactly the acknowledged prefix.

use crate::fault::{DiskFaultInjector, DiskWriteFault};
use crate::names::NameTable;
use adpm_constraint::{NetworkError, Relaxation, Value};
use adpm_core::{
    state_fingerprint, DesignProcessManager, DesignerId, Operation, OperationRecord, Operator,
    ProblemId,
};
use adpm_observe::{
    field_bool, field_f64, field_str, field_u64, parse_object, Counter, JsonValue, MetricsSink,
    TraceEvent,
};
use adpm_observe::{Clock, MonotonicClock, SpanKind};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;

/// Journal format version, bumped on any incompatible line-schema change.
const JOURNAL_VERSION: u64 = 1;

/// Whether the journal writer calls `fsync` after an append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync after every operation, before its reply goes out: no
    /// acknowledged operation is lost on power failure, at a
    /// per-operation latency cost. The default.
    Always,
    /// Never sync explicitly; the OS flushes on its own schedule. Process
    /// crashes lose nothing (the kernel has the bytes), machine crashes
    /// may lose the tail. For benchmarks and tests.
    Never,
}

impl FromStr for FsyncPolicy {
    type Err = String;

    fn from_str(text: &str) -> Result<Self, Self::Err> {
        match text {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => Err(format!("fsync policy must be always|never, got `{other}`")),
        }
    }
}

/// How a session journals its operations.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalConfig {
    /// Journal file path.
    pub path: PathBuf,
    /// Durability policy.
    pub fsync: FsyncPolicy,
    /// Write a `jck` checkpoint every this many operations (0 = never).
    pub checkpoint_every: u64,
    /// Compact (snapshot + rotate) every this many appends (0 = never).
    pub compact_every: u64,
}

impl JournalConfig {
    /// A journal at `path` with the default policy: fsync every
    /// operation, checkpoint every 32, never compact.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        JournalConfig {
            path: path.into(),
            fsync: FsyncPolicy::Always,
            checkpoint_every: 32,
            compact_every: 0,
        }
    }
}

/// The previous journal generation preserved by compaction: `<path>.prev`.
fn prev_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".prev");
    PathBuf::from(os)
}

/// Syncs the directory holding `path`, so that a file created, linked or
/// renamed there keeps its name across an OS crash. Not routed through
/// the [`DiskFaultInjector`]: the seeded fault streams draw only for
/// journal data.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// The temp file a compaction builds before its atomic rename:
/// `<path>.compact.tmp`.
fn compact_tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".compact.tmp");
    PathBuf::from(os)
}

/// Why journal recovery failed.
#[derive(Debug)]
pub enum JournalError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// A valid-prefix line names an entity the scenario does not have —
    /// the journal belongs to a different design problem.
    Mismatch(String),
    /// Replaying a journaled operation failed outright.
    Replay(NetworkError),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Mismatch(m) => write!(f, "journal does not match the scenario: {m}"),
            JournalError::Replay(e) => write!(f, "journal replay failed: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// A typed, non-fatal anomaly [`recover`] noticed and worked around.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryWarning {
    /// One or more `jck` checkpoint fingerprints did not match the
    /// replayed state (`verified < checkpoints`). Checkpoints are
    /// verification-only, so recovery proceeds — but the journaled run
    /// and the replay disagree somewhere.
    CheckpointMismatch {
        /// Checkpoints in the valid prefix.
        checkpoints: u64,
        /// Checkpoints whose fingerprint matched the replayed state.
        verified: u64,
    },
    /// The snapshot's state program replayed, but did not reproduce the
    /// fingerprint the `jsnap` header recorded.
    SnapshotFingerprintMismatch {
        /// The fingerprint the `jsnap` header recorded.
        expected: u64,
        /// The fingerprint the replayed program produced.
        actual: u64,
    },
    /// The journal's snapshot section was torn or incomplete; recovery
    /// fell back to the previous generation (`<path>.prev`) and then
    /// replayed this journal's tail.
    TornSnapshotFallback,
}

impl fmt::Display for RecoveryWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryWarning::CheckpointMismatch {
                checkpoints,
                verified,
            } => write!(
                f,
                "only {verified} of {checkpoints} checkpoint fingerprints matched the replayed state"
            ),
            RecoveryWarning::SnapshotFingerprintMismatch { expected, actual } => write!(
                f,
                "snapshot fingerprint mismatch: recorded {expected:016x}, replayed {actual:016x}"
            ),
            RecoveryWarning::TornSnapshotFallback => {
                write!(f, "torn snapshot; recovered from the previous journal generation")
            }
        }
    }
}

/// What [`recover`] reconstructed.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Logical operations recovered: the snapshot's operation count plus
    /// the replayed tail (equals the tail alone for an uncompacted
    /// journal).
    pub ops: u64,
    /// Operations restored by executing the snapshot's state program
    /// (0 for an uncompacted journal).
    pub snapshot_ops: u64,
    /// Post-snapshot tail operations actually replayed — the part
    /// compaction keeps bounded.
    pub replayed_ops: u64,
    /// `jck` checkpoints encountered in the valid prefix.
    pub checkpoints: u64,
    /// Checkpoints whose recorded fingerprint matched the replayed state.
    pub checkpoints_verified: u64,
    /// Whether every replayed operation reproduced its recorded outcome
    /// *and* every checkpoint fingerprint matched.
    pub faithful: bool,
    /// Typed anomalies recovery noticed and worked around.
    pub warnings: Vec<RecoveryWarning>,
    /// Length of the valid prefix, in bytes — the offset to truncate to
    /// before appending new operations.
    pub journal_bytes: u64,
    /// Torn/corrupt suffix bytes discarded by longest-valid-prefix.
    pub truncated_bytes: u64,
}

/// One parsed journal line.
#[derive(Debug, Clone, PartialEq)]
enum JournalLine {
    Meta,
    Op(Box<ParsedOp>),
    Checkpoint {
        fingerprint: u64,
    },
    /// A `jneg` negotiation summary from a journal written before the
    /// trace's `negotiate` line became the only record of one. The
    /// accepted relaxation is its own `jop` line, so recovery validates
    /// and then skips these.
    Negotiation,
    /// A `jsnap` snapshot header: the next `ops` lines must be `jsop`.
    SnapshotHeader {
        seq: u64,
        ops: u64,
        fingerprint: u64,
    },
    /// One `jsop` state-program operation of a snapshot section.
    SnapshotOp(Box<ParsedOp>),
}

/// A `jop` line, entities still by name (resolved against a DPM later).
#[derive(Debug, Clone, PartialEq)]
struct ParsedOp {
    seq: u64,
    designer: u32,
    problem: u32,
    op: String,
    property: Option<String>,
    value: Option<ParsedValue>,
    constraints: Option<String>,
    subproblems: Option<String>,
    relax_kind: Option<String>,
    slack: Option<f64>,
    repairs: String,
    evaluations: u64,
    violations_after: u32,
    new_violations: String,
    spin: bool,
}

#[derive(Debug, Clone, PartialEq)]
enum ParsedValue {
    Number(f64),
    Text(String),
    Bool(bool),
}

/// Serializes one executed operation as a `jop` line.
fn op_line(record: &OperationRecord, names: &NameTable) -> String {
    op_line_tagged("jop", record, names)
}

/// Serializes one operation under a journal line tag (`jop` for history
/// entries, `jsop` for snapshot state-program entries — same field schema).
fn op_line_tagged(tag: &str, record: &OperationRecord, names: &NameTable) -> String {
    let mut out = String::with_capacity(160);
    out.push_str("{\"t\":\"");
    out.push_str(tag);
    out.push('"');
    field_u64(&mut out, "seq", record.sequence as u64);
    field_u64(
        &mut out,
        "designer",
        record.operation.designer().index() as u64,
    );
    field_u64(
        &mut out,
        "problem",
        record.operation.problem().index() as u64,
    );
    match record.operation.operator() {
        Operator::Assign { property, value } => {
            field_str(&mut out, "op", "assign");
            field_str(&mut out, "property", names.property_name(*property));
            match value {
                Value::Number(x) => {
                    field_str(&mut out, "vk", "num");
                    field_f64(&mut out, "value", *x);
                }
                Value::Text(s) => {
                    field_str(&mut out, "vk", "text");
                    field_str(&mut out, "value", s);
                }
                Value::Bool(b) => {
                    field_str(&mut out, "vk", "bool");
                    field_bool(&mut out, "value", *b);
                }
            }
        }
        Operator::Unbind { property } => {
            field_str(&mut out, "op", "unbind");
            field_str(&mut out, "property", names.property_name(*property));
        }
        Operator::Verify { constraints } => {
            field_str(&mut out, "op", "verify");
            field_str(
                &mut out,
                "constraints",
                &names.join_constraints(constraints),
            );
        }
        Operator::Decompose { subproblems } => {
            field_str(&mut out, "op", "decompose");
            field_str(&mut out, "subproblems", &subproblems.join(","));
        }
        Operator::Relax {
            constraint,
            relaxation,
        } => {
            field_str(&mut out, "op", "relax");
            field_str(&mut out, "constraints", names.constraint_name(*constraint));
            field_str(&mut out, "rk", relaxation.kind());
            if let Relaxation::WidenBound { slack } = relaxation {
                field_f64(&mut out, "slack", *slack);
            }
        }
    }
    field_str(
        &mut out,
        "repairs",
        &names.join_constraints(record.operation.repairs()),
    );
    field_u64(&mut out, "evaluations", record.evaluations as u64);
    field_u64(&mut out, "violations_after", record.violations_after as u64);
    field_str(
        &mut out,
        "new_violations",
        &names.join_constraints(&record.new_violations),
    );
    field_bool(&mut out, "spin", record.spin);
    out.push_str("}\n");
    out
}

/// Parses one journal line; `Err` messages describe what's malformed.
fn parse_journal_line(text: &str) -> Result<JournalLine, String> {
    let fields = parse_object(text, 0).map_err(|e| e.message)?;
    let Some((first_key, first_value)) = fields.first() else {
        return Err("empty journal line".into());
    };
    if first_key != "t" {
        return Err("first field must be the \"t\" tag".into());
    }
    let Some(tag) = first_value.as_str() else {
        return Err("\"t\" tag must be a string".into());
    };
    let get = |key: &str| -> Option<&JsonValue> {
        fields
            .iter()
            .skip(1)
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    };
    let need_str = |key: &str| -> Result<String, String> {
        get(key)
            .and_then(|v| v.as_str())
            .map(str::to_owned)
            .ok_or_else(|| format!("`{tag}` line needs string `{key}`"))
    };
    let need_u64 = |key: &str| -> Result<u64, String> {
        get(key)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("`{tag}` line needs integer `{key}`"))
    };
    let need_bool = |key: &str| -> Result<bool, String> {
        get(key)
            .and_then(|v| v.as_bool())
            .ok_or_else(|| format!("`{tag}` line needs boolean `{key}`"))
    };
    match tag {
        "jmeta" => {
            let version = need_u64("version")?;
            if version != JOURNAL_VERSION {
                return Err(format!("unsupported journal version {version}"));
            }
            Ok(JournalLine::Meta)
        }
        "jck" => {
            let hex = need_str("fingerprint")?;
            let fingerprint = u64::from_str_radix(&hex, 16)
                .map_err(|_| format!("`jck` fingerprint `{hex}` is not hex"))?;
            // seq is informational but must at least be present and valid.
            need_u64("seq")?;
            Ok(JournalLine::Checkpoint { fingerprint })
        }
        "jsnap" => {
            let hex = need_str("fingerprint")?;
            let fingerprint = u64::from_str_radix(&hex, 16)
                .map_err(|_| format!("`jsnap` fingerprint `{hex}` is not hex"))?;
            Ok(JournalLine::SnapshotHeader {
                seq: need_u64("seq")?,
                ops: need_u64("ops")?,
                fingerprint,
            })
        }
        "jop" | "jsop" => {
            let op = need_str("op")?;
            let value = match get("vk").and_then(|v| v.as_str()) {
                None => None,
                Some("num") => Some(ParsedValue::Number(match get("value") {
                    Some(JsonValue::Num(x)) => *x,
                    _ => return Err(format!("`{tag}` numeric value missing")),
                })),
                Some("text") => Some(ParsedValue::Text(need_str("value")?)),
                Some("bool") => Some(ParsedValue::Bool(need_bool("value")?)),
                Some(other) => return Err(format!("unknown value kind `{other}`")),
            };
            let boxed = |parsed: ParsedOp| {
                if tag == "jop" {
                    JournalLine::Op(Box::new(parsed))
                } else {
                    JournalLine::SnapshotOp(Box::new(parsed))
                }
            };
            Ok(boxed(ParsedOp {
                seq: need_u64("seq")?,
                designer: need_u64("designer")?
                    .try_into()
                    .map_err(|_| "`designer` out of range".to_string())?,
                problem: need_u64("problem")?
                    .try_into()
                    .map_err(|_| "`problem` out of range".to_string())?,
                op,
                property: get("property").and_then(|v| v.as_str()).map(str::to_owned),
                value,
                constraints: get("constraints")
                    .and_then(|v| v.as_str())
                    .map(str::to_owned),
                subproblems: get("subproblems")
                    .and_then(|v| v.as_str())
                    .map(str::to_owned),
                relax_kind: get("rk").and_then(|v| v.as_str()).map(str::to_owned),
                slack: get("slack").and_then(|v| match v {
                    JsonValue::Num(x) => Some(*x),
                    _ => None,
                }),
                repairs: need_str("repairs")?,
                evaluations: need_u64("evaluations")?,
                violations_after: need_u64("violations_after")?
                    .try_into()
                    .map_err(|_| "`violations_after` out of range".to_string())?,
                new_violations: need_str("new_violations")?,
                spin: need_bool("spin")?,
            }))
        }
        "jneg" => {
            // Validate the shape so a torn `jneg` still ends the valid
            // prefix, then discard — replay needs only the `jop` lines.
            need_u64("seq")?;
            need_str("constraint")?;
            need_u64("rounds")?;
            need_u64("proposals")?;
            need_u64("participants")?;
            need_str("outcome")?;
            Ok(JournalLine::Negotiation)
        }
        other => Err(format!("unknown journal tag `{other}`")),
    }
}

/// Resolves a parsed `jop` line into a replayable [`OperationRecord`].
fn resolve_op(parsed: &ParsedOp, names: &NameTable) -> Result<OperationRecord, JournalError> {
    let property = |full: &str| {
        names
            .property_id(full)
            .ok_or_else(|| JournalError::Mismatch(format!("unknown property `{full}`")))
    };
    let constraints = |joined: &str| names.constraint_ids(joined).map_err(JournalError::Mismatch);
    let designer = DesignerId::new(parsed.designer);
    let problem = ProblemId::new(parsed.problem);
    let operator =
        match parsed.op.as_str() {
            "assign" => {
                let name = parsed.property.as_deref().ok_or_else(|| {
                    JournalError::Mismatch("`assign` line without a property".into())
                })?;
                let value = match &parsed.value {
                    Some(ParsedValue::Number(x)) => Value::Number(*x),
                    Some(ParsedValue::Text(s)) => Value::Text(s.clone()),
                    Some(ParsedValue::Bool(b)) => Value::Bool(*b),
                    None => {
                        return Err(JournalError::Mismatch(
                            "`assign` line without a value".into(),
                        ))
                    }
                };
                Operator::Assign {
                    property: property(name)?,
                    value,
                }
            }
            "unbind" => {
                let name = parsed.property.as_deref().ok_or_else(|| {
                    JournalError::Mismatch("`unbind` line without a property".into())
                })?;
                Operator::Unbind {
                    property: property(name)?,
                }
            }
            "verify" => Operator::Verify {
                constraints: constraints(parsed.constraints.as_deref().unwrap_or(""))?,
            },
            "decompose" => Operator::Decompose {
                subproblems: parsed
                    .subproblems
                    .as_deref()
                    .unwrap_or("")
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect(),
            },
            "relax" => {
                let ids = constraints(parsed.constraints.as_deref().unwrap_or(""))?;
                let [constraint] = ids[..] else {
                    return Err(JournalError::Mismatch(
                        "`relax` line needs exactly one constraint".into(),
                    ));
                };
                let relaxation = match parsed.relax_kind.as_deref() {
                    Some("widen") => Relaxation::WidenBound {
                        slack: parsed.slack.ok_or_else(|| {
                            JournalError::Mismatch("`relax` widen line without a slack".into())
                        })?,
                    },
                    Some("drop") => Relaxation::Drop,
                    other => {
                        return Err(JournalError::Mismatch(format!(
                            "unknown relaxation kind `{}`",
                            other.unwrap_or("")
                        )))
                    }
                };
                Operator::Relax {
                    constraint,
                    relaxation,
                }
            }
            other => {
                return Err(JournalError::Mismatch(format!(
                    "unknown operator `{other}`"
                )))
            }
        };
    let operation =
        Operation::new(designer, problem, operator).with_repairs(constraints(&parsed.repairs)?);
    Ok(OperationRecord {
        sequence: parsed.seq as usize,
        operation,
        evaluations: parsed.evaluations as usize,
        violations_after: parsed.violations_after as usize,
        new_violations: constraints(&parsed.new_violations)?,
        spin: parsed.spin,
    })
}

/// Serializes the one-time `jmeta` header for `dpm`'s scenario.
fn meta_line(dpm: &DesignProcessManager) -> String {
    let mut line = String::from("{\"t\":\"jmeta\"");
    field_u64(&mut line, "version", JOURNAL_VERSION);
    field_str(&mut line, "mode", dpm.mode().as_str());
    field_u64(
        &mut line,
        "properties",
        dpm.network().property_count() as u64,
    );
    field_u64(
        &mut line,
        "constraints",
        dpm.network().constraint_count() as u64,
    );
    field_u64(&mut line, "problems", dpm.problems().len() as u64);
    line.push_str("}\n");
    line
}

/// The append half: owned by the session state, one append per command
/// that changed the design.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    config: JournalConfig,
    /// Operations serialized by *this* writer (drives the checkpoint
    /// cadence), whether or not their bytes have landed yet.
    appended: u64,
    /// File length after the last fully-written line — the rollback point
    /// a failed write truncates back to, so the journal never keeps a
    /// torn line mid-file.
    committed: u64,
    /// Appends since the last compaction.
    since_compact: u64,
    /// Seeded disk-fault stream, if the run scripts journal chaos.
    faults: Option<DiskFaultInjector>,
    /// The session's names, built from the DPM the journal was opened on.
    names: Arc<NameTable>,
}

impl JournalWriter {
    /// Opens (creating if needed) the journal for appending. A fresh/empty
    /// file gets its `jmeta` header; `resume_at` truncates first — pass
    /// [`RecoveryReport::journal_bytes`] so a torn suffix the recovery
    /// discarded is also physically removed before new lines land.
    pub fn open(
        config: JournalConfig,
        dpm: &DesignProcessManager,
        resume_at: Option<u64>,
    ) -> Result<JournalWriter, JournalError> {
        let file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(&config.path)?;
        if let Some(valid) = resume_at {
            file.set_len(valid)?;
        }
        let committed = file.metadata()?.len();
        let mut writer = JournalWriter {
            file,
            config,
            appended: 0,
            committed,
            since_compact: 0,
            faults: None,
            names: Arc::new(NameTable::build(dpm)),
        };
        if writer.committed == 0 {
            let meta = meta_line(dpm);
            writer.write_lines(&meta)?;
            writer.file.sync_data()?;
            sync_parent_dir(&writer.config.path)?;
            dpm.metrics_sink()
                .incr(Counter::JournalBytes, meta.len() as u64);
        }
        Ok(writer)
    }

    /// Attaches a seeded disk-fault stream; every subsequent write, sync,
    /// and compaction consults it.
    pub fn with_disk_faults(mut self, faults: DiskFaultInjector) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The name table this writer encodes through — shared with the
    /// server, so a journaled session builds its names once.
    pub(crate) fn names(&self) -> Arc<NameTable> {
        self.names.clone()
    }

    /// The journal file this writer appends to.
    pub(crate) fn path(&self) -> &Path {
        &self.config.path
    }

    /// Test seam: wraps an already-open file handle without writing the
    /// `jmeta` header. Handing in a read-only handle makes every append
    /// fail deterministically — how the fail-stop path is exercised.
    #[cfg(test)]
    pub(crate) fn from_file_for_tests(
        file: File,
        config: JournalConfig,
        dpm: &DesignProcessManager,
    ) -> JournalWriter {
        let committed = file.metadata().map(|m| m.len()).unwrap_or(0);
        JournalWriter {
            file,
            config,
            appended: 0,
            committed,
            since_compact: 0,
            faults: None,
            names: Arc::new(NameTable::build(dpm)),
        }
    }

    /// Writes whole lines in one write, consulting the fault stream. On
    /// any failure the file is truncated back to the last committed line,
    /// so a short write never leaves torn bytes for the *next* append to
    /// fuse with.
    fn write_lines(&mut self, line: &str) -> std::io::Result<()> {
        let outcome = match self.faults.as_mut().map(|f| f.on_write(line.len())) {
            Some(DiskWriteFault::Enospc) => {
                Err(std::io::Error::other("injected ENOSPC (disk full)"))
            }
            Some(DiskWriteFault::Short(n)) => {
                let _ = self.file.write_all(&line.as_bytes()[..n]);
                Err(std::io::Error::other("injected short write"))
            }
            Some(DiskWriteFault::None) | None => self.file.write_all(line.as_bytes()),
        };
        match outcome {
            Ok(()) => {
                self.committed += line.len() as u64;
                Ok(())
            }
            Err(e) => {
                let _ = self.file.set_len(self.committed);
                Err(e)
            }
        }
    }

    /// Syncs the file, consulting the fault stream.
    fn sync_data(&mut self) -> std::io::Result<()> {
        if self.faults.as_mut().is_some_and(|f| f.on_sync()) {
            return Err(std::io::Error::other("injected fsync failure"));
        }
        self.file.sync_data()
    }

    /// Appends one executed operation (and, on cadence, a checkpoint),
    /// then applies the fsync policy and, on cadence, compacts. `dpm`
    /// must be the state *after* the operation — its fingerprint is what
    /// checkpoints and snapshots record.
    ///
    /// # Errors
    ///
    /// An `Err` means the operation is not on disk: a failed write, or a
    /// failed sync under [`FsyncPolicy::Always`], truncates the file back
    /// to its length before this append. The caller must not acknowledge
    /// the operation.
    pub fn append(
        &mut self,
        record: &OperationRecord,
        dpm: &DesignProcessManager,
    ) -> Result<(), JournalError> {
        self.append_all(std::slice::from_ref(record), dpm)
    }

    /// [`append`](JournalWriter::append) for the operations one command
    /// executed, in sequence order: one write (with a checkpoint after the
    /// last one if one fell due among them) and one sync. An `Err` means
    /// none of them is on disk.
    pub(crate) fn append_all(
        &mut self,
        records: &[OperationRecord],
        dpm: &DesignProcessManager,
    ) -> Result<(), JournalError> {
        let Some(last) = records.last() else {
            return Ok(());
        };
        let sink = dpm.metrics_sink().clone();
        let start = self.committed;
        let mut chunk = String::with_capacity(160 * records.len());
        for record in records {
            chunk.push_str(&op_line(record, &self.names));
        }
        let before = self.appended;
        self.appended += records.len() as u64;
        self.since_compact += records.len() as u64;
        let every = self.config.checkpoint_every;
        if every > 0 && self.appended / every > before / every {
            chunk.push_str("{\"t\":\"jck\"");
            field_u64(&mut chunk, "seq", last.sequence as u64);
            field_str(
                &mut chunk,
                "fingerprint",
                &format!("{:016x}", state_fingerprint(dpm)),
            );
            chunk.push_str("}\n");
        }
        self.write_lines(&chunk)?;
        if self.config.fsync == FsyncPolicy::Always {
            if let Err(error) = self.sync_data() {
                let _ = self.file.set_len(start);
                self.committed = start;
                return Err(error.into());
            }
        }
        sink.incr(Counter::JournalBytes, chunk.len() as u64);
        if self.config.compact_every > 0 && self.since_compact >= self.config.compact_every {
            // Compaction failure is not a journaling failure: the live
            // journal is intact either way, so swallow and retry on the
            // next cadence hit.
            let _ = self.compact(dpm, sink.as_ref());
        }
        Ok(())
    }

    /// Atomically replaces the journal with a snapshot of `dpm`'s current
    /// state: write `jmeta` + `jsnap` + the state program as `jsop` lines
    /// into `<path>.compact.tmp`, fsync, preserve the old generation as a
    /// `<path>.prev` hard link, and rename the temp file over the journal.
    fn compact(
        &mut self,
        dpm: &DesignProcessManager,
        sink: &dyn MetricsSink,
    ) -> Result<(), JournalError> {
        let tmp_path = compact_tmp_path(&self.config.path);
        let mut content = meta_line(dpm);
        let snap_start = content.len();
        let mut header = String::from("{\"t\":\"jsnap\"");
        field_u64(&mut header, "seq", dpm.operations_total() as u64);
        field_u64(&mut header, "ops", dpm.state_program().len() as u64);
        field_str(
            &mut header,
            "fingerprint",
            &format!("{:016x}", state_fingerprint(dpm)),
        );
        header.push_str("}\n");
        content.push_str(&header);
        for (index, op) in dpm.state_program().iter().enumerate() {
            let entry = OperationRecord {
                sequence: index + 1,
                operation: op.clone(),
                evaluations: 0,
                violations_after: 0,
                new_violations: Vec::new(),
                spin: false,
            };
            content.push_str(&op_line_tagged("jsop", &entry, &self.names));
        }
        let mut tmp = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        if self.faults.as_mut().is_some_and(|f| f.on_snapshot()) {
            // Injected mid-compaction death: a torn temp file stays on
            // disk, the live journal is untouched.
            let _ = tmp.write_all(&content.as_bytes()[..content.len() / 2]);
            return Err(JournalError::Io(std::io::Error::other(
                "injected torn snapshot",
            )));
        }
        tmp.write_all(content.as_bytes())?;
        tmp.sync_data()?;
        drop(tmp);
        let prev = prev_path(&self.config.path);
        let _ = std::fs::remove_file(&prev);
        std::fs::hard_link(&self.config.path, &prev)?;
        std::fs::rename(&tmp_path, &self.config.path)?;
        self.file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(&self.config.path)?;
        self.committed = content.len() as u64;
        self.since_compact = 0;
        // Until the directory is synced, an OS crash can leave `path`
        // naming the old generation, which lacks every operation
        // acknowledged from here on.
        sync_parent_dir(&self.config.path)?;
        sink.incr(Counter::JournalCompactions, 1);
        sink.incr(Counter::SnapshotBytes, (content.len() - snap_start) as u64);
        Ok(())
    }

    /// Flushes whatever is buffered, then syncs (used at orderly
    /// shutdown).
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.file.flush()?;
        self.sync_data()?;
        Ok(())
    }
}

/// Scans the raw journal, returning the parsed longest valid prefix.
///
/// A line belongs to the valid prefix iff it is newline-terminated *and*
/// parses completely; the first line failing either test ends the prefix,
/// and everything from its first byte on is counted as truncated.
fn scan(path: &Path) -> Result<(Vec<JournalLine>, u64, u64), JournalError> {
    let mut file = File::open(path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    drop(file);
    let mut lines = Vec::new();
    let mut valid: u64 = 0;
    let mut offset = 0usize;
    while offset < bytes.len() {
        let Some(nl) = bytes[offset..].iter().position(|b| *b == b'\n') else {
            break; // torn final line: not newline-terminated
        };
        let end = offset + nl;
        let Ok(text) = std::str::from_utf8(&bytes[offset..end]) else {
            break;
        };
        if text.trim().is_empty() {
            // Blank lines are valid padding.
            offset = end + 1;
            valid = offset as u64;
            continue;
        }
        let Ok(line) = parse_journal_line(text) else {
            break;
        };
        lines.push(line);
        offset = end + 1;
        valid = offset as u64;
    }
    let truncated = bytes.len() as u64 - valid;
    Ok((lines, valid, truncated))
}

/// [`recover_impl`]'s working result, before trace emission.
struct RecoveredState {
    ops: u64,
    snapshot_ops: u64,
    replayed_ops: u64,
    checkpoints: u64,
    checkpoints_verified: u64,
    faithful: bool,
    warnings: Vec<RecoveryWarning>,
    journal_bytes: u64,
    truncated_bytes: u64,
    /// Operations actually executed on `dpm` (snapshot programs included,
    /// fallback generations included) — what `recovery_ops` counts.
    executed: u64,
}

/// The recursive recovery core. `allow_fallback` permits one hop to
/// `<path>.prev` on a torn snapshot; the fallback generation itself must
/// be sound.
fn recover_impl(
    path: &Path,
    dpm: &mut DesignProcessManager,
    names: &NameTable,
    allow_fallback: bool,
) -> Result<RecoveredState, JournalError> {
    let (lines, journal_bytes, truncated_bytes) = scan(path)?;
    let mut idx = 0;
    while matches!(lines.get(idx), Some(JournalLine::Meta)) {
        idx += 1;
    }
    let mut snapshot_ops: u64 = 0;
    let mut base_ops: u64 = 0;
    let mut executed: u64 = 0;
    let mut checkpoints: u64 = 0;
    let mut checkpoints_verified: u64 = 0;
    let mut faithful = true;
    let mut warnings = Vec::new();
    let mut tail_start = idx;
    let mut torn_snapshot = false;
    let snapshot_header = match lines.get(idx) {
        Some(JournalLine::SnapshotHeader {
            seq,
            ops,
            fingerprint,
        }) => Some((*seq, *ops, *fingerprint)),
        _ => None,
    };
    if let Some((seq, declared, fingerprint)) = snapshot_header {
        let mut program: Vec<&ParsedOp> = Vec::new();
        let mut next = idx + 1;
        while (program.len() as u64) < declared {
            match lines.get(next) {
                Some(JournalLine::SnapshotOp(op)) => {
                    program.push(op);
                    next += 1;
                }
                _ => break,
            }
        }
        if (program.len() as u64) < declared {
            torn_snapshot = true;
        } else {
            for parsed in &program {
                let record = resolve_op(parsed, names)?;
                dpm.execute(record.operation)
                    .map_err(JournalError::Replay)?;
                executed += 1;
            }
            dpm.begin_restored_history(seq as usize);
            let actual = state_fingerprint(dpm);
            if actual != fingerprint {
                warnings.push(RecoveryWarning::SnapshotFingerprintMismatch {
                    expected: fingerprint,
                    actual,
                });
                faithful = false;
            }
            snapshot_ops = declared;
            base_ops = seq;
            tail_start = next;
        }
    } else if matches!(lines.get(idx), Some(JournalLine::SnapshotOp(_))) {
        // Program lines with no surviving header: a damaged head.
        torn_snapshot = true;
    } else if snapshot_header.is_none()
        && idx >= lines.len()
        && truncated_bytes > 0
        && prev_path(path).exists()
    {
        // Nothing valid past the meta header, a torn remainder, and a
        // previous generation on disk: the snapshot header itself was
        // torn mid-line.
        torn_snapshot = true;
    }
    if torn_snapshot {
        let prev = prev_path(path);
        if !allow_fallback || !prev.exists() {
            return Err(JournalError::Mismatch(
                "torn snapshot section and no previous journal generation".into(),
            ));
        }
        let prior = recover_impl(&prev, dpm, names, false)?;
        warnings.push(RecoveryWarning::TornSnapshotFallback);
        warnings.extend(prior.warnings);
        faithful = faithful && prior.faithful;
        executed += prior.executed;
        checkpoints += prior.checkpoints;
        checkpoints_verified += prior.checkpoints_verified;
        snapshot_ops = prior.ops;
        base_ops = prior.ops;
        // Skip whatever survives of the torn snapshot section; the tail
        // continues from the previous generation's end state.
        tail_start = idx;
        while matches!(
            lines.get(tail_start),
            Some(JournalLine::SnapshotHeader { .. }) | Some(JournalLine::SnapshotOp(_))
        ) {
            tail_start += 1;
        }
    }
    let mut replayed_ops: u64 = 0;
    // Replay segment-wise so each checkpoint fingerprint is compared
    // against the state at exactly its point in the history.
    let mut segment: Vec<OperationRecord> = Vec::new();
    let flush = |segment: &mut Vec<OperationRecord>,
                 dpm: &mut DesignProcessManager,
                 faithful: &mut bool|
     -> Result<(), JournalError> {
        if segment.is_empty() {
            return Ok(());
        }
        let outcome = adpm_core::replay_history(segment, dpm).map_err(JournalError::Replay)?;
        *faithful = *faithful && outcome.faithful;
        segment.clear();
        Ok(())
    };
    for line in &lines[tail_start..] {
        match line {
            JournalLine::Meta => {}
            JournalLine::Op(parsed) => {
                let record = resolve_op(parsed, names)?;
                segment.push(record);
                replayed_ops += 1;
            }
            JournalLine::Checkpoint { fingerprint } => {
                flush(&mut segment, dpm, &mut faithful)?;
                checkpoints += 1;
                if state_fingerprint(dpm) == *fingerprint {
                    checkpoints_verified += 1;
                } else {
                    faithful = false;
                }
            }
            // Negotiation summaries are commentary on the op stream; the
            // accepted relaxation replays via its own `jop` line.
            JournalLine::Negotiation => {}
            JournalLine::SnapshotHeader { .. } | JournalLine::SnapshotOp(_) => {
                return Err(JournalError::Mismatch(
                    "snapshot section not at the journal head".into(),
                ));
            }
        }
    }
    flush(&mut segment, dpm, &mut faithful)?;
    executed += replayed_ops;
    Ok(RecoveredState {
        ops: base_ops + replayed_ops,
        snapshot_ops,
        replayed_ops,
        checkpoints,
        checkpoints_verified,
        faithful,
        warnings,
        journal_bytes,
        truncated_bytes,
        executed,
    })
}

/// Recovers a crashed session: replays the journal's longest valid prefix
/// onto `dpm` (which must be freshly built for the same scenario and
/// [`initialize`](DesignProcessManager::initialize)d), verifying recorded
/// outcomes and checkpoint fingerprints along the way.
///
/// A compacted journal restores its snapshot first (executing the short
/// state program and continuing sequence numbers from the recorded
/// operation count), then replays only the post-snapshot tail; a torn
/// snapshot falls back to `<path>.prev`. Non-fatal anomalies surface as
/// typed [`RecoveryWarning`]s.
///
/// Emits a `recover` span and [`TraceEvent::Recovery`] through the DPM's
/// sink, counts every re-executed operation into `recovery_ops`, and the
/// post-snapshot tail alone into `recovery_replayed_ops`.
///
/// # Errors
///
/// [`JournalError`] when the file is unreadable, a valid-prefix line names
/// entities the scenario lacks, or replay fails outright. A torn/corrupt
/// *suffix* is not an error — that is the crash the journal exists for.
pub fn recover(
    path: &Path,
    dpm: &mut DesignProcessManager,
) -> Result<RecoveryReport, JournalError> {
    let clock = MonotonicClock::new();
    let start = clock.now_us();
    let names = NameTable::build(dpm);
    let mut state = recover_impl(path, dpm, &names, true)?;
    if state.checkpoints_verified < state.checkpoints {
        state.warnings.push(RecoveryWarning::CheckpointMismatch {
            checkpoints: state.checkpoints,
            verified: state.checkpoints_verified,
        });
    }
    let dur_us = clock.now_us().saturating_sub(start);
    let sink = dpm.metrics_sink().clone();
    sink.incr(Counter::RecoveryOps, state.executed);
    sink.incr(Counter::RecoveryReplayedOps, state.replayed_ops);
    sink.time(SpanKind::Recover, dur_us);
    if sink.is_enabled() {
        sink.record(&TraceEvent::Recovery {
            ops: state.ops,
            checkpoints: state.checkpoints,
            journal_bytes: state.journal_bytes,
            truncated_bytes: state.truncated_bytes,
            faithful: state.faithful,
            dur_us,
        });
    }
    Ok(RecoveryReport {
        ops: state.ops,
        snapshot_ops: state.snapshot_ops,
        replayed_ops: state.replayed_ops,
        checkpoints: state.checkpoints,
        checkpoints_verified: state.checkpoints_verified,
        faithful: state.faithful,
        warnings: state.warnings,
        journal_bytes: state.journal_bytes,
        truncated_bytes: state.truncated_bytes,
    })
}

/// Length in bytes of the journal's longest valid prefix — what [`recover`]
/// would keep. Exposed for tests and tooling.
pub fn valid_prefix_bytes(path: &Path) -> Result<u64, JournalError> {
    scan(path).map(|(_, valid, _)| valid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adpm_scenarios::lna_walkthrough;
    use adpm_teamsim::{Simulation, SimulationConfig, StepOutcome};

    /// Runs the walkthrough sequentially to get a real history, then
    /// re-executes it on a fresh DPM while journaling each step (so every
    /// checkpoint fingerprints the state at its own point in time).
    fn journaled_run(dir: &Path, checkpoint_every: u64) -> (DesignProcessManager, PathBuf) {
        journaled_run_compacting(dir, checkpoint_every, 0)
    }

    fn journaled_run_compacting(
        dir: &Path,
        checkpoint_every: u64,
        compact_every: u64,
    ) -> (DesignProcessManager, PathBuf) {
        let scenario = lna_walkthrough();
        let config = SimulationConfig::adpm(5);
        let mut sim = Simulation::new(&scenario, config);
        while matches!(sim.step(), StepOutcome::Executed(_)) {}
        let history: Vec<Operation> = sim
            .dpm()
            .history()
            .iter()
            .map(|r| r.operation.clone())
            .collect();
        assert!(history.len() > 3, "walkthrough too short to exercise");
        let mut dpm = fresh_dpm();
        let path = dir.join("session.journal");
        let mut writer = JournalWriter::open(
            JournalConfig {
                path: path.clone(),
                fsync: FsyncPolicy::Never,
                checkpoint_every,
                compact_every,
            },
            &dpm,
            None,
        )
        .expect("open journal");
        for op in history {
            let record = dpm.execute(op).expect("execute");
            writer.append(&record, &dpm).expect("journal append");
        }
        writer.sync().expect("sync");
        (dpm, path)
    }

    fn fresh_dpm() -> DesignProcessManager {
        let scenario = lna_walkthrough();
        let mut dpm = scenario.build_dpm(SimulationConfig::adpm(5).dpm_config());
        dpm.initialize();
        dpm
    }

    #[test]
    fn write_then_recover_round_trips_the_full_history() {
        let dir = tempdir();
        let (original, path) = journaled_run(&dir, 4);
        let mut recovered = fresh_dpm();
        let report = recover(&path, &mut recovered).expect("recover");
        assert!(report.faithful, "report: {report:?}");
        assert_eq!(report.ops as usize, original.history().len());
        assert!(report.checkpoints > 0);
        assert_eq!(report.checkpoints_verified, report.checkpoints);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(state_fingerprint(&recovered), state_fingerprint(&original));
        assert_eq!(
            format!("{:?}", recovered.history()),
            format!("{:?}", original.history())
        );
    }

    #[test]
    fn torn_tail_is_discarded_and_counted() {
        let dir = tempdir();
        let (_, path) = journaled_run(&dir, 0);
        // Tear the file mid-line: drop the trailing newline plus some.
        let bytes = std::fs::read(&path).expect("read journal");
        let torn_at = bytes.len() - 7;
        std::fs::write(&path, &bytes[..torn_at]).expect("tear");
        let mut recovered = fresh_dpm();
        let report = recover(&path, &mut recovered).expect("recover");
        assert!(report.faithful);
        assert!(report.truncated_bytes > 0);
        assert_eq!(
            report.journal_bytes + report.truncated_bytes,
            torn_at as u64
        );
    }

    #[test]
    fn corrupt_middle_line_ends_the_valid_prefix() {
        let dir = tempdir();
        let (_, path) = journaled_run(&dir, 0);
        let text = std::fs::read_to_string(&path).expect("read");
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() > 3);
        // Corrupt the third line; everything after it must be discarded
        // even though it is well-formed.
        let mut mangled: Vec<String> = lines.iter().map(|l| (*l).to_string()).collect();
        mangled[2] = mangled[2].replace("\"t\"", "\"x\"");
        std::fs::write(&path, mangled.join("\n") + "\n").expect("write");
        let mut recovered = fresh_dpm();
        let report = recover(&path, &mut recovered).expect("recover");
        // jmeta + one op survive.
        assert_eq!(report.ops, 1);
        assert!(report.truncated_bytes > 0);
    }

    #[test]
    fn resume_truncates_the_torn_suffix_before_appending() {
        let dir = tempdir();
        let (_, path) = journaled_run(&dir, 0);
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("tear");
        let mut dpm = fresh_dpm();
        let report = recover(&path, &mut dpm).expect("recover");
        let _writer =
            JournalWriter::open(JournalConfig::new(&path), &dpm, Some(report.journal_bytes))
                .expect("resume");
        assert_eq!(
            std::fs::metadata(&path).expect("meta").len(),
            report.journal_bytes
        );
        // The truncated journal is now fully valid again.
        assert_eq!(
            valid_prefix_bytes(&path).expect("scan"),
            report.journal_bytes
        );
    }

    #[test]
    fn compacted_journal_recovers_to_the_same_fingerprint() {
        let dir = tempdir();
        let (original, path) = journaled_run_compacting(&dir, 4, 3);
        // Compaction actually happened: the journal starts with a snapshot
        // and the previous generation survives as a hard link.
        let head = std::fs::read_to_string(&path).expect("read");
        assert!(
            head.lines()
                .nth(1)
                .unwrap_or("")
                .starts_with("{\"t\":\"jsnap\""),
            "no snapshot at the journal head:\n{head}"
        );
        assert!(prev_path(&path).exists(), "no .prev generation");
        let mut recovered = fresh_dpm();
        let report = recover(&path, &mut recovered).expect("recover");
        assert!(report.faithful, "report: {report:?}");
        assert!(report.warnings.is_empty(), "report: {report:?}");
        assert!(report.snapshot_ops > 0);
        assert_eq!(report.ops as usize, original.operations_total());
        assert!(
            report.replayed_ops < report.ops,
            "tail replay not bounded: {report:?}"
        );
        assert_eq!(state_fingerprint(&recovered), state_fingerprint(&original));
        assert_eq!(recovered.operations_total(), original.operations_total());
    }

    /// Tears the snapshot program out of a compacted journal: the `jmeta`
    /// and `jsnap` header lines survive, every `jsop` (and anything after)
    /// is lost — the structurally-torn shape recovery must detect.
    fn tear_snapshot_program(path: &Path) {
        let text = std::fs::read_to_string(path).expect("read");
        let mut lines = text.lines();
        let meta = lines.next().expect("meta line");
        let snap = lines.next().expect("snap line");
        assert!(
            snap.starts_with("{\"t\":\"jsnap\""),
            "not compacted: {snap}"
        );
        std::fs::write(path, format!("{meta}\n{snap}\n")).expect("tear snapshot");
    }

    #[test]
    fn torn_snapshot_falls_back_to_the_previous_generation() {
        let dir = tempdir();
        // compact_every=1: the last append compacts, so the previous
        // generation (its own snapshot + a one-op tail) carries the full
        // final state.
        let (original, path) = journaled_run_compacting(&dir, 0, 1);
        tear_snapshot_program(&path);
        let mut recovered = fresh_dpm();
        let report = recover(&path, &mut recovered).expect("recover");
        assert!(
            report
                .warnings
                .contains(&RecoveryWarning::TornSnapshotFallback),
            "report: {report:?}"
        );
        assert_eq!(report.ops as usize, original.operations_total());
        assert_eq!(state_fingerprint(&recovered), state_fingerprint(&original));
    }

    #[test]
    fn torn_snapshot_without_a_previous_generation_is_an_error() {
        let dir = tempdir();
        let (_, path) = journaled_run_compacting(&dir, 0, 1);
        tear_snapshot_program(&path);
        std::fs::remove_file(prev_path(&path)).expect("drop .prev");
        let mut recovered = fresh_dpm();
        let err = recover(&path, &mut recovered).expect_err("must fail");
        assert!(
            err.to_string().contains("previous journal generation"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn checkpoint_mismatch_surfaces_as_a_typed_warning() {
        let dir = tempdir();
        let (_, path) = journaled_run(&dir, 4);
        // Corrupt every checkpoint fingerprint (keeping the lines valid):
        // flip the first hex digit to a different one.
        let text = std::fs::read_to_string(&path).expect("read");
        let marker = "\"fingerprint\":\"";
        let mangled: String = text
            .lines()
            .map(|line| {
                if let Some(at) = line
                    .starts_with("{\"t\":\"jck\"")
                    .then(|| line.find(marker))
                    .flatten()
                {
                    let mut chars: Vec<char> = line.chars().collect();
                    let digit = at + marker.len();
                    chars[digit] = if chars[digit] == 'f' { '0' } else { 'f' };
                    chars.into_iter().collect::<String>() + "\n"
                } else {
                    format!("{line}\n")
                }
            })
            .collect();
        std::fs::write(&path, mangled).expect("write");
        let mut recovered = fresh_dpm();
        let report = recover(&path, &mut recovered).expect("recover");
        assert!(!report.faithful);
        assert!(report.checkpoints_verified < report.checkpoints);
        assert!(
            report.warnings.iter().any(|w| matches!(
                w,
                RecoveryWarning::CheckpointMismatch { checkpoints, verified }
                    if *verified < *checkpoints
            )),
            "report: {report:?}"
        );
    }

    /// Each disk fault kind fails the append it hits and leaves the file
    /// as it was before that append, so recovery yields exactly the
    /// operations whose appends succeeded.
    #[test]
    fn disk_faults_roll_back_the_failed_append() {
        use crate::fault::FaultPlan;
        let scenario = lna_walkthrough();
        let mut sim = Simulation::new(&scenario, SimulationConfig::adpm(5));
        while matches!(sim.step(), StepOutcome::Executed(_)) {}
        let history: Vec<Operation> = sim
            .dpm()
            .history()
            .iter()
            .map(|r| r.operation.clone())
            .collect();
        let acknowledged = 3;
        assert!(history.len() > acknowledged, "walkthrough too short");
        for fault in ["enospc", "short_write", "fsync_fail"] {
            let dir = tempdir();
            let path = dir.join(format!("{fault}.journal"));
            let mut dpm = fresh_dpm();
            let mut writer = JournalWriter::open(
                JournalConfig {
                    checkpoint_every: 2,
                    ..JournalConfig::new(&path)
                },
                &dpm,
                None,
            )
            .expect("open");
            for op in &history[..acknowledged] {
                let record = dpm.execute(op.clone()).expect("execute");
                writer.append(&record, &dpm).expect("fault-free append");
            }
            let expected = state_fingerprint(&dpm);
            let plan: FaultPlan = format!("seed=5,{fault}=1.0").parse().expect("plan");
            let mut writer = writer.with_disk_faults(DiskFaultInjector::new(&plan, 0));
            let before = std::fs::metadata(&path).expect("meta").len();
            let record = dpm.execute(history[acknowledged].clone()).expect("execute");
            assert!(writer.append(&record, &dpm).is_err(), "{fault}: append");
            assert_eq!(
                std::fs::metadata(&path).expect("meta").len(),
                before,
                "{fault}: the failed append left bytes behind"
            );
            drop(writer);
            let mut recovered = fresh_dpm();
            let report = recover(&path, &mut recovered).expect("recover");
            assert!(report.faithful, "{fault}: {report:?}");
            assert_eq!(report.ops as usize, acknowledged, "{fault}");
            assert_eq!(report.truncated_bytes, 0, "{fault}");
            assert_eq!(state_fingerprint(&recovered), expected, "{fault}");
        }
    }

    /// Journals written before negotiation summaries left the journal may
    /// hold `jneg` lines between operations; recovery skips them.
    #[test]
    fn an_older_jneg_line_between_two_ops_is_skipped() {
        let dir = tempdir();
        let (original, path) = journaled_run(&dir, 0);
        let text = std::fs::read_to_string(&path).expect("read journal");
        let jneg = "{\"t\":\"jneg\",\"seq\":1,\"constraint\":\"c\",\"rounds\":1,\
                    \"proposals\":1,\"participants\":2,\"outcome\":\"resolved\"}\n";
        let second_op = text
            .match_indices("{\"t\":\"jop\"")
            .nth(1)
            .expect("two ops")
            .0;
        let edited = format!("{}{jneg}{}", &text[..second_op], &text[second_op..]);
        std::fs::write(&path, edited).expect("write journal");
        let mut recovered = fresh_dpm();
        let report = recover(&path, &mut recovered).expect("recover");
        assert!(report.faithful, "report: {report:?}");
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(report.ops as usize, original.history().len());
        assert_eq!(state_fingerprint(&recovered), state_fingerprint(&original));
    }

    /// A batch is one write: its `jop` lines in order, and a checkpoint
    /// that fell due inside it after the last of them, fingerprinting the
    /// state after the batch.
    #[test]
    fn a_checkpoint_due_inside_a_batch_follows_its_last_op() {
        let dir = tempdir();
        let (original, _) = journaled_run(&dir, 0);
        let records = &original.history()[..3];
        let path = dir.join("batch.journal");
        let mut dpm = fresh_dpm();
        let config = JournalConfig {
            fsync: FsyncPolicy::Never,
            checkpoint_every: 2,
            ..JournalConfig::new(&path)
        };
        let mut writer = JournalWriter::open(config, &dpm, None).expect("open journal");
        for record in records {
            dpm.execute(record.operation.clone()).expect("execute");
        }
        writer.append_all(records, &dpm).expect("append");
        drop(writer);
        let text = std::fs::read_to_string(&path).expect("read journal");
        let tags: Vec<&str> = text.lines().filter_map(|l| l.split('"').nth(3)).collect();
        assert_eq!(tags, ["jmeta", "jop", "jop", "jop", "jck"]);
        assert!(text.lines().last().unwrap().contains("\"seq\":3"));
        let mut recovered = fresh_dpm();
        let report = recover(&path, &mut recovered).expect("recover");
        assert!(report.faithful, "report: {report:?}");
        assert_eq!((report.ops, report.checkpoints_verified), (3, 1));
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!("always".parse::<FsyncPolicy>(), Ok(FsyncPolicy::Always));
        assert_eq!("never".parse::<FsyncPolicy>(), Ok(FsyncPolicy::Never));
        let error = "8".parse::<FsyncPolicy>().unwrap_err();
        assert!(error.contains("always|never"), "{error}");
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
    }

    /// Unique-per-test scratch dir under the target-adjacent temp dir.
    fn tempdir() -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("adpm-journal-test-{}-{id}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }
}
