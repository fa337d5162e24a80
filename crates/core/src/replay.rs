//! Design-history replay.
//!
//! The paper's design process history `H_n` records every state/operation
//! pair; because the DPM's transition function `δ` is deterministic, a
//! recorded operation sequence re-executed on an identically initialized
//! DPM reproduces the run exactly. Replay is the workhorse for debugging a
//! simulation tail ("what did the state look like at operation 37?") and
//! for auditing that the history alone determines the outcome.

use crate::dpm::DesignProcessManager;
use crate::operation::{Operation, OperationRecord};
use adpm_constraint::NetworkError;
use adpm_observe::TraceLine;

/// Result of replaying a history on a fresh DPM.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// The records produced by the replay, in order.
    pub records: Vec<OperationRecord>,
    /// Whether every replayed record matched the original (same
    /// evaluations, violations, and spin flags).
    pub faithful: bool,
}

/// Re-executes `history` on `dpm` (which must be a freshly built, already
/// [`initialize`](DesignProcessManager::initialize)d DPM of the same
/// scenario and configuration) and reports whether the replay reproduced
/// the recorded outcomes.
///
/// # Errors
///
/// Returns the first [`NetworkError`] hit — which, for a history recorded
/// against the same scenario, indicates the DPM was *not* equivalently
/// initialized.
///
/// # Examples
///
/// ```
/// use adpm_core::{replay_history, DesignProcessManager, DpmConfig, Operation};
/// use adpm_constraint::{ConstraintNetwork, Property, Domain, Relation, Value,
///                       expr::{var, cst}};
/// # fn main() -> Result<(), adpm_constraint::NetworkError> {
/// let mut net = ConstraintNetwork::new();
/// let x = net.add_property(Property::new("x", "o", Domain::interval(0.0, 10.0)))?;
/// net.add_constraint("cap", var(x), Relation::Le, cst(4.0))?;
///
/// let build = |net: &ConstraintNetwork| {
///     let mut dpm = DesignProcessManager::new(net.clone(), DpmConfig::adpm());
///     let d = dpm.add_designer();
///     let top = dpm.problems_mut().add_root("top");
///     *dpm.problems_mut().problem_mut(top) =
///         dpm.problems().problem(top).clone().with_outputs([x]).with_assignee(d);
///     dpm.initialize();
///     dpm
/// };
/// let mut original = build(&net);
/// let d = original.designers()[0];
/// let top = original.problems().root().unwrap();
/// original.execute(Operation::assign(d, top, x, Value::number(3.0)))?;
///
/// let mut fresh = build(&net);
/// let outcome = replay_history(original.history(), &mut fresh)?;
/// assert!(outcome.faithful);
/// assert!(fresh.design_complete());
/// # Ok(())
/// # }
/// ```
pub fn replay_history(
    history: &[OperationRecord],
    dpm: &mut DesignProcessManager,
) -> Result<ReplayOutcome, NetworkError> {
    let mut records = Vec::with_capacity(history.len());
    let mut faithful = true;
    for original in history {
        let operation: Operation = original.operation.clone();
        let record = dpm.execute(operation)?;
        faithful = faithful
            && record.evaluations == original.evaluations
            && record.violations_after == original.violations_after
            && record.new_violations == original.new_violations
            && record.spin == original.spin;
        records.push(record);
    }
    Ok(ReplayOutcome { records, faithful })
}

/// A deterministic 64-bit digest of the *design state*: every property's
/// binding and feasible subspace plus the set of violated constraints and
/// the history length.
///
/// The digest deliberately excludes spin flags and repair attribution —
/// operations submitted over the collaboration wire carry no `repairs`
/// list, so a remote run's spin accounting can differ from an in-process
/// run while the design states are identical. Two runs with equal
/// fingerprints agree on everything a designer can observe: which
/// properties are bound to what, how far every feasible subspace has
/// narrowed, and which constraints are violated.
pub fn state_fingerprint(dpm: &DesignProcessManager) -> u64 {
    // FNV-1a over the state's canonical byte encoding: stable across runs
    // and platforms, no hasher-randomization surprises.
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(PRIME);
        }
    };
    let network = dpm.network();
    // The logical operation count, not the in-memory history length: a DPM
    // restored from a journal snapshot fingerprints identically to the
    // original that executed the full history.
    eat(&(dpm.operations_total() as u64).to_le_bytes());
    for pid in network.property_ids() {
        match network.assignment(pid) {
            None => eat(&[0]),
            Some(adpm_constraint::Value::Number(x)) => {
                eat(&[1]);
                eat(&x.to_bits().to_le_bytes());
            }
            Some(adpm_constraint::Value::Bool(b)) => eat(&[2, u8::from(*b)]),
            Some(adpm_constraint::Value::Text(s)) => {
                eat(&[3]);
                eat(s.as_bytes());
            }
        }
        match network.feasible(pid).enclosing_interval() {
            None => eat(&[4]),
            Some(iv) => {
                eat(&iv.lo().to_bits().to_le_bytes());
                eat(&iv.hi().to_bits().to_le_bytes());
            }
        }
    }
    for cid in network.violated_constraints() {
        eat(&(cid.index() as u64).to_le_bytes());
    }
    hash
}

/// Result of auditing a JSONL trace against a design history.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceAudit {
    /// `"op"` lines found in the trace.
    pub trace_operations: usize,
    /// Operations present in the history.
    pub history_operations: usize,
    /// Sequence numbers whose trace line disagrees with the history record
    /// (kind, evaluations, spin flag, or violation counts), or which appear
    /// in only one of the two.
    pub mismatched: Vec<u64>,
}

impl TraceAudit {
    /// Whether the trace and the history tell the same story.
    pub fn consistent(&self) -> bool {
        self.mismatched.is_empty() && self.trace_operations == self.history_operations
    }
}

/// Cross-checks the `"op"` lines of a parsed JSONL trace (see
/// [`adpm_observe::parse_trace`]) against a design history — the offline
/// half of replay auditing: a trace written by a
/// [`JsonlSink`](adpm_observe::JsonlSink) during a run must agree with the
/// history that run recorded, field for field.
pub fn audit_trace(trace: &[TraceLine], history: &[OperationRecord]) -> TraceAudit {
    let mut audit = TraceAudit {
        history_operations: history.len(),
        ..TraceAudit::default()
    };
    let mut seen = std::collections::BTreeSet::new();
    for line in trace.iter().filter(|l| l.tag() == "op") {
        audit.trace_operations += 1;
        let Some(seq) = line.u64_field("seq") else {
            audit.mismatched.push(0);
            continue;
        };
        seen.insert(seq);
        let Some(record) = history.iter().find(|r| r.sequence as u64 == seq) else {
            audit.mismatched.push(seq);
            continue;
        };
        let matches = line.str_field("kind") == Some(record.operation.operator().kind())
            && line.u64_field("designer") == Some(record.operation.designer().index() as u64)
            && line.u64_field("evaluations") == Some(record.evaluations as u64)
            && line.u64_field("violations_after") == Some(record.violations_after as u64)
            && line.u64_field("new_violations") == Some(record.new_violations.len() as u64)
            && line.bool_field("spin") == Some(record.spin);
        if !matches {
            audit.mismatched.push(seq);
        }
    }
    for record in history {
        if !seen.contains(&(record.sequence as u64)) {
            audit.mismatched.push(record.sequence as u64);
        }
    }
    audit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpm::DpmConfig;
    use crate::ids::DesignerId;
    use adpm_constraint::{
        expr::{cst, var},
        ConstraintNetwork, Domain, Property, Relation, Value,
    };

    fn build() -> (
        ConstraintNetwork,
        adpm_constraint::PropertyId,
        adpm_constraint::PropertyId,
    ) {
        let mut net = ConstraintNetwork::new();
        let x = net
            .add_property(Property::new("x", "a", Domain::interval(0.0, 10.0)))
            .unwrap();
        let y = net
            .add_property(Property::new("y", "b", Domain::interval(0.0, 10.0)))
            .unwrap();
        net.add_constraint("sum", var(x) + var(y), Relation::Le, cst(12.0))
            .unwrap();
        (net, x, y)
    }

    fn dpm_for(net: &ConstraintNetwork, config: DpmConfig) -> DesignProcessManager {
        let (_, x, y) = build(); // ids are stable across identical builds
        let mut dpm = DesignProcessManager::new(net.clone(), config);
        let d = dpm.add_designer();
        let top = dpm.problems_mut().add_root("top");
        *dpm.problems_mut().problem_mut(top) = dpm
            .problems()
            .problem(top)
            .clone()
            .with_outputs([x, y])
            .with_assignee(d);
        dpm.initialize();
        dpm
    }

    #[test]
    fn replay_reproduces_records_and_final_state() {
        let (net, x, y) = build();
        let mut original = dpm_for(&net, DpmConfig::adpm());
        let d = DesignerId::new(0);
        let top = original.problems().root().unwrap();
        original
            .execute(Operation::assign(d, top, x, Value::number(9.0)))
            .unwrap();
        original
            .execute(Operation::assign(d, top, y, Value::number(5.0)))
            .unwrap(); // violates sum <= 12
        original
            .execute(Operation::assign(d, top, y, Value::number(2.0)))
            .unwrap();
        assert!(original.design_complete());

        let mut fresh = dpm_for(&net, DpmConfig::adpm());
        let outcome = replay_history(original.history(), &mut fresh).unwrap();
        assert!(outcome.faithful);
        assert_eq!(outcome.records.len(), 3);
        assert!(fresh.design_complete());
        assert_eq!(fresh.total_evaluations(), original.total_evaluations());
        assert_eq!(fresh.spins(), original.spins());
    }

    #[test]
    fn replay_on_a_different_configuration_is_unfaithful_not_wrong() {
        let (net, x, y) = build();
        let mut original = dpm_for(&net, DpmConfig::adpm());
        let d = DesignerId::new(0);
        let top = original.problems().root().unwrap();
        original
            .execute(Operation::assign(d, top, x, Value::number(9.0)))
            .unwrap();
        original
            .execute(Operation::assign(d, top, y, Value::number(5.0)))
            .unwrap();

        // Replaying an ADPM history on a conventional DPM executes fine but
        // produces different evaluation counts — reported, not panicking.
        let mut conventional = dpm_for(&net, DpmConfig::conventional());
        let outcome = replay_history(original.history(), &mut conventional).unwrap();
        assert!(!outcome.faithful);
    }

    #[test]
    fn replay_surfaces_invalid_operations_as_errors() {
        let (net, x, _) = build();
        let mut donor = dpm_for(&net, DpmConfig::adpm());
        let d = DesignerId::new(0);
        let top = donor.problems().root().unwrap();
        donor
            .execute(Operation::assign(d, top, x, Value::number(9.0)))
            .unwrap();
        let mut history = donor.history().to_vec();
        // Corrupt the history with an out-of-range value.
        history[0].operation = Operation::assign(d, top, x, Value::number(999.0));
        let mut fresh = dpm_for(&net, DpmConfig::adpm());
        assert!(replay_history(&history, &mut fresh).is_err());
    }

    #[test]
    fn empty_history_is_trivially_faithful() {
        let (net, _, _) = build();
        let mut dpm = dpm_for(&net, DpmConfig::adpm());
        let outcome = replay_history(&[], &mut dpm).unwrap();
        assert!(outcome.faithful);
        assert!(outcome.records.is_empty());
    }

    /// End-to-end: run a traced DPM session, parse the JSONL it wrote, and
    /// audit the trace against the history that produced it.
    #[test]
    fn trace_audit_matches_the_history_that_wrote_it() {
        use adpm_observe::{parse_trace, JsonlSink};
        use std::io::Write;
        use std::sync::{Arc, Mutex};

        #[derive(Clone, Default)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let (net, x, y) = build();
        let mut dpm = dpm_for(&net, DpmConfig::adpm());
        let buf = Buf::default();
        let sink = Arc::new(JsonlSink::new(Box::new(buf.clone())));
        dpm.set_sink(sink.clone());
        let d = DesignerId::new(0);
        let top = dpm.problems().root().unwrap();
        dpm.execute(Operation::assign(d, top, x, Value::number(9.0)))
            .unwrap();
        dpm.execute(Operation::assign(d, top, y, Value::number(5.0)))
            .unwrap(); // violates sum <= 12
        dpm.execute(Operation::assign(d, top, y, Value::number(2.0)))
            .unwrap();
        sink.finish().unwrap();

        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let trace = parse_trace(&text).unwrap();
        let audit = audit_trace(&trace, dpm.history());
        assert!(audit.consistent(), "audit = {audit:?}");
        assert_eq!(audit.trace_operations, 3);

        // Tampering with the history breaks consistency.
        let mut tampered = dpm.history().to_vec();
        tampered[1].spin = !tampered[1].spin;
        let audit = audit_trace(&trace, &tampered);
        assert!(!audit.consistent());
        assert_eq!(audit.mismatched, vec![2]);

        // A truncated trace is flagged too.
        let audit = audit_trace(&trace[..0], dpm.history());
        assert!(!audit.consistent());
        assert_eq!(audit.mismatched.len(), 3);
    }
}
