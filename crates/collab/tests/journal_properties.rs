//! Property-based tests of the operation journal's crash-recovery
//! contract: truncating the file at *any* byte offset recovers exactly
//! the longest valid prefix (never more, never garbage), a full
//! write→recover round trip reproduces the design state bit-for-bit, and
//! under disk faults recovery yields exactly the operations a session
//! acknowledged.

use std::path::PathBuf;
use std::sync::OnceLock;

use adpm_collab::{
    recover, valid_prefix_bytes, DiskFaultInjector, FaultPlan, FsyncPolicy, JournalConfig,
    JournalWriter, NegotiationConfig, OpOutcome, SessionEngine, SessionOptions,
};
use adpm_core::{state_fingerprint, DesignProcessManager, Operation, OperationRecord};
use adpm_scenarios::lna_walkthrough;
use adpm_teamsim::{Simulation, SimulationConfig, StepOutcome};
use proptest::prelude::*;

fn fresh_dpm() -> DesignProcessManager {
    let scenario = lna_walkthrough();
    let mut dpm = scenario.build_dpm(SimulationConfig::adpm(5).dpm_config());
    dpm.initialize();
    dpm
}

/// The history of one TeamSim run of the walkthrough under `config`.
fn simulated_history(config: SimulationConfig) -> Vec<OperationRecord> {
    let scenario = lna_walkthrough();
    let mut sim = Simulation::new(&scenario, config);
    while matches!(sim.step(), StepOutcome::Executed(_)) {}
    sim.dpm().history().to_vec()
}

/// The walkthrough's operation history plus the bytes of a journal
/// produced by re-executing it under a `JournalWriter` — computed once,
/// shared across proptest cases.
fn fixture() -> &'static (Vec<Operation>, Vec<u8>) {
    static FIXTURE: OnceLock<(Vec<Operation>, Vec<u8>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let history: Vec<Operation> = simulated_history(SimulationConfig::adpm(5))
            .into_iter()
            .map(|r| r.operation)
            .collect();
        assert!(history.len() > 3, "walkthrough too short to exercise");
        let dir = scratch_dir();
        let path = dir.join("fixture.journal");
        let mut dpm = fresh_dpm();
        let mut writer = JournalWriter::open(
            JournalConfig {
                path: path.clone(),
                fsync: FsyncPolicy::Never,
                checkpoint_every: 3,
                compact_every: 0,
            },
            &dpm,
            None,
        )
        .expect("open journal");
        for op in &history {
            let record = dpm.execute(op.clone()).expect("execute");
            writer.append(&record, &dpm).expect("append");
        }
        writer.sync().expect("sync");
        let bytes = std::fs::read(&path).expect("read journal");
        (history, bytes)
    })
}

/// A conventional-mode history of the walkthrough: its designers bind
/// without ADPM's narrowed ranges, so its operations introduce conflicts,
/// which a negotiating session relaxes.
fn conflicting_history() -> &'static Vec<Operation> {
    static HISTORY: OnceLock<Vec<Operation>> = OnceLock::new();
    HISTORY.get_or_init(|| {
        let records = simulated_history(SimulationConfig::conventional(5));
        assert!(
            records.iter().any(|r| !r.new_violations.is_empty()),
            "the conventional walkthrough introduces no conflict"
        );
        records.into_iter().map(|r| r.operation).collect()
    })
}

/// Unique-per-case scratch dir under the system temp dir.
fn scratch_dir() -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("adpm-journal-prop-{}-{id}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Longest prefix of `bytes[..cut]` that ends on a line boundary — the
/// independent oracle for what recovery must keep, valid because every
/// line the fixture writer produced is well-formed.
fn line_boundary_prefix(bytes: &[u8], cut: usize) -> usize {
    bytes[..cut]
        .iter()
        .rposition(|b| *b == b'\n')
        .map_or(0, |p| p + 1)
}

/// Number of `jop` lines within the first `prefix` bytes.
fn ops_in_prefix(bytes: &[u8], prefix: usize) -> usize {
    bytes[..prefix]
        .split(|b| *b == b'\n')
        .filter(|line| line.starts_with(b"{\"t\":\"jop\""))
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Chopping the journal at an arbitrary byte offset — a crash mid-write
    /// — recovers exactly the operations whose lines survived in full.
    #[test]
    fn truncation_recovers_exactly_the_longest_valid_prefix(cut_frac in 0.0f64..1.25) {
        let (history, bytes) = fixture();
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = ((bytes.len() as f64) * cut_frac).round() as usize;
        let cut = cut.min(bytes.len());
        let dir = scratch_dir();
        let path = dir.join("torn.journal");
        std::fs::write(&path, &bytes[..cut]).expect("write torn journal");

        let expected_prefix = line_boundary_prefix(bytes, cut);
        let expected_ops = ops_in_prefix(bytes, expected_prefix);

        let mut recovered = fresh_dpm();
        let report = recover(&path, &mut recovered).expect("recover");

        prop_assert_eq!(report.journal_bytes, expected_prefix as u64);
        prop_assert_eq!(report.truncated_bytes, (cut - expected_prefix) as u64);
        prop_assert_eq!(report.ops, expected_ops as u64);
        prop_assert!(report.faithful, "report: {:?}", report);
        prop_assert_eq!(report.checkpoints_verified, report.checkpoints);
        prop_assert_eq!(
            valid_prefix_bytes(&path).expect("scan"),
            expected_prefix as u64
        );

        // The recovered state is the state after exactly those operations.
        let mut expected = fresh_dpm();
        for op in &history[..expected_ops] {
            expected.execute(op.clone()).expect("re-execute prefix");
        }
        prop_assert_eq!(state_fingerprint(&recovered), state_fingerprint(&expected));
    }

    /// Journaling any history prefix under either fsync policy and any
    /// checkpoint cadence, then recovering it, reproduces the design state
    /// exactly.
    #[test]
    fn write_then_recover_round_trips(
        take_frac in 0.0f64..1.25,
        checkpoint_every in 0u64..5,
        fsync in prop_oneof![Just(FsyncPolicy::Always), Just(FsyncPolicy::Never)],
    ) {
        let (history, _) = fixture();
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let take = ((history.len() as f64) * take_frac).round() as usize;
        let take = take.min(history.len());
        let dir = scratch_dir();
        let path = dir.join("roundtrip.journal");

        let mut original = fresh_dpm();
        let mut writer = JournalWriter::open(
            JournalConfig {
                path: path.clone(),
                fsync,
                checkpoint_every,
                compact_every: 0,
            },
            &original,
            None,
        )
        .expect("open journal");
        for op in &history[..take] {
            let record = original.execute(op.clone()).expect("execute");
            writer.append(&record, &original).expect("append");
        }
        writer.sync().expect("sync");
        drop(writer);

        let mut recovered = fresh_dpm();
        let report = recover(&path, &mut recovered).expect("recover");
        prop_assert_eq!(report.ops, take as u64);
        prop_assert_eq!(report.truncated_bytes, 0);
        prop_assert!(report.faithful, "report: {:?}", report);
        prop_assert_eq!(report.checkpoints_verified, report.checkpoints);
        prop_assert_eq!(state_fingerprint(&recovered), state_fingerprint(&original));
        prop_assert_eq!(
            format!("{:?}", recovered.history()),
            format!("{:?}", original.history())
        );
    }

    /// Snapshot+tail recovery is state-fingerprint-identical to full
    /// history execution for arbitrary history prefixes and compaction /
    /// checkpoint cadences, the snapshot and the replayed tail together
    /// account for every operation written, and the tail stays bounded by
    /// the cadence however long the journal grew.
    #[test]
    fn compacted_recovery_matches_full_replay(
        take_frac in 0.0f64..1.25,
        compact_every in 1u64..6,
        checkpoint_every in 0u64..5,
    ) {
        let (history, _) = fixture();
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let take = ((history.len() as f64) * take_frac).round() as usize;
        let take = take.min(history.len());
        let dir = scratch_dir();
        let path = dir.join("compacted.journal");

        let mut original = fresh_dpm();
        let mut writer = JournalWriter::open(
            JournalConfig {
                path: path.clone(),
                fsync: FsyncPolicy::Never,
                checkpoint_every,
                compact_every,
            },
            &original,
            None,
        )
        .expect("open journal");
        for op in &history[..take] {
            let record = original.execute(op.clone()).expect("execute");
            writer.append(&record, &original).expect("append");
        }
        writer.sync().expect("sync");
        drop(writer);

        let mut recovered = fresh_dpm();
        let report = recover(&path, &mut recovered).expect("recover");
        prop_assert_eq!(report.ops, take as u64);
        prop_assert_eq!(report.snapshot_ops + report.replayed_ops, report.ops);
        prop_assert!(report.faithful, "report: {:?}", report);
        prop_assert!(report.warnings.is_empty(), "report: {:?}", report);
        if report.snapshot_ops > 0 {
            prop_assert!(
                report.replayed_ops < compact_every,
                "tail not bounded by cadence: {:?}",
                report
            );
        } else {
            prop_assert_eq!(report.replayed_ops, take as u64);
        }
        prop_assert_eq!(state_fingerprint(&recovered), state_fingerprint(&original));
        prop_assert_eq!(recovered.operations_total(), original.operations_total());
    }

    /// A kill -9 at any stage of the compaction protocol (torn temp file;
    /// complete temp file not yet renamed; previous-generation hard link
    /// already made) leaves a journal that still recovers the full state —
    /// the atomic rename is the commit point.
    #[test]
    fn kill9_mid_compaction_staged_states_recover(
        take_frac in 0.3f64..1.0,
        compact_every in 1u64..5,
        stage in 0usize..3,
    ) {
        let (history, _) = fixture();
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let take = ((history.len() as f64) * take_frac).round() as usize;
        let take = take.min(history.len()).max(1);
        let dir = scratch_dir();
        let path = dir.join("killed.journal");

        let mut original = fresh_dpm();
        let mut writer = JournalWriter::open(
            JournalConfig {
                path: path.clone(),
                fsync: FsyncPolicy::Never,
                checkpoint_every: 0,
                compact_every,
            },
            &original,
            None,
        )
        .expect("open journal");
        for op in &history[..take] {
            let record = original.execute(op.clone()).expect("execute");
            writer.append(&record, &original).expect("append");
        }
        writer.sync().expect("sync");
        drop(writer);

        // Stage the kill -9 leftovers around the intact journal.
        let journal = std::fs::read(&path).expect("read journal");
        let tmp = {
            let mut os = path.as_os_str().to_owned();
            os.push(".compact.tmp");
            PathBuf::from(os)
        };
        let prev = {
            let mut os = path.as_os_str().to_owned();
            os.push(".prev");
            PathBuf::from(os)
        };
        match stage {
            // Died mid-way through writing the temp snapshot.
            0 => std::fs::write(&tmp, &journal[..journal.len() / 2]).expect("torn tmp"),
            // Temp snapshot complete, rename never happened.
            1 => std::fs::write(&tmp, &journal).expect("whole tmp"),
            // Hard link to the previous generation made, rename not yet:
            // path and prev are the same (old) content.
            _ => {
                let _ = std::fs::remove_file(&prev);
                std::fs::hard_link(&path, &prev).expect("stage hard link");
            }
        }

        let mut recovered = fresh_dpm();
        let report = recover(&path, &mut recovered).expect("recover");
        prop_assert_eq!(report.ops, take as u64);
        prop_assert!(report.faithful, "report: {:?}", report);
        prop_assert_eq!(state_fingerprint(&recovered), state_fingerprint(&original));
    }

    /// Fail-stop under disk faults: submitting a TeamSim history through
    /// a journaled session under a seeded plan of ENOSPC, short writes and
    /// fsync failures, a crash right after the last answer recovers
    /// exactly the operations answered `executed`, in order, and their
    /// design state. A negotiating session replays a history that
    /// introduces conflicts: each acknowledged submit then also brings the
    /// relaxations its negotiations applied, and nothing of a submit that
    /// was not acknowledged.
    #[test]
    fn recovery_yields_exactly_the_acknowledged_prefix(
        seed in 0u64..1_000,
        enospc in 0.0f64..0.3,
        short_write in 0.0f64..0.3,
        fsync_fail in 0.0f64..0.3,
        negotiating in any::<bool>(),
    ) {
        let history = if negotiating { conflicting_history() } else { &fixture().0 };
        let plan: FaultPlan = format!(
            "seed={seed},enospc={enospc},short_write={short_write},fsync_fail={fsync_fail}"
        )
        .parse()
        .expect("plan");
        let dir = scratch_dir();
        let path = dir.join("faulty.journal");
        let dpm = fresh_dpm();
        let journal = JournalWriter::open(JournalConfig::new(&path), &dpm, None)
            .expect("open journal")
            .with_disk_faults(DiskFaultInjector::new(&plan, 0));
        let engine = SessionEngine::spawn_with(
            dpm,
            SessionOptions {
                journal: Some(journal),
                negotiation: negotiating.then(NegotiationConfig::default),
                ..SessionOptions::default()
            },
        );
        let handle = engine.handle();
        // Every record the acknowledged submits added to the history.
        let mut acknowledged: Vec<OperationRecord> = Vec::new();
        let mut answered = 0;
        for op in history {
            match handle.submit(op.clone()) {
                Ok(OpOutcome::Executed(_)) => {
                    let known = acknowledged.len();
                    let added = handle
                        .read(|dpm| dpm.history()[known..].to_vec())
                        .expect("an acknowledged submit leaves the session open");
                    acknowledged.extend(added);
                    answered += 1;
                }
                Ok(OpOutcome::Rejected(reason)) => panic!("history op rejected: {reason}"),
                Err(_) => break,
            }
        }
        // The journal as a crash at this instant would leave it.
        let crashed = dir.join("crashed.journal");
        std::fs::copy(&path, &crashed).expect("copy journal");
        let closed = answered < history.len();
        prop_assert_eq!(engine.shutdown().is_none(), closed);

        let mut recovered = fresh_dpm();
        let report = recover(&crashed, &mut recovered).expect("recover");
        prop_assert!(report.faithful, "report: {:?}", report);
        prop_assert_eq!(report.truncated_bytes, 0);
        prop_assert_eq!(
            format!("{:?}", recovered.history()),
            format!("{:?}", acknowledged)
        );
        let mut expected = fresh_dpm();
        for record in &acknowledged {
            expected.execute(record.operation.clone()).expect("re-execute");
        }
        prop_assert_eq!(state_fingerprint(&recovered), state_fingerprint(&expected));
    }
}
