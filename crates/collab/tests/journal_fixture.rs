//! The journal's bytes are pinned: a fixed sensing history, written with
//! checkpoints and a compaction, must serialize to exactly the checked-in
//! `fixtures/sensing_journal.jsonl`, and recovering that file must
//! reproduce the design state the history leads to.

use std::path::PathBuf;

use adpm_collab::{recover, FsyncPolicy, JournalConfig, JournalWriter};
use adpm_constraint::{ConstraintId, Relaxation};
use adpm_core::{state_fingerprint, DesignProcessManager, DesignerId, Operation, Operator};
use adpm_scenarios::sensing_system;
use adpm_teamsim::{Simulation, SimulationConfig, StepOutcome};

/// State fingerprint after the whole pinned history.
const FINAL_FINGERPRINT: &str = "28afc637c690577b";

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sensing_journal.jsonl")
}

fn fresh_dpm() -> DesignProcessManager {
    let mut dpm = sensing_system().build_dpm(SimulationConfig::conventional(3).dpm_config());
    dpm.initialize();
    dpm
}

/// A seeded conventional-mode TeamSim run on the sensing system (its
/// verifications discover violations), followed by a verification
/// of two named constraints and a widening relaxation with repairs, so
/// every name-carrying field of a `jop` line is exercised.
fn history() -> Vec<Operation> {
    let mut sim = Simulation::new(&sensing_system(), SimulationConfig::conventional(3));
    while sim.operations() < 30 && matches!(sim.step(), StepOutcome::Executed(_)) {}
    let mut ops: Vec<Operation> = sim
        .dpm()
        .history()
        .iter()
        .map(|r| r.operation.clone())
        .collect();
    let last = ops.last().expect("the run executes").clone();
    let (first, second) = (ConstraintId::new(0), ConstraintId::new(1));
    ops.push(Operation::new(
        DesignerId::new(0),
        last.problem(),
        Operator::Verify {
            constraints: vec![first, second],
        },
    ));
    ops.push(
        Operation::relax(
            DesignerId::new(1),
            last.problem(),
            second,
            Relaxation::WidenBound { slack: 0.5 },
        )
        .with_repairs([second]),
    );
    ops
}

/// Writes the history to `path` (checkpoint every 4, compact every 12)
/// and returns the live state it ends in.
fn write_journal(path: &std::path::Path) -> DesignProcessManager {
    let mut dpm = fresh_dpm();
    let mut writer = JournalWriter::open(
        JournalConfig {
            path: path.to_path_buf(),
            fsync: FsyncPolicy::Never,
            checkpoint_every: 4,
            compact_every: 12,
        },
        &dpm,
        None,
    )
    .expect("open journal");
    for op in history() {
        let record = dpm.execute(op).expect("execute");
        writer.append(&record, &dpm).expect("append");
    }
    writer.sync().expect("sync");
    dpm
}

fn scratch_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adpm-journal-fixture-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn journal_bytes_match_the_pinned_fixture() {
    let path = scratch_path("written.journal");
    let live = write_journal(&path);
    let written = std::fs::read_to_string(&path).expect("read journal");
    let pinned = std::fs::read_to_string(fixture_path()).expect("read fixture");
    for tag in ["jmeta", "jsnap", "jsop", "jop", "jck"] {
        assert!(
            pinned.contains(&format!("{{\"t\":\"{tag}\"")),
            "the fixture must carry a `{tag}` line"
        );
    }
    assert_eq!(written, pinned, "journal bytes drifted from the fixture");
    assert_eq!(
        format!("{:016x}", state_fingerprint(&live)),
        FINAL_FINGERPRINT
    );
}

#[test]
fn pinned_fixture_recovers_to_its_fingerprint() {
    let path = scratch_path("recovered.journal");
    std::fs::copy(fixture_path(), &path).expect("copy fixture");
    let mut recovered = fresh_dpm();
    let report = recover(&path, &mut recovered).expect("recover");
    assert!(report.faithful, "report: {report:?}");
    assert_eq!(report.checkpoints_verified, report.checkpoints);
    assert_eq!(
        format!("{:016x}", state_fingerprint(&recovered)),
        FINAL_FINGERPRINT
    );
}
