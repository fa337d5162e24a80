//! Cross-crate tests for the observability layer: a traced TeamSim run
//! over the paper's MEMS sensing case must emit schema-valid JSONL, the
//! trace must be deterministic per seed, and it must agree with the
//! operation history the DPM records (the replay/audit contract).
//!
//! The golden file `golden/sensing_short.jsonl` pins the exact trace of a
//! short seeded run. Regenerate it after an intentional change to the
//! trace schema or the engine with:
//!
//! ```console
//! $ UPDATE_GOLDEN=1 cargo test -p adpm-integration-tests --test observability
//! ```

use adpm_observe::{
    parse_trace, InMemorySink, JsonlSink, ManualClock, MetricsSink, TeeSink, TraceLine,
};
use adpm_teamsim::{run_once_instrumented, run_once_with_sink, SimulationConfig};
use std::path::PathBuf;
use std::sync::Arc;

/// A short, deterministic sensing-system run: ADPM mode, fixed seed, capped
/// at 8 operations so the trace stays readable.
fn short_sensing_config() -> SimulationConfig {
    let mut config = SimulationConfig::adpm(3);
    config.max_operations = 8;
    config
}

/// Traces a short run against a [`ManualClock`] stepping 1 µs per reading,
/// so every `dur_us` in the trace is a deterministic function of the
/// execution path (byte-identical traces per seed).
fn trace_short_sensing_run(path: &std::path::Path) -> adpm_teamsim::RunStats {
    let scenario = adpm_scenarios::sensing_system();
    let sink = Arc::new(JsonlSink::create(path).expect("create trace file"));
    let clock = Arc::new(ManualClock::with_step(0, 1));
    let stats = run_once_instrumented(&scenario, short_sensing_config(), sink.clone(), clock);
    sink.finish().expect("flush trace");
    stats
}

fn tmp_trace_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("adpm-observability-tests");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

/// Field-level schema requirements, one entry per documented line tag
/// (`docs/OBSERVABILITY.md`). Every field listed must be present.
const SCHEMA: &[(&str, &[&str])] = &[
    (
        "run_start",
        &["mode", "seed", "designers", "properties", "constraints"],
    ),
    (
        "wave",
        &["wave", "queue_len", "evaluations", "narrowed", "dur_us"],
    ),
    ("cprof", &["name", "evaluations", "conflict"]),
    ("pprof", &["name", "narrowings"]),
    (
        "propagation",
        &[
            "evaluations",
            "waves",
            "narrowed",
            "conflicts",
            "fixpoint",
            "dur_us",
        ],
    ),
    ("violation", &["seq", "constraint", "cross"]),
    (
        "op",
        &[
            "seq",
            "designer",
            "kind",
            "mode",
            "target",
            "evaluations",
            "violations_after",
            "new_violations",
            "spin",
            "dur_us",
        ],
    ),
    ("fanout", &["seq", "recipients", "events", "dur_us"]),
    ("tick", &["tick", "outcome", "dur_us"]),
    (
        "summary",
        &[
            "operations",
            "evaluations",
            "spins",
            "violations",
            "completed",
        ],
    ),
    ("counters", &["operations", "evaluations", "waves", "spins"]),
];

fn check_schema(lines: &[TraceLine]) {
    for (i, line) in lines.iter().enumerate() {
        let (_, required) = SCHEMA
            .iter()
            .find(|(tag, _)| *tag == line.tag())
            .unwrap_or_else(|| panic!("line {i}: unknown tag `{}`", line.tag()));
        for field in *required {
            assert!(
                line.get(field).is_some(),
                "line {i} ({}): missing field `{field}`",
                line.tag()
            );
        }
    }
}

#[test]
fn sensing_trace_is_schema_valid_jsonl() {
    let path = tmp_trace_path("schema.jsonl");
    let stats = trace_short_sensing_run(&path);
    let text = std::fs::read_to_string(&path).expect("read trace");
    let lines = parse_trace(&text).expect("every line parses as flat JSON");
    check_schema(&lines);

    // Envelope: context first, counter totals last, exactly one summary.
    assert_eq!(lines.first().map(TraceLine::tag), Some("run_start"));
    assert_eq!(lines.last().map(TraceLine::tag), Some("counters"));
    let summaries: Vec<_> = lines.iter().filter(|l| l.tag() == "summary").collect();
    assert_eq!(summaries.len(), 1);
    assert_eq!(
        summaries[0].u64_field("operations"),
        Some(stats.operations as u64)
    );

    // The op lines are the run, one per executed operation, in order.
    let ops: Vec<_> = lines.iter().filter(|l| l.tag() == "op").collect();
    assert_eq!(ops.len(), stats.operations);
    for (i, op) in ops.iter().enumerate() {
        // Operation sequence numbers are 1-based, matching the DPM history.
        assert_eq!(op.u64_field("seq"), Some(i as u64 + 1));
        assert_eq!(op.str_field("mode"), Some("adpm"));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn traced_counters_line_matches_an_in_memory_sink() {
    let scenario = adpm_scenarios::sensing_system();
    let path = tmp_trace_path("tee.jsonl");
    let jsonl = Arc::new(JsonlSink::create(&path).expect("create trace file"));
    let memory = Arc::new(InMemorySink::new());
    let tee: Arc<dyn MetricsSink> = Arc::new(TeeSink::new(vec![
        jsonl.clone() as Arc<dyn MetricsSink>,
        memory.clone() as Arc<dyn MetricsSink>,
    ]));
    run_once_with_sink(&scenario, short_sensing_config(), tee);
    jsonl.finish().expect("flush trace");

    let text = std::fs::read_to_string(&path).expect("read trace");
    let lines = parse_trace(&text).expect("valid JSONL");
    let counters = lines.last().expect("non-empty trace");
    assert_eq!(counters.tag(), "counters");
    for (counter, value) in memory.snapshot().iter() {
        assert_eq!(
            counters.u64_field(counter.name()),
            Some(value),
            "counters line disagrees with the in-memory sink on `{}`",
            counter.name()
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn traces_are_deterministic_per_seed() {
    let a = tmp_trace_path("det-a.jsonl");
    let b = tmp_trace_path("det-b.jsonl");
    trace_short_sensing_run(&a);
    trace_short_sensing_run(&b);
    let ta = std::fs::read_to_string(&a).expect("read");
    let tb = std::fs::read_to_string(&b).expect("read");
    assert_eq!(ta, tb, "same scenario + seed must produce identical traces");
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

#[test]
fn analysis_attribution_reconciles_with_the_counter_totals() {
    let path = tmp_trace_path("attribution.jsonl");
    let stats = trace_short_sensing_run(&path);
    let text = std::fs::read_to_string(&path).expect("read trace");
    std::fs::remove_file(&path).ok();
    let lines = parse_trace(&text).expect("valid JSONL");
    let report = adpm_observe::analyze::analyze_trace(&lines);

    // Per-constraint attribution accounts for every propagation evaluation
    // (this ADPM run has no explicit verification operations).
    let cprof_sum: u64 = report.constraints.iter().map(|c| c.evaluations).sum();
    assert_eq!(cprof_sum, report.total("evaluations"));
    // Per-property attribution accounts for every narrowing event.
    let pprof_sum: u64 = report.properties.iter().map(|p| p.narrowings).sum();
    assert_eq!(pprof_sum, report.total("narrowings"));
    // Designer profiles account for every operation.
    let designer_ops: u64 = report.designers.iter().map(|d| d.operations).sum();
    assert_eq!(designer_ops, stats.operations as u64);
    // Span timings cover every tick, and nested spans never take longer
    // than the ticks that contain them (manual clock: monotone counters).
    let ticks = report
        .timings
        .iter()
        .find(|t| t.span == "tick")
        .expect("tick timings");
    assert_eq!(
        ticks.count,
        lines.iter().filter(|l| l.tag() == "tick").count() as u64
    );
    let props = report
        .timings
        .iter()
        .find(|t| t.span == "propagation")
        .expect("propagation timings");
    assert!(props.total_us <= ticks.total_us);

    // The machine-readable report round-trips through the trace parser.
    let json = report.to_jsonl();
    let parsed = parse_trace(&json).expect("analysis output is itself flat JSONL");
    assert!(parsed.iter().any(|l| l.tag() == "a_constraint"));
}

#[test]
fn sensing_trace_matches_the_golden_file() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/sensing_short.jsonl");
    let path = tmp_trace_path("golden.jsonl");
    trace_short_sensing_run(&path);
    let actual = std::fs::read_to_string(&path).expect("read trace");
    std::fs::remove_file(&path).ok();

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden.parent().unwrap()).expect("golden dir");
        std::fs::write(&golden, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}) — regenerate with UPDATE_GOLDEN=1 cargo test \
             -p adpm-integration-tests --test observability",
            golden.display()
        )
    });
    assert_eq!(
        actual, expected,
        "trace drifted from the golden file; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1"
    );
}
