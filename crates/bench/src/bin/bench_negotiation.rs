//! Negotiated conflict resolution vs baseline backtracking.
//!
//! For each scenario × seed the bench runs a set of *conflict episodes*.
//! An episode builds a fresh conventional-mode (λ=F) DPM, then injects
//! conflicts deterministically: properties are visited in a seeded
//! shuffle and each is assigned the top of its current effective
//! interval until some submission reports `new_violations` — the classic
//! collaborative failure where locally-reasonable decisions are jointly
//! infeasible. The same injection sequence is then resolved two ways:
//!
//! - **baseline** — backtracking, the conventional-flow recovery: unbind
//!   the offending decision and retry geometrically smaller values until
//!   the network is consistent again (each unbind and each retry is a
//!   real journaled operation);
//! - **negotiation** — the session engine is spawned with the viewpoint
//!   negotiation engine, so the conflicting submission itself triggers a
//!   bounded propose/answer round among the affected designers and the
//!   accepted relaxation is applied as a single journaled operation.
//!
//! Both arms replay the identical pre-conflict trajectory (same seeds,
//! same shuffle, and negotiation only acts *after* a conflict), so the
//! reported `ops_to_consistency` difference is purely the cost of the
//! resolution strategy. The bench asserts the paper's claim shape:
//! negotiation resolves ≥ 80% of injected conflicts without any
//! backtracking operation, and reaches consistency in fewer total
//! operations than the baseline. The machine-readable twin
//! `results/BENCH_negotiation.json` carries one `bench_case` row per
//! scenario × seed × arm plus one `bench_summary` row;
//! `scripts/verify.sh` gates on its schema and checks that a fresh
//! default run rewrites it and `results/BENCH_negotiation.txt` (this
//! binary's stdout) byte for byte.
//!
//! Usage: `bench_negotiation [episodes] [seeds] [seed0]` (defaults 6
//! episodes over 3 seeds starting at seed 1). Only a run of the defaults
//! writes the results twin.

use adpm_bench::{write_results_json, JsonRow};
use adpm_collab::{NegotiationConfig, OpOutcome, SessionEngine, SessionHandle, SessionOptions};
use adpm_constraint::{ConstraintId, PropertyId, Value};
use adpm_core::{DesignProcessManager, DesignerId, ManagementMode, Operation, ProblemId};
use adpm_dddl::CompiledScenario;
use adpm_observe::{Counter, InMemorySink, MetricsSink};
use adpm_scenarios::{sensing_system, wireless_receiver_with_gain};
use adpm_teamsim::{NegotiationPolicy, SimulationConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Retry budget for the backtracking baseline before a decision is left
/// unbound: each attempt is one unbind + one smaller re-assign.
const BACKTRACK_TRIES: usize = 4;

/// The default run, the one `results/BENCH_negotiation.json` captures:
/// episodes, seeds, first seed.
const DEFAULTS: (u64, u64, u64) = (6, 3, 1);

struct Params {
    episodes: usize,
    seeds: u64,
    seed0: u64,
}

fn parse_args() -> Params {
    let positional: Vec<u64> = std::env::args()
        .skip(1)
        .map(|arg| {
            arg.parse::<u64>()
                .unwrap_or_else(|_| panic!("expected a number, got `{arg}`"))
        })
        .collect();
    let get = |i: usize, default: u64| positional.get(i).copied().unwrap_or(default);
    Params {
        episodes: get(0, DEFAULTS.0) as usize,
        seeds: get(1, DEFAULTS.1),
        seed0: get(2, DEFAULTS.2),
    }
}

/// A property a designer could decide on: where it lives and who owns it.
struct Decision {
    property: PropertyId,
    problem: ProblemId,
    designer: DesignerId,
}

/// Every output property of every problem, in deterministic problem
/// order — the decisions the injection shuffle draws from.
fn decisions(dpm: &DesignProcessManager) -> Vec<Decision> {
    let fallback = dpm.designers()[0];
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for pid in dpm.problems().ids() {
        let problem = dpm.problems().problem(pid);
        let designer = problem.assignee().unwrap_or(fallback);
        for &property in problem.outputs() {
            if seen.insert(property) {
                out.push(Decision {
                    property,
                    problem: pid,
                    designer,
                });
            }
        }
    }
    out
}

fn fresh_dpm(
    scenario: &CompiledScenario,
    seed: u64,
    sink: &Arc<InMemorySink>,
) -> DesignProcessManager {
    let config = SimulationConfig::for_mode(ManagementMode::Conventional, seed);
    let mut dpm = scenario.build_dpm(config.dpm_config());
    dpm.set_sink(sink.clone() as Arc<dyn MetricsSink>);
    dpm.initialize();
    dpm
}

/// Outcome of one conflict episode.
struct Episode {
    /// Distinct constraints found violated by the verification sweep
    /// (episodes whose sweep finds none are not counted).
    conflicts: u64,
    /// Conflicts cleared with zero backtracking operations — in the
    /// negotiation arm, by an accepted relaxation applied inline.
    resolved_without_backtracking: u64,
    /// Executed operations from first injection to final consistency.
    ops: u64,
    /// The network was consistent when the episode ended.
    consistent: bool,
    /// Decisions still bound at the end — backtracking pays for
    /// consistency by discarding decisions, negotiation keeps them.
    decisions_kept: u64,
}

/// One verification review per problem — the conventional flow's design
/// review, where jointly-infeasible decisions actually surface (λ=F
/// evaluates constraints only at verification, paper §3.1.2). Returns
/// the constraints newly reported violated.
fn review(handle: &SessionHandle, problems: &[(ProblemId, DesignerId)]) -> Vec<ConstraintId> {
    let mut found = Vec::new();
    for &(problem, designer) in problems {
        match handle.submit(Operation::verify(designer, problem)) {
            Err(_) => break,
            Ok(OpOutcome::Rejected(_)) => {}
            Ok(OpOutcome::Executed(record)) => {
                for cid in record.new_violations {
                    if !found.contains(&cid) {
                        found.push(cid);
                    }
                }
            }
        }
    }
    found
}

/// Unbind-and-re-review recovery: the conventional flow's answer to a
/// joint infeasibility. Walks the surviving violations, retracting the
/// most recent decision feeding each one, re-reviewing after every
/// retraction, until the design is consistent or nothing retractable
/// remains. Returns whether consistency was restored.
fn backtrack(
    handle: &SessionHandle,
    problems: &[(ProblemId, DesignerId)],
    assigned: &[Decision],
) -> bool {
    // Latest-assigned first: backtracking unwinds the decision stack.
    let mut stack: Vec<&Decision> = assigned.iter().collect();
    for _ in 0..BACKTRACK_TRIES * assigned.len().max(1) {
        let Ok(snapshot) = handle.snapshot() else {
            return false;
        };
        let violations = snapshot.known_violations();
        let Some(&seed) = violations.first() else {
            return true;
        };
        let args = snapshot.network().constraint(seed).argument_slice();
        let culprit = stack
            .iter()
            .rposition(|d| args.contains(&d.property) && snapshot.network().is_bound(d.property));
        let Some(at) = culprit else {
            // No retractable decision feeds this violation.
            return false;
        };
        let decision = stack.remove(at);
        if handle
            .submit(Operation::unbind(
                decision.designer,
                decision.problem,
                decision.property,
            ))
            .is_err()
        {
            return false;
        }
        // The retraction invalidates prior verifications; the team has to
        // review again to learn whether the conflict is really gone.
        review(handle, problems);
    }
    handle
        .snapshot()
        .map(|s| s.known_violations().is_empty())
        .unwrap_or(false)
}

/// Runs one conflict episode: stale-view injection, a verification
/// sweep that surfaces the joint infeasibilities (with negotiation on,
/// the engine relaxes them inline inside the verify submission), then
/// backtracking for whatever survives.
fn run_episode(
    scenario: &CompiledScenario,
    seed: u64,
    episode: usize,
    negotiate: bool,
    sink: &Arc<InMemorySink>,
) -> Episode {
    let dpm = fresh_dpm(scenario, seed, sink);
    let team = dpm.designers().len();
    let problems: Vec<(ProblemId, DesignerId)> = dpm
        .problems()
        .ids()
        .map(|pid| {
            let p = dpm.problems().problem(pid);
            (pid, p.assignee().unwrap_or(dpm.designers()[0]))
        })
        .collect();
    let mut order = decisions(&dpm);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1_000) + episode as u64);
    // Fisher–Yates with the episode RNG: the injection order is a pure
    // function of (seed, episode) and identical across both arms.
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let options = SessionOptions {
        negotiation: negotiate.then(|| NegotiationConfig {
            policies: NegotiationPolicy::default_team(team),
            ..NegotiationConfig::default()
        }),
        ..SessionOptions::default()
    };
    let engine = SessionEngine::spawn_with(dpm, options);
    let handle = engine.handle();

    let mut result = Episode {
        conflicts: 0,
        resolved_without_backtracking: 0,
        ops: 0,
        consistent: true,
        decisions_kept: 0,
    };
    // Every designer prices their decision off the *initial* snapshot —
    // the stale-view concurrency the paper's conflict story rests on.
    // Each value is individually feasible at snapshot time; the sweep
    // below discovers which combinations are jointly infeasible.
    let Ok(initial) = handle.snapshot() else {
        return result;
    };
    let mut assigned: Vec<Decision> = Vec::new();
    for decision in order {
        if initial.network().is_bound(decision.property) {
            continue;
        }
        let interval = initial.network().effective_interval(decision.property);
        if !interval.hi().is_finite() {
            continue;
        }
        let assign = Operation::assign(
            decision.designer,
            decision.problem,
            decision.property,
            Value::number(interval.hi()),
        );
        match handle.submit(assign) {
            Err(_) => break,
            Ok(OpOutcome::Rejected(_)) => {}
            Ok(OpOutcome::Executed(_)) => assigned.push(decision),
        }
    }

    // The design review: negotiation (when armed) runs inside these
    // verify submissions and applies accepted relaxations immediately.
    let found = review(&handle, &problems);
    result.conflicts = found.len() as u64;
    let survivors = handle
        .snapshot()
        .map(|s| s.known_violations().len() as u64)
        .unwrap_or(0);
    result.resolved_without_backtracking = result.conflicts.saturating_sub(survivors);
    result.consistent = if survivors == 0 {
        true
    } else {
        backtrack(&handle, &problems, &assigned)
    };

    let final_dpm = engine
        .shutdown()
        .expect("unjournaled: closes only on a panic");
    result.ops = final_dpm.history().len() as u64;
    result.consistent = final_dpm.known_violations().is_empty();
    let network = final_dpm.network();
    result.decisions_kept = assigned
        .iter()
        .filter(|d| network.is_bound(d.property))
        .count() as u64;
    result
}

#[derive(Default)]
struct CaseStats {
    conflicts: u64,
    resolved: u64,
    ops: u64,
    consistent: u64,
    episodes: u64,
    kept: u64,
}

fn run_case(
    scenario: &CompiledScenario,
    seed: u64,
    episodes: usize,
    negotiate: bool,
    sink: &Arc<InMemorySink>,
) -> CaseStats {
    let mut stats = CaseStats::default();
    for episode in 0..episodes {
        let outcome = run_episode(scenario, seed, episode, negotiate, sink);
        if outcome.conflicts == 0 {
            continue;
        }
        stats.episodes += 1;
        stats.conflicts += outcome.conflicts;
        stats.resolved += outcome.resolved_without_backtracking;
        stats.ops += outcome.ops;
        stats.consistent += outcome.consistent as u64;
        stats.kept += outcome.decisions_kept;
    }
    stats
}

fn main() {
    let Params {
        episodes,
        seeds,
        seed0,
    } = parse_args();
    assert!(episodes > 0 && seeds > 0);

    // Tight gain requirements squeeze the receiver's feasible region the
    // way the paper's Fig. 10 sweep does, so domain-top decisions
    // conflict quickly.
    let scenarios: Vec<(String, CompiledScenario)> = vec![
        ("sensing".into(), sensing_system()),
        ("receiver-g400".into(), wireless_receiver_with_gain(400.0)),
        ("receiver-g800".into(), wireless_receiver_with_gain(800.0)),
    ];

    println!(
        "=== conflict negotiation vs backtracking: {} scenarios × {seeds} seeds × {episodes} episodes ===",
        scenarios.len()
    );
    println!("(ops = journaled operations from first injection to a consistent network)\n");
    println!(
        "{:<16} {:>5} {:>9} {:>10} {:>9} {:>7} {:>11} {:>6}",
        "scenario", "seed", "arm", "conflicts", "resolved", "ops", "consistent", "kept"
    );

    let negotiation_sink: Arc<InMemorySink> = Arc::new(InMemorySink::new());
    let baseline_sink: Arc<InMemorySink> = Arc::new(InMemorySink::new());
    let mut json = Vec::new();
    let mut totals = [CaseStats::default(), CaseStats::default()];
    for (name, scenario) in &scenarios {
        for seed in seed0..seed0 + seeds {
            for (arm_idx, (arm, negotiate, sink)) in [
                ("baseline", false, &baseline_sink),
                ("negotiate", true, &negotiation_sink),
            ]
            .into_iter()
            .enumerate()
            {
                let stats = run_case(scenario, seed, episodes, negotiate, sink);
                println!(
                    "{:<16} {:>5} {:>9} {:>10} {:>9} {:>7} {:>11} {:>6}",
                    name,
                    seed,
                    arm,
                    stats.conflicts,
                    stats.resolved,
                    stats.ops,
                    stats.consistent,
                    stats.kept
                );
                json.push(
                    JsonRow::new("bench_case", "bench_negotiation")
                        .str("scenario", name)
                        .u64("seed", seed)
                        .str("arm", arm)
                        .u64("conflicts", stats.conflicts)
                        .u64("resolved_without_backtracking", stats.resolved)
                        .u64("ops_to_consistency", stats.ops)
                        .u64("consistent_episodes", stats.consistent)
                        .u64("decisions_kept", stats.kept)
                        .finish(),
                );
                let total = &mut totals[arm_idx];
                total.conflicts += stats.conflicts;
                total.resolved += stats.resolved;
                total.ops += stats.ops;
                total.consistent += stats.consistent;
                total.episodes += stats.episodes;
                total.kept += stats.kept;
            }
        }
    }

    let [baseline, negotiation] = &totals;
    let resolution_rate = if negotiation.conflicts == 0 {
        0.0
    } else {
        negotiation.resolved as f64 / negotiation.conflicts as f64
    };
    let rounds = negotiation_sink.snapshot();
    println!(
        "\nnegotiation: {}/{} conflicts resolved without backtracking ({:.0}%), {} rounds, {} proposals ({} resolved / {} abandoned at the table)",
        negotiation.resolved,
        negotiation.conflicts,
        resolution_rate * 100.0,
        rounds.get(Counter::NegotiationRounds),
        rounds.get(Counter::ProposalsSent),
        rounds.get(Counter::ConflictsResolved),
        rounds.get(Counter::ConflictsAbandoned),
    );
    println!(
        "ops to consistency: negotiation {} vs baseline {} ({}% of the backtracking cost)",
        negotiation.ops,
        baseline.ops,
        (negotiation.ops * 100)
            .checked_div(baseline.ops)
            .unwrap_or(100)
    );
    println!(
        "decisions kept: negotiation {} vs baseline {} (backtracking buys consistency by retracting design decisions)",
        negotiation.kept, baseline.kept
    );
    json.push(
        JsonRow::new("bench_summary", "bench_negotiation")
            .u64("scenarios", scenarios.len() as u64)
            .u64("seeds", seeds)
            .u64("episodes_per_case", episodes as u64)
            .u64("conflicts", negotiation.conflicts)
            .u64("resolved_without_backtracking", negotiation.resolved)
            .f64("resolution_rate", resolution_rate)
            .u64("negotiation_ops", negotiation.ops)
            .u64("baseline_ops", baseline.ops)
            .u64("negotiation_decisions_kept", negotiation.kept)
            .u64("baseline_decisions_kept", baseline.kept)
            .u64("negotiation_rounds", rounds.get(Counter::NegotiationRounds))
            .u64("proposals_sent", rounds.get(Counter::ProposalsSent))
            .u64("conflicts_resolved", rounds.get(Counter::ConflictsResolved))
            .u64(
                "conflicts_abandoned",
                rounds.get(Counter::ConflictsAbandoned),
            )
            .finish(),
    );

    if (episodes as u64, seeds, seed0) == DEFAULTS {
        write_results_json("BENCH_negotiation", &json);
    }

    assert!(
        negotiation.conflicts > 0,
        "the injection harness must produce conflicts"
    );
    assert_eq!(
        baseline.conflicts, negotiation.conflicts,
        "both arms replay the same injection trajectory"
    );
    assert!(
        resolution_rate >= 0.8,
        "negotiation must resolve >= 80% of conflicts without backtracking, got {:.0}%",
        resolution_rate * 100.0
    );
    assert!(
        negotiation.ops < baseline.ops,
        "negotiation must reach consistency in fewer operations ({} vs {})",
        negotiation.ops,
        baseline.ops
    );
    assert_eq!(
        negotiation.consistent, negotiation.episodes,
        "every negotiated episode must end consistent"
    );
}
