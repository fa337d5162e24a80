//! Seeded input generators: a DDDL *text* scenario generator and a
//! per-designer operation-stream generator.
//!
//! Both are pure functions of their seed. The program under test only ever
//! sees what they produce: scenario text goes through `adpm_dddl::parse` and
//! `compile` like any user file, and operations reach the server as wire
//! frames.

use adpm_collab::{Frame, WireOp};
use adpm_constraint::Domain;
use adpm_core::{DesignProcessManager, DesignerId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// The shape of a generated constraint network.
#[derive(Debug, Clone, Copy)]
pub struct NetShape {
    /// Subsystems, each one object owned by one designer.
    pub subsystems: usize,
    /// Properties per subsystem.
    pub props_per_subsystem: usize,
    /// Constraints local to each subsystem.
    pub constraints_per_subsystem: usize,
    /// Leader-owned constraints coupling properties of several subsystems.
    pub cross_constraints: usize,
    /// Subsystem properties one cross constraint spans.
    pub cross_arity: usize,
    /// Share of constraints with a non-linear left-hand side.
    pub nonlinear_share: f64,
    /// Designers the subsystems are dealt to (designer 0 is the leader).
    pub subsystem_designers: u32,
}

/// The collab-large-net network: 8 subsystems dealt to 2 designers.
pub const LARGE_NET: NetShape = NetShape {
    subsystems: 8,
    props_per_subsystem: 40,
    constraints_per_subsystem: 40,
    cross_constraints: 48,
    cross_arity: 3,
    nonlinear_share: 0.3,
    subsystem_designers: 2,
};

/// A generated scenario: DDDL source plus the planted witness, an
/// assignment of every subsystem property that satisfies every constraint.
#[derive(Debug, Clone)]
pub struct GeneratedScenario {
    /// DDDL source text.
    pub text: String,
    /// `(object.property, value)` for every subsystem property; the
    /// generator's tests bind it to prove the scenario satisfiable.
    #[cfg_attr(not(test), allow(dead_code))]
    pub witness: Vec<(String, f64)>,
}

/// Rounds `x` to 4 decimals in the given direction, so a constant printed
/// in the text still admits the witness.
fn round4(x: f64, up: bool) -> f64 {
    let scaled = x * 1e4;
    (if up { scaled.ceil() } else { scaled.floor() }) / 1e4
}

/// Formats a 4-decimal constant; negative values use the unary minus the
/// DDDL parser folds into the literal.
fn num(x: f64) -> String {
    format!("{x:.4}")
}

/// Generates a satisfiable scenario of the given shape from `seed`.
///
/// Every property gets an interval domain and a planted witness value well
/// inside it. Each constraint relates two or three properties and its
/// constant is chosen from the witness plus a random slack, so the witness
/// satisfies every constraint while propagation still narrows domains.
pub fn generate_scenario(seed: u64, shape: &NetShape) -> GeneratedScenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_d0d1);
    let mut text = String::new();
    let _ = writeln!(text, "// Generated network, seed {seed}.");
    // Property domains and witness, per subsystem.
    let mut witness: Vec<Vec<f64>> = Vec::with_capacity(shape.subsystems);
    for s in 0..shape.subsystems {
        let _ = writeln!(text, "object sub{s} {{");
        let mut values = Vec::with_capacity(shape.props_per_subsystem);
        for p in 0..shape.props_per_subsystem {
            let lo = round4(rng.gen_range(0.5..5.0), false);
            let hi = round4(lo + rng.gen_range(5.0..50.0), true);
            let w = lo + (hi - lo) * rng.gen_range(0.2..0.8);
            values.push(w);
            let _ = writeln!(
                text,
                "    property p{p} : interval({}, {});",
                num(lo),
                num(hi)
            );
        }
        let _ = writeln!(text, "}}");
        witness.push(values);
    }
    // Leader requirements: bound at start, one per cross constraint.
    let mut cross_text = Vec::with_capacity(shape.cross_constraints);
    let mut requirements = String::from("object sys {\n");
    for x in 0..shape.cross_constraints {
        let mut terms = Vec::with_capacity(shape.cross_arity);
        let mut total = 0.0;
        let first = rng.gen_range(0..shape.subsystems);
        for k in 0..shape.cross_arity {
            // Consecutive subsystems alternate designers, so each cross
            // constraint spans both designers' interest sets.
            let s = (first + k) % shape.subsystems;
            let p = rng.gen_range(0..shape.props_per_subsystem);
            let a = round4(rng.gen_range(0.5..3.0), false);
            total += a * witness[s][p];
            terms.push(format!("{} * sub{s}.p{p}", num(a)));
        }
        let req = round4(total * rng.gen_range(1.02..1.3), true);
        let _ = writeln!(
            requirements,
            "    property req{x} : interval(0, {}) init {};",
            num(round4(req * 2.0, true)),
            num(req)
        );
        cross_text.push(format!(
            "constraint X{x}: {} <= sys.req{x};",
            terms.join(" + ")
        ));
    }
    requirements.push_str("}\n");
    text.push_str(&requirements);
    for line in &cross_text {
        let _ = writeln!(text, "{line}");
    }
    // Local constraints.
    let mut local_names: Vec<Vec<String>> = vec![Vec::new(); shape.subsystems];
    for (s, names) in local_names.iter_mut().enumerate() {
        for c in 0..shape.constraints_per_subsystem {
            let n = shape.props_per_subsystem;
            let i = rng.gen_range(0..n);
            let j = (i + rng.gen_range(1..n)) % n;
            let (wi, wj) = (witness[s][i], witness[s][j]);
            let (x, y) = (format!("sub{s}.p{i}"), format!("sub{s}.p{j}"));
            let slack = rng.gen_range(0.01..0.25);
            let name = format!("L{s}_{c}");
            let body = if rng.gen_bool(shape.nonlinear_share) {
                match rng.gen_range(0..3u32) {
                    0 => format!(
                        "{x} * {y} <= {}",
                        num(round4(wi * wj * (1.0 + slack), true))
                    ),
                    1 => format!(
                        "{x} / {y} >= {}",
                        num(round4(wi / wj * (1.0 - slack), false))
                    ),
                    _ => format!(
                        "sqrt({x}) + {y} <= {}",
                        num(round4((wi.sqrt() + wj) * (1.0 + slack), true))
                    ),
                }
            } else {
                let a = round4(rng.gen_range(0.5..3.0), false);
                let b = round4(rng.gen_range(0.5..3.0), false);
                if rng.gen_bool(0.5) {
                    format!(
                        "{} * {x} + {} * {y} <= {}",
                        num(a),
                        num(b),
                        num(round4((a * wi + b * wj) * (1.0 + slack), true))
                    )
                } else {
                    let value = a * wi - b * wj;
                    format!(
                        "{} * {x} - {} * {y} >= {}",
                        num(a),
                        num(b),
                        num(round4(value - slack * (a * wi + b * wj), false))
                    )
                }
            };
            let _ = writeln!(text, "constraint {name}: {body};");
            names.push(name);
        }
    }
    // Problem hierarchy: the leader owns the coupling constraints, the
    // subsystems are dealt round-robin to designers 1..=subsystem_designers.
    let cross_names: Vec<String> = (0..shape.cross_constraints)
        .map(|x| format!("X{x}"))
        .collect();
    let _ = writeln!(
        text,
        "problem top {{\n    constraints: {};\n    designer 0;\n}}",
        cross_names.join(", ")
    );
    for (s, names) in local_names.iter().enumerate() {
        let outputs: Vec<String> = (0..shape.props_per_subsystem)
            .map(|p| format!("sub{s}.p{p}"))
            .collect();
        let designer = 1 + (s as u32 % shape.subsystem_designers);
        let _ = writeln!(
            text,
            "problem s{s} under top {{\n    outputs: {};\n    constraints: {};\n    designer {designer};\n}}",
            outputs.join(", "),
            names.join(", ")
        );
    }
    let witness = witness
        .iter()
        .enumerate()
        .flat_map(|(s, values)| {
            values
                .iter()
                .enumerate()
                .map(move |(p, w)| (format!("sub{s}.p{p}"), *w))
        })
        .collect();
    GeneratedScenario { text, witness }
}

/// One designer operation, by name, as a client would issue it.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignOp {
    /// A `submit` frame carrying this operation.
    Submit(WireOp),
    /// A `snapshot` read of the whole design state.
    Snapshot,
}

impl DesignOp {
    /// The request frame for this operation.
    pub fn frame(&self, cid: u64) -> Frame {
        match self {
            DesignOp::Submit(op) => Frame::Submit {
                op: op.clone(),
                cid: Some(cid),
            },
            DesignOp::Snapshot => Frame::Snapshot,
        }
    }
}

/// Relative weights of the operation kinds in a stream.
#[derive(Debug, Clone, Copy)]
pub struct OpMix {
    /// Bind one of the designer's outputs to a value drawn from its domain.
    pub assign: u32,
    /// Unbind one of the designer's bound outputs.
    pub unbind: u32,
    /// Verify one of the designer's problems.
    pub verify: u32,
    /// Read the whole design state.
    pub snapshot: u32,
}

/// Operators executed by TeamSim's designers, counted by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DesignerShares {
    /// `Assign` operations.
    pub assign: u64,
    /// `Unbind` operations.
    pub unbind: u64,
    /// `Verify` operations.
    pub verify: u64,
    /// `Relax` and `Decompose` operations, which have no wire form.
    pub other: u64,
}

/// The operators TeamSim's designers execute on the paper's sensing
/// scenario in ADPM mode, the mode the collab sessions run, over simulation
/// seeds `0..32`; a test recounts them. The designers only assign: feedback
/// keeps them inside the feasible space, so they never verify, and they
/// revise a value by assigning a new one rather than unbinding it. The
/// counts are fixed here so that a change to the designer model does not
/// change the collab workloads' inputs.
pub const TEAMSIM_SHARES: DesignerShares = DesignerShares {
    assign: 695,
    unbind: 0,
    verify: 0,
    other: 0,
};

impl DesignerShares {
    /// A stream mix with these assign/unbind/verify proportions, plus
    /// `snapshot_pct` percent of snapshot reads.
    pub fn mix(&self, snapshot_pct: u32) -> OpMix {
        let submits = self.assign + self.unbind + self.verify;
        let weight = |n: u64| u32::try_from(n * u64::from(100 - snapshot_pct)).expect("small");
        OpMix {
            assign: weight(self.assign),
            unbind: weight(self.unbind),
            verify: weight(self.verify),
            snapshot: u32::try_from(submits * u64::from(snapshot_pct)).expect("small"),
        }
    }
}

/// A property a designer may bind: its problem, name and declared domain.
#[derive(Debug, Clone)]
struct Target {
    problem: String,
    property: String,
    /// Declared domain: an interval `[lo, hi]` or a finite numeric menu.
    values: Result<(f64, f64), Vec<f64>>,
}

/// A designer's seeded operation stream.
///
/// Targets are the outputs of the designer's own problems. Values are drawn
/// uniformly from each property's declared domain; the stream tracks which
/// of its properties it has bound so unbinds always name a bound one. The
/// sequence depends only on the seed and the scenario, never on timing.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: StdRng,
    mix: OpMix,
    targets: Vec<Target>,
    problems: Vec<String>,
    bound: Vec<usize>,
}

impl OpStream {
    /// The stream of `designer` over `dpm`'s problem hierarchy.
    pub fn new(dpm: &DesignProcessManager, designer: DesignerId, seed: u64, mix: OpMix) -> Self {
        let network = dpm.network();
        let mut targets = Vec::new();
        let mut problems = Vec::new();
        for pid in dpm.problems().assigned_to(designer) {
            let problem = dpm.problems().problem(pid);
            problems.push(problem.name().to_owned());
            for prop in problem.outputs() {
                let meta = network.property(*prop);
                let values = match meta.initial_domain() {
                    Domain::Interval(iv) => Ok((iv.lo(), iv.hi())),
                    domain => Err(domain
                        .candidates()
                        .unwrap_or_default()
                        .iter()
                        .filter_map(|v| v.as_number())
                        .collect()),
                };
                targets.push(Target {
                    problem: problem.name().to_owned(),
                    property: format!("{}.{}", meta.object(), meta.name()),
                    values,
                });
            }
        }
        assert!(
            !targets.is_empty(),
            "designer {designer} has no outputs to bind"
        );
        let stream_seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(designer.index() as u32) + 1);
        OpStream {
            rng: StdRng::seed_from_u64(stream_seed),
            mix,
            targets,
            problems,
            bound: Vec::new(),
        }
    }

    fn assign(&mut self) -> DesignOp {
        let index = self.rng.gen_range(0..self.targets.len());
        let target = &self.targets[index];
        let value = match &target.values {
            Ok((lo, hi)) => self.rng.gen_range(*lo..*hi),
            Err(menu) => menu[self.rng.gen_range(0..menu.len())],
        };
        if !self.bound.contains(&index) {
            self.bound.push(index);
        }
        DesignOp::Submit(WireOp::Assign {
            problem: target.problem.clone(),
            property: target.property.clone(),
            value,
        })
    }
}

impl Iterator for OpStream {
    type Item = DesignOp;

    fn next(&mut self) -> Option<DesignOp> {
        let OpMix {
            assign,
            unbind,
            verify,
            snapshot,
        } = self.mix;
        let roll = self.rng.gen_range(0..assign + unbind + verify + snapshot);
        let op = if roll < assign {
            self.assign()
        } else if roll < assign + unbind {
            if self.bound.is_empty() {
                self.assign()
            } else {
                let slot = self.rng.gen_range(0..self.bound.len());
                let target = &self.targets[self.bound.swap_remove(slot)];
                DesignOp::Submit(WireOp::Unbind {
                    problem: target.problem.clone(),
                    property: target.property.clone(),
                })
            }
        } else if roll < assign + unbind + verify {
            let problem = self.problems[self.rng.gen_range(0..self.problems.len())].clone();
            DesignOp::Submit(WireOp::Verify {
                problem,
                constraints: String::new(),
            })
        } else {
            DesignOp::Snapshot
        };
        Some(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adpm_constraint::Value;
    use adpm_core::{DpmConfig, ManagementMode, Operation, Operator};
    use adpm_teamsim::{Simulation, SimulationConfig};

    const SMALL: NetShape = NetShape {
        subsystems: 4,
        props_per_subsystem: 8,
        constraints_per_subsystem: 8,
        cross_constraints: 6,
        cross_arity: 3,
        nonlinear_share: 0.3,
        subsystem_designers: 2,
    };

    const MIX: OpMix = OpMix {
        assign: 5,
        unbind: 2,
        verify: 1,
        snapshot: 2,
    };

    fn stream_text(dpm: &DesignProcessManager, designer: u32, seed: u64) -> String {
        OpStream::new(dpm, DesignerId::new(designer), seed, MIX)
            .take(300)
            .enumerate()
            .map(|(i, op)| op.frame(i as u64).to_line())
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_text_and_streams() {
        let a = generate_scenario(7, &SMALL);
        let b = generate_scenario(7, &SMALL);
        assert_eq!(a.text, b.text);
        let dpm = adpm_dddl::compile_source(&a.text)
            .expect("generated text compiles")
            .build_dpm(DpmConfig::adpm());
        for designer in [1, 2] {
            assert_eq!(
                stream_text(&dpm, designer, 7),
                stream_text(&dpm, designer, 7)
            );
        }
    }

    #[test]
    fn different_seeds_give_different_text_and_streams() {
        let a = generate_scenario(7, &SMALL);
        let b = generate_scenario(8, &SMALL);
        assert_ne!(a.text, b.text);
        let dpm = adpm_dddl::compile_source(&a.text)
            .expect("generated text compiles")
            .build_dpm(DpmConfig::adpm());
        for designer in [1, 2] {
            assert_ne!(
                stream_text(&dpm, designer, 7),
                stream_text(&dpm, designer, 8)
            );
        }
        assert_ne!(stream_text(&dpm, 1, 7), stream_text(&dpm, 2, 7));
    }

    #[test]
    fn planted_witness_satisfies_every_constraint() {
        for seed in 0..5 {
            let generated = generate_scenario(seed, &SMALL);
            let scenario = adpm_dddl::compile_source(&generated.text).expect("compiles");
            let mut dpm = scenario.build_dpm(DpmConfig::adpm());
            dpm.initialize();
            assert!(
                dpm.known_violations().is_empty(),
                "seed {seed}: initial conflict"
            );
            let designer = DesignerId::new(1);
            let top = dpm.problems().root().expect("root problem");
            for (name, value) in &generated.witness {
                let (object, prop) = name.split_once('.').expect("object.property");
                let pid = scenario.property(object, prop).expect("declared");
                dpm.execute(Operation::assign(designer, top, pid, Value::number(*value)))
                    .expect("witness lies in the domain");
            }
            assert!(
                dpm.known_violations().is_empty(),
                "seed {seed}: the witness violates {:?}",
                dpm.known_violations()
            );
        }
    }

    /// Counts the operators in the histories of TeamSim's ADPM designers on
    /// the sensing scenario over simulation seeds `0..32`.
    fn count_teamsim_shares() -> DesignerShares {
        let scenario = adpm_scenarios::sensing_system();
        let mut shares = DesignerShares::default();
        for seed in 0..32 {
            let mut sim = Simulation::new(
                &scenario,
                SimulationConfig::for_mode(ManagementMode::Adpm, seed),
            );
            sim.run();
            for record in sim.dpm().history() {
                match record.operation.operator() {
                    Operator::Assign { .. } => shares.assign += 1,
                    Operator::Unbind { .. } => shares.unbind += 1,
                    Operator::Verify { .. } => shares.verify += 1,
                    Operator::Relax { .. } | Operator::Decompose { .. } => shares.other += 1,
                }
            }
        }
        shares
    }

    #[test]
    fn teamsim_shares_are_what_teamsim_designers_do() {
        assert_eq!(count_teamsim_shares(), TEAMSIM_SHARES);
    }

    #[test]
    fn mix_keeps_the_proportions_and_the_snapshot_share() {
        let shares = DesignerShares {
            assign: 7,
            unbind: 2,
            verify: 1,
            other: 3,
        };
        let mix = shares.mix(30);
        let total = mix.assign + mix.unbind + mix.verify + mix.snapshot;
        assert_eq!(u64::from(mix.snapshot) * 100, u64::from(total) * 30);
        assert_eq!(
            u64::from(mix.unbind) * shares.assign,
            u64::from(mix.assign) * shares.unbind
        );
    }

    #[test]
    fn streams_draw_values_inside_the_declared_domain() {
        let scenario = adpm_scenarios::sensing_system();
        let dpm = scenario.build_dpm(DpmConfig::adpm());
        let mut values = Vec::new();
        for op in OpStream::new(&dpm, DesignerId::new(2), 3, MIX).take(500) {
            if let DesignOp::Submit(WireOp::Assign {
                property, value, ..
            }) = op
            {
                let (object, name) = property.split_once('.').expect("object.property");
                let pid = scenario.property(object, name).expect("declared");
                let domain = dpm.network().property(pid).initial_domain();
                assert!(
                    domain.contains(&Value::number(value)),
                    "{property} = {value}"
                );
                values.push(value);
            }
        }
        values.sort_by(f64::total_cmp);
        values.dedup();
        assert!(values.len() > 50, "values must vary, got {}", values.len());
    }
}
