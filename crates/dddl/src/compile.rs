//! Compiles a parsed DDDL scenario into a constraint network and a ready
//! design-process manager.

use crate::ast::*;
use crate::error::DddlError;
use adpm_constraint::{
    expr, ConstraintId, ConstraintNetwork, Domain, HelpsDirection, Property, PropertyId, Relation,
    Value,
};
use adpm_core::{DesignProcessManager, DesignerId, DpmConfig, ProblemId};
use std::collections::HashMap;

/// A compiled scenario: the constraint network plus the name tables needed
/// to assemble design-process managers from it.
///
/// One compiled scenario can build many independent
/// [`DesignProcessManager`]s (one per simulation run) via
/// [`CompiledScenario::build_dpm`].
///
/// # Examples
///
/// ```
/// use adpm_dddl::compile_source;
/// use adpm_core::DpmConfig;
/// let scenario = compile_source(r#"
///     object rx {
///         property P-front : interval(0, 300);
///         property P-ser : interval(0, 300);
///     }
///     constraint power: rx.P-front + rx.P-ser <= 200;
///     problem top { constraints: power; }
///     problem fe under top { outputs: rx.P-front; designer 0; }
///     problem de under top { outputs: rx.P-ser; designer 1; }
/// "#)?;
/// let dpm = scenario.build_dpm(DpmConfig::adpm());
/// assert_eq!(dpm.designers().len(), 2);
/// assert_eq!(dpm.problems().len(), 3);
/// # Ok::<(), adpm_dddl::DddlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompiledScenario {
    network: ConstraintNetwork,
    ast: ScenarioAst,
    properties: HashMap<(String, String), PropertyId>,
    constraints: HashMap<String, ConstraintId>,
    initial_bindings: Vec<(PropertyId, f64)>,
    designer_count: u32,
}

/// Parses and compiles DDDL source in one step.
///
/// # Errors
///
/// Returns any lexing, parsing, or compilation error.
pub fn compile_source(source: &str) -> Result<CompiledScenario, DddlError> {
    compile(crate::parser::parse(source)?)
}

/// Compiles a parsed scenario.
///
/// # Errors
///
/// Returns [`DddlError::Compile`] on unknown names (property or constraint
/// references), duplicate declarations, or problems declared before their
/// parents; and [`DddlError::Network`] if a constraint is semantically
/// invalid (e.g. a symbolic property used arithmetically).
pub fn compile(ast: ScenarioAst) -> Result<CompiledScenario, DddlError> {
    let mut network = ConstraintNetwork::new();
    let mut properties = HashMap::new();
    let mut initial_bindings = Vec::new();

    for object in &ast.objects {
        for decl in &object.properties {
            let domain = match &decl.domain {
                DomainDecl::Interval(lo, hi) => Domain::interval(*lo, *hi),
                DomainDecl::Set(values) => Domain::number_set(values.iter().copied()),
                DomainDecl::Choice(values) => Domain::text_set(values.iter().cloned()),
                DomainDecl::Bool => Domain::boolean(),
            };
            let mut meta = Property::new(&decl.name, &object.name, domain);
            if let Some(units) = &decl.units {
                meta = meta.with_units(units.clone());
            }
            if !decl.levels.is_empty() {
                meta = meta.with_abstraction_levels(decl.levels.iter().cloned());
            }
            let pid = network.add_property(meta)?;
            properties.insert((object.name.clone(), decl.name.clone()), pid);
            if let Some(init) = decl.init {
                initial_bindings.push((pid, init));
            }
        }
    }

    let lookup = |r: &PropRef| -> Result<PropertyId, DddlError> {
        properties
            .get(&(r.object.clone(), r.property.clone()))
            .copied()
            .ok_or_else(|| DddlError::Compile {
                message: format!("unknown property reference `{r}`"),
            })
    };

    let mut constraints = HashMap::new();
    for decl in &ast.constraints {
        if constraints.contains_key(&decl.name) {
            return Err(DddlError::Compile {
                message: format!("duplicate constraint name `{}`", decl.name),
            });
        }
        let lhs = lower_expr(&decl.lhs, &lookup)?;
        let rhs = lower_expr(&decl.rhs, &lookup)?;
        let rel = match decl.rel {
            RelOp::Le => Relation::Le,
            RelOp::Lt => Relation::Lt,
            RelOp::Ge => Relation::Ge,
            RelOp::Gt => Relation::Gt,
            RelOp::Eq => Relation::Eq,
        };
        let cid = network.add_constraint(&decl.name, lhs, rel, rhs)?;
        if decl.soft {
            network.set_constraint_soft(cid, true)?;
        }
        for mono in &decl.monotonic {
            let pid = lookup(&mono.property)?;
            let dir = if mono.increasing {
                HelpsDirection::Up
            } else {
                HelpsDirection::Down
            };
            network.declare_monotonic(cid, pid, dir)?;
        }
        constraints.insert(decl.name.clone(), cid);
    }

    // Validate problem declarations eagerly so build_dpm cannot fail.
    let mut seen_problems: Vec<&str> = Vec::new();
    let mut designer_count = 0u32;
    for decl in &ast.problems {
        if seen_problems.contains(&decl.name.as_str()) {
            return Err(DddlError::Compile {
                message: format!("duplicate problem name `{}`", decl.name),
            });
        }
        if let Some(parent) = &decl.parent {
            if !seen_problems.contains(&parent.as_str()) {
                return Err(DddlError::Compile {
                    message: format!(
                        "problem `{}` references parent `{parent}` before its declaration",
                        decl.name
                    ),
                });
            }
        }
        for predecessor in &decl.after {
            if !seen_problems.contains(&predecessor.as_str()) {
                return Err(DddlError::Compile {
                    message: format!(
                        "problem `{}` comes after `{predecessor}`, which is not declared before it",
                        decl.name
                    ),
                });
            }
        }
        for r in decl.outputs.iter().chain(decl.inputs.iter()) {
            lookup(r)?;
        }
        for cname in &decl.constraints {
            if !constraints.contains_key(cname) {
                return Err(DddlError::Compile {
                    message: format!(
                        "problem `{}` references unknown constraint `{cname}`",
                        decl.name
                    ),
                });
            }
        }
        if let Some(d) = decl.designer {
            designer_count = designer_count.max(d + 1);
        }
        seen_problems.push(&decl.name);
    }

    Ok(CompiledScenario {
        network,
        ast,
        properties,
        constraints,
        initial_bindings,
        designer_count,
    })
}

fn lower_expr<F>(ast: &ExprAst, lookup: &F) -> Result<adpm_constraint::Expr, DddlError>
where
    F: Fn(&PropRef) -> Result<PropertyId, DddlError>,
{
    Ok(match ast {
        ExprAst::Num(x) => expr::cst(*x),
        ExprAst::Ref(r) => expr::var(lookup(r)?),
        ExprAst::Neg(e) => -lower_expr(e, lookup)?,
        ExprAst::Unary(f, e) => {
            let inner = lower_expr(e, lookup)?;
            match f {
                UnaryFn::Sqrt => inner.sqrt(),
                UnaryFn::Abs => inner.abs(),
                UnaryFn::Exp => inner.exp(),
                UnaryFn::Ln => inner.ln(),
            }
        }
        ExprAst::Binary2(f, a, b) => {
            let (a, b) = (lower_expr(a, lookup)?, lower_expr(b, lookup)?);
            match f {
                Binary2Fn::Min => a.min(b),
                Binary2Fn::Max => a.max(b),
            }
        }
        ExprAst::Bin(op, a, b) => {
            let (a, b) = (lower_expr(a, lookup)?, lower_expr(b, lookup)?);
            match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
            }
        }
        ExprAst::Pow(e, n) => lower_expr(e, lookup)?.powi(*n),
    })
}

impl CompiledScenario {
    /// The compiled constraint network (before any initial bindings).
    pub fn network(&self) -> &ConstraintNetwork {
        &self.network
    }

    /// The source AST.
    pub fn ast(&self) -> &ScenarioAst {
        &self.ast
    }

    /// Number of designers the scenario's problem assignments require.
    pub fn designer_count(&self) -> u32 {
        self.designer_count
    }

    /// Looks up a property id by `(object, name)`.
    pub fn property(&self, object: &str, name: &str) -> Option<PropertyId> {
        self.properties
            .get(&(object.to_owned(), name.to_owned()))
            .copied()
    }

    /// Looks up a constraint id by name.
    pub fn constraint(&self, name: &str) -> Option<ConstraintId> {
        self.constraints.get(name).copied()
    }

    /// Initial requirement bindings declared with `init`.
    pub fn initial_bindings(&self) -> &[(PropertyId, f64)] {
        &self.initial_bindings
    }

    /// Builds a fresh design-process manager for one run: the problem
    /// hierarchy is instantiated, problems are assigned to designers, and
    /// `init` requirement values are bound.
    ///
    /// # Panics
    ///
    /// Panics if an `init` value lies outside its property's declared
    /// domain (compilation validates names but binding is checked here).
    pub fn build_dpm(&self, config: DpmConfig) -> DesignProcessManager {
        let mut network = self.network.clone();
        for (pid, value) in &self.initial_bindings {
            network
                .bind(*pid, Value::number(*value))
                .expect("init value lies inside the declared domain");
        }
        let mut dpm = DesignProcessManager::new(network, config);
        for _ in 0..self.designer_count {
            dpm.add_designer();
        }
        let mut ids: HashMap<&str, ProblemId> = HashMap::new();
        for decl in &self.ast.problems {
            let pid = match &decl.parent {
                None => dpm.problems_mut().add_root(&decl.name),
                Some(parent) => {
                    let parent_id = ids[parent.as_str()];
                    dpm.problems_mut().decompose(parent_id, &decl.name)
                }
            };
            ids.insert(&decl.name, pid);
            let outputs: Vec<PropertyId> = decl
                .outputs
                .iter()
                .map(|r| self.properties[&(r.object.clone(), r.property.clone())])
                .collect();
            let inputs: Vec<PropertyId> = decl
                .inputs
                .iter()
                .map(|r| self.properties[&(r.object.clone(), r.property.clone())])
                .collect();
            let constraint_ids: Vec<ConstraintId> = decl
                .constraints
                .iter()
                .map(|name| self.constraints[name.as_str()])
                .collect();
            let predecessors: Vec<ProblemId> =
                decl.after.iter().map(|name| ids[name.as_str()]).collect();
            let mut problem = dpm
                .problems()
                .problem(pid)
                .clone()
                .with_outputs(outputs)
                .with_inputs(inputs)
                .with_constraints(constraint_ids)
                .with_predecessors(predecessors);
            if let Some(d) = decl.designer {
                problem = problem.with_assignee(DesignerId::new(d));
            }
            let status = dpm.problems().problem(pid).status();
            problem.set_status(status);
            *dpm.problems_mut().problem_mut(pid) = problem;
        }
        dpm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adpm_constraint::ConstraintStatus;
    use adpm_core::{Operation, ProblemStatus};

    const RECEIVER_MINI: &str = r#"
        object rx {
            property P-front : interval(0, 300) units "mW";
            property P-ser : interval(0, 300);
            property P-max : interval(0, 300) init 200;
        }
        constraint power: rx.P-front + rx.P-ser <= rx.P-max
            monotonic decreasing in rx.P-front, decreasing in rx.P-ser;
        problem top { constraints: power; outputs: rx.P-max; }
        problem fe under top { outputs: rx.P-front; designer 0; }
        problem de under top { outputs: rx.P-ser; designer 1; }
    "#;

    #[test]
    fn compiles_properties_constraints_and_lookup_tables() {
        let s = compile_source(RECEIVER_MINI).unwrap();
        assert_eq!(s.network().property_count(), 3);
        assert_eq!(s.network().constraint_count(), 1);
        assert!(s.property("rx", "P-front").is_some());
        assert!(s.property("rx", "missing").is_none());
        assert!(s.constraint("power").is_some());
        assert_eq!(s.designer_count(), 2);
        assert_eq!(s.initial_bindings().len(), 1);
    }

    #[test]
    fn soft_modifier_is_transferred_to_the_network() {
        let s = compile_source(
            r#"
            object o { property x : interval(0, 10); }
            soft constraint pref: o.x <= 5;
            constraint hard: o.x >= 0;
            problem top { constraints: pref, hard; outputs: o.x; designer 0; }
            "#,
        )
        .unwrap();
        let pref = s.constraint("pref").unwrap();
        let hard = s.constraint("hard").unwrap();
        assert!(s.network().constraint(pref).is_soft());
        assert!(!s.network().constraint(hard).is_soft());
    }

    #[test]
    fn declared_monotonicity_is_transferred() {
        let s = compile_source(RECEIVER_MINI).unwrap();
        let cid = s.constraint("power").unwrap();
        let pf = s.property("rx", "P-front").unwrap();
        assert_eq!(
            s.network().declared_monotonic(cid, pf),
            Some(HelpsDirection::Down)
        );
    }

    #[test]
    fn build_dpm_assembles_hierarchy_and_initial_bindings() {
        let s = compile_source(RECEIVER_MINI).unwrap();
        let dpm = s.build_dpm(DpmConfig::adpm());
        assert_eq!(dpm.problems().len(), 3);
        assert_eq!(dpm.designers().len(), 2);
        let root = dpm.problems().root().unwrap();
        assert_eq!(
            dpm.problems().problem(root).status(),
            ProblemStatus::Waiting
        );
        let pmax = s.property("rx", "P-max").unwrap();
        assert!(dpm.network().is_bound(pmax));
    }

    #[test]
    fn built_dpm_runs_a_full_mini_design() {
        let s = compile_source(RECEIVER_MINI).unwrap();
        let mut dpm = s.build_dpm(DpmConfig::adpm());
        let fe = dpm.problems().ids().nth(1).unwrap();
        let de = dpm.problems().ids().nth(2).unwrap();
        let pf = s.property("rx", "P-front").unwrap();
        let ps = s.property("rx", "P-ser").unwrap();
        let d0 = dpm.designers()[0];
        let d1 = dpm.designers()[1];
        dpm.execute(Operation::assign(d0, fe, pf, Value::number(120.0)))
            .unwrap();
        dpm.execute(Operation::assign(d1, de, ps, Value::number(60.0)))
            .unwrap();
        assert!(dpm.design_complete());
        let cid = s.constraint("power").unwrap();
        assert_eq!(dpm.network().status(cid), ConstraintStatus::Satisfied);
    }

    #[test]
    fn two_runs_are_independent() {
        let s = compile_source(RECEIVER_MINI).unwrap();
        let mut dpm1 = s.build_dpm(DpmConfig::adpm());
        let dpm2 = s.build_dpm(DpmConfig::conventional());
        let pf = s.property("rx", "P-front").unwrap();
        let fe = dpm1.problems().ids().nth(1).unwrap();
        let d0 = dpm1.designers()[0];
        dpm1.execute(Operation::assign(d0, fe, pf, Value::number(120.0)))
            .unwrap();
        assert!(dpm1.network().is_bound(pf));
        assert!(!dpm2.network().is_bound(pf));
    }

    #[test]
    fn unknown_property_reference_fails_compilation() {
        let err =
            compile_source("object o { property x : interval(0, 1); } constraint c: o.y <= 1;")
                .unwrap_err();
        assert!(err.to_string().contains("unknown property reference `o.y`"));
    }

    #[test]
    fn unknown_constraint_reference_fails_compilation() {
        let err = compile_source(
            "object o { property x : interval(0, 1); } problem top { constraints: ghost; }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown constraint `ghost`"));
    }

    #[test]
    fn after_clause_builds_predecessors() {
        let s = compile_source(
            r#"
            object o { property x : interval(0, 1); property y : interval(0, 1); }
            problem top { }
            problem a under top { outputs: o.x; designer 0; }
            problem b under top after a { outputs: o.y; designer 1; }
            "#,
        )
        .unwrap();
        let dpm = s.build_dpm(DpmConfig::adpm());
        let b = dpm.problems().ids().nth(2).unwrap();
        let a = dpm.problems().ids().nth(1).unwrap();
        assert_eq!(dpm.problems().problem(b).predecessors(), &[a]);
        assert!(dpm.problems().problem(a).predecessors().is_empty());
    }

    #[test]
    fn after_must_reference_an_earlier_problem() {
        let err = compile_source(
            r#"
            object o { property x : interval(0, 1); }
            problem top { }
            problem b under top after ghost { outputs: o.x; }
            "#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("not declared before"), "{err}");
    }

    #[test]
    fn parent_must_be_declared_first() {
        let err = compile_source(
            r#"
            object o { property x : interval(0, 1); }
            problem child under top { outputs: o.x; }
            problem top { }
            "#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("before its declaration"));
    }

    #[test]
    fn duplicate_names_fail_compilation() {
        let err = compile_source(
            r#"
            object o { property x : interval(0, 1); }
            constraint c: o.x <= 1;
            constraint c: o.x >= 0;
            "#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("duplicate constraint"));
        let err = compile_source(
            r#"
            object o { property x : interval(0, 1); }
            problem p { }
            problem p { }
            "#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("duplicate problem"));
    }

    #[test]
    fn symbolic_property_in_arithmetic_fails() {
        let err = compile_source(
            r#"
            object o { property level : choice(a, b); }
            constraint c: o.level <= 1;
            "#,
        )
        .unwrap_err();
        assert!(matches!(err, DddlError::Network(_)));
    }

    #[test]
    fn all_expression_forms_lower() {
        let s = compile_source(
            r#"
            object o { property x : interval(0.1, 1); property y : interval(0.1, 1); }
            constraint c:
                sqrt(o.x) + abs(o.y) * exp(o.x) - ln(o.y) / (o.x ^ 2)
                + min(o.x, o.y) + max(o.x, -o.y) <= 100;
            "#,
        )
        .unwrap();
        assert_eq!(s.network().constraint_count(), 1);
    }
}
