//! Textual renderings of Minerva III's browsers (paper Figs. 2–4).
//!
//! The paper's screenshots are information displays over the constraint
//! state: the *object browser* (Fig. 2) lists each property's values not
//! found to be infeasible; the *constraint and property browser*
//! (Figs. 3–4) lists constraint statuses and, per property, the number of
//! connected constraints (`# c's`), the current value, and the number of
//! connected violations. These functions reproduce those views as plain
//! text so examples and logs can show exactly what a designer would see.

use adpm_constraint::{explain_violation, ConstraintNetwork, HeuristicReport, PropertyId};

/// Renders the object browser view (Fig. 2) for one design object:
/// each property with its abstraction levels and the value set not found to
/// be infeasible.
///
/// # Examples
///
/// ```
/// use adpm_constraint::{ConstraintNetwork, Property, Domain};
/// use adpm_core::browse::object_browser;
/// # fn main() -> Result<(), adpm_constraint::NetworkError> {
/// let mut net = ConstraintNetwork::new();
/// net.add_property(Property::new("Freq-ind", "LNA+Mixer", Domain::interval(0.0, 0.5)))?;
/// let view = object_browser(&net, "LNA+Mixer");
/// assert!(view.contains("Freq-ind"));
/// # Ok(())
/// # }
/// ```
pub fn object_browser(network: &ConstraintNetwork, object: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("Object name: {object}\n"));
    for pid in network.property_ids() {
        let meta = network.property(pid);
        if meta.object() != object {
            continue;
        }
        let levels = if meta.abstraction_levels().is_empty() {
            String::new()
        } else {
            format!(
                "  Abstraction Levels: {}",
                meta.abstraction_levels().join(",")
            )
        };
        out.push_str(&format!("{:<14}{levels}\n", meta.name()));
        let feasible = network.feasible(pid);
        if let Some(value) = network.assignment(pid) {
            out.push_str(&format!("              Assigned value: {value}\n"));
        } else {
            out.push_str(&format!("              Consistent values: {feasible}\n"));
        }
    }
    out
}

/// Renders the CONSTRAINTS pane of the constraint & property browser
/// (Figs. 3–4): each constraint with its current status.
pub fn constraint_pane(network: &ConstraintNetwork) -> String {
    let mut out = String::from("CONSTRAINTS\n");
    for cid in network.constraint_ids() {
        let c = network.constraint(cid);
        out.push_str(&format!(
            "{:<24}{}\n",
            format!("{}-{}", c.name(), cid),
            network.status(cid)
        ));
    }
    out
}

/// Renders the PROPERTIES pane of the constraint & property browser
/// (Figs. 3–4): per property, the number of connected constraints
/// (`# c's` — the paper's `β`), the value or status, the owning object,
/// and the number of connected violations (the paper's `α`).
pub fn property_pane(network: &ConstraintNetwork, report: &HeuristicReport) -> String {
    let mut out = String::from("PROPERTIES\n");
    out.push_str(&format!(
        "{:<22}{:>6}  {:<26}{:<12}{}\n",
        "Property/Constraint", "# c's", "Value/Status", "Object", "Connected violations"
    ));
    for pid in network.property_ids() {
        let meta = network.property(pid);
        let insight = report.insight(pid);
        let value = match network.assignment(pid) {
            Some(v) => v.to_string(),
            None => "<No value assigned>".to_owned(),
        };
        let alpha = if insight.alpha > 0 {
            insight.alpha.to_string()
        } else {
            String::new()
        };
        out.push_str(&format!(
            "P.{:<20}{:>6}  {:<26}{:<12}{}\n",
            format!("{}{}", meta.name(), pid.index()),
            insight.beta,
            value,
            meta.object(),
            alpha
        ));
    }
    out
}

/// Renders a conflict-resolution summary (Fig. 4): the violated
/// constraints and, for each property connected to violations, the repair
/// guidance mined by the heuristics.
pub fn conflict_view(network: &ConstraintNetwork, report: &HeuristicReport) -> String {
    let mut out = String::from("CONFLICTS\n");
    for cid in network.violated_constraints() {
        let c = network.constraint(cid);
        out.push_str(&format!(
            "{:<24}Violated\n",
            format!("{}-{}", c.name(), cid)
        ));
        // Fig. 4 also shows the values each property would need
        // ("[48.000000 48.000000] required by LNAGain-C10").
        if let Some(explanation) = explain_violation(network, cid) {
            for arg in &explanation.arguments {
                if !arg.required.is_empty() {
                    out.push_str(&format!(
                        "  {:<20} {} required by {}-{}\n",
                        arg.name,
                        arg.required,
                        c.name(),
                        cid
                    ));
                }
            }
        }
    }
    for pid in report.conflicted_properties() {
        let meta = network.property(pid);
        let insight = report.insight(pid);
        let guidance = match insight.repair_direction {
            Some(dir) => format!("try {dir} its value"),
            None => "no single direction helps all violations".to_owned(),
        };
        out.push_str(&format!(
            "P.{:<20}connected violations: {}  ({guidance})\n",
            meta.name(),
            insight.alpha
        ));
    }
    out
}

/// Lists the ids of the properties of one design object (helper for
/// examples that want to iterate a browser's rows programmatically).
pub fn object_properties(network: &ConstraintNetwork, object: &str) -> Vec<PropertyId> {
    network
        .property_ids()
        .filter(|pid| network.property(*pid).object() == object)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adpm_constraint::{
        expr::{cst, var},
        Domain, Property, Relation, Value,
    };

    fn lna_net() -> ConstraintNetwork {
        let mut net = ConstraintNetwork::new();
        let w = net
            .add_property(
                Property::new("Diff-pair-W", "LNA+Mixer", Domain::interval(0.5, 10.0))
                    .with_abstraction_levels(["Transistor", "Geometry"]),
            )
            .unwrap();
        let ind = net
            .add_property(Property::new(
                "Freq-ind",
                "LNA+Mixer",
                Domain::interval(0.0, 0.5),
            ))
            .unwrap();
        net.add_constraint("LNAPower", var(w) * cst(10.0), Relation::Le, cst(200.0))
            .unwrap();
        net.add_constraint("LNAGain", var(w) * cst(16.0), Relation::Ge, cst(48.0))
            .unwrap();
        net.add_constraint("FreqSel", var(ind), Relation::Ge, cst(0.17))
            .unwrap();
        net.evaluate_statuses();
        net
    }

    #[test]
    fn object_browser_lists_properties_with_feasible_sets() {
        let net = lna_net();
        let view = object_browser(&net, "LNA+Mixer");
        assert!(view.contains("Object name: LNA+Mixer"));
        assert!(view.contains("Diff-pair-W"));
        assert!(view.contains("Abstraction Levels: Transistor,Geometry"));
        assert!(view.contains("Consistent values:"));
    }

    #[test]
    fn object_browser_shows_assigned_values() {
        let mut net = lna_net();
        let w = net.property_by_name("LNA+Mixer", "Diff-pair-W").unwrap();
        net.bind(w, Value::number(2.5)).unwrap();
        let view = object_browser(&net, "LNA+Mixer");
        assert!(view.contains("Assigned value: 2.5"));
    }

    #[test]
    fn object_browser_filters_by_object() {
        let mut net = lna_net();
        net.add_property(Property::new(
            "beam-len",
            "Filter",
            Domain::interval(5.0, 20.0),
        ))
        .unwrap();
        let view = object_browser(&net, "LNA+Mixer");
        assert!(!view.contains("beam-len"));
    }

    #[test]
    fn constraint_pane_shows_statuses() {
        let net = lna_net();
        let pane = constraint_pane(&net);
        assert!(pane.contains("LNAPower-c0"));
        assert!(pane.contains("Consistent") || pane.contains("Satisfied"));
    }

    #[test]
    fn property_pane_shows_beta_and_alpha() {
        let mut net = lna_net();
        let w = net.property_by_name("LNA+Mixer", "Diff-pair-W").unwrap();
        net.bind(w, Value::number(1.0)).unwrap(); // violates the gain floor
        net.evaluate_statuses();
        let report = HeuristicReport::mine(&net);
        let pane = property_pane(&net, &report);
        assert!(pane.contains("# c's"));
        assert!(pane.contains("Connected violations"));
        // Diff-pair-W has beta = 2 and one violation after the bad sizing.
        let row = pane
            .lines()
            .find(|l| l.contains("Diff-pair-W"))
            .expect("row exists");
        assert!(row.contains('2'), "row: {row}");
        assert!(row.trim_end().ends_with('1'), "row: {row}");
    }

    #[test]
    fn conflict_view_offers_direction_guidance() {
        let mut net = lna_net();
        let w = net.property_by_name("LNA+Mixer", "Diff-pair-W").unwrap();
        net.bind(w, Value::number(1.0)).unwrap();
        net.evaluate_statuses();
        let report = HeuristicReport::mine(&net);
        let view = conflict_view(&net, &report);
        assert!(view.contains("Violated"));
        assert!(view.contains("increasing"), "view: {view}");
    }

    #[test]
    fn object_properties_helper() {
        let net = lna_net();
        assert_eq!(object_properties(&net, "LNA+Mixer").len(), 2);
        assert!(object_properties(&net, "nonexistent").is_empty());
    }
}
