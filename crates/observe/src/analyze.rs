//! Offline trace analysis: hot-spot attribution, timing rollups, λ=T vs
//! λ=F comparison, and trace-to-trace regression diffs.
//!
//! The input is a parsed JSONL trace ([`parse_trace`](crate::parse_trace));
//! the output is an [`AnalysisReport`] that answers the questions the raw
//! stream cannot: *which constraint burned the evaluations, which property
//! caused the narrowing and the spins, which designer triggered the
//! notifications, and where the wall-clock time went*. Reports render as
//! plain-text tables ([`AnalysisReport::render`]) or as flat JSONL
//! ([`AnalysisReport::to_jsonl`]) that round-trips through the same parser
//! as the traces themselves.
//!
//! [`diff_traces`] turns two reports into a regression gate: per-statistic
//! deltas over the paper's four headline statistics (violations,
//! evaluations, operations, spins) plus the propagation internals, with
//! configurable absolute/relative noise thresholds.

use crate::histogram::Histogram;
use crate::json::{field_bool, field_str, field_u64};
use crate::jsonl::TraceLine;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The statistics [`diff_traces`] compares, in display order: the paper's
/// four headline statistics first, then the propagation-cost internals.
pub const DIFF_STATISTICS: [&str; 9] = [
    "operations",
    "evaluations",
    "violations",
    "spins",
    "propagations",
    "waves",
    "narrowings",
    "conflicts",
    "notifications",
];

/// Per-constraint attribution over one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstraintHotSpot {
    /// Constraint name.
    pub name: String,
    /// Evaluations charged to the constraint (sum of its `cprof` lines).
    pub evaluations: u64,
    /// Propagation runs that found the constraint unsatisfiable.
    pub conflicts: u64,
    /// Operations that newly violated the constraint (`violation` lines).
    pub violations: u64,
}

/// Per-property attribution over one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyHotSpot {
    /// Property name, `object.property`.
    pub name: String,
    /// Narrowing events charged to the property (sum of its `pprof` lines).
    pub narrowings: u64,
    /// Operations that targeted the property (assign/unbind).
    pub assigns: u64,
    /// Spin operations that targeted the property.
    pub spins: u64,
}

/// Per-designer profile over one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignerProfile {
    /// Designer index.
    pub designer: u64,
    /// Operations the designer executed.
    pub operations: u64,
    /// Constraint evaluations those operations cost.
    pub evaluations: u64,
    /// Spins among those operations.
    pub spins: u64,
    /// Notification events the designer's operations triggered (fanout
    /// `events` joined to the operation's designer — the trace does not
    /// identify recipients).
    pub notifications: u64,
}

/// Propagation-run shape statistics over one trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PropagationStats {
    /// Completed propagation runs (`propagation` lines).
    pub runs: u64,
    /// Runs that took the full path.
    pub full: u64,
    /// Runs that took the incremental path.
    pub incremental: u64,
    /// Runs that reached fixpoint.
    pub fixpoints: u64,
    /// Deepest run, in waves.
    pub max_waves: u64,
    /// Violations whose constraint spans design objects (`cross` on
    /// `violation` lines).
    pub cross_violations: u64,
}

/// Timing rollup of one span kind, built from the `dur_us` fields of its
/// trace lines via a log-bucketed [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTiming {
    /// Span name = the trace tag carrying the durations (`tick`, `op`,
    /// `propagation`, `wave`, `fanout`), in nesting order.
    pub span: String,
    /// Spans observed.
    pub count: u64,
    /// Exact sum of durations, µs.
    pub total_us: u64,
    /// Mean duration, µs (rounded down).
    pub mean_us: u64,
    /// Median duration, µs (log-bucket upper bound).
    pub p50_us: u64,
    /// 90th-percentile duration, µs.
    pub p90_us: u64,
    /// 99th-percentile duration, µs.
    pub p99_us: u64,
    /// Exact maximum duration, µs.
    pub max_us: u64,
}

/// Everything [`analyze_trace`] can extract from one trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalysisReport {
    /// Management mode from the `run_start` line (empty if absent).
    pub mode: String,
    /// Seed from the `run_start` line.
    pub seed: Option<u64>,
    /// Whether the run completed (from the `summary` line).
    pub completed: Option<bool>,
    /// Aggregate totals by counter name. Sourced from the trailing
    /// `counters` line when present, otherwise reconstructed from the
    /// event stream (best effort).
    pub totals: BTreeMap<String, u64>,
    /// Constraints by descending evaluation cost.
    pub constraints: Vec<ConstraintHotSpot>,
    /// Properties by descending narrowing count.
    pub properties: Vec<PropertyHotSpot>,
    /// Designers by index.
    pub designers: Vec<DesignerProfile>,
    /// Propagation-run shape.
    pub propagation: PropagationStats,
    /// Per-span-kind timing rollups, in nesting order (tick ⊃ op ⊃
    /// propagation ⊃ wave; fanout beside propagation). Only spans that
    /// occur in the trace appear.
    pub timings: Vec<SpanTiming>,
}

impl AnalysisReport {
    /// A total by counter name (0 when absent).
    pub fn total(&self, name: &str) -> u64 {
        self.totals.get(name).copied().unwrap_or(0)
    }
}

/// Span tags in nesting order for the timing rollup.
const SPAN_TAGS: [&str; 8] = [
    "tick",
    "session",
    "op",
    "negotiate",
    "propagation",
    "wave",
    "fanout",
    "notify",
];

/// Analyzes one parsed trace into attribution tables, propagation shape,
/// and timing rollups. Works on any schema-conformant trace; sections whose
/// events are absent (e.g. `cprof` lines from a pre-profiling writer) come
/// out empty rather than failing.
pub fn analyze_trace(lines: &[TraceLine]) -> AnalysisReport {
    let mut report = AnalysisReport::default();
    let mut constraints: BTreeMap<String, ConstraintHotSpot> = BTreeMap::new();
    let mut properties: BTreeMap<String, PropertyHotSpot> = BTreeMap::new();
    let mut designers: BTreeMap<u64, DesignerProfile> = BTreeMap::new();
    let mut op_designer: BTreeMap<u64, u64> = BTreeMap::new();
    let mut histograms: BTreeMap<&str, Histogram> = BTreeMap::new();
    let mut derived: BTreeMap<String, u64> = BTreeMap::new();
    let mut counters_seen = false;

    fn add(map: &mut BTreeMap<String, u64>, key: &str, by: u64) {
        *map.entry(key.to_string()).or_insert(0) += by;
    }

    for line in lines {
        if let Some(tag) = SPAN_TAGS.iter().find(|t| **t == line.tag()) {
            if let Some(dur) = line.u64_field("dur_us") {
                histograms.entry(tag).or_default().record(dur);
            }
        }
        match line.tag() {
            "run_start" => {
                report.mode = line.str_field("mode").unwrap_or("").to_string();
                report.seed = line.u64_field("seed");
            }
            "wave" => {
                add(&mut derived, "waves", 1);
                add(
                    &mut derived,
                    "narrowings",
                    line.u64_field("narrowed").unwrap_or(0),
                );
            }
            "propagation" => {
                report.propagation.runs += 1;
                match line.str_field("kind") {
                    Some("incremental") => report.propagation.incremental += 1,
                    _ => report.propagation.full += 1,
                }
                if line.bool_field("fixpoint") == Some(true) {
                    report.propagation.fixpoints += 1;
                }
                let waves = line.u64_field("waves").unwrap_or(0);
                report.propagation.max_waves = report.propagation.max_waves.max(waves);
                add(&mut derived, "propagations", 1);
                add(
                    &mut derived,
                    "conflicts",
                    line.u64_field("conflicts").unwrap_or(0),
                );
            }
            "cprof" => {
                let name = line.str_field("name").unwrap_or("");
                let entry =
                    constraints
                        .entry(name.to_string())
                        .or_insert_with(|| ConstraintHotSpot {
                            name: name.to_string(),
                            evaluations: 0,
                            conflicts: 0,
                            violations: 0,
                        });
                entry.evaluations += line.u64_field("evaluations").unwrap_or(0);
                entry.conflicts += u64::from(line.bool_field("conflict") == Some(true));
            }
            "pprof" => {
                let name = line.str_field("name").unwrap_or("");
                let entry = properties
                    .entry(name.to_string())
                    .or_insert_with(|| PropertyHotSpot {
                        name: name.to_string(),
                        narrowings: 0,
                        assigns: 0,
                        spins: 0,
                    });
                entry.narrowings += line.u64_field("narrowings").unwrap_or(0);
            }
            "violation" => {
                let name = line.str_field("constraint").unwrap_or("");
                let entry =
                    constraints
                        .entry(name.to_string())
                        .or_insert_with(|| ConstraintHotSpot {
                            name: name.to_string(),
                            evaluations: 0,
                            conflicts: 0,
                            violations: 0,
                        });
                entry.violations += 1;
                report.propagation.cross_violations +=
                    u64::from(line.bool_field("cross") == Some(true));
            }
            "op" => {
                let designer = line.u64_field("designer").unwrap_or(u64::MAX);
                let evaluations = line.u64_field("evaluations").unwrap_or(0);
                let spin = line.bool_field("spin") == Some(true);
                if let Some(seq) = line.u64_field("seq") {
                    op_designer.insert(seq, designer);
                }
                let entry = designers
                    .entry(designer)
                    .or_insert_with(|| DesignerProfile {
                        designer,
                        operations: 0,
                        evaluations: 0,
                        spins: 0,
                        notifications: 0,
                    });
                entry.operations += 1;
                entry.evaluations += evaluations;
                entry.spins += u64::from(spin);
                if let Some(target) = line.str_field("target").filter(|t| !t.is_empty()) {
                    let entry =
                        properties
                            .entry(target.to_string())
                            .or_insert_with(|| PropertyHotSpot {
                                name: target.to_string(),
                                narrowings: 0,
                                assigns: 0,
                                spins: 0,
                            });
                    entry.assigns += 1;
                    entry.spins += u64::from(spin);
                }
                add(&mut derived, "operations", 1);
                add(&mut derived, "evaluations", evaluations);
                add(
                    &mut derived,
                    "violations",
                    line.u64_field("new_violations").unwrap_or(0),
                );
                add(&mut derived, "spins", u64::from(spin));
            }
            "fanout" => {
                let events = line.u64_field("events").unwrap_or(0);
                if let Some(designer) = line.u64_field("seq").and_then(|seq| op_designer.get(&seq))
                {
                    if let Some(profile) = designers.get_mut(designer) {
                        profile.notifications += events;
                    }
                }
                add(&mut derived, "notifications", events);
            }
            "negotiate" => {
                add(
                    &mut derived,
                    "negotiation_rounds",
                    line.u64_field("rounds").unwrap_or(0),
                );
                add(
                    &mut derived,
                    "proposals_sent",
                    line.u64_field("proposals").unwrap_or(0),
                );
                match line.str_field("outcome") {
                    Some("resolved") => add(&mut derived, "conflicts_resolved", 1),
                    Some("abandoned") => add(&mut derived, "conflicts_abandoned", 1),
                    _ => {}
                }
            }
            "summary" => {
                report.completed = line.bool_field("completed");
                for key in ["operations", "evaluations", "spins", "violations"] {
                    if let Some(value) = line.u64_field(key) {
                        derived.insert(key.to_string(), value);
                    }
                }
            }
            "counters" => {
                counters_seen = true;
                for (key, value) in line.fields() {
                    if let Some(value) = value.as_u64() {
                        report.totals.insert(key.clone(), value);
                    }
                }
            }
            _ => {}
        }
    }

    if !counters_seen {
        report.totals = derived;
    }
    report.constraints = constraints.into_values().collect();
    report
        .constraints
        .sort_by(|a, b| b.evaluations.cmp(&a.evaluations).then(a.name.cmp(&b.name)));
    report.properties = properties.into_values().collect();
    report
        .properties
        .sort_by(|a, b| b.narrowings.cmp(&a.narrowings).then(a.name.cmp(&b.name)));
    report.designers = designers.into_values().collect();
    report.timings = SPAN_TAGS
        .iter()
        .filter_map(|tag| {
            let h = histograms.get(tag)?;
            Some(SpanTiming {
                span: (*tag).to_string(),
                count: h.count(),
                total_us: h.sum(),
                mean_us: h.mean(),
                p50_us: h.p50(),
                p90_us: h.p90(),
                p99_us: h.p99(),
                max_us: h.max(),
            })
        })
        .collect();
    report
}

impl AnalysisReport {
    /// Renders the report as plain-text tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mode = if self.mode.is_empty() {
            "?"
        } else {
            &self.mode
        };
        write!(out, "trace analysis (mode {mode}").unwrap();
        if let Some(seed) = self.seed {
            write!(out, ", seed {seed}").unwrap();
        }
        if let Some(completed) = self.completed {
            write!(out, ", completed {completed}").unwrap();
        }
        out.push_str(")\n\ntotals:\n");
        for name in DIFF_STATISTICS {
            writeln!(out, "  {name:<16} {:>10}", self.total(name)).unwrap();
        }

        out.push_str("\nconstraint hot-spots (by evaluations):\n");
        if self.constraints.is_empty() {
            out.push_str("  (no cprof/violation lines in this trace)\n");
        } else {
            let total: u64 = self.constraints.iter().map(|c| c.evaluations).sum();
            writeln!(
                out,
                "  {:<24} {:>12} {:>10} {:>11} {:>7}",
                "constraint", "evaluations", "conflicts", "violations", "share"
            )
            .unwrap();
            for c in &self.constraints {
                let share = if total == 0 {
                    0.0
                } else {
                    c.evaluations as f64 * 100.0 / total as f64
                };
                writeln!(
                    out,
                    "  {:<24} {:>12} {:>10} {:>11} {share:>6.1}%",
                    c.name, c.evaluations, c.conflicts, c.violations
                )
                .unwrap();
            }
        }

        out.push_str("\nproperty attribution (by narrowings):\n");
        if self.properties.is_empty() {
            out.push_str("  (no pprof lines or op targets in this trace)\n");
        } else {
            writeln!(
                out,
                "  {:<24} {:>11} {:>8} {:>6}",
                "property", "narrowings", "assigns", "spins"
            )
            .unwrap();
            for p in &self.properties {
                writeln!(
                    out,
                    "  {:<24} {:>11} {:>8} {:>6}",
                    p.name, p.narrowings, p.assigns, p.spins
                )
                .unwrap();
            }
        }

        out.push_str("\ndesigner profiles:\n");
        if self.designers.is_empty() {
            out.push_str("  (no op lines in this trace)\n");
        } else {
            writeln!(
                out,
                "  {:<9} {:>11} {:>12} {:>6} {:>14}",
                "designer", "operations", "evaluations", "spins", "notifications"
            )
            .unwrap();
            for d in &self.designers {
                writeln!(
                    out,
                    "  {:<9} {:>11} {:>12} {:>6} {:>14}",
                    d.designer, d.operations, d.evaluations, d.spins, d.notifications
                )
                .unwrap();
            }
        }

        let p = &self.propagation;
        out.push_str("\npropagation:\n");
        writeln!(
            out,
            "  runs {} (full {}, incremental {})  fixpoints {}  max waves {}  cross violations {}",
            p.runs, p.full, p.incremental, p.fixpoints, p.max_waves, p.cross_violations
        )
        .unwrap();

        out.push_str("\nspan timings (µs, spans nest tick ⊃ op ⊃ propagation ⊃ wave):\n");
        if self.timings.is_empty() {
            out.push_str("  (no dur_us fields in this trace)\n");
        } else {
            writeln!(
                out,
                "  {:<12} {:>7} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
                "span", "count", "total", "mean", "p50", "p90", "p99", "max"
            )
            .unwrap();
            for t in &self.timings {
                writeln!(
                    out,
                    "  {:<12} {:>7} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
                    t.span, t.count, t.total_us, t.mean_us, t.p50_us, t.p90_us, t.p99_us, t.max_us
                )
                .unwrap();
            }
        }
        out
    }

    /// Serializes the report as flat JSONL — the same shape as a trace
    /// (first field the string tag `"t"`), so the output round-trips
    /// through [`parse_trace`](crate::parse_trace). Tags: `a_total`,
    /// `a_constraint`, `a_property`, `a_designer`, `a_propagation`,
    /// `a_timing`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"t\":\"a_total\"");
        field_str(&mut out, "mode", &self.mode);
        field_u64(&mut out, "seed", self.seed.unwrap_or(0));
        field_bool(&mut out, "completed", self.completed.unwrap_or(false));
        for name in DIFF_STATISTICS {
            field_u64(&mut out, name, self.total(name));
        }
        out.push_str("}\n");
        for c in &self.constraints {
            out.push_str("{\"t\":\"a_constraint\"");
            field_str(&mut out, "name", &c.name);
            field_u64(&mut out, "evaluations", c.evaluations);
            field_u64(&mut out, "conflicts", c.conflicts);
            field_u64(&mut out, "violations", c.violations);
            out.push_str("}\n");
        }
        for p in &self.properties {
            out.push_str("{\"t\":\"a_property\"");
            field_str(&mut out, "name", &p.name);
            field_u64(&mut out, "narrowings", p.narrowings);
            field_u64(&mut out, "assigns", p.assigns);
            field_u64(&mut out, "spins", p.spins);
            out.push_str("}\n");
        }
        for d in &self.designers {
            out.push_str("{\"t\":\"a_designer\"");
            field_u64(&mut out, "designer", d.designer);
            field_u64(&mut out, "operations", d.operations);
            field_u64(&mut out, "evaluations", d.evaluations);
            field_u64(&mut out, "spins", d.spins);
            field_u64(&mut out, "notifications", d.notifications);
            out.push_str("}\n");
        }
        let p = &self.propagation;
        out.push_str("{\"t\":\"a_propagation\"");
        field_u64(&mut out, "runs", p.runs);
        field_u64(&mut out, "full", p.full);
        field_u64(&mut out, "incremental", p.incremental);
        field_u64(&mut out, "fixpoints", p.fixpoints);
        field_u64(&mut out, "max_waves", p.max_waves);
        field_u64(&mut out, "cross_violations", p.cross_violations);
        out.push_str("}\n");
        for t in &self.timings {
            out.push_str("{\"t\":\"a_timing\"");
            field_str(&mut out, "span", &t.span);
            field_u64(&mut out, "count", t.count);
            field_u64(&mut out, "total_us", t.total_us);
            field_u64(&mut out, "mean_us", t.mean_us);
            field_u64(&mut out, "p50_us", t.p50_us);
            field_u64(&mut out, "p90_us", t.p90_us);
            field_u64(&mut out, "p99_us", t.p99_us);
            field_u64(&mut out, "max_us", t.max_us);
            out.push_str("}\n");
        }
        out
    }
}

/// Side-by-side λ=T vs λ=F comparison over the paper's four statistics
/// (plus the propagation internals), rendered as a table. `a` and `b` are
/// typically an `adpm` and a `conventional` analysis of the same scenario
/// and seed.
pub fn render_comparison(a: &AnalysisReport, b: &AnalysisReport) -> String {
    let name = |r: &AnalysisReport, fallback: &str| {
        if r.mode.is_empty() {
            fallback.to_string()
        } else {
            r.mode.clone()
        }
    };
    let a_name = name(a, "a");
    let b_name = name(b, "b");
    let mut out = String::from("mode comparison (the paper's four statistics first):\n");
    writeln!(
        out,
        "  {:<16} {:>12} {:>12} {:>9}",
        "statistic", a_name, b_name, "b/a"
    )
    .unwrap();
    for stat in DIFF_STATISTICS {
        let av = a.total(stat);
        let bv = b.total(stat);
        let ratio = if av == 0 {
            "-".to_string()
        } else {
            format!("{:.2}", bv as f64 / av as f64)
        };
        writeln!(out, "  {stat:<16} {av:>12} {bv:>12} {ratio:>9}").unwrap();
    }
    out
}

/// Noise thresholds for [`diff_traces`]: statistic *b* regresses against
/// *a* when `b > a + max(absolute, a × relative)`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DiffThresholds {
    /// Absolute slack, in statistic units.
    pub absolute: u64,
    /// Relative slack, as a fraction of the baseline value.
    pub relative: f64,
}

/// One statistic's delta between a baseline trace and a candidate trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatDelta {
    /// Statistic name (a [`DIFF_STATISTICS`] entry).
    pub name: String,
    /// Baseline value.
    pub a: u64,
    /// Candidate value.
    pub b: u64,
    /// Whether the candidate regressed past the thresholds.
    pub regression: bool,
}

/// The result of diffing two traces (see [`diff_traces`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceDiff {
    /// One delta per [`DIFF_STATISTICS`] entry, in order.
    pub deltas: Vec<StatDelta>,
}

impl TraceDiff {
    /// Whether any statistic regressed.
    pub fn has_regressions(&self) -> bool {
        self.deltas.iter().any(|d| d.regression)
    }

    /// Number of statistics that changed at all (in either direction).
    pub fn changed(&self) -> usize {
        self.deltas.iter().filter(|d| d.a != d.b).count()
    }

    /// Renders the diff as a table, flagging regressions.
    pub fn render(&self) -> String {
        let mut out = String::from("trace diff (b against baseline a):\n");
        writeln!(
            out,
            "  {:<16} {:>12} {:>12} {:>12}",
            "statistic", "a", "b", "delta"
        )
        .unwrap();
        for d in &self.deltas {
            let delta = d.b as i128 - d.a as i128;
            let flag = if d.regression { "  REGRESSION" } else { "" };
            writeln!(
                out,
                "  {:<16} {:>12} {:>12} {:>+12}{flag}",
                d.name, d.a, d.b, delta
            )
            .unwrap();
        }
        let regressions = self.deltas.iter().filter(|d| d.regression).count();
        writeln!(
            out,
            "  {} statistic(s) changed, {} regression(s)",
            self.changed(),
            regressions
        )
        .unwrap();
        out
    }
}

/// Compares candidate trace `b` against baseline trace `a` over
/// [`DIFF_STATISTICS`]. A statistic regresses when it *grows* beyond the
/// thresholds — every statistic here is a cost (evaluations, violations,
/// spins, ...), so shrinking is always fine.
pub fn diff_traces(
    a: &AnalysisReport,
    b: &AnalysisReport,
    thresholds: &DiffThresholds,
) -> TraceDiff {
    let deltas = DIFF_STATISTICS
        .iter()
        .map(|stat| {
            let av = a.total(stat);
            let bv = b.total(stat);
            let slack = (av as f64 * thresholds.relative).ceil() as u64;
            let allowed = av.saturating_add(thresholds.absolute.max(slack));
            StatDelta {
                name: (*stat).to_string(),
                a: av,
                b: bv,
                regression: bv > allowed,
            }
        })
        .collect();
    TraceDiff { deltas }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_trace;

    const TRACE: &str = concat!(
        "{\"t\":\"run_start\",\"mode\":\"adpm\",\"seed\":7,\"designers\":2,\"properties\":3,\"constraints\":2}\n",
        "{\"t\":\"wave\",\"wave\":0,\"queue_len\":2,\"evaluations\":2,\"narrowed\":1,\"dur_us\":10}\n",
        "{\"t\":\"cprof\",\"name\":\"cap\",\"evaluations\":3,\"conflict\":false}\n",
        "{\"t\":\"cprof\",\"name\":\"sum\",\"evaluations\":1,\"conflict\":true}\n",
        "{\"t\":\"pprof\",\"name\":\"o.x\",\"narrowings\":1,\"dur_us\":1}\n",
        "{\"t\":\"propagation\",\"kind\":\"full\",\"seeded\":2,\"waves\":1,\"evaluations\":4,\"narrowed\":1,\"conflicts\":1,\"fixpoint\":true,\"dur_us\":30}\n",
        "{\"t\":\"violation\",\"seq\":1,\"constraint\":\"sum\",\"cross\":true}\n",
        "{\"t\":\"op\",\"seq\":1,\"designer\":0,\"kind\":\"assign\",\"mode\":\"adpm\",\"target\":\"o.x\",\"evaluations\":4,\"violations_after\":1,\"new_violations\":1,\"spin\":true,\"dur_us\":50}\n",
        "{\"t\":\"fanout\",\"seq\":1,\"recipients\":2,\"events\":3,\"dur_us\":5}\n",
        "{\"t\":\"tick\",\"tick\":0,\"designer\":0,\"outcome\":\"executed\",\"dur_us\":70}\n",
        "{\"t\":\"summary\",\"operations\":1,\"evaluations\":4,\"spins\":1,\"violations\":1,\"completed\":false}\n",
    );

    fn report() -> AnalysisReport {
        analyze_trace(&parse_trace(TRACE).expect("valid trace"))
    }

    #[test]
    fn attribution_tables_are_built_and_sorted() {
        let r = report();
        assert_eq!(r.mode, "adpm");
        assert_eq!(r.seed, Some(7));
        assert_eq!(r.completed, Some(false));
        assert_eq!(r.constraints.len(), 2);
        assert_eq!(r.constraints[0].name, "cap");
        assert_eq!(r.constraints[0].evaluations, 3);
        assert_eq!(r.constraints[1].conflicts, 1);
        assert_eq!(r.constraints[1].violations, 1);
        let x = &r.properties[0];
        assert_eq!(
            (x.name.as_str(), x.narrowings, x.assigns, x.spins),
            ("o.x", 1, 1, 1)
        );
        assert_eq!(r.designers.len(), 1);
        assert_eq!(r.designers[0].operations, 1);
        assert_eq!(r.designers[0].notifications, 3);
        assert_eq!(r.propagation.runs, 1);
        assert_eq!(r.propagation.cross_violations, 1);
    }

    #[test]
    fn totals_fall_back_to_the_event_stream_without_a_counters_line() {
        let r = report();
        assert_eq!(r.total("operations"), 1);
        assert_eq!(r.total("evaluations"), 4);
        assert_eq!(r.total("spins"), 1);
        assert_eq!(r.total("waves"), 1);
        assert_eq!(r.total("notifications"), 3);
    }

    #[test]
    fn a_counters_line_is_authoritative() {
        let text = format!(
            "{TRACE}{}",
            "{\"t\":\"counters\",\"operations\":1,\"evaluations\":99,\"propagations\":1,\"waves\":1,\"narrowings\":1,\"conflicts\":1,\"seed_constraints\":2,\"violations\":1,\"spins\":1,\"notifications\":3,\"ticks_executed\":1,\"ticks_stalled\":0}\n"
        );
        let r = analyze_trace(&parse_trace(&text).expect("valid trace"));
        assert_eq!(r.total("evaluations"), 99);
        assert_eq!(r.total("ticks_executed"), 1);
    }

    #[test]
    fn timings_roll_up_in_nesting_order() {
        let r = report();
        let spans: Vec<&str> = r.timings.iter().map(|t| t.span.as_str()).collect();
        assert_eq!(spans, vec!["tick", "op", "propagation", "wave", "fanout"]);
        let tick = &r.timings[0];
        assert_eq!(tick.count, 1);
        assert_eq!(tick.total_us, 70);
        assert_eq!(tick.max_us, 70);
    }

    #[test]
    fn render_mentions_every_section() {
        let text = report().render();
        for needle in [
            "trace analysis (mode adpm, seed 7",
            "totals:",
            "constraint hot-spots",
            "property attribution",
            "designer profiles",
            "propagation:",
            "span timings",
            "cap",
            "o.x",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn jsonl_output_round_trips_through_the_trace_parser() {
        let jsonl = report().to_jsonl();
        let lines = parse_trace(&jsonl).expect("analysis output must reparse");
        assert_eq!(lines[0].tag(), "a_total");
        assert_eq!(lines[0].u64_field("evaluations"), Some(4));
        assert!(lines.iter().any(|l| l.tag() == "a_constraint"));
        assert!(lines.iter().any(|l| l.tag() == "a_timing"));
    }

    #[test]
    fn identical_traces_diff_clean() {
        let r = report();
        let diff = diff_traces(&r, &r, &DiffThresholds::default());
        assert!(!diff.has_regressions());
        assert_eq!(diff.changed(), 0);
        assert!(diff.render().contains("0 regression(s)"));
    }

    #[test]
    fn inflated_statistics_trip_the_regression_gate() {
        let a = report();
        let mut b = report();
        b.totals.insert("evaluations".into(), 1_000);
        let diff = diff_traces(&a, &b, &DiffThresholds::default());
        assert!(diff.has_regressions());
        assert!(diff.render().contains("REGRESSION"));
        // Thresholds forgive the growth...
        let lax = DiffThresholds {
            absolute: 1_000,
            relative: 0.0,
        };
        assert!(!diff_traces(&a, &b, &lax).has_regressions());
        let lax = DiffThresholds {
            absolute: 0,
            relative: 500.0,
        };
        assert!(!diff_traces(&a, &b, &lax).has_regressions());
        // ...and improvements never regress.
        let mut better = report();
        better.totals.insert("evaluations".into(), 1);
        assert!(!diff_traces(&a, &better, &DiffThresholds::default()).has_regressions());
    }

    #[test]
    fn comparison_report_tables_both_modes() {
        let a = report();
        let mut b = report();
        b.mode = "conventional".into();
        b.totals.insert("operations".into(), 5);
        let text = render_comparison(&a, &b);
        assert!(text.contains("adpm"));
        assert!(text.contains("conventional"));
        assert!(text.contains("5.00"), "{text}");
    }

    #[test]
    fn empty_trace_analyzes_to_an_empty_report() {
        let r = analyze_trace(&[]);
        assert!(r.constraints.is_empty());
        assert!(r.timings.is_empty());
        assert_eq!(r.total("operations"), 0);
        assert!(r.render().contains("no cprof"));
        let reparsed = parse_trace(&r.to_jsonl()).expect("still valid jsonl");
        assert!(!reparsed.is_empty());
    }
}
