//! Simulation statistics capture and aggregation.
//!
//! TeamSim "dynamically captures, stores, and consolidates simulation
//! statistics" (paper §3.1): per executed operation, the number of
//! constraint violations found, the constraint evaluations run because of
//! it, cumulative counts, and spins. [`RunStats`] is one run's capture;
//! [`Summary`] and [`Batch`] aggregate across seeds the way Fig. 9 does.

use adpm_core::OperationRecord;
use std::collections::BTreeMap;

/// One operation's captured row (what TeamSim displays per operation).
#[derive(Debug, Clone, PartialEq)]
pub struct OperationStat {
    /// 1-based operation number.
    pub index: usize,
    /// Index of the requesting designer.
    pub designer: u32,
    /// Short operator kind (`assign`, `verify`, ...).
    pub kind: &'static str,
    /// Violations newly found upon this operation (Fig. 7(a) series).
    pub violations_found: usize,
    /// Violations known immediately after the operation.
    pub violations_after: usize,
    /// Constraint evaluations executed due to the operation (Fig. 7(b)).
    pub evaluations: usize,
    /// Whether the operation was a design spin.
    pub spin: bool,
}

impl OperationStat {
    /// Captures the row for one executed operation.
    pub fn from_record(record: &OperationRecord) -> Self {
        OperationStat {
            index: record.sequence,
            designer: record.operation.designer().index() as u32,
            kind: record.operation.operator().kind(),
            violations_found: record.new_violations.len(),
            violations_after: record.violations_after,
            evaluations: record.evaluations,
            spin: record.spin,
        }
    }
}

/// Statistics of one complete simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Whether the design reached completion within the operation cap.
    pub completed: bool,
    /// Number of executed design operations `N_O`.
    pub operations: usize,
    /// Total constraint evaluations `N_T`, including scenario setup.
    pub evaluations: usize,
    /// Evaluations spent before the first operation (initial propagation).
    pub setup_evaluations: usize,
    /// Total design spins.
    pub spins: usize,
    /// Per-operation capture, in execution order.
    pub per_operation: Vec<OperationStat>,
}

impl RunStats {
    /// Average evaluations per executed operation `N_E = N_T / N_O`.
    pub fn evaluations_per_operation(&self) -> f64 {
        if self.operations == 0 {
            0.0
        } else {
            self.evaluations as f64 / self.operations as f64
        }
    }

    /// The Fig. 7(a) series: violations found upon each operation.
    pub fn violations_profile(&self) -> Vec<usize> {
        self.per_operation
            .iter()
            .map(|s| s.violations_found)
            .collect()
    }

    /// The Fig. 7(b) series: evaluations per operation.
    pub fn evaluations_profile(&self) -> Vec<usize> {
        self.per_operation.iter().map(|s| s.evaluations).collect()
    }

    /// Index of the first and last operation that found violations, if any
    /// (the paper observes ADPM violations "start later and stop earlier").
    pub fn violation_span(&self) -> Option<(usize, usize)> {
        let firsts: Vec<usize> = self
            .per_operation
            .iter()
            .filter(|s| s.violations_found > 0)
            .map(|s| s.index)
            .collect();
        match (firsts.first(), firsts.last()) {
            (Some(a), Some(b)) => Some((*a, *b)),
            _ => None,
        }
    }

    /// Total violations found over the run.
    pub fn total_violations_found(&self) -> usize {
        self.per_operation.iter().map(|s| s.violations_found).sum()
    }

    /// Operations requested per designer — the "designer effort" the paper
    /// argues ADPM reduces ("each operation requires a direct request from
    /// a designer").
    pub fn operations_by_designer(&self) -> BTreeMap<u32, usize> {
        let mut out = BTreeMap::new();
        for stat in &self.per_operation {
            *out.entry(stat.designer).or_insert(0) += 1;
        }
        out
    }
}

/// Mean / standard deviation / extrema of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Sample size.
    pub n: usize,
}

impl Summary {
    /// Summarizes a sample. Empty samples yield all-zero summaries.
    pub fn of(values: &[f64]) -> Summary {
        let n = values.len();
        if n == 0 {
            return Summary {
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
                n: 0,
            };
        }
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Summary {
            mean,
            std_dev: var.sqrt(),
            min: values.iter().cloned().fold(f64::INFINITY, f64::min),
            max: values.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            n,
        }
    }
}

/// Percentile of a sample using linear interpolation between order
/// statistics (`q` in `[0, 1]`). Empty samples yield 0.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let position = q * (sorted.len() - 1) as f64;
    let lower = position.floor() as usize;
    let upper = position.ceil() as usize;
    if lower == upper {
        sorted[lower]
    } else {
        let t = position - lower as f64;
        sorted[lower] * (1.0 - t) + sorted[upper] * t
    }
}

/// A batch of runs of one configuration (one bar of Fig. 9).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Batch {
    runs: Vec<RunStats>,
}

impl Batch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a run.
    pub fn push(&mut self, run: RunStats) {
        self.runs.push(run);
    }

    /// The collected runs.
    pub fn runs(&self) -> &[RunStats] {
        &self.runs
    }

    /// Fraction of runs that completed within the operation cap.
    pub fn completion_rate(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs.iter().filter(|r| r.completed).count() as f64 / self.runs.len() as f64
    }

    /// Summary of operations-to-complete (completed runs only).
    pub fn operations(&self) -> Summary {
        Summary::of(
            &self
                .runs
                .iter()
                .filter(|r| r.completed)
                .map(|r| r.operations as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// Summary of total evaluations (completed runs only).
    pub fn evaluations(&self) -> Summary {
        Summary::of(
            &self
                .runs
                .iter()
                .filter(|r| r.completed)
                .map(|r| r.evaluations as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// Summary of evaluations per operation (completed runs only).
    pub fn evaluations_per_operation(&self) -> Summary {
        Summary::of(
            &self
                .runs
                .iter()
                .filter(|r| r.completed)
                .map(|r| r.evaluations_per_operation())
                .collect::<Vec<_>>(),
        )
    }

    /// Percentile of operations-to-complete over the completed runs
    /// (`0.5` = median, `0.9` = p90) — tail behaviour is what the paper's
    /// "predictability" claim is about.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn operations_percentile(&self, q: f64) -> f64 {
        percentile(
            &self
                .runs
                .iter()
                .filter(|r| r.completed)
                .map(|r| r.operations as f64)
                .collect::<Vec<_>>(),
            q,
        )
    }

    /// Mean spins per completed run.
    pub fn mean_spins(&self) -> f64 {
        let done: Vec<f64> = self
            .runs
            .iter()
            .filter(|r| r.completed)
            .map(|r| r.spins as f64)
            .collect();
        Summary::of(&done).mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(index: usize, found: usize, evals: usize, spin: bool) -> OperationStat {
        OperationStat {
            index,
            designer: (index % 2) as u32,
            kind: "assign",
            violations_found: found,
            violations_after: found,
            evaluations: evals,
            spin,
        }
    }

    fn run(ops: Vec<OperationStat>, completed: bool) -> RunStats {
        let evaluations = ops.iter().map(|s| s.evaluations).sum::<usize>() + 3;
        let spins = ops.iter().filter(|s| s.spin).count();
        RunStats {
            completed,
            operations: ops.len(),
            evaluations,
            setup_evaluations: 3,
            spins,
            per_operation: ops,
        }
    }

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.138089935).abs() < 1e-6);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.n, 8);
    }

    #[test]
    fn summary_handles_degenerate_samples() {
        let empty = Summary::of(&[]);
        assert_eq!(empty.n, 0);
        assert_eq!(empty.mean, 0.0);
        let single = Summary::of(&[3.0]);
        assert_eq!(single.mean, 3.0);
        assert_eq!(single.std_dev, 0.0);
    }

    #[test]
    fn run_stats_profiles_and_span() {
        let r = run(
            vec![
                stat(1, 0, 2, false),
                stat(2, 1, 5, false),
                stat(3, 2, 4, true),
                stat(4, 0, 1, false),
            ],
            true,
        );
        assert_eq!(r.violations_profile(), vec![0, 1, 2, 0]);
        assert_eq!(r.evaluations_profile(), vec![2, 5, 4, 1]);
        assert_eq!(r.violation_span(), Some((2, 3)));
        assert_eq!(r.total_violations_found(), 3);
        assert_eq!(r.spins, 1);
        assert!((r.evaluations_per_operation() - 15.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn operations_by_designer_partitions_the_run() {
        let r = run(
            vec![
                stat(1, 0, 1, false),
                stat(2, 0, 1, false),
                stat(3, 0, 1, false),
                stat(4, 0, 1, false),
            ],
            true,
        );
        let by_designer = r.operations_by_designer();
        assert_eq!(by_designer.values().sum::<usize>(), r.operations);
        assert_eq!(by_designer[&0], 2); // indices 2, 4
        assert_eq!(by_designer[&1], 2); // indices 1, 3
    }

    #[test]
    fn violation_span_none_when_clean() {
        let r = run(vec![stat(1, 0, 1, false)], true);
        assert_eq!(r.violation_span(), None);
    }

    #[test]
    fn batch_aggregates_completed_runs_only() {
        let mut batch = Batch::new();
        batch.push(run(vec![stat(1, 0, 2, false), stat(2, 1, 2, true)], true));
        batch.push(run(vec![stat(1, 0, 2, false)], true));
        batch.push(run(vec![stat(1, 3, 2, false)], false)); // censored
        assert_eq!(batch.runs().len(), 3);
        assert!((batch.completion_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(batch.operations().n, 2);
        assert!((batch.operations().mean - 1.5).abs() < 1e-12);
        assert!((batch.mean_spins() - 0.5).abs() < 1e-12);
        assert!(batch.evaluations().mean > 0.0);
        assert!(batch.evaluations_per_operation().mean > 0.0);
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&values, 1.0), 4.0);
        assert_eq!(percentile(&values, 0.5), 2.5);
        assert!((percentile(&values, 0.25) - 1.75).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn percentile_rejects_bad_quantiles() {
        let _ = percentile(&[1.0], 1.5);
    }

    #[test]
    fn batch_operations_percentile_uses_completed_runs() {
        let mut batch = Batch::new();
        batch.push(run(vec![stat(1, 0, 1, false)], true));
        batch.push(run(
            vec![
                stat(1, 0, 1, false),
                stat(2, 0, 1, false),
                stat(3, 0, 1, false),
            ],
            true,
        ));
        batch.push(run(vec![stat(1, 0, 1, false); 9], false)); // censored, ignored
        assert_eq!(batch.operations_percentile(0.5), 2.0);
        assert_eq!(batch.operations_percentile(1.0), 3.0);
    }

    #[test]
    fn zero_operation_run_has_zero_rate() {
        let r = RunStats {
            completed: false,
            operations: 0,
            evaluations: 5,
            setup_evaluations: 5,
            spins: 0,
            per_operation: Vec::new(),
        };
        assert_eq!(r.evaluations_per_operation(), 0.0);
    }
}
