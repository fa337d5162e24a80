//! The human-readable report lines printed above the JSON result.

use crate::stats::Dist;
use std::fmt::Display;

/// One free-form line.
pub fn line(text: impl Display) {
    println!("{text}");
}

/// One named value with its unit and sample count.
pub fn value(name: &str, value: f64, unit: &str, n: usize) {
    println!("  {name:<30} {value:>14.3} {unit:<6} n={n}");
}

/// A latency distribution: median, p99 when at least ten samples lie
/// beyond it, mean and sample count.
pub fn dist(name: &str, dist: &Dist, unit: &str) {
    let p99 = dist
        .p99()
        .map_or("n/a (too few samples)".to_owned(), |v| format!("{v:.1}"));
    println!(
        "  {name:<30} p50 {:.1} p99 {p99} mean {:.1} {unit} n={}",
        dist.p50().unwrap_or(0.0),
        dist.mean().unwrap_or(0.0),
        dist.n()
    );
}
