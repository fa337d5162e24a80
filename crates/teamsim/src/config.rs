//! Simulation configuration.

use adpm_constraint::{PropagationConfig, PropagationKind};
use adpm_core::{DpmConfig, ManagementMode};

/// How a designer orders unbound outputs when choosing what to work on
/// next (the `f_a` forward branch).
///
/// The paper's designer model uses the smallest-feasible-subspace rule of
/// §2.3.1; §2.3.2 describes the alternative of preferring strongly
/// connected properties (`β`), including the extension counting indirectly
/// related constraints. All three are selectable here so the bench harness
/// can compare them — the "other heuristics" the paper's conclusions call
/// for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ForwardOrdering {
    /// §2.3.1: smallest feasible subspace first (the paper's `f_a`).
    #[default]
    SmallestFeasible,
    /// §2.3.2: most connected constraints (`β`) first.
    Beta,
    /// §2.3.2 extension: most two-hop-connected constraints first.
    BetaIndirect,
}

/// Which of ADPM's heuristic supports the simulated designers use.
///
/// All four are on by default (the paper's ADPM configuration); the
/// ablation benches switch them off one at a time to quantify each
/// heuristic's contribution (the §2.3 design choices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeuristicToggles {
    /// §2.3.1 — order forward work by the selected ordering (off = random).
    pub feasible_ordering: bool,
    /// Which ordering `feasible_ordering` applies.
    pub forward_ordering: ForwardOrdering,
    /// §2.3.1 — pick values from the feasible subspace (vs the raw `E_i`).
    pub feasible_values: bool,
    /// §2.3.3 — pick repair targets by connected-violation count `α`.
    pub alpha_repair: bool,
    /// §3.1.1 — move repaired values in the direction fixing most
    /// violations (monotonicity-aware repair).
    pub direction_repair: bool,
}

impl Default for HeuristicToggles {
    fn default() -> Self {
        HeuristicToggles {
            feasible_ordering: true,
            forward_ordering: ForwardOrdering::SmallestFeasible,
            feasible_values: true,
            alpha_repair: true,
            direction_repair: true,
        }
    }
}

impl HeuristicToggles {
    /// All heuristics enabled (the paper's ADPM configuration).
    pub fn all() -> Self {
        Self::default()
    }

    /// All heuristics disabled.
    pub fn none() -> Self {
        HeuristicToggles {
            feasible_ordering: false,
            forward_ordering: ForwardOrdering::SmallestFeasible,
            feasible_values: false,
            alpha_repair: false,
            direction_repair: false,
        }
    }
}

/// Configuration for one TeamSim run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationConfig {
    /// The paper's `λ` flag: ADPM or conventional transition model.
    pub mode: ManagementMode,
    /// Random seed; the paper's evaluation varies this across 60+ runs.
    pub seed: u64,
    /// Hard cap on executed design operations; runs that exceed it are
    /// reported as incomplete (censored) rather than looping forever.
    pub max_operations: usize,
    /// Repair step size as a fraction of `|E_i|` — the paper reports that
    /// "delta values around 100 times smaller than the size of E_i worked
    /// well", i.e. `0.01`.
    pub delta_fraction: f64,
    /// Which heuristic supports ADPM designers use (ablation knob).
    pub heuristics: HeuristicToggles,
    /// Probability that a designer ignores the monotonicity vote when
    /// choosing a fresh value, modelling secondary objectives the
    /// constraint network does not capture (like the paper's §2.4 designer
    /// choosing the smallest feasible width to save power). This is what
    /// makes runs vary across seeds in both modes.
    pub choice_noise: f64,
    /// Propagation settings for the ADPM DCM (the evaluation cap).
    pub propagation: PropagationConfig,
    /// Which DCM propagation path the ADPM DPM runs after each operation:
    /// from-scratch full propagation (the default, which the paper's
    /// evaluation counts assume) or region propagation from the operation's
    /// target property, which reaches the same fixed points.
    pub propagation_kind: PropagationKind,
}

impl SimulationConfig {
    /// ADPM-mode configuration with the given seed.
    pub fn adpm(seed: u64) -> Self {
        SimulationConfig {
            mode: ManagementMode::Adpm,
            seed,
            max_operations: 5_000,
            delta_fraction: 0.01,
            heuristics: HeuristicToggles::all(),
            choice_noise: 0.25,
            propagation: PropagationConfig::default(),
            propagation_kind: PropagationKind::Full,
        }
    }

    /// Conventional-mode configuration with the given seed.
    pub fn conventional(seed: u64) -> Self {
        SimulationConfig {
            mode: ManagementMode::Conventional,
            ..Self::adpm(seed)
        }
    }

    /// Configuration for the given mode (convenience for sweeps).
    pub fn for_mode(mode: ManagementMode, seed: u64) -> Self {
        match mode {
            ManagementMode::Adpm => Self::adpm(seed),
            ManagementMode::Conventional => Self::conventional(seed),
        }
    }

    /// The DPM configuration this simulation config implies.
    pub fn dpm_config(&self) -> DpmConfig {
        DpmConfig {
            mode: self.mode,
            propagation: self.propagation.clone(),
            propagation_kind: self.propagation_kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_mode() {
        assert_eq!(SimulationConfig::adpm(1).mode, ManagementMode::Adpm);
        assert_eq!(
            SimulationConfig::conventional(1).mode,
            ManagementMode::Conventional
        );
        assert_eq!(
            SimulationConfig::for_mode(ManagementMode::Adpm, 2).mode,
            ManagementMode::Adpm
        );
    }

    #[test]
    fn defaults_match_paper_parameters() {
        let c = SimulationConfig::adpm(0);
        assert_eq!(c.delta_fraction, 0.01); // |E_i| / 100
        assert!(c.heuristics.feasible_ordering);
        assert!(c.heuristics.alpha_repair);
    }

    #[test]
    fn toggle_constructors() {
        assert!(HeuristicToggles::all().direction_repair);
        assert!(!HeuristicToggles::none().feasible_values);
        assert_eq!(
            HeuristicToggles::all().forward_ordering,
            ForwardOrdering::SmallestFeasible
        );
    }

    #[test]
    fn dpm_config_propagates_mode() {
        let c = SimulationConfig::conventional(7);
        assert_eq!(c.dpm_config().mode, ManagementMode::Conventional);
    }

    #[test]
    fn dpm_config_propagates_propagation_kind() {
        let mut c = SimulationConfig::adpm(7);
        assert_eq!(c.dpm_config().propagation_kind, PropagationKind::Full);
        c.propagation_kind = PropagationKind::Incremental;
        assert_eq!(
            c.dpm_config().propagation_kind,
            PropagationKind::Incremental
        );
    }
}
