//! Designer negotiation policies — how a simulated designer answers the
//! relaxation proposals a conflict negotiation puts to it.
//!
//! The paper's collaborative-design setting has designers with different
//! viewpoints arguing about which requirement yields when a conflict spans
//! subsystems. TeamSim models three archetypes: the *compromising*
//! designer accepts any proposal, the *stubborn* designer refuses anything
//! that touches its own viewpoint, and the *argumentative* designer
//! counters the first offer before settling. Policies are pure functions
//! of (round, does-it-touch-me), so negotiation outcomes stay a
//! deterministic function of the design state.

use adpm_core::NegotiationAnswer;
use std::fmt;
use std::str::FromStr;

/// How a designer answers relaxation proposals during conflict
/// negotiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NegotiationPolicy {
    /// Accepts every proposal — collaboration over turf.
    #[default]
    Compromising,
    /// Rejects any proposal that touches its own viewpoint (the
    /// properties of its assigned problems); accepts the rest.
    Stubborn,
    /// Counters the first round's proposal with the next-ranked
    /// alternative, then accepts — it wants its say, not a deadlock.
    Argumentative,
}

impl NegotiationPolicy {
    /// Every policy, in the order [`default_team`](Self::default_team)
    /// cycles through.
    pub const ALL: [NegotiationPolicy; 3] = [
        NegotiationPolicy::Compromising,
        NegotiationPolicy::Argumentative,
        NegotiationPolicy::Stubborn,
    ];

    /// Short stable name (`compromising`/`stubborn`/`argumentative`).
    pub fn name(self) -> &'static str {
        match self {
            NegotiationPolicy::Compromising => "compromising",
            NegotiationPolicy::Stubborn => "stubborn",
            NegotiationPolicy::Argumentative => "argumentative",
        }
    }

    /// The policy's verdict on a proposal. `round` is 1-based;
    /// `touches_own_viewpoint` is whether the proposal rewrites a
    /// constraint over (or unbinds) one of the designer's own properties.
    pub fn answer(self, round: u32, touches_own_viewpoint: bool) -> NegotiationAnswer {
        match self {
            NegotiationPolicy::Compromising => NegotiationAnswer::Accept,
            NegotiationPolicy::Stubborn => {
                if touches_own_viewpoint {
                    NegotiationAnswer::Reject
                } else {
                    NegotiationAnswer::Accept
                }
            }
            NegotiationPolicy::Argumentative => {
                if round <= 1 {
                    NegotiationAnswer::Counter
                } else {
                    NegotiationAnswer::Accept
                }
            }
        }
    }

    /// A deterministic policy assignment for a team of `n` designers:
    /// cycles compromising → argumentative → stubborn, so a 3-designer
    /// scenario exercises all three archetypes.
    pub fn default_team(n: usize) -> Vec<NegotiationPolicy> {
        (0..n).map(|i| Self::ALL[i % Self::ALL.len()]).collect()
    }
}

impl fmt::Display for NegotiationPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for NegotiationPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "compromising" => Ok(NegotiationPolicy::Compromising),
            "stubborn" => Ok(NegotiationPolicy::Stubborn),
            "argumentative" => Ok(NegotiationPolicy::Argumentative),
            other => Err(format!(
                "unknown negotiation policy `{other}` \
                 (expected compromising, stubborn, or argumentative)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compromising_accepts_everything() {
        for round in 1..4 {
            for touches in [false, true] {
                assert_eq!(
                    NegotiationPolicy::Compromising.answer(round, touches),
                    NegotiationAnswer::Accept
                );
            }
        }
    }

    #[test]
    fn stubborn_defends_its_own_viewpoint_only() {
        assert_eq!(
            NegotiationPolicy::Stubborn.answer(1, true),
            NegotiationAnswer::Reject
        );
        assert_eq!(
            NegotiationPolicy::Stubborn.answer(1, false),
            NegotiationAnswer::Accept
        );
    }

    #[test]
    fn argumentative_counters_then_settles() {
        assert_eq!(
            NegotiationPolicy::Argumentative.answer(1, false),
            NegotiationAnswer::Counter
        );
        assert_eq!(
            NegotiationPolicy::Argumentative.answer(2, true),
            NegotiationAnswer::Accept
        );
    }

    #[test]
    fn names_round_trip_through_fromstr() {
        for policy in NegotiationPolicy::ALL {
            assert_eq!(policy.name().parse::<NegotiationPolicy>(), Ok(policy));
        }
        assert!("pushover".parse::<NegotiationPolicy>().is_err());
    }

    #[test]
    fn default_team_cycles_all_archetypes() {
        let team = NegotiationPolicy::default_team(3);
        assert_eq!(
            team,
            vec![
                NegotiationPolicy::Compromising,
                NegotiationPolicy::Argumentative,
                NegotiationPolicy::Stubborn,
            ]
        );
        assert_eq!(
            NegotiationPolicy::default_team(4)[3],
            NegotiationPolicy::Compromising
        );
    }
}
