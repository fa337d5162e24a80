//! Dense structure-of-arrays interval storage for propagation runs.
//!
//! Reading a variable through
//! [`ConstraintNetwork::effective_interval`](crate::ConstraintNetwork::effective_interval)
//! walks a property-state struct and matches on the
//! [`Domain`](crate::Domain) enum. Revisions instead read one flat pair of
//! `f64` arrays — lower bounds and upper bounds — indexed directly by the
//! dense `u32` of a [`PropertyId`], so the hot path's variable loads are two
//! array reads with no hashing, no enum dispatch, and no pointer chasing.
//!
//! The empty interval is stored as its canonical NaN bounds; reconstructing
//! through [`Interval::new`] (which normalizes NaN to
//! [`Interval::EMPTY`]) makes the round-trip exact for every interval the
//! propagator produces.

use crate::ids::PropertyId;
use crate::interval::Interval;

/// Flat interval store indexed by dense property ids (SoA layout: one
/// array of lower bounds, one of upper bounds). Each propagation run loads
/// one from the network's current box and keeps it in step with every
/// narrowing; explanations and conflict-set checks hold their own boxes in
/// one.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct IntervalArena {
    los: Vec<f64>,
    his: Vec<f64>,
}

impl IntervalArena {
    /// An arena for `len` properties, every slot initialized to
    /// [`Interval::UNIVERSE`].
    pub(crate) fn new(len: usize) -> Self {
        IntervalArena {
            los: vec![f64::NEG_INFINITY; len],
            his: vec![f64::INFINITY; len],
        }
    }

    /// The interval currently stored for `pid`.
    #[inline]
    pub(crate) fn get(&self, pid: PropertyId) -> Interval {
        let i = pid.index();
        Interval::new(self.los[i], self.his[i])
    }

    /// Stores `iv` for `pid` (the empty interval round-trips via its NaN
    /// bounds).
    #[inline]
    pub(crate) fn set(&mut self, pid: PropertyId, iv: Interval) {
        let i = pid.index();
        self.los[i] = iv.lo();
        self.his[i] = iv.hi();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PropertyId {
        PropertyId::new(i)
    }

    #[test]
    fn slots_start_at_universe() {
        let arena = IntervalArena::new(3);
        assert_eq!((arena.los.len(), arena.his.len()), (3, 3));
        assert_eq!(arena.get(p(2)), Interval::UNIVERSE);
    }

    #[test]
    fn set_get_round_trips_including_empty() {
        let mut arena = IntervalArena::new(2);
        arena.set(p(0), Interval::new(-1.5, 4.0));
        assert_eq!(arena.get(p(0)), Interval::new(-1.5, 4.0));
        arena.set(p(1), Interval::EMPTY);
        assert!(arena.get(p(1)).is_empty());
        // Other slots are untouched.
        assert_eq!(arena.get(p(0)), Interval::new(-1.5, 4.0));
    }

    #[test]
    fn clone_is_an_independent_snapshot() {
        let mut arena = IntervalArena::new(1);
        arena.set(p(0), Interval::singleton(7.0));
        let snapshot = arena.clone();
        arena.set(p(0), Interval::singleton(9.0));
        assert_eq!(snapshot.get(p(0)), Interval::singleton(7.0));
        assert_eq!(arena.get(p(0)), Interval::singleton(9.0));
    }
}
