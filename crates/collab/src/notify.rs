//! Interest sets and bounded per-designer inboxes — the delivery half of
//! the paper's Notification Manager.
//!
//! The in-process [`NotificationManager`](adpm_core::NotificationManager)
//! decides *which designers are affected* by an operation's events; this
//! module turns that into real asynchronous delivery: each subscriber owns
//! a bounded [`Inbox`] and receives only the events matching its
//! [`InterestSet`], which is derived from constraint connectivity (the
//! properties of the designer's problems, the constraints touching them,
//! and the one-hop neighbourhood those constraints connect). When an inbox
//! is full the incoming event is counted as dropped — overflow is
//! accounted, never silent.

use adpm_constraint::{ConstraintId, ConstraintNetwork, PropertyId};
use adpm_core::{DesignProcessManager, DesignerId, Event};
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::Waker;

/// The properties and constraints a subscriber cares about.
///
/// An event matches when it names an interesting property or constraint
/// (see [`InterestSet::matches`]); the `all` variant matches everything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterestSet {
    properties: BTreeSet<PropertyId>,
    constraints: BTreeSet<ConstraintId>,
    all: bool,
}

impl InterestSet {
    /// An interest set matching every event (a firehose subscription).
    pub fn everything() -> Self {
        InterestSet {
            properties: BTreeSet::new(),
            constraints: BTreeSet::new(),
            all: true,
        }
    }

    /// An explicit interest set over the given properties and constraints.
    pub fn new(
        properties: impl IntoIterator<Item = PropertyId>,
        constraints: impl IntoIterator<Item = ConstraintId>,
    ) -> Self {
        InterestSet {
            properties: properties.into_iter().collect(),
            constraints: constraints.into_iter().collect(),
            all: false,
        }
    }

    /// Derives the designer's interest set from constraint connectivity,
    /// the paper's "affected designers" rule: the inputs and outputs of the
    /// designer's assigned problems, every constraint touching one of those
    /// properties, and the full argument set of those constraints (the
    /// one-hop neighbourhood through which other designers' changes reach
    /// this one).
    pub fn for_designer(dpm: &DesignProcessManager, designer: DesignerId) -> Self {
        let network = dpm.network();
        let mut properties: BTreeSet<PropertyId> = BTreeSet::new();
        for problem in dpm.problems().assigned_to(designer) {
            let p = dpm.problems().problem(problem);
            properties.extend(p.inputs().iter().copied());
            properties.extend(p.outputs().iter().copied());
        }
        let mut constraints: BTreeSet<ConstraintId> = BTreeSet::new();
        for pid in &properties {
            constraints.extend(network.constraints_of(*pid).iter().copied());
        }
        let mut neighbourhood = properties.clone();
        for cid in &constraints {
            neighbourhood.extend(network.constraint(*cid).argument_slice().iter().copied());
        }
        InterestSet {
            properties: neighbourhood,
            constraints,
            all: false,
        }
    }

    /// Whether the set is the match-everything firehose.
    pub fn is_everything(&self) -> bool {
        self.all
    }

    /// Number of interesting properties (0 for the firehose).
    pub fn property_count(&self) -> usize {
        self.properties.len()
    }

    /// Number of interesting constraints (0 for the firehose).
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
    }

    /// Whether `event` is relevant to this subscriber. Violation events
    /// match through the constraint or any of its argument properties,
    /// feasibility events through their property; `ProblemSolved` is a
    /// coordination milestone and always delivered.
    pub fn matches(&self, event: &Event, network: &ConstraintNetwork) -> bool {
        if self.all {
            return true;
        }
        match event {
            Event::ViolationDetected {
                constraint,
                properties,
            } => {
                self.constraints.contains(constraint)
                    || properties.iter().any(|p| self.properties.contains(p))
            }
            Event::ViolationResolved { constraint } => {
                self.constraints.contains(constraint)
                    || network
                        .constraint(*constraint)
                        .argument_slice()
                        .iter()
                        .any(|p| self.properties.contains(p))
            }
            Event::FeasibleReduced { property, .. } | Event::FeasibleEmptied { property } => {
                self.properties.contains(property)
            }
            Event::ProblemSolved { .. } => true,
            // Negotiation events match through the seed conflict, exactly
            // like a violation on it would.
            Event::NegotiationProposed { constraint, .. }
            | Event::NegotiationAnswered { constraint, .. }
            | Event::NegotiationClosed { constraint, .. } => {
                self.constraints.contains(constraint)
                    || network
                        .constraint(*constraint)
                        .argument_slice()
                        .iter()
                        .any(|p| self.properties.contains(p))
            }
        }
    }
}

/// One delivered event, tagged with the sequence number of the operation
/// that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct InboxEntry {
    /// Sequence number (design-history position) of the producing operation.
    pub seq: u64,
    /// Per-designer monotonic delivery index (1-based): the position of
    /// this event in everything ever routed to this subscriber's designer.
    /// A resuming subscriber names the last `idx` it saw and the session
    /// redelivers only what came after.
    pub idx: u64,
    /// The routed event.
    pub event: Event,
}

#[derive(Debug)]
struct InboxState {
    queue: VecDeque<InboxEntry>,
    closed: bool,
    /// The consumer's wake-up hook; see [`Inbox::set_waker`].
    waker: Option<Waker>,
}

#[derive(Debug)]
struct InboxShared {
    state: Mutex<InboxState>,
    capacity: usize,
    dropped: AtomicU64,
}

/// A bounded, thread-safe event inbox shared between the session's router
/// (producer) and one subscriber (consumer).
///
/// `push` never blocks: when the queue is at capacity the *incoming* event
/// is dropped and counted, so a stalled subscriber slows nobody down but
/// can still see (via [`dropped`](Inbox::dropped)) that it missed events.
#[derive(Debug, Clone)]
pub struct Inbox {
    shared: Arc<InboxShared>,
}

impl Inbox {
    /// Creates an inbox holding at most `capacity` undelivered events
    /// (minimum 1).
    pub fn bounded(capacity: usize) -> Self {
        Inbox {
            shared: Arc::new(InboxShared {
                state: Mutex::new(InboxState {
                    queue: VecDeque::new(),
                    closed: false,
                    waker: None,
                }),
                capacity: capacity.max(1),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, InboxState> {
        // A consumer panicking mid-drain leaves the queue intact, so the
        // poisoned lock is still safe to use (same recovery as JsonlSink).
        self.shared
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Delivers one entry. Returns `true` if it was queued, `false` if it
    /// was dropped (inbox full or closed); drops are counted either way.
    pub fn push(&self, entry: InboxEntry) -> bool {
        let mut state = self.lock();
        if state.closed || state.queue.len() >= self.shared.capacity {
            drop(state);
            self.shared.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        state.queue.push_back(entry);
        let waker = state.waker.clone();
        drop(state);
        if let Some(waker) = waker {
            waker.wake();
        }
        true
    }

    /// Registers the consumer's wake-up hook. Every accepted
    /// [`push`](Inbox::push) wakes it after releasing the inbox lock, so the
    /// hook may take the consumer's locks; [`close`](Inbox::close) does not.
    pub fn set_waker(&self, waker: Waker) {
        self.lock().waker = Some(waker);
    }

    /// Takes every queued entry without blocking.
    pub fn drain(&self) -> Vec<InboxEntry> {
        self.lock().queue.drain(..).collect()
    }

    /// Number of entries currently queued.
    pub fn len(&self) -> usize {
        self.lock().queue.len()
    }

    /// Whether no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped because the inbox was full or closed.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Closes the inbox: future pushes are dropped (and counted). Queued
    /// entries stay drainable.
    pub fn close(&self) {
        self.lock().closed = true;
    }

    /// Whether [`close`](Inbox::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adpm_core::ProblemId;

    fn entry(seq: u64) -> InboxEntry {
        InboxEntry {
            seq,
            idx: seq,
            event: Event::ProblemSolved {
                problem: ProblemId::new(0),
            },
        }
    }

    #[test]
    fn push_drain_round_trips_in_order() {
        let inbox = Inbox::bounded(8);
        assert!(inbox.is_empty());
        assert!(inbox.push(entry(1)));
        assert!(inbox.push(entry(2)));
        assert_eq!(inbox.len(), 2);
        let drained = inbox.drain();
        assert_eq!(drained.iter().map(|e| e.seq).collect::<Vec<_>>(), [1, 2]);
        assert!(inbox.is_empty());
        assert_eq!(inbox.dropped(), 0);
    }

    #[test]
    fn overflow_drops_the_incoming_event_and_counts_it() {
        let inbox = Inbox::bounded(2);
        assert!(inbox.push(entry(1)));
        assert!(inbox.push(entry(2)));
        assert!(!inbox.push(entry(3)));
        assert!(!inbox.push(entry(4)));
        assert_eq!(inbox.dropped(), 2);
        // The oldest events are the ones kept (drop-newest policy).
        assert_eq!(
            inbox.drain().iter().map(|e| e.seq).collect::<Vec<_>>(),
            [1, 2]
        );
        // Room again after the drain.
        assert!(inbox.push(entry(5)));
    }

    #[test]
    fn close_rejects_pushes_and_keeps_queued_entries() {
        let inbox = Inbox::bounded(4);
        assert!(inbox.push(entry(1)));
        inbox.close();
        assert!(inbox.is_closed());
        assert!(!inbox.push(entry(2)));
        assert_eq!(inbox.dropped(), 1);
        assert_eq!(inbox.drain().iter().map(|e| e.seq).collect::<Vec<_>>(), [1]);
    }

    #[test]
    fn every_accepted_push_wakes_the_waker_and_close_does_not() {
        use std::sync::atomic::AtomicUsize;
        use std::task::Wake;

        struct Count(AtomicUsize);
        impl Wake for Count {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let wakes = Arc::new(Count(AtomicUsize::new(0)));
        let inbox = Inbox::bounded(2);
        inbox.set_waker(Waker::from(wakes.clone()));
        assert!(inbox.push(entry(1)));
        assert!(inbox.push(entry(2)));
        assert!(!inbox.push(entry(3)), "full: dropped, no wake");
        inbox.close();
        assert!(!inbox.push(entry(4)), "closed: dropped, no wake");
        assert_eq!(wakes.0.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn explicit_interest_set_matches_by_property_and_constraint() {
        use adpm_constraint::{
            expr::{cst, var},
            ConstraintNetwork, Domain, Property, Relation,
        };
        let mut net = ConstraintNetwork::new();
        let x = net
            .add_property(Property::new("x", "a", Domain::interval(0.0, 1.0)))
            .unwrap();
        let y = net
            .add_property(Property::new("y", "b", Domain::interval(0.0, 1.0)))
            .unwrap();
        let c = net
            .add_constraint("cap", var(x) + var(y), Relation::Le, cst(1.0))
            .unwrap();
        let on_x = InterestSet::new([x], []);
        assert!(on_x.matches(
            &Event::FeasibleReduced {
                property: x,
                relative_size: 0.5
            },
            &net
        ));
        assert!(!on_x.matches(&Event::FeasibleEmptied { property: y }, &net));
        // Violation reaches x's subscriber through the argument list even
        // though the constraint itself is not in the set.
        assert!(on_x.matches(&Event::ViolationResolved { constraint: c }, &net));
        assert!(on_x.matches(
            &Event::ViolationDetected {
                constraint: c,
                properties: vec![x, y]
            },
            &net
        ));
        let on_c = InterestSet::new([], [c]);
        assert!(on_c.matches(&Event::ViolationResolved { constraint: c }, &net));
        assert!(!on_c.matches(&Event::FeasibleEmptied { property: y }, &net));
        assert!(InterestSet::everything().matches(&Event::FeasibleEmptied { property: y }, &net));
    }
}
