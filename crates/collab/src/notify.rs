//! Bounded per-designer inboxes — the delivery half of the paper's
//! Notification Manager.
//!
//! The DPM's Notification Manager decides which events concern which
//! designer (see [`InterestSet`](adpm_core::InterestSet)); this module
//! turns that into real asynchronous delivery: each subscription owns a
//! bounded [`Inbox`] and receives every event routed to its designer. When
//! an inbox is full the incoming event is counted as dropped — overflow is
//! accounted, never silent.

use adpm_core::Event;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::Waker;

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
    /// The routed event, shared with the session's redelivery log and
    /// every other inbox of the same designer.
    pub event: Arc<Event>,
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
            event: Arc::new(Event::ProblemSolved {
                problem: ProblemId::new(0),
            }),
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
}
