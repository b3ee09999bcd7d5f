//! Poison-tolerant lock primitives for the serve stack, and the session
//! outbox built on them.
//!
//! Every mutex in the serve path is shared across session threads (reader
//! and writer) and scheduler workers, which push framed job lines straight
//! into the outboxes of subscribed sessions. The std poisoning protocol
//! turns one panic while holding a lock into a cascade: every later
//! `lock().unwrap()` on the same mutex panics too, and a
//! `Condvar::wait(..).unwrap()` panics the *blocked* thread — which for the
//! session outbox means the writer dies with lines still queued and every
//! worker streaming into it panics on its next push.
//!
//! None of the serve-side critical sections require poisoning for
//! correctness: they maintain their invariants before blocking or
//! returning (queues are push/pop consistent at every await point, counter
//! updates are single-field), so the data behind a poisoned lock is still
//! well-formed. These helpers therefore *clear* the poison and hand back
//! the guard, converting "one panicking session thread wedges the server"
//! into "the panicking thread tears down its own session and everything
//! else keeps serving" — the behavior the chaos suite pins.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Locks, recovering the guard if a previous holder panicked.
pub(crate) fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Waits on a condvar, recovering the guard if the mutex was poisoned
/// while this thread was parked.
pub(crate) fn wait_recover<'a, T>(
    condvar: &Condvar,
    guard: MutexGuard<'a, T>,
) -> MutexGuard<'a, T> {
    condvar
        .wait(guard)
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One session's response queue: the session reader and every job the
/// session subscribes to push, the session writer pops. It is a leaf lock:
/// pushers may hold a job lock (lock order job → outbox), and nothing is
/// locked while holding it.
#[derive(Debug, Default)]
pub(crate) struct Outbox {
    state: Mutex<OutboxState>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct OutboxState {
    lines: VecDeque<String>,
    closed: bool,
}

impl Outbox {
    /// Queues one line; `false` once the outbox is closed (session torn
    /// down or writer dead), which pushers treat as "unsubscribe".
    pub(crate) fn push(&self, line: String) -> bool {
        let mut state = lock_recover(&self.state);
        if state.closed {
            return false;
        }
        state.lines.push_back(line);
        self.ready.notify_one();
        true
    }

    /// Seals the outbox: pushes fail from now on, and [`Outbox::pop`]
    /// drains what is queued, then returns `None`.
    pub(crate) fn close(&self) {
        lock_recover(&self.state).closed = true;
        self.ready.notify_all();
    }

    /// Whether [`Outbox::close`] has been called.
    pub(crate) fn is_closed(&self) -> bool {
        lock_recover(&self.state).closed
    }

    /// Blocks for the next line; `None` once the outbox is closed and empty.
    pub(crate) fn pop(&self) -> Option<String> {
        let mut state = lock_recover(&self.state);
        loop {
            if let Some(line) = state.lines.pop_front() {
                return Some(line);
            }
            if state.closed {
                return None;
            }
            state = wait_recover(&self.ready, state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn lock_recover_survives_a_poisoning_panic() {
        let shared = Arc::new(Mutex::new(7usize));
        let poisoner = Arc::clone(&shared);
        std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison the lock");
        })
        .join()
        .unwrap_err();
        assert!(shared.is_poisoned(), "setup must actually poison");
        assert_eq!(*lock_recover(&shared), 7);
    }

    /// The wedge class the poison-tolerant outbox closes: a session thread
    /// that panics while holding the outbox lock used to poison it, after
    /// which every `push` panicked in turn and the writer died inside
    /// `Condvar::wait` — lines queued forever, session threads leaked. Now
    /// the remaining threads recover the guard and drain normally.
    #[test]
    fn outbox_survives_a_poisoning_session_thread() {
        let outbox = Arc::new(Outbox::default());
        outbox.push("before".to_string());

        let poisoner = Arc::clone(&outbox);
        std::thread::spawn(move || {
            let _guard = poisoner.state.lock().unwrap();
            panic!("pusher dies mid-push");
        })
        .join()
        .unwrap_err();
        assert!(outbox.state.is_poisoned(), "setup must actually poison");

        // Pushes keep landing, the blocked pop drains them, and sealing
        // still unblocks the writer loop.
        assert!(outbox.push("after".to_string()));
        assert_eq!(outbox.pop().as_deref(), Some("before"));
        assert_eq!(outbox.pop().as_deref(), Some("after"));
        let drainer = Arc::clone(&outbox);
        let writer = std::thread::spawn(move || drainer.pop());
        std::thread::sleep(Duration::from_millis(20));
        outbox.close();
        assert_eq!(writer.join().unwrap(), None);
        assert!(!outbox.push("sealed".to_string()));
    }
}
