//! Worker progress reports — what a waiter on the runtime wakes on.
//!
//! A [`SpadeService`](crate::service::SpadeService) worker reports two
//! kinds of [`Progress`] to its [`Notifier`]: a reply it sent (after
//! `Barrier` / `Region`), and queue room freed
//! (after it dequeues edges, or a producer hands back room it reserved
//! but did not use, once half the queue is free). A read-your-acks wait
//! is a reply wait: a barrier queued behind the acknowledged edges
//! answers once they are applied and published. A waiter subscribes a
//! hook and sleeps until a report that can answer it arrives, instead of
//! re-checking on a tick: an event loop's hook writes a byte to its wake
//! pipe, a blocking submit waits on a channel. The shards of one sharded
//! runtime share one notifier.
//!
//! A waiter subscribes first and checks second, so a report that lands
//! between its check and its sleep is never lost. With no subscriber a
//! report costs one atomic load.
//!
//! Hooks run on the reporting thread under the notifier's lock, so they
//! must be short and must not block or take other locks: flip an atomic,
//! write a byte, send without waiting.

use crossbeam::channel::bounded;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Longest a blocked submit waits for a room report before it offers
/// again: only a worker that died mid-wait (and so reports nothing more)
/// is noticed this late.
const DEAD_WORKER_BOUND: Duration = Duration::from_millis(50);

/// One progress report of a service worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Progress {
    /// The worker sent a reply (`Barrier`, `Region`).
    Replied,
    /// Queue room was freed (edges dequeued or handed back), and at least
    /// half the queue (in edges) is free.
    Room,
}

type Hook = Box<dyn Fn(Progress) + Send + Sync>;

/// The subscriber list the workers of one runtime report into.
#[derive(Default)]
pub struct Notifier {
    /// Live subscriptions: the one load a report pays with none.
    subscribers: AtomicUsize,
    next_id: AtomicU64,
    hooks: RwLock<Vec<(u64, Hook)>>,
}

impl Notifier {
    /// Calls `hook` with every report from now on, until the returned
    /// [`Subscription`] drops. Check what you wait for *after* this
    /// returns: a report that lands first was already seen by that check.
    pub fn subscribe(
        self: &Arc<Self>,
        hook: impl Fn(Progress) + Send + Sync + 'static,
    ) -> Subscription {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        self.hooks.write().push((id, Box::new(hook)));
        self.subscribers.fetch_add(1, Ordering::SeqCst);
        Subscription { notifier: Arc::clone(self), id }
    }

    /// `true` while a hook is subscribed — the one load a report costs
    /// without one.
    pub(crate) fn subscribed(&self) -> bool {
        self.subscribers.load(Ordering::SeqCst) > 0
    }

    /// Hands `progress` to every subscribed hook.
    pub(crate) fn report(&self, progress: Progress) {
        if !self.subscribed() {
            return;
        }
        for (_, hook) in self.hooks.read().iter() {
            hook(progress);
        }
    }
}

/// The blocking half of edge-bounded admission: calls `offer` (`Some`:
/// is every edge enqueued; `None`: shut down) until it is done, waiting
/// between short offers for `progress` to report freed room. The first
/// short offer subscribes, then offers again at once.
pub(crate) fn offer_until_enqueued(
    progress: &Arc<Notifier>,
    mut offer: impl FnMut() -> Option<bool>,
) -> bool {
    let mut room = None;
    loop {
        let Some(enqueued) = offer() else { return false };
        if enqueued {
            return true;
        }
        match &room {
            None => {
                let (freed, wait) = bounded(1);
                let subscription = progress.subscribe(move |p| {
                    if p == Progress::Room {
                        let _ = freed.try_send(());
                    }
                });
                room = Some((subscription, wait));
            }
            // A worker that died mid-wait reports nothing more; the bound
            // lets the next offer see it closed.
            Some((_, wait)) => {
                let _ = wait.recv_timeout(DEAD_WORKER_BOUND);
            }
        }
    }
}

/// A subscribed hook; dropping it unsubscribes (and drops the hook, so
/// whatever the hook holds is released). A report in flight on a worker
/// finishes before the drop returns.
#[must_use = "dropping a subscription unsubscribes its hook"]
pub struct Subscription {
    notifier: Arc<Notifier>,
    id: u64,
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.notifier.subscribers.fetch_sub(1, Ordering::SeqCst);
        let hook = {
            let mut hooks = self.notifier.hooks.write();
            let at = hooks.iter().position(|(id, _)| *id == self.id);
            at.map(|at| hooks.swap_remove(at))
        };
        // Dropped outside the lock: a hook may own anything.
        drop(hook);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    #[test]
    fn reports_reach_live_subscribers_only() {
        let notifier = Arc::new(Notifier::default());
        notifier.report(Progress::Room); // nobody listens: a no-op
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let sub = notifier.subscribe(move |p| sink.lock().push(p));
        notifier.report(Progress::Room);
        notifier.report(Progress::Replied);
        drop(sub);
        notifier.report(Progress::Room);
        assert_eq!(*seen.lock(), [Progress::Room, Progress::Replied]);
        // The hook (and its clone of `seen`) went with the subscription.
        assert_eq!(Arc::strong_count(&seen), 1);
    }
}
