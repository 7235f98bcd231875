//! Run scopes: the one recorder a protocol run owns.
//!
//! A run scope holds the run's census slots and whether the run keeps
//! its trace.  [`open`] installs a fresh scope on the calling thread, and
//! `secmed-pool` carries it into the workers it spawns ([`current`] on
//! the forking thread, [`within`] on each worker).  Every census bump the
//! run causes, on any of its threads, therefore lands in its own slots
//! and nowhere else: concurrent runs in one process never count each
//! other's operations, whatever the schedule.  Slots only ever grow by
//! addition, so the order in which workers bump them cannot matter.
//!
//! When the [`Run`] handle drops — on return, on an error path, or while
//! unwinding — the scope leaves the thread and adds its census to the
//! registry counters it was opened with, once.  The registry stays the
//! one process-wide aggregate: counts bumped outside any run plus the
//! census of every finished run.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::metrics::Counter;

/// Census slots per run: room for every counted primitive.
pub const SLOTS: usize = 32;

/// The state a run shares with its pool workers.
pub struct RunScope {
    census: [AtomicU64; SLOTS],
    keeps_spans: bool,
}

thread_local! {
    /// The run the current thread works for, if any.
    static CURRENT: RefCell<Option<Arc<RunScope>>> = const { RefCell::new(None) };
}

/// Adds one to census slot `slot` of the run installed on this thread.
/// Returns `false`, counting nothing, when the thread works for no run.
#[inline]
pub fn bump(slot: usize) -> bool {
    CURRENT.with(|current| match &*current.borrow() {
        Some(scope) => {
            scope.census[slot].fetch_add(1, Ordering::Relaxed);
            true
        }
        None => false,
    })
}

/// Whether spans and events opened on this thread are recorded: always
/// outside a run, and inside one only if the run keeps its trace.
pub fn keeps_spans() -> bool {
    CURRENT.with(|current| current.borrow().as_ref().is_none_or(|s| s.keeps_spans))
}

/// The run installed on this thread, to hand to a worker via [`within`].
pub fn current() -> Option<Arc<RunScope>> {
    CURRENT.with(|current| current.borrow().clone())
}

/// Runs `f` with `scope` installed on this thread, then reinstates
/// whatever was installed before (also when `f` unwinds).
pub fn within<T>(scope: Option<Arc<RunScope>>, f: impl FnOnce() -> T) -> T {
    let _installed = Installed::new(scope);
    f()
}

/// Opens a run on this thread: an empty census whose slot `i` is added
/// to `sinks[i]` when the returned handle drops, and a trace that is
/// recorded only if `keep_spans`.  A run opened inside another is a run
/// of its own: its counts never reach the outer census.
pub fn open(keep_spans: bool, sinks: &'static [Counter]) -> Run {
    let scope = Arc::new(RunScope {
        census: [const { AtomicU64::new(0) }; SLOTS],
        keeps_spans: keep_spans,
    });
    Run {
        _installed: Installed::new(Some(Arc::clone(&scope))),
        scope,
        sinks,
    }
}

/// An open run; dropping it closes the run and publishes its census.
pub struct Run {
    scope: Arc<RunScope>,
    sinks: &'static [Counter],
    _installed: Installed,
}

impl Run {
    /// The census so far, slot by slot.
    pub fn census(&self) -> [u64; SLOTS] {
        std::array::from_fn(|i| self.scope.census[i].load(Ordering::Relaxed))
    }
}

impl Drop for Run {
    fn drop(&mut self) {
        for (sink, n) in self.sinks.iter().zip(self.census()) {
            if n > 0 {
                sink.add(n);
            }
        }
    }
}

/// A scope installed on one thread; reinstates the previous one on drop.
struct Installed {
    previous: Option<Arc<RunScope>>,
}

impl Installed {
    fn new(scope: Option<Arc<RunScope>>) -> Self {
        Installed {
            previous: CURRENT.with(|current| current.replace(scope)),
        }
    }
}

impl Drop for Installed {
    fn drop(&mut self) {
        let previous = self.previous.take();
        CURRENT.with(|current| *current.borrow_mut() = previous);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::counter;

    fn sinks(prefix: &str) -> &'static [Counter] {
        let names = [format!("{prefix}.a"), format!("{prefix}.b")];
        Box::leak(Box::new(names.map(|n| counter(&n))))
    }

    #[test]
    fn bumps_land_in_the_run_and_reach_the_sinks_on_close() {
        let sinks = sinks("test.run.close");
        assert!(!bump(0), "no run installed");
        let run = open(true, sinks);
        assert!(bump(1) && bump(1) && bump(0));
        assert_eq!(run.census()[..2], [1, 2]);
        assert_eq!((sinks[0].get(), sinks[1].get()), (0, 0), "not before close");
        drop(run);
        assert_eq!((sinks[0].get(), sinks[1].get()), (1, 2));
        assert!(!bump(0), "closing uninstalls the run");
    }

    #[test]
    fn workers_within_a_run_count_into_it() {
        let run = open(true, sinks("test.run.workers"));
        let scope = current();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let scope = scope.clone();
                s.spawn(move || within(scope, || assert!(bump(0))));
            }
        });
        assert_eq!(run.census()[0], 4);
    }

    #[test]
    fn a_nested_run_is_its_own_and_restores_the_outer() {
        let outer = open(true, sinks("test.run.outer"));
        let inner = open(false, sinks("test.run.inner"));
        assert!(!keeps_spans());
        bump(0);
        drop(inner);
        assert!(keeps_spans());
        bump(1);
        assert_eq!(outer.census()[..2], [0, 1]);
    }

    #[test]
    fn an_unwinding_run_still_publishes() {
        let sinks = sinks("test.run.unwind");
        let unwound = std::panic::catch_unwind(|| {
            let _run = open(false, sinks);
            bump(0);
            panic!("run failed");
        });
        assert!(unwound.is_err());
        assert_eq!(sinks[0].get(), 1);
        assert!(keeps_spans() && !bump(0), "the thread is out of the run");
    }
}
