//! The one thread helper: independent jobs on scoped workers, results
//! handed to the calling thread in job order.
//!
//! Fleet threads are a `std::thread::scope` at the loop that needs them —
//! a resident store's channels ([`crate::ResidentFleet::replay`]), a fleet
//! run's nodes (`fleet::run_channels`), a recorded run's channels replayed
//! from their own stream state (`pmss-stream`'s `TraceReplay`, the one
//! caller outside this crate).  There are [`workers`] of them,
//! nothing sets the count, and one code path runs at any count: with one
//! worker the calling thread runs every job itself.  No production loop
//! runs inside another's job; [`scoped_map`] exists so that a test can run
//! a whole render as the lone job of a two-worker scope, where
//! [`workers`] is 1.
//! Because results reach the caller in job order, whatever is done with
//! them there (a merge, a metric tally) is the same sequence of operations
//! at any worker count, and output is byte-identical.

use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

thread_local! {
    /// Set while this thread runs a job of a scope with more than one
    /// worker.
    static IN_SHARED_JOB: Cell<bool> = const { Cell::new(false) };
}

/// The worker count every threaded loop uses: `available_parallelism`,
/// which honours CPU affinity (`taskset -c 0` gives one), or 1 when it is
/// unknown — and 1 inside a job of a scope with more than one worker,
/// whose sibling jobs already hold the cores.  No production loop nests,
/// so that rule is the tests' one-worker hook: `scoped_map(2, 1, ..)`
/// runs its lone job at one worker.
pub fn workers() -> usize {
    if IN_SHARED_JOB.get() {
        return 1;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(0..n).map(job)` on `workers` real threads: `scoped_sink` collecting
/// into a `Vec`, so results come back in index order whatever order the
/// jobs finished in.  A job's panic is re-raised on the caller.
pub fn scoped_map<T, F>(workers: usize, n: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out = Vec::with_capacity(n);
    scoped_sink(
        vec![(); workers.max(1)],
        2,
        n,
        |_, i| job(i),
        |_, t| {
            out.push(t);
            ControlFlow::Continue(())
        },
    );
    out
}

/// `Continue` on `Ok`; on `Err`, `Break` with the error kept in `failed`:
/// a fallible sink that ends its run at the first error.
pub(crate) fn until_err<E>(r: Result<(), E>, failed: &mut Option<E>) -> ControlFlow<()> {
    match r {
        Ok(()) => ControlFlow::Continue(()),
        Err(e) => {
            *failed = Some(e);
            ControlFlow::Break(())
        }
    }
}

/// What the workers and the caller share: the claim counter and the
/// results claimed but not yet sunk, front = the next index to sink.
struct Hand<T> {
    claimed: usize,
    sunk: usize,
    pending: VecDeque<Option<T>>,
    /// A job's or the sink's panic; set, it stops every worker.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// Runs `job(state, i)` for every `i` in `0..n` on one worker per entry of
/// `states` — the calling thread and `states.len() - 1` scoped threads,
/// each owning its state (which the caller allocated) — and hands every
/// result to `sink(i, result)` on the calling thread in index order.
///
/// The hand-off is bounded: at most `ahead` results per worker are
/// claimed and not yet sunk, so a worker that runs ahead of the sink waits
/// instead of piling results up.  Two lets a worker start its next job
/// while the caller is still busy with an earlier one; one bounds the
/// live results to one per worker, for jobs whose results are large.
/// The caller sinks whatever is ready between its own jobs, and waits for
/// the next result when it may not claim.  A sink that breaks ends the
/// run: nothing is claimed or sunk after it.  A panic in a job or in the
/// sink stops the workers and is re-raised on the caller once they have
/// all returned.
pub fn scoped_sink<S, T, F, K>(mut states: Vec<S>, ahead: usize, n: usize, job: F, mut sink: K)
where
    S: Send,
    T: Send,
    F: Fn(&mut S, usize) -> T + Sync,
    K: FnMut(usize, T) -> ControlFlow<()>,
{
    assert!(!states.is_empty(), "scoped_sink needs one worker state");
    assert!(ahead > 0, "scoped_sink needs room for a result per worker");
    let window = ahead * states.len();
    let shared = states.len() > 1;
    let hand = Mutex::new(Hand {
        claimed: 0,
        sunk: 0,
        pending: VecDeque::with_capacity(window),
        panic: None,
    });
    let wake = Condvar::new();
    // Jobs and the sink run outside the lock, and no update under it can
    // stop half-way, so a poisoned lock still guards valid state.
    let lock = || hand.lock().unwrap_or_else(PoisonError::into_inner);
    let wait = |h| wake.wait(h).unwrap_or_else(PoisonError::into_inner);
    // Claims the next index, if any is left and the window has room.
    let claim = |h: &mut MutexGuard<'_, Hand<T>>| {
        (h.panic.is_none() && h.claimed < n && h.claimed - h.sunk < window).then(|| {
            h.claimed += 1;
            h.pending.push_back(None);
            h.claimed - 1
        })
    };
    // Runs job `i`, then files its result (or its panic) for the caller.
    let run = |state: &mut S, i: usize| {
        let outer = IN_SHARED_JOB.get();
        IN_SHARED_JOB.set(outer || shared);
        let out = panic::catch_unwind(AssertUnwindSafe(|| job(state, i)));
        IN_SHARED_JOB.set(outer);
        let mut h = lock();
        match out {
            Ok(t) => {
                let at = i - h.sunk;
                h.pending[at] = Some(t);
            }
            Err(p) => {
                h.panic.get_or_insert(p);
            }
        }
        wake.notify_all();
    };
    let first = states.remove(0);
    std::thread::scope(|s| {
        let spawned: Vec<_> = (states.into_iter().take(n.saturating_sub(1)))
            .map(|mut state| {
                s.spawn(move || loop {
                    let mut h = lock();
                    let i = loop {
                        match claim(&mut h) {
                            Some(i) => break i,
                            None if h.panic.is_some() || h.claimed >= n => return,
                            None => h = wait(h),
                        }
                    };
                    drop(h);
                    run(&mut state, i);
                })
            })
            .collect();
        let mut state = first;
        let caller = panic::catch_unwind(AssertUnwindSafe(|| loop {
            let mut h = lock();
            if h.panic.is_some() || h.sunk == n {
                return;
            }
            if let Some(t) = h.pending.front_mut().and_then(Option::take) {
                h.pending.pop_front();
                let i = h.sunk;
                h.sunk += 1;
                drop(h);
                wake.notify_all();
                if sink(i, t).is_break() {
                    // Every index counts as claimed: the workers finish the
                    // jobs they hold and return.
                    lock().claimed = n;
                    wake.notify_all();
                    return;
                }
            } else if let Some(i) = claim(&mut h) {
                drop(h);
                run(&mut state, i);
            } else {
                drop(wait(h));
            }
        }));
        if let Err(p) = caller {
            lock().panic.get_or_insert(p);
            wake.notify_all();
        }
        // Joined by hand, not left to the scope: a joined thread has
        // exited, so none outlives the call, even briefly.
        for handle in spawned {
            if let Err(p) = handle.join() {
                lock().panic.get_or_insert(p);
            }
        }
    });
    if let Some(p) = hand
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .panic
    {
        panic::resume_unwind(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Jobs that finish out of index order (the early indices sleep
    /// longest) still come back in index order, each having run once.
    #[test]
    fn scoped_map_runs_every_index_once_and_returns_them_in_order() {
        use std::time::Duration;
        for workers in [1, 2, 3, 8] {
            for n in [0, 1, 5, 10] {
                let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let out = scoped_map(workers, n, |i| {
                    std::thread::sleep(Duration::from_millis(((n - i) % 4) as u64 * 3));
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    (i * i, std::thread::current().id())
                });
                let squares: Vec<usize> = out.iter().map(|&(sq, _)| sq).collect();
                assert_eq!(squares, (0..n).map(|i| i * i).collect::<Vec<_>>());
                assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
                // Never more threads than workers or jobs; one worker is
                // the caller alone.
                let threads: std::collections::HashSet<_> = out.iter().map(|&(_, id)| id).collect();
                assert!(
                    threads.len() <= workers.min(n),
                    "{workers} workers, {n} jobs"
                );
                if workers == 1 {
                    assert!(threads.iter().all(|&id| id == std::thread::current().id()));
                }
            }
        }
    }

    /// A job sharing the machine with sibling jobs sees one worker, so a
    /// threaded loop inside it does not spread again; a scope of one
    /// worker leaves the count alone, and so does the end of the scope.
    #[test]
    fn jobs_of_a_shared_scope_see_one_worker() {
        let all = workers();
        assert_eq!(scoped_map(2, 4, |_| workers()), [1; 4]);
        assert_eq!(scoped_map(1, 2, |_| workers()), [all; 2]);
        let nested = scoped_map(2, 2, |_| scoped_map(1, 1, |_| workers())[0]);
        assert_eq!(nested, [1; 2]);
        assert_eq!(workers(), all);
    }

    /// Real threads, not a facade: two jobs that each wait for the other
    /// can only finish when two workers run them at once.
    #[test]
    fn scoped_map_runs_jobs_concurrently() {
        let barrier = std::sync::Barrier::new(2);
        let out = scoped_map(2, 2, |i| {
            barrier.wait();
            i
        });
        assert_eq!(out, [0, 1]);
    }

    #[test]
    fn scoped_map_reraises_a_job_panic_on_the_caller() {
        for workers in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                scoped_map(workers, 6, |i| {
                    if i == 3 {
                        panic!("job {i} failed");
                    }
                    i
                })
            });
            let payload = caught.expect_err("the panic crosses the scope");
            // The job's own payload, not the scope's "a scoped thread
            // panicked".
            assert_eq!(payload.downcast_ref::<String>().unwrap(), "job 3 failed");
        }
    }

    /// The sink sees every index once, in order, on the calling thread,
    /// and never more than `ahead` results per worker are claimed but not
    /// yet sunk; each worker keeps the state the caller gave it.
    /// (`in_flight` drops inside the sink, just after the hand-off frees
    /// the slot, so it may read one over the window.)
    #[test]
    fn scoped_sink_hands_results_over_in_order_within_the_window() {
        for (workers, ahead) in [1, 2, 3, 8].into_iter().flat_map(|w| [(w, 1), (w, 2)]) {
            let in_flight = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let states: Vec<Vec<usize>> = (0..workers).map(|_| Vec::new()).collect();
            let mut seen = Vec::new();
            scoped_sink(
                states,
                ahead,
                40,
                |mine: &mut Vec<usize>, i| {
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    mine.push(i);
                    std::thread::sleep(std::time::Duration::from_micros((i % 5) as u64 * 300));
                    (i, mine.len())
                },
                |i, (j, _)| {
                    assert_eq!(i, j);
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                    seen.push((i, std::thread::current().id()));
                    ControlFlow::Continue(())
                },
            );
            let order: Vec<usize> = seen.iter().map(|&(i, _)| i).collect();
            assert_eq!(order, (0..40).collect::<Vec<_>>());
            let me = std::thread::current().id();
            assert!(seen.iter().all(|&(_, id)| id == me), "sunk on the caller");
            assert!(
                peak.load(Ordering::SeqCst) <= ahead * workers + 1,
                "{workers} workers, {ahead} ahead"
            );
        }
    }

    #[test]
    fn scoped_sink_reraises_a_sink_panic_after_the_workers_stop() {
        for workers in [1, 3] {
            let caught = std::panic::catch_unwind(|| {
                scoped_sink(
                    vec![(); workers],
                    2,
                    50,
                    |_, i| i,
                    |i, _| {
                        if i == 7 {
                            panic!("sink {i} failed");
                        }
                        ControlFlow::Continue(())
                    },
                )
            });
            let payload = caught.expect_err("the panic reaches the caller");
            assert_eq!(payload.downcast_ref::<String>().unwrap(), "sink 7 failed");
        }
    }

    /// A sink that breaks at index 7 sees nothing after it, and no index
    /// past the window the break leaves open is ever claimed: at most
    /// `ahead` per worker beyond the broken one.
    #[test]
    fn scoped_sink_claims_nothing_after_the_sink_breaks() {
        for (workers, ahead) in [1, 2, 3, 8].into_iter().flat_map(|w| [(w, 1), (w, 2)]) {
            let ran = Mutex::new(Vec::new());
            let mut seen = Vec::new();
            scoped_sink(
                vec![(); workers],
                ahead,
                100,
                |_, i| {
                    ran.lock().unwrap().push(i);
                    i
                },
                |i, _| {
                    seen.push(i);
                    if i == 7 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            assert_eq!(seen, (0..=7).collect::<Vec<_>>(), "{workers} workers");
            let last = ran.into_inner().unwrap().into_iter().max();
            assert!(
                last <= Some(7 + ahead * workers),
                "{workers} workers, {ahead} ahead: ran up to {last:?}"
            );
        }
    }
}
