//! The one claim-order worker pool: the shard simulation
//! ([`crate::driver`]) and the analysis passes ([`crate::experiments`])
//! both run on it.
//!
//! Workers claim job indices from one atomic cursor, so which worker runs
//! which job is racy, but every job returns its result by value and the
//! caller gets the results back in index order: neither the worker count
//! nor the scheduling can reach the output. The calling thread is worker
//! 0, so a one-worker pool spawns no thread at all.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// The workers a pool asked for `requested` runs `jobs` jobs on: never
/// more than there are jobs, never fewer than one.
pub(crate) fn worker_count(jobs: usize, requested: usize) -> usize {
    requested.min(jobs).max(1)
}

/// Runs `job(i)` for every `i` in `0..jobs` on
/// [`worker_count`]`(jobs, requested)` workers, the calling thread
/// among them, and returns the results in index order. A panicking job's
/// own payload is resumed on the caller once every worker has stopped.
pub(crate) fn run_indexed<T: Send>(
    jobs: usize,
    requested: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    // Relaxed: the cursor only hands out distinct indices; the results
    // reach the caller through the joins.
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                return done;
            }
            done.push((i, job(i)));
        }
    };
    let mut done = thread::scope(|s| {
        let spawned: Vec<_> = (1..worker_count(jobs, requested))
            .map(|_| s.spawn(claim))
            .collect();
        let mut done = claim();
        for worker in spawned {
            match worker.join() {
                Ok(theirs) => done.extend(theirs),
                Err(payload) => resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    #[test]
    fn every_index_runs_once_in_index_order_and_the_caller_is_worker_0() {
        let caller = thread::current().id();
        for (jobs, requested) in [(20, 1), (20, 2), (20, 8), (3, 64)] {
            let workers = worker_count(jobs, requested);
            // Each worker's first job waits until every worker has claimed
            // one, so every worker runs a job.
            let all_claimed = Barrier::new(workers);
            let out = run_indexed(jobs, requested, |i| {
                if i < workers {
                    all_claimed.wait();
                }
                (i, thread::current().id())
            });
            let what = format!("jobs={jobs} requested={requested}");
            assert!(out.iter().map(|&(i, _)| i).eq(0..jobs), "{what}: {out:?}");
            let threads: HashSet<_> = out.iter().map(|&(_, id)| id).collect();
            assert_eq!(threads.len(), workers, "{what}");
            // At one worker this is every job on the calling thread.
            assert!(threads.contains(&caller), "{what}");
        }
        assert_eq!(worker_count(0, 0), 1);
    }

    #[test]
    fn a_panicking_job_resumes_its_own_payload_on_the_caller() {
        #[derive(Debug)]
        struct Payload(usize);

        // One worker: job 9 panics on the calling thread itself.
        let caught = catch_unwind(|| {
            run_indexed(16, 1, |i| {
                if i == 9 {
                    panic_any(Payload(i))
                }
            })
        })
        .expect_err("job 9 panics");
        assert!(matches!(caught.downcast_ref::<Payload>(), Some(Payload(9))));

        // Four workers: only jobs on spawned workers panic, and the
        // caller's jobs wait until one has, so the payload must cross a
        // join to reach the caller.
        let caller = thread::current().id();
        let spawned_panicked = AtomicBool::new(false);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_indexed(16, 4, |i| {
                if thread::current().id() != caller {
                    spawned_panicked.store(true, Ordering::Release);
                    panic_any(Payload(i));
                }
                while !spawned_panicked.load(Ordering::Acquire) {
                    thread::yield_now();
                }
            })
        }))
        .expect_err("a spawned worker's job panics");
        assert!(caught.downcast_ref::<Payload>().is_some());
    }
}
