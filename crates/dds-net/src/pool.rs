//! The persistent worker pool behind the sharded round engine and the
//! bench scheduler.
//!
//! A fixed set of daemon workers joins each job, and one shared claim
//! counter schedules it: every participating thread (the submitter plus
//! each joined worker) takes the next unclaimed index until none is left.
//! Every task handed to the pool is coarse (one shard of a round region,
//! one table or sweep point), so "any idle thread takes the next task" is
//! the whole policy.
//!
//! # Determinism contract
//!
//! The pool guarantees only that every index in `0..end` executes exactly
//! once before [`Pool::run`] returns. Callers needing deterministic output
//! must make `task(i)` write to index-addressed locations so the thread
//! interleaving cannot be observed — the sharded round engine and the
//! bench scheduler's `map_ordered` both do. Which thread executes which
//! index varies run to run; what `task` writes must not.
//!
//! # Nesting and concurrency
//!
//! The pool runs one job at a time. When [`Pool::run`] is called while
//! another job is in flight — a nested call from inside a task, or a call
//! from a second thread — the caller executes its whole job inline on its
//! own thread: sequential, deadlock-free, and bit-identical for
//! index-addressed writers. The same inline path serves pools with no
//! workers (single-core hosts), `max_threads <= 1` and one-task jobs.
//!
//! # Panics
//!
//! A panic inside `task(i)` is caught on the executing thread, no further
//! index is handed out, and the first payload is re-raised from
//! [`Pool::run`] on the submitting thread — so
//! `#[should_panic(expected = …)]` tests observe the exact message
//! regardless of which thread hit it.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// One in-flight job.
struct Job {
    /// Type-erased pointer to the submitter's `&(dyn Fn(usize) + Sync)`.
    /// The pointee lives on the submitting thread's stack; see the
    /// `unsafe impl` below for why workers may call it.
    task: *const (dyn Fn(usize) + Sync),
    /// The job runs `task(i)` for every `i` in `0..end`.
    end: usize,
    /// The claim counter: the next index to hand out. Any value `>= end`
    /// means nothing is left to claim. `fetch_add` alone makes each index
    /// go to one thread, and the counter publishes no other data, so its
    /// accesses are `Relaxed`.
    next: AtomicUsize,
    /// Indices finished (or given up after a panic). Bumped with `Release`
    /// after each call returns and read with `Acquire` by the submitter,
    /// which returns only once it reaches `end`: every task's writes are
    /// then visible to it.
    done: AtomicUsize,
    /// The first caught panic payload, re-raised by the submitter.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `task` is the only field that is not `Send + Sync` by itself.
// It is dereferenced only in `Job::work`, for an index `i < end` that the
// calling thread claimed, and `done` is bumped only after that call
// returns. `Pool::run` does not return, and so the pointee stays alive,
// until `done == end`. The pointee is `Sync`, so calls from several
// threads at once are fine.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claim and run indices until none is left.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.end {
                return;
            }
            // SAFETY: `i < end` is claimed and not yet counted in `done`,
            // so the submitter is still inside `Pool::run` and the borrow
            // behind `task` is live (see the `unsafe impl` above).
            let task = unsafe { &*self.task };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
                self.panic
                    .lock()
                    .expect("pool panic slot")
                    .get_or_insert(payload);
                // Hand out nothing more, and count the indices that will
                // now never be claimed as done.
                let unclaimed = self
                    .end
                    .saturating_sub(self.next.swap(self.end, Ordering::Relaxed));
                self.done.fetch_add(unclaimed, Ordering::Release);
            }
            self.done.fetch_add(1, Ordering::Release);
        }
    }
}

struct State {
    /// The job workers may join, if any.
    job: Option<Arc<Job>>,
    /// Worker seats left on `job`: each joining worker takes one, so at
    /// most `max_threads - 1` workers serve it.
    seats: usize,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for a job with a free seat.
    work_cv: Condvar,
}

/// A fixed-size persistent worker pool. See the module docs for the
/// execution, nesting and panic contracts.
pub struct Pool {
    shared: Arc<Shared>,
    /// Held (non-blockingly) for the duration of one `run`; a failed
    /// `try_lock` is the nesting/concurrency signal that routes the caller
    /// to the inline path.
    submit: Mutex<()>,
    workers: usize,
    /// Lifetime count of jobs scheduled on the pool. Telemetry only.
    jobs: AtomicU64,
}

impl Pool {
    /// A pool with exactly `workers` daemon worker threads. The thread
    /// calling [`Pool::run`] always participates too, so peak parallelism
    /// is `workers + 1`. With `workers == 0` every job runs inline.
    pub fn new(workers: usize) -> Pool {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                seats: 0,
            }),
            work_cv: Condvar::new(),
        });
        for w in 0..workers {
            let sh = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("dds-pool-{w}"))
                .spawn(move || worker_loop(&sh))
                .expect("spawn pool worker");
        }
        Pool {
            shared,
            submit: Mutex::new(()),
            workers,
            jobs: AtomicU64::new(0),
        }
    }

    /// The process-wide pool: `available_parallelism - 1` daemon workers
    /// (0 on single-core hosts — everything then runs inline). The core
    /// count is read exactly once, on first use; every later call reuses
    /// the cached sizing.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            Pool::new(cores.saturating_sub(1))
        })
    }

    /// Daemon worker-thread count (0 means every job runs inline).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Lifetime count of jobs actually scheduled on the pool (inline
    /// fallbacks are not counted).
    pub fn jobs(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
    }

    /// Execute `task(i)` for every `i in 0..end` on up to `max_threads`
    /// threads total (the caller plus at most `max_threads - 1` workers),
    /// each taking the next unclaimed index until none is left. Blocks
    /// until every index has executed; a panic is re-raised here with its
    /// original payload. Runs inline when the job has one task,
    /// `max_threads` permits only the caller, the pool has no workers, or
    /// another job is already in flight.
    pub fn run(&self, end: usize, max_threads: usize, task: &(dyn Fn(usize) + Sync)) {
        if end <= 1 || max_threads <= 1 || self.workers == 0 {
            return (0..end).for_each(task);
        }
        let Ok(submit) = self.submit.try_lock() else {
            return (0..end).for_each(task);
        };
        self.jobs.fetch_add(1, Ordering::Relaxed);
        // SAFETY: this only erases the borrow's lifetime. The pointer is
        // called only while this function has not returned, which it does
        // not do before `done == end` (see the `Job` safety comment).
        #[allow(clippy::missing_transmute_annotations)]
        let erased: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
        let job = Arc::new(Job {
            task: erased,
            end,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            panic: Mutex::new(None),
        });
        {
            let mut st = self.shared.state.lock().expect("pool state");
            *st = State {
                job: Some(Arc::clone(&job)),
                seats: (max_threads - 1).min(self.workers),
            };
            self.shared.work_cv.notify_all();
        }
        job.work();
        // Claimed indices may still be running on workers; the task borrow
        // must outlive them.
        while job.done.load(Ordering::Acquire) < end {
            std::thread::yield_now();
        }
        self.shared.state.lock().expect("pool state").job = None;
        // Release the submit lock before re-raising: unwinding through it
        // would poison it and send every later job down the inline path.
        drop(submit);
        let payload = job.panic.lock().expect("pool panic slot").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool state");
            loop {
                match &st.job {
                    Some(job) if st.seats > 0 && job.next.load(Ordering::Relaxed) < job.end => {
                        let job = Arc::clone(job);
                        st.seats -= 1;
                        break job;
                    }
                    _ => st = shared.work_cv.wait(st).expect("pool state"),
                }
            }
        };
        job.work();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;
    use std::time::Duration;

    #[test]
    fn every_index_runs_exactly_once() {
        let pool = Pool::new(3);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.run(1000, 4, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = Pool::new(0);
        let hits: Vec<AtomicUsize> = (0..32).map(|_| AtomicUsize::new(0)).collect();
        pool.run(32, 8, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(pool.jobs(), 0, "inline jobs are not scheduled");
    }

    #[test]
    fn max_threads_caps_the_threads_serving_one_job() {
        let pool = Pool::new(3);
        let served_by = |max_threads: usize| -> HashSet<ThreadId> {
            let ids = Mutex::new(HashSet::new());
            pool.run(24, max_threads, &|_| {
                ids.lock().unwrap().insert(std::thread::current().id());
                // Long enough that every idle worker would join an
                // uncapped job.
                std::thread::sleep(Duration::from_millis(1));
            });
            ids.into_inner().unwrap()
        };
        let two = served_by(2);
        assert!(
            two.len() <= 2,
            "{} threads served a 2-thread job",
            two.len()
        );
        let one = served_by(1);
        assert_eq!(one, HashSet::from([std::thread::current().id()]));
    }

    #[test]
    fn nested_runs_fall_back_inline_without_deadlock() {
        let pool = Pool::new(2);
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let hits_ref = &hits;
        let pool_ref = &pool;
        pool.run(8, 3, &move |i| {
            pool_ref.run(8, 3, &|j| {
                hits_ref[i * 8 + j].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn panics_propagate_with_payload_and_pool_survives() {
        let pool = Pool::new(2);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.run(200, 3, &|i| {
                if i == 37 {
                    panic!("boom at index {i}");
                }
            });
        }))
        .expect_err("must panic");
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| err.downcast_ref::<&str>().copied())
            .expect("string payload");
        assert!(msg.contains("boom at index 37"), "payload was {msg:?}");
        // The pool must remain fully usable after a panicked job.
        let count = AtomicUsize::new(0);
        pool.run(50, 3, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn sequential_jobs_reuse_the_same_workers() {
        let pool = Pool::new(2);
        for round in 0..20usize {
            let sum = AtomicUsize::new(0);
            pool.run(100, 3, &|i| {
                sum.fetch_add(i + round, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 4950 + 100 * round);
        }
    }

    /// Index-addressed writers must observe identical results no matter
    /// how the threads interleave — compare pooled against pure sequential
    /// on an uneven workload designed to force imbalance.
    #[test]
    fn results_match_sequential_on_skewed_work() {
        let n = 4096usize;
        let cost = |i: usize| -> u64 {
            // First decile carries most of the work, like a hub workload.
            let spins = if i < n / 10 { 400 } else { 4 };
            let mut acc = i as u64;
            for s in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(s as u64);
            }
            acc
        };
        let expect: Vec<u64> = (0..n).map(cost).collect();
        let pool = Pool::new(3);
        for trial in 0..3 {
            let slots: Vec<Mutex<u64>> = (0..n).map(|_| Mutex::new(0)).collect();
            pool.run(n, 4, &|i| {
                *slots[i].lock().unwrap() = cost(i);
            });
            let got: Vec<u64> = slots.iter().map(|s| *s.lock().unwrap()).collect();
            assert_eq!(expect, got, "trial {trial}");
        }
    }

    #[test]
    fn job_counter_counts_scheduled_jobs() {
        let pool = Pool::new(3);
        let before_jobs = pool.jobs();
        for _ in 0..5 {
            pool.run(256, 4, &|i| {
                std::hint::black_box(i);
            });
        }
        assert_eq!(pool.jobs(), before_jobs + 5);
    }
}
