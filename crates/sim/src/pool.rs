//! Shared work pool: fans independent simulation jobs across CPU cores
//! with plain `std::thread` scoped threads.
//!
//! This is the one thread-pool implementation in the workspace. Two very
//! different consumers share it, so they share one worker-count policy
//! (`NMPIC_JOBS`) and one scheduling behaviour:
//!
//! * `nmpic-bench`'s experiment sweeps — fan a figure's points (matrix
//!   × variant × backend) across cores;
//! * `nmpic_system`'s sharded engine — runs each shard's unit simulation
//!   on its own thread inside a single `SpmvPlan::run`.
//!
//! Every job in both cases is a deterministic simulation over owned (or
//! exclusively borrowed) state, so [`parallel_map`] preserves input order
//! in its output and the caller merges results in a fixed serial order —
//! parallel execution is observationally identical to serial execution.
//!
//! Worker count: `NMPIC_JOBS` if set, otherwise
//! [`std::thread::available_parallelism`]. A panic in any job (e.g. a
//! failed golden-model verification) propagates to the caller.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

thread_local! {
    /// `true` on threads spawned by [`parallel_map_jobs`] workers, so
    /// nested env-default parallelism degrades to serial instead of
    /// multiplying.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Number of worker threads to use: the `NMPIC_JOBS` override when set
/// and valid, otherwise the machine's available parallelism. The result
/// is always ≥ 1: `NMPIC_JOBS=0` is clamped to serial execution (with a
/// warning) instead of configuring an empty worker pool.
///
/// **Nesting**: on a thread that is itself a pool worker this returns 1,
/// so work that defaults to `parallel_jobs()` width (a sharded plan's
/// gather inside a `parallel_map` sweep point) runs serially instead of
/// exploding to `NMPIC_JOBS²` threads — the env knob caps machine-wide
/// width at every nesting depth. An explicit [`parallel_map_jobs`] count
/// is always honoured.
pub fn parallel_jobs() -> usize {
    if IN_POOL_WORKER.with(Cell::get) {
        return 1;
    }
    let (jobs, warning) = jobs_from_env_value(std::env::var("NMPIC_JOBS").ok().as_deref());
    if let Some(w) = warning {
        eprintln!("warning: {w}");
    }
    jobs.max(1)
}

/// Pure worker-count policy behind [`parallel_jobs`], separated so the
/// `NMPIC_JOBS` edge cases are unit-testable without touching the
/// process environment. Returns the job count (always ≥ 1) and an
/// optional warning for the caller to print.
fn jobs_from_env_value(value: Option<&str>) -> (usize, Option<String>) {
    let default = || std::thread::available_parallelism().map_or(1, |n| n.get());
    match value {
        None => (default(), None),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => (n, None),
            Ok(_) => (
                1,
                Some(
                    "NMPIC_JOBS=0 would configure an empty worker pool; clamping to 1 (serial)"
                        .to_string(),
                ),
            ),
            Err(_) => (
                default(),
                Some(format!(
                    "ignoring invalid NMPIC_JOBS='{v}' (want a positive integer)"
                )),
            ),
        },
    }
}

/// Maps `f` over `items` on up to [`parallel_jobs`] worker threads,
/// returning results in input order.
///
/// Workers pull the next item from a shared queue, so uneven job costs
/// (a big matrix next to a small one) balance automatically.
///
/// # Panics
///
/// Propagates a panic raised inside `f` with its original payload, so
/// verification failures inside a sweep still abort it.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_jobs(parallel_jobs(), items, f)
}

/// [`parallel_map`] with an explicit worker count, for callers that carry
/// their own parallelism knob (the sharded engine's `shard_workers`, the
/// service-throughput sweep's worker axis). `jobs <= 1` runs serially on
/// the calling thread with no pool at all, so a single-worker run is the
/// exact serial baseline, not a one-thread pool.
///
/// # Panics
///
/// Propagates the first panic raised inside `f`.
pub fn parallel_map_jobs<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let jobs = jobs.min(items.len().max(1));
    if jobs <= 1 {
        return items.into_iter().map(f).collect();
    }
    // The lock guards only the hand-out of the next item; `f` runs
    // unlocked, so a panicking job cannot poison the queue for the rest.
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut out: Vec<(usize, R)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    IN_POOL_WORKER.with(|flag| flag.set(true));
                    let mut done = Vec::new();
                    loop {
                        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                        let Some((i, item)) = next else { break };
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    out.sort_unstable_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// How long an idle [`BackgroundWorker`] sleeps between polls when its
/// tick reports no work. [`BackgroundWorker::unpark`] cuts the wait
/// short, so this is a liveness backstop, not the wake latency.
const IDLE_PARK: Duration = Duration::from_micros(200);

/// A dedicated long-lived worker thread driving a `tick` closure in a
/// loop — the primitive behind background drains (e.g. the service's
/// lane drain workers), as opposed to [`parallel_map`]'s fork-join jobs.
///
/// `tick` returns `true` when it did work (the worker loops again
/// immediately) and `false` when it found none (the worker parks briefly,
/// or until [`BackgroundWorker::unpark`]). Dropping the handle stops and
/// joins the thread.
///
/// The worker is deliberately **not** marked as a pool worker
/// ([`parallel_jobs`] nesting clamp): work driven from a background
/// worker may itself fan out on the pool at full width.
///
/// A panic inside `tick` ends that worker's loop; owners that must
/// survive panics catch them inside `tick` (the join result is
/// discarded so `Drop` never double-panics).
///
/// # Example
///
/// ```
/// use nmpic_sim::pool::BackgroundWorker;
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
/// let n = Arc::new(AtomicU64::new(0));
/// let n2 = Arc::clone(&n);
/// let w = BackgroundWorker::spawn("demo", move || {
///     // Monotone demo counter; Relaxed is all the example needs.
///     n2.fetch_add(1, Ordering::Relaxed) < 10
/// });
/// while n.load(Ordering::Relaxed) < 10 {
///     std::thread::yield_now();
/// }
/// drop(w); // stops and joins
/// ```
#[derive(Debug)]
pub struct BackgroundWorker {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl BackgroundWorker {
    /// Spawns a named worker thread running `tick` until stopped.
    pub fn spawn<F>(name: &str, mut tick: F) -> Self
    where
        F: FnMut() -> bool + Send + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                // Acquire pairs with the Release store in `stop()` so the
                // worker sees any state the stopper published before it.
                while !stop_flag.load(Ordering::Acquire) {
                    if !tick() {
                        std::thread::park_timeout(IDLE_PARK);
                    }
                }
            })
            // nmpic-lint: allow(L2) — spawn fails only on OS thread exhaustion, which is unrecoverable for a drain worker anyway
            .expect("spawn background worker thread");
        Self {
            stop,
            handle: Some(handle),
        }
    }

    /// Wakes the worker if it is parked idle. Cheap; callable from any
    /// thread (producers call this after enqueueing work).
    pub fn unpark(&self) {
        if let Some(h) = &self.handle {
            h.thread().unpark();
        }
    }

    /// Signals the worker to stop after its current tick and joins it.
    /// Idempotent; also runs on `Drop`.
    pub fn stop(&mut self) {
        // Release pairs with the Acquire load in the worker loop.
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            h.thread().unpark();
            // A panicked tick already ended the loop; discard the join
            // result so Drop never double-panics during unwinding.
            let _ = h.join();
        }
    }
}

impl Drop for BackgroundWorker {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let got = parallel_map(items, |x| x * 2);
        assert_eq!(got, (0..100).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn explicit_jobs_preserve_order_too() {
        for jobs in [1usize, 2, 4, 16] {
            let got = parallel_map_jobs(jobs, (0..50).collect(), |x: u64| x + 1);
            assert_eq!(got, (1..=50).collect::<Vec<u64>>(), "jobs={jobs}");
            // Early items cost the most, so workers finish out of input
            // order and only the final sort restores it.
            let got = parallel_map_jobs(jobs, (0..12).collect(), |x: u64| {
                std::thread::sleep(Duration::from_micros(200 * (12 - x)));
                x * 3
            });
            assert_eq!(
                got,
                (0..12).map(|x| x * 3).collect::<Vec<u64>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn works_with_mutable_borrows() {
        // The sharded engine hands each worker `&mut` into its own slot;
        // the pool must support exclusively borrowed items.
        let mut slots: Vec<u64> = vec![0; 16];
        let refs: Vec<&mut u64> = slots.iter_mut().collect();
        let _ = parallel_map_jobs(4, refs, |r| {
            *r += 7;
            *r
        });
        assert!(slots.iter().all(|&v| v == 7));
    }

    #[test]
    fn empty_input_is_fine() {
        let got: Vec<u32> = parallel_map(Vec::<u32>::new(), |x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn jobs_default_is_positive() {
        assert!(parallel_jobs() >= 1);
    }

    /// Nested env-default parallelism clamps to serial: a pool worker
    /// asking for `parallel_jobs()` gets 1, so a sharded plan inside a
    /// sweep point cannot multiply thread counts to `NMPIC_JOBS²`.
    #[test]
    fn nested_default_parallelism_is_serial() {
        let inner: Vec<usize> =
            parallel_map_jobs(4, (0..4).collect::<Vec<u32>>(), |_| parallel_jobs());
        assert_eq!(inner, vec![1; 4]);
        // Outside a pool worker the default is unclamped again.
        assert!(parallel_jobs() >= 1);
    }

    /// Regression: `NMPIC_JOBS=0` used to be treated like any other
    /// malformed value; the policy now clamps it to 1 explicitly so
    /// `parallel_map` can never see an empty worker pool.
    #[test]
    fn jobs_zero_is_clamped_to_serial_with_warning() {
        let (jobs, warning) = jobs_from_env_value(Some("0"));
        assert_eq!(jobs, 1);
        assert!(warning.expect("must warn").contains("clamping to 1"));
        // Whitespace variants hit the same clamp.
        assert_eq!(jobs_from_env_value(Some(" 0 ")).0, 1);
    }

    #[test]
    fn jobs_env_value_policy() {
        assert_eq!(jobs_from_env_value(Some("3")), (3, None));
        let (jobs, warning) = jobs_from_env_value(Some("lots"));
        assert!(jobs >= 1);
        assert!(warning.expect("must warn").contains("invalid"));
        let (jobs, warning) = jobs_from_env_value(None);
        assert!(jobs >= 1 && warning.is_none());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let _ = parallel_map_jobs(2, vec![1u32, 2, 3], |x| {
            assert!(x != 2, "boom");
            x
        });
    }

    #[test]
    fn background_worker_runs_ticks_and_stops_on_drop() {
        use std::sync::atomic::AtomicU64;
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        let mut w = BackgroundWorker::spawn("test-bg", move || {
            // Relaxed: monotone test counter, no cross-data ordering.
            c.fetch_add(1, Ordering::Relaxed) < 100
        });
        while count.load(Ordering::Relaxed) < 100 {
            w.unpark();
            std::thread::yield_now();
        }
        w.stop();
        let frozen = count.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(
            count.load(Ordering::Relaxed),
            frozen,
            "stopped worker must not tick"
        );
        // Idempotent: second stop and the Drop are both no-ops.
        w.stop();
    }

    #[test]
    fn background_worker_parks_idle_but_wakes_on_unpark() {
        use std::sync::atomic::AtomicU64;
        let ticks = Arc::new(AtomicU64::new(0));
        let t = Arc::clone(&ticks);
        // Tick always reports "no work": the worker spends its life parked.
        let w = BackgroundWorker::spawn("idle-bg", move || {
            // Relaxed: monotone test counter, no cross-data ordering.
            t.fetch_add(1, Ordering::Relaxed);
            false
        });
        let before = ticks.load(Ordering::Relaxed);
        w.unpark();
        // The unparked worker must come around for another tick.
        while ticks.load(Ordering::Relaxed) <= before {
            std::thread::yield_now();
        }
        // Worker survives being idle; Drop stops it cleanly.
    }

    #[test]
    fn background_worker_survives_a_panicking_tick_on_drop() {
        let w = BackgroundWorker::spawn("panicky-bg", || panic!("tick bug"));
        // Give the thread a chance to panic, then ensure Drop joins
        // without propagating the panic.
        std::thread::sleep(Duration::from_millis(2));
        drop(w);
    }
}
