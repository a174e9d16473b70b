//! The worker pool under every parallel check: `batch` (and through the
//! check engine `serve`, `watch` and `topo`) and `fuzz`.
//!
//! * **Workers.** [`workers`] resolves `--jobs` once for every driver.
//!   Worker 0 is the calling thread and workers `1..n` are scoped threads,
//!   so a one-worker run spawns nothing. Each worker owns one
//!   [`CheckerSession`] from the caller's factory (sessions hold
//!   `Rc`-backed overlay tables; only the frozen segment inside is shared)
//!   and drains a work-stealing [`StealQueue`] of task indices.
//! * **Panic boundary.** A task that panics — a checker bug, a
//!   pathological program, or an injected `P4BID_FAULTS` fault — becomes
//!   the caller's panic verdict for that task alone, and the worker goes
//!   on with a fresh session (the panic may have torn the old one
//!   mid-mutation).
//! * **Early stop.** The run records the lowest task index whose result
//!   says "stop" and skips every task above it; results above it are
//!   dropped, so what comes back never depends on scheduling.
//! * **Merge.** Results come back by task index, never by completion
//!   order. Session stats are absorbed per worker and harvests collected
//!   in worker order `0..n`.

use crate::batch::BatchStats;
use p4bid_typeck::{CheckerSession, SessionHarvest};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};

/// The worker count for `tasks` tasks at `--jobs jobs`: `0` means one
/// worker per available core, and the result is clamped to `1..=tasks`.
/// The cores are counted once per process: `available_parallelism` reads
/// cgroup files on every call, and `serve` and `watch` resolve their jobs
/// on every epoch.
pub(crate) fn workers(jobs: usize, tasks: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let jobs = match jobs {
        0 => *CORES.get_or_init(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        }),
        n => n,
    };
    jobs.min(tasks).max(1)
}

/// What one pool run produced.
#[derive(Debug)]
pub(crate) struct PoolRun<R> {
    /// One result per task, in task order, up to and including the
    /// lowest stopping task.
    pub results: Vec<R>,
    /// Worker count the run used.
    pub workers: usize,
    /// Every worker's final session stats, absorbed.
    pub stats: BatchStats,
    /// The workers' session harvests in worker order (only when asked).
    pub harvests: Vec<SessionHarvest>,
}

/// Runs tasks `0..tasks` on [`workers`]`(jobs, tasks)` workers, each
/// owning one session from `make_session`. `check` runs one task;
/// `panicked` is the verdict for a task whose check panicked; `stops`
/// says whether a result stops the run (see the module docs). When
/// `harvest` is set, every worker consumes its final session into a
/// [`SessionHarvest`] (a session a panic replaced yields its fresh
/// substitute's empty but valid overlay).
pub(crate) fn run<R: Send>(
    tasks: usize,
    jobs: usize,
    make_session: &(impl Fn() -> CheckerSession + Sync),
    harvest: bool,
    check: &(impl Fn(&mut CheckerSession, usize) -> R + Sync),
    panicked: &(impl Fn(usize) -> R + Sync),
    stops: &(impl Fn(&R) -> bool + Sync),
) -> PoolRun<R> {
    let workers = workers(jobs, tasks);
    let queue = StealQueue::new(tasks, workers);
    let stop = AtomicUsize::new(usize::MAX);
    let drain = |w: usize, mut first: Option<usize>| {
        let mut session = make_session();
        let mut out = Vec::new();
        while let Some(i) = first.take().or_else(|| queue.next_task(w)) {
            if i > stop.load(Relaxed) {
                continue;
            }
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| check(&mut session, i)))
                .unwrap_or_else(|_| {
                    session = make_session();
                    panicked(i)
                });
            if stops(&r) {
                stop.fetch_min(i, Relaxed);
            }
            out.push((i, r));
        }
        let stats = session.stats();
        (out, stats, if harvest { session.into_harvest() } else { None })
    };
    let (mut done, mut stats, mut harvests) = (Vec::new(), BatchStats::default(), Vec::new());
    // Worker 0 claims its first task before any other worker starts, so
    // spawn latency never lets a thief run it last. Which tasks share a
    // session before a panic matters: the panic discards that session's
    // overlay, and with it what a refreeze would have harvested.
    let first = queue.next_task(0);
    std::thread::scope(|scope| {
        let drain = &drain;
        let spawned: Vec<_> = (1..workers).map(|w| scope.spawn(move || drain(w, None))).collect();
        let mine = drain(0, first);
        let joined =
            spawned.into_iter().map(|h| h.join().expect("tasks panic inside the boundary"));
        for (out, worker_stats, harvested) in std::iter::once(mine).chain(joined) {
            done.extend(out);
            stats.absorb(&worker_stats);
            harvests.extend(harvested);
        }
    });
    let stop = stop.into_inner();
    done.retain(|&(i, _)| i <= stop);
    done.sort_unstable_by_key(|&(i, _)| i);
    PoolRun { results: done.into_iter().map(|(_, r)| r).collect(), workers, stats, harvests }
}

/// A work-stealing queue of task indices: one deque per worker, owners pop
/// from the front, thieves steal from the back.
///
/// Tasks never spawn tasks here, so termination is simple: a worker exits
/// once every deque (its own and all victims') is empty.
#[derive(Debug)]
struct StealQueue {
    deques: Vec<Mutex<VecDeque<usize>>>,
}

impl StealQueue {
    /// Distributes `tasks` task indices round-robin over `workers` (≥ 1)
    /// deques.
    fn new(tasks: usize, workers: usize) -> Self {
        let mut deques: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
        for t in 0..tasks {
            deques[t % workers].push_back(t);
        }
        StealQueue { deques: deques.into_iter().map(Mutex::new).collect() }
    }

    /// The next task for `worker`: its own front, else a steal from the
    /// back of the first non-empty victim. `None` means global exhaustion.
    fn next_task(&self, worker: usize) -> Option<usize> {
        if let Some(t) = self.deques[worker].lock().expect("queue lock").pop_front() {
            return Some(t);
        }
        let n = self.deques.len();
        for off in 1..n {
            let victim = (worker + off) % n;
            if let Some(t) = self.deques[victim].lock().expect("queue lock").pop_back() {
                return Some(t);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4bid_typeck::{CheckOptions, SharedSessionCore};

    #[test]
    fn steal_queue_drains_exactly_once() {
        let q = StealQueue::new(100, 3);
        let mut seen = [false; 100];
        // Worker 1 never pops its own; everything still drains via steals.
        while let Some(t) = q.next_task(1) {
            assert!(!seen[t], "task {t} handed out twice");
            seen[t] = true;
        }
        assert!(seen.iter().all(|&s| s), "all tasks drained");
        for w in 0..q.deques.len() {
            assert_eq!(q.next_task(w), None);
        }
    }

    #[test]
    fn workers_resolve_jobs_and_clamp_to_tasks() {
        assert_eq!(workers(4, 10), 4);
        assert_eq!(workers(8, 3), 3);
        assert_eq!(workers(3, 0), 1);
        assert!((1..=5).contains(&workers(0, 5)));
    }

    #[test]
    fn lowest_stopping_task_wins_and_later_tasks_are_skipped() {
        let core = SharedSessionCore::new(CheckOptions::ifc());
        for jobs in [1, 2, 8] {
            let ran = AtomicUsize::new(0);
            // Tasks 17 and 40 both stop the run; 17 is the lowest.
            let run = run(
                64,
                jobs,
                &|| core.session(),
                false,
                &|_, i| {
                    ran.fetch_add(1, Relaxed);
                    i
                },
                &|_| unreachable!("no task panics"),
                &|&i| i == 17 || i == 40,
            );
            assert_eq!(run.results, (0..=17).collect::<Vec<_>>(), "jobs={jobs}");
            if jobs == 1 {
                assert_eq!(ran.into_inner(), 18, "one worker runs nothing past the stop");
            }
            assert_eq!(run.workers, jobs);
            assert_eq!(run.stats.workers, jobs);
        }
    }

    #[test]
    fn task_zero_always_runs_first_on_worker_zero() {
        let core = SharedSessionCore::new(CheckOptions::ifc());
        let src = "control C(inout bit<8> x) { apply { x = x + 8w1; } }";
        for jobs in [1, 2, 8] {
            // Whether each task found its session unused: task 0 must,
            // however late the calling thread gets to it.
            let run = run(
                64,
                jobs,
                &|| core.session(),
                false,
                &|s, _| {
                    let fresh = s.stats().sym_intern_calls == 0;
                    let _ = s.check(src);
                    fresh
                },
                &|_| unreachable!("no task panics"),
                &|_| false,
            );
            assert!(run.results[0], "jobs={jobs}");
        }
    }

    #[test]
    fn a_panicking_task_becomes_its_verdict_and_the_worker_goes_on_fresh() {
        let core = SharedSessionCore::new(CheckOptions::ifc());
        let src = "control C(inout bit<8> x) { apply { x = x + 8w1; } }";
        let torn = "control Torn(inout bit<8> torn_field) { apply { } }";
        // Overlay size after one check of `src` on a fresh session; a
        // session that also checked `torn` holds more.
        let overlay = |first: Option<&str>| {
            let mut s = core.session();
            first.map(|f| s.check(f));
            let _ = s.check(src);
            s.stats().overlay_syms
        };
        let clean = overlay(None);
        assert!(overlay(Some(torn)) > clean);
        for jobs in [1, 2, 8] {
            // Every fifth task grows its session's overlay, then panics.
            // Had its worker kept that session, a later task on it would
            // see the larger overlay.
            let run = run(
                40,
                jobs,
                &|| core.session(),
                true,
                &|s, i| {
                    if i % 5 == 0 {
                        let _ = s.check(torn);
                        panic!("task {i} panics");
                    }
                    let _ = s.check(src);
                    s.stats().overlay_syms
                },
                &|_| usize::MAX,
                &|_| false,
            );
            let want: Vec<usize> =
                (0..40).map(|i| if i % 5 == 0 { usize::MAX } else { clean }).collect();
            assert_eq!(run.results, want, "jobs={jobs}");
            assert_eq!(run.harvests.len(), jobs, "one harvest per worker (jobs={jobs})");
        }
    }
}
