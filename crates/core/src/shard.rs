//! Two-level sharded scheduler: keeps `(campaign, round)` work items
//! from one *or many* campaigns in flight on the process's worker pool.
//!
//! The serial/parallel round loop has three full barriers per round
//! (direct → reverse/overlay → stitch): every core waits for the
//! round's slowest window before any core may start the next stage,
//! and the whole machine idles through each round's planning. Rounds,
//! however, are independent — a round's plan is a pure function of
//! `(seed, round)` ([`crate::plan::plan_round_for`]) and every window's
//! outcome is a pure function of its task identity — so the barriers
//! only need to exist *per round*, not across the campaign. And since
//! each campaign's windows derive their RNG from its own seed,
//! *campaigns* are just as independent as rounds: a scenario sweep's
//! `(campaign, round)` jobs can interleave on the same pool.
//!
//! [`run_interleaved`] exploits that: a single work queue feeds the
//! run's workers with `Plan` and `Chunk` items from up to
//! `jobs_in_flight` jobs at once, each job one `(campaign, round)`
//! pair. The queue is ordered oldest job first: a younger job's item
//! is popped only while no older job has one queued. While job *j*
//! sits at a stage boundary waiting for its last chunk, the workers
//! measure another job's windows — from the same campaign or a
//! different one — instead of idling. Per-job state
//! machines (direct stage → tail stage of reverse + overlay windows →
//! complete) advance whenever their last outstanding chunk lands; the
//! worker that completes a job hands the bundle to the coordinator
//! thread. Jobs are admitted round-major (round 0 of every campaign,
//! then round 1, …) so all campaigns of a sweep stream from their
//! first round.
//!
//! **Admission.** A job is admitted only while fewer than
//! `jobs_in_flight` jobs are alive *and* no admitted job is still
//! planning or opening its direct stage. So job *j + 1* plans and
//! resolves its direct pairs while job *j* samples and runs its tail,
//! but never while *j* resolves its own direct stage: the oldest job's
//! resolve, the one its first streamed round waits on, has the cores
//! to itself. A job with no direct windows releases that point as soon
//! as it is planned. The campaign default,
//! `ExecMode::Sharded { rounds_in_flight: 2 }`, therefore keeps one
//! round measuring and the next one resolving.
//!
//! **Memory.** After each delivered job the coordinator calls
//! `rayon::release_free_memory`. A job's stage buffers are freed on
//! pool threads, into those threads' glibc malloc arenas, which keep
//! the pages: without the release, two rounds in flight held
//! `campaign_paper`'s peak RSS 26 % above the `Parallel` loop's, while
//! a counting allocator saw only 5–10 MB more live heap. The release
//! hands the pages back after every job of every run (campaign, sweep,
//! service batch). It costs an arena walk per job, and the next job
//! faults the returned pages back in.
//!
//! The unit of measurement work is a **chunk of an opened stage**: on
//! entering a stage a job calls [`MeasurementBackend::open_stage`]
//! once (its `Stage::ResolvePairs` span) and queues one item per
//! `KERNEL_CHUNK` windows, each run through
//! [`MeasurementBackend::measure_chunk`] — `measure_batch`'s kernel
//! body; the scheduler has no sampling path of its own. A sharded
//! netsim run thus probes the pair cache once per *stage*:
//! `pair_cache_hits` is lower by the window count than with per-window
//! items, and under a memory budget a window no longer re-expands a
//! pair evicted since its stage was resolved (misses can only fall;
//! bytes cannot change — the block is the stage's epoch snapshot). A
//! job's `Stage::Sample` span still runs from fan-out to drain.
//!
//! Each campaign brings its own [`MeasurementBackend`] — in a sweep,
//! one [`crate::backend::NetsimBackend`] per campaign, all sharing one
//! engine — so a window is always measured with its campaign's seed
//! and fault plan.
//!
//! Determinism is untouched: every result is written to a slot
//! addressed by `(job, stage, index)`, tail tasks are derived from the
//! job's *complete* direct results by the same pure functions the
//! serial loop uses, and the order-independent
//! [`crate::stitch::ResultsBuilder`] merges completed rounds by round
//! index — so a sharded campaign is bit-identical to a serial one, and
//! a swept campaign bit-identical to running it alone.
//!
//! The solo [`crate::workflow::Campaign`] is the one-campaign case:
//! it calls [`run_interleaved_ranges`] with a single backend.
//!
//! **Threads.** A run spawns none. Its workers are runs of one drain
//! loop on the process-wide `rayon` pool: enqueueing items queues a
//! drain task for each while fewer than `current_num_threads()` of the
//! run's tasks are live, and a task that finds the queue empty ends,
//! giving its pool thread back instead of parking on it. So while one
//! job opens a stage (the pair resolver's `par_iter`, run from a pool
//! thread, does its own share and takes only idle pool threads), an
//! idle thread picks up that fork's helper rather than waiting for
//! chunks, and runs from concurrent sessions queue for the pool's
//! threads instead of each adding a worker set. The coordinator (which
//! calls `on_round`) stays on the calling thread, which must not itself
//! be a pool thread.

use crate::backend::{chunk_ranges, MeasureTask, MeasurementBackend, ResolvedStage, TaskKind};
use crate::plan::{plan_overlay, OverlayPlan, RoundPlan};
use rayon::Spawner;
use shortcuts_telemetry as telemetry;
use shortcuts_telemetry::Stage;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// One finished round, exactly as the serial loop would have produced
/// it: the plans plus every window median, position-aligned.
#[derive(Debug)]
pub struct CompletedRound {
    /// The round's plan.
    pub plan: RoundPlan,
    /// The overlay plan derived from the direct medians.
    pub overlay: OverlayPlan,
    /// Direct medians, aligned with `plan.pairs`.
    pub direct: Vec<Option<f64>>,
    /// Reverse medians, aligned with the scheduled reverse tasks.
    pub reverse: Vec<Option<f64>>,
    /// Overlay-link medians, aligned with `overlay.needed`.
    pub links: Vec<Option<f64>>,
}

/// One opened stage of job `job`, shared by its chunks and dropped
/// with the last of them: a pair block never outlives its windows.
struct StageWork {
    job: u32,
    tasks: Vec<MeasureTask>,
    /// What the backend's `open_stage` returned for `tasks`.
    stage: Option<Arc<ResolvedStage>>,
}

/// One unit of work in the shared queue. A job is an index into the
/// coordination's job table (one entry per admitted `(campaign,
/// round)` pair).
enum Item {
    /// Plan job `j`, open its direct stage and enqueue its chunks.
    Plan(u32),
    /// Measure the stage's windows `tasks[range]` into the job's
    /// result vector for the tasks' kind, at `range`.
    Chunk(Range<usize>, Arc<StageWork>),
}

impl Item {
    /// The job the item belongs to.
    fn job(&self) -> u32 {
        match self {
            Item::Plan(job) => *job,
            Item::Chunk(_, work) => work.job,
        }
    }
}

/// A job currently in flight.
struct JobState {
    plan: RoundPlan,
    overlay: Option<OverlayPlan>,
    direct: Vec<Option<f64>>,
    reverse: Vec<Option<f64>>,
    links: Vec<Option<f64>>,
    /// Outstanding windows in the current stage.
    remaining: usize,
    /// Whether the job has advanced past the direct stage into the
    /// reverse + overlay tail.
    in_tail: bool,
    /// When the current measurement stage began fanning out windows —
    /// telemetry only (`None` while telemetry is disabled). Feeds the
    /// per-(campaign, round) `sample` stage histogram and trace dump;
    /// never observable in results.
    stage_started: Option<Instant>,
}

struct Queue {
    items: VecDeque<Item>,
    /// Next index into the admission-ordered job table not yet
    /// admitted.
    next_job: u32,
    /// Admitted jobs not yet completed.
    alive: usize,
    /// Admitted jobs still planning or opening their direct stage.
    opening: usize,
    /// Drain tasks queued or running on the pool.
    live: usize,
    /// A thread panicked: everyone bails out.
    aborted: bool,
}

impl Queue {
    /// Queues job `job`'s items behind every queued item of an older
    /// (or the same) job and ahead of every younger job's, so workers
    /// serve the oldest admitted job first. Jobs are admitted in index
    /// order, so the queue stays sorted by job.
    fn enqueue(&mut self, job: u32, items: impl IntoIterator<Item = Item>) {
        let at = self.items.partition_point(|item| item.job() <= job);
        let younger = self.items.split_off(at);
        self.items.extend(items);
        self.items.extend(younger);
    }
}

struct DoneState {
    completed: VecDeque<(u32, CompletedRound)>,
    aborted: bool,
}

/// The non-generic coordination core shared by workers and the
/// coordinator.
struct Coordination {
    /// `(campaign, round)` per job, in admission order.
    jobs: Vec<(u32, u32)>,
    /// Most jobs alive at once.
    jobs_in_flight: usize,
    /// Most drain tasks live at once: the run's worker count.
    width: usize,
    queue: Mutex<Queue>,
    slots: Vec<Mutex<Option<JobState>>>,
    done: Mutex<DoneState>,
    done_cv: Condvar,
}

impl Coordination {
    /// Lets `fill` enqueue items under the queue lock, then queues a
    /// drain task for each queued item while fewer than `width` are
    /// live.
    fn push(&self, tasks: &Spawner, fill: impl FnOnce(&mut Queue)) {
        let spawn = {
            let mut q = self.queue.lock().expect("queue lock");
            fill(&mut q);
            let tele = telemetry::global();
            if tele.enabled() {
                tele.queue_depth().set(q.items.len() as i64);
            }
            let spawn = self.width.saturating_sub(q.live).min(q.items.len());
            q.live += spawn;
            spawn
        };
        tasks.spawn(spawn);
    }

    /// Queues the next job's `Plan` if fewer than `jobs_in_flight` jobs
    /// are alive and none is still planning or opening its direct
    /// stage. Every change that can make this true calls it.
    fn admit(&self, q: &mut Queue) {
        if q.alive < self.jobs_in_flight
            && q.opening == 0
            && (q.next_job as usize) < self.jobs.len()
        {
            q.items.push_back(Item::Plan(q.next_job));
            q.next_job += 1;
            q.alive += 1;
            q.opening += 1;
        }
    }

    /// Flags the run as aborted and wakes the coordinator, so a panic
    /// on one thread cannot strand it on its condvar. Runs during
    /// unwinding, so it must shrug off mutexes the panicking thread
    /// itself poisoned — a second panic here would abort the process
    /// and eat the original panic message.
    fn abort(&self) {
        self.queue
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .aborted = true;
        self.done
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .aborted = true;
        self.done_cv.notify_all();
    }
}

/// Sets the abort flags if its thread unwinds while it is armed.
struct AbortGuard<'a>(&'a Coordination);

impl Drop for AbortGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort();
        }
    }
}

/// Runs every `(campaign, round)` job of a batch of campaigns with up
/// to `jobs_in_flight` jobs in flight on the process pool, calling
/// `on_round(campaign, round)` on the calling thread for each
/// completed job **in completion order** (callers needing round order
/// reorder on top; [`crate::stitch::ResultsBuilder`] does not care).
///
/// `backends[c]` measures campaign `c`'s windows; `rounds[c]` is its
/// round count. `planner(c, round)` must be a pure function of its
/// arguments — it is called from worker threads, at most once per job.
pub fn run_interleaved<B, P, F>(
    backends: &[&B],
    rounds: &[u32],
    jobs_in_flight: usize,
    planner: P,
    on_round: F,
) where
    B: MeasurementBackend + ?Sized,
    P: Fn(u32, u32) -> RoundPlan + Sync,
    F: FnMut(u32, CompletedRound),
{
    let ranges: Vec<(u32, u32)> = rounds.iter().map(|&r| (0, r)).collect();
    run_interleaved_ranges(backends, &ranges, jobs_in_flight, planner, on_round);
}

/// [`run_interleaved`] over per-campaign **round ranges**: campaign
/// `c` contributes jobs for rounds `ranges[c].0 .. ranges[c].1`. This
/// is the churn-segment primitive — a caller applying topology deltas
/// between round segments runs one ranged batch per segment (the call
/// boundary is the barrier that keeps every in-flight window on one
/// epoch), with `(0, rounds)` ranges degenerating to exactly the
/// classic whole-campaign admission order.
pub fn run_interleaved_ranges<B, P, F>(
    backends: &[&B],
    ranges: &[(u32, u32)],
    jobs_in_flight: usize,
    planner: P,
    mut on_round: F,
) where
    B: MeasurementBackend + ?Sized,
    P: Fn(u32, u32) -> RoundPlan + Sync,
    F: FnMut(u32, CompletedRound),
{
    assert_eq!(
        backends.len(),
        ranges.len(),
        "one backend per campaign in the sweep"
    );
    let total_jobs: u32 = ranges.iter().map(|&(s, e)| e.saturating_sub(s)).sum();
    if total_jobs == 0 {
        return;
    }
    // Admission order: round-major across campaigns, so every campaign
    // of a sweep makes progress (and streams) from its first round
    // instead of campaigns running back to back. Rounds are absolute —
    // a segment's jobs carry their true campaign round numbers.
    let mut jobs: Vec<(u32, u32)> = Vec::with_capacity(total_jobs as usize);
    let max_end = ranges.iter().map(|&(_, e)| e).max().unwrap_or(0);
    for round in 0..max_end {
        for (campaign, &(start, end)) in ranges.iter().enumerate() {
            if start <= round && round < end {
                jobs.push((campaign as u32, round));
            }
        }
    }
    let coord = Coordination {
        jobs_in_flight: jobs_in_flight.max(1),
        width: rayon::current_num_threads().max(1),
        queue: Mutex::new(Queue {
            items: VecDeque::new(),
            next_job: 0,
            alive: 0,
            opening: 0,
            live: 0,
            aborted: false,
        }),
        slots: (0..total_jobs).map(|_| Mutex::new(None)).collect(),
        done: Mutex::new(DoneState {
            completed: VecDeque::new(),
            aborted: false,
        }),
        done_cv: Condvar::new(),
        jobs,
    };

    // The workers are drain tasks on the process pool; the
    // coordinator stays on the calling thread.
    let work = |tasks: &Spawner| worker(backends, &planner, &coord, tasks);
    rayon::task_scope(&work, |tasks| {
        coord.push(tasks, |q| coord.admit(q));
        // Coordinator: drain completed jobs as they land. The guard
        // keeps a panic in `on_round` from leaving workers running.
        let guard = AbortGuard(&coord);
        let mut seen = 0u32;
        while seen < total_jobs {
            let (campaign, bundle) = {
                let mut d = coord.done.lock().expect("done lock");
                loop {
                    assert!(!d.aborted, "sharded worker panicked");
                    if let Some(b) = d.completed.pop_front() {
                        break b;
                    }
                    d = coord.done_cv.wait(d).expect("done lock");
                }
            };
            seen += 1;
            on_round(campaign, bundle);
            // The round's stage buffers were freed on pool threads,
            // into their arenas: hand those pages back.
            rayon::release_free_memory();
        }
        drop(guard);
    });
}

/// A drain task: pull items and do the work, advancing each job's
/// state machine when its stage drains, until the queue is empty.
fn worker<B, P>(backends: &[&B], planner: &P, coord: &Coordination, tasks: &Spawner)
where
    B: MeasurementBackend + ?Sized,
    P: Fn(u32, u32) -> RoundPlan + Sync,
{
    let _guard = AbortGuard(coord);
    let mut out: Vec<Option<f64>> = Vec::new();
    loop {
        let item = {
            let mut q = coord.queue.lock().expect("queue lock");
            let item = if q.aborted { None } else { q.items.pop_front() };
            let Some(item) = item else {
                // Whoever enqueues next sees one task fewer and
                // queues another.
                q.live -= 1;
                return;
            };
            let tele = telemetry::global();
            if tele.enabled() {
                tele.queue_depth().set(q.items.len() as i64);
            }
            item
        };
        match item {
            Item::Plan(job) => {
                let (campaign, round) = coord.jobs[job as usize];
                let tele = telemetry::global();
                if tele.enabled() {
                    tele.jobs_in_flight().add(1);
                }
                let plan = {
                    let _span = tele.span_for(Stage::Plan, campaign, round);
                    planner(campaign, round)
                };
                debug_assert_eq!(plan.round, round, "planner must plan the asked round");
                let direct_tasks = plan.direct_tasks();
                let n = direct_tasks.len();
                *coord.slots[job as usize].lock().expect("slot lock") = Some(JobState {
                    plan,
                    overlay: None,
                    direct: vec![None; n],
                    reverse: Vec::new(),
                    links: Vec::new(),
                    remaining: n,
                    in_tail: false,
                    stage_started: (n > 0 && tele.enabled()).then(Instant::now),
                });
                enqueue_stage(coord, backends[campaign as usize], job, direct_tasks, tasks);
                // The direct stage is open (or empty): the next job may
                // plan and resolve while this one samples.
                coord.push(tasks, |q| {
                    q.opening -= 1;
                    coord.admit(q);
                });
                if n == 0 {
                    // Degenerate round with nothing to measure.
                    advance_job(coord, backends, job, tasks);
                }
            }
            Item::Chunk(range, work) => {
                // Measure outside any lock — this is the expensive
                // part — on the owning campaign's backend (its seed,
                // its faults, its ping accounting).
                let job = work.job;
                let backend = backends[coord.jobs[job as usize].0 as usize];
                out.clear();
                backend.measure_chunk(work.stage.as_deref(), &work.tasks, range.clone(), &mut out);
                // A short answer would leave `remaining` above zero
                // and the coordinator parked for ever: fail loudly.
                assert_eq!(out.len(), range.len(), "measure_chunk must fill its range");
                let kind = work.tasks[range.start].kind;
                // Not held across `advance_job`, which opens the next.
                drop(work);
                let mut slot = coord.slots[job as usize].lock().expect("slot lock");
                let st = slot.as_mut().expect("measured job is in flight");
                let results = match kind {
                    TaskKind::Direct => &mut st.direct,
                    TaskKind::Reverse => &mut st.reverse,
                    TaskKind::Overlay => &mut st.links,
                };
                results[range.clone()].copy_from_slice(&out);
                st.remaining -= range.len();
                let stage_drained = st.remaining == 0;
                drop(slot);
                if stage_drained {
                    advance_job(coord, backends, job, tasks);
                }
            }
        }
    }
}

/// Opens a stage on its campaign's backend and enqueues its chunks,
/// built before taking the queue lock every worker pops under.
fn enqueue_stage<B>(
    coord: &Coordination,
    backend: &B,
    job: u32,
    windows: Vec<MeasureTask>,
    tasks: &Spawner,
) where
    B: MeasurementBackend + ?Sized,
{
    if windows.is_empty() {
        return;
    }
    let stage = backend.open_stage(&windows);
    let work = Arc::new(StageWork {
        job,
        tasks: windows,
        stage,
    });
    let items: Vec<Item> = chunk_ranges(work.tasks.len())
        .map(|range| Item::Chunk(range, Arc::clone(&work)))
        .collect();
    coord.push(tasks, |q| q.enqueue(job, items));
}

/// Advances a job whose current stage has no outstanding windows:
/// direct → tail (reverse + overlay links), tail → complete. Runs on
/// the worker that landed the stage's last window.
fn advance_job<B>(coord: &Coordination, backends: &[&B], job: u32, tasks: &Spawner)
where
    B: MeasurementBackend + ?Sized,
{
    // A drained stage has no window in flight, so nobody else touches
    // the slot until this function refills or completes it: take the
    // state out and plan the tail without holding the lock.
    let slot = &coord.slots[job as usize];
    let mut st = slot
        .lock()
        .expect("slot lock")
        .take()
        .expect("advanced job is in flight");
    debug_assert_eq!(st.remaining, 0, "stage still has outstanding windows");

    let tele = telemetry::global();
    let (campaign_id, round) = coord.jobs[job as usize];
    if !st.in_tail {
        // Direct stage done: derive the tail from the complete direct
        // results with the same pure functions the serial loop uses.
        if let Some(start) = st.stage_started.take() {
            tele.record_stage(Stage::Sample, campaign_id, round, start);
        }
        let reverse_tasks = st.plan.reverse_tasks(&st.direct);
        let overlay = {
            let _span = tele.span_for(Stage::Plan, campaign_id, round);
            plan_overlay(&st.plan, &st.direct)
        };
        let link_tasks = overlay.link_tasks(&st.plan);
        st.reverse = vec![None; reverse_tasks.len()];
        st.links = vec![None; link_tasks.len()];
        st.remaining = reverse_tasks.len() + link_tasks.len();
        st.overlay = Some(overlay);
        st.in_tail = true;
        if st.remaining > 0 {
            st.stage_started = tele.enabled().then(Instant::now);
            *slot.lock().expect("slot lock") = Some(st);
            let backend = backends[campaign_id as usize];
            enqueue_stage(coord, backend, job, reverse_tasks, tasks);
            enqueue_stage(coord, backend, job, link_tasks, tasks);
            return;
        }
        // No tail windows at all: fall through to completion.
    }

    if let Some(start) = st.stage_started {
        tele.record_stage(Stage::Sample, campaign_id, round, start);
    }
    if tele.enabled() {
        tele.jobs_in_flight().sub(1);
    }
    let bundle = CompletedRound {
        overlay: st.overlay.expect("tail stage set the overlay plan"),
        plan: st.plan,
        direct: st.direct,
        reverse: st.reverse,
        links: st.links,
    };

    coord.push(tasks, |q| {
        q.alive -= 1;
        coord.admit(q);
    });

    // Deliver to the coordinator.
    coord
        .done
        .lock()
        .expect("done lock")
        .completed
        .push_back((campaign_id, bundle));
    coord.done_cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PlannedEndpoint, PlannedPair};
    use shortcuts_geo::{CityId, Continent, CountryCode, GeoPoint};
    use shortcuts_netsim::clock::SimTime;
    use shortcuts_netsim::HostId;
    use std::collections::{HashMap, HashSet};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc::RecvTimeoutError;
    use std::time::Duration;

    /// Deterministic synthetic backend: RTT from the task's own seed.
    struct SyntheticBackend {
        seed: u64,
        pings: AtomicU64,
    }

    impl SyntheticBackend {
        fn new(seed: u64) -> Self {
            SyntheticBackend {
                seed,
                pings: AtomicU64::new(0),
            }
        }
    }

    impl MeasurementBackend for SyntheticBackend {
        fn measure(&self, task: &MeasureTask) -> Option<f64> {
            self.pings.fetch_add(1, Ordering::Relaxed);
            let bits = task.rng_seed(self.seed);
            // A deterministic ~12% of windows fail.
            if bits.is_multiple_of(8) {
                return None;
            }
            Some((bits % 100_000) as f64 / 1000.0 + 1.0)
        }

        fn pings_sent(&self) -> u64 {
            self.pings.load(Ordering::Relaxed)
        }
    }

    /// A synthetic pure planner: `n` endpoints on a line, all pairs,
    /// alternating reverse flags, no relays (the tail is then reverse
    /// windows only — enough to exercise both stages).
    fn planner(round: u32) -> RoundPlan {
        let n = 3 + (round as usize % 3);
        let endpoints: Vec<PlannedEndpoint> = (0..n)
            .map(|i| PlannedEndpoint {
                host: HostId(round * 100 + i as u32),
                country: CountryCode::new("US").unwrap(),
                city: CityId(0),
                continent: Continent::NorthAmerica,
                location: GeoPoint::new(0.0, f64::from(i as u32)).unwrap(),
            })
            .collect();
        let mut pairs = Vec::new();
        for src in 0..n {
            for dst in (src + 1)..n {
                pairs.push(PlannedPair {
                    src,
                    dst,
                    reverse: (src + dst) % 2 == 0,
                });
            }
        }
        RoundPlan {
            round,
            t0: SimTime(f64::from(round)),
            endpoints,
            pairs,
            relays: Vec::new(),
        }
    }

    /// One campaign through the scheduler; rounds in completion order.
    fn run_solo<B: MeasurementBackend>(
        backend: &B,
        rounds: u32,
        in_flight: usize,
    ) -> Vec<CompletedRound> {
        let mut done = Vec::new();
        run_interleaved(
            &[backend],
            &[rounds],
            in_flight,
            |_, round| planner(round),
            |_, r| done.push(r),
        );
        done
    }

    fn run(rounds: u32, in_flight: usize) -> Vec<CompletedRound> {
        run_solo(&SyntheticBackend::new(11), rounds, in_flight)
    }

    #[test]
    fn completes_every_round_exactly_once() {
        for in_flight in [1, 2, 8, 100] {
            let mut done = run(7, in_flight);
            assert_eq!(done.len(), 7);
            done.sort_by_key(|r| r.plan.round);
            for (i, r) in done.iter().enumerate() {
                assert_eq!(r.plan.round, i as u32);
                assert_eq!(r.direct.len(), r.plan.pairs.len());
                assert_eq!(r.links.len(), r.overlay.needed.len());
            }
        }
    }

    #[test]
    fn sharded_results_match_a_direct_serial_evaluation() {
        let backend = SyntheticBackend::new(11);
        let mut done = run(6, 3);
        done.sort_by_key(|r| r.plan.round);
        for r in &done {
            let plan = planner(r.plan.round);
            let direct: Vec<Option<f64>> = plan
                .direct_tasks()
                .iter()
                .map(|t| backend.measure(t))
                .collect();
            assert_eq!(direct.len(), r.direct.len());
            for (a, b) in direct.iter().zip(&r.direct) {
                assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
            }
            let reverse: Vec<Option<f64>> = plan
                .reverse_tasks(&direct)
                .iter()
                .map(|t| backend.measure(t))
                .collect();
            assert_eq!(reverse.len(), r.reverse.len());
            for (a, b) in reverse.iter().zip(&r.reverse) {
                assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
            }
        }
    }

    #[test]
    fn reverse_windows_follow_the_forward_successes() {
        let done = run(5, 2);
        for r in &done {
            let expected = r
                .plan
                .pairs
                .iter()
                .zip(&r.direct)
                .filter(|(p, d)| p.reverse && d.is_some())
                .count();
            assert_eq!(r.reverse.len(), expected);
        }
    }

    #[test]
    fn zero_rounds_is_a_no_op() {
        assert!(run(0, 4).is_empty());
    }

    #[test]
    fn single_round_in_flight_still_pipelines_nothing_but_works() {
        let done = run(3, 1);
        // With one round in flight, completion order IS round order.
        let order: Vec<u32> = done.iter().map(|r| r.plan.round).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn worker_panic_propagates_instead_of_hanging() {
        // A panicking backend must surface as a panic from
        // run_interleaved — not a deadlock (workers stranded on the
        // condvar) and not a process abort (double panic in the
        // abort path on the poisoned mutex).
        struct PanicBackend;
        impl MeasurementBackend for PanicBackend {
            fn measure(&self, _: &MeasureTask) -> Option<f64> {
                panic!("backend exploded")
            }
            fn pings_sent(&self) -> u64 {
                0
            }
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_solo(&PanicBackend, 2, 2);
        }));
        assert!(outcome.is_err(), "the backend panic must propagate");
    }

    #[test]
    fn tail_open_stage_panic_propagates_instead_of_hanging() {
        // The tail stage is opened from `advance_job`, after the job
        // state was taken out of its slot and put back: a panic there
        // must unwind like any other worker panic.
        struct TailPanicBackend;
        impl MeasurementBackend for TailPanicBackend {
            fn measure(&self, _: &MeasureTask) -> Option<f64> {
                Some(1.0)
            }
            fn pings_sent(&self) -> u64 {
                0
            }
            fn open_stage(&self, tasks: &[MeasureTask]) -> Option<Arc<ResolvedStage>> {
                assert_eq!(tasks[0].kind, TaskKind::Direct, "tail stage exploded");
                None
            }
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_solo(&TailPanicBackend, 2, 2);
        }));
        assert!(outcome.is_err(), "the open_stage panic must propagate");
    }

    #[test]
    fn short_chunk_answer_panics_instead_of_hanging() {
        // One result too few would leave the stage's `remaining` above
        // zero for ever; the worker must refuse the answer.
        struct ShortBackend;
        impl MeasurementBackend for ShortBackend {
            fn measure(&self, _: &MeasureTask) -> Option<f64> {
                Some(1.0)
            }
            fn pings_sent(&self) -> u64 {
                0
            }
            fn measure_chunk(
                &self,
                _: Option<&ResolvedStage>,
                tasks: &[MeasureTask],
                range: Range<usize>,
                out: &mut Vec<Option<f64>>,
            ) {
                out.extend(tasks[range].iter().skip(1).map(|t| self.measure(t)));
            }
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_solo(&ShortBackend, 2, 2);
        }));
        assert!(outcome.is_err(), "the under-filled chunk must panic");
    }

    #[test]
    fn ping_counts_are_exact() {
        let backend = SyntheticBackend::new(3);
        let done = run_solo(&backend, 4, 4);
        let windows: u64 = done
            .iter()
            .map(|r| (r.direct.len() + r.reverse.len() + r.links.len()) as u64)
            .sum();
        assert_eq!(backend.pings_sent(), windows);
    }

    // ---- Two-level (multi-campaign) scheduling ------------------------

    /// Runs `seeds.len()` synthetic campaigns interleaved, returning
    /// each campaign's completed rounds sorted by round.
    fn run_batch(seeds: &[u64], rounds: &[u32], in_flight: usize) -> Vec<Vec<CompletedRound>> {
        let backends: Vec<SyntheticBackend> =
            seeds.iter().map(|&s| SyntheticBackend::new(s)).collect();
        let refs: Vec<&SyntheticBackend> = backends.iter().collect();
        let mut done: Vec<Vec<CompletedRound>> = seeds.iter().map(|_| Vec::new()).collect();
        run_interleaved(
            &refs,
            rounds,
            in_flight,
            |_, round| planner(round),
            |c, r| done[c as usize].push(r),
        );
        for rounds in &mut done {
            rounds.sort_by_key(|r| r.plan.round);
        }
        done
    }

    #[test]
    fn interleaved_campaigns_complete_all_their_rounds() {
        for in_flight in [1, 3, 64] {
            let done = run_batch(&[11, 22, 33], &[4, 2, 5], in_flight);
            assert_eq!(done[0].len(), 4);
            assert_eq!(done[1].len(), 2);
            assert_eq!(done[2].len(), 5);
            for campaign in &done {
                for (i, r) in campaign.iter().enumerate() {
                    assert_eq!(r.plan.round, i as u32);
                }
            }
        }
    }

    #[test]
    fn each_swept_campaign_is_bit_identical_to_running_it_alone() {
        // The sweep determinism contract at the scheduler level: a
        // campaign's rounds in a 3-campaign interleave match a solo
        // single-campaign run of the same seed, window for window.
        let seeds = [11u64, 22, 11]; // duplicate seed: identical twins
        let rounds = [3u32, 4, 3];
        let batch = run_batch(&seeds, &rounds, 5);
        for (c, &seed) in seeds.iter().enumerate() {
            let backend = SyntheticBackend::new(seed);
            let mut solo = run_solo(&backend, rounds[c], 2);
            solo.sort_by_key(|r| r.plan.round);
            assert_eq!(batch[c].len(), solo.len());
            for (a, b) in batch[c].iter().zip(&solo) {
                assert_eq!(a.plan.round, b.plan.round);
                for (x, y) in a.direct.iter().zip(&b.direct) {
                    assert_eq!(x.map(f64::to_bits), y.map(f64::to_bits));
                }
                for (x, y) in a.reverse.iter().zip(&b.reverse) {
                    assert_eq!(x.map(f64::to_bits), y.map(f64::to_bits));
                }
            }
        }
        // The twin campaigns agree with each other too.
        for (a, b) in batch[0].iter().zip(&batch[2]) {
            for (x, y) in a.direct.iter().zip(&b.direct) {
                assert_eq!(x.map(f64::to_bits), y.map(f64::to_bits));
            }
        }
    }

    #[test]
    fn windows_land_on_their_own_campaigns_backend() {
        // Per-campaign ping accounting: each backend's count must equal
        // its own campaign's windows, not a share of the pool's.
        let backends = [SyntheticBackend::new(1), SyntheticBackend::new(2)];
        let refs: Vec<&SyntheticBackend> = backends.iter().collect();
        let mut per_campaign = [0u64, 0];
        run_interleaved(
            &refs,
            &[3, 6],
            4,
            |_, round| planner(round),
            |c, r| {
                per_campaign[c as usize] +=
                    (r.direct.len() + r.reverse.len() + r.links.len()) as u64;
            },
        );
        assert_eq!(backends[0].pings_sent(), per_campaign[0]);
        assert_eq!(backends[1].pings_sent(), per_campaign[1]);
    }

    // ---- Admission -----------------------------------------------------

    /// What the recording backend and planner saw, in order.
    #[derive(Debug, Clone, Copy)]
    enum Event {
        /// Job `(campaign, round)` began planning.
        Plan(u32, u32),
        /// A stage of job `(campaign, round)` finished opening.
        Open(u32, u32, TaskKind),
        /// A chunk of job `(campaign, round)` measured this many windows.
        Measured(u32, u32, usize),
    }

    type Log = Arc<Mutex<Vec<Event>>>;

    /// Logs every stage it opens and every chunk it measures.
    struct RecordingBackend {
        campaign: u32,
        inner: SyntheticBackend,
        log: Log,
    }

    impl MeasurementBackend for RecordingBackend {
        fn measure(&self, task: &MeasureTask) -> Option<f64> {
            self.inner.measure(task)
        }

        fn pings_sent(&self) -> u64 {
            self.inner.pings_sent()
        }

        fn open_stage(&self, tasks: &[MeasureTask]) -> Option<Arc<ResolvedStage>> {
            // The admission invariants are checked on whatever
            // interleaving happens; the pause only widens the window in
            // which a wrongly admitted job would visibly plan.
            std::thread::sleep(Duration::from_millis(2));
            let t = &tasks[0];
            self.log
                .lock()
                .unwrap()
                .push(Event::Open(self.campaign, t.round, t.kind));
            None
        }

        fn measure_chunk(
            &self,
            _: Option<&ResolvedStage>,
            tasks: &[MeasureTask],
            range: Range<usize>,
            out: &mut Vec<Option<f64>>,
        ) {
            let round = tasks[range.start].round;
            out.extend(tasks[range.clone()].iter().map(|t| self.measure(t)));
            self.log
                .lock()
                .unwrap()
                .push(Event::Measured(self.campaign, round, range.len()));
        }
    }

    /// `planner`, except that every third round (1, 4, …) has no pairs
    /// and so no direct windows.
    fn planner_with_empty_rounds(round: u32) -> RoundPlan {
        let mut plan = planner(round);
        if round % 3 == 1 {
            plan.pairs.clear();
        }
        plan
    }

    /// Runs `rounds.len()` recording campaigns through the scheduler and
    /// returns the event log plus each job's window count.
    fn record_run(
        rounds: &[u32],
        jobs_in_flight: usize,
    ) -> (Vec<Event>, HashMap<(u32, u32), usize>) {
        let log: Log = Arc::default();
        let backends: Vec<RecordingBackend> = (0..rounds.len() as u32)
            .map(|campaign| RecordingBackend {
                campaign,
                inner: SyntheticBackend::new(u64::from(campaign) + 5),
                log: Arc::clone(&log),
            })
            .collect();
        let refs: Vec<&RecordingBackend> = backends.iter().collect();
        let mut windows = HashMap::new();
        run_interleaved(
            &refs,
            rounds,
            jobs_in_flight,
            |campaign, round| {
                log.lock().unwrap().push(Event::Plan(campaign, round));
                planner_with_empty_rounds(round)
            },
            |campaign, r| {
                let n = r.direct.len() + r.reverse.len() + r.links.len();
                windows.insert((campaign, r.plan.round), n);
            },
        );
        let events = log.lock().unwrap().clone();
        (events, windows)
    }

    #[test]
    fn a_job_is_admitted_only_once_the_previous_one_opened_its_direct_stage() {
        let all_rounds = [5u32, 3, 4];
        for campaigns in 1..=all_rounds.len() {
            let rounds = &all_rounds[..campaigns];
            for jobs_in_flight in [1, 2, 3, 8] {
                let case = format!("{campaigns} campaign(s), {jobs_in_flight} in flight");
                // A stalled admission would hang: fail in bounded time.
                let (tx, rx) = std::sync::mpsc::channel();
                let owned = rounds.to_vec();
                let run = std::thread::spawn(move || {
                    let recorded = record_run(&owned, jobs_in_flight);
                    let _ = tx.send(());
                    recorded
                });
                if let Err(RecvTimeoutError::Timeout) = rx.recv_timeout(Duration::from_secs(60)) {
                    panic!("{case}: a job was never admitted");
                }
                let (events, windows) = run
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));

                // Round-major admission order, as the scheduler builds it.
                let mut order = Vec::new();
                for round in 0..all_rounds[0] {
                    for (c, &n) in rounds.iter().enumerate() {
                        if round < n {
                            order.push((c as u32, round));
                        }
                    }
                }
                assert_eq!(windows.len(), order.len(), "{case}");
                assert!(
                    order
                        .iter()
                        .any(|&(_, r)| planner_with_empty_rounds(r).pairs.is_empty()),
                    "{case}: a round without direct windows is covered"
                );

                let mut planned = 0;
                let mut alive = 0usize;
                let mut measured: HashMap<(u32, u32), usize> = HashMap::new();
                let mut direct_opened = HashSet::new();
                for event in &events {
                    match *event {
                        Event::Plan(c, r) => {
                            assert_eq!((c, r), order[planned], "{case}: admission order");
                            if planned > 0 {
                                let prev = order[planned - 1];
                                assert!(
                                    direct_opened.contains(&prev)
                                        || planner_with_empty_rounds(prev.1).pairs.is_empty(),
                                    "{case}: {c}/{r} planned before {prev:?} opened its direct stage"
                                );
                            }
                            planned += 1;
                            alive += 1;
                            assert!(alive <= jobs_in_flight, "{case}: {alive} jobs alive");
                            if windows[&(c, r)] == 0 {
                                alive -= 1;
                            }
                        }
                        Event::Open(c, r, kind) => {
                            if kind == TaskKind::Direct {
                                direct_opened.insert((c, r));
                            }
                        }
                        Event::Measured(c, r, n) => {
                            let done = measured.entry((c, r)).or_default();
                            *done += n;
                            if *done == windows[&(c, r)] {
                                alive -= 1;
                            }
                        }
                    }
                }
                assert_eq!(planned, order.len(), "{case}");
                assert_eq!(alive, 0, "{case}");
            }
        }
    }

    #[test]
    fn the_queue_serves_the_oldest_job_first() {
        let chunk = |job: u32| {
            let work = Arc::new(StageWork {
                job,
                tasks: Vec::new(),
                stage: None,
            });
            Item::Chunk(0..1, work)
        };
        let mut q = Queue {
            items: VecDeque::new(),
            next_job: 0,
            alive: 0,
            opening: 0,
            live: 0,
            aborted: false,
        };
        q.enqueue(1, [chunk(1), chunk(1)]);
        q.items.push_back(Item::Plan(2));
        // Job 0's tail lands behind nothing younger; job 1's second
        // stage behind its first.
        q.enqueue(0, [chunk(0)]);
        q.enqueue(1, [chunk(1)]);
        q.enqueue(2, [chunk(2)]);
        let order: Vec<u32> = q.items.iter().map(Item::job).collect();
        assert_eq!(order, [0, 1, 1, 1, 2, 2]);
        assert!(matches!(q.items[4], Item::Plan(2)));
    }

    #[test]
    fn mismatched_backend_and_round_counts_panic() {
        let backend = SyntheticBackend::new(1);
        let refs: Vec<&SyntheticBackend> = vec![&backend];
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_interleaved(&refs, &[1, 1], 1, |_, round| planner(round), |_, _| {});
        }));
        assert!(outcome.is_err());
    }
}
