//! Execution layer of the measurement engine: backends and the
//! serial/parallel task executor.
//!
//! A [`MeasureTask`] names one §2.5 ping window — `(round, src, dst,
//! start, kind)` — and nothing else. Each task derives its own RNG from
//! `(campaign seed, round, src, dst, kind)` via a SplitMix64 chain, so
//! a task's outcome depends only on its identity, never on how many
//! tasks ran before it or on which thread. That order-independence is
//! what lets [`execute`] fan tasks across cores with results
//! bit-identical to a serial run.
//!
//! [`MeasurementBackend`] abstracts *how* a window is measured. The
//! in-repo implementation is [`NetsimBackend`] (the netsim ping
//! engine); recorded-trace or analytical backends can slot in without
//! touching planning or stitching.
//!
//! Both executors — [`execute`] and the [`crate::shard`] scheduler —
//! measure a stage as one [`MeasurementBackend::open_stage`] plus a
//! [`MeasurementBackend::measure_chunk`] per `KERNEL_CHUNK` windows.
//! [`NetsimBackend`] resolves the stage's pair set into one block on
//! opening and samples chunks from it, so the pair cache is probed
//! once per *stage*: a window never re-expands a pair a memory budget
//! evicted since, and results cannot tell — the block is a snapshot of
//! the stage's epoch.

use crate::measure::{window_median, with_reply_scratch, WindowConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use shortcuts_netsim::clock::SimTime;
use shortcuts_netsim::{HostId, PairBlock, PingHandle, SampleTally};
use shortcuts_telemetry as telemetry;
use shortcuts_telemetry::Stage;
use std::ops::Range;
use std::sync::Arc;

/// Windows per chunk, the unit both executors schedule. Large enough
/// to amortize scheduling and the per-chunk stats flush down to noise,
/// small enough that a stage of a few thousand windows still splits
/// across every core.
pub(crate) const KERNEL_CHUNK: usize = 64;

/// The chunk ranges that tile a stage of `n` windows, in order.
pub(crate) fn chunk_ranges(n: usize) -> impl Iterator<Item = Range<usize>> {
    let chunk = move |start: usize| start..(start + KERNEL_CHUNK).min(n);
    (0..n).step_by(KERNEL_CHUNK).map(chunk)
}

/// A stage [`NetsimBackend`] has opened: its pair block and the block
/// row of every task, aligned with the stage's task list.
pub struct ResolvedStage {
    block: PairBlock,
    slots: Vec<u32>,
}

/// What a measurement window is for (part of the task's RNG identity:
/// a direct pair and an overlay link between the same two hosts get
/// independent noise, as two real windows would).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Direct RAE-pair window (§2.5 step 2).
    Direct,
    /// Reverse direction of a direct pair (symmetry check).
    Reverse,
    /// Endpoint↔relay overlay link (§2.5 step 4).
    Overlay,
}

/// One independently measurable ping window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasureTask {
    /// Campaign round the window belongs to.
    pub round: u32,
    /// Pinging host.
    pub src: HostId,
    /// Pinged host.
    pub dst: HostId,
    /// Window start time.
    pub start: SimTime,
    /// Purpose of the window.
    pub kind: TaskKind,
}

impl MeasureTask {
    /// The task's RNG seed: a SplitMix64 chain over the campaign seed
    /// and the task identity. Uniqueness of the tuple ⇒ independence
    /// of the stream; identity of the tuple ⇒ reproducibility.
    pub fn rng_seed(&self, campaign_seed: u64) -> u64 {
        let kind = match self.kind {
            TaskKind::Direct => 0u64,
            TaskKind::Reverse => 1,
            TaskKind::Overlay => 2,
        };
        let mut h = splitmix64(campaign_seed ^ 0x434F_4C4F_5348_4354); // "COLOSHCT"
        for v in [
            u64::from(self.round),
            u64::from(self.src.0),
            u64::from(self.dst.0),
            kind,
        ] {
            h = splitmix64(h ^ v);
        }
        h
    }

    /// The derived per-task RNG.
    pub fn rng(&self, campaign_seed: u64) -> StdRng {
        StdRng::seed_from_u64(self.rng_seed(campaign_seed))
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A source of window measurements. `Sync` because the executor shares
/// one backend across worker threads.
pub trait MeasurementBackend: Sync {
    /// Measures one window: the median RTT in ms, or `None` when the
    /// window produced too few valid replies.
    fn measure(&self, task: &MeasureTask) -> Option<f64>;

    /// Total pings this backend has sent so far (diagnostics).
    fn pings_sent(&self) -> u64;

    /// Applies one churn batch to the world the backend measures on.
    /// Called between round segments, never concurrently with
    /// `measure`. The default is a no-op so trace/analytical backends
    /// that have no mutable world remain trivially correct.
    fn apply_delta(&self, _batch: &[shortcuts_topology::TopologyDelta]) {}

    /// Hands the backend a whole stage's task list before its windows
    /// are measured one by one, so shared state can be resolved in
    /// bulk (the netsim backend opens the stage and drops the handle,
    /// leaving the pair cache warm). A pure performance hook: results
    /// never depend on whether it ran, and the default is a no-op.
    fn prepare(&self, _tasks: &[MeasureTask]) {}

    /// Measures a whole task list, returning results in task order;
    /// `parallel` picks the rayon pool over the calling thread. The
    /// default opens the stage once and measures it chunk by chunk;
    /// any override must stay bit-identical to that — per-task RNG
    /// derivation makes it checkable.
    fn measure_batch(&self, tasks: &[MeasureTask], parallel: bool) -> Vec<Option<f64>> {
        let Some(first) = tasks.first() else {
            return Vec::new();
        };
        let stage = self.open_stage(tasks);
        let _span = telemetry::global().span_for(Stage::Sample, telemetry::NO_LABEL, first.round);
        let chunk = |range: &Range<usize>| {
            let mut out = Vec::with_capacity(range.len());
            self.measure_chunk(stage.as_deref(), tasks, range.clone(), &mut out);
            out
        };
        let ranges: Vec<Range<usize>> = chunk_ranges(tasks.len()).collect();
        let nested: Vec<Vec<Option<f64>>> = if parallel {
            ranges.par_iter().map(chunk).collect()
        } else {
            ranges.iter().map(chunk).collect()
        };
        nested.into_iter().flatten().collect()
    }

    /// Opens a stage: resolves once whatever its windows share and
    /// returns the handle each [`MeasurementBackend::measure_chunk`] of
    /// the stage is given back. The default prepares and has none.
    fn open_stage(&self, tasks: &[MeasureTask]) -> Option<Arc<ResolvedStage>> {
        self.prepare(tasks);
        None
    }

    /// Measures `tasks[range]` of the stage opened as `stage` from
    /// `tasks`, appending exactly `range.len()` results to `out` in
    /// task order — the [`crate::shard`] scheduler's unit of work. The
    /// default measures window by window.
    fn measure_chunk(
        &self,
        _stage: Option<&ResolvedStage>,
        tasks: &[MeasureTask],
        range: Range<usize>,
        out: &mut Vec<Option<f64>>,
    ) {
        out.extend(tasks[range].iter().map(|t| self.measure(t)));
    }
}

/// The netsim-backed implementation: each task runs one ping window
/// through the campaign's [`PingHandle`] with its own derived RNG.
///
/// The backend *owns* the handle — and through it co-owns the shared
/// engine — so it is self-contained and `'static`: the sweep scheduler
/// keeps one backend per campaign, all of them measuring on one
/// engine's pair cache, each counting its own pings and applying its
/// own fault plan.
pub struct NetsimBackend {
    handle: PingHandle,
    window: WindowConfig,
    campaign_seed: u64,
}

impl NetsimBackend {
    /// Wraps a campaign's engine handle as a backend.
    pub fn new(handle: PingHandle, window: WindowConfig, campaign_seed: u64) -> Self {
        NetsimBackend {
            handle,
            window,
            campaign_seed,
        }
    }

    /// The campaign's engine handle.
    pub fn handle(&self) -> &PingHandle {
        &self.handle
    }
}

impl MeasurementBackend for NetsimBackend {
    fn measure(&self, task: &MeasureTask) -> Option<f64> {
        let mut rng = task.rng(self.campaign_seed);
        // Batched single-task path: one cache lookup per window (not
        // per ping) and the thread's scratch buffer for replies. Only
        // per-window wrappers land here; both executors go through
        // `measure_chunk`.
        with_reply_scratch(|replies| {
            self.handle.sample_window(
                task.src,
                task.dst,
                task.start,
                self.window.pings,
                self.window.interval_secs,
                &mut rng,
                replies,
            );
            window_median(replies, self.window.min_valid)
        })
    }

    fn pings_sent(&self) -> u64 {
        self.handle.pings_sent()
    }

    fn apply_delta(&self, batch: &[shortcuts_topology::TopologyDelta]) {
        self.handle.engine().apply_delta(batch);
    }

    fn prepare(&self, tasks: &[MeasureTask]) {
        let _ = self.open_stage(tasks);
    }

    fn open_stage(&self, tasks: &[MeasureTask]) -> Option<Arc<ResolvedStage>> {
        if tasks.len() < 2 {
            // Too small for batching to buy anything.
            return None;
        }
        // Flat passes over the stage's whole pair set; the block is a
        // snapshot of the current epoch, which is exactly stage
        // semantics — churn applies between stages.
        let _span =
            telemetry::global().span_for(Stage::ResolvePairs, telemetry::NO_LABEL, tasks[0].round);
        let pairs: Vec<(HostId, HostId)> = tasks.iter().map(|t| (t.src, t.dst)).collect();
        let (block, slots) = self.handle.resolve_pairs_indexed(&pairs);
        Some(Arc::new(ResolvedStage { block, slots }))
    }

    /// The batched kernel: samples a chunk's windows from the stage
    /// block's SoA rows. A window is sub-microsecond, so per-window
    /// scheduling, cache probes and counter updates would be a
    /// measurable fraction of it: a chunk claims one scheduling slot,
    /// reuses one reply buffer and flushes one stats tally.
    fn measure_chunk(
        &self,
        stage: Option<&ResolvedStage>,
        tasks: &[MeasureTask],
        range: Range<usize>,
        out: &mut Vec<Option<f64>>,
    ) {
        let Some(stage) = stage else {
            out.extend(tasks[range].iter().map(|t| self.measure(t)));
            return;
        };
        let mut tally = SampleTally::default();
        with_reply_scratch(|replies| {
            let rows = tasks[range.clone()].iter().zip(&stage.slots[range]);
            out.extend(rows.map(|(task, &slot)| {
                let mut rng = task.rng(self.campaign_seed);
                self.handle.sample_window_block_tally(
                    &stage.block,
                    slot,
                    task.start,
                    self.window.pings,
                    self.window.interval_secs,
                    &mut rng,
                    replies,
                    &mut tally,
                );
                window_median(replies, self.window.min_valid)
            }));
        });
        self.handle.flush_tally(&tally);
    }
}

/// How the campaign schedules measurement windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One task after another on the calling thread. (A backend's
    /// batched pair *resolution* may still fork onto the process's
    /// worker pool — pin `RAYON_NUM_THREADS=1` for a strictly
    /// single-threaded run; results are bit-identical either way.)
    Serial,
    /// Data-parallel across all available cores, with a full barrier
    /// between a round's stages: a stage's windows are one fork onto
    /// the process's worker pool, which the calling thread waits out.
    /// The CLI no longer selects it; it stays because the perf
    /// ledger's traced pass drives [`execute`].
    Parallel,
    /// Round-sharded streaming pipeline: up to `rounds_in_flight`
    /// rounds are planned, measured and completed concurrently, with
    /// windows from different rounds interleaved on the process's
    /// worker pool so no core waits on another round's stage barrier
    /// (see [`crate::shard`]). No mode spawns threads: all of them run
    /// on the one pool the `rayon` crate starts on first use. All three
    /// modes produce bit-identical results for the same seed.
    ///
    /// The default ([`crate::CampaignConfig::paper`]) is
    /// `Sharded { rounds_in_flight: 2 }`.
    Sharded {
        /// Maximum rounds planned-but-not-completed at once. Bounds
        /// memory (plans and partial results alive concurrently) and
        /// streaming latency; values around the worker count saturate
        /// typical machines.
        rounds_in_flight: usize,
    },
}

/// Runs every task and returns results in task order. All modes
/// produce bit-identical output — the per-task RNG derivation makes
/// scheduling unobservable. `Sharded` governs the *round loop* (see
/// [`crate::shard`]); over a flat task list it degrades to
/// `Parallel`. Each stage goes through the backend's
/// [`MeasurementBackend::measure_batch`], so batched kernels see the
/// whole task list at once.
pub fn execute<B: MeasurementBackend + ?Sized>(
    backend: &B,
    tasks: &[MeasureTask],
    mode: ExecMode,
) -> Vec<Option<f64>> {
    match mode {
        ExecMode::Serial => backend.measure_batch(tasks, false),
        ExecMode::Parallel | ExecMode::Sharded { .. } => backend.measure_batch(tasks, true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A trivial trait implementation: RTT from the task identity's
    /// own RNG, loss for one src value. Exists to prove the trait is
    /// usable without netsim and to test the executor in isolation.
    struct SyntheticBackend {
        seed: u64,
        pings: AtomicU64,
    }

    impl MeasurementBackend for SyntheticBackend {
        fn measure(&self, task: &MeasureTask) -> Option<f64> {
            self.pings.fetch_add(1, Ordering::Relaxed);
            if task.src.0 == 13 {
                return None;
            }
            Some((task.rng_seed(self.seed) % 100_000) as f64 / 1000.0)
        }

        fn pings_sent(&self) -> u64 {
            self.pings.load(Ordering::Relaxed)
        }
    }

    fn tasks(n: u32) -> Vec<MeasureTask> {
        (0..n)
            .map(|i| MeasureTask {
                round: i / 10,
                src: HostId(i),
                dst: HostId(i + 1000),
                start: SimTime(f64::from(i)),
                kind: if i % 3 == 0 {
                    TaskKind::Direct
                } else if i % 3 == 1 {
                    TaskKind::Reverse
                } else {
                    TaskKind::Overlay
                },
            })
            .collect()
    }

    #[test]
    fn serial_and_parallel_agree_bitwise() {
        let backend = SyntheticBackend {
            seed: 7,
            pings: AtomicU64::new(0),
        };
        let ts = tasks(500);
        let serial = execute(&backend, &ts, ExecMode::Serial);
        let parallel = execute(&backend, &ts, ExecMode::Parallel);
        assert_eq!(serial.len(), 500);
        for (a, b) in serial.iter().zip(&parallel) {
            match (a, b) {
                (Some(x), Some(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                (None, None) => {}
                _ => panic!("serial {a:?} != parallel {b:?}"),
            }
        }
        assert_eq!(backend.pings_sent(), 1000);
    }

    #[test]
    fn task_seeds_are_distinct_across_identity() {
        let t = tasks(1)[0];
        let mut variants = vec![t];
        variants.push(MeasureTask {
            round: t.round + 1,
            ..t
        });
        variants.push(MeasureTask {
            src: HostId(t.src.0 + 1),
            ..t
        });
        variants.push(MeasureTask {
            dst: HostId(t.dst.0 + 1),
            ..t
        });
        variants.push(MeasureTask {
            kind: TaskKind::Overlay,
            ..t
        });
        let seeds: std::collections::HashSet<u64> =
            variants.iter().map(|v| v.rng_seed(99)).collect();
        assert_eq!(seeds.len(), variants.len(), "seed collision");
        // Campaign seed matters too.
        assert_ne!(t.rng_seed(1), t.rng_seed(2));
    }

    #[test]
    fn swapped_direction_gets_its_own_stream() {
        let t = tasks(1)[0];
        let rev = MeasureTask {
            src: t.dst,
            dst: t.src,
            ..t
        };
        assert_ne!(t.rng_seed(5), rev.rng_seed(5));
    }

    #[test]
    fn default_measure_batch_prepares_once_and_matches_execute() {
        struct PrepCounting {
            inner: SyntheticBackend,
            preps: AtomicU64,
        }
        impl MeasurementBackend for PrepCounting {
            fn measure(&self, task: &MeasureTask) -> Option<f64> {
                self.inner.measure(task)
            }
            fn pings_sent(&self) -> u64 {
                self.inner.pings_sent()
            }
            fn prepare(&self, tasks: &[MeasureTask]) {
                assert_eq!(tasks.len(), 100, "prepare must see the whole stage");
                self.preps.fetch_add(1, Ordering::Relaxed);
            }
        }
        let backend = PrepCounting {
            inner: SyntheticBackend {
                seed: 3,
                pings: AtomicU64::new(0),
            },
            preps: AtomicU64::new(0),
        };
        let ts = tasks(100);
        let serial = execute(&backend, &ts, ExecMode::Serial);
        assert_eq!(backend.preps.load(Ordering::Relaxed), 1);
        let parallel = execute(&backend, &ts, ExecMode::Parallel);
        assert_eq!(backend.preps.load(Ordering::Relaxed), 2);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_task_list_is_fine() {
        let backend = SyntheticBackend {
            seed: 1,
            pings: AtomicU64::new(0),
        };
        assert!(execute(&backend, &[], ExecMode::Parallel).is_empty());
    }
}
