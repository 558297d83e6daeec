//! The lane-affine work-stealing scheduler the hub serves from.
//!
//! The pre-multicore fleet drained one global `Mutex<VecDeque>` of
//! *global* device indices. That design has three scaling defects:
//! every worker contends on one lock, a popped batch mixes curve lanes
//! (fragmenting the one-inversion-per-batch and comb-amortization
//! contracts into per-lane sub-batches), and each pop allocates a
//! fresh `Vec`.
//!
//! [`LaneScheduler`] replaces it with per-lane chunked work queues:
//!
//! * each lane's jobs are pre-chunked at construction by
//!   [`chunk_plan`] — `batch_size` chunks with a **tapered tail**: the
//!   final stretch of a big lane is split into geometrically shrinking
//!   chunks (16,16,16,8,4,2,1,1 for a 64-job tail at `batch_size` 16),
//!   so the last claims of a drained fleet are shared among workers
//!   instead of the whole tail serializing behind whoever grabbed the
//!   final full chunk. A batch still **never crosses a lane** (debug
//!   asserted on every claim), and because the plan is a pure function
//!   of (lane size, batch size), chunk boundaries are identical for
//!   every worker count — batched crypto work is bit-for-bit the same
//!   at 1 thread and at 16;
//! * a claim is one `fetch_add` on the lane's chunk cursor — no lock,
//!   no allocation; the batch is handed off as a slot [`Range`], not a
//!   `Vec`;
//! * each cursor lives on its own cache line (`CachePadded`), so
//!   workers hammering different lanes never false-share;
//! * workers are pinned to a **home lane** (assigned greedily in
//!   proportion to lane size by [`LaneScheduler::home_lanes`]) and
//!   **steal whole chunks** from other lanes once home is drained — a
//!   big K-163 lane keeps every core busy instead of serializing
//!   behind drained small lanes, and a stolen chunk still never mixes
//!   lanes.
//!
//! Per-worker [`StealStats`] (home/stolen batch counts, served jobs,
//! integrated queue depth) are returned to the caller, which threads
//! them into the observability counters when telemetry is on.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pads (and aligns) its contents to 128 bytes — two 64-byte lines, so
/// adjacent cursors stay apart even under the adjacent-line prefetcher.
#[derive(Debug, Default)]
#[repr(align(128))]
struct CachePadded<T>(T);

/// Lanes with at least this many full-size chunks get a tapered tail;
/// smaller lanes keep plain fixed chunking (their whole queue *is*
/// tail, and halving it would just shrink every batch's crypto
/// amortization).
const TAPER_MIN_CHUNKS: usize = 8;

/// The taper begins once a lane's remaining jobs fit in this many
/// full-size chunks.
const TAPER_TAIL_CHUNKS: usize = 4;

/// Chunk-boundary plan for one lane: offsets such that chunk `i`
/// covers slots `plan[i]..plan[i+1]`.
///
/// Small lanes (< `TAPER_MIN_CHUNKS` chunks) are fixed-size. Big
/// lanes emit full `batch_size` chunks until the remainder fits in
/// `TAPER_TAIL_CHUNKS` full chunks, then halve: each tail chunk is
/// `min(batch_size, max(1, remaining/2))`. The last claims shrink
/// geometrically (16,16,16,8,4,2,1,1 for a 64-job tail at size 16),
/// so a drained lane's tail is shared by however many workers are
/// still hungry instead of serializing behind one. The plan is a pure
/// function of its arguments — the determinism backbone (bit-identical
/// batches at every worker count) survives the taper.
pub fn chunk_plan(jobs: usize, batch_size: usize) -> Vec<usize> {
    let chunk = batch_size.max(1);
    let mut starts = vec![0usize];
    if jobs == 0 {
        return starts;
    }
    let taper = jobs.div_ceil(chunk) >= TAPER_MIN_CHUNKS;
    let mut pos = 0usize;
    while pos < jobs {
        let remaining = jobs - pos;
        let step = if taper && remaining <= TAPER_TAIL_CHUNKS * chunk {
            chunk.min((remaining / 2).max(1))
        } else {
            chunk.min(remaining)
        };
        pos += step;
        starts.push(pos);
    }
    starts
}

/// One lane's chunked work queue: the precomputed chunk boundaries
/// ([`chunk_plan`]) plus one cache-padded claim cursor.
#[derive(Debug)]
struct LaneQueue {
    /// Jobs (device slots) in this lane.
    jobs: usize,
    /// Chunk start offsets; chunk `i` covers `starts[i]..starts[i+1]`.
    starts: Box<[usize]>,
    /// Total chunks: `starts.len() - 1`.
    chunks: usize,
    /// Next unclaimed chunk index. May race past `chunks`; claims
    /// compare against `chunks` so overshoot is harmless.
    head: CachePadded<AtomicUsize>,
}

/// One claimed batch: a contiguous slot range inside exactly one lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneBatch {
    /// The lane every slot in this batch belongs to.
    pub lane: usize,
    /// Lane-local device slots (contiguous; never crosses the lane).
    pub slots: Range<usize>,
    /// Whether this batch was stolen from a non-home lane.
    pub stolen: bool,
}

/// Per-worker scheduler telemetry, owned by the worker (no sharing, so
/// no false sharing) and folded into the run's counters afterwards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Batches claimed from the worker's home lane.
    pub home_batches: u64,
    /// Batches stolen from other lanes after home drained.
    pub stolen_batches: u64,
    /// Total jobs served across all claimed batches.
    pub jobs: u64,
    /// Sum over claims of the claimed lane's post-claim queue depth
    /// (in chunks); divided by total claims it gives the mean depth
    /// the scheduler was drained at.
    pub queue_depth_sum: u64,
}

impl StealStats {
    /// Total batches claimed (home + stolen).
    pub fn batches(&self) -> u64 {
        self.home_batches + self.stolen_batches
    }
}

/// The lane-affine work-stealing scheduler. See the module docs for
/// the design; the short version: per-lane chunk cursors, lock-free
/// allocation-free claims, whole-chunk steals across lanes.
#[derive(Debug)]
pub struct LaneScheduler {
    lanes: Box<[LaneQueue]>,
}

impl LaneScheduler {
    /// A scheduler over `lane_jobs[l]` jobs per lane, chunked by
    /// [`chunk_plan`] at `batch_size` (clamped to at least 1) with
    /// tapered ragged tails.
    pub fn new(lane_jobs: &[usize], batch_size: usize) -> Self {
        assert!(!lane_jobs.is_empty(), "scheduler needs at least one lane");
        let lanes = lane_jobs
            .iter()
            .map(|&jobs| {
                let starts: Box<[usize]> = chunk_plan(jobs, batch_size).into();
                LaneQueue {
                    jobs,
                    chunks: starts.len() - 1,
                    starts,
                    head: CachePadded(AtomicUsize::new(0)),
                }
            })
            .collect();
        Self { lanes }
    }

    /// Number of lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Total jobs across all lanes.
    pub fn total_jobs(&self) -> usize {
        self.lanes.iter().map(|l| l.jobs).sum()
    }

    /// Unclaimed chunks currently queued on `lane`.
    pub fn queue_depth(&self, lane: usize) -> usize {
        let q = &self.lanes[lane];
        q.chunks.saturating_sub(q.head.0.load(Ordering::Relaxed))
    }

    /// Jobs not yet claimed by any worker (snapshot; racy by nature).
    pub fn remaining(&self) -> usize {
        self.lanes
            .iter()
            .map(|q| {
                let head = q.head.0.load(Ordering::Relaxed).min(q.chunks);
                q.jobs - q.starts[head]
            })
            .sum()
    }

    /// Claim the next batch for a worker whose home lane is `home`:
    /// the home lane first, then cyclically probing the other lanes
    /// (whole-chunk steals). `None` means every lane is drained.
    pub fn next_batch(&self, home: usize, stats: &mut StealStats) -> Option<LaneBatch> {
        // lint: hot-path — the claim loop runs once per batch on every
        // worker; it must stay allocation-free (lane cursors and chunk
        // tables are laid out at build time).
        let n = self.lanes.len();
        for probe in 0..n {
            let lane = (home + probe) % n;
            let q = &self.lanes[lane];
            // Cheap pre-check keeps drained lanes read-only (no
            // cross-core cursor bouncing once a lane empties).
            if q.chunks == 0 || q.head.0.load(Ordering::Relaxed) >= q.chunks {
                continue;
            }
            let claimed = q.head.0.fetch_add(1, Ordering::Relaxed);
            if claimed >= q.chunks {
                continue; // lost the race for the lane's last chunk
            }
            let start = q.starts[claimed];
            let end = q.starts[claimed + 1];
            // The no-lane-crossing contract: a batch is a non-empty
            // slot range strictly inside its lane.
            debug_assert!(
                start < end && end <= q.jobs,
                "batch {start}..{end} escapes lane {lane} ({} jobs)",
                q.jobs
            );
            let stolen = probe != 0;
            if stolen {
                stats.stolen_batches += 1;
            } else {
                stats.home_batches += 1;
            }
            stats.jobs += (end - start) as u64;
            stats.queue_depth_sum += (q.chunks - claimed - 1) as u64;
            return Some(LaneBatch {
                lane,
                slots: start..end,
                stolen,
            });
        }
        None
        // lint: hot-path-end
    }

    /// Greedy proportional home-lane assignment for `workers` workers:
    /// each worker homes on the lane with the most jobs per already
    /// assigned worker, so big lanes get more workers while every lane
    /// with work tends to get at least one (steals cover the rest).
    pub fn home_lanes(&self, workers: usize) -> Vec<usize> {
        let mut assigned = vec![0usize; self.lanes.len()];
        (0..workers.max(1))
            .map(|_| {
                let mut best = 0usize;
                for (l, q) in self.lanes.iter().enumerate().skip(1) {
                    // jobs/(assigned+1) compared by cross-multiplication
                    // (exact); ties go to the lane with fewer workers so
                    // coverage spreads before lanes double up.
                    let lhs = q.jobs as u128 * (assigned[best] + 1) as u128;
                    let rhs = self.lanes[best].jobs as u128 * (assigned[l] + 1) as u128;
                    if lhs > rhs || (lhs == rhs && assigned[l] < assigned[best]) {
                        best = l;
                    }
                }
                assigned[best] += 1;
                best
            })
            .collect()
    }

    /// Spawn `workers` scoped worker threads over this scheduler, each
    /// pinned to its greedy home lane, and hand every thread its
    /// [`LaneWorker`] claim handle. The hub's batch and streaming
    /// drivers both serve through this one harness.
    pub fn run_workers<R, F>(&self, workers: usize, worker: F) -> Vec<R>
    where
        R: Send,
        F: Fn(LaneWorker<'_>) -> R + Sync,
    {
        let workers = workers.max(1);
        let homes = self.home_lanes(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let worker = &worker;
                    let home = homes[w];
                    scope.spawn(move || {
                        worker(LaneWorker {
                            sched: self,
                            index: w,
                            home,
                            stats: StealStats::default(),
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("lane worker panicked"))
                .collect()
        })
    }
}

/// One worker's claim handle: its index, home lane, and the stats its
/// claims accumulate (worker-owned, merged after the scope joins).
#[derive(Debug)]
pub struct LaneWorker<'a> {
    sched: &'a LaneScheduler,
    /// This worker's index (stable across the run; seeds its RNG).
    pub index: usize,
    /// The lane this worker drains before stealing.
    pub home: usize,
    stats: StealStats,
}

impl LaneWorker<'_> {
    /// Claim the next batch (home lane first, then steals).
    #[inline]
    pub fn next_batch(&mut self) -> Option<LaneBatch> {
        self.sched.next_batch(self.home, &mut self.stats)
    }

    /// The stats accumulated by this worker's claims so far.
    pub fn stats(&self) -> StealStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn lane_scheduler_chunks_never_cross_lanes() {
        let sizes = [10usize, 0, 33, 7];
        let s = LaneScheduler::new(&sizes, 8);
        assert_eq!(s.lane_count(), 4);
        assert_eq!(s.total_jobs(), 50);
        assert_eq!(s.remaining(), 50);
        let mut stats = StealStats::default();
        let mut seen: Vec<Vec<bool>> = sizes.iter().map(|&n| vec![false; n]).collect();
        while let Some(b) = s.next_batch(0, &mut stats) {
            assert!(b.slots.end <= sizes[b.lane], "batch escaped its lane");
            assert!(b.slots.len() <= 8);
            for slot in b.slots {
                assert!(!seen[b.lane][slot], "slot delivered twice");
                seen[b.lane][slot] = true;
            }
        }
        assert!(seen.iter().flatten().all(|&x| x));
        assert_eq!(stats.jobs, 50);
        // Chunk counts: ceil(10/8)+0+ceil(33/8)+ceil(7/8) = 2+0+5+1.
        assert_eq!(stats.batches(), 8);
        assert_eq!(s.remaining(), 0);
        assert_eq!(s.queue_depth(2), 0);
    }

    #[test]
    fn home_lane_assignment_is_proportional() {
        let s = LaneScheduler::new(&[4096, 64, 2048], 64);
        // 4 workers: lane0 (4096), lane2 (2048), lane0 (2048/worker
        // beats 2048/2), lane2 tie-break… greedy by jobs/(assigned+1).
        let homes = s.home_lanes(4);
        assert_eq!(homes.len(), 4);
        assert_eq!(homes[0], 0);
        assert_eq!(homes[1], 2);
        // Every worker homes on a lane that has work.
        assert!(homes.iter().all(|&h| [0usize, 2].contains(&h)));
        // One worker still reaches lane 1 by stealing.
        let mut stats = StealStats::default();
        let mut lanes_served = std::collections::HashSet::new();
        while let Some(b) = s.next_batch(homes[0], &mut stats) {
            lanes_served.insert(b.lane);
        }
        assert_eq!(lanes_served.len(), 3);
        assert!(stats.stolen_batches > 0);
    }

    #[test]
    fn skewed_lane_is_drained_by_stealing() {
        // The deliberately skewed fleet: one big lane (4096) and one
        // small (64). A worker homed on the small lane drains its 4
        // chunks (64 jobs < 8 chunks, so no taper), then steals every
        // big-lane chunk whole: 252 full chunks plus the 8-chunk
        // tapered tail = 260 steals.
        let s = LaneScheduler::new(&[4096, 64], 16);
        let mut stats = StealStats::default();
        let mut home_jobs = 0u64;
        let mut stolen_jobs = 0u64;
        while let Some(b) = s.next_batch(1, &mut stats) {
            if b.stolen {
                assert_eq!(b.lane, 0, "steals come from the big lane");
                stolen_jobs += b.slots.len() as u64;
            } else {
                assert_eq!(b.lane, 1);
                home_jobs += b.slots.len() as u64;
            }
        }
        assert_eq!(stats.home_batches, 4);
        assert_eq!(stats.stolen_batches, 260);
        assert_eq!(home_jobs, 64);
        assert_eq!(stolen_jobs, 4096);
        assert_eq!(stats.jobs, 4160);
    }

    #[test]
    fn tapered_tail_splits_the_last_chunks() {
        // ROADMAP item 1 residual: with fixed chunks, the last
        // `batch_size` jobs of a big lane are one chunk — one worker
        // serializes the tail while the others idle. The plan halves
        // the final 4-chunk region instead.
        let plan = chunk_plan(4096, 16);
        let sizes: Vec<usize> = plan.windows(2).map(|w| w[1] - w[0]).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 4096);
        assert_eq!(sizes.len(), 260);
        assert!(sizes[..252].iter().all(|&c| c == 16));
        assert_eq!(&sizes[252..], &[16, 16, 16, 8, 4, 2, 1, 1]);

        // Small lanes keep plain fixed chunking — halving a 5-chunk
        // queue would only shrink batch crypto amortization.
        assert_eq!(chunk_plan(33, 8), vec![0, 8, 16, 24, 32, 33]);
        assert_eq!(chunk_plan(0, 8), vec![0]);
        // Boundary case: exactly TAPER_MIN_CHUNKS chunks tapers.
        let sizes8: Vec<usize> = chunk_plan(64, 8).windows(2).map(|w| w[1] - w[0]).collect();
        assert_eq!(sizes8.iter().sum::<usize>(), 64);
        assert_eq!(&sizes8[..], &[8, 8, 8, 8, 8, 8, 8, 4, 2, 1, 1]);
    }

    #[test]
    fn steal_counter_regression_under_taper() {
        // The steal/home counters stay exact under the tapered plan:
        // total claims across any worker count equal the plan's chunk
        // count, and every claim is still a whole plan chunk (so the
        // `sched.*` counters perfbench reports remain comparable
        // across runs). 4096@16 → 260 chunks, 64@16 → 4 chunks.
        for workers in [1usize, 2, 4, 8] {
            let s = LaneScheduler::new(&[4096, 64], 16);
            let stats = s.run_workers(workers, |mut w| {
                while w.next_batch().is_some() {}
                w.stats()
            });
            let total_batches: u64 = stats.iter().map(StealStats::batches).sum();
            let total_jobs: u64 = stats.iter().map(|s| s.jobs).sum();
            assert_eq!(total_batches, 264, "{workers} workers");
            assert_eq!(total_jobs, 4160, "{workers} workers");
        }
    }

    #[test]
    fn run_workers_delivers_every_job_exactly_once() {
        for workers in [1usize, 2, 8, 16] {
            for sizes in [vec![977usize], vec![401, 128, 64, 16, 1]] {
                let s = LaneScheduler::new(&sizes, 8);
                let cells: Vec<Vec<AtomicUsize>> = sizes
                    .iter()
                    .map(|&n| (0..n).map(|_| AtomicUsize::new(0)).collect())
                    .collect();
                let stats = s.run_workers(workers, |mut w| {
                    while let Some(b) = w.next_batch() {
                        for slot in b.slots {
                            cells[b.lane][slot].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    w.stats()
                });
                for lane in &cells {
                    for c in lane {
                        assert_eq!(c.load(Ordering::Relaxed), 1, "{workers} workers");
                    }
                }
                let total: u64 = stats.iter().map(|s| s.jobs).sum();
                assert_eq!(total, sizes.iter().sum::<usize>() as u64);
                assert_eq!(s.remaining(), 0);
            }
        }
    }

    #[test]
    fn chunk_boundaries_are_identical_for_any_worker_count() {
        // The determinism backbone: the multiset of claimed batches is
        // a pure function of (lane sizes, batch size).
        let collect = |workers: usize| {
            let s = LaneScheduler::new(&[100, 37], 16);
            let mut batches = Mutex::new(Vec::new());
            s.run_workers(workers, |mut w| {
                while let Some(b) = w.next_batch() {
                    batches.lock().unwrap().push((b.lane, b.slots));
                }
            });
            let mut v = batches.get_mut().unwrap().clone();
            v.sort_by_key(|(lane, r)| (*lane, r.start));
            v
        };
        assert_eq!(collect(1), collect(4));
        assert_eq!(collect(1), collect(16));
    }
}
