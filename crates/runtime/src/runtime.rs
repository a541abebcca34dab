//! The sharded run-to-completion runtime.
//!
//! ```text
//!                    RSS-style header hash
//!  submit(batch) ──► dispatcher ──► SPSC ring ──► shard worker 0 ──┐
//!                        │ admission                (FlowCache +   │ scatter
//!                        │ policy ──► SPSC ring ──► shard worker 1 ├──────► rows +
//!                        │ (shed?)                     replicated  │        versions
//!                        └────────► SPSC ring ──► shard worker N ──┘
//!                                       ▲              ▲    │ heartbeat
//!                       SnapshotCell ◄──┼─ publish ─ control│plane
//!                      (RCU swaps)      │                   ▼
//!                                       └──────────── supervisor
//!                                        (respawn dead shards, re-route
//!                                         their in-flight batches)
//! ```
//!
//! * **Dispatcher** ([`RuntimeHandle::submit`]): hashes each header's
//!   field tuple (the software analogue of NIC RSS) so every packet of a
//!   flow lands on the same shard — which is what makes per-shard flow
//!   caches effective — and enqueues one job per shard, subject to the
//!   configured [`AdmissionPolicy`] (block, shed over occupancy, or
//!   deadline-aware shedding).
//! * **Workers**: run-to-completion loops, one per shard, optionally
//!   CPU-pinned. Each owns its ring's consumer end, its own
//!   [`FlowCache`] and its own replicated `Arc` snapshot of the lookup
//!   table — refreshed *between* jobs when the cell's version moved, so
//!   one job is always served under exactly one table generation. The
//!   per-packet path touches no locks: cache probe (worker-owned) and
//!   table walk (immutable snapshot) only. Every worker runs under an
//!   unwind boundary: a panic is caught, counted, and handed to the
//!   supervisor instead of aborting the process.
//! * **Supervisor** ([`crate::supervisor`]): detects worker death
//!   (thread liveness + the ring's `consumer_alive` signal) and stalls
//!   (frozen heartbeat with work pending), respawns dead shards with a
//!   fresh ring / snapshot reader / cache, and re-routes the dead ring's
//!   backlog plus the orphaned in-flight job — a [`Ticket`] never hangs
//!   on a crashed shard.
//! * **Control plane** ([`RuntimeHandle::add_rule`],
//!   [`RuntimeHandle::remove_rule`], [`RuntimeHandle::swap_table`]):
//!   mutates a private master copy, then publishes a cloned snapshot
//!   through the [`SnapshotCell`] — readers never block, and the
//!   publish version *is* every worker's cache epoch (unique and
//!   strictly monotone per table image), so stale memoised results die
//!   on the next lookup without any cache walking.
//!
//! Results come back as a [`ClassifiedBatch`]: the rows in input order
//! plus, per packet, the **version** of the table that served it — the
//! hook consistency harnesses use to check every answer against a
//! sequential oracle *at the generation it was served under*. Packets
//! that were shed (admission or deadline) or lost to a repeatedly
//! crashing shard report [`UNSERVED_VERSION`] instead of a real
//! generation: delivery is explicit, never implied.
//!
//! ## Failure model
//!
//! Every lock in the runtime recovers from poisoning (a panic on one
//! thread never cascades into `PoisonError` panics on others; each
//! recovery is counted in [`RuntimeTelemetry::poison_recoveries`]).
//! A worker panic costs at most its in-flight job a re-route; a job
//! that kills its shard [`MAX_REQUEUES`] times is completed unserved
//! rather than respawning forever. Shutdown drains every ring and
//! orphan slot and completes outstanding tickets unserved, so no waiter
//! is stranded.

use classifier_api::{
    Admission, BuildError, Classifier, DynamicClassifier, FlowCache, FxHasher, UpdateReport,
};
use offilter::Rule;
use oflow::HeaderValues;
use std::hash::Hasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{
    AtomicBool, AtomicU64,
    Ordering::{Relaxed, SeqCst},
};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::durability::{
    recover, replay_onto, DurabilityConfig, DurabilityCounters, DurableState, EscalationPolicy,
    RestoreReport,
};
use crate::pin::pin_to_cpu;
use crate::ring::{spsc, Consumer, Producer};
use crate::snapshot::{Snapshot, SnapshotCell};
use crate::telemetry::{
    DurabilityTelemetry, RuntimeTelemetry, ShardCounters, ShardTelemetry, TraceTelemetry,
};
use mtl_persist::{CheckpointMode, PersistError, Persistent, Store, WalOp, FLIGHT_LOG_MAX_BYTES};
use mtl_trace::{
    encode_flight_log, Event, EventKind, FlightRecorder, MetricPoint, SeriesRing, SpanOp,
};

#[cfg(feature = "fault-injection")]
use crate::fault::{CheckpointFault, Fault, FaultPlan};

/// The version reported for packets that were never classified: shed at
/// admission, expired past their deadline, stranded by shutdown, or
/// abandoned after [`MAX_REQUEUES`] shard crashes. Real snapshot
/// versions start at 1, so 0 is unambiguous.
pub const UNSERVED_VERSION: u64 = 0;

/// How many times the supervisor re-routes one job whose shard died
/// serving it before declaring the job poisonous and completing it
/// unserved (otherwise a deterministically crashing batch would respawn
/// the shard forever).
pub const MAX_REQUEUES: u8 = 3;

/// Locks `m`, recovering from a poisoned guard — the thread that
/// panicked while holding the lock already paid for the failure; later
/// accessors count the recovery and move on instead of cascading it.
fn lock_count<'a, T>(m: &'a Mutex<T>, recoveries: &AtomicU64) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|poisoned| {
        recoveries.fetch_add(1, Relaxed);
        poisoned.into_inner()
    })
}

/// What the dispatcher does when a shard's ring cannot take a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Back-pressure: spin (yielding) until the ring has space. No job
    /// is ever dropped; submitters absorb the overload.
    #[default]
    Block,
    /// Load shedding: a shard-job is rejected outright when its ring
    /// already holds `max_queued` jobs (clamped to ≥ 1) or is full. Shed
    /// packets resolve immediately as unserved
    /// ([`UNSERVED_VERSION`]) and are counted per shard.
    Shed {
        /// Jobs a shard's ring may hold before new ones are shed.
        max_queued: usize,
    },
    /// Deadline-aware shedding: submitters block while the deadline is
    /// reachable, then shed; workers additionally drop (as unserved) any
    /// job whose deadline already passed when they pick it up, so a
    /// stalled shard shed its queue instead of serving uselessly late.
    DeadlineShed {
        /// Per-batch service deadline, measured from `submit`.
        deadline: Duration,
    },
}

/// Shape of a [`Runtime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker shards (≥ 1; clamped up from 0).
    pub shards: usize,
    /// In-flight batch jobs each shard's ring holds before the
    /// dispatcher applies the admission policy.
    pub ring_capacity: usize,
    /// Per-shard flow-cache slots (0 disables caching; at most
    /// [`FlowCache::MAX_CAPACITY`], checked at construction).
    pub cache_capacity: usize,
    /// Admission policy of the per-shard caches.
    pub cache_admission: Admission,
    /// What `submit` does when a shard's ring is saturated.
    pub admission: AdmissionPolicy,
    /// Pin worker `i` to CPU `i` (best-effort; see [`crate::pin`]).
    pub pin_workers: bool,
    /// Thread-local allocation counter the workers sample around their
    /// per-packet serve loop (e.g. the bench harness's probe); the
    /// deltas surface as `hot_path_allocs` in telemetry and are
    /// required to be zero once warmed.
    pub alloc_counter: Option<fn() -> u64>,
    /// Whether the flight recorder runs (always-on by default; the
    /// only reason to turn it off is measuring the observability tax's
    /// baseline). Off, the runtime carries zero tracing work.
    pub flight_recorder: bool,
    /// Ring capacity per recorder lane, in events (rounded up to a
    /// power of two, clamped to
    /// [`mtl_trace::EVENTS_PER_LANE_MAX`]).
    pub trace_events_per_lane: usize,
    /// Cadence of the metrics sampler thread, which snapshots the
    /// runtime telemetry into an in-memory time series; `None` (the
    /// default) spawns no sampler. Requires the flight recorder.
    pub metrics_sampler: Option<Duration>,
    /// Samples the metrics time-series ring retains.
    pub metrics_series_capacity: usize,
    /// Deterministic fault schedule the runtime threads consult
    /// (chaos/fault-injection builds only).
    #[cfg(feature = "fault-injection")]
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl RuntimeConfig {
    /// Panics on a value no worker could start with. Checked on the
    /// constructing thread: inside a worker the panic would be caught
    /// and the supervisor would respawn the shard into it forever.
    fn assert_valid(&self) {
        assert!(
            self.cache_capacity <= FlowCache::MAX_CAPACITY,
            "RuntimeConfig::cache_capacity {} exceeds the flow cache's {}-slot ceiling",
            self.cache_capacity,
            FlowCache::MAX_CAPACITY
        );
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            shards: std::thread::available_parallelism().map_or(1, usize::from).min(8),
            ring_capacity: 64,
            cache_capacity: 1024,
            cache_admission: Admission::TinyLfu,
            admission: AdmissionPolicy::Block,
            pin_workers: true,
            alloc_counter: None,
            flight_recorder: true,
            trace_events_per_lane: mtl_trace::DEFAULT_EVENTS_PER_LANE,
            metrics_sampler: None,
            metrics_series_capacity: mtl_trace::DEFAULT_SERIES_CAPACITY,
            #[cfg(feature = "fault-injection")]
            fault_plan: None,
        }
    }
}

impl RuntimeConfig {
    /// The default configuration with an explicit shard count.
    #[must_use]
    pub fn with_shards(shards: usize) -> Self {
        Self { shards, ..Self::default() }
    }
}

/// One shard's portion of a submitted batch.
#[derive(Clone)]
pub(crate) struct Job {
    pub(crate) headers: Arc<[HeaderValues]>,
    /// Packet indices (into `headers`) this shard serves.
    pub(crate) idx: Vec<u32>,
    /// The shard this job was dispatched to (the reply dedup key: a
    /// batch has at most one job per shard).
    pub(crate) shard: u32,
    pub(crate) submitted: Instant,
    /// Service deadline under [`AdmissionPolicy::DeadlineShed`].
    pub(crate) deadline: Option<Instant>,
    /// Times the supervisor already re-routed this job after a crash.
    pub(crate) requeues: u8,
    pub(crate) reply: Arc<Reply>,
}

/// One shard's results for one batch.
pub(crate) struct Part {
    shard: u32,
    idx: Vec<u32>,
    rows: Vec<Option<u32>>,
    version: u64,
}

struct ReplyState {
    remaining: usize,
    /// Shards whose part already landed — the dedup set that makes a
    /// crash-window double completion (worker completed, died before
    /// clearing its in-flight slot, supervisor re-routed) harmless.
    done: Vec<u32>,
    parts: Vec<Part>,
}

/// Completion rendezvous between the shards serving one batch and the
/// ticket holder. Locked per *batch* (never per packet).
pub(crate) struct Reply {
    state: Mutex<ReplyState>,
    cv: Condvar,
    recoveries: Arc<AtomicU64>,
}

impl Reply {
    pub(crate) fn complete(&self, part: Part) {
        let mut st = lock_count(&self.state, &self.recoveries);
        if st.done.contains(&part.shard) {
            // A re-routed job whose original worker already completed
            // the part before dying: drop the duplicate.
            return;
        }
        st.done.push(part.shard);
        st.parts.push(part);
        st.remaining -= 1;
        if st.remaining == 0 {
            self.cv.notify_all();
        }
    }
}

/// Completes `job`'s reply part as unserved (every packet reports
/// [`UNSERVED_VERSION`]); optionally counted as shed on `counters`.
pub(crate) fn complete_unserved(counters: &ShardCounters, job: Job, count_shed: bool) {
    if count_shed {
        counters.shed_jobs.fetch_add(1, Relaxed);
        counters.shed_packets.fetch_add(job.idx.len() as u64, Relaxed);
    }
    let Job { idx, shard, reply, .. } = job;
    let rows = vec![None; idx.len()];
    reply.complete(Part { shard, idx, rows, version: UNSERVED_VERSION });
}

/// How a [`Ticket::wait_timeout`] resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitOutcome {
    /// Every shard delivered (some packets may still be unserved if
    /// they were shed — check [`ClassifiedBatch::delivered_count`]).
    Complete(ClassifiedBatch),
    /// The deadline passed with at least one shard still outstanding;
    /// the partial batch carries what arrived, missing packets report
    /// [`UNSERVED_VERSION`].
    Partial {
        /// Rows/versions for the packets that did arrive.
        batch: ClassifiedBatch,
        /// Packets whose shard had not delivered by the deadline.
        missing: usize,
    },
    /// The deadline passed before any shard delivered.
    Timeout,
}

/// An in-flight batch. [`Ticket::wait`] blocks until every shard
/// finished and reassembles the results in input order;
/// [`Ticket::wait_timeout`] bounds the wait.
#[must_use = "a ticket resolves to the batch's classifications"]
pub struct Ticket {
    reply: Arc<Reply>,
    len: usize,
    timeouts: Arc<AtomicU64>,
    recorder: Option<Arc<FlightRecorder>>,
}

impl Ticket {
    /// Waits for the batch and scatters the per-shard parts back into
    /// input order. The supervisor guarantees progress (dead shards are
    /// respawned and their jobs re-routed or completed unserved), so
    /// this resolves even across worker crashes.
    pub fn wait(self) -> ClassifiedBatch {
        let mut st = lock_count(&self.reply.state, &self.reply.recoveries);
        while st.remaining > 0 {
            st = self.reply.cv.wait(st).unwrap_or_else(|poisoned| {
                self.reply.recoveries.fetch_add(1, Relaxed);
                poisoned.into_inner()
            });
        }
        Self::assemble(&st.parts, self.len)
    }

    /// As [`Ticket::wait`], but gives up after `timeout`: the batch
    /// never blocks its consumer forever, whatever the shards are
    /// doing. A timed-out wait is counted in
    /// [`RuntimeTelemetry::ticket_timeouts`]; parts arriving after the
    /// timeout are dropped with the ticket.
    pub fn wait_timeout(self, timeout: Duration) -> WaitOutcome {
        let deadline = Instant::now() + timeout;
        let mut st = lock_count(&self.reply.state, &self.reply.recoveries);
        while st.remaining > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                self.timeouts.fetch_add(1, Relaxed);
                let missing: usize = self.len - st.parts.iter().map(|p| p.idx.len()).sum::<usize>();
                if let Some(r) = &self.recorder {
                    r.emit(r.control_lane(), EventKind::TicketTimeout, missing as u64, 0);
                }
                if st.parts.is_empty() {
                    return WaitOutcome::Timeout;
                }
                return WaitOutcome::Partial {
                    batch: Self::assemble(&st.parts, self.len),
                    missing,
                };
            }
            let (guard, _) = self.reply.cv.wait_timeout(st, left).unwrap_or_else(|poisoned| {
                self.reply.recoveries.fetch_add(1, Relaxed);
                poisoned.into_inner()
            });
            st = guard;
        }
        WaitOutcome::Complete(Self::assemble(&st.parts, self.len))
    }

    fn assemble(parts: &[Part], len: usize) -> ClassifiedBatch {
        let mut rows = vec![None; len];
        let mut versions = vec![UNSERVED_VERSION; len];
        for part in parts {
            for (k, &i) in part.idx.iter().enumerate() {
                rows[i as usize] = part.rows[k];
                versions[i as usize] = part.version;
            }
        }
        ClassifiedBatch { rows, versions }
    }
}

/// A served batch: per-packet rows (input order) and the table version
/// each packet was classified under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassifiedBatch {
    /// `rows[i]` is the classification of input header `i` (the same
    /// contract as [`Classifier::classify_batch`]); `None` for both
    /// genuine no-match and unserved packets — disambiguate with
    /// [`ClassifiedBatch::delivered`].
    pub rows: Vec<Option<u32>>,
    /// `versions[i]` is the snapshot version that served header `i`, or
    /// [`UNSERVED_VERSION`] if the packet was shed / expired / lost.
    pub versions: Vec<u64>,
}

impl ClassifiedBatch {
    /// Packets in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the batch was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Whether packet `i` was actually classified (as opposed to shed,
    /// expired, or lost to a crashing shard).
    #[must_use]
    pub fn delivered(&self, i: usize) -> bool {
        self.versions[i] != UNSERVED_VERSION
    }

    /// Packets that were actually classified.
    #[must_use]
    pub fn delivered_count(&self) -> usize {
        self.versions.iter().filter(|&&v| v != UNSERVED_VERSION).count()
    }

    /// Whether every packet was classified (nothing shed or lost).
    #[must_use]
    pub fn fully_delivered(&self) -> bool {
        self.delivered_count() == self.len()
    }
}

/// Producer-side doorbell: wakes a parked worker after a push. A
/// pending counter (not a bare notify) closes the check-then-park race;
/// the worker's bounded park ([`Doorbell::park`]'s timeout) additionally
/// bounds the damage of a *lost* notify (e.g. an injected drop) to one
/// timeout period instead of a hang.
pub(crate) struct Doorbell {
    pending: Mutex<u64>,
    cv: Condvar,
    recoveries: Arc<AtomicU64>,
}

impl Doorbell {
    pub(crate) fn new(recoveries: Arc<AtomicU64>) -> Self {
        Self { pending: Mutex::new(0), cv: Condvar::new(), recoveries }
    }

    pub(crate) fn ring(&self) {
        *lock_count(&self.pending, &self.recoveries) += 1;
        self.cv.notify_one();
    }

    /// Parks until rung or `timeout`; consumes any pending rings.
    pub(crate) fn park(&self, timeout: Duration) {
        let mut p = lock_count(&self.pending, &self.recoveries);
        if *p == 0 {
            let (guard, _) = self.cv.wait_timeout(p, timeout).unwrap_or_else(|poisoned| {
                self.recoveries.fetch_add(1, Relaxed);
                poisoned.into_inner()
            });
            p = guard;
        }
        *p = 0;
    }
}

/// Per-worker knobs the supervisor needs to rebuild a shard.
#[derive(Clone)]
pub(crate) struct WorkerSettings {
    pub(crate) pin: bool,
    pub(crate) cache_capacity: usize,
    pub(crate) cache_admission: Admission,
    pub(crate) alloc_counter: Option<fn() -> u64>,
    pub(crate) ring_capacity: usize,
}

/// State shared by the handle(s), the workers, the supervisor and the
/// runtime owner.
pub(crate) struct Shared<C> {
    pub(crate) cell: Arc<SnapshotCell<C>>,
    /// Control-plane master copy (`None` for data-plane-only runtimes
    /// built with [`Runtime::new`]).
    master: Mutex<Option<C>>,
    /// One lock per shard ring's producer end: the SPSC invariant needs
    /// submitters serialised *per shard*, and per-shard locks mean a
    /// full ring (back-pressure spin) on one shard never convoys
    /// submitters whose packets target other shards. The supervisor
    /// swaps a fresh ring in here when it respawns a shard.
    pub(crate) producers: Vec<Mutex<Producer<Job>>>,
    pub(crate) doorbells: Vec<Arc<Doorbell>>,
    pub(crate) counters: Vec<Arc<ShardCounters>>,
    /// The job each worker is currently serving (set before any
    /// fallible work, cleared after the reply completes): the
    /// supervisor's re-route source when the worker dies mid-batch.
    pub(crate) inflight: Vec<Mutex<Option<Job>>>,
    pub(crate) stop: AtomicBool,
    pub(crate) shards: usize,
    cache_capacity: usize,
    pub(crate) settings: WorkerSettings,
    admission: AdmissionPolicy,
    pub(crate) poison_recoveries: Arc<AtomicU64>,
    ticket_timeouts: Arc<AtomicU64>,
    /// Store-side state of a durable runtime (`None` for in-memory
    /// runtimes). Lock order: `master` is always taken before this.
    durable: Option<Mutex<DurableState<C>>>,
    /// Durability counters (always present; all-zero when not durable).
    pub(crate) durability: Arc<DurabilityCounters>,
    /// Rebuilds + republishes the master from the store. Boxed and
    /// type-erased here because it is constructed where the
    /// `Persistent + DynamicClassifier + Clone` bounds hold
    /// ([`Runtime::with_durability`]) but called from the generic
    /// supervisor.
    pub(crate) rebuild_master: Option<RebuildMaster<C>>,
    /// Set by [`RuntimeHandle::force_restore`], a fault plan's publish
    /// escalation, or the supervisor's restart-window trigger; consumed
    /// by the supervisor, which performs the runtime restore.
    pub(crate) restore_requested: AtomicBool,
    /// Raised while a restore tears the runtime down: workers of the
    /// current epoch park out at the loop top.
    pub(crate) quiesce: AtomicBool,
    /// Bumped once per completed runtime restore. A worker whose spawn
    /// epoch is older than the current one is a *zombie*: it drains
    /// whatever remains of its (already replaced) ring, then exits.
    pub(crate) run_epoch: AtomicU64,
    /// Escalation knobs (inert defaults when not durable).
    pub(crate) escalation: EscalationPolicy,
    /// The always-on flight recorder (`None` only when the config
    /// explicitly disabled it for tax measurement).
    pub(crate) recorder: Option<Arc<FlightRecorder>>,
    /// The metrics time series the sampler thread fills (empty and
    /// unused when no sampler is configured).
    pub(crate) series: Arc<SeriesRing>,
    /// Sampler cadence, kept for telemetry (None = sampler off).
    sampler_cadence: Option<Duration>,
    /// Events already drained from the rings for flight-log flushing,
    /// accumulated across flushes (a drain is destructive, so without
    /// this journal each flushed image would hold only the events since
    /// the previous flush). Bounded to what the flight-log region fits.
    flight_journal: Mutex<Vec<Event>>,
    #[cfg(feature = "fault-injection")]
    pub(crate) fault_plan: Option<Arc<FaultPlan>>,
}

impl<C> Shared<C> {
    pub(crate) fn lock_producer(&self, shard: usize) -> MutexGuard<'_, Producer<Job>> {
        lock_count(&self.producers[shard], &self.poison_recoveries)
    }

    pub(crate) fn lock_inflight(&self, shard: usize) -> MutexGuard<'_, Option<Job>> {
        lock_count(&self.inflight[shard], &self.poison_recoveries)
    }

    fn lock_master(&self) -> MutexGuard<'_, Option<C>> {
        lock_count(&self.master, &self.poison_recoveries)
    }

    /// Emits one flight-recorder event on a worker shard's lane
    /// (no-op with the recorder off — one branch).
    #[inline]
    pub(crate) fn trace_shard(&self, shard: usize, kind: EventKind, a: u64, b: u64) {
        if let Some(r) = &self.recorder {
            r.emit(r.shard_lane(shard), kind, a, b);
        }
    }

    /// Emits on the control-plane lane.
    #[inline]
    pub(crate) fn trace_control(&self, kind: EventKind, a: u64, b: u64) {
        if let Some(r) = &self.recorder {
            r.emit(r.control_lane(), kind, a, b);
        }
    }

    /// Emits on the durability lane.
    #[inline]
    fn trace_durability(&self, kind: EventKind, a: u64, b: u64) {
        if let Some(r) = &self.recorder {
            r.emit(r.durability_lane(), kind, a, b);
        }
    }

    /// Emits on the supervisor lane.
    #[inline]
    pub(crate) fn trace_supervisor(&self, kind: EventKind, a: u64, b: u64) {
        if let Some(r) = &self.recorder {
            r.emit(r.supervisor_lane(), kind, a, b);
        }
    }

    /// Opens a control-plane span (0 with the recorder off).
    fn span_begin(&self, op: SpanOp) -> u64 {
        self.recorder.as_ref().map_or(0, |r| r.span_begin(op))
    }

    /// Closes span `id` with the version the operation produced (0 for
    /// a failed operation); no-op for the recorder-off sentinel id 0.
    fn span_end(&self, id: u64, version: u64) {
        if id != 0 {
            if let Some(r) = &self.recorder {
                r.span_end(id, version);
            }
        }
    }

    /// Current durable checkpoint version (0 on in-memory runtimes).
    pub(crate) fn durable_snapshot_version(&self) -> u64 {
        self.durable.as_ref().map_or(0, |d| lock_count(d, &self.poison_recoveries).snapshot_version)
    }

    /// Flushes the recorder's timeline into the store's bounded
    /// `flight.log` region (checkpoint cadence, panic catch, restore).
    /// Best-effort: `false` when not durable, recorder off, or the
    /// write failed — forensics never block the dataplane.
    pub(crate) fn flush_flight_log(&self) -> bool {
        let Some(durable) = &self.durable else { return false };
        if self.recorder.is_none() {
            return false;
        }
        let mut d = lock_count(durable, &self.poison_recoveries);
        self.flush_flight_locked(&mut d)
    }

    /// As [`Shared::flush_flight_log`] with the durable lock already
    /// held (the checkpoint path flushes without re-taking it).
    fn flush_flight_locked(&self, d: &mut DurableState<C>) -> bool {
        let Some(recorder) = &self.recorder else { return false };
        // Draining the rings is destructive, so fold each drain into
        // the journal: every flushed image holds the full retained
        // timeline, not just the slice since the previous flush.
        let mut journal = lock_count(&self.flight_journal, &self.poison_recoveries);
        journal.extend(recorder.snapshot());
        // Concurrent emits around a drain can straddle two chunks:
        // re-sort so the persisted timeline stays time-ordered.
        journal.sort_by_key(|e| (e.ts_ns, e.lane, e.kind as u16));
        // Keep the newest events that fit the bounded region (32 B per
        // event + header/trailer); the oldest are the ones the ring
        // would overwrite next anyway.
        let max_events = (FLIGHT_LOG_MAX_BYTES - 24) / 32;
        if journal.len() > max_events {
            let excess = journal.len() - max_events;
            journal.drain(..excess);
        }
        let image = encode_flight_log(&journal);
        let bytes = image.len() as u64;
        match d.store.put_flight_log(&image) {
            Ok(()) => {
                recorder.count_flush();
                self.trace_durability(EventKind::FlightFlush, bytes, 0);
                true
            }
            Err(_) => false,
        }
    }

    /// Rings `shard`'s doorbell — unless a fault plan swallows it.
    pub(crate) fn ring_doorbell(&self, shard: usize) {
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = &self.fault_plan {
            if plan.on_notify(shard) {
                return;
            }
        }
        self.doorbells[shard].ring();
    }

    /// Publishes through the snapshot cell, honouring any scheduled
    /// publish fault: a pre-publish delay, a publish *storm* (the same
    /// new table republished a burst of extra times, so replica versions
    /// race ahead while contents stay fixed), or a raised restore flag.
    fn publish_table(&self, table: C) -> u64
    where
        C: Clone + Send + Sync,
    {
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = &self.fault_plan {
            let outcome = plan.on_publish();
            if let Some(delay) = outcome.delay {
                std::thread::sleep(delay);
            }
            for _ in 0..outcome.storm {
                self.cell.publish(table.clone());
            }
            if outcome.escalate {
                self.restore_requested.store(true, SeqCst);
            }
        }
        let version = self.cell.publish(table);
        self.trace_control(EventKind::Publish, version, 0);
        version
    }

    /// Write-ahead: durably appends `op` to the rule log *before* the
    /// master is mutated. `Err` means nothing reached the log — the
    /// caller must reject the update so the live table and the log never
    /// disagree. No-op (always `Ok`) on non-durable runtimes.
    fn wal_append(&self, op: &LoggedOp<'_>) -> Result<(), BuildError> {
        let Some(durable) = &self.durable else { return Ok(()) };
        let mut d = lock_count(durable, &self.poison_recoveries);
        let payload = match *op {
            LoggedOp::Add(rule) => WalOp::Add { kind: d.kind, rule: rule.clone() }.encode(),
            LoggedOp::Remove(rule_id) => WalOp::Remove { rule_id }.encode(),
        };
        #[cfg(feature = "fault-injection")]
        let cut = self.fault_plan.as_ref().and_then(|plan| plan.on_wal_append());
        #[cfg(not(feature = "fault-injection"))]
        let cut: Option<usize> = None;
        let rotated_before = d.store.stats().segments_rotated;
        let appended = match cut {
            Some(keep) => d.store.append_torn(&payload, keep),
            None => d.store.append(&payload),
        };
        match appended {
            Ok(seq) => {
                d.records_since += 1;
                self.durability.wal_appends.fetch_add(1, Relaxed);
                self.trace_durability(EventKind::WalAppend, seq, payload.len() as u64);
                let rotated = d.store.stats().segments_rotated;
                if rotated != rotated_before {
                    self.trace_durability(EventKind::WalRotate, rotated, 0);
                }
                Ok(())
            }
            Err(e) => {
                self.durability.wal_append_failures.fetch_add(1, Relaxed);
                Err(BuildError::InvalidConfig {
                    detail: format!("write-ahead append failed; update rejected: {e}"),
                })
            }
        }
    }

    /// Checkpoints `table` if the cadence is due (`force` overrides).
    /// Called with the master lock held; takes the durable lock inside
    /// (the runtime-wide lock order). Checkpoint failures are counted,
    /// never propagated: the WAL already holds every record, so a failed
    /// checkpoint only means a longer replay.
    fn maybe_checkpoint(&self, table: &C, force: bool) {
        let Some(durable) = &self.durable else { return };
        let mut d = lock_count(durable, &self.poison_recoveries);
        if !force && d.records_since < d.checkpoint_every {
            return;
        }
        let image = (d.encode)(table);
        #[cfg(feature = "fault-injection")]
        let mode = match self.fault_plan.as_ref().and_then(|plan| plan.on_checkpoint()) {
            Some(CheckpointFault::Torn { keep }) => CheckpointMode::Torn { keep },
            Some(CheckpointFault::SkipFsync) => CheckpointMode::SkipFsync,
            None => CheckpointMode::Durable,
        };
        #[cfg(not(feature = "fault-injection"))]
        let mode = CheckpointMode::Durable;
        d.snapshot_version += 1;
        let version = d.snapshot_version;
        // The watermark this checkpoint covers: every WAL record below
        // the next sequence number is folded into the image.
        let watermark = d.store.next_seq().saturating_sub(1);
        let gc_before = d.store.stats();
        self.trace_durability(EventKind::CheckpointStart, version, 0);
        match d.store.checkpoint(version, &image, mode) {
            Ok(_) => {
                // A torn or unsynced checkpoint still counts here — the
                // write-side cadence advanced; whether it *restores* is
                // the store's judgement at recovery time (it falls back
                // to the previous durable one, replaying more WAL).
                d.records_since = 0;
                self.durability.checkpoints.fetch_add(1, Relaxed);
                self.trace_durability(EventKind::CheckpointSuccess, version, watermark);
                // Only a genuinely durable checkpoint ends a WAL-only
                // degraded episode: an injected torn/unsynced image
                // would not survive a power cut.
                if matches!(mode, CheckpointMode::Durable)
                    && self.durability.degraded.swap(false, Relaxed)
                {
                    self.trace_durability(EventKind::DegradedExit, version, 0);
                }
                let gc_after = d.store.stats();
                if gc_after.gc_runs != gc_before.gc_runs {
                    self.trace_durability(
                        EventKind::GcPass,
                        gc_after.gc_segments_removed - gc_before.gc_segments_removed,
                        gc_after.gc_snapshots_removed - gc_before.gc_snapshots_removed,
                    );
                }
                // Checkpoint cadence is also the flight-log flush
                // cadence: the freshest pre-crash timeline a SIGKILL
                // post-mortem can rely on.
                self.flush_flight_locked(&mut *d);
            }
            Err(_) => {
                // Graceful degradation, not an error path: the WAL
                // already holds every acked record, so the control
                // plane keeps serving log-only and retries the
                // checkpoint at the next cadence interval. Roll the
                // version back so the retry does not burn numbers while
                // the disk is hostile.
                d.snapshot_version -= 1;
                self.durability.checkpoint_failures.fetch_add(1, Relaxed);
                self.trace_durability(EventKind::CheckpointFailure, version, 0);
                if !self.durability.degraded.swap(true, Relaxed) {
                    self.durability.degraded_episodes.fetch_add(1, Relaxed);
                    self.trace_durability(EventKind::DegradedEnter, 1, 0);
                }
            }
        }
    }
}

/// A control-plane mutation about to be write-ahead logged.
enum LoggedOp<'a> {
    Add(&'a Rule),
    Remove(u32),
}

/// RSS-style shard selection: hash of the header's full field tuple, so
/// one flow always lands on the same shard (cache affinity), uniform
/// across shards for distinct flows. Public so harnesses (and the
/// adversarial trace generators) can craft RSS-colliding traffic that
/// pins every packet onto one shard.
#[must_use]
pub fn shard_of(header: &HeaderValues, shards: usize) -> usize {
    let mut hasher = FxHasher::default();
    for &(field, value) in header.fields() {
        hasher.write_u32(field as u32);
        hasher.write_u64(value as u64);
        hasher.write_u64((value >> 64) as u64);
    }
    let x = hasher.finish();
    #[allow(clippy::cast_possible_truncation)]
    let mixed = (x ^ (x >> 32)) as usize;
    mixed % shards
}

/// Cloneable control + data handle onto a running [`Runtime`].
pub struct RuntimeHandle<C> {
    shared: Arc<Shared<C>>,
}

impl<C> Clone for RuntimeHandle<C> {
    fn clone(&self) -> Self {
        Self { shared: Arc::clone(&self.shared) }
    }
}

impl<C: Classifier + 'static> RuntimeHandle<C> {
    /// The current published table version.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.shared.cell.version()
    }

    /// The current published snapshot (control-plane path).
    #[must_use]
    pub fn latest(&self) -> Arc<Snapshot<C>> {
        self.shared.cell.latest()
    }

    /// Submits a batch for classification across the shards and returns
    /// immediately; [`Ticket::wait`] / [`Ticket::wait_timeout`] collect
    /// the results. Ring saturation is handled per the configured
    /// [`AdmissionPolicy`]: blocked, shed (those packets resolve
    /// immediately as unserved), or deadline-bounded.
    ///
    /// # Panics
    /// Panics if the runtime has been shut down.
    pub fn submit(&self, headers: Arc<[HeaderValues]>) -> Ticket {
        assert!(!self.shared.stop.load(SeqCst), "runtime is shut down");
        let n = headers.len();
        let shards = self.shared.shards;
        let mut idx: Vec<Vec<u32>> = vec![Vec::new(); shards];
        if shards == 1 {
            idx[0] = (0..u32::try_from(n).expect("batch fits u32 indices")).collect();
        } else {
            for (i, h) in headers.iter().enumerate() {
                idx[shard_of(h, shards)].push(u32::try_from(i).expect("batch fits u32 indices"));
            }
        }
        let live = idx.iter().filter(|l| !l.is_empty()).count();
        let reply = Arc::new(Reply {
            state: Mutex::new(ReplyState {
                remaining: live,
                done: Vec::with_capacity(live),
                parts: Vec::with_capacity(live),
            }),
            cv: Condvar::new(),
            recoveries: Arc::clone(&self.shared.poison_recoveries),
        });
        let submitted = Instant::now();
        let deadline = match self.shared.admission {
            AdmissionPolicy::DeadlineShed { deadline } => Some(submitted + deadline),
            AdmissionPolicy::Block | AdmissionPolicy::Shed { .. } => None,
        };
        for (shard, list) in idx.into_iter().enumerate() {
            if list.is_empty() {
                continue;
            }
            let job = Job {
                headers: Arc::clone(&headers),
                idx: list,
                shard: u32::try_from(shard).expect("shard fits u32"),
                submitted,
                deadline,
                requeues: 0,
                reply: Arc::clone(&reply),
            };
            self.dispatch(shard, job);
        }
        Ticket {
            reply,
            len: n,
            timeouts: Arc::clone(&self.shared.ticket_timeouts),
            recorder: self.shared.recorder.clone(),
        }
    }

    /// Enqueues one shard-job per the admission policy.
    fn dispatch(&self, shard: usize, mut job: Job) {
        let shared = &*self.shared;
        let packets = job.idx.len() as u64;
        if let AdmissionPolicy::Shed { max_queued } = shared.admission {
            let mut producer = shared.lock_producer(shard);
            let queued = producer.len();
            if queued >= max_queued.max(1) {
                drop(producer);
                shared.trace_shard(shard, EventKind::ShedJob, packets, queued as u64);
                complete_unserved(&shared.counters[shard], job, true);
                return;
            }
            match producer.push(job) {
                Ok(()) => {
                    let depth = producer.len();
                    drop(producer);
                    shared.trace_shard(shard, EventKind::BatchSubmit, packets, depth as u64);
                    shared.ring_doorbell(shard);
                }
                Err(back) => {
                    drop(producer);
                    shared.trace_shard(shard, EventKind::ShedJob, packets, queued as u64);
                    complete_unserved(&shared.counters[shard], back, true);
                }
            }
            return;
        }
        // Block / DeadlineShed: spin for space, releasing the producer
        // lock between attempts so the supervisor can swap the ring of a
        // dead shard out from under a spinning submitter (holding it
        // across the spin would deadlock respawn against back-pressure).
        loop {
            let mut producer = shared.lock_producer(shard);
            match producer.push(job) {
                Ok(()) => {
                    let depth = producer.len();
                    drop(producer);
                    shared.trace_shard(shard, EventKind::BatchSubmit, packets, depth as u64);
                    shared.ring_doorbell(shard);
                    return;
                }
                Err(back) => {
                    drop(producer);
                    job = back;
                    if let Some(deadline) = job.deadline {
                        if Instant::now() >= deadline {
                            shared.trace_shard(shard, EventKind::DeadlineShed, packets, 0);
                            complete_unserved(&shared.counters[shard], job, true);
                            return;
                        }
                    }
                    // Ring full: nudge the worker and retry.
                    shared.ring_doorbell(shard);
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Classifies one batch synchronously: submit + wait.
    ///
    /// # Panics
    /// See [`RuntimeHandle::submit`].
    #[must_use]
    pub fn classify_batch(&self, headers: &[HeaderValues]) -> ClassifiedBatch {
        self.submit(headers.to_vec().into()).wait()
    }

    /// Classifies one batch and returns only the rows — the exact
    /// [`Classifier::classify_batch`] contract, for oracle comparisons.
    ///
    /// # Panics
    /// See [`RuntimeHandle::submit`].
    #[must_use]
    pub fn classify_rows(&self, headers: &[HeaderValues]) -> Vec<Option<u32>> {
        self.classify_batch(headers).rows
    }

    /// Publishes a brand-new table, replacing whatever is being served
    /// **and** the control-plane master (single O(1) swap for readers).
    /// Returns the new version.
    pub fn swap_table(&self, table: C) -> u64
    where
        C: Clone,
    {
        let span = self.shared.span_begin(SpanOp::SwapTable);
        let mut master = self.shared.lock_master();
        *master = Some(table.clone());
        let version = self.shared.publish_table(table);
        // A whole-table swap is not expressible as WAL records, so on a
        // durable runtime it checkpoints immediately: the snapshot's
        // watermark fences off the pre-swap WAL tail.
        if let Some(t) = master.as_ref() {
            self.shared.maybe_checkpoint(t, true);
        }
        drop(master);
        self.shared.span_end(span, version);
        version
    }

    /// Adds one rule through the control plane: mutates the master copy
    /// off the hot path, then publishes a new snapshot. Returns the
    /// update report and the version at which the rule is visible.
    /// A master lock poisoned by an earlier panic is recovered (and
    /// counted), never propagated.
    ///
    /// # Errors
    /// [`BuildError::InvalidConfig`] when the runtime was built without
    /// a control-plane master ([`Runtime::new`] instead of
    /// [`Runtime::with_control`]), or when a durable runtime's
    /// write-ahead append fails (the update is rejected *before* the
    /// master is touched, so the live table and the log always agree);
    /// otherwise whatever the classifier's
    /// [`DynamicClassifier::insert_rule`] reports.
    pub fn add_rule(&self, rule: Rule) -> Result<(UpdateReport, u64), BuildError>
    where
        C: DynamicClassifier + Clone,
    {
        let span = self.shared.span_begin(SpanOp::AddRule);
        let result = self.add_rule_inner(rule);
        self.shared.span_end(span, result.as_ref().map_or(0, |&(_, v)| v));
        result
    }

    fn add_rule_inner(&self, rule: Rule) -> Result<(UpdateReport, u64), BuildError>
    where
        C: DynamicClassifier + Clone,
    {
        let mut master = self.shared.lock_master();
        if master.is_none() {
            return Err(BuildError::InvalidConfig {
                detail: "runtime has no control-plane master (built with Runtime::new; \
                         use Runtime::with_control)"
                    .into(),
            });
        }
        // Write-ahead: the rule reaches the durable log before the
        // master mutates. A torn append rejects the whole update.
        self.shared.wal_append(&LoggedOp::Add(&rule))?;
        let table = master.as_mut().expect("checked above");
        let report = table.insert_rule(rule)?;
        let version = self.shared.publish_table(table.clone());
        self.shared.maybe_checkpoint(table, false);
        Ok((report, version))
    }

    /// Removes a rule by id through the control plane; `None` when no
    /// such rule is stored. Returns the update report and the version at
    /// which the removal is visible.
    ///
    /// On a durable runtime the removal is write-ahead logged before the
    /// master mutates; a torn append rejects the removal (returns
    /// `None`, counted in the durability telemetry as an append
    /// failure). A logged removal of an id the table does not hold is a
    /// harmless no-op on replay.
    ///
    /// A runtime built without a control-plane master ([`Runtime::new`])
    /// refuses every removal: `None`, with nothing logged or published.
    pub fn remove_rule(&self, rule_id: u32) -> Option<(UpdateReport, u64)>
    where
        C: DynamicClassifier + Clone,
    {
        let span = self.shared.span_begin(SpanOp::RemoveRule);
        let result = self.remove_rule_inner(rule_id);
        self.shared.span_end(span, result.as_ref().map_or(0, |&(_, v)| v));
        result
    }

    fn remove_rule_inner(&self, rule_id: u32) -> Option<(UpdateReport, u64)>
    where
        C: DynamicClassifier + Clone,
    {
        let mut master = self.shared.lock_master();
        let table = master.as_mut()?;
        self.shared.wal_append(&LoggedOp::Remove(rule_id)).ok()?;
        let report = table.remove_rule(rule_id)?;
        let version = self.shared.publish_table(table.clone());
        self.shared.maybe_checkpoint(table, false);
        Some((report, version))
    }

    /// Snapshots every shard's counters.
    #[must_use]
    pub fn telemetry(&self) -> RuntimeTelemetry {
        let d = &self.shared.durability;
        // Brief durable-lock hold to snapshot the store's housekeeping
        // and on-disk sizes (same lock order as everywhere: no master
        // lock is held here).
        let store_view = self.shared.durable.as_ref().map(|durable| {
            let s = lock_count(durable, &self.shared.poison_recoveries);
            (s.store.stats(), s.store.disk_stats().unwrap_or_default())
        });
        RuntimeTelemetry {
            version: self.shared.cell.version(),
            shards: self.shared.shards,
            poison_recoveries: self.shared.poison_recoveries.load(Relaxed),
            ticket_timeouts: self.shared.ticket_timeouts.load(Relaxed),
            durability: store_view.map(|(stats, disk)| DurabilityTelemetry {
                wal_appends: d.wal_appends.load(Relaxed),
                wal_append_failures: d.wal_append_failures.load(Relaxed),
                checkpoints: d.checkpoints.load(Relaxed),
                checkpoint_failures: d.checkpoint_failures.load(Relaxed),
                runtime_restores: d.restores.load(Relaxed),
                restore_fallbacks: d.restore_fallbacks.load(Relaxed),
                restore_skipped_checkpoints: d.restore_skipped_checkpoints.load(Relaxed),
                wal_records_replayed: d.wal_replayed.load(Relaxed),
                run_epoch: self.shared.run_epoch.load(SeqCst),
                wal_bytes: disk.wal_bytes,
                wal_segments: disk.wal_segments,
                snapshots: disk.snapshots,
                snapshot_bytes: disk.snapshot_bytes,
                gc_runs: stats.gc_runs,
                gc_snapshots_removed: stats.gc_snapshots_removed,
                gc_segments_removed: stats.gc_segments_removed,
                tmp_cleaned: stats.tmp_cleaned,
                segments_rotated: stats.segments_rotated,
                degraded_episodes: d.degraded_episodes.load(Relaxed),
                degraded: d.degraded.load(Relaxed),
            }),
            trace: self.shared.recorder.as_ref().map(|r| TraceTelemetry {
                lanes: r.lane_count(),
                events_per_lane: r.events_per_lane(),
                events_recorded: r.events_recorded(),
                events_overwritten: r.events_overwritten(),
                flight_flushes: r.flushes(),
                sampler_samples: self.shared.series.total_samples(),
                sampler_capacity: if self.shared.sampler_cadence.is_some() {
                    self.shared.series.capacity()
                } else {
                    0
                },
            }),
            per_shard: self
                .shared
                .counters
                .iter()
                .enumerate()
                .map(|(s, c)| ShardTelemetry::capture(s, c, self.shared.cache_capacity))
                .collect(),
        }
    }

    /// Whether this runtime persists its control plane (built with
    /// [`Runtime::with_durability`]).
    #[must_use]
    pub fn durable(&self) -> bool {
        self.shared.durable.is_some()
    }

    /// The flight recorder, when enabled (the default). Shared so
    /// harnesses can drain or inspect the live timeline.
    #[must_use]
    pub fn flight_recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.shared.recorder.clone()
    }

    /// A drained, time-sorted snapshot of the flight-recorder timeline
    /// (empty with the recorder off).
    #[must_use]
    pub fn trace_events(&self) -> Vec<Event> {
        self.shared.recorder.as_ref().map_or_else(Vec::new, |r| r.snapshot())
    }

    /// The metrics time series the sampler has captured so far, oldest
    /// first (empty with the sampler off).
    #[must_use]
    pub fn metrics_series(&self) -> Vec<MetricPoint> {
        self.shared.series.snapshot()
    }

    /// Flushes the flight recorder into the store's `flight.log` region
    /// now (tests and orderly shutdowns; the runtime also flushes on
    /// checkpoint cadence, worker panics, and restores). `false` when
    /// not durable, the recorder is off, or the write failed.
    pub fn flush_flight_log(&self) -> bool {
        self.shared.flush_flight_log()
    }

    /// The current run epoch: 0 at start, +1 per completed runtime
    /// restore. Tests use the transition to await a restore.
    #[must_use]
    pub fn run_epoch(&self) -> u64 {
        self.shared.run_epoch.load(SeqCst)
    }

    /// Asks the supervisor to tear the runtime down and cold-start it
    /// from the latest good checkpoint + WAL tail (the escalation the
    /// restart-window trigger takes on its own). Returns `false` on a
    /// non-durable runtime, where there is nothing to restore from.
    /// Asynchronous: poll [`RuntimeHandle::run_epoch`] to observe
    /// completion.
    pub fn force_restore(&self) -> bool {
        if self.shared.rebuild_master.is_none() {
            return false;
        }
        self.shared.restore_requested.store(true, SeqCst);
        true
    }

    /// The master table serialized through its [`Persistent`] codec —
    /// the byte-level oracle the restore tests compare a recovered store
    /// against. `None` when the runtime is not durable or has no master.
    #[must_use]
    pub fn master_image(&self) -> Option<Vec<u8>> {
        let master = self.shared.lock_master();
        let table = master.as_ref()?;
        let durable = self.shared.durable.as_ref()?;
        let d = lock_count(durable, &self.shared.poison_recoveries);
        Some((d.encode)(table))
    }

    /// Forces a durable checkpoint of the current master now, regardless
    /// of cadence. Returns the checkpoint's version, or `None` on a
    /// non-durable runtime. Fault-plan checkpoint faults apply (that is
    /// what makes torn-checkpoint chaos scriptable).
    pub fn checkpoint_now(&self) -> Option<u64> {
        let master = self.shared.lock_master();
        let table = master.as_ref()?;
        self.shared.durable.as_ref()?;
        self.shared.maybe_checkpoint(table, true);
        let durable = self.shared.durable.as_ref()?;
        let d = lock_count(durable, &self.shared.poison_recoveries);
        Some(d.snapshot_version)
    }
}

/// The running dataplane: owns the supervisor thread, which in turn
/// owns the workers. Cheap handles ([`Runtime::handle`]) do the
/// talking; dropping the runtime stops and joins everything, and
/// completes any still-outstanding ticket as unserved so no waiter is
/// stranded.
pub struct Runtime<C: Classifier + 'static> {
    handle: RuntimeHandle<C>,
    supervisor: Option<std::thread::JoinHandle<()>>,
    sampler: Option<std::thread::JoinHandle<()>>,
}

impl<C: Classifier + 'static> Runtime<C> {
    /// Starts a data-plane-only runtime serving `classifier` (no
    /// control-plane master: [`RuntimeHandle::add_rule`] is unavailable,
    /// table replacement goes through [`SnapshotCell`]-level swaps of a
    /// runtime built [`Runtime::with_control`]).
    ///
    /// # Panics
    /// Panics if `config.cache_capacity` exceeds
    /// [`FlowCache::MAX_CAPACITY`]; the check runs here, before any
    /// worker starts.
    #[must_use]
    pub fn new(classifier: C, config: &RuntimeConfig) -> Self {
        Self::build(classifier, None, config, None)
    }

    /// Starts a runtime with a control plane: `classifier` is cloned
    /// into the published snapshot, the original becomes the mutable
    /// master behind [`RuntimeHandle::add_rule`] /
    /// [`RuntimeHandle::remove_rule`] / [`RuntimeHandle::swap_table`].
    ///
    /// # Panics
    /// Panics if `config.cache_capacity` exceeds
    /// [`FlowCache::MAX_CAPACITY`]; the check runs here, before any
    /// worker starts.
    #[must_use]
    pub fn with_control(classifier: C, config: &RuntimeConfig) -> Self
    where
        C: Clone,
    {
        let snapshot = classifier.clone();
        Self::build(snapshot, Some(classifier), config, None)
    }

    /// Starts a **durable** control-plane runtime backed by a
    /// [`Store`] in `durability.dir`: state is recovered as
    /// `decode(newest valid snapshot) + replay(WAL tail)` — `fallback`
    /// is used (and checkpointed as version 1) only when the store holds
    /// no usable checkpoint. Every subsequent
    /// [`RuntimeHandle::add_rule`] / [`RuntimeHandle::remove_rule`] is
    /// write-ahead logged before it touches the master, with a full
    /// checkpoint every [`DurabilityConfig::checkpoint_every`] records,
    /// and the supervisor escalates a broken runtime (restart storm, or
    /// an explicit [`RuntimeHandle::force_restore`]) to a whole-runtime
    /// cold start from that same recovery computation.
    ///
    /// Returns the runtime plus a [`RestoreReport`] describing what the
    /// boot recovery actually did.
    ///
    /// # Errors
    /// [`PersistError`] when the store cannot be opened, a recovered
    /// image does not decode, or the initial checkpoint of `fallback`
    /// cannot be written.
    ///
    /// # Panics
    /// Panics if `config.cache_capacity` exceeds
    /// [`FlowCache::MAX_CAPACITY`]; the check runs here, before the
    /// store is opened.
    pub fn with_durability(
        fallback: C,
        config: &RuntimeConfig,
        durability: &DurabilityConfig,
    ) -> Result<(Self, RestoreReport), PersistError>
    where
        C: DynamicClassifier + Persistent + Clone,
    {
        config.assert_valid();
        let mut store = match &durability.storage {
            Some(storage) => Store::open_with(&durability.dir, Arc::clone(storage))?,
            None => Store::open(&durability.dir)?,
        };
        store.set_segment_bytes(durability.wal_segment_bytes);
        store.set_retain_snapshots(durability.retain_snapshots);
        let (master, mut report) = match recover::<C>(&mut store)? {
            Some((table, report)) => (table, report),
            None => {
                // No decodable snapshot at all — but on a hostile disk
                // the WAL may still hold every acked record (every
                // checkpoint attempt failed while appends kept
                // succeeding). Replay the log onto the fallback so a
                // durably-acked rule is never lost to a missing image.
                let mut table = fallback;
                let records = store.wal_records()?;
                let (replayed, skipped) = replay_onto(&mut table, &records)?;
                let report = RestoreReport {
                    wal_replayed: replayed,
                    wal_skipped: skipped,
                    ..RestoreReport::default()
                };
                (table, report)
            }
        };
        report.wal_torn |= store.wal_was_torn_at_open();
        let mut state = DurableState {
            store,
            encode: encode_image_of::<C>,
            kind: durability.kind,
            snapshot_version: report.version,
            records_since: 0,
            checkpoint_every: durability.checkpoint_every.max(1),
        };
        // Make the boot state durable up front: a fresh store gets the
        // fallback as checkpoint 1; a store whose recovery replayed WAL
        // records gets a compacting checkpoint so the next cold start is
        // one decode with an empty tail. A *failed* boot checkpoint is
        // not fatal — the WAL (plus any older snapshot) already covers
        // the state, so the runtime comes up in WAL-only degraded mode
        // and retries at the next cadence interval.
        let mut boot_checkpoint_failed = false;
        if !report.restored || report.wal_replayed > 0 || report.wal_skipped > 0 {
            state.snapshot_version += 1;
            if state
                .store
                .checkpoint(state.snapshot_version, &master.encode_image(), CheckpointMode::Durable)
                .is_err()
            {
                state.snapshot_version -= 1;
                boot_checkpoint_failed = true;
            }
        }
        let escalation = EscalationPolicy {
            after: durability.escalate_after.max(1),
            window: durability.escalate_window,
            quiesce_timeout: durability.quiesce_timeout,
        };
        // Type-erased restore-time rebuild: constructed here, where the
        // `Persistent + DynamicClassifier + Clone` bounds hold, called
        // by the (bound-free) supervisor during a runtime restore. The
        // caller holds no runtime locks at that point.
        let rebuild: RebuildMaster<C> = Box::new(|shared| {
            let mut master = shared.lock_master();
            let Some(durable) = &shared.durable else { return };
            let mut d = lock_count(durable, &shared.poison_recoveries);
            match recover::<C>(&mut d.store) {
                Ok(Some((table, report))) => {
                    shared.durability.absorb_report(&report);
                    d.snapshot_version = d.snapshot_version.max(report.version);
                    let encode = d.encode;
                    // Write-ahead-before-mutate keeps the live master
                    // and the store in agreement, so an in-process
                    // restore normally recovers a byte-identical table:
                    // publishing it again would only burn a version on
                    // duplicate content. Publish only on divergence
                    // (i.e. the disk state moved under us) — directly
                    // through the cell (no fault-plan publish hooks)
                    // and under the master lock, which serializes every
                    // control-plane publish.
                    let identical =
                        master.as_ref().is_some_and(|live| encode(live) == encode(&table));
                    drop(d);
                    if !identical {
                        *master = Some(table.clone());
                        shared.cell.publish(table);
                    }
                    drop(master);
                }
                Ok(None) | Err(_) => {
                    // No usable checkpoint (or an undecodable image):
                    // crash-only still has to come back up, so keep the
                    // live master serving — the published snapshot is
                    // already in sync with it.
                    shared.durability.restore_fallbacks.fetch_add(1, Relaxed);
                }
            }
        });
        let snapshot = master.clone();
        let runtime = Self::build(
            snapshot,
            Some(master),
            config,
            Some(DurableParts { state, rebuild, escalation }),
        );
        runtime.handle.shared.durability.absorb_report(&report);
        runtime.handle.shared.trace_control(
            EventKind::Boot,
            report.version,
            report.wal_replayed as u64,
        );
        if boot_checkpoint_failed {
            let d = &runtime.handle.shared.durability;
            d.checkpoint_failures.fetch_add(1, Relaxed);
            d.degraded.store(true, Relaxed);
            d.degraded_episodes.fetch_add(1, Relaxed);
        }
        Ok((runtime, report))
    }

    fn build(
        classifier: C,
        master: Option<C>,
        config: &RuntimeConfig,
        durable: Option<DurableParts<C>>,
    ) -> Self {
        config.assert_valid();
        let shards = config.shards.max(1);
        let cell = Arc::new(SnapshotCell::new(classifier));
        let poison_recoveries = Arc::new(AtomicU64::new(0));
        let mut producers = Vec::with_capacity(shards);
        let mut consumers = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = spsc::<Job>(config.ring_capacity.max(1));
            producers.push(tx);
            consumers.push(rx);
        }
        let doorbells: Vec<Arc<Doorbell>> =
            (0..shards).map(|_| Arc::new(Doorbell::new(Arc::clone(&poison_recoveries)))).collect();
        let counters: Vec<Arc<ShardCounters>> =
            (0..shards).map(|_| Arc::new(ShardCounters::default())).collect();
        let is_durable = durable.is_some();
        let (durable_state, rebuild_master, escalation) = match durable {
            Some(parts) => (Some(Mutex::new(parts.state)), Some(parts.rebuild), parts.escalation),
            None => (None, None, EscalationPolicy::default()),
        };
        let recorder = config
            .flight_recorder
            .then(|| Arc::new(FlightRecorder::new(shards, config.trace_events_per_lane)));
        let shared = Arc::new(Shared {
            cell,
            master: Mutex::new(master),
            producers: producers.into_iter().map(Mutex::new).collect(),
            doorbells,
            counters,
            inflight: (0..shards).map(|_| Mutex::new(None)).collect(),
            stop: AtomicBool::new(false),
            shards,
            cache_capacity: config.cache_capacity,
            settings: WorkerSettings {
                pin: config.pin_workers,
                cache_capacity: config.cache_capacity,
                cache_admission: config.cache_admission,
                alloc_counter: config.alloc_counter,
                ring_capacity: config.ring_capacity.max(1),
            },
            admission: config.admission,
            poison_recoveries,
            ticket_timeouts: Arc::new(AtomicU64::new(0)),
            durable: durable_state,
            durability: Arc::new(DurabilityCounters::default()),
            rebuild_master,
            restore_requested: AtomicBool::new(false),
            quiesce: AtomicBool::new(false),
            run_epoch: AtomicU64::new(0),
            escalation,
            recorder,
            series: Arc::new(SeriesRing::new(config.metrics_series_capacity)),
            sampler_cadence: config.metrics_sampler,
            flight_journal: Mutex::new(Vec::new()),
            #[cfg(feature = "fault-injection")]
            fault_plan: config.fault_plan.clone(),
        });
        // Durable boots emit their Boot event from `with_durability`,
        // where the restore report (version + replay length) is known.
        if !is_durable {
            shared.trace_control(EventKind::Boot, 0, 0);
        }
        let workers = consumers
            .into_iter()
            .enumerate()
            .map(|(shard, consumer)| spawn_worker(&shared, shard, consumer))
            .collect();
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mtl-supervisor".into())
                .spawn(move || crate::supervisor::supervise(&shared, workers))
                .expect("spawning the supervisor")
        };
        let sampler = match (&shared.recorder, shared.sampler_cadence) {
            (Some(recorder), Some(cadence)) => {
                let recorder = Arc::clone(recorder);
                let handle = RuntimeHandle { shared: Arc::clone(&shared) };
                Some(
                    std::thread::Builder::new()
                        .name("mtl-sampler".into())
                        .spawn(move || sampler_loop(&handle, &recorder, cadence))
                        .expect("spawning the metrics sampler"),
                )
            }
            _ => None,
        };
        Self { handle: RuntimeHandle { shared }, supervisor: Some(supervisor), sampler }
    }

    /// A cloneable handle (control + data plane).
    #[must_use]
    pub fn handle(&self) -> RuntimeHandle<C> {
        self.handle.clone()
    }

    /// Stops the workers and joins them. Equivalent to dropping the
    /// runtime, as an explicit verb.
    pub fn shutdown(self) {}
}

impl<C: Classifier + 'static> std::ops::Deref for Runtime<C> {
    type Target = RuntimeHandle<C>;
    fn deref(&self) -> &Self::Target {
        &self.handle
    }
}

impl<C: Classifier + 'static> Drop for Runtime<C> {
    fn drop(&mut self) {
        let shared = &self.handle.shared;
        shared.stop.store(true, SeqCst);
        for bell in &shared.doorbells {
            bell.ring();
        }
        // The supervisor joins every worker before returning.
        if let Some(sup) = self.supervisor.take() {
            let _ = sup.join();
        }
        if let Some(sampler) = self.sampler.take() {
            let _ = sampler.join();
        }
        // Strand no waiter: complete whatever the shutdown cut off —
        // orphaned in-flight jobs and ring backlogs — as unserved.
        for shard in 0..shared.shards {
            if let Some(job) = shared.lock_inflight(shard).take() {
                complete_unserved(&shared.counters[shard], job, false);
            }
            let (dummy, _) = spsc::<Job>(1);
            let old = std::mem::replace(&mut *shared.lock_producer(shard), dummy);
            if let Ok(backlog) = old.recover() {
                for job in backlog {
                    complete_unserved(&shared.counters[shard], job, false);
                }
            }
        }
        // Orderly shutdowns leave a final flight-log image behind;
        // crashes rely on the panic/escalation/checkpoint flushes.
        shared.flush_flight_log();
    }
}

/// Restore-time master rebuild, type-erased so the bound-free
/// supervisor can call it (see [`Runtime::with_durability`]).
pub(crate) type RebuildMaster<C> = Box<dyn Fn(&Shared<C>) + Send + Sync>;

/// The durable pieces [`Runtime::with_durability`] threads into
/// [`Runtime::build`].
struct DurableParts<C> {
    state: DurableState<C>,
    rebuild: RebuildMaster<C>,
    escalation: EscalationPolicy,
}

/// [`Persistent::encode_image`] as a plain `fn` pointer — stored in
/// [`DurableState`] so the generic update paths can encode without a
/// `Persistent` bound.
fn encode_image_of<C: Persistent>(table: &C) -> Vec<u8> {
    table.encode_image()
}

/// Per-worker spawn parameters.
pub(crate) struct WorkerConfig {
    pub(crate) shard: usize,
    pub(crate) settings: WorkerSettings,
}

/// Spawns one shard worker thread (initial build and supervisor
/// respawns share this path).
pub(crate) fn spawn_worker<C: Classifier + 'static>(
    shared: &Arc<Shared<C>>,
    shard: usize,
    consumer: Consumer<Job>,
) -> std::thread::JoinHandle<()> {
    let cfg = WorkerConfig { shard, settings: shared.settings.clone() };
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("mtl-shard-{shard}"))
        .spawn(move || worker_entry(&cfg, &shared, consumer))
        .expect("spawning a shard worker")
}

/// The worker thread body: the run-to-completion loop under an unwind
/// boundary. A panic anywhere in the loop is caught and counted; the
/// thread then exits (dropping its ring consumer), which is the
/// supervisor's signal to respawn the shard and re-route whatever the
/// dead worker left behind (its recorded in-flight job + ring backlog).
fn worker_entry<C: Classifier + 'static>(
    cfg: &WorkerConfig,
    shared: &Arc<Shared<C>>,
    mut consumer: Consumer<Job>,
) {
    let result = catch_unwind(AssertUnwindSafe(|| worker_loop(cfg, shared, &mut consumer)));
    if result.is_err() {
        shared.counters[cfg.shard].panics.fetch_add(1, Relaxed);
        shared.trace_supervisor(EventKind::WorkerPanic, cfg.shard as u64, 0);
        // Crash forensics: persist the timeline that led up to the
        // panic now, while the evidence is still in the rings.
        shared.flush_flight_log();
    }
    // `consumer` drops here: `Producer::consumer_alive` turns false,
    // and `Producer::recover` becomes possible.
}

/// The metrics-sampler thread body: every `cadence` it folds a full
/// telemetry snapshot into one [`MetricPoint`] and pushes it into the
/// shared [`SeriesRing`]. Sleeps in short slices so shutdown never
/// waits out a long cadence.
fn sampler_loop<C: Classifier + 'static>(
    handle: &RuntimeHandle<C>,
    recorder: &FlightRecorder,
    cadence: Duration,
) {
    const SLICE: Duration = Duration::from_millis(20);
    let shared = &handle.shared;
    let mut ordinal = 0u64;
    let mut last = Instant::now();
    while !shared.stop.load(Relaxed) {
        std::thread::sleep(cadence.min(SLICE));
        if shared.stop.load(Relaxed) {
            break;
        }
        if last.elapsed() < cadence {
            continue;
        }
        last = Instant::now();
        let t = handle.telemetry();
        let packets: u64 = t.per_shard.iter().map(|s| s.packets).sum();
        let shed: u64 = t.per_shard.iter().map(|s| s.shed_packets).sum();
        let restarts: u64 = t.per_shard.iter().map(|s| s.restarts).sum();
        let hits: u64 = t.per_shard.iter().map(|s| s.cache.hits).sum();
        let lookups: u64 = t.per_shard.iter().map(|s| s.cache.hits + s.cache.misses).sum();
        let hit_rate = if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 };
        let (wal_appends, checkpoints) =
            t.durability.map_or((0, 0), |d| (d.wal_appends, d.checkpoints));
        shared.series.push(MetricPoint {
            ts_ns: recorder.now_ns(),
            values: vec![
                ("packets", packets as f64),
                ("hit_rate", hit_rate),
                ("shed_packets", shed as f64),
                ("restarts", restarts as f64),
                ("version", t.version as f64),
                ("wal_appends", wal_appends as f64),
                ("checkpoints", checkpoints as f64),
                ("ticket_timeouts", t.ticket_timeouts as f64),
            ],
        });
        recorder.emit(recorder.control_lane(), EventKind::SamplerTick, ordinal, 0);
        ordinal += 1;
    }
}

/// The run-to-completion shard loop. Per job: record it as in-flight
/// (crash insurance), refresh the replicated snapshot if the cell
/// moved, then serve every packet through the worker-owned cache and
/// the immutable table — no locks, and (once warmed) no heap
/// allocations inside the per-packet loop.
fn worker_loop<C: Classifier + 'static>(
    cfg: &WorkerConfig,
    shared: &Shared<C>,
    jobs: &mut Consumer<Job>,
) {
    let counters = Arc::clone(&shared.counters[cfg.shard]);
    let doorbell = Arc::clone(&shared.doorbells[cfg.shard]);
    if cfg.settings.pin {
        counters.pinned.store(pin_to_cpu(cfg.shard), SeqCst);
    }
    let reader = shared.cell.register("shard");
    let mut cache = (cfg.settings.cache_capacity > 0).then(|| {
        FlowCache::with_admission(cfg.settings.cache_capacity, cfg.settings.cache_admission)
    });
    if let Some(cache) = cache.as_ref() {
        // Seed the telemetry mirrors with the cache's effective
        // (rounding-aware) capacities before any traffic arrives.
        counters.record_cache(&cache.stats());
    }
    let mut snap = reader.load();
    let mut spins = 0u32;
    // The runtime epoch this worker belongs to. A restore bumps the
    // epoch *after* swapping in fresh rings; a worker that observes a
    // newer epoch is a zombie — its ring has already been replaced, so
    // it drains what remains (completing those replies; the per-shard
    // dedup and the deadline check keep that harmless) and exits.
    let my_epoch = shared.run_epoch.load(SeqCst);
    loop {
        // Liveness beat for the supervisor's stall detector.
        counters.heartbeat.fetch_add(1, Relaxed);
        // A restore in progress quiesces current-epoch workers at a job
        // boundary: park out here, before touching the next job.
        if shared.quiesce.load(SeqCst) && shared.run_epoch.load(SeqCst) == my_epoch {
            break;
        }
        let Some(job) = jobs.pop() else {
            if shared.stop.load(SeqCst) || shared.run_epoch.load(SeqCst) != my_epoch {
                break;
            }
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                counters.idle_parks.fetch_add(1, Relaxed);
                doorbell.park(Duration::from_millis(1));
            }
            continue;
        };
        spins = 0;
        // Crash insurance: record the job before any fallible work so
        // the supervisor can re-route it if this thread dies. (Cleared
        // only *after* the reply completes; the reply's per-shard dedup
        // makes the complete-then-die window harmless.) Zombies skip
        // this: the slot belongs to the shard's *current* worker, and
        // the epoch check runs inside the slot's critical section so a
        // zombie can never clobber its replacement's record.
        {
            let mut slot = shared.lock_inflight(cfg.shard);
            if shared.run_epoch.load(SeqCst) == my_epoch {
                *slot = Some(job.clone());
            }
        }
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = &shared.fault_plan {
            match plan.on_batch(cfg.shard) {
                Some(Fault::WorkerPanic) => panic!("injected worker panic (fault plan)"),
                Some(Fault::Stall(wedge)) => std::thread::sleep(wedge),
                None => {}
            }
        }
        // Deadline-aware service: a job that already missed its
        // deadline is shed here, not served uselessly late.
        if let Some(deadline) = job.deadline {
            if Instant::now() >= deadline {
                let packets = job.idx.len() as u64;
                counters.deadline_shed_packets.fetch_add(packets, Relaxed);
                shared.trace_shard(cfg.shard, EventKind::DeadlineShed, packets, 0);
                complete_unserved(&counters, job, false);
                clear_inflight(shared, cfg.shard, my_epoch);
                continue;
            }
        }
        // Refresh the replicated snapshot between jobs only: one job =
        // one table generation.
        if reader.cell().version() != snap.version {
            let prev = snap.version;
            snap = reader.load();
            counters.snapshot_refreshes.fetch_add(1, Relaxed);
            shared.trace_shard(cfg.shard, EventKind::SnapshotRefresh, snap.version, prev);
            // The cache epoch tracks the publish version (see below),
            // so a refresh is also the shard's cache-generation bump.
            shared.trace_shard(cfg.shard, EventKind::CacheEpochBump, snap.version, 0);
        }
        let started = Instant::now();
        // The cache epoch is the snapshot's publish version, alone: it
        // is unique and strictly monotone per table image, so a cached
        // row can never be served across a publish. (Folding any
        // per-table counter in would *break* this: a `swap_table` to a
        // table with a lower counter could then reproduce an old epoch
        // and revive that epoch's stale entries.)
        let epoch = snap.version;
        let Job { headers, idx, shard: shard_id, submitted, reply, .. } = job;
        let mut rows: Vec<Option<u32>> = Vec::with_capacity(idx.len());
        // Sample the thread-local allocation counter strictly around the
        // per-packet loop (the rows buffer above is per-batch).
        let allocs_before = cfg.settings.alloc_counter.map(|probe| probe());
        match cache.as_mut() {
            Some(cache) => {
                for &i in &idx {
                    let header = &headers[i as usize];
                    rows.push(cache.get_or_classify(epoch, header, |h| snap.value.classify(h)));
                }
            }
            None => {
                for &i in &idx {
                    rows.push(snap.value.classify(&headers[i as usize]));
                }
            }
        }
        if let (Some(probe), Some(before)) = (cfg.settings.alloc_counter, allocs_before) {
            counters.hot_path_allocs.fetch_add(probe() - before, Relaxed);
        }
        let served = idx.len() as u64;
        counters.packets.fetch_add(served, Relaxed);
        counters.batches.fetch_add(1, Relaxed);
        #[allow(clippy::cast_possible_truncation)]
        counters.busy_ns.fetch_add(started.elapsed().as_nanos() as u64, Relaxed);
        #[allow(clippy::cast_possible_truncation)]
        counters.latency.record(submitted.elapsed().as_nanos() as u64);
        if let Some(cache) = cache.as_ref() {
            counters.record_cache(&cache.stats());
        }
        shared.trace_shard(cfg.shard, EventKind::BatchServe, served, snap.version);
        reply.complete(Part { shard: shard_id, idx, rows, version: snap.version });
        clear_inflight(shared, cfg.shard, my_epoch);
        drop(headers);
    }
}

/// Clears `shard`'s in-flight slot — only if the clearing worker still
/// owns the shard (its epoch is current). The check runs inside the
/// slot's critical section, so a worker zombied by a runtime restore
/// can never erase the record of the fresh worker that replaced it.
fn clear_inflight<C>(shared: &Shared<C>, shard: usize, my_epoch: u64) {
    let mut slot = shared.lock_inflight(shard);
    if shared.run_epoch.load(SeqCst) == my_epoch {
        *slot = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classifier_api::{reference_classify, ClassifierBuilder};
    use offilter::{FilterSet, RuleAction};
    use oflow::{FlowMatch, MatchFieldKind};

    /// A tiny linear-scan dynamic classifier (the real engines live
    /// downstream; the runtime only needs the trait surface).
    #[derive(Clone)]
    struct Scan(Vec<Rule>);

    impl Classifier for Scan {
        fn name(&self) -> &str {
            "scan"
        }
        fn classify(&self, header: &HeaderValues) -> Option<u32> {
            reference_classify(&self.0, header)
        }
        fn memory_bits(&self) -> u64 {
            1
        }
        fn lookup_accesses(&self, _header: &HeaderValues) -> usize {
            self.0.len()
        }
        fn build_records(&self) -> usize {
            self.0.len()
        }
    }

    impl ClassifierBuilder for Scan {
        fn try_build(set: &FilterSet) -> Result<Self, BuildError> {
            Ok(Self(set.rules.clone()))
        }
    }

    impl DynamicClassifier for Scan {
        fn insert_rule(&mut self, rule: Rule) -> Result<UpdateReport, BuildError> {
            self.0.push(rule);
            Ok(UpdateReport { records: 1, rebuilt: false })
        }
        fn remove_rule(&mut self, rule_id: u32) -> Option<UpdateReport> {
            let before = self.0.len();
            self.0.retain(|r| r.id != rule_id);
            (self.0.len() < before).then_some(UpdateReport { records: 1, rebuilt: false })
        }
    }

    fn route(id: u32, port: u128, value: u128, len: u32, out: u32) -> Rule {
        Rule::new(
            id,
            len as u16,
            FlowMatch::any()
                .with_exact(MatchFieldKind::InPort, port)
                .unwrap()
                .with_prefix(MatchFieldKind::Ipv4Dst, value, len)
                .unwrap(),
            RuleAction::Forward(out),
        )
    }

    fn rules() -> Vec<Rule> {
        vec![
            route(0, 1, 0x0A00_0000, 8, 1),
            route(1, 1, 0x0A01_0200, 24, 2),
            route(2, 2, 0x0A00_0000, 8, 3),
            route(3, 3, 0, 0, 4),
        ]
    }

    fn headers(n: usize) -> Vec<HeaderValues> {
        (0..n as u128)
            .map(|i| {
                HeaderValues::new()
                    .with(MatchFieldKind::InPort, 1 + (i % 4))
                    .with(MatchFieldKind::Ipv4Dst, 0x0A00_0000 + (i % 61) * 0x101)
            })
            .collect()
    }

    fn quick_config(shards: usize) -> RuntimeConfig {
        RuntimeConfig {
            shards,
            ring_capacity: 8,
            cache_capacity: 64,
            pin_workers: false,
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn matches_the_sequential_oracle_across_shard_counts() {
        let hs = headers(257);
        for shards in [1, 2, 3, 8] {
            let rt = Runtime::new(Scan(rules()), &quick_config(shards));
            let want: Vec<Option<u32>> =
                hs.iter().map(|h| reference_classify(&rules(), h)).collect();
            // Cold and warm (cache-served) passes are byte-identical.
            let cold = rt.classify_batch(&hs);
            assert_eq!(cold.rows, want, "{shards} shards (cold)");
            assert!(cold.versions.iter().all(|&v| v == 1), "{shards} shards: quiesced version");
            assert!(cold.fully_delivered(), "{shards} shards: nothing shed at rest");
            let warm = rt.classify_batch(&hs);
            assert_eq!(warm.rows, want, "{shards} shards (warm)");
            let t = rt.telemetry();
            assert_eq!(t.total_packets(), 2 * 257, "{shards} shards");
            assert_eq!(t.per_shard.len(), shards);
            // The cache mirrors carry the cache's own effective sizes
            // (64 main slots + the default W-TinyLFU window).
            assert!(
                t.per_shard.iter().all(|s| s.cache.capacity == 64 && s.cache.window_capacity == 2),
                "{shards} shards: telemetry must report real cache geometry"
            );
            if shards > 1 {
                let busy: Vec<u64> = t.per_shard.iter().map(|s| s.packets).collect();
                assert!(
                    busy.iter().filter(|&&p| p > 0).count() > 1,
                    "RSS dispatch uses multiple shards: {busy:?}"
                );
            }
            rt.shutdown();
        }
    }

    #[test]
    fn empty_and_tiny_batches() {
        let rt = Runtime::new(Scan(rules()), &quick_config(4));
        let out = rt.classify_batch(&[]);
        assert!(out.is_empty());
        let one = headers(1);
        let out = rt.classify_batch(&one);
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows[0], reference_classify(&rules(), &one[0]));
    }

    #[test]
    fn pipelined_submissions_all_resolve() {
        let rt = Runtime::new(Scan(rules()), &quick_config(2));
        let hs: Arc<[HeaderValues]> = headers(64).into();
        let want: Vec<Option<u32>> = hs.iter().map(|h| reference_classify(&rules(), h)).collect();
        let tickets: Vec<Ticket> = (0..32).map(|_| rt.submit(Arc::clone(&hs))).collect();
        for t in tickets {
            assert_eq!(t.wait().rows, want);
        }
        assert_eq!(rt.telemetry().total_packets(), 32 * 64);
    }

    #[test]
    fn control_plane_updates_become_visible_with_version() {
        let rt = Runtime::with_control(Scan(rules()), &quick_config(2));
        let h = HeaderValues::new()
            .with(MatchFieldKind::InPort, 1)
            .with(MatchFieldKind::Ipv4Dst, 0x0A01_0203u128);
        assert_eq!(rt.classify_batch(std::slice::from_ref(&h)).rows, vec![Some(1)]);

        let (report, v2) = rt.add_rule(route(9, 1, 0x0A01_0200, 24, 9)).unwrap();
        assert_eq!(report.records, 1);
        assert_eq!(v2, 2);
        let out = rt.classify_batch(std::slice::from_ref(&h));
        assert_eq!(out.rows, vec![Some(9)], "higher-priority rule serves after publish");
        assert_eq!(out.versions, vec![2]);

        let (_, v3) = rt.remove_rule(9).expect("rule exists");
        assert_eq!(v3, 3);
        let out = rt.classify_batch(std::slice::from_ref(&h));
        assert_eq!(out.rows, vec![Some(1)], "removal rolls the answer back");
        assert!(rt.remove_rule(123).is_none());
        assert_eq!(rt.version(), 3, "a no-op removal publishes nothing");
    }

    #[test]
    fn swap_table_replaces_everything() {
        let rt = Runtime::with_control(Scan(rules()), &quick_config(2));
        let h = HeaderValues::new()
            .with(MatchFieldKind::InPort, 3)
            .with(MatchFieldKind::Ipv4Dst, 0x0102_0304u128);
        assert_eq!(rt.classify_batch(std::slice::from_ref(&h)).rows, vec![Some(3)]);
        let v = rt.swap_table(Scan(vec![route(77, 3, 0, 0, 7)]));
        assert_eq!(v, 2);
        assert_eq!(rt.classify_batch(std::slice::from_ref(&h)).rows, vec![Some(77)]);
        // The master moved with the swap: updates apply to the new table.
        rt.remove_rule(77).expect("new table's rule exists");
        assert_eq!(rt.classify_batch(std::slice::from_ref(&h)).rows, vec![None]);
    }

    /// Regression: the cache epoch must be the publish version alone.
    /// An epoch that folded in a per-table counter (version 1 + counter
    /// 2 before the swap, version 2 + counter 1 after it) would collide
    /// across `swap_table` and serve the old table's cached rows.
    #[test]
    fn swap_table_to_lower_generation_does_not_revive_stale_cache() {
        let h = HeaderValues::new()
            .with(MatchFieldKind::InPort, 3)
            .with(MatchFieldKind::Ipv4Dst, 0x0102_0304u128);
        let rt = Runtime::with_control(Scan(vec![route(0, 3, 0, 0, 1)]), &quick_config(1));
        assert_eq!(rt.classify_batch(std::slice::from_ref(&h)).rows, vec![Some(0)]);
        assert_eq!(rt.classify_batch(std::slice::from_ref(&h)).rows, vec![Some(0)], "warm hit");
        // The new table answers None for this flow; the warm Some(0) row
        // must not survive the swap.
        let v = rt.swap_table(Scan(Vec::new()));
        assert_eq!(v, 2);
        assert_eq!(
            rt.classify_batch(std::slice::from_ref(&h)).rows,
            vec![None],
            "swap_table must invalidate every cached row"
        );
    }

    #[test]
    fn data_plane_only_runtime_rejects_updates() {
        let rt = Runtime::new(Scan(rules()), &quick_config(1));
        let err = rt.add_rule(route(9, 1, 0, 0, 9)).unwrap_err();
        assert!(matches!(err, BuildError::InvalidConfig { .. }), "{err:?}");
        assert!(rt.remove_rule(0).is_none(), "no master: the removal is refused");
        // Nothing was published: the snapshot still holds rule 0.
        assert_eq!(rt.version(), 1);
        let h = HeaderValues::new()
            .with(MatchFieldKind::InPort, 1)
            .with(MatchFieldKind::Ipv4Dst, 0x0A00_0001u128);
        assert_eq!(rt.classify_batch(std::slice::from_ref(&h)).rows, vec![Some(0)]);
    }

    #[test]
    #[should_panic(expected = "cache_capacity")]
    fn oversized_cache_capacity_is_rejected_before_any_worker_spawns() {
        let config =
            RuntimeConfig { cache_capacity: FlowCache::MAX_CAPACITY + 1, ..quick_config(2) };
        let _ = Runtime::new(Scan(rules()), &config);
    }

    #[test]
    fn concurrent_classification_and_churn_matches_versioned_oracle() {
        let rt = Runtime::with_control(Scan(rules()), &quick_config(3));
        let handle = rt.handle();
        // Version → rule set at that version.
        let log = Mutex::new(vec![(1u64, rules())]);
        let hs = headers(128);
        std::thread::scope(|scope| {
            let churn = scope.spawn(|| {
                // Single publisher: versions are predictable, and each
                // log entry is appended *before* its publish so a racing
                // worker can never serve a version the log lacks.
                let mut rs = rules();
                let mut next_version = 2u64;
                for round in 0..40u32 {
                    let rule = route(100 + round, 1 + u128::from(round % 4), 0, 0, 90 + round);
                    rs.push(rule.clone());
                    log.lock().unwrap().push((next_version, rs.clone()));
                    let (_, v) = handle.add_rule(rule).unwrap();
                    assert_eq!(v, next_version);
                    next_version += 1;
                    if round % 2 == 0 {
                        rs.retain(|r| r.id != 100 + round);
                        log.lock().unwrap().push((next_version, rs.clone()));
                        let (_, v) = handle.remove_rule(100 + round).expect("just added");
                        assert_eq!(v, next_version);
                        next_version += 1;
                    }
                    std::thread::yield_now();
                }
            });
            for _ in 0..60 {
                let out = rt.classify_batch(&hs);
                let snapshot_log = log.lock().unwrap().clone();
                for (i, (&row, &version)) in out.rows.iter().zip(&out.versions).enumerate() {
                    let rules_at = &snapshot_log
                        .iter()
                        .rev()
                        .find(|(v, _)| *v <= version)
                        .expect("every served version has a log entry")
                        .1;
                    assert_eq!(
                        row,
                        reference_classify(rules_at, &hs[i]),
                        "packet {i} at version {version}"
                    );
                }
            }
            churn.join().unwrap();
        });
    }

    // ---- fault-tolerance surface -------------------------------------

    /// A classifier that busy-holds every `classify` call while `hold`
    /// is set — the deterministic way to wedge a worker mid-batch.
    #[derive(Clone)]
    struct Gate {
        rules: Vec<Rule>,
        hold: Arc<AtomicBool>,
        entered: Arc<AtomicU64>,
    }

    impl Classifier for Gate {
        fn name(&self) -> &str {
            "gate"
        }
        fn classify(&self, header: &HeaderValues) -> Option<u32> {
            self.entered.fetch_add(1, SeqCst);
            while self.hold.load(SeqCst) {
                std::thread::yield_now();
            }
            reference_classify(&self.rules, header)
        }
        fn memory_bits(&self) -> u64 {
            1
        }
        fn lookup_accesses(&self, _header: &HeaderValues) -> usize {
            1
        }
        fn build_records(&self) -> usize {
            self.rules.len()
        }
    }

    fn wait_until(entered: &AtomicU64, at_least: u64) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while entered.load(SeqCst) < at_least {
            assert!(Instant::now() < deadline, "worker never reached the gate");
            std::thread::yield_now();
        }
    }

    #[test]
    fn doorbell_ring_before_park_returns_immediately() {
        let bell = Doorbell::new(Arc::new(AtomicU64::new(0)));
        bell.ring();
        let t = Instant::now();
        bell.park(Duration::from_secs(5));
        assert!(t.elapsed() < Duration::from_secs(1), "pending ring consumed without sleeping");
    }

    #[test]
    fn doorbell_park_times_out_without_a_ring() {
        let bell = Doorbell::new(Arc::new(AtomicU64::new(0)));
        let t = Instant::now();
        bell.park(Duration::from_millis(10));
        assert!(t.elapsed() >= Duration::from_millis(5), "park honours its timeout");
    }

    #[test]
    fn doorbell_wakes_a_parked_thread() {
        let bell = Arc::new(Doorbell::new(Arc::new(AtomicU64::new(0))));
        std::thread::scope(|scope| {
            let parked = {
                let bell = Arc::clone(&bell);
                scope.spawn(move || {
                    let t = Instant::now();
                    bell.park(Duration::from_secs(10));
                    t.elapsed()
                })
            };
            std::thread::sleep(Duration::from_millis(10));
            bell.ring();
            assert!(parked.join().unwrap() < Duration::from_secs(5), "ring wakes the parker");
        });
    }

    #[test]
    fn poisoned_master_lock_recovers_and_is_counted() {
        /// `insert_rule` panics while armed — poisoning the master lock
        /// the way a buggy table update would.
        #[derive(Clone)]
        struct FlakyInsert {
            rules: Vec<Rule>,
            armed: Arc<AtomicBool>,
        }
        impl Classifier for FlakyInsert {
            fn name(&self) -> &str {
                "flaky"
            }
            fn classify(&self, header: &HeaderValues) -> Option<u32> {
                reference_classify(&self.rules, header)
            }
            fn memory_bits(&self) -> u64 {
                1
            }
            fn lookup_accesses(&self, _header: &HeaderValues) -> usize {
                1
            }
            fn build_records(&self) -> usize {
                self.rules.len()
            }
        }
        impl DynamicClassifier for FlakyInsert {
            fn insert_rule(&mut self, rule: Rule) -> Result<UpdateReport, BuildError> {
                if self.armed.swap(false, SeqCst) {
                    panic!("injected control-plane panic");
                }
                self.rules.push(rule);
                Ok(UpdateReport { records: 1, rebuilt: false })
            }
            fn remove_rule(&mut self, _rule_id: u32) -> Option<UpdateReport> {
                None
            }
        }

        let armed = Arc::new(AtomicBool::new(true));
        let rt = Runtime::with_control(
            FlakyInsert { rules: rules(), armed: Arc::clone(&armed) },
            &quick_config(2),
        );
        let boom = catch_unwind(AssertUnwindSafe(|| rt.add_rule(route(9, 1, 0, 0, 9))));
        assert!(boom.is_err(), "the injected panic propagates to the updater");
        // The master lock is now poisoned; the next update recovers it
        // instead of cascading the failure.
        let (_, v) = rt.add_rule(route(9, 1, 0, 0, 9)).expect("recovered master accepts updates");
        assert_eq!(v, 2);
        let t = rt.telemetry();
        assert!(t.poison_recoveries >= 1, "recovery is counted: {}", t.poison_recoveries);
        assert!(t.to_json().render_compact().contains("\"poison_recoveries\""));
    }

    #[test]
    fn shed_policy_drops_over_occupancy_and_resolves_unserved() {
        let hold = Arc::new(AtomicBool::new(true));
        let entered = Arc::new(AtomicU64::new(0));
        let rt = Runtime::new(
            Gate { rules: rules(), hold: Arc::clone(&hold), entered: Arc::clone(&entered) },
            &RuntimeConfig {
                shards: 1,
                ring_capacity: 8,
                cache_capacity: 0,
                admission: AdmissionPolicy::Shed { max_queued: 1 },
                pin_workers: false,
                ..RuntimeConfig::default()
            },
        );
        let one: Arc<[HeaderValues]> = headers(1).into();
        // A: picked up, wedged inside classify.
        let a = rt.submit(Arc::clone(&one));
        wait_until(&entered, 1);
        // B: sits in the ring (occupancy 1).
        let b = rt.submit(Arc::clone(&one));
        // C: over the occupancy bound — shed immediately.
        let c = rt.submit(Arc::clone(&one));
        let shed = c.wait();
        assert_eq!(shed.versions, vec![UNSERVED_VERSION], "shed packets are marked unserved");
        assert_eq!(shed.rows, vec![None]);
        assert_eq!(shed.delivered_count(), 0);
        hold.store(false, SeqCst);
        assert!(a.wait().fully_delivered(), "the wedged batch still serves");
        assert!(b.wait().fully_delivered(), "the queued batch still serves");
        let t = rt.telemetry();
        assert!(t.per_shard[0].shed_jobs >= 1, "shed jobs counted");
        assert!(t.per_shard[0].shed_packets >= 1, "shed packets counted");
        assert!(t.total_shed_packets() >= 1);
    }

    #[test]
    fn wait_timeout_times_out_instead_of_hanging() {
        let hold = Arc::new(AtomicBool::new(true));
        let entered = Arc::new(AtomicU64::new(0));
        let rt = Runtime::new(
            Gate { rules: rules(), hold: Arc::clone(&hold), entered: Arc::clone(&entered) },
            &RuntimeConfig {
                shards: 1,
                ring_capacity: 8,
                cache_capacity: 0,
                pin_workers: false,
                ..RuntimeConfig::default()
            },
        );
        let one: Arc<[HeaderValues]> = headers(1).into();
        let stuck = rt.submit(Arc::clone(&one));
        wait_until(&entered, 1);
        match stuck.wait_timeout(Duration::from_millis(20)) {
            WaitOutcome::Timeout => {}
            other => panic!("wedged shard must time out, got {other:?}"),
        }
        assert_eq!(rt.telemetry().ticket_timeouts, 1);
        hold.store(false, SeqCst);
        // A healthy runtime resolves Complete within the timeout.
        match rt.submit(one).wait_timeout(Duration::from_secs(10)) {
            WaitOutcome::Complete(batch) => assert!(batch.fully_delivered()),
            other => panic!("healthy shard completes, got {other:?}"),
        }
    }

    #[test]
    fn wait_timeout_reports_partial_delivery() {
        /// Wedges only packets whose `InPort` is 2 — so one shard
        /// delivers while another hangs.
        #[derive(Clone)]
        struct HalfGate {
            rules: Vec<Rule>,
            hold: Arc<AtomicBool>,
        }
        impl Classifier for HalfGate {
            fn name(&self) -> &str {
                "half-gate"
            }
            fn classify(&self, header: &HeaderValues) -> Option<u32> {
                let wedged =
                    header.fields().iter().any(|&(f, v)| f == MatchFieldKind::InPort && v == 2);
                while wedged && self.hold.load(SeqCst) {
                    std::thread::yield_now();
                }
                reference_classify(&self.rules, header)
            }
            fn memory_bits(&self) -> u64 {
                1
            }
            fn lookup_accesses(&self, _header: &HeaderValues) -> usize {
                1
            }
            fn build_records(&self) -> usize {
                self.rules.len()
            }
        }

        let shards = 2;
        let free = HeaderValues::new()
            .with(MatchFieldKind::InPort, 1)
            .with(MatchFieldKind::Ipv4Dst, 0x0A00_0000u128);
        // A header that (a) wedges and (b) lands on the *other* shard.
        let wedged = (0..4096u128)
            .map(|i| {
                HeaderValues::new()
                    .with(MatchFieldKind::InPort, 2)
                    .with(MatchFieldKind::Ipv4Dst, 0x0A00_0000 + i)
            })
            .find(|h| shard_of(h, shards) != shard_of(&free, shards))
            .expect("some dst hashes onto the other shard");

        let hold = Arc::new(AtomicBool::new(true));
        let rt = Runtime::new(
            HalfGate { rules: rules(), hold: Arc::clone(&hold) },
            &RuntimeConfig {
                shards,
                ring_capacity: 8,
                cache_capacity: 0,
                pin_workers: false,
                ..RuntimeConfig::default()
            },
        );
        let batch: Arc<[HeaderValues]> = vec![free.clone(), wedged].into();
        match rt.submit(batch).wait_timeout(Duration::from_millis(200)) {
            WaitOutcome::Partial { batch, missing } => {
                assert_eq!(missing, 1, "one packet's shard never delivered");
                assert_eq!(batch.delivered_count(), 1);
                assert!(batch.delivered(0), "the free shard delivered");
                assert!(!batch.delivered(1), "the wedged packet is marked unserved");
                assert_eq!(batch.rows[0], reference_classify(&rules(), &free));
            }
            other => panic!("expected partial delivery, got {other:?}"),
        }
        hold.store(false, SeqCst);
    }

    #[test]
    fn deadline_shed_drops_expired_jobs_at_the_worker() {
        let hold = Arc::new(AtomicBool::new(true));
        let entered = Arc::new(AtomicU64::new(0));
        let rt = Runtime::new(
            Gate { rules: rules(), hold: Arc::clone(&hold), entered: Arc::clone(&entered) },
            &RuntimeConfig {
                shards: 1,
                ring_capacity: 8,
                cache_capacity: 0,
                admission: AdmissionPolicy::DeadlineShed { deadline: Duration::from_millis(30) },
                pin_workers: false,
                ..RuntimeConfig::default()
            },
        );
        let one: Arc<[HeaderValues]> = headers(1).into();
        // A: picked up before its deadline, then wedged.
        let a = rt.submit(Arc::clone(&one));
        wait_until(&entered, 1);
        // B: queued behind the wedge; its deadline expires in the ring.
        let b = rt.submit(Arc::clone(&one));
        std::thread::sleep(Duration::from_millis(50));
        hold.store(false, SeqCst);
        assert!(a.wait().fully_delivered(), "a job picked up in time still serves");
        let late = b.wait();
        assert_eq!(late.versions, vec![UNSERVED_VERSION], "expired jobs are shed, not served late");
        let t = rt.telemetry();
        assert!(t.per_shard[0].deadline_shed_packets >= 1, "deadline sheds counted");
        assert!(t.total_shed_packets() >= 1);
    }

    #[test]
    fn worker_panic_is_survived_and_the_batch_still_serves() {
        /// Panics on exactly one `classify` call, then behaves.
        #[derive(Clone)]
        struct PanicOnce {
            rules: Vec<Rule>,
            armed: Arc<AtomicBool>,
        }
        impl Classifier for PanicOnce {
            fn name(&self) -> &str {
                "panic-once"
            }
            fn classify(&self, header: &HeaderValues) -> Option<u32> {
                if self.armed.swap(false, SeqCst) {
                    panic!("injected data-plane panic");
                }
                reference_classify(&self.rules, header)
            }
            fn memory_bits(&self) -> u64 {
                1
            }
            fn lookup_accesses(&self, _header: &HeaderValues) -> usize {
                1
            }
            fn build_records(&self) -> usize {
                self.rules.len()
            }
        }

        let rt = Runtime::new(
            PanicOnce { rules: rules(), armed: Arc::new(AtomicBool::new(true)) },
            &RuntimeConfig {
                shards: 2,
                ring_capacity: 8,
                cache_capacity: 0,
                pin_workers: false,
                ..RuntimeConfig::default()
            },
        );
        let hs = headers(64);
        let out = rt.classify_batch(&hs);
        let want: Vec<Option<u32>> = hs.iter().map(|h| reference_classify(&rules(), h)).collect();
        assert_eq!(out.rows, want, "the re-routed batch serves correctly");
        assert!(out.fully_delivered(), "one panic costs nothing: the shard respawns");
        let t = rt.telemetry();
        assert!(t.total_panics() >= 1, "the panic is counted");
        assert!(t.total_restarts() >= 1, "the respawn is counted");
        assert!(t.per_shard.iter().map(|s| s.requeued_jobs).sum::<u64>() >= 1);
        assert!(t.to_json().render_compact().contains("\"total_restarts\""));
        // The respawned shard keeps serving.
        assert!(rt.classify_batch(&hs).fully_delivered());
    }

    #[test]
    fn a_poisonous_job_is_abandoned_instead_of_crash_looping() {
        /// Deterministically panics on `InPort == 7` headers, forever.
        #[derive(Clone)]
        struct PoisonPill {
            rules: Vec<Rule>,
        }
        impl Classifier for PoisonPill {
            fn name(&self) -> &str {
                "poison-pill"
            }
            fn classify(&self, header: &HeaderValues) -> Option<u32> {
                if header.fields().iter().any(|&(f, v)| f == MatchFieldKind::InPort && v == 7) {
                    panic!("poisonous header");
                }
                reference_classify(&self.rules, header)
            }
            fn memory_bits(&self) -> u64 {
                1
            }
            fn lookup_accesses(&self, _header: &HeaderValues) -> usize {
                1
            }
            fn build_records(&self) -> usize {
                self.rules.len()
            }
        }

        let rt = Runtime::new(
            PoisonPill { rules: rules() },
            &RuntimeConfig {
                shards: 1,
                ring_capacity: 8,
                cache_capacity: 0,
                pin_workers: false,
                ..RuntimeConfig::default()
            },
        );
        let mut hs = headers(8);
        hs.push(
            HeaderValues::new()
                .with(MatchFieldKind::InPort, 7)
                .with(MatchFieldKind::Ipv4Dst, 0x0A00_0000u128),
        );
        // The key liveness property: the ticket resolves at all, even
        // though the job kills its shard on every attempt.
        let out = rt.classify_batch(&hs);
        assert!(!out.delivered(8), "the poisonous packet is abandoned, not served");
        let t = rt.telemetry();
        assert!(t.total_panics() > u64::from(MAX_REQUEUES), "each attempt panicked");
        assert!(t.total_restarts() > u64::from(MAX_REQUEUES));
        assert!(t.per_shard[0].shed_packets >= 1, "the abandoned job counts as shed");
        // The shard is healthy again for clean traffic.
        let clean = headers(16);
        let out = rt.classify_batch(&clean);
        assert!(out.fully_delivered());
        let want: Vec<Option<u32>> =
            clean.iter().map(|h| reference_classify(&rules(), h)).collect();
        assert_eq!(out.rows, want);
    }

    // ---- durable control plane --------------------------------------

    impl Persistent for Scan {
        fn encode_image(&self) -> Vec<u8> {
            let mut w = mtl_persist::Writer::new();
            w.put_usize(self.0.len());
            for rule in &self.0 {
                mtl_persist::codec::encode_rule(&mut w, rule);
            }
            w.into_bytes()
        }
        fn decode_image(bytes: &[u8]) -> Result<Self, PersistError> {
            let mut r = mtl_persist::Reader::new(bytes, "scan image");
            let n = r.seq_len(7)?;
            let mut rules = Vec::with_capacity(n);
            for _ in 0..n {
                rules.push(mtl_persist::codec::decode_rule(&mut r)?);
            }
            r.finish()?;
            Ok(Self(rules))
        }
    }

    fn temp_store(tag: &str) -> std::path::PathBuf {
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let n = NONCE.fetch_add(1, Relaxed);
        let dir =
            std::env::temp_dir().join(format!("mtl-runtime-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn wait_epoch(rt: &RuntimeHandle<Scan>, want: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while rt.run_epoch() < want {
            assert!(Instant::now() < deadline, "restore never completed");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn durable_runtime_recovers_state_across_restarts() {
        let dir = temp_store("recover");
        let durability = DurabilityConfig { checkpoint_every: 4, ..DurabilityConfig::new(&dir) };
        let hs = headers(64);
        let image_before;
        {
            let (rt, report) =
                Runtime::with_durability(Scan(rules()), &quick_config(2), &durability).unwrap();
            assert!(!report.restored, "fresh store boots from the fallback");
            // 6 adds: checkpoint at 4, records 5-6 live only in the WAL.
            for i in 0..6u32 {
                rt.add_rule(route(100 + i, 1, 0x1400_0000 + (u128::from(i) << 8), 24, 50 + i))
                    .unwrap();
            }
            rt.remove_rule(3).expect("seed rule 3 exists");
            let d = rt.telemetry().durability.expect("durable runtime reports durability");
            assert_eq!(d.wal_appends, 7);
            assert!(d.checkpoints >= 1, "cadence checkpoint happened");
            image_before = rt.master_image().expect("durable master image");
            rt.shutdown();
        }
        // Cold start with a *different* fallback: disk must win.
        let (rt, report) =
            Runtime::with_durability(Scan(Vec::new()), &quick_config(2), &durability).unwrap();
        assert!(report.restored, "second boot restores from disk");
        assert!(report.wal_replayed > 0, "the WAL tail past the watermark replays");
        assert_eq!(
            rt.master_image().expect("image"),
            image_before,
            "restored master is byte-identical to the pre-shutdown image"
        );
        let mut oracle = rules();
        oracle.retain(|r| r.id != 3);
        for i in 0..6u32 {
            oracle.push(route(100 + i, 1, 0x1400_0000 + (u128::from(i) << 8), 24, 50 + i));
        }
        let want: Vec<Option<u32>> = hs.iter().map(|h| reference_classify(&oracle, h)).collect();
        assert_eq!(rt.classify_rows(&hs), want, "recovered table serves the full rule set");
    }

    #[test]
    fn forced_restore_bumps_epoch_and_keeps_serving() {
        let dir = temp_store("force");
        let (rt, _) =
            Runtime::with_durability(Scan(rules()), &quick_config(2), &DurabilityConfig::new(&dir))
                .unwrap();
        let hs = headers(128);
        let want: Vec<Option<u32>> = hs.iter().map(|h| reference_classify(&rules(), h)).collect();
        assert_eq!(rt.classify_rows(&hs), want);
        assert!(rt.force_restore(), "durable runtimes accept the escalation");
        wait_epoch(&rt, 1);
        let d = rt.telemetry().durability.expect("durability block");
        assert_eq!(d.runtime_restores, 1);
        assert_eq!(d.restore_fallbacks, 0, "the boot checkpoint restores cleanly");
        assert_eq!(rt.classify_rows(&hs), want, "service is identical after the restore");
        // The control plane keeps working on the new epoch.
        rt.add_rule(route(200, 1, 0x3300_0000, 24, 9)).unwrap();
        assert!(rt.telemetry().durability.expect("block").wal_appends >= 1);
    }

    #[test]
    fn non_durable_runtimes_refuse_restore_and_report_nothing() {
        let rt = Runtime::with_control(Scan(rules()), &quick_config(1));
        assert!(!rt.durable());
        assert!(!rt.force_restore(), "nothing to restore from");
        assert!(rt.telemetry().durability.is_none());
        assert!(rt.master_image().is_none());
        assert!(rt.checkpoint_now().is_none());
    }

    #[test]
    fn checkpoint_now_compacts_the_replay() {
        let dir = temp_store("compact");
        let durability = DurabilityConfig { checkpoint_every: 1000, ..DurabilityConfig::new(&dir) };
        {
            let (rt, _) =
                Runtime::with_durability(Scan(rules()), &quick_config(1), &durability).unwrap();
            for i in 0..5u32 {
                rt.add_rule(route(300 + i, 2, 0x2800_0000 + (u128::from(i) << 8), 24, 70)).unwrap();
            }
            let v = rt.checkpoint_now().expect("durable checkpoint");
            assert!(v >= 2, "explicit checkpoint version advances past the boot checkpoint");
            rt.shutdown();
        }
        let (_rt, report) =
            Runtime::with_durability(Scan(Vec::new()), &quick_config(1), &durability).unwrap();
        assert!(report.restored);
        assert_eq!(report.wal_replayed, 0, "checkpoint_now left an empty tail");
    }

    #[test]
    fn swap_table_checkpoints_immediately() {
        let dir = temp_store("swap");
        let durability = DurabilityConfig { checkpoint_every: 1000, ..DurabilityConfig::new(&dir) };
        {
            let (rt, _) =
                Runtime::with_durability(Scan(rules()), &quick_config(1), &durability).unwrap();
            rt.add_rule(route(400, 1, 0x5000_0000, 8, 11)).unwrap();
            // The swap is not WAL-expressible: it must checkpoint, and
            // the watermark must fence off the pre-swap WAL tail.
            rt.swap_table(Scan(vec![route(77, 1, 0x0A00_0000, 8, 77)]));
            rt.shutdown();
        }
        let (rt, report) =
            Runtime::with_durability(Scan(Vec::new()), &quick_config(1), &durability).unwrap();
        assert!(report.restored);
        assert_eq!(report.wal_replayed, 0, "pre-swap WAL records sit below the watermark");
        let h = HeaderValues::new()
            .with(MatchFieldKind::InPort, 1)
            .with(MatchFieldKind::Ipv4Dst, 0x0A01_0203u128);
        assert_eq!(rt.classify_rows(std::slice::from_ref(&h)), vec![Some(77)]);
    }
}
