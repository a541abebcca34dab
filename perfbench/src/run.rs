//! One benchmark run: set-up, the traffic rounds, the controller, the
//! oracle check and (in the traced run) the per-layer replays.

use classifier_api::{CacheStats, Classifier, ClassifierBuilder};
use mtl_core::{MtlSwitch, SwitchMemoryReport};
use mtl_runtime::{
    ClassifiedBatch, DurabilityConfig, Runtime, RuntimeConfig, RuntimeHandle, RuntimeTelemetry,
    Ticket,
};
use oflow::HeaderValues;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cpu;
use crate::loadgen::{
    closed_loop, nanos, open_loop, sleep_until, GroupSchedule, OpenLoop, Schedule, UPDATE_SPIN,
};
use crate::oracle::{BatchRecord, Oracle, StreamPlan};
use crate::replay::{control_plane, data_plane, ControlReplay};
use crate::stats::{mean, median, percentile};
use crate::workload::{Inputs, Op, Spec, BATCH, GROUP, SHARDS};

/// Set-ups per run; `setup_s` is the median of their CPU time. A
/// `zipf-hot` set-up takes about 10 ms, so single ones scatter widely.
const SETUP_REPEATS: usize = 15;

/// Traffic rounds per run. A round is a saturation segment (40 % of its
/// time) followed by a latency segment (60 %); rates and latencies are
/// medians over rounds, so a burst of contention from outside the
/// process spoils one round instead of the run.
const ROUNDS: usize = 20;

/// Batches in flight during saturation segments.
const WINDOW: usize = 16;

/// Tolerances of the traced run's self-checks; a figure outside its
/// tolerance fails the run (see `perfbench/README.md`).
const STAGE_SUM_TOLERANCE: f64 = 0.25;
const UNATTRIBUTED_TOLERANCE: f64 = 0.4;
const UTILIZATION_LAW_TOLERANCE: f64 = 0.02;

/// Samples a reported percentile must leave beyond it.
const MIN_BEYOND: usize = 10;

/// Command-line arguments.
pub struct Args {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported figure.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub better: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, value, unit, better }
}

/// A self-check: what was compared, and whether it held.
pub struct Check {
    pub pass: bool,
    pub line: String,
}

/// Everything a run prints.
pub struct Report {
    /// The metrics of this mode, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Figures printed beside them but not tracked.
    pub extra: Vec<Metric>,
    /// Self-checks; the run is correct only if every one passes.
    pub checks: Vec<Check>,
    /// Further facts about the run, printed but not checked.
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    fn check(&mut self, pass: bool, line: String) {
        self.checks.push(Check { pass, line });
    }
}

/// A directory under the working directory, removed on drop.
struct TempDir(PathBuf);

const TEMP_ROOT: &str = ".perfbench-tmp";

impl TempDir {
    fn new(workload: &str) -> Self {
        let dir = Path::new(TEMP_ROOT).join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temporary directory is creatable");
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(TEMP_ROOT);
    }
}

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        shards: SHARDS,
        alloc_counter: Some(mtl_bench::alloc_probe::current),
        ..RuntimeConfig::default()
    }
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// Builds the table, starts the runtime and serves one pass of the
/// stream, [`WINDOW`] batches at a time, so caches, lookup buffers and
/// snapshots are warm. Returns the runtime, the wall-clock seconds and
/// the CPU seconds of the whole process that this took.
fn setup(spec: &Spec, inputs: &Inputs, dir: &Path) -> (Runtime<MtlSwitch>, f64, f64) {
    let (started, cpu_before) = (Instant::now(), cpu::process_ns());
    let switch =
        <MtlSwitch as ClassifierBuilder>::try_build(&inputs.set).expect("the generated set builds");
    let config = runtime_config();
    let rt = if spec.churn_groups_per_sec.is_some() {
        Runtime::with_durability(switch, &config, &DurabilityConfig::new(dir))
            .expect("durable runtime boots")
            .0
    } else {
        Runtime::with_control(switch, &config)
    };
    let handle = rt.handle();
    for window in inputs.batches.chunks(WINDOW) {
        let tickets: Vec<Ticket> = window.iter().map(|b| handle.submit(Arc::clone(b))).collect();
        for ticket in tickets {
            ticket.wait();
        }
    }
    let cpu_s = (cpu::process_ns() - cpu_before) as f64 / 1e9;
    (rt, started.elapsed().as_secs_f64(), cpu_s)
}

/// What the controller saw.
#[derive(Default)]
struct Updates {
    /// Scheduled time → return, ns, per executed update.
    latency_ns: Vec<u64>,
    /// Call → return of each add / remove, ms.
    add_ms: Vec<f64>,
    remove_ms: Vec<f64>,
    /// Controller-thread CPU time inside `add_rule`/`remove_rule`, ms.
    cpu_ms: f64,
    /// `UpdateReport.records` per accepted update.
    records: Vec<usize>,
    executed: usize,
    rejected: u64,
}

/// Sends `ops` open loop on `schedule`, stopping at the first one due
/// at or after `end`.
fn control(
    handle: &RuntimeHandle<MtlSwitch>,
    ops: &[Op],
    schedule: GroupSchedule,
    end: Instant,
) -> Updates {
    let mut out = Updates::default();
    for (j, op) in ops.iter().enumerate() {
        let due = schedule.due(j as u64);
        if due >= end {
            break;
        }
        let add = match op {
            Op::Add(rule) => Some(rule.clone()),
            Op::Remove(_) => None,
        };
        sleep_until(due, UPDATE_SPIN);
        let (called, cpu_before) = (Instant::now(), cpu::thread_ns());
        let report = match (add, op) {
            (Some(rule), _) => handle.add_rule(rule).ok().map(|(r, _)| r),
            (None, Op::Remove(id)) => handle.remove_rule(*id).map(|(r, _)| r),
            (None, Op::Add(_)) => unreachable!("adds carry their rule"),
        };
        let returned = Instant::now();
        out.cpu_ms += (cpu::thread_ns() - cpu_before) as f64 / 1e6;
        out.latency_ns.push(nanos(returned - due));
        let took = (returned - called).as_secs_f64() * 1e3;
        match op {
            Op::Add(_) => out.add_ms.push(took),
            Op::Remove(_) => out.remove_ms.push(took),
        }
        match report {
            Some(r) => out.records.push(r.records),
            None => out.rejected += 1,
        }
        out.executed += 1;
    }
    out
}

/// Peak resident set of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The data-plane side of the generator: cycles through the stream's
/// batches and folds every completed batch into a check record.
struct Traffic<'a> {
    handle: &'a RuntimeHandle<MtlSwitch>,
    batches: &'a [Arc<[HeaderValues]>],
    plan: &'a StreamPlan,
    /// Next stream batch to send.
    cursor: usize,
    records: Vec<BatchRecord>,
    /// Time inside `submit`, ns (traced submits only).
    submit_ns: Vec<u64>,
    /// Packets submitted.
    offered: u64,
    /// Packets completed.
    completed: u64,
}

impl Traffic<'_> {
    fn send(&mut self, traced: bool) -> (usize, Ticket) {
        let b = self.cursor % self.batches.len();
        self.cursor += 1;
        self.offered += self.batches[b].len() as u64;
        let headers = Arc::clone(&self.batches[b]);
        if !traced {
            return (b, self.handle.submit(headers));
        }
        let t = Instant::now();
        let ticket = self.handle.submit(headers);
        self.submit_ns.push(nanos(t.elapsed()));
        (b, ticket)
    }

    fn complete(&mut self, b: usize, batch: &ClassifiedBatch) {
        self.completed += batch.len() as u64;
        let record = self.plan.record(b, &batch.rows, &batch.versions);
        self.records.push(record);
    }

    /// Closed loop until `end`; returns the completion rate, Mpkt/s, the
    /// CPU time the whole process spent meanwhile, ns, and the packets
    /// completed.
    fn saturate(&mut self, end: Instant, traced: bool) -> (f64, u64, u64) {
        let (before, cpu_before) = (self.completed, cpu::process_ns());
        let this = std::cell::RefCell::new(&mut *self);
        let (_, elapsed) = closed_loop(
            WINDOW,
            end,
            |_| this.borrow_mut().send(traced),
            |(b, t): (usize, Ticket)| (b, t.wait()),
            |_, (b, batch)| this.borrow_mut().complete(b, &batch),
        );
        let packets = self.completed - before;
        (packets as f64 / elapsed.as_secs_f64() / 1e6, cpu::process_ns() - cpu_before, packets)
    }

    /// Open loop at `mpps` until `end`.
    fn offer(&mut self, mpps: f64, end: Instant, traced: bool) -> OpenLoop {
        let schedule =
            Schedule::new(Instant::now() + Duration::from_millis(1), mpps * 1e6 / BATCH as f64);
        let this = std::cell::RefCell::new(self);
        open_loop(
            schedule,
            end,
            |_| this.borrow_mut().send(traced),
            |(b, t): (usize, Ticket)| (b, t.wait()),
            |_, (b, batch)| this.borrow_mut().complete(b, &batch),
        )
    }
}

/// Shard counters summed over the latency segments.
#[derive(Default)]
struct Busy {
    busy_ns: u64,
    packets: [u64; SHARDS],
    jobs: u64,
}

impl Busy {
    fn add(&mut self, before: &RuntimeTelemetry, after: &RuntimeTelemetry) {
        for (s, (a, b)) in before.per_shard.iter().zip(&after.per_shard).enumerate() {
            self.busy_ns += b.busy_ns - a.busy_ns;
            self.packets[s] += b.packets - a.packets;
            self.jobs += b.batches - a.batches;
        }
    }
}

/// Per-round data-plane figures.
#[derive(Default)]
struct Rounds {
    plain_mpps: Vec<f64>,
    /// Process CPU time and packets completed over every plain
    /// saturation segment. Their ratio is taken over the whole run, not
    /// per round: a `churn-16k` remove lands in some segments and not in
    /// others, and a median over rounds would flip between the two.
    plain_cpu_ns: u64,
    plain_packets: u64,
    /// Core clock measured before each saturation segment, GHz: the
    /// host's turbo clock moved between 2.5 and 3.0 GHz from run to run.
    clock_ghz: Vec<f64>,
    traced_mpps: Vec<f64>,
    p50_ns: Vec<f64>,
    p90_ns: Vec<f64>,
    /// Fewest samples beyond the p90 in any round.
    min_beyond_p90: usize,
    /// Every latency segment, concatenated.
    open: OpenLoop,
    busy: Busy,
}

#[allow(clippy::too_many_lines)]
pub fn run(args: &Args) -> Report {
    let spec = args.spec;
    let round_s = args.seconds / ROUNDS as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let ops = spec.churn_groups_per_sec.map_or(0, |g| (g * args.seconds).ceil() as usize * GROUP);
    let inputs = Inputs::generate(spec, args.seed, ops);
    // Oracle preparation: outside set-up and every timed window.
    let oracle = Oracle::prepare(&inputs.set.rules, &inputs.flows, &inputs.ops);
    let plan = StreamPlan::new(&inputs.stream, &inputs.flows);
    let tmp = TempDir::new(spec.name);

    let mut setup_wall_s = Vec::with_capacity(SETUP_REPEATS);
    let mut setup_cpu_s = Vec::with_capacity(SETUP_REPEATS);
    let mut served = None;
    for i in 0..SETUP_REPEATS {
        drop(served.take());
        let (rt, wall, cpu) = setup(spec, &inputs, &tmp.0.join(format!("store-{i}")));
        setup_wall_s.push(wall);
        setup_cpu_s.push(cpu);
        served = Some(rt);
    }
    let rt = served.expect("at least one set-up");
    let handle = rt.handle();
    let base = handle.version();
    let warm = handle.telemetry();

    let mut traffic = Traffic {
        handle: &handle,
        batches: &inputs.batches,
        plan: &plan,
        cursor: 0,
        records: Vec::new(),
        submit_ns: Vec::new(),
        offered: 0,
        completed: 0,
    };
    let mut rounds = Rounds { min_beyond_p90: usize::MAX, ..Rounds::default() };
    let start = Instant::now();
    let updates = std::thread::scope(|scope| {
        let controller = spec.churn_groups_per_sec.map(|groups_per_sec| {
            let h = handle.clone();
            let ops = &inputs.ops;
            let schedule = GroupSchedule::new(start, groups_per_sec);
            scope.spawn(move || control(&h, ops, schedule, start + secs(args.seconds)))
        });
        for r in 0..ROUNDS {
            let round_start = start + secs(round_s * r as f64);
            let sat_end = round_start + secs(0.4 * round_s);
            // In the traced run the segment is half plain, half with the
            // benchmark's own timers: the difference is what they cost.
            let plain_end = if args.trace { round_start + secs(0.2 * round_s) } else { sat_end };
            rounds.clock_ghz.push(cpu::clock_ghz());
            let (mpps, cpu_ns, packets) = traffic.saturate(plain_end, false);
            rounds.plain_mpps.push(mpps);
            rounds.plain_cpu_ns += cpu_ns;
            rounds.plain_packets += packets;
            if args.trace {
                rounds.traced_mpps.push(traffic.saturate(sat_end, true).0);
            }
            let before = handle.telemetry();
            let open = traffic.offer(spec.offered_mpps, round_start + secs(round_s), args.trace);
            rounds.busy.add(&before, &handle.telemetry());
            let mut lat = open.latency_ns.clone();
            let (p90, beyond) = percentile(&mut lat, 0.90);
            rounds.p50_ns.push(percentile(&mut lat, 0.50).0 as f64);
            rounds.p90_ns.push(p90 as f64);
            rounds.min_beyond_p90 = rounds.min_beyond_p90.min(beyond);
            rounds.open.absorb(open);
        }
        controller.map_or_else(Updates::default, |c| c.join().expect("controller thread"))
    });
    let end_tel = handle.telemetry();
    let records = std::mem::take(&mut traffic.records);
    let submit_ns = std::mem::take(&mut traffic.submit_ns);
    let offered = traffic.offered;

    // Oracle check of every served batch, then of every flow on the
    // final table.
    let verdict = oracle.verify(&plan, &records, base);
    let applied = updates.executed as u64;
    let mut final_mismatches = 0u64;
    for (c, flows) in inputs.flows.chunks(BATCH).enumerate() {
        for (k, row) in handle.classify_rows(flows).into_iter().enumerate() {
            final_mismatches += u64::from(row != oracle.expected(c * BATCH + k, applied));
        }
    }
    let served_table = handle.latest();
    let table: &MtlSwitch = &served_table.value;

    let attempted = offered + updates.executed as u64 + inputs.flows.len() as u64;
    let failed =
        verdict.unserved + verdict.mismatched_packets + updates.rejected + final_mismatches;
    let stalls: u64 = end_tel.per_shard.iter().map(|s| s.stalls_detected).sum();
    let mut report = Report {
        metrics: Vec::new(),
        extra: Vec::new(),
        checks: Vec::new(),
        notes: vec![format!(
            "runtime: {} worker restarts, {stalls} stalls detected, {} ticket timeouts; \
             {} of {} updates rejected, {} unserved packets",
            end_tel.total_restarts(),
            end_tel.ticket_timeouts,
            updates.rejected,
            updates.executed,
            verdict.unserved
        )],
        attempted,
        failed,
    };
    report.check(
        verdict.mismatched_batches == 0 && final_mismatches == 0,
        format!(
            "oracle: {} batches checked, {} mismatched; {} flows re-checked on the final \
             table, {final_mismatches} mismatched (must be 0)",
            records.len(),
            verdict.mismatched_batches,
            inputs.flows.len()
        ),
    );
    let allocs = end_tel.hot_path_allocs() - warm.hot_path_allocs();
    report.check(allocs == 0, format!("hot path: {allocs} allocations after warm-up (must be 0)"));
    let (p99, beyond99) = percentile(&mut rounds.open.latency_ns.clone(), 0.99);
    report.check(
        rounds.min_beyond_p90 >= MIN_BEYOND && beyond99 >= MIN_BEYOND,
        format!(
            "samples: {} batch latencies over {ROUNDS} rounds, at least {} beyond p90 in each \
             round, {beyond99} beyond the pooled p99 (at least {MIN_BEYOND} each)",
            rounds.open.latency_ns.len(),
            rounds.min_beyond_p90
        ),
    );
    let mut update_latency = None;
    if spec.churn_groups_per_sec.is_some() {
        let mut upd = updates.latency_ns.clone();
        let (u50, _) = percentile(&mut upd, 0.50);
        let (u90, beyond90) = percentile(&mut upd, 0.90);
        report.check(
            beyond90 >= MIN_BEYOND,
            format!(
                "samples: {} update latencies, {beyond90} beyond p90 (at least {MIN_BEYOND})",
                upd.len()
            ),
        );
        update_latency = Some((u50, u90));
    }

    if !args.trace {
        let cpu_ns_per_pkt = rounds.plain_cpu_ns as f64 / rounds.plain_packets as f64;
        let clock_ghz = median(&mut rounds.clock_ghz);
        report.metrics = vec![
            metric("cycles_per_pkt", cpu_ns_per_pkt * clock_ghz, "cycles", "lower"),
            metric("memory_mbit", table.memory_bits() as f64 / 1e6, "Mbit", "lower"),
            metric("peak_rss_mib", peak_rss_mib(), "MiB", "lower"),
            metric("setup_s", median(&mut setup_cpu_s), "s", "lower"),
        ];
        report.extra = vec![
            metric("setup_wall_s", median(&mut setup_wall_s), "s", "lower"),
            metric("cpu_ns_per_pkt", cpu_ns_per_pkt, "ns", "lower"),
            metric("clock_ghz", clock_ghz, "GHz", "higher"),
            metric("throughput_mpps", median(&mut rounds.plain_mpps), "Mpkt/s", "higher"),
            metric("latency_p50_us", median(&mut rounds.p50_ns) / 1e3, "us", "lower"),
            metric("latency_p90_us", median(&mut rounds.p90_ns) / 1e3, "us", "lower"),
            metric("latency_p99_us", p99 as f64 / 1e3, "us", "lower"),
            metric("error_rate", failed as f64 / attempted as f64, "ratio", "lower"),
        ];
        if let Some((u50, u90)) = update_latency {
            let records: Vec<f64> = updates.records.iter().map(|&r| r as f64).collect();
            report.extra.extend([
                metric("update_latency_p50_ms", u50 as f64 / 1e6, "ms", "lower"),
                metric("update_latency_p90_ms", u90 as f64 / 1e6, "ms", "lower"),
                metric("update_records_per_op", mean(&records), "records", "lower"),
            ]);
        }
        return report;
    }

    // Traced run: figures from the runtime's telemetry, then the replays.
    let open = &rounds.open;
    let busy = &rounds.busy;
    let open_s = open.elapsed.as_secs_f64();
    let busy_ratio = busy.busy_ns as f64 / (open_s * 1e9 * SHARDS as f64);
    let shard_packets: u64 = busy.packets.iter().sum();
    let service_ns = busy.busy_ns as f64 / busy.jobs.max(1) as f64;
    let response: Vec<f64> = open.response_ns.iter().map(|&r| r as f64).collect();
    let imbalance = *busy.packets.iter().max().unwrap_or(&0) as f64
        / (shard_packets as f64 / SHARDS as f64).max(1.0);
    // Utilization law U = X·S: X from the generator's completions, S from
    // the busy time per packet the shards report.
    let x = (open.latency_ns.len() * BATCH) as f64 / open_s;
    let s_pkt = busy.busy_ns as f64 / 1e9 / shard_packets.max(1) as f64;
    let law = x * s_pkt / SHARDS as f64;
    report.check(
        (busy_ratio / law - 1.0).abs() <= UTILIZATION_LAW_TOLERANCE,
        format!(
            "utilization law: U = {busy_ratio:.4}, X·S/shards = {law:.4}, ratio {:.4} \
             (tolerance ±{UTILIZATION_LAW_TOLERANCE})",
            busy_ratio / law
        ),
    );
    let cache = |t: &RuntimeTelemetry| {
        t.per_shard.iter().map(|s| s.cache).fold(CacheStats::default(), CacheStats::merged)
    };
    let (c0, c1) = (cache(&warm), cache(&end_tel));
    let (hits, misses) = (c1.hits - c0.hits, c1.misses - c0.misses);
    let (inserts, rejections) = (c1.insertions - c0.insertions, c1.rejections - c0.rejections);
    let refreshes: u64 = end_tel
        .per_shard
        .iter()
        .zip(&warm.per_shard)
        .map(|(b, a)| b.snapshot_refreshes - a.snapshot_refreshes)
        .sum();
    let recorder = end_tel.trace.unwrap_or_default();
    let overheads: Vec<f64> =
        rounds.plain_mpps.iter().zip(&rounds.traced_mpps).map(|(p, t)| 1.0 - t / p).collect();
    let (lag99, _) = percentile(&mut open.lag_ns.clone(), 0.99);
    let (submit50, _) = percentile(&mut submit_ns.clone(), 0.50);

    let headers: Vec<HeaderValues> =
        inputs.batches.iter().flat_map(|b| b.iter().cloned()).collect();
    let dp = data_plane(table, &headers, runtime_config().cache_capacity);
    let stage_sum = dp.stage_sum_ratio;
    report.check(
        dp.mismatches == 0,
        format!(
            "stage replay: {} packets, {} walked, {} composed answers differ from classify_row \
             (must be 0)",
            dp.packets, dp.walked, dp.mismatches
        ),
    );
    report.check(
        (stage_sum - 1.0).abs() <= STAGE_SUM_TOLERANCE,
        format!(
            "stage sum: (engine + index + action) / classify_row = {stage_sum:.3} \
             (tolerance ±{STAGE_SUM_TOLERANCE})"
        ),
    );

    let executed = &inputs.ops[..updates.executed];
    let (cp, unattributed) = if executed.is_empty() {
        report.notes.push("control replay: no updates on this workload".into());
        (ControlReplay::default(), 0.0)
    } else {
        let initial = <MtlSwitch as ClassifierBuilder>::try_build(&inputs.set)
            .expect("the generated set builds");
        let cp = control_plane(&initial, executed, &tmp.0.join("replay"));
        let unattributed = 1.0 - cp.attributed_cpu_ms / updates.cpu_ms;
        report.check(
            unattributed.abs() <= UNATTRIBUTED_TOLERANCE,
            format!(
                "control replay: {} updates, controller CPU in add_rule/remove_rule {:.1} ms, \
                 replayed stages {:.1} ms, unattributed share {unattributed:.3} \
                 (tolerance ±{UNATTRIBUTED_TOLERANCE})",
                updates.executed, updates.cpu_ms, cp.attributed_cpu_ms
            ),
        );
        (cp, unattributed)
    };
    let memory = SwitchMemoryReport::of(table);
    let mbit = |bits: u64| bits as f64 / 1e6;
    let offered_mpps = open.sent as f64 * BATCH as f64 / open_s / 1e6;

    report.metrics = vec![
        metric("loadgen.lag_p99_us", lag99 as f64 / 1e3, "us", "lower"),
        metric("loadgen.offered_mpps", offered_mpps, "Mpkt/s", "higher"),
        metric("runtime.dispatch_ns_per_pkt", dp.dispatch_ns, "ns", "lower"),
        metric("runtime.submit_us_p50", submit50 as f64 / 1e3, "us", "lower"),
        metric("runtime.busy_ratio", busy_ratio, "ratio", "lower"),
        metric("runtime.service_us_mean", service_ns / 1e3, "us", "lower"),
        metric("runtime.queue_us_mean", (mean(&response) - service_ns) / 1e3, "us", "lower"),
        metric("runtime.shard_imbalance", imbalance, "ratio", "lower"),
        metric("runtime.snapshot_refreshes", refreshes as f64, "count", "lower"),
        metric("runtime.hot_path_allocs", allocs as f64, "count", "lower"),
        metric("cache.hit_rate", hits as f64 / (hits + misses).max(1) as f64, "ratio", "higher"),
        metric("cache.lookup_ns", dp.lookup_ns, "ns", "lower"),
        metric("cache.insert_ns", dp.insert_ns, "ns", "lower"),
        metric(
            "cache.rejection_ratio",
            rejections as f64 / (inserts + rejections).max(1) as f64,
            "ratio",
            "lower",
        ),
        metric("engine.search_ns_per_pkt", dp.engine_ns, "ns", "lower"),
        metric("engine.accesses_per_pkt", dp.accesses_per_pkt, "accesses", "lower"),
        metric("index.probe_ns_per_pkt", dp.index_ns, "ns", "lower"),
        metric("index.probes_per_pkt", dp.probes_per_pkt, "probes", "lower"),
        metric("actions.fetch_ns_per_pkt", dp.action_ns, "ns", "lower"),
        metric("classify.ns_per_pkt", dp.classify_ns, "ns", "lower"),
        metric("classify.stage_sum_ratio", stage_sum, "ratio", "lower"),
        metric("update.insert_ms", mean(&cp.insert_ms), "ms", "lower"),
        metric("update.remove_ms", mean(&cp.remove_ms), "ms", "lower"),
        metric(
            "update.rebuild_share",
            cp.rebuilt as f64 / executed.len().max(1) as f64,
            "ratio",
            "lower",
        ),
        metric("publish.clone_ms", mean(&cp.clone_ms), "ms", "lower"),
        metric("control.add_rule_ms", mean(&updates.add_ms), "ms", "lower"),
        metric("control.remove_rule_ms", mean(&updates.remove_ms), "ms", "lower"),
        metric("control.unattributed_share", unattributed, "ratio", "lower"),
        metric("persist.append_us", mean(&cp.append_us), "us", "lower"),
        metric("persist.checkpoint_ms", mean(&cp.checkpoint_ms), "ms", "lower"),
        metric("persist.wal_bytes", cp.wal_bytes as f64, "bytes", "lower"),
        metric("persist.snapshot_bytes", cp.snapshot_bytes as f64, "bytes", "lower"),
        metric(
            "memory.engine_mbit",
            mbit(memory.mbt_bits + memory.lut_bits + memory.range_bits),
            "Mbit",
            "lower",
        ),
        metric("memory.index_mbit", mbit(memory.index_bits), "Mbit", "lower"),
        metric("memory.action_mbit", mbit(memory.action_bits), "Mbit", "lower"),
        metric("trace.events_recorded", recorder.events_recorded as f64, "count", "lower"),
        metric("trace.events_overwritten", recorder.events_overwritten as f64, "count", "lower"),
        metric("bench.trace_overhead", median(&mut overheads.clone()), "ratio", "lower"),
    ];
    report
}
