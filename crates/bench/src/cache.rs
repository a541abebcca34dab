//! Flow-cache and SIMD-walk effectiveness under skewed traffic.
//!
//! Replays Zipf-distributed traces (uniform, `s = 0.8`, `s = 1.1`) —
//! with a realistic stream of one-shot scan garbage mixed in — against
//! the decomposition architecture, and reports **per stage**, not just
//! end to end:
//!
//! * **trie-walk stage**: ns/key of the interleaved multi-key walk,
//!   scalar vs SIMD (`ofalgo::simd_level`), result-equality asserted;
//! * **cache stage**: hit rate and ns/packet under blind admission (the
//!   PR 3 policy) vs TinyLFU admission, same traces, same capacity —
//!   the frequency filter's whole point is the gap between those
//!   columns at low skew;
//! * the cached path's speedup over *uniform-traffic uncached* batch
//!   classification — the headline "what does the three-stage fast path
//!   buy on realistic traffic" number;
//! * **allocations per packet** on the warmed cached path (required to
//!   be zero — cache entries and the admission sketch are flat `Copy`
//!   data);
//! * the full [`CacheStats`] counter block (hits, misses, insertions,
//!   evictions, admission rejections), so downstream tooling reads the
//!   JSON instead of recomputing rates.
//!
//! The same harness also runs two Table I baselines (TSS, HiCuts)
//! through [`FlowCache::get_or_classify`] — the identical memo the
//! architecture and the runtime's shard workers use — and asserts their
//! cached results are byte-identical to the bare engines across every
//! trace (as it does for every entry of the standard registry).
//!
//! Correctness is asserted, not sampled: for every skew the cached
//! results must be byte-identical to the uncached results, including
//! after an incremental rule add + remove (the epoch stamp invalidates
//! the cache in O(1); serving stale rows would show up here).
//!
//! A recorded trace file (see `ofpacket::trace`) can replace the
//! synthetic sweep: `repro -- cache --trace FILE`.

use crate::alloc_probe;
use crate::data::Workloads;
use crate::output::{render_table, write_json, ToJson};
use crate::registry;
use classifier_api::{CacheStats, Classifier, ClassifierBuilder, FlowCache};
use minijson::{obj, Json};
use mtl_core::MtlSwitch;
use ofbaseline::hicuts::HiCutsTree;
use ofbaseline::tss::TupleSpaceSearch;
use offilter::synth::{generate_trace, TraceConfig};
use offilter::{FilterKind, Rule, RuleAction};
use oflow::{FlowMatch, HeaderValues, MatchFieldKind};
use std::time::Instant;

/// One skew point of the sweep.
#[derive(Debug, Clone)]
pub struct SkewRow {
    /// Display label ("uniform", "zipf-0.8", ..., or "recorded").
    pub label: String,
    /// Zipf exponent of the trace (0 for recorded traces).
    pub skew: f64,
    /// Warmed hit rate under blind (always-admit) replacement — the
    /// PR 3 baseline policy.
    pub blind_hit_rate: f64,
    /// Warmed hit rate under W-TinyLFU admission (frequency filter +
    /// recency window — the default policy).
    pub tinylfu_hit_rate: f64,
    /// Warmed hit rate under *window-less* TinyLFU (the PR 4 policy) —
    /// the A/B partner isolating what the recency window buys.
    pub tinylfu_nowindow_hit_rate: f64,
    /// ns/packet, uncached engine-major batch path, scalar trie walks.
    pub uncached_scalar_ns_per_packet: f64,
    /// ns/packet, uncached engine-major batch path, SIMD trie walks
    /// (equals the scalar column when no vector backend is active).
    pub uncached_simd_ns_per_packet: f64,
    /// ns/packet through the blind-admission cache.
    pub cached_blind_ns_per_packet: f64,
    /// ns/packet through the TinyLFU cache.
    pub cached_tinylfu_ns_per_packet: f64,
    /// `uncached (simd) / cached (tinylfu)` at this skew.
    pub speedup: f64,
    /// `uniform uncached / cached at this skew` — the fast path's win
    /// over the pre-cache architecture on its old workload.
    pub speedup_vs_uniform_uncached: f64,
    /// Heap allocations per packet on the warmed cached path.
    pub allocs_per_packet: f64,
    /// Full counter block of the warmed TinyLFU cache over the timed
    /// reps.
    pub stats: CacheStats,
}

fn stats_json(s: &CacheStats) -> Json {
    obj([
        ("hits", s.hits.into()),
        ("misses", s.misses.into()),
        ("insertions", s.insertions.into()),
        ("evictions", s.evictions.into()),
        ("rejections", s.rejections.into()),
        ("capacity", s.capacity.into()),
        ("window_capacity", s.window_capacity.into()),
        ("window_hits", s.window_hits.into()),
        ("hit_rate", s.hit_rate().into()),
    ])
}

impl ToJson for SkewRow {
    fn to_json(&self) -> Json {
        obj([
            ("label", self.label.as_str().into()),
            ("skew", self.skew.into()),
            ("blind_hit_rate", self.blind_hit_rate.into()),
            ("tinylfu_hit_rate", self.tinylfu_hit_rate.into()),
            ("tinylfu_nowindow_hit_rate", self.tinylfu_nowindow_hit_rate.into()),
            ("uncached_scalar_ns_per_packet", self.uncached_scalar_ns_per_packet.into()),
            ("uncached_simd_ns_per_packet", self.uncached_simd_ns_per_packet.into()),
            ("cached_blind_ns_per_packet", self.cached_blind_ns_per_packet.into()),
            ("cached_tinylfu_ns_per_packet", self.cached_tinylfu_ns_per_packet.into()),
            ("speedup", self.speedup.into()),
            ("speedup_vs_uniform_uncached", self.speedup_vs_uniform_uncached.into()),
            ("allocs_per_packet", self.allocs_per_packet.into()),
            ("stats", stats_json(&self.stats)),
        ])
    }
}

/// The trie-walk stage in isolation: the interleaved multi-key walk
/// over the switch's own partition tries, fed the traffic's partition
/// keys, scalar vs vector lanes.
#[derive(Debug, Clone)]
pub struct TrieWalkStage {
    /// Keys looked up per repetition (all partitions).
    pub keys: usize,
    /// ns/key with the vector walks disabled.
    pub scalar_ns_per_key: f64,
    /// ns/key with the vector walks enabled (equals scalar when no
    /// backend is active).
    pub simd_ns_per_key: f64,
    /// `scalar / simd`.
    pub speedup: f64,
}

impl ToJson for TrieWalkStage {
    fn to_json(&self) -> Json {
        obj([
            ("keys", self.keys.into()),
            ("scalar_ns_per_key", self.scalar_ns_per_key.into()),
            ("simd_ns_per_key", self.simd_ns_per_key.into()),
            ("speedup", self.speedup.into()),
        ])
    }
}

/// One Table I baseline behind the flow cache.
#[derive(Debug, Clone)]
pub struct CachedBaselineRow {
    /// Bare engine name ("tss", "hicuts").
    pub name: String,
    /// Wrapped name ("tss+cache", ...).
    pub cached_name: String,
    /// Byte-identical to the bare engine on every trace (asserted; the
    /// flag records that the check ran).
    pub identical: bool,
    /// Warmed hit rate on the heaviest-skew trace.
    pub hit_rate: f64,
    /// ns/packet, bare engine, heaviest-skew trace.
    pub uncached_ns_per_packet: f64,
    /// ns/packet behind the cache, warmed, heaviest-skew trace.
    pub cached_ns_per_packet: f64,
    /// `uncached / cached`.
    pub speedup: f64,
}

impl ToJson for CachedBaselineRow {
    fn to_json(&self) -> Json {
        obj([
            ("name", self.name.as_str().into()),
            ("cached_name", self.cached_name.as_str().into()),
            ("identical", self.identical.into()),
            ("hit_rate", self.hit_rate.into()),
            ("uncached_ns_per_packet", self.uncached_ns_per_packet.into()),
            ("cached_ns_per_packet", self.cached_ns_per_packet.into()),
            ("speedup", self.speedup.into()),
        ])
    }
}

/// The whole experiment.
#[derive(Debug, Clone)]
pub struct CacheExperiment {
    /// Router measured.
    pub router: String,
    /// Packets per trace.
    pub packets: usize,
    /// Distinct flows per trace.
    pub flows: usize,
    /// Fraction of packets that are one-shot scan garbage.
    pub oneshot_fraction: f64,
    /// Flow-cache slots.
    pub cache_capacity: usize,
    /// Timed repetitions per point.
    pub reps: usize,
    /// Where the traces came from ("synthetic" or a file path).
    pub trace_source: String,
    /// Active vector backend (`ofalgo::simd_level`).
    pub simd_level: String,
    /// The isolated trie-walk stage measurement.
    pub trie_walk: TrieWalkStage,
    /// One row per skew, sweep order.
    pub rows: Vec<SkewRow>,
    /// Baselines behind the shared cache.
    pub baselines: Vec<CachedBaselineRow>,
}

impl ToJson for CacheExperiment {
    fn to_json(&self) -> Json {
        obj([
            ("router", self.router.as_str().into()),
            ("packets", self.packets.into()),
            ("flows", self.flows.into()),
            ("oneshot_fraction", self.oneshot_fraction.into()),
            ("cache_capacity", self.cache_capacity.into()),
            ("reps", self.reps.into()),
            ("trace_source", self.trace_source.as_str().into()),
            ("simd_level", self.simd_level.as_str().into()),
            ("trie_walk", self.trie_walk.to_json()),
            ("rows", self.rows.to_json()),
            ("baselines", self.baselines.to_json()),
        ])
    }
}

/// The swept Zipf exponents: uniform, moderate skew, heavy skew.
pub const SKEWS: [(f64, &str); 3] = [(0.0, "uniform"), (0.8, "zipf-0.8"), (1.1, "zipf-1.1")];

/// Fraction of one-shot scan packets mixed into every synthetic trace.
/// Real traffic carries never-repeating garbage; it is exactly what
/// blind admission lets pollute the cache, so the sweep includes it.
pub const ONESHOT_FRACTION: f64 = 0.25;

/// `ofalgo::set_simd_enabled` is a process-global toggle: two
/// experiments A/B-ing scalar vs vector walks concurrently (parallel
/// test threads) would corrupt each other's timings. One experiment
/// runs at a time.
static SIMD_AB_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Times `reps` runs of `f`, returning ns per item (of `items` per run).
fn time_per(reps: usize, items: usize, mut f: impl FnMut() -> usize) -> f64 {
    let start = Instant::now();
    let mut sink = 0usize;
    for _ in 0..reps {
        sink = sink.wrapping_add(f());
    }
    std::hint::black_box(sink);
    start.elapsed().as_nanos() as f64 / (reps * items.max(1)) as f64
}

/// Serves `trace` through `cache`, memoising `classify` under `epoch`.
fn cached_rows(
    cache: &mut FlowCache,
    epoch: u64,
    trace: &[HeaderValues],
    classify: impl Fn(&HeaderValues) -> Option<u32>,
) -> Vec<Option<u32>> {
    trace.iter().map(|h| cache.get_or_classify(epoch, h, &classify)).collect()
}

/// The architecture's action rows for `trace`, served through `cache`
/// under the switch's current epoch.
fn switch_rows(
    sw: &MtlSwitch,
    kind: FilterKind,
    trace: &[HeaderValues],
    cache: &mut FlowCache,
) -> Vec<Option<u32>> {
    cached_rows(cache, sw.epoch(), trace, |h| sw.classify_row(kind, h))
}

/// A routing rule for the update-consistency probe (an id far above the
/// generated sets' ids).
fn probe_rule() -> Rule {
    Rule::new(
        900_000,
        u16::MAX,
        FlowMatch::any()
            .with_exact(MatchFieldKind::InPort, 1)
            .unwrap()
            .with_prefix(MatchFieldKind::Ipv4Dst, 0x0A00_0000, 8)
            .unwrap(),
        RuleAction::Forward(77),
    )
}

/// Measures the interleaved multi-key trie walk in isolation: the
/// switch's first trie engine's partition tries, fed the partition keys
/// of the given traffic, scalar vs vector.
///
/// # Panics
/// Panics if the switch has no trie engine or the scalar and vector
/// walks ever disagree.
fn trie_walk_stage(sw: &MtlSwitch, trace: &[HeaderValues], reps: usize) -> TrieWalkStage {
    let (field, pt) = sw
        .apps
        .iter()
        .flat_map(|a| a.tables.iter())
        .flat_map(|t| t.engines.iter())
        .find_map(|(f, e)| match e {
            mtl_core::FieldEngine::Trie(pt) => Some((*f, pt)),
            _ => None,
        })
        .expect("the architecture has at least one trie engine");
    let width = field.bit_width();
    let partitions = pt.partitions() as u32;
    let pb = width / partitions;
    let mask = (1u128 << pb) - 1;
    let mut keys: Vec<Vec<u64>> = vec![Vec::new(); partitions as usize];
    for h in trace {
        if let Some(v) = h.get(field) {
            for (p, part_keys) in keys.iter_mut().enumerate() {
                let shift = width - pb * (p as u32 + 1);
                part_keys.push(((v >> shift) & mask) as u64);
            }
        }
    }
    let total: usize = keys.iter().map(Vec::len).sum();
    let max_len = keys.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = vec![None; max_len];
    let reps = reps.max(4) * 4;

    let walk_all = |out: &mut Vec<_>| {
        let mut sink = 0usize;
        for (p, part_keys) in keys.iter().enumerate() {
            pt.tries()[p].lookup_multi(part_keys, out);
            sink = sink.wrapping_add(out.iter().filter(|h| h.is_some()).count());
        }
        sink
    };

    ofalgo::set_simd_enabled(false);
    let scalar_ns = time_per(reps, total, || walk_all(&mut out));
    let mut scalar_out: Vec<Vec<_>> = Vec::new();
    for (p, part_keys) in keys.iter().enumerate() {
        let mut o = vec![None; part_keys.len()];
        pt.tries()[p].lookup_multi(part_keys, &mut o);
        scalar_out.push(o);
    }

    ofalgo::set_simd_enabled(true);
    let simd_ns = time_per(reps, total, || walk_all(&mut out));
    for (p, part_keys) in keys.iter().enumerate() {
        let mut o = vec![None; part_keys.len()];
        pt.tries()[p].lookup_multi(part_keys, &mut o);
        assert_eq!(o, scalar_out[p], "partition {p}: SIMD walk diverges from scalar");
    }

    TrieWalkStage {
        keys: total,
        scalar_ns_per_key: scalar_ns,
        simd_ns_per_key: simd_ns,
        speedup: if simd_ns > 0.0 { scalar_ns / simd_ns } else { 1.0 },
    }
}

/// One skew point: uncached scalar/SIMD timings, blind and TinyLFU
/// cached timings and hit rates, update-consistency probes, allocation
/// probe.
#[allow(clippy::too_many_arguments)]
fn sweep_point(
    sw: &mut MtlSwitch,
    kind: FilterKind,
    label: &str,
    skew: f64,
    trace: &[HeaderValues],
    cache_capacity: usize,
    reps: usize,
    uniform_uncached_ns: &mut f64,
) -> SkewRow {
    // Uncached baseline: the engine-major batch path, scalar then SIMD.
    let expect = sw.classify_batch_rows(kind, trace);
    ofalgo::set_simd_enabled(false);
    let uncached_scalar_ns =
        time_per(reps, trace.len(), || sw.classify_batch_rows(kind, trace).len());
    ofalgo::set_simd_enabled(true);
    let uncached_simd_ns =
        time_per(reps, trace.len(), || sw.classify_batch_rows(kind, trace).len());
    if label == "uniform" || uniform_uncached_ns.is_nan() {
        *uniform_uncached_ns = uncached_simd_ns;
    }

    // Blind admission (the PR 3 policy): warm, verify, time.
    let mut blind = FlowCache::blind(cache_capacity);
    let warmed = switch_rows(sw, kind, trace, &mut blind);
    assert_eq!(warmed, expect, "{label}: blind-cached disagrees with uncached");
    blind.reset_stats();
    let cached_blind_ns =
        time_per(reps, trace.len(), || switch_rows(sw, kind, trace, &mut blind).len());
    let blind_hit_rate = blind.hit_rate();

    // Window-less TinyLFU (the PR 4 policy): the recency-window A/B
    // partner — warmed hit rate only (the timed policy is the default).
    let mut nowindow = FlowCache::with_window(cache_capacity, 0);
    for _ in 0..2 {
        let warmed = switch_rows(sw, kind, trace, &mut nowindow);
        assert_eq!(warmed, expect, "{label}: window-less cached disagrees with uncached");
    }
    nowindow.reset_stats();
    let _ = switch_rows(sw, kind, trace, &mut nowindow);
    let tinylfu_nowindow_hit_rate = nowindow.hit_rate();

    // TinyLFU admission: warm, verify, and prove update consistency.
    let mut cache = FlowCache::new(cache_capacity);
    let warmed = switch_rows(sw, kind, trace, &mut cache);
    assert_eq!(warmed, expect, "{label}: cached disagrees with uncached");

    // Update-consistency: an incremental add + remove must invalidate
    // the cache (epoch bump) and keep results identical throughout.
    let added = sw.add_rule(kind, probe_rule());
    assert!(added.stats.records > 0);
    let after_add_uncached = sw.classify_batch_rows(kind, trace);
    let after_add_cached = switch_rows(sw, kind, trace, &mut cache);
    assert_eq!(after_add_cached, after_add_uncached, "{label}: stale cache after add_rule");
    sw.remove_rule(kind, probe_rule().id).expect("probe rule exists");
    let after_remove = switch_rows(sw, kind, trace, &mut cache);
    assert_eq!(after_remove, expect, "{label}: stale cache after remove_rule");

    // Re-warm post-update (the admission sketch needs a little history
    // to separate residents from scan garbage), then measure.
    for _ in 0..2 {
        let _ = switch_rows(sw, kind, trace, &mut cache);
    }
    cache.reset_stats();
    let cached_tinylfu_ns =
        time_per(reps, trace.len(), || switch_rows(sw, kind, trace, &mut cache).len());
    let tinylfu_hit_rate = cache.hit_rate();
    let stats = cache.stats();

    // Allocation probe on the warmed per-packet cached path (the batch
    // result vector is excluded by probing packet by packet, mirroring
    // the throughput experiment).
    let epoch = sw.epoch();
    let (sunk, allocs) = alloc_probe::allocations_in(|| {
        let mut s = 0usize;
        for h in trace {
            let row = cache.get_or_classify(epoch, h, |h| sw.classify_row(kind, h));
            s = s.wrapping_add(row.unwrap_or(0) as usize);
        }
        s
    });
    std::hint::black_box(sunk);

    SkewRow {
        label: label.to_owned(),
        skew,
        blind_hit_rate,
        tinylfu_hit_rate,
        tinylfu_nowindow_hit_rate,
        uncached_scalar_ns_per_packet: uncached_scalar_ns,
        uncached_simd_ns_per_packet: uncached_simd_ns,
        cached_blind_ns_per_packet: cached_blind_ns,
        cached_tinylfu_ns_per_packet: cached_tinylfu_ns,
        speedup: if cached_tinylfu_ns > 0.0 { uncached_simd_ns / cached_tinylfu_ns } else { 1.0 },
        speedup_vs_uniform_uncached: if cached_tinylfu_ns > 0.0 {
            *uniform_uncached_ns / cached_tinylfu_ns
        } else {
            1.0
        },
        allocs_per_packet: allocs as f64 / trace.len() as f64,
        stats,
    }
}

/// Serves one baseline through a TinyLFU [`FlowCache`] of
/// `cache_capacity` slots, asserts byte-identical results on every
/// trace, and times bare vs cached on the last (heaviest-skew) trace.
/// The engine is never mutated here, so one epoch covers the whole run.
fn cached_baseline(
    bare: &impl Classifier,
    cache_capacity: usize,
    traces: &[(String, Vec<HeaderValues>)],
    reps: usize,
) -> CachedBaselineRow {
    let mut cache = FlowCache::new(cache_capacity);
    let cached_name = format!("{}+cache", bare.name());
    let classify = |h: &HeaderValues| bare.classify(h);
    for (label, trace) in traces {
        let want = bare.classify_batch(trace);
        let cold = cached_rows(&mut cache, 0, trace, classify);
        assert_eq!(cold, want, "{label}: {cached_name} diverges from {}", bare.name());
        let warm = cached_rows(&mut cache, 0, trace, classify);
        assert_eq!(warm, want, "{label}: warmed {cached_name} diverges");
    }
    let (_, trace) = traces.last().expect("at least one trace");
    let uncached_ns = time_per(reps, trace.len(), || bare.classify_batch(trace).len());
    cache.reset_stats();
    let cached_ns =
        time_per(reps, trace.len(), || cached_rows(&mut cache, 0, trace, classify).len());
    let hit_rate = cache.hit_rate();
    CachedBaselineRow {
        name: bare.name().to_owned(),
        cached_name,
        identical: true,
        hit_rate,
        uncached_ns_per_packet: uncached_ns,
        cached_ns_per_packet: cached_ns,
        speedup: if cached_ns > 0.0 { uncached_ns / cached_ns } else { 1.0 },
    }
}

/// Runs the sweep on one routing set over the given labelled traces.
///
/// # Panics
/// Panics if cached and uncached results ever disagree — for the
/// architecture, for any registry entry, or for the cached baselines,
/// before or after incremental updates — or if the scalar and SIMD trie
/// walks diverge.
#[must_use]
pub fn run_on_traces(
    w: &Workloads,
    router: &str,
    traces: &[(String, f64, Vec<HeaderValues>)],
    flows: usize,
    reps: usize,
    trace_source: &str,
) -> CacheExperiment {
    // Serialise whole experiments: the scalar-vs-SIMD A/B toggling below
    // is process-global (a poisoned lock just means an earlier run's
    // assertion already failed — the toggle state is still consistent).
    let _ab = SIMD_AB_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let set = w.routing_of(router).expect("routing set exists");
    let kind = set.kind;
    let mut sw = <MtlSwitch as ClassifierBuilder>::try_build(set).expect("switch builds");
    // Half the flow pool: uniform traffic keeps the cache under
    // capacity pressure (the distribution sensitivity this experiment
    // exists to measure), and the one-shot scan stream stresses
    // admission on top.
    let cache_capacity = (flows / 2).next_power_of_two().max(16);
    let packets = traces.first().map_or(0, |(_, _, t)| t.len());

    let last_trace = &traces.last().expect("at least one trace").2;
    let trie_walk = trie_walk_stage(&sw, last_trace, reps);

    let mut rows = Vec::with_capacity(traces.len());
    let mut uniform_uncached_ns = f64::NAN;
    for (label, skew, trace) in traces {
        rows.push(sweep_point(
            &mut sw,
            kind,
            label,
            *skew,
            trace,
            cache_capacity,
            reps,
            &mut uniform_uncached_ns,
        ));
    }

    // Every registry entry behind its own cache must agree with the bare
    // entry on the heaviest trace, cold and warm.
    let standard = registry::standard_registry(set).expect("registry builds");
    for (category, bare) in standard.iter() {
        let want = bare.classify_batch(last_trace);
        let mut cache = FlowCache::new(cache_capacity);
        for pass in ["cold", "warm"] {
            let got = cached_rows(&mut cache, 0, last_trace, |h| bare.classify(h));
            assert_eq!(got, want, "{category} ({pass}): cached entry diverges from the bare one");
        }
    }

    let baseline_traces: Vec<(String, Vec<HeaderValues>)> =
        traces.iter().map(|(l, _, t)| (l.clone(), t.clone())).collect();
    let baselines = vec![
        cached_baseline(
            &TupleSpaceSearch::try_build(set).expect("tss builds"),
            cache_capacity,
            &baseline_traces,
            reps,
        ),
        cached_baseline(
            &HiCutsTree::try_build(set).expect("hicuts builds"),
            cache_capacity,
            &baseline_traces,
            reps,
        ),
    ];

    CacheExperiment {
        router: router.to_owned(),
        packets,
        flows,
        oneshot_fraction: ONESHOT_FRACTION,
        cache_capacity,
        reps,
        trace_source: trace_source.to_owned(),
        simd_level: ofalgo::simd_level().to_owned(),
        trie_walk,
        rows,
        baselines,
    }
}

/// Runs the synthetic Zipf sweep on one routing set.
///
/// # Panics
/// See [`run_on_traces`].
#[must_use]
pub fn run(
    w: &Workloads,
    router: &str,
    packets: usize,
    flows: usize,
    reps: usize,
) -> CacheExperiment {
    let set = w.routing_of(router).expect("routing set exists");
    let traces: Vec<(String, f64, Vec<HeaderValues>)> = SKEWS
        .iter()
        .map(|&(skew, label)| {
            let cfg = TraceConfig {
                packets,
                flows,
                skew,
                random_fraction: 0.125,
                oneshot_fraction: ONESHOT_FRACTION,
            };
            (label.to_owned(), skew, generate_trace(set, &cfg, crate::DEFAULT_SEED))
        })
        .collect();
    run_on_traces(w, router, &traces, flows, reps, "synthetic")
}

/// Runs the experiment over one recorded trace (see
/// `ofpacket::trace::read_trace_file`) instead of the synthetic sweep.
/// The distinct headers of the trace stand in for the flow pool when
/// sizing the cache.
///
/// # Panics
/// See [`run_on_traces`]; also panics if the trace is empty.
#[must_use]
pub fn run_recorded(
    w: &Workloads,
    router: &str,
    trace: Vec<HeaderValues>,
    source: &str,
    reps: usize,
) -> CacheExperiment {
    assert!(!trace.is_empty(), "recorded trace is empty");
    let flows = trace.iter().collect::<std::collections::HashSet<_>>().len();
    let traces = vec![("recorded".to_owned(), 0.0, trace)];
    run_on_traces(w, router, &traces, flows, reps, source)
}

fn print_experiment(e: &CacheExperiment) {
    println!(
        "== Flow cache on {} ({} packets/trace, {} flows + {:.0}% one-shot scan, \
         {}-slot cache, simd={}, traces: {}) ==",
        e.router,
        e.packets,
        e.flows,
        e.oneshot_fraction * 100.0,
        e.cache_capacity,
        e.simd_level,
        e.trace_source,
    );
    println!(
        "trie-walk stage: {} keys, scalar {:.2} ns/key, {} {:.2} ns/key ({:.2}x)",
        e.trie_walk.keys,
        e.trie_walk.scalar_ns_per_key,
        e.simd_level,
        e.trie_walk.simd_ns_per_key,
        e.trie_walk.speedup
    );
    let rows: Vec<Vec<String>> = e
        .rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{:.2}", r.skew),
                format!("{:.1}%", r.blind_hit_rate * 100.0),
                format!("{:.1}%", r.tinylfu_nowindow_hit_rate * 100.0),
                format!("{:.1}%", r.tinylfu_hit_rate * 100.0),
                format!("{:.0}", r.uncached_scalar_ns_per_packet),
                format!("{:.0}", r.uncached_simd_ns_per_packet),
                format!("{:.0}", r.cached_blind_ns_per_packet),
                format!("{:.0}", r.cached_tinylfu_ns_per_packet),
                format!("{:.2}x", r.speedup),
                format!("{:.2}", r.allocs_per_packet),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "trace",
                "skew",
                "blind hit",
                "tlfu hit",
                "w-tlfu hit",
                "scalar ns",
                "simd ns",
                "blind ns",
                "tlfu ns",
                "speedup",
                "allocs/pkt",
            ],
            &rows
        )
    );
    let rows: Vec<Vec<String>> = e
        .baselines
        .iter()
        .map(|b| {
            vec![
                b.cached_name.clone(),
                format!("{}", b.identical),
                format!("{:.1}%", b.hit_rate * 100.0),
                format!("{:.0}", b.uncached_ns_per_packet),
                format!("{:.0}", b.cached_ns_per_packet),
                format!("{:.2}x", b.speedup),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["baseline", "identical", "hit rate", "bare ns", "cached ns", "speedup"],
            &rows
        )
    );
}

/// Prints the synthetic sweep and writes JSON.
pub fn report(w: &Workloads) {
    let e = run(w, "boza", 4096, 1024, 6);
    print_experiment(&e);
    write_json("cache", &e);
}

/// Prints the recorded-trace run and writes JSON.
///
/// # Panics
/// Panics if the trace file cannot be read or parsed.
pub fn report_recorded(w: &Workloads, path: &std::path::Path) {
    let trace = ofpacket::trace::read_trace_file(path)
        .unwrap_or_else(|e| panic!("cannot read trace {}: {e}", path.display()));
    let e = run_recorded(w, "boza", trace, &path.display().to_string(), 6);
    print_experiment(&e);
    write_json("cache", &e);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_verifies_and_measures() {
        let w = Workloads::shared_quick();
        // Small trace: the correctness assertions inside run() (cached ==
        // uncached for the architecture, every registry entry and the
        // cached baselines, before and after incremental updates; SIMD
        // == scalar) are the point.
        let e = run(w, "bbra", 1024, 256, 2);
        assert_eq!(e.rows.len(), 3);
        for r in &e.rows {
            assert!(r.uncached_scalar_ns_per_packet > 0.0, "{}", r.label);
            assert!(r.cached_tinylfu_ns_per_packet > 0.0, "{}", r.label);
            assert!((0.0..=1.0).contains(&r.blind_hit_rate), "{}", r.label);
            assert!((0.0..=1.0).contains(&r.tinylfu_hit_rate), "{}", r.label);
            assert!((0.0..=1.0).contains(&r.tinylfu_nowindow_hit_rate), "{}", r.label);
            assert_eq!(
                r.stats.window_capacity,
                (e.cache_capacity / 100).max(2),
                "{}: the default cache reports its ~1% recency window",
                r.label
            );
            // The counter block is real: hits + misses cover the timed
            // lookups and the admission filter only rejects under
            // TinyLFU.
            assert!(r.stats.hits + r.stats.misses > 0, "{}", r.label);
            assert!(
                (r.stats.hit_rate() - r.tinylfu_hit_rate).abs() < 1e-9,
                "{}: stats hit rate mismatch",
                r.label
            );
        }
        // Hit rate grows with skew: the cache holds half the flow pool,
        // so uniform traffic stays under pressure while heavy-tail
        // traffic concentrates on the cached elephant flows.
        assert!(
            e.rows[2].tinylfu_hit_rate > e.rows[0].tinylfu_hit_rate,
            "s=1.1 hit rate {} <= uniform {}",
            e.rows[2].tinylfu_hit_rate,
            e.rows[0].tinylfu_hit_rate
        );
        assert!(
            e.rows[2].tinylfu_hit_rate > 0.5,
            "elephant flows must hit: {}",
            e.rows[2].tinylfu_hit_rate
        );
        // Both baselines ran behind the cache, byte-identically.
        assert_eq!(e.baselines.len(), 2);
        assert!(e.baselines.iter().all(|b| b.identical));
        assert!(e.trie_walk.keys > 0);
    }

    /// The PR's admission acceptance criterion: under uniform traffic
    /// with scan garbage, TinyLFU admission must beat the blind
    /// (PR 3) policy's hit rate by >= 1.2x — frequency-aware admission
    /// keeps one-hit wonders from evicting the resident flows.
    #[test]
    fn tinylfu_beats_blind_at_uniform() {
        let w = Workloads::shared_quick();
        let e = run(w, "bbra", 2048, 512, 2);
        let uniform = &e.rows[0];
        assert!(
            uniform.tinylfu_hit_rate >= 1.2 * uniform.blind_hit_rate,
            "uniform: TinyLFU {:.3} < 1.2 x blind {:.3}",
            uniform.tinylfu_hit_rate,
            uniform.blind_hit_rate
        );
        assert!(uniform.stats.rejections > 0, "admission filter never rejected");
    }

    /// The PR's acceptance criterion: the warmed cached lookup performs
    /// zero heap allocations — the cache (including the admission
    /// sketch) cannot regress the architecture's allocation behaviour.
    #[test]
    fn warmed_cached_path_is_allocation_free() {
        let w = Workloads::shared_quick();
        let e = run(w, "bbra", 512, 128, 1);
        for r in &e.rows {
            assert_eq!(
                r.allocs_per_packet, 0.0,
                "{}: cached classify must not allocate after warmup",
                r.label
            );
        }
    }

    #[test]
    fn recorded_trace_drives_the_experiment() {
        let w = Workloads::shared_quick();
        let set = w.routing_of("bbra").unwrap();
        let cfg = TraceConfig {
            packets: 512,
            flows: 64,
            skew: 0.9,
            random_fraction: 0.125,
            oneshot_fraction: 0.1,
        };
        let trace = generate_trace(set, &cfg, 77);
        // Round-trip through the on-disk format, then replay.
        let mut buf = Vec::new();
        ofpacket::trace::write_trace(&mut buf, &trace).unwrap();
        let replayed = ofpacket::trace::read_trace(buf.as_slice()).unwrap();
        assert_eq!(replayed, trace);
        let e = run_recorded(w, "bbra", replayed, "roundtrip-buffer", 1);
        assert_eq!(e.rows.len(), 1);
        assert_eq!(e.rows[0].label, "recorded");
        assert_eq!(e.trace_source, "roundtrip-buffer");
        assert!(e.flows <= 512 && e.flows > 64, "distinct headers: {}", e.flows);
    }
}
