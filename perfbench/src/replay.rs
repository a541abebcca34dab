//! The traced run's replays: the workload's packets and updates pushed
//! through each layer's public functions, with a timer around each
//! layer.
//!
//! Data plane: `shard_of` → `FlowCache::lookup` → per table
//! `FieldEngine::search_into` / `search_missing_into` →
//! `IndexTable::probe_chains_with` → `ActionTable::get`, following the
//! goto/metadata chain → `FlowCache::insert`. Each stage runs as its own
//! loop over many packets (one timer per loop, not per packet), and the
//! composed answer of every replayed packet is compared with
//! `MtlSwitch::classify_row`.
//!
//! Control plane: the update sequence the runtime served, replayed
//! against a bench-owned master and `Store` in the order the runtime's
//! `add_rule`/`remove_rule` take them: WAL append, mutate, clone
//! (publish), and every few records a checkpoint. Each stage is timed
//! in wall-clock time (the figures reported) and in CPU time (what the
//! attribution compares with the runtime's calls).

use classifier_api::{Admission, Classifier, DynamicClassifier, FlowCache};
use mtl_core::actions::ActionRow;
use mtl_core::switch::{AppEngine, TableEngine};
use mtl_core::MtlSwitch;
use mtl_persist::{
    CheckpointMode, Persistent, Store, WalOp, DEFAULT_RETAIN_SNAPSHOTS, DEFAULT_SEGMENT_BYTES,
};
use mtl_runtime::{shard_of, DurabilityConfig};
use ofalgo::{Label, MatchChain};
use offilter::FilterKind;
use oflow::HeaderValues;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::cpu;
use crate::stats::median;
use crate::workload::{Op, SHARDS};

/// Timed repetitions of every stage loop; each stage reports its median.
/// On the cache-friendly workloads a loop over the walked packets lasts
/// only a few milliseconds, so fewer repetitions let one interruption
/// move the stage-sum ratio by 0.2.
const REPEATS: usize = 15;

/// Packets per stage-major tile: small enough that a tile's chains stay
/// in the CPU caches between the engine and index stages.
const TILE: usize = 64;

/// Per-stage costs of the data-plane replay.
#[derive(Debug, Default)]
pub struct DataReplay {
    /// Packets replayed.
    pub packets: usize,
    /// Packets that missed the cache and walked the tables.
    pub walked: usize,
    /// `shard_of`, ns per packet.
    pub dispatch_ns: f64,
    /// `FlowCache::lookup`, ns per lookup.
    pub lookup_ns: f64,
    /// `FlowCache::insert`, ns per insert.
    pub insert_ns: f64,
    /// Field-engine searches, ns per walked packet.
    pub engine_ns: f64,
    /// Index probes, ns per walked packet.
    pub index_ns: f64,
    /// Action fetches, ns per walked packet.
    pub action_ns: f64,
    /// `MtlSwitch::classify_row`, ns per walked packet.
    pub classify_ns: f64,
    /// (engine + index + action) / `classify_row` time, median over
    /// repetitions that time both back to back.
    pub stage_sum_ratio: f64,
    /// Index probes made per walked packet.
    pub probes_per_pkt: f64,
    /// `Classifier::lookup_accesses` per walked packet.
    pub accesses_per_pkt: f64,
    /// Replayed packets whose composed answer differs from `classify_row`.
    pub mismatches: usize,
}

fn fresh_caches(slots: usize) -> Vec<FlowCache> {
    (0..SHARDS).map(|_| FlowCache::with_admission(slots, Admission::TinyLfu)).collect()
}

fn per_unit(total: Duration, units: usize) -> f64 {
    total.as_nanos() as f64 / units.max(1) as f64
}

fn timed(mut f: impl FnMut()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

/// Median over [`REPEATS`] runs of `f`, per unit.
fn stage(units: usize, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..REPEATS).map(|_| per_unit(timed(&mut f), units)).collect();
    median(&mut v)
}

/// Replays `headers` through the data-plane layers of `switch` with
/// per-shard caches of `cache_slots` slots (fresh, as after a publish).
pub fn data_plane(switch: &MtlSwitch, headers: &[HeaderValues], cache_slots: usize) -> DataReplay {
    let app = &switch.apps[0];
    let kind = app.kind;
    let epoch = 1;
    let shard: Vec<usize> = headers.iter().map(|h| shard_of(h, SHARDS)).collect();
    let dispatch_ns = stage(headers.len(), || {
        for h in headers {
            black_box(shard_of(black_box(h), SHARDS));
        }
    });

    // Which packets miss. Admission and eviction do not depend on the
    // cached value, so the pattern found here is the one the composed
    // replay below meets.
    let mut caches = fresh_caches(cache_slots);
    let mut walked_idx = Vec::new();
    for (i, h) in headers.iter().enumerate() {
        let cache = &mut caches[shard[i]];
        if cache.lookup(epoch, h).is_none() {
            cache.insert(epoch, h, None);
            walked_idx.push(i);
        }
    }
    let walked: Vec<&HeaderValues> = walked_idx.iter().map(|&i| &headers[i]).collect();

    // Each repetition times the staged walk and `classify_row` back to
    // back, so their ratio compares the two under the same conditions.
    let mut walks = Vec::with_capacity(REPEATS);
    let mut classify = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        walks.push(walk(app, &walked));
        let t = timed(|| {
            for h in &walked {
                black_box(switch.classify_row(kind, black_box(h)));
            }
        });
        classify.push(per_unit(t, walked.len()));
    }
    let mut ratios: Vec<f64> = walks
        .iter()
        .zip(&classify)
        .map(|(w, c)| per_unit(w.engine + w.index + w.action, walked.len()) / c)
        .collect();
    let rows = std::mem::take(&mut walks[0].rows);
    let probes = walks[0].probes;
    let mut engine: Vec<f64> = walks.iter().map(|w| per_unit(w.engine, walked.len())).collect();
    let mut index: Vec<f64> = walks.iter().map(|w| per_unit(w.index, walked.len())).collect();
    let mut action: Vec<f64> = walks.iter().map(|w| per_unit(w.action, walked.len())).collect();

    // Composition check: walked packets take the composed row, cached
    // packets the row the composed replay inserted for their flow.
    let mut mismatches =
        walked.iter().zip(&rows).filter(|(h, &row)| switch.classify_row(kind, h) != row).count();
    let mut caches = fresh_caches(cache_slots);
    let mut w = 0;
    for (i, h) in headers.iter().enumerate() {
        let cache = &mut caches[shard[i]];
        match cache.lookup(epoch, h) {
            Some(row) => mismatches += usize::from(row != switch.classify_row(kind, h)),
            None if walked_idx.get(w) == Some(&i) => {
                cache.insert(epoch, h, rows[w]);
                w += 1;
            }
            None => mismatches += 1,
        }
    }

    let lookup_ns = stage(headers.len(), || {
        let mut warm = caches.clone();
        for (i, h) in headers.iter().enumerate() {
            black_box(warm[shard[i]].lookup(epoch, black_box(h)));
        }
    });
    let insert_ns = stage(walked.len(), || {
        let mut warm = caches.clone();
        for (k, &i) in walked_idx.iter().enumerate() {
            warm[shard[i]].insert(epoch, black_box(&headers[i]), rows[k]);
        }
    });
    let accesses: usize = walked.iter().map(|h| switch.lookup_accesses(h)).sum();
    let n = walked.len().max(1) as f64;
    DataReplay {
        packets: headers.len(),
        walked: walked.len(),
        dispatch_ns,
        lookup_ns,
        insert_ns,
        engine_ns: median(&mut engine),
        index_ns: median(&mut index),
        action_ns: median(&mut action),
        classify_ns: median(&mut classify),
        stage_sum_ratio: median(&mut ratios),
        probes_per_pkt: probes as f64 / n,
        accesses_per_pkt: accesses as f64 / n,
        mismatches,
    }
}

/// One stage-major walk of `headers` through an application's tables.
struct Walk {
    /// Final action row per header (`None`: table miss).
    rows: Vec<Option<u32>>,
    probes: u64,
    engine: Duration,
    index: Duration,
    action: Duration,
}

/// Chain slots one packet needs in `te`: the metadata slot plus one per
/// engine label position.
fn slots(te: &TableEngine) -> usize {
    usize::from(te.config.uses_metadata)
        + te.engines.iter().map(|(_, e)| e.label_positions()).sum::<usize>()
}

fn walk(app: &AppEngine, headers: &[&HeaderValues]) -> Walk {
    let width = app.tables.iter().map(slots).max().unwrap_or(0);
    let mut chains: Vec<MatchChain> = vec![MatchChain::new(); TILE * width];
    let mut key: Vec<Label> = Vec::new();
    let mut meta: Vec<u32> = vec![0; TILE];
    let mut hit: Vec<Option<u32>> = vec![None; TILE];
    let mut alive: Vec<usize> = Vec::with_capacity(TILE);
    let mut next: Vec<usize> = Vec::with_capacity(TILE);
    let mut out = Walk {
        rows: vec![None; headers.len()],
        probes: 0,
        engine: Duration::ZERO,
        index: Duration::ZERO,
        action: Duration::ZERO,
    };
    for (t, tile) in headers.chunks(TILE).enumerate() {
        let rows = &mut out.rows[t * TILE..t * TILE + tile.len()];
        alive.clear();
        alive.extend(0..tile.len());
        for te in &app.tables {
            let s = slots(te);
            out.engine += timed(|| {
                for &p in &alive {
                    let dst = &mut chains[p * s..(p + 1) * s];
                    let mut off = 0;
                    if te.config.uses_metadata {
                        dst[0].clear();
                        dst[0].push(Label(meta[p]), u32::MAX);
                        off = 1;
                    }
                    for (field, engine) in &te.engines {
                        let w = engine.label_positions();
                        match tile[p].get(*field) {
                            Some(v) => engine.search_into(v, &mut dst[off..off + w]),
                            None => engine.search_missing_into(&mut dst[off..off + w]),
                        }
                        off += w;
                    }
                }
            });
            out.index += timed(|| {
                for &p in &alive {
                    let (found, used) =
                        te.index.probe_chains_with(&chains[p * s..(p + 1) * s], &mut key);
                    out.probes += used as u64;
                    hit[p] = found.map(|(_, row)| row);
                }
            });
            next.clear();
            out.action += timed(|| {
                for &p in &alive {
                    let Some(row) = hit[p] else { continue };
                    match te.actions.get(row).expect("index rows address the action table") {
                        ActionRow::Continue { meta: m, .. } => {
                            #[allow(clippy::cast_possible_truncation)]
                            let m = *m as u32;
                            meta[p] = m;
                            next.push(p);
                        }
                        ActionRow::Final(_) => rows[p] = Some(row),
                    }
                }
            });
            std::mem::swap(&mut alive, &mut next);
        }
    }
    out
}

/// Per-stage costs of the control-plane replay.
#[derive(Debug, Default)]
pub struct ControlReplay {
    /// `insert_rule` per add, ms.
    pub insert_ms: Vec<f64>,
    /// `remove_rule` per remove, ms.
    pub remove_ms: Vec<f64>,
    /// Updates whose report says the engine regenerated.
    pub rebuilt: usize,
    /// `MtlSwitch::clone` per update, ms.
    pub clone_ms: Vec<f64>,
    /// `Store::append` (with the record's encoding) per update, µs.
    pub append_us: Vec<f64>,
    /// Image encoding + `Store::checkpoint` per checkpoint, ms.
    pub checkpoint_ms: Vec<f64>,
    /// Calling-thread CPU time of every stage, summed over updates, ms.
    pub attributed_cpu_ms: f64,
    /// WAL bytes on disk after the replay.
    pub wal_bytes: u64,
    /// Snapshot bytes on disk after the replay.
    pub snapshot_bytes: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Replays `ops` on a clone of `initial` with a store in `dir` (which
/// must not exist), at the runtime's default checkpoint cadence.
pub fn control_plane(initial: &MtlSwitch, ops: &[Op], dir: &Path) -> ControlReplay {
    let defaults = DurabilityConfig::new(dir);
    let mut store = Store::open(dir).expect("replay store opens");
    store.set_segment_bytes(DEFAULT_SEGMENT_BYTES);
    store.set_retain_snapshots(DEFAULT_RETAIN_SNAPSHOTS);
    let mut master = initial.clone();
    let mut version = 1;
    store
        .checkpoint(version, &master.encode_image(), CheckpointMode::Durable)
        .expect("boot checkpoint");
    let mut out = ControlReplay::default();
    let mut _published = None;
    let mut cpu_ns = 0;
    let mut since = 0;
    for op in ops {
        let payload = match op {
            Op::Add(rule) => WalOp::Add { kind: FilterKind::Routing, rule: rule.clone() },
            Op::Remove(id) => WalOp::Remove { rule_id: *id },
        };
        let ((), append, append_cpu) = clocked(|| {
            store.append(&payload.encode()).expect("replay append");
        });
        let (report, mutate, mutate_cpu) = clocked(|| match op {
            Op::Add(rule) => master.insert_rule(rule.clone()).expect("replayed add applies"),
            Op::Remove(id) => {
                DynamicClassifier::remove_rule(&mut master, *id).expect("replayed remove applies")
            }
        });
        let (copy, clone, clone_cpu) = clocked(|| master.clone());
        // Held until the next publish replaces it, as the runtime's
        // snapshot cell holds the table it serves.
        _published = Some(copy);
        match op {
            Op::Add(_) => out.insert_ms.push(ms(mutate)),
            Op::Remove(_) => out.remove_ms.push(ms(mutate)),
        }
        out.rebuilt += usize::from(report.rebuilt);
        out.clone_ms.push(ms(clone));
        out.append_us.push(append.as_secs_f64() * 1e6);
        cpu_ns += append_cpu + mutate_cpu + clone_cpu;
        since += 1;
        if since >= defaults.checkpoint_every {
            since = 0;
            version += 1;
            let ((), checkpoint, checkpoint_cpu) = clocked(|| {
                let image = master.encode_image();
                store
                    .checkpoint(version, &image, CheckpointMode::Durable)
                    .expect("replay checkpoint");
            });
            out.checkpoint_ms.push(ms(checkpoint));
            cpu_ns += checkpoint_cpu;
        }
    }
    out.attributed_cpu_ms = cpu_ns as f64 / 1e6;
    let disk = store.disk_stats().expect("replay store lists");
    out.wal_bytes = disk.wal_bytes;
    out.snapshot_bytes = disk.snapshot_bytes;
    out
}

/// `f`'s result, wall-clock time and calling-thread CPU time (ns).
fn clocked<T>(f: impl FnOnce() -> T) -> (T, Duration, u64) {
    let (t, c) = (Instant::now(), cpu::thread_ns());
    let r = f();
    let cpu = cpu::thread_ns() - c;
    (r, t.elapsed(), cpu)
}
