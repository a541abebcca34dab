//! Flow-cache consistency under incremental updates.
//!
//! The cache memoises `header → action row` with an epoch stamp; every
//! `add_rule` / `remove_rule` bumps the switch epoch, so a cached entry
//! can never outlive the rule set it was computed against. These tests
//! drive random interleavings of updates and cached classification and
//! assert, after **every** update, that cache-enabled classification ==
//! cache-disabled classification == the reference oracle — exactly the
//! bug class (serving stale rows) an epoch mistake would produce. Both
//! admission policies are driven: TinyLFU (the default — its rejections
//! and sketch-guided evictions must never change *what* is served, only
//! *whether* it is memoised) and blind replacement. Every cached lookup
//! goes through `FlowCache::get_or_classify`, the memo the runtime's
//! shard workers use; the last test drives a baseline engine through
//! the runtime itself.

use classifier_api::{reference_classify, FlowCache};
use mtl_core::{MtlSwitch, SwitchConfig};
use offilter::{FilterKind, FilterSet, Rule, RuleAction};
use oflow::{FlowMatch, HeaderValues, MatchFieldKind};
use proptest::prelude::*;

fn route(id: u32, port: u32, value: u32, len: u32, out: u32) -> Rule {
    Rule::new(
        id,
        len as u16,
        FlowMatch::any()
            .with_exact(MatchFieldKind::InPort, u128::from(port))
            .unwrap()
            .with_prefix(MatchFieldKind::Ipv4Dst, u128::from(value), len)
            .unwrap(),
        RuleAction::Forward(out),
    )
}

fn header(port: u32, dst: u32) -> HeaderValues {
    HeaderValues::new()
        .with(MatchFieldKind::InPort, u128::from(port))
        .with(MatchFieldKind::Ipv4Dst, u128::from(dst))
}

/// A pool of nested/overlapping routing rules for update sequences.
fn rule_pool() -> Vec<Rule> {
    let mut pool = Vec::new();
    let mut id = 0;
    for port in 1..=2u32 {
        for (value, len) in [
            (0x0000_0000, 0),
            (0x0A00_0000, 8),
            (0x0A01_0000, 16),
            (0x0A01_8000, 17),
            (0x0A01_0200, 24),
            (0x0A01_0280, 25),
            (0x0B00_0000, 8),
            (0x0B0B_0000, 16),
        ] {
            pool.push(route(id, port, value, len, id + 100));
            id += 1;
        }
    }
    pool
}

/// Probe headers hitting the pool's nesting structure plus misses.
fn probes() -> Vec<HeaderValues> {
    let mut out = Vec::new();
    for port in 1..=3u32 {
        for dst in [
            0x0A01_0203u32,
            0x0A01_0281,
            0x0A01_8001,
            0x0A01_FFFF,
            0x0A02_0000,
            0x0B0B_0001,
            0x0BFF_0000,
            0xDEAD_BEEF,
        ] {
            out.push(header(port, dst));
        }
    }
    out
}

/// The switch's routing row for `h`, served through `cache` under the
/// switch's current epoch.
fn cached_row(sw: &MtlSwitch, cache: &mut FlowCache, h: &HeaderValues) -> Option<u32> {
    cache.get_or_classify(sw.epoch(), h, |h| sw.classify_row(FilterKind::Routing, h))
}

/// Asserts the three-way agreement on every probe header: cached row ==
/// uncached row, whose rule id == the oracle's.
fn assert_consistent(
    sw: &MtlSwitch,
    rules: &[Rule],
    cache: &mut FlowCache,
    headers: &[HeaderValues],
    ctx: &str,
) {
    let app = sw.app(FilterKind::Routing).expect("routing app");
    for h in headers {
        let uncached_row = sw.classify_row(FilterKind::Routing, h);
        assert_eq!(cached_row(sw, cache, h), uncached_row, "{ctx}: cached row differs on {h}");
        let got_id = uncached_row.and_then(|row| app.rule_id_of_row(row));
        let want_id = reference_classify(rules, h);
        assert_eq!(got_id, want_id, "{ctx}: oracle disagrees on {h}");
    }
    // The engine-major batch path must agree element-wise with a second
    // cached pass (served almost entirely from the now-warm cache).
    let uncached = sw.classify_batch_rows(FilterKind::Routing, headers);
    let cached: Vec<Option<u32>> = headers.iter().map(|h| cached_row(sw, cache, h)).collect();
    assert_eq!(cached, uncached, "{ctx}: cached batch differs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random interleavings of add_rule / remove_rule with cached
    /// classification: after every update, caches under **both**
    /// admission policies must agree with the uncached path and the
    /// oracle (no stale rows survive an epoch, and TinyLFU's admission
    /// decisions never alter served results).
    #[test]
    fn cached_classification_survives_random_updates(
        seed_mask in 1u32..0xFFFF,
        ops in proptest::collection::vec((any::<bool>(), any::<prop::sample::Index>()), 1..12)
    ) {
        let pool = rule_pool();
        // Seed switch: the pool rules whose bit is set in seed_mask
        // (at least one — rule 0 is always included).
        let seeded: Vec<Rule> = pool
            .iter()
            .enumerate()
            .filter(|&(i, _)| i == 0 || seed_mask & (1 << (i % 16)) != 0)
            .map(|(_, r)| r.clone())
            .collect();
        let set = FilterSet::preserving_ids("fc", FilterKind::Routing, seeded.clone());
        let config = SwitchConfig::single_app(FilterKind::Routing, 0);
        let mut sw = MtlSwitch::build(&config, &[&set]);
        let mut live: Vec<Rule> = seeded;
        // A deliberately tiny TinyLFU cache (constant admission
        // pressure) and a blind cache.
        let mut tinylfu = FlowCache::new(16);
        let mut blind = FlowCache::blind(64);
        let headers = probes();

        // Warm the caches on the seed state (entries that MUST not be
        // served stale after the updates below).
        assert_consistent(&sw, &live, &mut tinylfu, &headers, "seed (tinylfu)");
        assert_consistent(&sw, &live, &mut blind, &headers, "seed (blind)");

        for (i, (add, which)) in ops.iter().enumerate() {
            if *add {
                // Add a pool rule not currently live (if any).
                let missing: Vec<&Rule> =
                    pool.iter().filter(|r| !live.iter().any(|l| l.id == r.id)).collect();
                if missing.is_empty() {
                    continue;
                }
                let rule = missing[which.index(missing.len())].clone();
                sw.add_rule(FilterKind::Routing, rule.clone());
                live.push(rule);
            } else {
                if live.len() <= 1 {
                    continue;
                }
                let victim = live[which.index(live.len())].id;
                sw.remove_rule(FilterKind::Routing, victim).expect("victim is live");
                live.retain(|r| r.id != victim);
            }
            assert_consistent(&sw, &live, &mut tinylfu, &headers, &format!("op {i} (tinylfu)"));
            assert_consistent(&sw, &live, &mut blind, &headers, &format!("op {i} (blind)"));
        }
    }
}

#[test]
fn epoch_advances_on_every_mutation() {
    let pool = rule_pool();
    let set = FilterSet::preserving_ids("fc", FilterKind::Routing, vec![pool[0].clone()]);
    let config = SwitchConfig::single_app(FilterKind::Routing, 0);
    let mut sw = MtlSwitch::build(&config, &[&set]);
    let e0 = sw.epoch();
    sw.add_rule(FilterKind::Routing, pool[1].clone());
    let e1 = sw.epoch();
    assert!(e1 > e0, "add_rule must bump the epoch");
    sw.remove_rule(FilterKind::Routing, pool[1].id).expect("rule exists");
    let e2 = sw.epoch();
    assert!(e2 > e1, "remove_rule must bump the epoch");
}

/// A baseline engine served by the sharded runtime with its per-shard
/// flow caches on. A control thread interleaves `add_rule` and
/// `remove_rule` while traffic flows, and every served row must equal
/// the oracle over the live rules at the version that served it — a
/// cached row surviving a publish would show up here.
#[test]
fn cached_tss_stays_consistent_under_updates() {
    use classifier_api::ClassifierBuilder;
    use mtl_runtime::{Runtime, RuntimeConfig};
    use ofbaseline::tss::TupleSpaceSearch;
    use std::sync::mpsc;

    let pool = rule_pool();
    let seed: Vec<Rule> = pool[..8].to_vec();
    let set = FilterSet::preserving_ids("fc", FilterKind::Routing, seed.clone());
    let config = RuntimeConfig {
        shards: 2,
        ring_capacity: 8,
        cache_capacity: 64,
        pin_workers: false,
        ..RuntimeConfig::default()
    };
    let rt = Runtime::with_control(TupleSpaceSearch::try_build(&set).unwrap(), &config);
    // Version → live rules at that version.
    let mut log = vec![(rt.version(), seed.clone())];
    // Every probe three times per batch: repeats are served from cache.
    let headers: Vec<HeaderValues> =
        probes().iter().cycle().take(3 * probes().len()).cloned().collect();
    let batches = std::thread::scope(|scope| {
        // The traffic thread reports each served batch and stops once
        // the receiver is gone: at the end, or when a check below fails.
        let (served_tx, served_rx) = mpsc::channel();
        let (rt, headers) = (&rt, &headers);
        let traffic = scope.spawn(move || {
            let mut served = Vec::new();
            loop {
                served.push(rt.classify_batch(headers));
                if served_tx.send(()).is_err() {
                    return served;
                }
            }
        });
        // After each update, wait for two more served batches: the second
        // started after the first finished, so after the update.
        let traffic_caught_up = || {
            while served_rx.try_recv().is_ok() {}
            for _ in 0..2 {
                served_rx.recv().expect("traffic thread is running");
            }
        };
        traffic_caught_up();
        let mut live = seed;
        for (step, rule) in pool[8..].iter().enumerate() {
            live.push(rule.clone());
            let (_, v) = rt.add_rule(rule.clone()).expect("tss insert works");
            log.push((v, live.clone()));
            traffic_caught_up();
            if step % 2 == 1 {
                let victim = live[(3 * step) % live.len()].id;
                live.retain(|r| r.id != victim);
                let (_, v) = rt.remove_rule(victim).expect("victim is live");
                log.push((v, live.clone()));
                traffic_caught_up();
            }
        }
        drop(served_rx);
        traffic.join().expect("traffic thread")
    });
    let rules_at = |version: u64| {
        &log.iter().find(|(v, _)| *v == version).unwrap_or_else(|| panic!("version {version}")).1
    };
    for (b, batch) in batches.iter().enumerate() {
        for (k, h) in headers.iter().enumerate() {
            let version = batch.versions[k];
            assert_eq!(
                batch.rows[k],
                reference_classify(rules_at(version), h),
                "batch {b}, {h} served at version {version}"
            );
        }
    }
    let hits: u64 = rt.telemetry().per_shard.iter().map(|s| s.cache.hits).sum();
    assert!(hits > 0, "repeated probes must be served from the shard caches");
}
