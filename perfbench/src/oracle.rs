//! The correctness oracle: `reference_classify` answers per flow, kept
//! per table version, and the deferred check of every served batch.
//!
//! All `reference_classify` work happens before the timed windows. While
//! traffic runs, the generator only folds each completed batch into a
//! [`BatchRecord`] (a fingerprint of its rows and serving versions);
//! [`Oracle::verify`] recomputes the expected fingerprint afterwards.

use classifier_api::reference_classify;
use mtl_runtime::{shard_of, UNSERVED_VERSION};
use offilter::Rule;
use oflow::{FieldMatch, HeaderValues, MatchFieldKind};
use std::collections::HashMap;

use crate::workload::{Op, BATCH, SHARDS};

/// Answer of every flow at every number of applied updates.
pub struct Oracle {
    /// Per flow, `(updates applied, answer from then on)`, ascending;
    /// the first entry is the built table's answer.
    history: Vec<Vec<(u32, Option<u32>)>>,
}

impl Oracle {
    /// Memoises the answer of every flow under `rules`, then follows
    /// `ops`: after each update only the flows the added or removed rule
    /// matches are recomputed. Of the flows a removed rule matches, only
    /// those it answered can change: any other winner is still present.
    pub fn prepare(rules: &[Rule], flows: &[HeaderValues], ops: &[Op]) -> Self {
        let mut current: Vec<Option<u32>> = initial_answers(rules, flows);
        let mut history: Vec<Vec<(u32, Option<u32>)>> =
            current.iter().map(|&a| vec![(0, a)]).collect();
        let mut live: Vec<Rule> = rules.to_vec();
        for (j, op) in ops.iter().enumerate() {
            let applied = u32::try_from(j + 1).expect("op count fits u32");
            let (touched, removed) = match op {
                Op::Add(rule) => {
                    live.push(rule.clone());
                    (rule.clone(), None)
                }
                Op::Remove(id) => {
                    let at = live.iter().position(|r| r.id == *id).expect("removes name live ids");
                    (live.remove(at), Some(*id))
                }
            };
            for (f, flow) in flows.iter().enumerate() {
                if removed.is_some_and(|id| current[f] != Some(id))
                    || !touched.flow_match.matches(flow)
                {
                    continue;
                }
                let answer = reference_classify(&live, flow);
                if answer != current[f] {
                    current[f] = answer;
                    history[f].push((applied, answer));
                }
            }
        }
        Self { history }
    }

    /// Flow `flow`'s answer once `applied` updates are in the table.
    pub fn expected(&self, flow: usize, applied: u64) -> Option<u32> {
        let h = &self.history[flow];
        h.iter().rev().find(|&&(from, _)| u64::from(from) <= applied).map_or(h[0].1, |&(_, a)| a)
    }

    /// Checks every record against the oracle. `base` is the version the
    /// runtime served before the first update; version `base + k`
    /// carries `k` applied updates.
    pub fn verify(&self, plan: &StreamPlan, records: &[BatchRecord], base: u64) -> Verdict {
        let mut verdict = Verdict::default();
        for rec in records {
            let b = rec.batch as usize;
            let mut fp = FINGERPRINT_SEED;
            for (k, &flow) in plan.batch_flows(b).iter().enumerate() {
                let version = rec.versions[usize::from(plan.shard[b * BATCH + k])];
                let row = if version == UNSERVED_VERSION {
                    verdict.unserved += 1;
                    None
                } else {
                    self.expected(flow as usize, version.saturating_sub(base))
                };
                fp = fold(fp, row, version);
            }
            if fp != rec.fingerprint {
                verdict.mismatched_batches += 1;
                verdict.mismatched_packets += plan.batch_flows(b).len() as u64;
            }
        }
        verdict
    }
}

/// `reference_classify` for every flow. A rule whose `in_port` is exact
/// can only match headers carrying that port, so each header is checked
/// against its port's rules plus every rule without an exact port. The
/// filter keeps the rules' relative order, so the winner (ties included)
/// is the one `reference_classify` picks over the whole list.
fn initial_answers(rules: &[Rule], flows: &[HeaderValues]) -> Vec<Option<u32>> {
    let exact_port = |r: &Rule| match r.field(MatchFieldKind::InPort) {
        FieldMatch::Exact(p) => Some(p),
        _ => None,
    };
    let mut buckets: HashMap<Option<u128>, Vec<Rule>> = HashMap::new();
    let ports: Vec<Option<u128>> = rules.iter().map(exact_port).collect();
    for port in ports.iter().copied().chain([None]) {
        buckets.entry(port).or_insert_with(|| {
            rules
                .iter()
                .filter(|r| exact_port(r).is_none() || exact_port(r) == port)
                .cloned()
                .collect()
        });
    }
    classifier_api::sharded(flows, SHARDS, |chunk| {
        chunk
            .iter()
            .map(|h| {
                let bucket = buckets.get(&h.get(MatchFieldKind::InPort)).unwrap_or(&buckets[&None]);
                reference_classify(bucket, h)
            })
            .collect()
    })
}

/// What the check found.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verdict {
    /// Packets the runtime reported as not served.
    pub unserved: u64,
    /// Batches whose rows or versions differ from the oracle's.
    pub mismatched_batches: u64,
    /// Packets in those batches (a fingerprint cannot tell which packet
    /// of a batch differed, so the whole batch counts).
    pub mismatched_packets: u64,
}

/// Per stream batch: which shard serves each packet, and the first
/// packet of each shard (whose version stands for its shard's job).
pub struct StreamPlan {
    /// Flow index per stream packet.
    stream: Vec<u32>,
    /// Serving shard per stream packet.
    shard: Vec<u8>,
    /// Per batch and shard, the first packet's offset in the batch.
    first: Vec<[Option<u16>; SHARDS]>,
}

impl StreamPlan {
    /// Plans `stream` (flow indices into `flows`), batch by batch.
    pub fn new(stream: &[u32], flows: &[HeaderValues]) -> Self {
        let shard: Vec<u8> = stream
            .iter()
            .map(|&f| u8::try_from(shard_of(&flows[f as usize], SHARDS)).expect("few shards"))
            .collect();
        let first = shard
            .chunks(BATCH)
            .map(|c| {
                let mut first = [None; SHARDS];
                for (k, &s) in c.iter().enumerate() {
                    first[usize::from(s)].get_or_insert(u16::try_from(k).expect("batch fits u16"));
                }
                first
            })
            .collect();
        Self { stream: stream.to_vec(), shard, first }
    }

    fn batch_flows(&self, b: usize) -> &[u32] {
        let start = b * BATCH;
        &self.stream[start..(start + BATCH).min(self.stream.len())]
    }

    /// Folds one completed batch into its record (the only work the
    /// generator does per batch inside a timed window).
    pub fn record(&self, batch: usize, rows: &[Option<u32>], versions: &[u64]) -> BatchRecord {
        let mut fp = FINGERPRINT_SEED;
        for (&row, &version) in rows.iter().zip(versions) {
            fp = fold(fp, row, version);
        }
        let mut shard_versions = [UNSERVED_VERSION; SHARDS];
        for (s, first) in self.first[batch].iter().enumerate() {
            if let Some(k) = first {
                shard_versions[s] = versions[usize::from(*k)];
            }
        }
        BatchRecord {
            batch: u32::try_from(batch).expect("batch index fits u32"),
            versions: shard_versions,
            fingerprint: fp,
        }
    }
}

/// A served batch, reduced to what the deferred check needs.
#[derive(Debug, Clone, Copy)]
pub struct BatchRecord {
    /// Stream batch index.
    pub batch: u32,
    /// Version that served each shard's part.
    pub versions: [u64; SHARDS],
    /// Fingerprint of every packet's row and version.
    pub fingerprint: u64,
}

const FINGERPRINT_SEED: u64 = 0xCBF2_9CE4_8422_2325;

fn fold(fp: u64, row: Option<u32>, version: u64) -> u64 {
    let word = row.map_or(0, |r| u64::from(r) + 1) ^ (version << 33);
    (fp ^ word).wrapping_mul(0x0100_0000_01B3).rotate_left(23)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{spec, Inputs};

    #[test]
    fn bucketed_answers_equal_the_full_reference() {
        let inputs = Inputs::generate(spec("zipf-hot").expect("known"), 3, 0);
        let flows = &inputs.flows[..512];
        let got = initial_answers(&inputs.set.rules, flows);
        for (h, a) in flows.iter().zip(got) {
            assert_eq!(a, reference_classify(&inputs.set.rules, h));
        }
    }

    #[test]
    fn history_follows_every_update() {
        let inputs = Inputs::generate(spec("zipf-hot").expect("known"), 4, 60);
        let flows = &inputs.flows[..256];
        let oracle = Oracle::prepare(&inputs.set.rules, flows, &inputs.ops);
        let mut live = inputs.set.rules.clone();
        for (j, op) in inputs.ops.iter().enumerate() {
            match op {
                Op::Add(r) => live.push(r.clone()),
                Op::Remove(id) => live.retain(|r| r.id != *id),
            }
            for (f, h) in flows.iter().enumerate() {
                assert_eq!(oracle.expected(f, j as u64 + 1), reference_classify(&live, h));
            }
        }
    }

    #[test]
    fn a_wrong_row_fails_the_batch() {
        let inputs = Inputs::generate(spec("zipf-hot").expect("known"), 5, 0);
        let oracle = Oracle::prepare(&inputs.set.rules, &inputs.flows, &[]);
        let plan = StreamPlan::new(&inputs.stream, &inputs.flows);
        let mut rows: Vec<Option<u32>> =
            plan.batch_flows(0).iter().map(|&f| oracle.expected(f as usize, 0)).collect();
        let versions = vec![7u64; rows.len()];
        let good = plan.record(0, &rows, &versions);
        assert_eq!(oracle.verify(&plan, &[good], 7).mismatched_batches, 0);
        rows[3] = Some(rows[3].map_or(0, |r| r + 1));
        let bad = plan.record(0, &rows, &versions);
        assert_eq!(oracle.verify(&plan, &[bad], 7).mismatched_batches, 1);
    }
}
