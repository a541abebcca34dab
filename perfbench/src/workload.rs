//! The three workloads and the inputs each one generates from a seed.
//!
//! Everything the runtime sees is derived here, deterministically, from
//! `--seed`: the rule set, the flow pool, the packet stream (cut into
//! 256-packet batches) and the controller's update sequence. The
//! program under test receives only these generated inputs.

use offilter::paper_data::ROUTING_FILTERS;
use offilter::synth::{
    generate_flows, generate_routing, generate_scan_trace, RoutingTargets, TraceConfig, ZipfSampler,
};
use offilter::{FilterSet, Rule, RuleAction};
use oflow::{FlowMatch, HeaderValues, MatchFieldKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Worker shards of every runtime the benchmark starts.
pub const SHARDS: usize = 2;

/// Packets per submitted batch: one NIC receive burst.
pub const BATCH: usize = 256;

/// Updates per group: three adds, then a remove.
pub const GROUP: usize = 4;

/// Ids of rules the controller adds start here, far above every
/// generated set's `0..len` ids.
const FRESH_ID_BASE: u32 = 1_000_000;

/// Which rule set a workload serves.
#[derive(Debug, Clone, Copy)]
pub enum Table {
    /// The paper's `boza` routing set (1614 rules).
    Boza,
    /// A 16k-rule routing set shaped like the `storm` experiment's.
    Routing16k,
}

/// One workload: what it serves, what traffic it offers and at which
/// fixed rates.
#[derive(Debug)]
pub struct Spec {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Rule set served.
    pub table: Table,
    /// Distinct flows in the pool the stream samples from.
    pub flows: usize,
    /// Zipf exponent over flow ranks (0 = uniform).
    pub skew: f64,
    /// Share of packets that are fresh one-shot headers.
    pub oneshot: f64,
    /// Packets in the generated stream, replayed cyclically.
    pub stream_packets: usize,
    /// Offered load of the open-loop latency phase, Mpkt/s.
    pub offered_mpps: f64,
    /// Update groups ([`GROUP`] updates each) offered per second beside
    /// the traffic, on a durable runtime (WAL + checkpoints). `None`: no
    /// updates, and the control plane stays in memory.
    pub churn_groups_per_sec: Option<f64>,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "zipf-hot",
        table: Table::Boza,
        flows: 3072,
        skew: 1.1,
        oneshot: 0.01,
        stream_packets: 1 << 16,
        offered_mpps: 2.0,
        churn_groups_per_sec: None,
    },
    Spec {
        name: "uniform-cold",
        table: Table::Routing16k,
        flows: 1 << 16,
        skew: 0.0,
        oneshot: 0.0,
        stream_packets: 1 << 17,
        offered_mpps: 0.4,
        churn_groups_per_sec: None,
    },
    Spec {
        name: "churn-16k",
        table: Table::Routing16k,
        flows: 3072,
        skew: 1.1,
        oneshot: 0.01,
        stream_packets: 1 << 16,
        offered_mpps: 1.0,
        churn_groups_per_sec: Some(1.25),
    },
];

/// The workload called `name`.
pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// One controller update.
#[derive(Debug, Clone)]
pub enum Op {
    /// `add_rule` of a fresh rule.
    Add(Rule),
    /// `remove_rule` of an id that is live when the op runs.
    Remove(u32),
}

/// Everything one run feeds the runtime.
pub struct Inputs {
    /// The rule set the table is built from.
    pub set: FilterSet,
    /// Distinct flows: the pool first, then the stream's one-shot headers.
    pub flows: Vec<HeaderValues>,
    /// Flow index of every stream packet.
    pub stream: Vec<u32>,
    /// The stream cut into submit-ready batches.
    pub batches: Vec<Arc<[HeaderValues]>>,
    /// The controller's update sequence, in the order it is sent.
    pub ops: Vec<Op>,
}

impl Inputs {
    /// Generates `spec`'s inputs from `seed`, with `ops` controller updates.
    pub fn generate(spec: &Spec, seed: u64, ops: usize) -> Self {
        let set = rule_set(spec.table, seed);
        let cfg = TraceConfig {
            packets: spec.stream_packets,
            flows: spec.flows,
            skew: spec.skew,
            random_fraction: 0.0,
            oneshot_fraction: 0.0,
        };
        let mut flows = generate_flows(&set, &cfg, seed ^ 0x666C_6F77);
        let pool = flows.len();
        let zipf = ZipfSampler::new(pool, spec.skew);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7374_7265);
        let mut oneshots = 0usize;
        let picks: Vec<Option<usize>> = (0..spec.stream_packets)
            .map(|_| {
                if spec.oneshot > 0.0 && rng.gen_bool(spec.oneshot) {
                    oneshots += 1;
                    None
                } else {
                    Some(zipf.sample(&mut rng))
                }
            })
            .collect();
        if oneshots > 0 {
            flows.extend(generate_scan_trace(&set, oneshots, seed ^ 0x6F6E_6573));
        }
        let mut next_oneshot = pool;
        let stream: Vec<u32> = picks
            .into_iter()
            .map(|p| {
                let f = p.unwrap_or_else(|| {
                    next_oneshot += 1;
                    next_oneshot - 1
                });
                u32::try_from(f).expect("flow index fits u32")
            })
            .collect();
        let batches = stream
            .chunks(BATCH)
            .map(|c| c.iter().map(|&f| flows[f as usize].clone()).collect::<Vec<_>>().into())
            .collect();
        let ops = update_ops(&set, &flows[..pool], ops, seed ^ 0x6F70_7300);
        Self { set, flows, stream, batches, ops }
    }
}

fn rule_set(table: Table, seed: u64) -> FilterSet {
    match table {
        Table::Boza => {
            let stats = ROUTING_FILTERS
                .iter()
                .find(|s| s.router == "boza")
                .expect("boza is a paper router");
            generate_routing(&RoutingTargets::from_paper(stats), seed ^ 0x626F_7A61)
        }
        Table::Routing16k => {
            // The `storm` experiment's sizing rule at 16k rules.
            let rules = 16_000;
            let partition = rules / 8;
            let targets = RoutingTargets {
                name: "routing-16k".into(),
                rules,
                port_unique: 16,
                ip_partitions: [partition, partition],
                short_prefixes: (rules / 300).clamp(1, 12),
                out_ports: 32,
            };
            generate_routing(&targets, seed ^ 0x5708_4D17)
        }
    }
}

fn in_port_and_dst(rule: &Rule) -> (u128, (u128, u32)) {
    let port = rule.field_as_prefix(MatchFieldKind::InPort).expect("routing rules match in_port").0;
    let dst = rule.field_as_prefix(MatchFieldKind::Ipv4Dst).expect("routing rules match ipv4_dst");
    (port, dst)
}

/// The controller's sequence: three adds, then a remove, repeated, so
/// the median update is an add and the p90 a remove (a 1:1 mix would put
/// the median on the boundary between the two). Half the adds are longer
/// prefixes covering a live flow (they change that flow's answer); the
/// rest are random /24s. Removes pick a uniformly random live id,
/// original or added. Every added (prefix, length) is unique among live
/// rules, and the priority is the prefix length, as in the generated
/// sets, so no two live rules tie.
fn update_ops(set: &FilterSet, pool: &[HeaderValues], n: usize, seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<u32> = set.rules.iter().map(|r| r.id).collect();
    let mut prefix_of: HashMap<u32, (u128, u32)> = HashMap::new();
    let mut used: HashSet<(u128, u32)> = HashSet::new();
    let mut ports: Vec<u128> = Vec::new();
    for rule in &set.rules {
        let (port, dst) = in_port_and_dst(rule);
        prefix_of.insert(rule.id, dst);
        used.insert(dst);
        if !ports.contains(&port) {
            ports.push(port);
        }
    }
    let mut ops = Vec::with_capacity(n);
    for j in 0..n {
        if j % GROUP == GROUP - 1 {
            let id = live.swap_remove(rng.gen_range(0..live.len()));
            used.remove(&prefix_of.remove(&id).expect("live ids have prefixes"));
            ops.push(Op::Remove(id));
            continue;
        }
        let (port, value, len) = loop {
            let (port, addr, len) = if rng.gen_bool(0.5) {
                let flow = &pool[rng.gen_range(0..pool.len())];
                let port = flow.get(MatchFieldKind::InPort).expect("flows carry in_port");
                let addr = flow.get(MatchFieldKind::Ipv4Dst).expect("flows carry ipv4_dst");
                (port, addr, rng.gen_range(25..=32u32))
            } else {
                (ports[rng.gen_range(0..ports.len())], u128::from(rng.gen::<u32>()), 24)
            };
            let value = addr >> (32 - len) << (32 - len);
            if used.insert((value, len)) {
                break (port, value, len);
            }
        };
        let id = FRESH_ID_BASE + u32::try_from(j).expect("op index fits u32");
        let flow_match = FlowMatch::any()
            .with_exact(MatchFieldKind::InPort, port)
            .expect("port fits")
            .with_prefix(MatchFieldKind::Ipv4Dst, value, len)
            .expect("prefix fits");
        let out = 1 + rng.gen_range(0..32u32);
        let priority = u16::try_from(len).expect("prefix length fits u16");
        prefix_of.insert(id, (value, len));
        live.push(id);
        ops.push(Op::Add(Rule::new(id, priority, flow_match, RuleAction::Forward(out))));
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let spec = spec("zipf-hot").expect("known workload");
        let a = Inputs::generate(spec, 5, 40);
        let b = Inputs::generate(spec, 5, 40);
        assert_eq!(a.stream, b.stream);
        assert_eq!(a.flows, b.flows);
        assert_eq!(format!("{:?}", a.ops), format!("{:?}", b.ops));
        assert_ne!(a.stream, Inputs::generate(spec, 6, 0).stream);
    }

    #[test]
    fn removes_name_live_ids_and_adds_are_fresh() {
        let spec = spec("zipf-hot").expect("known workload");
        let inputs = Inputs::generate(spec, 9, 200);
        let mut live: HashSet<u32> = inputs.set.rules.iter().map(|r| r.id).collect();
        for op in &inputs.ops {
            match op {
                Op::Add(rule) => assert!(live.insert(rule.id), "add of a live id"),
                Op::Remove(id) => assert!(live.remove(id), "remove of a dead id"),
            }
        }
        assert_eq!(live.len(), inputs.set.rules.len() + 100);
    }
}
