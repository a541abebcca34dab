//! §V.A headline: total memory of the 4-table MAC + Routing prototype.
//!
//! Paper anchors: 5 Mbits total; 4 OpenFlow lookup tables, two MBT
//! structures and two EM LUTs; the MBTs hold the majority of the storage;
//! the worst-case VLAN LUT must address 209 values; max 54 010 stored
//! nodes and 983.7 Kbits for the gozb Ethernet tries.
//!
//! The paper sizes one prototype for the worst-case filters, so this
//! experiment builds the switch over the worst-case routers — gozb for MAC
//! learning (largest Ethernet tries, 209 VLANs) and coza for routing
//! (184 909 rules) — and reports the totals; a second sweep reports totals
//! for every router pair.

use crate::data::Workloads;
use crate::output::{render_table, write_json, ToJson};
use minijson::{obj, Json};
use mtl_core::{MtlSwitch, SwitchConfig, SwitchMemoryReport};

/// One switch build's memory summary.
#[derive(Debug, Clone)]
pub struct Summary {
    /// MAC router used.
    pub mac_router: String,
    /// Routing router used.
    pub routing_router: String,
    /// Total bits.
    pub total_bits: u64,
    /// Total Mbits.
    pub total_mbits: f64,
    /// Bits in MBT structures.
    pub mbt_bits: u64,
    /// Bits in EM LUTs.
    pub lut_bits: u64,
    /// Bits in index tables.
    pub index_bits: u64,
    /// Bits in action tables.
    pub action_bits: u64,
    /// MBT share of the total.
    pub mbt_share: f64,
    /// Stratix-V M20K blocks.
    pub m20k_blocks: u32,
}

impl ToJson for Summary {
    fn to_json(&self) -> Json {
        obj([
            ("mac_router", self.mac_router.as_str().into()),
            ("routing_router", self.routing_router.as_str().into()),
            ("total_bits", self.total_bits.into()),
            ("total_mbits", self.total_mbits.into()),
            ("mbt_bits", self.mbt_bits.into()),
            ("lut_bits", self.lut_bits.into()),
            ("index_bits", self.index_bits.into()),
            ("action_bits", self.action_bits.into()),
            ("mbt_share", self.mbt_share.into()),
            ("m20k_blocks", self.m20k_blocks.into()),
        ])
    }
}

/// The headline results.
#[derive(Debug, Clone)]
pub struct Headline {
    /// The paper-scale prototype: worst-case MAC filter (gozb) with the
    /// largest ordinary routing filter (yoza).
    pub worst_case: Summary,
    /// Scalability point: the giant coza routing table (184 909 rules at
    /// full size; its index table dominates, which is the decomposition
    /// trade-off the paper's Table I ascribes to the category).
    pub coza: Summary,
    /// Per-router sweep (router i of both tables).
    pub sweep: Vec<Summary>,
}

impl ToJson for Headline {
    fn to_json(&self) -> Json {
        obj([
            ("worst_case", self.worst_case.to_json()),
            ("coza", self.coza.to_json()),
            ("sweep", self.sweep.to_json()),
        ])
    }
}

fn summarize(w: &Workloads, mac: &str, routing: &str) -> Summary {
    let config = SwitchConfig::mac_routing_preset();
    let sw = MtlSwitch::build(
        &config,
        &[w.mac_of(mac).expect("mac set"), w.routing_of(routing).expect("routing set")],
    );
    let r = SwitchMemoryReport::of(&sw);
    Summary {
        mac_router: mac.to_owned(),
        routing_router: routing.to_owned(),
        total_bits: r.total().bits(),
        total_mbits: r.total().mbits(),
        mbt_bits: r.mbt_bits,
        lut_bits: r.lut_bits,
        index_bits: r.index_bits,
        action_bits: r.action_bits,
        mbt_share: r.mbt_share(),
        m20k_blocks: r.m20k_blocks(),
    }
}

/// Runs the experiment.
#[must_use]
pub fn run(w: &Workloads) -> Headline {
    let worst_case = summarize(w, "gozb", "yoza");
    let coza = summarize(w, "gozb", "coza");
    let sweep = offilter::paper_data::ROUTERS.iter().map(|r| summarize(w, r, r)).collect();
    Headline { worst_case, coza, sweep }
}

/// Prints the headline and writes JSON.
pub fn report(w: &Workloads) {
    let h = run(w);
    println!("== §V.A headline: 4-table MAC+Routing prototype memory ==");
    println!(
        "worst case (MAC={}, Routing={}): {:.3} Mbits total \
         (paper: 5 Mbits)",
        h.worst_case.mac_router, h.worst_case.routing_router, h.worst_case.total_mbits
    );
    println!(
        "  MBT {:.3} Mbits ({:.0}% of total; paper: majority, ~2 Mbits) | \
         LUTs {:.1} Kbits | index {:.1} Kbits | actions {:.1} Kbits | {} M20K",
        h.worst_case.mbt_bits as f64 / 1e6,
        100.0 * h.worst_case.mbt_share,
        h.worst_case.lut_bits as f64 / 1e3,
        h.worst_case.index_bits as f64 / 1e3,
        h.worst_case.action_bits as f64 / 1e3,
        h.worst_case.m20k_blocks,
    );
    println!(
        "scalability (MAC={}, Routing={}): {:.3} Mbits total, index {:.2} Mbits",
        h.coza.mac_router,
        h.coza.routing_router,
        h.coza.total_mbits,
        h.coza.index_bits as f64 / 1e6,
    );
    println!("\nper-router sweep (same router for both tables):");
    let rows: Vec<Vec<String>> = h
        .sweep
        .iter()
        .map(|s| {
            vec![
                s.mac_router.clone(),
                format!("{:.3}", s.total_mbits),
                format!("{:.0}%", 100.0 * s.mbt_share),
                s.m20k_blocks.to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&["router", "total Mbits", "MBT share", "M20K"], &rows));
    write_json("headline", &h);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_in_paper_ballpark() {
        let w = Workloads::shared_quick();
        let h = run(w);
        // Quick mode scales coza down 20x, so only the sweep's small
        // routers are meaningful here; they must land within an order of
        // magnitude of the paper's 5 Mbit prototype.
        for s in &h.sweep {
            assert!(s.total_bits > 0);
            assert!(
                s.total_mbits < 50.0,
                "router {}: {} Mbits is out of scale",
                s.mac_router,
                s.total_mbits
            );
        }
        // MBTs hold the largest structural share, as the paper reports.
        assert!(h.worst_case.mbt_share > 0.25, "MBT share {}", h.worst_case.mbt_share);
        assert!(
            h.worst_case.mbt_bits > h.worst_case.lut_bits,
            "MBT {} <= LUT {}",
            h.worst_case.mbt_bits,
            h.worst_case.lut_bits
        );
    }
}
