//! Fig. 5: CPU clock cycles for algorithm update — original method vs the
//! label method.
//!
//! Builds the paper's 4-table switch (VLAN LUT -> Ethernet MBT, port LUT
//! -> IP MBT) per router and compares the update records the label-method
//! build wrote against the original-method replay (every rule re-writes
//! its field data, duplicates included), at 2 clock cycles per record.
//! Paper anchor: "achieving a 56.92% fewer CPU clock cycles on average".

use crate::data::Workloads;
use crate::output::{render_table, write_json, ToJson};
use minijson::{obj, Json};
use mtl_core::{MtlSwitch, SwitchConfig};

/// One router's update-cost comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Router name.
    pub router: String,
    /// Total rules (MAC + routing).
    pub rules: usize,
    /// Cycles with the original method.
    pub original_cycles: usize,
    /// Cycles with the label method.
    pub label_cycles: usize,
    /// Fractional reduction.
    pub reduction: f64,
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        obj([
            ("router", self.router.as_str().into()),
            ("rules", self.rules.into()),
            ("original_cycles", self.original_cycles.into()),
            ("label_cycles", self.label_cycles.into()),
            ("reduction", self.reduction.into()),
        ])
    }
}

/// The Fig. 5 results.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Per-router rows.
    pub rows: Vec<Row>,
    /// Mean reduction across routers (paper: 0.5692).
    pub average_reduction: f64,
}

impl ToJson for Fig5 {
    fn to_json(&self) -> Json {
        obj([("rows", self.rows.to_json()), ("average_reduction", self.average_reduction.into())])
    }
}

/// Runs the experiment.
#[must_use]
pub fn run(w: &Workloads) -> Fig5 {
    let config = SwitchConfig::mac_routing_preset();
    let rows: Vec<Row> = w
        .mac
        .iter()
        .zip(&w.routing)
        .map(|(mac, routing)| {
            let sw = MtlSwitch::build(&config, &[mac, routing]);
            let original = sw.ledger.original_stats().cycles();
            let label = sw.ledger.label_stats().cycles();
            Row {
                router: mac.name.clone(),
                rules: mac.len() + routing.len(),
                original_cycles: original,
                label_cycles: label,
                reduction: sw.ledger.reduction(),
            }
        })
        .collect();
    let average_reduction = rows.iter().map(|r| r.reduction).sum::<f64>() / rows.len() as f64;
    Fig5 { rows, average_reduction }
}

/// Prints the figure data and writes JSON.
pub fn report(w: &Workloads) {
    let f = run(w);
    println!("== Fig. 5: update clock cycles, original vs label method ==");
    let rows: Vec<Vec<String>> = f
        .rows
        .iter()
        .map(|r| {
            vec![
                r.router.clone(),
                r.rules.to_string(),
                r.original_cycles.to_string(),
                r.label_cycles.to_string(),
                format!("{:.2}%", 100.0 * r.reduction),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["router", "rules", "original cyc", "label cyc", "reduction"], &rows)
    );
    println!("average reduction: {:.2}% (paper: 56.92%)\n", 100.0 * f.average_reduction);
    write_json("fig5", &f);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_method_wins_everywhere() {
        let w = Workloads::shared_quick();
        let f = run(w);
        assert_eq!(f.rows.len(), 16);
        for r in &f.rows {
            assert!(
                r.label_cycles < r.original_cycles,
                "router {}: {} !< {}",
                r.router,
                r.label_cycles,
                r.original_cycles
            );
        }
        // The average reduction lands in the paper's ballpark (> 35%).
        assert!(
            f.average_reduction > 0.35 && f.average_reduction < 0.95,
            "average reduction {:.3}",
            f.average_reduction
        );
    }
}
