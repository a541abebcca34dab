//! Table III: unique field values of the flow-based MAC filters.
//!
//! Surveys the generated MAC sets and prints measured vs published counts.
//! The generator is exactly constrained, so every `diff` column is zero —
//! which is itself the experiment's check that the synthetic data carries
//! the paper's distributional shape.

use crate::data::Workloads;
use crate::output::{render_table, write_json, ToJson};
use minijson::{arr, obj, Json};
use offilter::paper_data::mac_stats;
use offilter::survey_mac;

/// One Table III row: measured and published.
#[derive(Debug, Clone)]
pub struct Row {
    /// Router name.
    pub router: String,
    /// Rules in the set.
    pub rules: usize,
    /// Measured unique values: vlan, eth hi/mid/lo.
    pub measured: [usize; 4],
    /// Published unique values (paper Table III).
    pub paper: [usize; 4],
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        obj([
            ("router", self.router.as_str().into()),
            ("rules", self.rules.into()),
            ("measured", arr(self.measured.iter().map(|&v| v.into()))),
            ("paper", arr(self.paper.iter().map(|&v| v.into()))),
        ])
    }
}

impl Row {
    /// Whether measured == published in every column.
    #[must_use]
    pub fn exact(&self) -> bool {
        self.measured == self.paper
    }
}

/// The regenerated table.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Per-router rows.
    pub rows: Vec<Row>,
}

impl ToJson for Table3 {
    fn to_json(&self) -> Json {
        obj([("rows", self.rows.to_json())])
    }
}

/// Runs the survey over generated workloads.
#[must_use]
pub fn run(w: &Workloads) -> Table3 {
    let rows = w
        .mac
        .iter()
        .map(|set| {
            let s = survey_mac(set);
            let p = mac_stats(&set.name).expect("paper row exists");
            Row {
                router: set.name.clone(),
                rules: s.rules,
                measured: [
                    s.vlan_unique,
                    s.eth_partitions[0],
                    s.eth_partitions[1],
                    s.eth_partitions[2],
                ],
                paper: [p.vlan_unique, p.eth_hi, p.eth_mid, p.eth_lo],
            }
        })
        .collect();
    Table3 { rows }
}

/// Prints the table and writes JSON.
pub fn report(w: &Workloads) {
    let t = run(w);
    println!("== Table III: unique field values of flow-based MAC filter ==");
    let rows: Vec<Vec<String>> = t
        .rows
        .iter()
        .map(|r| {
            vec![
                r.router.clone(),
                r.rules.to_string(),
                format!("{}/{}", r.measured[0], r.paper[0]),
                format!("{}/{}", r.measured[1], r.paper[1]),
                format!("{}/{}", r.measured[2], r.paper[2]),
                format!("{}/{}", r.measured[3], r.paper[3]),
                if r.exact() { "yes".into() } else { "NO".into() },
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["router", "rules", "vlan m/p", "eth-hi m/p", "eth-mid m/p", "eth-lo m/p", "exact"],
            &rows
        )
    );
    write_json("table3", &t);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_exact() {
        let w = Workloads::shared_quick();
        let t = run(w);
        assert_eq!(t.rows.len(), 16);
        for r in &t.rows {
            assert!(r.exact(), "router {} measured {:?} paper {:?}", r.router, r.measured, r.paper);
        }
    }
}
