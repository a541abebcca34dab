//! Fig. 3: memory space (Kbits) per level of the Ethernet *lower* trie.
//!
//! Paper anchors: L1 stores at most 32 nodes and consumes less than
//! 1 Kbit (832 bits); L3 dominates; the worst case (gozb) needs 983.7
//! Kbits across the three levels of the trie structure.

use crate::data::Workloads;
use crate::fig2::tries_for;
use crate::output::{render_table, write_json, ToJson};
use minijson::{arr, obj, Json};

/// Per-level memory of one router's chosen trie.
#[derive(Debug, Clone)]
pub struct Row {
    /// Router name.
    pub router: String,
    /// Stored nodes per level.
    pub nodes: [usize; 3],
    /// Kbits per level (L1, L2, L3).
    pub kbits: [f64; 3],
    /// Total Kbits.
    pub total_kbits: f64,
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        obj([
            ("router", self.router.as_str().into()),
            ("nodes", arr(self.nodes.iter().map(|&n| n.into()))),
            ("kbits", arr(self.kbits.iter().map(|&k| k.into()))),
            ("total_kbits", self.total_kbits.into()),
        ])
    }
}

/// The Fig. 3 results (Ethernet lower trie per router).
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// Per-router rows.
    pub rows: Vec<Row>,
}

impl ToJson for Fig3 {
    fn to_json(&self) -> Json {
        obj([("rows", self.rows.to_json())])
    }
}

/// Extracts a per-level row from a partitioned trie's memory report.
#[must_use]
pub fn level_row(set_name: &str, pt: &ofalgo::PartitionedTrie, trie_name: &str) -> Row {
    let report = pt.memory_report();
    let mut nodes = [0usize; 3];
    let mut kbits = [0f64; 3];
    for (i, level) in ["L1", "L2", "L3"].iter().enumerate() {
        let path = format!("{trie_name}/{level}");
        nodes[i] = report.entries_under(&path);
        kbits[i] = report.bits_under(&path) as f64 / 1_000.0;
    }
    Row { router: set_name.to_owned(), nodes, kbits, total_kbits: kbits.iter().sum() }
}

/// Runs the experiment.
#[must_use]
pub fn run(w: &Workloads) -> Fig3 {
    let rows = w.mac.iter().map(|set| level_row(&set.name, &tries_for(set), "lower")).collect();
    Fig3 { rows }
}

/// Prints the figure data and writes JSON.
pub fn report(w: &Workloads) {
    let f = run(w);
    println!("== Fig. 3: memory per level, Ethernet lower trie (Kbits) ==");
    let rows: Vec<Vec<String>> = f
        .rows
        .iter()
        .map(|r| {
            vec![
                r.router.clone(),
                format!("{} ({:.2})", r.nodes[0], r.kbits[0]),
                format!("{} ({:.2})", r.nodes[1], r.kbits[1]),
                format!("{} ({:.2})", r.nodes[2], r.kbits[2]),
                format!("{:.2}", r.total_kbits),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["router", "L1 n(Kb)", "L2 n(Kb)", "L3 n(Kb)", "total Kb"], &rows)
    );
    println!("paper anchors: L1 <= 32 nodes / 832 bits; L3 dominates\n");
    write_json("fig3", &f);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_anchor_and_l3_dominance() {
        let w = Workloads::shared_quick();
        let f = run(w);
        for r in &f.rows {
            // L1 of a 5-5-6 16-bit trie is the 32-entry root block.
            assert!(r.nodes[0] <= 32, "router {}: L1 {} nodes", r.router, r.nodes[0]);
            assert!(r.kbits[0] < 1.0, "router {}: L1 {} Kbits", r.router, r.kbits[0]);
            // L3 holds the most memory for every MAC filter.
            assert!(
                r.kbits[2] >= r.kbits[1] && r.kbits[2] >= r.kbits[0],
                "router {}: levels {:?}",
                r.router,
                r.kbits
            );
        }
    }
}
