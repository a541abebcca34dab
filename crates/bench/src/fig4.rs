//! Fig. 4: memory space (Kbits) per level of the IP address tries.
//!
//! (a) the lower trie for the twelve ordinary routers; (b) both higher and
//! lower tries for the exception routers coza/cozb/soza/sozb, whose higher
//! tries outgrow their lower ones. Paper anchors: max lower-trie memory
//! 572.57 Kbits and higher-trie 706.06 Kbits for coza/soza-class filters;
//! 321.3 Kbits for ordinary lower tries.

use crate::data::Workloads;
use crate::fig2::tries_for;
use crate::fig3::{level_row, Row};
use crate::output::{render_table, write_json, ToJson};
use minijson::{obj, Json};
use offilter::paper_data::ROUTING_EXCEPTIONS;

/// The Fig. 4 results.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// (a) lower-trie rows for non-exception routers.
    pub ordinary_lower: Vec<Row>,
    /// (b) higher-trie rows for the exception routers.
    pub exception_higher: Vec<Row>,
    /// (b) lower-trie rows for the exception routers.
    pub exception_lower: Vec<Row>,
}

impl ToJson for Fig4 {
    fn to_json(&self) -> Json {
        obj([
            ("ordinary_lower", self.ordinary_lower.to_json()),
            ("exception_higher", self.exception_higher.to_json()),
            ("exception_lower", self.exception_lower.to_json()),
        ])
    }
}

/// Runs the experiment.
#[must_use]
pub fn run(w: &Workloads) -> Fig4 {
    let mut f = Fig4 {
        ordinary_lower: Vec::new(),
        exception_higher: Vec::new(),
        exception_lower: Vec::new(),
    };
    for set in &w.routing {
        let pt = tries_for(set);
        if ROUTING_EXCEPTIONS.contains(&set.name.as_str()) {
            f.exception_higher.push(level_row(&set.name, &pt, "higher"));
            f.exception_lower.push(level_row(&set.name, &pt, "lower"));
        } else {
            f.ordinary_lower.push(level_row(&set.name, &pt, "lower"));
        }
    }
    f
}

fn print_rows(title: &str, rows: &[Row]) {
    println!("{title}");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.router.clone(),
                format!("{:.2}", r.kbits[0]),
                format!("{:.2}", r.kbits[1]),
                format!("{:.2}", r.kbits[2]),
                format!("{:.2}", r.total_kbits),
            ]
        })
        .collect();
    println!("{}", render_table(&["router", "L1 Kb", "L2 Kb", "L3 Kb", "total Kb"], &table));
}

/// Prints the figure data and writes JSON.
pub fn report(w: &Workloads) {
    let f = run(w);
    print_rows("== Fig. 4(a): IP lower trie, ordinary routers ==", &f.ordinary_lower);
    print_rows("== Fig. 4(b): IP higher trie, exception routers ==", &f.exception_higher);
    print_rows("== Fig. 4(b): IP lower trie, exception routers ==", &f.exception_lower);
    println!(
        "paper anchors: exception higher tries > their lower tries; ordinary lower <= ~321 Kbits\n"
    );
    write_json("fig4", &f);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exception_higher_tries_dominate() {
        let w = Workloads::shared_quick();
        let f = run(w);
        assert_eq!(f.ordinary_lower.len(), 12);
        assert_eq!(f.exception_higher.len(), 4);
        for (hi, lo) in f.exception_higher.iter().zip(&f.exception_lower) {
            assert_eq!(hi.router, lo.router);
            assert!(
                hi.total_kbits > lo.total_kbits,
                "router {}: higher {:.1} <= lower {:.1}",
                hi.router,
                hi.total_kbits,
                lo.total_kbits
            );
        }
    }

    #[test]
    fn l1_small_everywhere() {
        let w = Workloads::shared_quick();
        let f = run(w);
        for r in f.ordinary_lower.iter().chain(&f.exception_higher).chain(&f.exception_lower) {
            assert!(r.kbits[0] < 1.0, "router {}: L1 {} Kbits", r.router, r.kbits[0]);
        }
    }
}
