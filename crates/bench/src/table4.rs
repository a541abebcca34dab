//! Table IV: unique field values of the flow-based Routing filters.
//!
//! As `table3`, for the routing sets; additionally verifies the paper's
//! highlighted exception — coza/cozb/soza/sozb have more unique values in
//! the *higher* 16-bit IP partition than in the lower one.

use crate::data::Workloads;
use crate::output::{render_table, write_json, ToJson};
use minijson::{arr, obj, Json};
use offilter::paper_data::{routing_stats, ROUTING_EXCEPTIONS};
use offilter::survey_routing;

/// One Table IV row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Router name.
    pub router: String,
    /// Rules in the set.
    pub rules: usize,
    /// Measured unique values: port, ip hi, ip lo.
    pub measured: [usize; 3],
    /// Published unique values.
    pub paper: [usize; 3],
    /// Whether the row is one of the paper's exception filters.
    pub exception: bool,
}

impl Row {
    /// Whether measured == published (full runs; quick runs scale the
    /// giant routers down, so only shape holds there).
    #[must_use]
    pub fn exact(&self) -> bool {
        self.measured == self.paper
    }

    /// Whether the measured row shows the exception shape (hi > lo)
    /// exactly when the paper says it should.
    #[must_use]
    pub fn exception_shape_holds(&self) -> bool {
        (self.measured[1] > self.measured[2]) == self.exception
    }
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        obj([
            ("router", self.router.as_str().into()),
            ("rules", self.rules.into()),
            ("measured", arr(self.measured.iter().map(|&v| v.into()))),
            ("paper", arr(self.paper.iter().map(|&v| v.into()))),
            ("exception", self.exception.into()),
        ])
    }
}

/// The regenerated table.
#[derive(Debug, Clone)]
pub struct Table4 {
    /// Per-router rows.
    pub rows: Vec<Row>,
}

impl ToJson for Table4 {
    fn to_json(&self) -> Json {
        obj([("rows", self.rows.to_json())])
    }
}

/// Runs the survey.
#[must_use]
pub fn run(w: &Workloads) -> Table4 {
    let rows = w
        .routing
        .iter()
        .map(|set| {
            let s = survey_routing(set);
            let p = routing_stats(&set.name).expect("paper row exists");
            Row {
                router: set.name.clone(),
                rules: s.rules,
                measured: [s.port_unique, s.ip_partitions[0], s.ip_partitions[1]],
                paper: [p.port_unique, p.ip_hi, p.ip_lo],
                exception: ROUTING_EXCEPTIONS.contains(&set.name.as_str()),
            }
        })
        .collect();
    Table4 { rows }
}

/// Prints the table and writes JSON.
pub fn report(w: &Workloads) {
    let t = run(w);
    println!("== Table IV: unique field values of flow-based Routing filter ==");
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
                if r.exception { "hi>lo".into() } else { String::new() },
                if r.exact() { "yes".into() } else { "scaled".into() },
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["router", "rules", "port m/p", "ip-hi m/p", "ip-lo m/p", "exception", "exact"],
            &rows
        )
    );
    write_json("table4", &t);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_match_and_exceptions_hold() {
        let w = Workloads::shared_quick();
        let t = run(w);
        assert_eq!(t.rows.len(), 16);
        for r in &t.rows {
            assert!(r.exception_shape_holds(), "router {}", r.router);
            // Small routers are exactly constrained even in quick mode
            // (only the 180k+ ones are scaled down there).
            if routing_stats(&r.router).unwrap().rules < 50_000 {
                assert!(r.exact(), "router {}", r.router);
            }
        }
        let exceptions = t.rows.iter().filter(|r| r.exception).count();
        assert_eq!(exceptions, 4);
    }
}
