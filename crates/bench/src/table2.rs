//! Table II: OpenFlow match fields, widths and matching methods.
//!
//! Regenerated from the protocol metadata in `oflow::fields` — the
//! experiment verifies the implementation agrees with the paper's listing
//! row by row.

use crate::output::{render_table, write_json, ToJson};
use minijson::{obj, Json};
use oflow::MatchFieldKind;

/// One Table II row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Field name.
    pub field: String,
    /// Width in bits.
    pub bits: u32,
    /// Matching method label, as the paper prints it.
    pub method: String,
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        obj([
            ("field", self.field.as_str().into()),
            ("bits", self.bits.into()),
            ("method", self.method.as_str().into()),
        ])
    }
}

/// The full regenerated table.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// The 15 common fields, paper order.
    pub rows: Vec<Row>,
    /// Total matchable fields in v1.3 (excluding metadata).
    pub total_matchable_fields: usize,
}

impl ToJson for Table2 {
    fn to_json(&self) -> Json {
        obj([
            ("rows", self.rows.to_json()),
            ("total_matchable_fields", self.total_matchable_fields.into()),
        ])
    }
}

/// Runs the experiment.
#[must_use]
pub fn run() -> Table2 {
    let rows = MatchFieldKind::table2_fields()
        .iter()
        .map(|f| Row {
            field: f.name().to_owned(),
            bits: f.bit_width(),
            method: f.match_method().to_string(),
        })
        .collect();
    Table2 { rows, total_matchable_fields: MatchFieldKind::matchable().len() }
}

/// Prints the table and writes JSON.
pub fn report() {
    let t = run();
    println!("== Table II: OpenFlow match field, field length and matching method ==");
    let rows: Vec<Vec<String>> = t
        .rows
        .iter()
        .map(|r| vec![r.field.clone(), r.bits.to_string(), r.method.clone()])
        .collect();
    println!("{}", render_table(&["field", "bits", "method"], &rows));
    println!("matchable fields (excl. metadata): {} (paper: 39)\n", t.total_matchable_fields);
    write_json("table2", &t);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_rows() {
        let t = run();
        assert_eq!(t.rows.len(), 15);
        assert_eq!(t.total_matchable_fields, 39);
        let ingress = &t.rows[0];
        assert_eq!((ingress.field.as_str(), ingress.bits), ("in_port", 32));
        assert!(ingress.method.contains("EM"));
        let v6 = t.rows.iter().find(|r| r.field == "ipv6_src").unwrap();
        assert_eq!(v6.bits, 128);
        assert!(v6.method.contains("LPM"));
        let port = t.rows.iter().find(|r| r.field == "tcp_dst").unwrap();
        assert!(port.method.contains("RM"));
    }
}
