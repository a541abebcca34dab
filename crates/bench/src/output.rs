//! Experiment output: aligned text tables plus JSON files.
//!
//! Experiments describe their results as [`minijson::Json`] values
//! (through [`ToJson`]); [`write_json`] renders them with the shared
//! two-space pretty-printer into `target/repro/`, the same writer that
//! produced the committed `BENCH_*.json` baselines.

use minijson::Json;
use std::fs;
use std::path::PathBuf;

/// Types an experiment can write as JSON.
pub trait ToJson {
    /// The JSON form.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

/// Directory experiment JSON lands in.
#[must_use]
pub fn repro_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("repro")
}

/// Writes an experiment result as pretty JSON under `target/repro/`.
/// Returns the path written, or `None` (with a warning) on IO failure —
/// experiments still print to stdout.
pub fn write_json<T: ToJson + ?Sized>(id: &str, value: &T) -> Option<PathBuf> {
    let dir = repro_dir();
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(format!("{id}.json"));
    if let Err(e) = fs::write(&path, value.to_json().render_pretty()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
        return None;
    }
    Some(path)
}

/// Renders rows as an aligned text table.
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:>width$}", width = widths[i]));
        }
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|s| (*s).to_owned()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use minijson::obj;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["name", "value"],
            &[vec!["a".into(), "1".into()], vec!["long-name".into(), "12345".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].ends_with("12345"));
        // All rows equal width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn json_write_roundtrip() {
        struct T {
            x: u32,
        }
        impl ToJson for T {
            fn to_json(&self) -> Json {
                obj([("x", self.x.into())])
            }
        }
        let p = write_json("test_output_unit", &T { x: 7 }).unwrap();
        let body = std::fs::read_to_string(&p).unwrap();
        assert!(body.contains("\"x\": 7"));
        let _ = std::fs::remove_file(p);
    }
}
