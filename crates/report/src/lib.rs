//! Experiment records and table rendering.
//!
//! The benchmark harness regenerates the paper's tables as [`Table`]
//! values and renders them as aligned ASCII (for the terminal) and CSV
//! (for archival under `results/`).
//!
//! # Examples
//!
//! ```
//! use netpart_report::Table;
//!
//! let mut t = Table::new("Demo", &["circuit", "cut"]);
//! t.row(["c3540".into(), "104".into()]);
//! let text = t.to_ascii();
//! assert!(text.contains("c3540"));
//! assert_eq!(t.to_csv().lines().count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

mod stats;

pub use stats::{mean, Summary};

/// A titled table with a header row and data rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// The table's title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The number of data rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row<I>(&mut self, cells: I)
    where
        I: IntoIterator<Item = String>,
    {
        let row: Vec<String> = cells.into_iter().collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(row);
    }

    /// Renders the table as aligned, monospaced text.
    pub fn to_ascii(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!(" {:>width$} ", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("|")
        };
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV (headers first; quotes only when needed).
    pub fn to_csv(&self) -> String {
        let esc = |s: &String| -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        out.push_str(&self.headers.iter().map(esc).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_ascii())
    }
}

/// Per-worker statistics of one parallel portfolio run, as plain data.
///
/// The report crate deliberately does not depend on the engine crate;
/// callers convert the engine's worker stats into rows and render them
/// with [`worker_table`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerRow {
    /// Worker index (0-based).
    pub worker: usize,
    /// Starts or tasks this worker ran.
    pub starts: usize,
    /// FM passes executed across those starts.
    pub passes: u64,
    /// FM moves applied across those starts.
    pub moves: u64,
    /// Wall time spent inside starts, in milliseconds.
    pub wall_ms: u64,
    /// Early stops: deadline/cancellation skips, incumbent cutoffs,
    /// injected worker faults.
    pub cutoff_hits: u64,
}

/// Renders per-worker portfolio statistics as a [`Table`], with a
/// totals row when more than one worker reported.
pub fn worker_table(title: impl Into<String>, rows: &[WorkerRow]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "Worker",
            "Starts",
            "Passes",
            "Moves",
            "Wall (ms)",
            "Cutoffs",
        ],
    );
    for r in rows {
        t.row([
            r.worker.to_string(),
            r.starts.to_string(),
            r.passes.to_string(),
            r.moves.to_string(),
            r.wall_ms.to_string(),
            r.cutoff_hits.to_string(),
        ]);
    }
    if rows.len() > 1 {
        t.row([
            "total".into(),
            rows.iter().map(|r| r.starts).sum::<usize>().to_string(),
            rows.iter().map(|r| r.passes).sum::<u64>().to_string(),
            rows.iter().map(|r| r.moves).sum::<u64>().to_string(),
            rows.iter().map(|r| r.wall_ms).sum::<u64>().to_string(),
            rows.iter().map(|r| r.cutoff_hits).sum::<u64>().to_string(),
        ]);
    }
    t
}

/// Renders a [`MetricsSnapshot`](netpart_obs::MetricsSnapshot) as a
/// [`Table`] — one `Metric | Kind | Value` row per entry, in the
/// snapshot's deterministic (sorted) order. Counters and gauges print
/// their value; histograms print `total (n bins)`; timing entries are
/// listed last, mirroring the JSON layout.
pub fn metrics_table(title: impl Into<String>, snap: &netpart_obs::MetricsSnapshot) -> Table {
    let mut t = Table::new(title, &["Metric", "Kind", "Value"]);
    for (k, v) in &snap.counters {
        t.row([k.clone(), "counter".into(), v.to_string()]);
    }
    for (k, v) in &snap.gauges {
        t.row([k.clone(), "gauge".into(), format!("{v}")]);
    }
    for (k, bins) in &snap.hists {
        let total: u64 = bins.iter().sum();
        t.row([
            k.clone(),
            "hist".into(),
            format!("{total} ({} bins)", bins.len()),
        ]);
    }
    for (k, ms) in &snap.timing {
        t.row([k.clone(), "timing".into(), format!("{ms} ms")]);
    }
    t
}

/// Renders a folded span [`Profile`](netpart_obs::Profile) as a
/// flame-style [`Table`]: one row per tree node in depth-first order,
/// the phase name indented two spaces per nesting level, with the pair
/// count, inclusive and exclusive milliseconds, and the inclusive share
/// of the measured wall window. A final `(wall)` row anchors the
/// percentages. Phase cells are padded to a common width so the
/// indentation survives the table's right alignment.
pub fn profile_table(title: impl Into<String>, profile: &netpart_obs::Profile) -> Table {
    fn ms(us: u64) -> String {
        format!("{:.1}", us as f64 / 1000.0)
    }
    fn walk(node: &netpart_obs::ProfileNode, depth: usize, wall: u64, rows: &mut Vec<[String; 5]>) {
        let share = if wall > 0 {
            format!("{:.1}", 100.0 * node.incl_us as f64 / wall as f64)
        } else {
            "-".into()
        };
        rows.push([
            format!("{}{}", "  ".repeat(depth), node.name),
            node.count.to_string(),
            ms(node.incl_us),
            ms(node.excl_us()),
            share,
        ]);
        for child in &node.children {
            walk(child, depth + 1, wall, rows);
        }
    }
    let wall = profile.total_wall_us;
    let mut rows = Vec::new();
    for root in &profile.roots {
        walk(root, 0, wall, &mut rows);
    }
    rows.push([
        "(wall)".into(),
        String::new(),
        ms(wall),
        String::new(),
        if wall > 0 { "100.0".into() } else { "-".into() },
    ]);
    let name_width = rows.iter().map(|r| r[0].len()).max().unwrap_or(0);
    let mut t = Table::new(
        title,
        &["Phase", "Count", "Incl (ms)", "Excl (ms)", "% wall"],
    );
    for mut row in rows {
        // Trailing pad: equal-length phase cells defeat right alignment.
        row[0] = format!("{:<name_width$}", row[0]);
        t.row(row);
    }
    t
}

/// Renders certificate-verification findings as a [`Table`] — one
/// `Code | Detail` row per violation, in detection order. The report
/// crate stays decoupled from the verifier (same pattern as
/// [`worker_table`]): callers pass each violation's stable code and
/// rendered detail as plain strings.
pub fn violation_table(title: impl Into<String>, rows: &[(String, String)]) -> Table {
    let mut t = Table::new(title, &["Code", "Detail"]);
    for (code, detail) in rows {
        t.row([code.clone(), detail.clone()]);
    }
    t
}

/// Formats a float with one decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a float with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_alignment() {
        let mut t = Table::new("T", &["name", "v"]);
        t.row(["a".into(), "1".into()]);
        t.row(["longer".into(), "22".into()]);
        let s = t.to_ascii();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "T");
        assert!(lines[1].contains("name"));
        // All data lines have equal width.
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(["x,y".into(), "q\"q".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n\"x,y\",\"q\"\"q\"\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(f2(1.256), "1.26");
        assert_eq!(pct(0.345), "34.5");
    }

    #[test]
    fn worker_table_totals() {
        let rows = vec![
            WorkerRow {
                worker: 0,
                starts: 3,
                passes: 12,
                moves: 400,
                wall_ms: 7,
                cutoff_hits: 0,
            },
            WorkerRow {
                worker: 1,
                starts: 2,
                passes: 8,
                moves: 300,
                wall_ms: 5,
                cutoff_hits: 1,
            },
        ];
        let t = worker_table("Workers", &rows);
        assert_eq!(t.n_rows(), 3, "two workers plus a totals row");
        let csv = t.to_csv();
        assert!(csv.contains("total,5,20,700,12,1"), "csv was:\n{csv}");
        // A single worker gets no totals row.
        assert_eq!(worker_table("W", &rows[..1]).n_rows(), 1);
    }

    #[test]
    fn worker_table_empty_and_single_row() {
        // Empty: headers only, no totals row.
        let t = worker_table("Workers", &[]);
        assert_eq!(t.n_rows(), 0);
        let s = t.to_ascii();
        assert_eq!(s.lines().count(), 3, "title + header + separator:\n{s}");
        // Single row: no totals row, values rendered verbatim.
        let one = vec![WorkerRow {
            worker: 0,
            starts: 1,
            passes: 2,
            moves: 3,
            wall_ms: 4,
            cutoff_hits: 5,
        }];
        let t = worker_table("Workers", &one);
        assert_eq!(t.n_rows(), 1);
        assert!(t.to_csv().contains("0,1,2,3,4,5"));
    }

    #[test]
    fn worker_table_wide_numeric_columns_align() {
        let rows = vec![
            WorkerRow {
                worker: 0,
                starts: 1,
                passes: 9,
                moves: 7,
                wall_ms: 3,
                cutoff_hits: 0,
            },
            WorkerRow {
                worker: 1,
                starts: 123_456,
                passes: 98_765_432,
                moves: 1_000_000_007,
                wall_ms: 86_400_000,
                cutoff_hits: 42,
            },
        ];
        let s = worker_table("Workers", &rows).to_ascii();
        let lines: Vec<&str> = s.lines().collect();
        // Header, both data lines, and the totals line all share one width.
        for l in &lines[3..] {
            assert_eq!(l.len(), lines[1].len(), "misaligned line {l:?} in:\n{s}");
        }
        // Right-aligned numbers: the wide value ends where the narrow does.
        assert!(lines[3].contains(" 9 ") && lines[4].contains("98765432"));
    }

    #[test]
    fn metrics_table_empty() {
        let snap = netpart_obs::MetricsSnapshot::new();
        let t = metrics_table("run metrics", &snap);
        assert_eq!(t.n_rows(), 0);
        assert_eq!(t.to_csv(), "Metric,Kind,Value\n");
    }

    #[test]
    fn metrics_table_rows_ordered_and_rendered() {
        let mut snap = netpart_obs::MetricsSnapshot::new();
        snap.add_counter("fm.passes", 12);
        snap.add_counter("engine.cache_hits", 1);
        snap.set_gauge("paper.cost_k", 750.0);
        snap.merge_hist("paper.devices", &[3, 0, 2]);
        snap.set_timing("wall_ms", 45);
        let t = metrics_table("run metrics", &snap);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        // Counters (sorted) first, then gauges, hists, timing last.
        assert_eq!(lines[1], "engine.cache_hits,counter,1");
        assert_eq!(lines[2], "fm.passes,counter,12");
        assert_eq!(lines[3], "paper.cost_k,gauge,750");
        assert_eq!(lines[4], "paper.devices,hist,5 (3 bins)");
        assert_eq!(lines[5], "wall_ms,timing,45 ms");
    }

    #[test]
    fn metrics_table_wide_numeric_columns_align() {
        let mut snap = netpart_obs::MetricsSnapshot::new();
        snap.add_counter("a.tiny", 1);
        snap.add_counter("b.huge", u64::MAX);
        let s = metrics_table("run metrics", &snap).to_ascii();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[3].len(), lines[4].len(), "misaligned:\n{s}");
        assert!(lines[4].ends_with(&format!("{} ", u64::MAX)));
    }

    #[test]
    fn profile_table_flame_rows_and_wall_anchor() {
        use netpart_obs::{Profile, ProfileNode};
        let p = Profile {
            total_wall_us: 2000,
            roots: vec![ProfileNode {
                name: "engine/run".into(),
                count: 1,
                incl_us: 1500,
                children: vec![ProfileNode {
                    name: "fm/pass".into(),
                    count: 3,
                    incl_us: 900,
                    children: vec![],
                }],
            }],
        };
        let t = profile_table("span profile", &p);
        assert_eq!(t.n_rows(), 3, "two nodes plus the (wall) row");
        let s = t.to_ascii();
        let lines: Vec<&str> = s.lines().collect();
        // Child indented under its parent, both left-anchored in the
        // padded phase column.
        let parent = lines[3].find("engine/run").expect("parent row");
        let child = lines[4].find("fm/pass").expect("child row");
        assert_eq!(child, parent + 2, "flame indent:\n{s}");
        // Shares are relative to the wall window: 1500/2000 and 900/2000.
        assert!(lines[3].contains("75.0") && lines[4].contains("45.0"));
        assert!(lines[5].contains("(wall)") && lines[5].contains("100.0"));
        // Exclusive time of the parent excludes the child.
        assert!(lines[3].contains("0.6"), "excl 600us -> 0.6ms:\n{s}");
    }

    #[test]
    fn profile_table_empty_profile_and_zero_wall() {
        let t = profile_table("span profile", &netpart_obs::Profile::default());
        assert_eq!(t.n_rows(), 1, "just the (wall) row");
        let csv = t.to_csv();
        assert!(csv.contains("(wall),,0.0,,-"), "csv was:\n{csv}");
    }

    #[test]
    fn violation_table_rows_in_order() {
        let rows = vec![
            ("cut-net-not-cut".to_string(), "net n7 …".to_string()),
            ("cost-mismatch".to_string(), "claimed 100 …".to_string()),
        ];
        let t = violation_table("Violations", &rows);
        assert_eq!(t.n_rows(), 2);
        let csv = t.to_csv();
        assert_eq!(csv.lines().nth(1), Some("cut-net-not-cut,net n7 …"));
        assert_eq!(csv.lines().nth(2), Some("cost-mismatch,claimed 100 …"));
    }

    #[test]
    fn display_matches_ascii() {
        let mut t = Table::new("T", &["a"]);
        t.row(["1".into()]);
        assert_eq!(t.to_string(), t.to_ascii());
        assert_eq!(t.n_rows(), 1);
        assert_eq!(t.title(), "T");
    }
}
