//! Aligned-column table printing and the cell formatters the harness
//! binaries share: partial-run marks, byte counts and peak RSS.

/// A simple text table with a header row.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Table {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append one row; must match the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<w$}", c, w = width[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &width));
        out.push('\n');
        let total: usize = width.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Footnote for exhibits whose cells go through [`partial`].
pub const PARTIAL_NOTE: &str = "`*` = at least one run in the cell was clamped at the time limit, \
     so it folds in a partial count and the clamped time.";

/// Mark `cell` with `*` when it folds in a run clamped at the time limit.
pub fn partial(cell: String, timed_out: bool) -> String {
    if timed_out {
        cell + "*"
    } else {
        cell
    }
}

/// The mean of `(seconds, timed_out)` runs as a `{:.3}s` cell, marked
/// with [`partial`] when any run was clamped.
pub fn mean_secs(runs: impl IntoIterator<Item = (f64, bool)>) -> String {
    let (mut total, mut n, mut timed_out) = (0.0, 0usize, false);
    for (secs, clamped) in runs {
        total += secs;
        n += 1;
        timed_out |= clamped;
    }
    partial(format!("{:.3}s", total / n as f64), timed_out)
}

/// Format a byte count like the paper's GB-scale tables.
pub fn format_bytes(bytes: usize) -> String {
    const UNITS: [&str; 4] = ["B", "KB", "MB", "GB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    format!("{value:.2} {}", UNITS[unit])
}

/// The process's peak resident set size so far, as [`format_bytes`]
/// prints it, or `-` where `/proc/self/status` is absent.
pub fn peak_rss() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| vm_hwm_bytes(&status))
        .map_or_else(|| "-".to_string(), format_bytes)
}

/// The `VmHWM:  <n> kB` line of a `/proc/<pid>/status` text, in bytes.
fn vm_hwm_bytes(status: &str) -> Option<usize> {
    let value = status.lines().find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kb = value.trim().strip_suffix("kB")?.trim_end().parse::<usize>().ok()?;
    kb.checked_mul(1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("long-name  22"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting() {
        assert_eq!(format_bytes(512), "512.00 B");
        assert_eq!(format_bytes(2048), "2.00 KB");
        assert_eq!(format_bytes(3 * 1024 * 1024), "3.00 MB");
    }

    #[test]
    fn means_mark_clamped_runs() {
        assert_eq!(mean_secs([(1.0, false), (2.0, false)]), "1.500s");
        assert_eq!(mean_secs([(1.0, false), (10.0, true)]), "5.500s*");
    }

    #[test]
    fn vm_hwm_parses_from_a_status_text() {
        let status = "Name:\tfig10\nVmPeak:\t  123456 kB\nVmSize:\t  120000 kB\n\
                      VmHWM:\t   64512 kB\nVmRSS:\t   60000 kB\nThreads:\t1\n";
        assert_eq!(vm_hwm_bytes(status), Some(64512 * 1024));
        assert_eq!(vm_hwm_bytes("Name:\tfig10\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(vm_hwm_bytes("VmHWM:\t garbage kB\n"), None);
    }
}
