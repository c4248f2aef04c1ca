//! The `epre report` collection side: run the 50-routine suite at the
//! paper's four levels and fill a [`Table1`].
//!
//! The rendering lives in `epre-telemetry` (dependency-free and
//! unit-testable); this module owns the expensive part — compiling every
//! routine, optimizing it at each level, and interpreting the driver to
//! get the dynamic operation counts the paper's Table 1 reports.

use epre::{measure_module, OptLevel};
use epre_frontend::NamingMode;
use epre_telemetry::{Table1, Table1Row};

/// How many routines `--quick` keeps (the front of the alphabetical
/// suite order).
pub const QUICK_ROUTINES: usize = 8;

/// Measure the suite at every paper level and assemble the Table 1 data.
/// `quick` restricts the run to the first [`QUICK_ROUTINES`] routines
/// (CI-friendly); the full run covers all 50.
///
/// # Panics
/// Panics if a bundled routine fails to compile or execute, or if two
/// levels disagree on a routine's checksum — all of which mean a pass
/// miscompiled and the report must not silently print numbers from it.
pub fn collect_table1(quick: bool) -> Table1 {
    let mut routines = epre_suite::all_routines();
    if quick {
        routines.truncate(QUICK_ROUTINES);
    }
    let levels: Vec<String> =
        OptLevel::PAPER_LEVELS.iter().map(|l| l.label().to_string()).collect();
    let mut rows = Vec::with_capacity(routines.len());
    for r in &routines {
        let module = r
            .compile(NamingMode::Disciplined)
            .unwrap_or_else(|e| panic!("{}: bundled routine failed to compile: {e}", r.name));
        let measurements = measure_module(&module, r.entry, &[])
            .unwrap_or_else(|e| panic!("{}: driver failed to execute: {e}", r.name));
        rows.push(Table1Row {
            name: r.name.to_string(),
            counts: measurements.iter().map(|m| m.counts.total).collect(),
        });
    }
    Table1 { levels, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_has_paper_columns_and_improves() {
        let t = collect_table1(true);
        assert_eq!(t.levels, ["baseline", "partial", "reassociation", "distribution"]);
        assert_eq!(t.rows.len(), QUICK_ROUTINES);
        let totals = t.totals();
        assert!(totals[1] < totals[0], "PRE must beat baseline overall: {totals:?}");
        assert!(t.rows.iter().all(|r| r.counts.len() == 4));
        // The renderings work end to end on real data.
        assert!(t.render_text().lines().count() == QUICK_ROUTINES + 2);
        assert!(t.to_json().starts_with("{\"bench\":\"table1\""));
    }
}
