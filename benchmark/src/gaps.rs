//! The simulator's error against the paper's published aggregates.
//!
//! Lee et al. report PADC against the demand-first baseline: +4.3 % IPC on
//! the single-core system (Fig. 6), +8.2 % weighted speedup and -10.1 % bus
//! traffic on the 4-core system (Fig. 16). Each gap is the distance, in
//! percentage points, between that published change and the change the
//! simulator's own `fig6`/`fig16` rows show. They are simulated statistics,
//! so they repeat exactly for a fixed tree, scale and seed.

use serde_json::Value;

/// Published PADC-vs-demand-first changes, in percent.
pub const PAPER_IPC_PCT: f64 = 4.3;
/// Published 4-core weighted-speedup change, in percent.
pub const PAPER_WS_PCT: f64 = 8.2;
/// Published 4-core bus-traffic change, in percent.
pub const PAPER_TRAFFIC_PCT: f64 = -10.1;

const PADC_ARM: &str = "aps-apd (PADC)";
const BASELINE_ARM: &str = "demand-first";

/// The three `paper_*_gap_pp` metrics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaperGaps {
    /// `paper_ipc_gap_pp`.
    pub ipc_pp: f64,
    /// `paper_ws_gap_pp`.
    pub ws_pp: f64,
    /// `paper_traffic_gap_pp`.
    pub traffic_pp: f64,
}

/// Reads the gaps out of suite JSONL holding a `fig6` and a `fig16` row.
///
/// # Errors
///
/// Returns what was missing when a row, table, arm or column is absent or a
/// baseline value is zero.
pub fn from_jsonl(jsonl: &str) -> Result<PaperGaps, String> {
    let mut fig6 = None;
    let mut fig16 = None;
    for line in jsonl.lines().filter(|l| !l.trim().is_empty()) {
        let row = serde_json::parse(line).map_err(|e| format!("suite row is not JSON: {e}"))?;
        match row.get("id").and_then(Value::as_str) {
            Some("fig6") => fig6 = Some(row),
            Some("fig16") => fig16 = Some(row),
            _ => {}
        }
    }
    let fig6 = fig6.ok_or("no fig6 row")?;
    let fig16 = fig16.ok_or("no fig16 row")?;

    // fig6 is already normalised to demand-first, per benchmark.
    let ipc_ratio = cell(&fig6, "fig6", "gmean55", PADC_ARM)?;
    let ws = ratio(&fig16, "fig16", "WS")?;
    let traffic = ratio(&fig16, "fig16", "traffic(lines)")?;
    Ok(PaperGaps {
        ipc_pp: gap_pp(ipc_ratio, PAPER_IPC_PCT),
        ws_pp: gap_pp(ws, PAPER_WS_PCT),
        traffic_pp: gap_pp(traffic, PAPER_TRAFFIC_PCT),
    })
}

/// `|(ratio - 1) * 100 - paper_pct|`.
pub fn gap_pp(ratio: f64, paper_pct: f64) -> f64 {
    ((ratio - 1.0) * 100.0 - paper_pct).abs()
}

fn ratio(row: &Value, table: &str, column: &str) -> Result<f64, String> {
    let base = cell(row, table, BASELINE_ARM, column)?;
    if base == 0.0 {
        return Err(format!("{table}: {BASELINE_ARM} {column} is zero"));
    }
    Ok(cell(row, table, PADC_ARM, column)? / base)
}

/// One value of table `table` in a suite row: rows are `[label, [values]]`,
/// indexed by the table's `columns`.
fn cell(row: &Value, table: &str, label: &str, column: &str) -> Result<f64, String> {
    let tables = row
        .get("result")
        .and_then(|r| r.get("tables"))
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{table}: row carries no result tables"))?;
    let t = tables
        .iter()
        .find(|t| t.get("id").and_then(Value::as_str) == Some(table))
        .ok_or_else(|| format!("no table {table}"))?;
    let col = t
        .get("columns")
        .and_then(Value::as_array)
        .and_then(|cols| cols.iter().position(|c| c.as_str() == Some(column)))
        .ok_or_else(|| format!("{table}: no column {column}"))?;
    t.get("rows")
        .and_then(Value::as_array)
        .and_then(|rows| {
            rows.iter().find_map(|r| {
                let r = r.as_array()?;
                if r.first()?.as_str() != Some(label) {
                    return None;
                }
                r.get(1)?.as_array()?.get(col)?.as_f64()
            })
        })
        .ok_or_else(|| format!("{table}: no value for {label} / {column}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const CANNED: &str = concat!(
        r#"{"id":"fig6","status":"ok","result":{"paper_ref":"Figure 6","tables":[{"id":"fig6","title":"t","columns":["no-pref","demand-first","demand-pref-equal","aps-only","aps-apd (PADC)"],"rows":[["lbm_06",[0.4,1,0.9,0.9,0.9]],["gmean55",[0.65,1,0.96,0.96,0.966]]]}]}}"#,
        "\n",
        r#"{"id":"fig16","status":"ok","result":{"paper_ref":"Figure 16","tables":[{"id":"fig16","title":"t","columns":["WS","HS","UF","traffic(lines)"],"rows":[["demand-first",[2.0,0.5,1.5,10000]],["aps-apd (PADC)",[2.5,0.6,1.4,9500]]]}]}}"#,
        "\n"
    );

    #[test]
    fn gaps_follow_the_three_formulas() {
        let g = from_jsonl(CANNED).unwrap();
        // (0.966 - 1) * 100 = -3.4  -> |-3.4 - 4.3| = 7.7
        assert!((g.ipc_pp - 7.7).abs() < 1e-9, "{}", g.ipc_pp);
        // 2.5 / 2.0 = +25 %        -> |25 - 8.2| = 16.8
        assert!((g.ws_pp - 16.8).abs() < 1e-9, "{}", g.ws_pp);
        // 9500 / 10000 = -5 %      -> |-5 + 10.1| = 5.1
        assert!((g.traffic_pp - 5.1).abs() < 1e-9, "{}", g.traffic_pp);
    }

    #[test]
    fn a_perfect_match_has_zero_gap() {
        assert!(gap_pp(1.043, PAPER_IPC_PCT).abs() < 1e-9);
        assert!(gap_pp(0.899, PAPER_TRAFFIC_PCT).abs() < 1e-9);
    }

    #[test]
    fn missing_pieces_are_named() {
        assert_eq!(from_jsonl("").unwrap_err(), "no fig6 row");
        let only6 = CANNED.lines().next().unwrap();
        assert_eq!(from_jsonl(only6).unwrap_err(), "no fig16 row");
        let renamed = CANNED.replace("aps-apd (PADC)", "padc");
        assert!(from_jsonl(&renamed).unwrap_err().contains("fig6"));
    }
}
