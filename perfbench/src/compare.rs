//! Comparison mode (choosing-metrics §8): reads the stdout of paired
//! parent and change runs and prints, per workload × end-to-end metric,
//! each side's median and quartiles, the pairs each side won, and a
//! verdict. On `suite` it adds one row per program and the geometric
//! mean of the per-program ratios.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END};
use crate::stats;

/// Prefix of the per-program latency line a `suite` run prints.
pub const PROGRAMS_PREFIX: &str = "perfbench-programs ";

/// The outcome of one comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change won at least 9/10 of the pairs and its median is
    /// better by more than the parent's interquartile range.
    Improved,
    /// The parent won at least 9/10 of the pairs and the change's
    /// median is worse by more than the parent's interquartile range.
    Worse,
    /// Neither, with the change's median no worse than the bound allows
    /// and the parent's spread within the bound.
    Unchanged,
    /// Neither, and the spread is too wide to call it unchanged.
    Unresolved,
}

/// Pairs won by the change and by the parent; ties count for neither.
pub fn pairs_won(parent: &[f64], change: &[f64], better: Better) -> (usize, usize) {
    let mut won = (0, 0);
    for (p, c) in parent.iter().zip(change) {
        let change_better = match better {
            Better::Lower => c < p,
            Better::Higher => c > p,
        };
        if change_better {
            won.0 += 1;
        } else if c != p {
            won.1 += 1;
        }
    }
    won
}

/// Whether `won` of `pairs` meets the nine-tenths rule.
pub fn nine_tenths(won: usize, pairs: usize) -> bool {
    pairs > 0 && won * 10 >= pairs * 9
}

/// Judges one workload × metric from paired runs.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let pairs = parent.len().min(change.len());
    let (won, lost) = pairs_won(parent, change, better);
    let (q1, q3) = stats::quartiles(parent);
    let iqr = q3 - q1;
    let base = stats::median(parent);
    let gain = match better {
        Better::Lower => base - stats::median(change),
        Better::Higher => stats::median(change) - base,
    };
    if nine_tenths(won, pairs) && gain > iqr {
        Verdict::Improved
    } else if nine_tenths(lost, pairs) && -gain > iqr {
        Verdict::Worse
    } else if -gain <= bound * base.abs() && stats::relative_spread(parent) <= bound {
        Verdict::Unchanged
    } else {
        Verdict::Unresolved
    }
}

/// One run's parsed stdout.
struct RunResult {
    metrics: BTreeMap<String, f64>,
    programs: BTreeMap<String, f64>,
}

fn parse_run(text: &str) -> Result<RunResult, String> {
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty output")?;
    let doc = json::parse(last)?;
    let mut metrics = BTreeMap::new();
    if let Some(Value::Obj(kv)) = doc.get("metrics") {
        for (k, v) in kv {
            if let Some(x) = v.get("value").and_then(Value::num) {
                metrics.insert(k.clone(), x);
            }
        }
    }
    let mut programs = BTreeMap::new();
    if let Some(line) = text.lines().find_map(|l| l.strip_prefix(PROGRAMS_PREFIX)) {
        if let Value::Obj(kv) = json::parse(line)? {
            for (k, v) in kv {
                programs.insert(k, v.num().unwrap_or(0.0));
            }
        }
    }
    Ok(RunResult { metrics, programs })
}

/// Reads `<workload>.<seed>.out` files present in both directories and
/// renders the comparison table.
///
/// # Errors
///
/// Unreadable directories or unparsable run output.
pub fn compare_dirs(parent: &Path, change: &Path) -> Result<String, String> {
    let list = |d: &Path| -> Result<Vec<String>, String> {
        let mut names: Vec<String> = std::fs::read_dir(d)
            .map_err(|e| format!("{}: {e}", d.display()))?
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.ends_with(".out"))
            .collect();
        names.sort();
        Ok(names)
    };
    let change_names = list(change)?;
    // workload -> (parent runs, change runs), paired by seed.
    let mut by_workload: BTreeMap<String, (Vec<RunResult>, Vec<RunResult>)> = BTreeMap::new();
    for name in list(parent)?
        .into_iter()
        .filter(|n| change_names.contains(n))
    {
        let workload = name.split('.').next().unwrap_or_default().to_string();
        let read = |d: &Path| {
            let text =
                std::fs::read_to_string(d.join(&name)).map_err(|e| format!("{name}: {e}"))?;
            parse_run(&text).map_err(|e| format!("{name}: {e}"))
        };
        let e = by_workload.entry(workload).or_default();
        e.0.push(read(parent)?);
        e.1.push(read(change)?);
    }
    if by_workload.is_empty() {
        return Err("no run files present in both directories".to_string());
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:<22} {:>30} {:>30} {:>9} verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won c/p",
    );
    // Per-program rows are latencies, judged by the p50 latency bound.
    let latency_bound = END_TO_END
        .iter()
        .find(|m| m.name == "latency_ms_p50")
        .map_or(0.0, |m| m.bound);
    let side = |xs: &[f64]| {
        let (q1, q3) = stats::quartiles(xs);
        format!("{:.4} [{:.4}, {:.4}]", stats::median(xs), q1, q3)
    };
    for (workload, (ps, cs)) in &by_workload {
        for m in END_TO_END {
            let get = |rs: &[RunResult]| -> Vec<f64> {
                rs.iter()
                    .filter_map(|r| r.metrics.get(m.name).copied())
                    .collect()
            };
            let (p, c) = (get(ps), get(cs));
            if p.is_empty() || p.len() != c.len() {
                continue;
            }
            let (won, lost) = pairs_won(&p, &c, m.better);
            let _ = writeln!(
                out,
                "{workload:<8} {:<22} {:>30} {:>30} {:>9} {:?} (n={}, bound {})",
                m.name,
                side(&p),
                side(&c),
                format!("{won}/{lost}"),
                verdict(&p, &c, m.better, m.bound),
                p.len(),
                m.bound,
            );
        }
        let programs: Vec<&String> = ps
            .first()
            .map(|r| r.programs.keys().collect())
            .unwrap_or_default();
        let mut ratios = Vec::new();
        for prog in programs {
            let get = |rs: &[RunResult]| -> Vec<f64> {
                rs.iter()
                    .filter_map(|r| r.programs.get(prog).copied())
                    .collect()
            };
            let (p, c) = (get(ps), get(cs));
            if p.is_empty() || p.len() != c.len() {
                continue;
            }
            let ratio = stats::median(&c) / stats::median(&p);
            ratios.push(ratio);
            let (won, lost) = pairs_won(&p, &c, Better::Lower);
            let _ = writeln!(
                out,
                "{workload:<8} {:<22} {:>30} {:>30} {:>9} ratio {ratio:.4} {:?}",
                format!("{prog} ms"),
                side(&p),
                side(&c),
                format!("{won}/{lost}"),
                verdict(&p, &c, Better::Lower, latency_bound),
            );
        }
        if !ratios.is_empty() {
            let _ = writeln!(
                out,
                "{workload:<8} geometric mean of per-program change/parent latency ratios: {:.4} over {} programs",
                stats::geomean(&ratios),
                ratios.len()
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_of_ten_pairs_won_is_enough_eight_is_not() {
        assert!(nine_tenths(9, 10));
        assert!(nine_tenths(10, 10));
        assert!(!nine_tenths(8, 10));
        assert!(nine_tenths(18, 20));
        assert!(!nine_tenths(17, 20));
        assert!(!nine_tenths(0, 0));
    }

    #[test]
    fn ties_count_for_neither_side() {
        let parent = [10.0, 10.0, 10.0, 12.0];
        let change = [9.0, 10.0, 11.0, 12.0];
        assert_eq!(pairs_won(&parent, &change, Better::Lower), (1, 1));
        assert_eq!(pairs_won(&parent, &change, Better::Higher), (1, 1));
    }

    #[test]
    fn a_tie_breaks_the_nine_tenths_rule() {
        // Nine clear wins and one tie out of ten: 9/10 won, improved.
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 0.1).collect();
        let mut change: Vec<f64> = parent.iter().map(|p| p - 20.0).collect();
        change[0] = parent[0];
        assert_eq!(pairs_won(&parent, &change, Better::Lower), (9, 0));
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.1),
            Verdict::Improved
        );
        // Two ties: only 8/10 won, so no gain can be claimed, and the
        // median moved by more than the bound allows in no direction:
        // unchanged only if the gap is within the bound.
        change[1] = parent[1];
        assert_eq!(pairs_won(&parent, &change, Better::Lower), (8, 0));
        assert_ne!(
            verdict(&parent, &change, Better::Lower, 0.1),
            Verdict::Improved
        );
    }

    #[test]
    fn verdicts_for_worse_unchanged_and_unresolved() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let worse: Vec<f64> = parent.iter().map(|p| p * 1.5).collect();
        assert_eq!(verdict(&parent, &worse, Better::Lower, 0.1), Verdict::Worse);
        assert_eq!(
            verdict(&parent, &worse, Better::Higher, 0.1),
            Verdict::Improved
        );
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(
            verdict(&parent, &same, Better::Lower, 0.1),
            Verdict::Unchanged
        );
        let wild: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 50.0 } else { 200.0 })
            .collect();
        assert_eq!(
            verdict(&wild, &wild, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // Deterministic counts: all ties, identical medians.
        assert_eq!(
            verdict(&[5.0; 10], &[5.0; 10], Better::Higher, 0.01),
            Verdict::Unchanged
        );
    }

    #[test]
    fn reads_a_run_and_its_program_line() {
        let text = "table\nperfbench-programs {\"grep\": 12.5}\n\
                    {\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                    {\"units_per_s\": {\"value\": 4.5, \"unit\": \"units/s\"}}}\n";
        let r = parse_run(text).expect("parses");
        assert_eq!(r.metrics["units_per_s"], 4.5);
        assert_eq!(r.programs["grep"], 12.5);
    }
}
