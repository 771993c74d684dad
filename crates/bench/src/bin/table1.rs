//! Regenerates **Table 1 — Benchmark characteristics**: lines of C,
//! number of profiled runs, average dynamic IL instructions and control
//! transfers per run (in thousands), and the input description.
//!
//! Run with `--quick` to profile 2 runs per benchmark instead of the full
//! paper-shaped set.

use impact_bench::{evaluate, row, HarnessConfig};

fn main() {
    let cfg = HarnessConfig::from_args();
    let widths = [10, 8, 6, 10, 10, 34];
    println!("Table 1. Benchmark characteristics.");
    println!(
        "{}",
        row(
            &[
                "benchmark".into(),
                "C lines".into(),
                "runs".into(),
                "IL's".into(),
                "control".into(),
                "input description".into(),
            ],
            &widths,
        )
    );
    for b in impact_workloads::all_benchmarks() {
        let e = evaluate(&b, &cfg).expect("evaluation runs");
        println!(
            "{}",
            row(
                &[
                    e.name.clone(),
                    e.c_lines.to_string(),
                    e.runs.to_string(),
                    format!("{}K", e.avg_ils / 1000),
                    format!("{}K", e.avg_control / 1000),
                    format!("  {}", e.input_description),
                ],
                &widths,
            )
        );
    }
}
