//! Ablation studies over the design choices DESIGN.md calls out:
//!
//! * `ablate threshold` — sweep the arc-weight threshold (§3.4's
//!   compilation-time cutoff doubles as the *unsafe* low-weight rule);
//! * `ablate budget` — sweep the code-growth budget (§2.3.1);
//! * `ablate linearization` — the paper's node-weight order vs random and
//!   adversarial orders (§3.3).
//!
//! Each prints achieved call elimination and code growth per setting,
//! averaged over the suite (use `--bench <name>` for one benchmark).

use impact_bench::{evaluate, mean_sd, row, HarnessConfig};
use impact_inline::{InlineConfig, Linearization};
use impact_workloads::{all_benchmarks, Benchmark};

fn sweep(
    benchmarks: &[Benchmark],
    label: &str,
    settings: Vec<(String, InlineConfig)>,
    quick: bool,
) {
    let widths = [26, 10, 10, 10];
    println!("Ablation: {label}");
    println!(
        "{}",
        row(
            &[
                "setting".into(),
                "call dec".into(),
                "code inc".into(),
                "arcs".into(),
            ],
            &widths,
        )
    );
    for (name, inline) in settings {
        let cfg = HarnessConfig {
            max_runs: if quick { 2 } else { 4 },
            inline,
            ..HarnessConfig::default()
        };
        let evals: Vec<_> = benchmarks
            .iter()
            .map(|b| evaluate(b, &cfg).expect("evaluation runs"))
            .collect();
        let decs: Vec<f64> = evals.iter().map(|e| e.call_dec_percent).collect();
        let incs: Vec<f64> = evals.iter().map(|e| e.code_inc_percent).collect();
        let arcs: usize = evals.iter().map(|e| e.report.expanded.len()).sum();
        println!(
            "{}",
            row(
                &[
                    name,
                    format!("{:.1}%", mean_sd(&decs).0),
                    format!("{:.1}%", mean_sd(&incs).0),
                    arcs.to_string(),
                ],
                &widths,
            )
        );
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let which = args.get(1).map(String::as_str).unwrap_or("all");
    let benchmarks: Vec<Benchmark> = match args.iter().position(|a| a == "--bench") {
        Some(i) => {
            let name = args.get(i + 1).expect("--bench needs a name");
            vec![impact_workloads::benchmark(name).expect("known benchmark")]
        }
        None => all_benchmarks(),
    };

    if which == "threshold" || which == "all" {
        let settings = [1u64, 10, 100, 1000, 10000]
            .into_iter()
            .map(|t| {
                (
                    format!("weight_threshold={t}"),
                    InlineConfig {
                        weight_threshold: t,
                        ..InlineConfig::default()
                    },
                )
            })
            .collect();
        sweep(
            &benchmarks,
            "arc-weight threshold (paper: 10)",
            settings,
            quick,
        );
    }
    if which == "budget" || which == "all" {
        let settings = [1.05f64, 1.2, 1.5, 2.0, 3.0]
            .into_iter()
            .map(|l| {
                (
                    format!("code_growth_limit={l}"),
                    InlineConfig {
                        code_growth_limit: l,
                        ..InlineConfig::default()
                    },
                )
            })
            .collect();
        sweep(&benchmarks, "code-growth budget (§2.3.1)", settings, quick);
    }
    if which == "linearization" || which == "all" {
        let settings = vec![
            (
                "node-weight (paper)".to_string(),
                InlineConfig {
                    linearization: Linearization::NodeWeight,
                    ..InlineConfig::default()
                },
            ),
            (
                "source order".to_string(),
                InlineConfig {
                    linearization: Linearization::SourceOrder,
                    ..InlineConfig::default()
                },
            ),
            (
                "random(7)".to_string(),
                InlineConfig {
                    linearization: Linearization::Random(7),
                    ..InlineConfig::default()
                },
            ),
            (
                "reverse node-weight".to_string(),
                InlineConfig {
                    linearization: Linearization::ReverseNodeWeight,
                    ..InlineConfig::default()
                },
            ),
        ];
        sweep(
            &benchmarks,
            "linearization heuristic (§3.3)",
            settings,
            quick,
        );
    }
}
