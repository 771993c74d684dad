//! # impact-bench — the experiment harness
//!
//! Reruns the paper's evaluation (§4) end to end and regenerates each of
//! its four tables. The pipeline per benchmark follows §4 exactly:
//!
//! 1. compile the benchmark (program + mini library);
//! 2. apply constant folding and jump optimization **before** inline
//!    expansion (§4.4: "constant folding and jump optimization were
//!    applied before the inline expansion procedure, but not after it");
//! 3. profile over the benchmark's representative inputs (Table 1's
//!    `runs` column), inline-expand, and re-profile the same inputs
//!    (Table 4) — all one call of [`impact_inline::inline_guarded`],
//!    the guarded pipeline `impactc` compiles through;
//! 4. classify the call sites under the averaged baseline profile
//!    (Tables 2 and 3).
//!
//! Numbers will not equal the paper's absolute values (different
//! programs, different decade); what reproduces is the *shape* — see
//! `EXPERIMENTS.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use impact_callgraph::CallGraph;
use impact_il::Module;
use impact_inline::{
    call_decrease_percent, classify, inline_guarded, ClassTotals, InlineConfig, InlineReport,
    SiteClass,
};
use impact_opt::{constant_fold, jump_optimization};
use impact_vm::VmConfig;
use impact_workloads::Benchmark;

/// The code-growth budget that reproduces the paper's Table 4 trade-off
/// (~17% growth for ~59% call elimination; see the `ablate budget`
/// sweep): the harness default, and the `impactc bench` suite's unless
/// `--budget` overrides it.
pub const PAPER_CODE_GROWTH_LIMIT: f64 = 1.2;

/// Everything measured for one benchmark: the union of what Tables 1–4
/// report.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// Benchmark name.
    pub name: String,
    /// Lines of C (Table 1).
    pub c_lines: usize,
    /// Number of profiled runs (Table 1).
    pub runs: u32,
    /// Input description (Table 1).
    pub input_description: String,
    /// Average dynamic IL instructions per run (Table 1's `IL's`).
    pub avg_ils: u64,
    /// Average dynamic control transfers per run, excluding call/return
    /// (Table 1's `control`).
    pub avg_control: u64,
    /// Static call-site classification (Table 2).
    pub static_totals: ClassTotals,
    /// Dynamic (weighted) classification (Table 3).
    pub dynamic_totals: ClassTotals,
    /// Static code-size increase percent (Table 4's `code inc`).
    pub code_inc_percent: f64,
    /// Dynamic call decrease percent (Table 4's `call dec`).
    pub call_dec_percent: f64,
    /// ILs executed between dynamic calls after inlining (Table 4).
    pub ils_per_call: u64,
    /// Control transfers between dynamic calls after inlining (Table 4).
    pub cts_per_call: u64,
    /// Post-inline dynamic call mix (external, pointer, unsafe, safe)
    /// percentages — the §4.4 prose statistic.
    pub post_mix: [f64; 4],
    /// The inliner's own report (sizes, expansions, removals).
    pub report: InlineReport,
}

/// Harness configuration.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Cap on the number of runs per benchmark (use `u32::MAX` for the
    /// full paper-shaped set; smaller values keep tests fast).
    pub max_runs: u32,
    /// Inline-expander parameters.
    pub inline: InlineConfig,
    /// VM limits.
    pub vm: VmConfig,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            max_runs: u32::MAX,
            inline: InlineConfig {
                code_growth_limit: PAPER_CODE_GROWTH_LIMIT,
                ..InlineConfig::default()
            },
            vm: VmConfig::default(),
        }
    }
}

impl HarnessConfig {
    /// The tables' configuration: every representative input, or two per
    /// benchmark when the command line says `--quick`.
    pub fn from_args() -> Self {
        let quick = std::env::args().any(|a| a == "--quick");
        HarnessConfig {
            max_runs: if quick { 2 } else { u32::MAX },
            ..HarnessConfig::default()
        }
    }
}

/// The call-site classes in the tables' column order.
pub const CLASSES: [SiteClass; 4] = [
    SiteClass::External,
    SiteClass::Pointer,
    SiteClass::Unsafe,
    SiteClass::Safe,
];

/// Prints Table 2 or 3: per benchmark, the total of the class counts
/// `pick` selects (under `total_header`, `total_width` wide) and each
/// class's share of it, then the average shares.
pub fn print_class_table(
    title: &str,
    total_header: &str,
    total_width: usize,
    pick: fn(&Evaluation) -> ClassTotals,
) {
    let cfg = HarnessConfig::from_args();
    let widths = [10, total_width, 10, 9, 8, 7];
    println!("{title}");
    let header = [
        "benchmark",
        total_header,
        "external",
        "pointer",
        "unsafe",
        "safe",
    ];
    println!("{}", row(&header.map(String::from), &widths));
    let mut per_class: [Vec<f64>; 4] = Default::default();
    for b in impact_workloads::all_benchmarks() {
        let e = evaluate(&b, &cfg).expect("evaluation runs");
        let t = pick(&e);
        let mut cells = vec![e.name.clone(), t.total().to_string()];
        for (acc, class) in per_class.iter_mut().zip(CLASSES) {
            acc.push(t.percent(class));
            cells.push(format!("{:.1}%", t.percent(class)));
        }
        println!("{}", row(&cells, &widths));
    }
    let mut avg = vec!["AVG".to_string(), String::new()];
    avg.extend(per_class.iter().map(|v| format!("{:.1}%", mean_sd(v).0)));
    println!("{}", row(&avg, &widths));
}

/// Compiles a benchmark and applies the paper's pre-inline optimizations.
///
/// # Errors
///
/// Propagates compile errors (a bug in the bundled sources).
pub fn prepared_module(b: &Benchmark) -> Result<Module, impact_cfront::CompileError> {
    let mut module = b.compile()?;
    for f in &mut module.functions {
        constant_fold(f);
        jump_optimization(f);
    }
    Ok(module)
}

/// Runs the full §4 pipeline on one benchmark.
///
/// # Errors
///
/// Fails when a profiling or re-profiling run traps, or the inlined
/// module fails verification. Compile errors panic: the sources are part
/// of this crate.
pub fn evaluate(b: &Benchmark, cfg: &HarnessConfig) -> Result<Evaluation, String> {
    let module = prepared_module(b).expect("bundled benchmark compiles");
    let runs = b.profile_run_set(cfg.max_runs);
    let g = inline_guarded(&module, &runs, &cfg.inline, &cfg.vm, None).map_err(|u| u.detail)?;
    if let Some(trap) = g.profile_trap {
        return Err(trap);
    }
    let (_, merged_after) = g.after?;
    let averaged = g.baseline.averaged();
    let averaged_after = merged_after.averaged();

    // Classification of the original module on the baseline (Tables 2
    // and 3), and of the final module on the re-profile (the post-inline
    // dynamic mix).
    let classification = classify(&module, &CallGraph::build(&module, &averaged), &cfg.inline);
    let graph_after = CallGraph::build(&g.module, &averaged_after);
    let mix = classify(&g.module, &graph_after, &cfg.inline).dynamic_totals();
    let post_mix = CLASSES.map(|c| mix.percent(c));

    Ok(Evaluation {
        name: b.name.to_string(),
        c_lines: b.c_lines(),
        runs: runs.len() as u32,
        input_description: b.input_description.to_string(),
        avg_ils: averaged.il_executed,
        avg_control: averaged.control_transfers,
        static_totals: classification.static_totals(),
        dynamic_totals: classification.dynamic_totals(),
        code_inc_percent: g.report.code_increase_percent(),
        call_dec_percent: call_decrease_percent(&g.baseline, &merged_after),
        ils_per_call: averaged_after.ils_per_call(),
        cts_per_call: averaged_after.cts_per_call(),
        post_mix,
        report: g.report,
    })
}

/// Evaluates every benchmark with per-benchmark isolation, the batch
/// supervisor's contract applied to the harness: one benchmark trapping
/// or panicking no longer sinks the whole table. Returns the successful
/// evaluations plus `(name, error)` pairs for the isolated failures.
pub fn evaluate_all_supervised(cfg: &HarnessConfig) -> (Vec<Evaluation>, Vec<(String, String)>) {
    let mut evaluations = Vec::new();
    let mut failures = Vec::new();
    for b in impact_workloads::all_benchmarks() {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| evaluate(&b, cfg)));
        match outcome {
            Ok(Ok(e)) => evaluations.push(e),
            Ok(Err(e)) => failures.push((b.name.to_string(), e)),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                failures.push((b.name.to_string(), format!("panicked: {msg}")));
            }
        }
    }
    (evaluations, failures)
}

/// Mean and (population) standard deviation, as the paper's Table 4
/// AVG/SD rows.
pub fn mean_sd(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Formats one row of an aligned text table.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut s = String::new();
    for (i, c) in cells.iter().enumerate() {
        let w = widths.get(i).copied().unwrap_or(12);
        if i == 0 {
            s.push_str(&format!("{c:<w$}"));
        } else {
            s.push_str(&format!("{c:>w$}"));
        }
        s.push_str("  ");
    }
    s.trim_end().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> HarnessConfig {
        HarnessConfig {
            max_runs: 2,
            ..HarnessConfig::default()
        }
    }

    #[test]
    fn evaluate_produces_consistent_numbers_for_grep() {
        let b = impact_workloads::benchmark("grep").unwrap();
        let e = evaluate(&b, &quick_cfg()).unwrap();
        assert_eq!(e.runs, 2);
        assert!(e.avg_ils > 50_000);
        assert!(e.static_totals.total() > 20);
        // Safe sites are a minority of static sites but a majority of
        // dynamic calls (the paper's central observation).
        let static_safe = e.static_totals.percent(impact_inline::SiteClass::Safe);
        let dyn_safe = e.dynamic_totals.percent(impact_inline::SiteClass::Safe);
        assert!(static_safe < 50.0, "static safe {static_safe:.1}%");
        assert!(dyn_safe > 50.0, "dynamic safe {dyn_safe:.1}%");
        assert!(e.call_dec_percent > 90.0);
        // Percentages sum to ~100.
        let sum: f64 = e.post_mix.iter().sum();
        assert!((sum - 100.0).abs() < 0.5, "post mix sums to {sum}");
    }

    #[test]
    fn supervised_evaluation_isolates_failures() {
        let cfg = HarnessConfig {
            max_runs: 1,
            ..HarnessConfig::default()
        };
        let (evaluations, failures) = evaluate_all_supervised(&cfg);
        assert!(
            failures.is_empty(),
            "bundled benchmarks should all evaluate: {failures:?}"
        );
        assert_eq!(evaluations.len(), impact_workloads::all_benchmarks().len());
    }

    #[test]
    fn mean_sd_matches_hand_computation() {
        let (m, s) = mean_sd(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-9);
        assert!((s - 2.0).abs() < 1e-9);
        assert_eq!(mean_sd(&[]), (0.0, 0.0));
    }

    #[test]
    fn row_aligns_columns() {
        let r = row(&["name".into(), "12".into(), "3".into()], &[8, 6, 6]);
        assert!(r.starts_with("name    "));
        assert!(r.ends_with("3"));
    }
}
