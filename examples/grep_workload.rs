//! Domain scenario 1 — the paper's motivating workload: a text-search
//! tool (`grep`) whose inner loop is a cascade of tiny functions. This
//! example runs the full evaluation pipeline on the bundled `grep`
//! benchmark and prints its Table 2/3/4 row, the hottest arcs, and what
//! the expander did to them.
//!
//! ```sh
//! cargo run --release --example grep_workload
//! ```

use impact::callgraph::CallGraph;
use impact::inline::{call_decrease_percent, classify, inline_guarded, InlineConfig, SiteClass};
use impact::vm::VmConfig;

fn main() {
    let b = impact::workloads::benchmark("grep").expect("bundled");
    let module = b.compile().expect("compiles");
    let runs = b.profile_run_set(4);
    let inline_cfg = InlineConfig {
        code_growth_limit: 1.2,
        ..InlineConfig::default()
    };

    // Profile, expand, and re-profile the same inputs, guarded.
    let g = inline_guarded(&module, &runs, &inline_cfg, &VmConfig::default(), None)
        .expect("inlined module verifies");
    let averaged = g.baseline.averaged();
    println!(
        "grep: {} C lines, {} static call sites, {} dynamic calls/run",
        b.c_lines(),
        module.all_call_sites().len(),
        averaged.calls
    );

    // Classification — Table 2/3 for this benchmark.
    let graph = CallGraph::build(&module, &averaged);
    let classification = classify(&module, &graph, &inline_cfg);
    let st = classification.static_totals();
    let dy = classification.dynamic_totals();
    println!(
        "static : {:4.1}% external {:4.1}% pointer {:4.1}% unsafe {:4.1}% safe",
        st.percent(SiteClass::External),
        st.percent(SiteClass::Pointer),
        st.percent(SiteClass::Unsafe),
        st.percent(SiteClass::Safe),
    );
    println!(
        "dynamic: {:4.1}% external {:4.1}% pointer {:4.1}% unsafe {:4.1}% safe",
        dy.percent(SiteClass::External),
        dy.percent(SiteClass::Pointer),
        dy.percent(SiteClass::Unsafe),
        dy.percent(SiteClass::Safe),
    );

    // The ten hottest arcs, by profile weight.
    let mut sites = classification.sites.clone();
    sites.sort_by_key(|s| std::cmp::Reverse(s.weight));
    println!("\nhottest arcs:");
    for s in sites.iter().take(10) {
        let caller = &module.function(s.caller).name;
        let callee = s
            .callee
            .map(|f| module.function(f).name.clone())
            .unwrap_or_else(|| "<external/pointer>".into());
        println!(
            "  {:>9} calls  {caller} -> {callee}  [{:?}]",
            s.weight, s.class
        );
    }

    // What the expansion did.
    let (_, after) = g.after.expect("re-profiles");
    println!(
        "\nexpanded {} arcs; code {:+.1}%; dynamic calls {} -> {} ({:.1}% eliminated)",
        g.report.expanded.len(),
        g.report.code_increase_percent(),
        g.baseline.calls,
        after.calls,
        call_decrease_percent(&g.baseline, &after)
    );
    println!(
        "ILs per remaining call: {} (paper's grep: 11214)",
        after.averaged().ils_per_call()
    );
}
