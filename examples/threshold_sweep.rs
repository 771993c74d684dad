//! Domain scenario 3 — tuning the expander: sweep the arc-weight
//! threshold (the paper fixes it at 10, §4.2) on one benchmark and watch
//! the code-size/call-elimination trade-off move.
//!
//! ```sh
//! cargo run --release --example threshold_sweep [benchmark]
//! ```

use impact::inline::{call_decrease_percent, inline_guarded, InlineConfig};
use impact::vm::VmConfig;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "compress".into());
    let b = impact::workloads::benchmark(&name).expect("known benchmark");
    let module = b.compile().expect("compiles");
    let runs = b.profile_run_set(3);

    println!("{name}: sweeping weight_threshold (paper: 10)");
    println!(
        "{:>10}  {:>9}  {:>9}  {:>6}",
        "threshold", "call dec", "code inc", "arcs"
    );
    for threshold in [1u64, 3, 10, 30, 100, 1000, 10_000, 100_000] {
        let cfg = InlineConfig {
            weight_threshold: threshold,
            code_growth_limit: 1.2,
            ..InlineConfig::default()
        };
        let g = inline_guarded(&module, &runs, &cfg, &VmConfig::default(), None)
            .expect("inlined module verifies");
        let (_, after) = g.after.expect("re-profiles");
        println!(
            "{threshold:>10}  {:>8.1}%  {:>8.1}%  {:>6}",
            call_decrease_percent(&g.baseline, &after),
            g.report.code_increase_percent(),
            g.report.expanded.len()
        );
    }
}
