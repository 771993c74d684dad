//! Extension experiment — instruction-cache behavior before and after
//! inline expansion (the paper's §5 conclusion, quantified): replay each
//! benchmark's dynamic instruction stream through a small direct-mapped
//! cache and compare miss ratios. Expansion grows the static code but
//! *straightens* the hot path, removing caller/callee mapping conflicts.
//!
//! With `--layout`, a third column applies profile-guided block layout
//! (the paper's trace-selection lineage, `impact_opt::reorder_blocks`)
//! on top of inlining.
//!
//! Usage: `cargo run --release -p impact-bench --bin icache [--quick]
//! [--size KB] [--assoc N] [--layout]`

use impact_bench::{mean_sd, prepared_module, row, HarnessConfig};
use impact_inline::inline_guarded;
use impact_opt::reorder_blocks;
use impact_vm::{run, IcacheConfig, IcacheStats, VmConfig};

fn accumulate(
    module: &impact_il::Module,
    runs: &[(Vec<impact_vm::NamedFile>, Vec<String>)],
    vm: &VmConfig,
) -> IcacheStats {
    let mut total = IcacheStats::default();
    for (inputs, args) in runs {
        let out = run(module, inputs.clone(), args.clone(), vm).expect("runs");
        let s = out.icache.expect("icache enabled");
        total.accesses += s.accesses;
        total.misses += s.misses;
    }
    total
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let get = |flag: &str, default: u64| -> u64 {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let size_kb = get("--size", 1);
    let assoc = get("--assoc", 1) as u32;
    let with_layout = args.iter().any(|a| a == "--layout");

    let hcfg = HarnessConfig {
        max_runs: if quick { 1 } else { 3 },
        ..HarnessConfig::default()
    };
    let icache = IcacheConfig {
        size_bytes: size_kb << 10,
        line_bytes: 32,
        assoc,
    };
    let vm = VmConfig {
        icache: Some(icache),
        ..VmConfig::default()
    };

    println!(
        "Instruction cache: {size_kb} KiB, 32-byte lines, {assoc}-way, LRU (extension; paper §5)"
    );
    let widths = [10, 12, 12, 12, 9];
    let mut header = vec![
        "benchmark".to_string(),
        "miss before".to_string(),
        "miss after".to_string(),
    ];
    if with_layout {
        header.push("+layout".to_string());
    }
    header.push("change".to_string());
    println!("{}", row(&header, &widths));
    let mut befores = Vec::new();
    let mut afters = Vec::new();
    let mut laid = Vec::new();
    for b in impact_workloads::all_benchmarks() {
        let module = prepared_module(&b).expect("compiles");
        let runs = b.profile_run_set(hcfg.max_runs);
        let before = accumulate(&module, &runs, &vm);

        let g = inline_guarded(&module, &runs, &hcfg.inline, &hcfg.vm, None).expect("inlines");
        let inlined = g.module;
        let after = accumulate(&inlined, &runs, &vm);

        let b_ratio = 100.0 * before.miss_ratio();
        let a_ratio = 100.0 * after.miss_ratio();
        befores.push(b_ratio);
        afters.push(a_ratio);

        let mut cells = vec![
            b.name.to_string(),
            format!("{b_ratio:.3}%"),
            format!("{a_ratio:.3}%"),
        ];
        let final_ratio = if with_layout {
            // The re-profile's block counts match the inlined module's
            // shape: lay its blocks out along the hot paths.
            let (_, inlined_profile) = g.after.expect("re-profiles");
            let mut arranged = inlined.clone();
            for (fi, f) in arranged.functions.iter_mut().enumerate() {
                reorder_blocks(
                    f,
                    &inlined_profile.block_counts[fi],
                    &inlined_profile.branch_taken[fi],
                );
            }
            let l = accumulate(&arranged, &runs, &vm);
            let l_ratio = 100.0 * l.miss_ratio();
            laid.push(l_ratio);
            cells.push(format!("{l_ratio:.3}%"));
            l_ratio
        } else {
            a_ratio
        };
        cells.push(format!("{:+.3}%", final_ratio - b_ratio));
        println!("{}", row(&cells, &widths));
    }
    let mut cells = vec![
        "AVG".to_string(),
        format!("{:.3}%", mean_sd(&befores).0),
        format!("{:.3}%", mean_sd(&afters).0),
    ];
    let final_avg = if with_layout {
        let avg = mean_sd(&laid).0;
        cells.push(format!("{avg:.3}%"));
        avg
    } else {
        mean_sd(&afters).0
    };
    cells.push(format!("{:+.3}%", final_avg - mean_sd(&befores).0));
    println!("{}", row(&cells, &widths));
}
