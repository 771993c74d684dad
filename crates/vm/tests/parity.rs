//! Engine-parity differential suite.
//!
//! The VM ships two execution engines — the tree-walking reference
//! interpreter and the flat register-bytecode engine — and the contract
//! is that the choice is *unobservable*: byte-identical exit code,
//! stdout, stderr, and created files, and record-identical profiles
//! (entries, arcs, flow residuals, size accounting, checksums) on every
//! program, under every compiler configuration.
//!
//! This suite drives that contract over two program populations:
//!
//! * the twelve paper workloads ([`impact_workloads::all_benchmarks`]),
//!   each pushed through the fuzz oracle's inline/opt configuration
//!   lattice (baseline, five inline variants, inline+opt, opt-only);
//! * a corpus from the fuzzer's program generator
//!   ([`impact_fuzz::generate`]), where runs may legitimately trap —
//!   then both engines must produce the *same* trap.

use impact_cfront::{compile, Source};
use impact_il::{verify_module, Module};
use impact_inline::{inline_module, InlineConfig, Linearization};
use impact_obs::Telemetry;
use impact_opt::optimize_module_observed;
use impact_vm::{profile_runs, run, Engine, FaultPlan, IcacheConfig, NamedFile, Profile, VmConfig};
use impact_workloads::all_benchmarks;

/// One point of the configuration lattice (mirrors the fuzz oracle's
/// lattice, including its default arc-weight threshold of 10).
struct LatticePoint {
    name: &'static str,
    inline: Option<InlineConfig>,
    opt: bool,
}

fn lattice() -> Vec<LatticePoint> {
    let with_threshold = |mut cfg: InlineConfig| {
        cfg.weight_threshold = 10;
        cfg
    };
    vec![
        LatticePoint {
            name: "baseline",
            inline: None,
            opt: false,
        },
        LatticePoint {
            name: "inline-default",
            inline: Some(with_threshold(InlineConfig::default())),
            opt: false,
        },
        LatticePoint {
            name: "inline-tight-budget",
            inline: Some(with_threshold(InlineConfig {
                code_growth_limit: 1.05,
                ..InlineConfig::default()
            })),
            opt: false,
        },
        LatticePoint {
            name: "inline-tight-stack",
            inline: Some(with_threshold(InlineConfig {
                stack_bound: 64,
                ..InlineConfig::default()
            })),
            opt: false,
        },
        LatticePoint {
            name: "inline-aggressive",
            inline: Some({
                let mut cfg = InlineConfig {
                    code_growth_limit: 4.0,
                    ..InlineConfig::default()
                };
                cfg.weight_threshold = 1;
                cfg
            }),
            opt: false,
        },
        LatticePoint {
            name: "inline-reverse",
            inline: Some(with_threshold(InlineConfig {
                linearization: Linearization::ReverseNodeWeight,
                ..InlineConfig::default()
            })),
            opt: false,
        },
        LatticePoint {
            name: "inline-opt",
            inline: Some(with_threshold(InlineConfig::default())),
            opt: true,
        },
        LatticePoint {
            name: "opt-only",
            inline: None,
            opt: true,
        },
    ]
}

/// Apply one lattice point's transformation to a fresh copy of `base`,
/// using `avg` as the driving profile for inlining decisions.
fn transformed(base: &Module, avg: &Profile, point: &LatticePoint) -> Module {
    let mut module = base.clone();
    if let Some(cfg) = &point.inline {
        let _ = inline_module(&mut module, avg, cfg);
    }
    if point.opt {
        let _ = optimize_module_observed(&mut module, &FaultPlan::new(), &Telemetry::disabled());
    }
    verify_module(&module).unwrap_or_else(|e| {
        panic!(
            "{}: transformed module fails verification: {e:?}",
            point.name
        )
    });
    module
}

fn config_for(engine: Engine, icache: bool) -> VmConfig {
    VmConfig {
        engine,
        icache: icache.then(IcacheConfig::small_direct_mapped),
        ..VmConfig::default()
    }
}

/// Run every input of `runs` through both engines and assert that all
/// observable results — including the per-run profile records and, when
/// `icache` is on, the simulated cache statistics — are identical.
fn assert_engine_parity(
    tag: &str,
    module: &Module,
    runs: &[(Vec<NamedFile>, Vec<String>)],
    icache: bool,
) {
    for (idx, (inputs, args)) in runs.iter().enumerate() {
        let interp = run(
            module,
            inputs.clone(),
            args.clone(),
            &config_for(Engine::Interp, icache),
        );
        let bytecode = run(
            module,
            inputs.clone(),
            args.clone(),
            &config_for(Engine::Bytecode, icache),
        );
        match (interp, bytecode) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.exit_code, b.exit_code, "{tag} run {idx}: exit code");
                assert_eq!(a.stdout, b.stdout, "{tag} run {idx}: stdout bytes");
                assert_eq!(a.stderr, b.stderr, "{tag} run {idx}: stderr bytes");
                assert_eq!(a.files, b.files, "{tag} run {idx}: created files");
                assert_eq!(a.profile, b.profile, "{tag} run {idx}: profile records");
                assert_eq!(a.icache, b.icache, "{tag} run {idx}: icache statistics");
                assert!(
                    a.profile.flow_residuals(module).is_empty(),
                    "{tag} run {idx}: profile violates flow conservation"
                );
            }
            (Err(a), Err(b)) => {
                assert_eq!(a, b, "{tag} run {idx}: engines trapped differently");
            }
            (a, b) => panic!(
                "{tag} run {idx}: one engine trapped and the other did not\n\
                 interp:   {a:?}\n\
                 bytecode: {b:?}",
            ),
        }
    }
}

/// All twelve paper workloads, through the full configuration lattice,
/// under both engines. One profiled input per workload keeps the debug-
/// mode runtime bounded; the input is the same one `profile_run_set`
/// hands the real profiler.
#[test]
fn twelve_workloads_match_across_the_lattice() {
    for bench in all_benchmarks() {
        let base = bench
            .compile()
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", bench.name));
        let runs = bench.profile_run_set(1);
        let (profile, _) = profile_runs(&base, &runs, &VmConfig::default())
            .unwrap_or_else(|e| panic!("{}: baseline profiling trapped: {e}", bench.name));
        let avg = profile.averaged();
        for point in lattice() {
            let module = transformed(&base, &avg, &point);
            let tag = format!("{}/{}", bench.name, point.name);
            assert_engine_parity(&tag, &module, &runs, false);
        }
    }
}

/// The simulated instruction-cache access stream must also be engine-
/// independent: fused bytecode superinstructions still issue one fetch
/// per IL slot. Checked on the lighter workloads (the simulator roughly
/// doubles interpretation cost).
#[test]
fn icache_statistics_match_between_engines() {
    let light = ["tee", "wc", "cmp", "yacc"];
    for bench in all_benchmarks() {
        if !light.contains(&bench.name) {
            continue;
        }
        let base = bench
            .compile()
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", bench.name));
        let runs = bench.profile_run_set(1);
        let (profile, _) = profile_runs(&base, &runs, &VmConfig::default())
            .unwrap_or_else(|e| panic!("{}: baseline profiling trapped: {e}", bench.name));
        let avg = profile.averaged();
        // Baseline and the layout-changing points: inlining reshuffles
        // code addresses, so this exercises distinct access streams.
        for point in lattice() {
            if !matches!(point.name, "baseline" | "inline-default" | "inline-opt") {
                continue;
            }
            let module = transformed(&base, &avg, &point);
            let tag = format!("{}/{}+icache", bench.name, point.name);
            assert_engine_parity(&tag, &module, &runs, true);
        }
    }
}

/// The fuzz generator's corpus under both engines, across the lattice.
/// Generated programs may trap (step limits, memory faults, ...) — trap
/// parity is part of the contract, so trapping baselines are *kept* and
/// checked rather than skipped; only the lattice transforms (which need
/// a baseline profile to drive inlining) are limited to clean programs.
#[test]
fn fuzz_corpus_matches_across_the_lattice() {
    let runs: Vec<(Vec<NamedFile>, Vec<String>)> = vec![(Vec::new(), Vec::new())];
    let mut compiled = 0u32;
    let mut clean = 0u32;
    let mut trapping = 0u32;
    for seed in 0..32u64 {
        let source = impact_fuzz::generate(seed);
        let Ok(module) = compile(&[Source {
            name: "fuzz.c".into(),
            text: source,
        }]) else {
            continue;
        };
        if verify_module(&module).is_err() {
            continue;
        }
        compiled += 1;
        match profile_runs(&module, &runs, &VmConfig::default()) {
            Ok((profile, _)) => {
                clean += 1;
                let avg = profile.averaged();
                for point in lattice() {
                    let transformed = transformed(&module, &avg, &point);
                    let tag = format!("fuzz seed {seed}/{}", point.name);
                    assert_engine_parity(&tag, &transformed, &runs, false);
                }
            }
            Err(_) => {
                trapping += 1;
                assert_engine_parity(&format!("fuzz seed {seed}/trap"), &module, &runs, false);
            }
        }
    }
    assert!(
        compiled >= 16,
        "corpus too thin to be meaningful: {compiled} of 32 seeds compiled \
         ({clean} clean, {trapping} trapping)"
    );
}
