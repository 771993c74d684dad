//! The differential oracle: one generated program, a lattice of compiler
//! configurations, and a set of metamorphic invariants.
//!
//! Every program is executed on the VM under a no-inline **baseline** and
//! a lattice of inline/optimize configurations (default and tight size
//! budgets, a tight stack bound, an adversarial linear order, opt passes
//! on and off). Observable behavior — stdout bytes and exit code — must
//! be identical everywhere. On top of behavioral equivalence, four
//! metamorphic invariants are checked:
//!
//! * **I1 flow conservation** — every function's recorded entry count
//!   equals the sum of its incoming recorded arc weights (plus the OS
//!   entry of `main`), on the baseline profile *and* on every re-profile
//!   of an inlined module ([`Profile::flow_residuals`]).
//! * **I2 size accounting** — after a rollback-free expansion, the
//!   measured module size equals the plan's exact prediction
//!   (`InlineReport::predicted_size` vs `InlineReport::size_expanded`).
//! * **I3 linear order** — every physically expanded arc points from an
//!   earlier (callee) to a strictly later (caller) position in the
//!   linearization (§3.3's constraint).
//! * **I4 instruction attribution** — re-profiling after inlining
//!   conserves total dynamic IL attribution modulo call/return overhead:
//!   each eliminated dynamic call may add at most `max_params + 1`
//!   instructions (parameter-buffering movs plus a return-value mov) and
//!   can never *remove* work when the optimizer is off.
//!
//! Orthogonal to the lattice, every execution is also replayed on the
//! VM's second engine (the tree-walking interpreter; the lattice runs on
//! the default register-bytecode engine) and any disagreement — behavior,
//! trap, or profile record — is an `engine` divergence.
//!
//! Any injected fault that makes the recovery layer roll an arc back
//! surfaces here as an `incident` divergence (and usually a size-
//! accounting mismatch too) — the fuzzer's designed-in positive control.

use std::fmt;

use impact_cfront::{compile, Source};
use impact_il::verify_module;
use impact_inline::{inline_module, positions_of, ClassTotals, InlineConfig, Linearization};
use impact_opt::optimize_module_observed;
use impact_vm::{profile_runs, Engine, FaultPlan, Profile, RunOutcome, VmConfig, VmError};

/// Oracle-wide knobs.
#[derive(Clone, Debug)]
pub struct OracleConfig {
    /// Arc-weight threshold threaded into every inline configuration of
    /// the lattice (except the deliberately aggressive point).
    pub weight_threshold: u64,
    /// `--fault` specs armed freshly for every configuration of every
    /// program (one-shot counters never leak across runs).
    pub fault_specs: Vec<String>,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            weight_threshold: 10,
            fault_specs: Vec::new(),
        }
    }
}

/// What kind of oracle check failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DivergenceKind {
    /// The generated program did not compile (a generator/front-end bug).
    Compile,
    /// A module failed IL verification.
    Verify,
    /// Observable behavior (stdout, exit code) differed from baseline.
    Behavior,
    /// The recovery layer rolled a transformation back.
    Incident,
    /// I2: measured post-expansion size != the plan's exact prediction.
    SizeAccounting,
    /// I3: an expanded arc violates the linear order.
    LinearOrder,
    /// I1: a profile failed flow conservation.
    FlowConservation,
    /// I4: dynamic IL attribution outside the call-overhead envelope.
    Attribution,
    /// The two execution engines disagreed — on behavior, a trap, or a
    /// profile record — for the same module at the same lattice point.
    Engine,
}

impl fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DivergenceKind::Compile => "compile",
            DivergenceKind::Verify => "verify",
            DivergenceKind::Behavior => "behavior",
            DivergenceKind::Incident => "incident",
            DivergenceKind::SizeAccounting => "size-accounting",
            DivergenceKind::LinearOrder => "linear-order",
            DivergenceKind::FlowConservation => "flow-conservation",
            DivergenceKind::Attribution => "attribution",
            DivergenceKind::Engine => "engine",
        };
        f.write_str(s)
    }
}

/// One oracle failure, attributed to the configuration that produced it.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The failed check.
    pub kind: DivergenceKind,
    /// The lattice point (`baseline`, `inline-default`, ...).
    pub config: String,
    /// Human-readable evidence.
    pub detail: String,
}

impl Divergence {
    /// A stable signature for minimization: the failure is considered
    /// reproduced when a candidate program diverges with the same kind
    /// under the same configuration.
    pub fn signature(&self) -> String {
        format!("{}@{}", self.kind, self.config)
    }
}

/// The oracle's verdict on one program.
#[derive(Clone, Debug, Default)]
pub struct OracleReport {
    /// The baseline itself trapped: no ground truth, program skipped
    /// (not counted as a divergence).
    pub skipped: bool,
    /// Every failed check across the lattice. Empty == equivalence held.
    pub divergences: Vec<Divergence>,
    /// Static call-site classification of the program (Table 2 row).
    pub static_classes: ClassTotals,
    /// Dynamic (weighted) classification (Table 3 row).
    pub dynamic_classes: ClassTotals,
}

/// One point of the configuration lattice.
struct LatticePoint {
    name: &'static str,
    /// `None` = no inlining at this point.
    inline: Option<InlineConfig>,
    /// Run the classical optimization passes after (possible) inlining.
    opt: bool,
}

/// The names of every configuration the oracle runs, baseline included
/// (for reports and usage text).
pub fn config_names() -> Vec<&'static str> {
    let mut names = vec!["baseline"];
    names.extend(lattice(10, &[]).iter().map(|p| p.name));
    names
}

fn lattice(threshold: u64, fault_specs: &[String]) -> Vec<LatticePoint> {
    let armed = |mut cfg: InlineConfig| {
        let fault = FaultPlan::new();
        for spec in fault_specs {
            // Specs are validated by the driver before the campaign runs.
            let _ = fault.arm_spec(spec);
        }
        cfg.fault = fault;
        cfg.weight_threshold = threshold;
        cfg
    };
    vec![
        LatticePoint {
            name: "inline-default",
            inline: Some(armed(InlineConfig::default())),
            opt: false,
        },
        LatticePoint {
            name: "inline-tight-budget",
            inline: Some(armed(InlineConfig {
                code_growth_limit: 1.05,
                ..InlineConfig::default()
            })),
            opt: false,
        },
        LatticePoint {
            name: "inline-tight-stack",
            inline: Some(armed(InlineConfig {
                stack_bound: 64,
                ..InlineConfig::default()
            })),
            opt: false,
        },
        LatticePoint {
            name: "inline-aggressive",
            inline: Some({
                let mut cfg = armed(InlineConfig {
                    code_growth_limit: 4.0,
                    ..InlineConfig::default()
                });
                cfg.weight_threshold = 1;
                cfg
            }),
            opt: false,
        },
        LatticePoint {
            name: "inline-reverse",
            inline: Some(armed(InlineConfig {
                linearization: Linearization::ReverseNodeWeight,
                ..InlineConfig::default()
            })),
            opt: false,
        },
        LatticePoint {
            name: "inline-opt",
            inline: Some(armed(InlineConfig::default())),
            opt: true,
        },
        LatticePoint {
            name: "opt-only",
            inline: None,
            opt: true,
        },
    ]
}

/// Runs one program through the whole lattice and every invariant.
pub fn check_source(src: &str, oc: &OracleConfig) -> OracleReport {
    let mut report = OracleReport::default();
    let div = |report: &mut OracleReport, kind, config: &str, detail: String| {
        report.divergences.push(Divergence {
            kind,
            config: config.to_string(),
            detail,
        });
    };

    let module = match compile(&[Source::new("fuzz.c", src)]) {
        Ok(m) => m,
        Err(e) => {
            div(
                &mut report,
                DivergenceKind::Compile,
                "compile",
                format!("generated program failed to compile: {}", e.message),
            );
            return report;
        }
    };
    if let Err(errors) = verify_module(&module) {
        div(
            &mut report,
            DivergenceKind::Verify,
            "compile",
            format!("post-compile verification failed: {:?}", errors),
        );
        return report;
    }

    let runs = vec![(vec![], vec![])];
    let base = profile_runs(&module, &runs, &VmConfig::default());
    // The engine axis: whatever the default (bytecode) engine produced —
    // results or a trap — the tree-walking interpreter must reproduce it
    // exactly. Checked even on trapping baselines the oracle skips: trap
    // parity needs no ground truth.
    if let Some(detail) = engine_divergence(&base, &profile_runs(&module, &runs, &interp_config()))
    {
        div(&mut report, DivergenceKind::Engine, "baseline", detail);
    }
    let (base_profile, base_outs) = match base {
        Ok(x) => x,
        Err(_) => {
            // The original program traps: no ground truth to diff against.
            report.skipped = true;
            return report;
        }
    };
    let base_behavior: Vec<(Vec<u8>, i64)> = base_outs
        .into_iter()
        .map(|o| (o.stdout, o.exit_code))
        .collect();

    // I1 on the baseline profile.
    for r in base_profile.flow_residuals(&module) {
        div(
            &mut report,
            DivergenceKind::FlowConservation,
            "baseline",
            format!(
                "`{}`: {} entries recorded but arcs predict {}",
                module.function(r.func).name,
                r.entries,
                r.expected
            ),
        );
    }

    let avg = base_profile.averaged();
    let max_params = module
        .functions
        .iter()
        .map(|f| u64::from(f.num_params))
        .max()
        .unwrap_or(0);

    for point in lattice(oc.weight_threshold, &oc.fault_specs) {
        let mut m = module.clone();
        let mut inline_ran = false;
        if let Some(cfg) = &point.inline {
            let ir = inline_module(&mut m, &avg, cfg);
            inline_ran = true;
            if point.name == "inline-default" {
                report.static_classes = ir.classification.static_totals();
                report.dynamic_classes = ir.classification.dynamic_totals();
            }
            // Rollbacks are never expected on a clean compiler: each one
            // is a finding (and the designed-in signal of `--fault`).
            for incident in &ir.incidents {
                div(
                    &mut report,
                    DivergenceKind::Incident,
                    point.name,
                    incident.to_string(),
                );
            }
            // I2: exact size accounting, valid only for complete plans.
            if ir.incidents.is_empty() && ir.predicted_size != ir.size_expanded {
                div(
                    &mut report,
                    DivergenceKind::SizeAccounting,
                    point.name,
                    format!(
                        "plan predicted {} IL instructions, expansion measured {}",
                        ir.predicted_size, ir.size_expanded
                    ),
                );
            }
            // I3: expanded arcs respect the linear order.
            let pos = positions_of(&ir.order, module.functions.len());
            for r in &ir.records {
                if pos[r.callee.index()] >= pos[r.caller.index()] {
                    div(
                        &mut report,
                        DivergenceKind::LinearOrder,
                        point.name,
                        format!(
                            "expanded arc `{}` -> `{}` violates the linear order",
                            module.function(r.callee).name,
                            module.function(r.caller).name
                        ),
                    );
                }
            }
        }
        if point.opt {
            let fault = FaultPlan::new();
            for spec in &oc.fault_specs {
                let _ = fault.arm_spec(spec);
            }
            // `Default` is the disabled telemetry handle.
            let _ = optimize_module_observed(&mut m, &fault, &Default::default());
        }
        if let Err(errors) = verify_module(&m) {
            div(
                &mut report,
                DivergenceKind::Verify,
                point.name,
                format!("transformed module failed verification: {:?}", errors),
            );
            continue;
        }
        let after = profile_runs(&m, &runs, &VmConfig::default());
        if let Some(detail) = engine_divergence(&after, &profile_runs(&m, &runs, &interp_config()))
        {
            div(&mut report, DivergenceKind::Engine, point.name, detail);
        }
        match after {
            Err(e) => div(
                &mut report,
                DivergenceKind::Behavior,
                point.name,
                format!("transformed module trapped where the baseline ran: {e}"),
            ),
            Ok((after_profile, after_outs)) => {
                let after_behavior: Vec<(Vec<u8>, i64)> = after_outs
                    .into_iter()
                    .map(|o| (o.stdout, o.exit_code))
                    .collect();
                if after_behavior != base_behavior {
                    div(
                        &mut report,
                        DivergenceKind::Behavior,
                        point.name,
                        format!(
                            "observable behavior diverged: baseline {:?}, transformed {:?}",
                            summarize(&base_behavior),
                            summarize(&after_behavior)
                        ),
                    );
                }
                if inline_ran && !point.opt {
                    // I1 on the re-profile of the inlined module.
                    for r in after_profile.flow_residuals(&m) {
                        div(
                            &mut report,
                            DivergenceKind::FlowConservation,
                            point.name,
                            format!(
                                "post-inline `{}`: {} entries recorded but arcs predict {}",
                                m.function(r.func).name,
                                r.entries,
                                r.expected
                            ),
                        );
                    }
                    // I4: attribution conservation modulo call overhead.
                    if after_profile.calls > base_profile.calls {
                        div(
                            &mut report,
                            DivergenceKind::Attribution,
                            point.name,
                            format!(
                                "dynamic calls grew: {} -> {}",
                                base_profile.calls, after_profile.calls
                            ),
                        );
                    } else {
                        let eliminated = base_profile.calls - after_profile.calls;
                        let ceiling = base_profile.il_executed + eliminated * (max_params + 1);
                        if after_profile.il_executed < base_profile.il_executed
                            || after_profile.il_executed > ceiling
                        {
                            div(
                                &mut report,
                                DivergenceKind::Attribution,
                                point.name,
                                format!(
                                    "dynamic ILs {} outside [{}, {}] \
                                     ({} calls eliminated, max {} extra each)",
                                    after_profile.il_executed,
                                    base_profile.il_executed,
                                    ceiling,
                                    eliminated,
                                    max_params + 1
                                ),
                            );
                        }
                    }
                }
            }
        }
    }
    report
}

/// The non-default engine's configuration (the lattice itself runs on
/// [`VmConfig::default`], i.e. the bytecode engine).
fn interp_config() -> VmConfig {
    VmConfig {
        engine: Engine::Interp,
        ..VmConfig::default()
    }
}

/// Diff two engines' results for the same module and run set. `None`
/// means exact agreement: identical merged and per-run profiles,
/// identical observable behavior, or the very same trap.
fn engine_divergence(
    bytecode: &Result<(Profile, Vec<RunOutcome>), VmError>,
    interp: &Result<(Profile, Vec<RunOutcome>), VmError>,
) -> Option<String> {
    match (bytecode, interp) {
        (Ok((bp, bo)), Ok((ip, io))) => {
            for (idx, (b, i)) in bo.iter().zip(io).enumerate() {
                if (b.exit_code, &b.stdout, &b.stderr, &b.files)
                    != (i.exit_code, &i.stdout, &i.stderr, &i.files)
                {
                    return Some(format!(
                        "run {idx}: observable behavior differs between engines: \
                         bytecode ({}, {:?}), interp ({}, {:?})",
                        b.exit_code,
                        String::from_utf8_lossy(&b.stdout),
                        i.exit_code,
                        String::from_utf8_lossy(&i.stdout),
                    ));
                }
                if b.profile != i.profile {
                    return Some(format!(
                        "run {idx}: per-run profiles differ between engines"
                    ));
                }
            }
            (bp != ip).then(|| "merged profiles differ between engines".to_string())
        }
        (Err(b), Err(i)) => {
            (b != i).then(|| format!("engines trapped differently: bytecode `{b}`, interp `{i}`"))
        }
        (Ok(_), Err(e)) => Some(format!("interp trapped where bytecode completed: {e}")),
        (Err(e), Ok(_)) => Some(format!("bytecode trapped where interp completed: {e}")),
    }
}

fn summarize(behavior: &[(Vec<u8>, i64)]) -> Vec<(String, i64)> {
    behavior
        .iter()
        .map(|(out, code)| (String::from_utf8_lossy(out).into_owned(), *code))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;

    #[test]
    fn clean_programs_pass_the_whole_lattice() {
        for seed in 0..8u64 {
            let src = generate(seed);
            let report = check_source(&src, &OracleConfig::default());
            assert!(!report.skipped, "seed {seed} skipped");
            assert!(
                report.divergences.is_empty(),
                "seed {seed} diverged: {:?}\n{src}",
                report.divergences
            );
            assert!(report.static_classes.total() > 0);
        }
    }

    #[test]
    fn injected_expand_fault_surfaces_as_divergence() {
        let oc = OracleConfig {
            fault_specs: vec!["expand:verify".to_string()],
            ..OracleConfig::default()
        };
        let src = generate(3);
        let report = check_source(&src, &oc);
        // Every inline config trips the one-shot fault independently; the
        // rollback is reported as an incident (I2 is deliberately not
        // double-reported when an incident already explains the size gap).
        let incident_configs: Vec<&str> = report
            .divergences
            .iter()
            .filter(|d| d.kind == DivergenceKind::Incident)
            .map(|d| d.config.as_str())
            .collect();
        assert!(
            incident_configs.contains(&"inline-default"),
            "expected an incident divergence on every inline config: {:?}",
            report.divergences
        );
        assert!(
            incident_configs.len() >= 5,
            "fresh fault plans must fire per config: {incident_configs:?}"
        );
        assert!(
            !report
                .divergences
                .iter()
                .any(|d| d.kind == DivergenceKind::Behavior),
            "rollback must preserve behavior: {:?}",
            report.divergences
        );
    }

    #[test]
    fn behavior_divergence_is_detected_on_a_tampered_module() {
        // Sanity-check the diffing itself: a program whose baseline and
        // "transformed" behavior differ must not silently pass. We fake it
        // by checking an uncompilable program reports a compile divergence.
        let report = check_source("int main( { return 0; }", &OracleConfig::default());
        assert_eq!(report.divergences.len(), 1);
        assert_eq!(report.divergences[0].kind, DivergenceKind::Compile);
    }

    #[test]
    fn engine_divergence_diffs_results_and_traps() {
        let ok = |il: u64| {
            Ok((
                Profile {
                    il_executed: il,
                    ..Profile::default()
                },
                Vec::new(),
            ))
        };
        assert_eq!(engine_divergence(&ok(10), &ok(10)), None);
        let d = engine_divergence(&ok(10), &ok(11)).expect("profile gap is a divergence");
        assert!(d.contains("merged profiles differ"), "{d}");
        assert_eq!(
            engine_divergence(&Err(VmError::NoMain), &Err(VmError::NoMain)),
            None,
            "identical traps are parity"
        );
        let d = engine_divergence(&ok(10), &Err(VmError::NoMain)).expect("trap asymmetry");
        assert!(d.contains("interp trapped"), "{d}");
        let d = engine_divergence(&Err(VmError::NoMain), &ok(10)).expect("trap asymmetry");
        assert!(d.contains("bytecode trapped"), "{d}");
    }

    #[test]
    fn config_names_cover_the_lattice() {
        let names = config_names();
        assert!(names.contains(&"baseline"));
        assert!(names.contains(&"inline-default"));
        assert!(names.contains(&"opt-only"));
        assert_eq!(names.len(), 8);
    }
}
