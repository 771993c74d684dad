//! The guarded profile → inline → re-profile pipeline: the paper's §4
//! method plus a differential guard. [`inline_guarded`] is the one path
//! of every caller that inlines a program it can run — `impactc inline`
//! (and `batch`/`serve`), `bench NAME`, and the evaluation harness behind
//! the `bench` suite, the tables and the ablations. Each module runs once
//! over the run set: the profiling run is the guard's ground truth and
//! the guard's check run is the after-profile. Every run is counted under
//! `pipeline:vm_executions` and obeys the caller's governor and telemetry.

use impact_il::{verify_module, Module};
use impact_obs::names;
use impact_vm::{FaultPlan, NamedFile, Profile, VmConfig};

use crate::{
    eliminate_unreachable, expand_site, inline_module, ExpansionRecord, Incident, IncidentStage,
    InlineConfig, InlineReport,
};

/// One profiling run: named input files plus program arguments.
pub type RunSpec = (Vec<NamedFile>, Vec<String>);

/// Observable behavior of a module over a run set: per-run stdout and
/// exit code.
pub type Behavior = Vec<(Vec<u8>, i64)>;

/// One execution of a module over a run set: its behavior and merged
/// profile, or the trap that stopped the first failing run.
pub type Observation = Result<(Behavior, Profile), String>;

/// What [`inline_guarded`] produced.
#[derive(Debug)]
pub struct Guarded {
    /// The final module, with every arc whose expansion changed behavior
    /// rolled back.
    pub module: Module,
    /// The merged profile the plan was made from (measured, supplied, or
    /// the threshold-only fallback).
    pub baseline: Profile,
    /// The trap that stopped the profiling runs, when one did.
    pub profile_trap: Option<String>,
    /// The original's behavior (the guard's ground truth), `None` when it
    /// traps.
    pub before: Option<Behavior>,
    /// The final module's run over the run set: the after-profile.
    pub after: Observation,
    /// The expander's report.
    pub report: InlineReport,
    /// Every recovered failure, in pipeline order.
    pub incidents: Vec<Incident>,
    /// Warning texts for the caller's report, in pipeline order.
    pub warnings: Vec<String>,
}

/// The one unrecovered failure: the inlined module fails verification.
#[derive(Debug)]
pub struct Unverified {
    /// What the verifier (or the `inline:verify` fault point) said.
    pub detail: String,
    /// The merged profile the plan was made from.
    pub baseline: Profile,
    /// The incidents recovered before the failure.
    pub incidents: Vec<Incident>,
}

/// Runs `module` over `runs` under `cfg`, counting each VM execution.
fn observe(module: &Module, runs: &[RunSpec], cfg: &VmConfig) -> Observation {
    let mut profile = Profile::for_module(module);
    let mut seen = Vec::with_capacity(runs.len());
    for (inputs, args) in runs {
        cfg.obs.count(names::PIPELINE_VM_EXECUTIONS, 1);
        let out =
            impact_vm::run(module, inputs.clone(), args.clone(), cfg).map_err(|e| e.to_string())?;
        profile.merge(&out.profile);
        seen.push((out.stdout, out.exit_code));
    }
    Ok((seen, profile))
}

/// Dynamic calls eliminated, as a percentage of `before`'s (Table 4's
/// `call dec`).
pub fn call_decrease_percent(before: &Profile, after: &Profile) -> f64 {
    if before.calls == 0 {
        return 0.0;
    }
    100.0 * before.calls.saturating_sub(after.calls) as f64 / before.calls as f64
}

/// The behavior part of an observation, `None` when it trapped.
pub fn behavior_of(o: &Observation) -> Option<&Behavior> {
    o.as_ref().ok().map(|(seen, _)| seen)
}

/// Runs modules over one compile's run set for the guard, the
/// after-profile and the caller's later checks (the driver's `--opt`):
/// under the caller's governor and telemetry, never faulted, and without
/// the instruction-cache simulation.
pub struct Runner<'a> {
    runs: &'a [RunSpec],
    cfg: VmConfig,
}

impl<'a> Runner<'a> {
    /// A runner over `runs` under `vm`'s engine, limits and telemetry.
    pub fn new(runs: &'a [RunSpec], vm: &VmConfig) -> Self {
        let cfg = VmConfig {
            fault: FaultPlan::new(),
            icache: None,
            ..vm.clone()
        };
        Runner { runs, cfg }
    }

    /// Runs `module` over the run set.
    pub fn observe(&self, module: &Module) -> Observation {
        observe(module, self.runs, &self.cfg)
    }

    fn behavior(&self, module: &Module) -> Option<Behavior> {
        self.observe(module).ok().map(|(seen, _)| seen)
    }
}

/// Replays a subset of expansion records on a pristine pre-expansion
/// module (plan sites always refer to original-module sites, so any
/// subset replays cleanly in order).
fn replay(module0: &Module, records: &[ExpansionRecord], included: &[bool]) -> Module {
    let mut m = module0.clone();
    for (r, inc) in records.iter().zip(included) {
        if *inc {
            expand_site(&mut m, r.caller, r.site, r.callee);
        }
    }
    m
}

/// The differential safety net: compares the inlined module's observable
/// behavior against the pre-inline module on the same runs. On
/// divergence, bisects the applied expansions to the smallest offending
/// set, rolls those arcs back (rebuilding the module from the pristine
/// copy), and records incidents — a miscompile is never shipped.
///
/// `target` is the pre-inline behavior. Returns the check run of the
/// module when the guard accepts it unchanged, so the caller can reuse
/// it; `None` when arcs were rolled back.
///
/// A report with promoted sites takes the conservative path: promotion
/// rewrites sites the records may reference, so the whole transformation
/// is rolled back instead of bisected.
#[allow(clippy::too_many_arguments)]
fn differential_guard(
    module: &mut Module,
    module0: &Module,
    target: &Behavior,
    report: &InlineReport,
    eliminate: bool,
    runner: &Runner,
    incidents: &mut Vec<Incident>,
    warnings: &mut Vec<String>,
) -> Option<Observation> {
    let check = runner.observe(module);
    if behavior_of(&check) == Some(target) {
        return Some(check);
    }
    warnings.push("post-inline behavior diverged from the pre-inline run; bisecting".to_string());
    let records = &report.records;
    if !report.promoted.is_empty() || records.is_empty() {
        *module = module0.clone();
        incidents.push(Incident {
            stage: IncidentStage::Divergence,
            subject: "whole transformation".to_string(),
            detail: "behavior diverged and the expansion set cannot be bisected; \
                     reverted to the pre-inline module"
                .to_string(),
            rolled_back: true,
        });
        return None;
    }
    let mut included = vec![true; records.len()];
    for _ in 0..records.len() {
        let candidate = replay(module0, records, &included);
        if runner.behavior(&candidate).as_ref() == Some(target) {
            break;
        }
        // Smallest prefix of still-included arcs that diverges; its last
        // arc is an offender.
        let active: Vec<usize> = (0..records.len()).filter(|&i| included[i]).collect();
        let fails = |k: usize| {
            let mut subset = vec![false; records.len()];
            for &i in &active[..k] {
                subset[i] = true;
            }
            runner.behavior(&replay(module0, records, &subset)).as_ref() != Some(target)
        };
        let (mut lo, mut hi) = (1, active.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if fails(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let offender = active[lo - 1];
        included[offender] = false;
        let r = &records[offender];
        incidents.push(Incident {
            stage: IncidentStage::Divergence,
            subject: format!(
                "`{}` -> `{}` (site {})",
                module0.function(r.callee).name,
                module0.function(r.caller).name,
                r.site.0
            ),
            detail: "expansion changed observable behavior; arc rolled back".to_string(),
            rolled_back: true,
        });
    }
    *module = replay(module0, records, &included);
    if eliminate {
        eliminate_unreachable(module);
    }
    debug_assert!(runner.behavior(module).as_ref() == Some(target));
    None
}

/// Profiles `module` over `runs` (or parses the `supplied` profile,
/// given as `(origin, text)`), inline-expands a copy under it, verifies
/// the copy, guards its behavior against `module`'s, and re-profiles it.
///
/// A profile that cannot be had — an unparsable supplied one (or the
/// `profile:parse` fault point), a trapping profiling run — degrades with
/// a warning and a `profile` incident to a plan in which every arc
/// carries exactly the threshold weight: threshold-only inlining. The
/// guard reuses the profiling run as ground truth only when no fault was
/// armed (`vm:oom` can perturb it).
///
/// # Errors
///
/// [`Unverified`] when the inlined module fails verification (or the
/// `inline:verify` fault point fires): the one failure with no safe
/// module to fall back to.
pub fn inline_guarded(
    module: &Module,
    runs: &[RunSpec],
    cfg: &InlineConfig,
    vm: &VmConfig,
    supplied: Option<(&str, &str)>,
) -> Result<Guarded, Box<Unverified>> {
    let mut incidents = Vec::new();
    let mut warnings = Vec::new();
    let mut degraded = |detail: String, subject: String| {
        warnings.push(format!(
            "{detail}; falling back to unprofiled (threshold-only) inlining"
        ));
        incidents.push(Incident {
            stage: IncidentStage::Profile,
            subject,
            detail,
            rolled_back: false,
        });
        Profile::assume_hot(module, cfg.weight_threshold)
    };
    let profile_span = vm.obs.span("profile:acquire");
    let (baseline, truth, profile_trap) = match supplied {
        Some((origin, text)) => {
            let parsed = if vm.fault.should_fail("profile:parse") {
                Err("fault injection corrupted the profile read".to_string())
            } else {
                Profile::from_text(text).map_err(|e| e.to_string())
            };
            let profile = parsed.unwrap_or_else(|e| {
                degraded(
                    format!("bad profile `{origin}`: {e}"),
                    format!("profile `{origin}`"),
                )
            });
            (profile, None, None)
        }
        None => match observe(module, runs, vm) {
            Ok((seen, p)) => (p, vm.fault.is_empty().then_some(seen), None),
            Err(e) => {
                let detail = format!("profiling run trapped: {e}");
                (degraded(detail, "profiling run".into()), None, Some(e))
            }
        },
    };
    drop(profile_span);
    let mut inlined = module.clone();
    let report = inline_module(&mut inlined, &baseline.averaged(), cfg);
    incidents.extend(report.incidents.iter().cloned());
    let verified = {
        let _verify_span = vm.obs.span("il:verify");
        if cfg.fault.should_fail("inline:verify") {
            Err("fault injection: post-inline verification rejected the module".to_string())
        } else {
            verify_module(&inlined).map_err(|es| {
                let lines: Vec<String> = es.iter().map(ToString::to_string).collect();
                lines.join("\n")
            })
        }
    };
    if let Err(detail) = verified {
        let detail = format!("post-inline verification failed: {detail}");
        return Err(Box::new(Unverified {
            detail,
            baseline,
            incidents,
        }));
    }
    let runner = Runner::new(runs, vm);
    // No ground truth when the original itself traps on these runs.
    let before = truth.or_else(|| runner.behavior(module));
    let seen = before.as_ref().and_then(|target| {
        differential_guard(
            &mut inlined,
            module,
            target,
            &report,
            cfg.eliminate_unreachable,
            &runner,
            &mut incidents,
            &mut warnings,
        )
    });
    let after = seen.unwrap_or_else(|| runner.observe(&inlined));
    Ok(Guarded {
        module: inlined,
        baseline,
        profile_trap,
        before,
        after,
        report,
        incidents,
        warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use impact_cfront::{compile, Source};
    use impact_il::module_to_string;
    use impact_obs::Telemetry;

    #[test]
    fn divergence_on_reused_ground_truth_still_bisects() {
        // Inlining `leaf` (2 KiB frame) into `rec` passes the per-frame
        // stack bound but multiplies the frame across 10 000 recursion
        // levels, overflowing the VM's 4 MiB stack. The guard must roll
        // back exactly that arc, the same way whether the profiling run's
        // behavior is its ground truth or — with a fault armed, which
        // could have perturbed that run — it runs the original itself.
        let module = compile(&[Source::new(
            "deep.c",
            "int leaf(int x) { char a[2048]; a[0] = x; a[x & 1023] = 1; return a[0] + a[x & 1023]; }\n\
             int rec(int n) { if (n <= 0) return 0; return leaf(n) + rec(n - 1); }\n\
             int main() { int i; int s; s = 0;\n\
               for (i = 0; i < 20000; i++) s += leaf(i);\n\
               s += rec(10000);\n\
               return s & 0xff; }",
        )])
        .unwrap();
        let runs: Vec<RunSpec> = vec![(vec![], vec![]); 2];
        let guard = |fault: &str| {
            let vm = VmConfig {
                obs: Telemetry::enabled(),
                ..VmConfig::default()
            };
            if !fault.is_empty() {
                vm.fault.arm_spec(fault).unwrap();
            }
            let g = inline_guarded(&module, &runs, &InlineConfig::default(), &vm, None).unwrap();
            assert!(g.before.is_some());
            assert_eq!(behavior_of(&g.after), g.before.as_ref());
            let incidents: Vec<String> = g.incidents.iter().map(|i| i.to_string()).collect();
            let executions = vm.obs.snapshot().counters[names::PIPELINE_VM_EXECUTIONS];
            (module_to_string(&g.module), incidents, executions)
        };
        let (reused, reused_incidents, reused_runs) = guard("");
        let (fresh, fresh_incidents, fresh_runs) = guard("vm:oom=1000000000");
        assert_eq!(reused_incidents.len(), 1, "{reused_incidents:?}");
        assert!(
            reused_incidents[0].contains("`leaf` -> `rec`"),
            "{reused_incidents:?}"
        );
        assert_eq!(reused_incidents, fresh_incidents);
        assert_eq!(reused, fresh);
        assert_eq!(fresh_runs - reused_runs, runs.len() as u64);
    }

    #[test]
    fn trapping_profile_is_reported_and_degrades() {
        let module = compile(&[Source::new(
            "trap.c",
            "int sq(int x) { return x * x; }\n\
             int main() { int z; z = 0; return sq(3) / z; }",
        )])
        .unwrap();
        let runs: Vec<RunSpec> = vec![(vec![], vec![])];
        let g = inline_guarded(
            &module,
            &runs,
            &InlineConfig::default(),
            &VmConfig::default(),
            None,
        )
        .unwrap();
        let trap = g.profile_trap.expect("the profiling run traps");
        assert_eq!(g.incidents[0].stage, IncidentStage::Profile);
        assert!(g.incidents[0].detail.ends_with(&trap), "{:?}", g.incidents);
        assert!(g.warnings[0].contains("falling back to unprofiled"));
        assert!(g.after.is_err(), "the inlined module traps too");
    }
}
