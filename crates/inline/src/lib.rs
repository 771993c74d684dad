//! # impact-inline — profile-guided inline function expansion
//!
//! The primary contribution of Hwu & Chang, *Inline Function Expansion for
//! Compiling C Programs* (PLDI 1989), reproduced end to end:
//!
//! 1. **Classification** ([`classify`]) — every static call site becomes
//!    *external*, *pointer*, *unsafe*, or *safe* (Tables 2–3).
//! 2. **Linearization** ([`linearize`]) — functions are ordered by
//!    descending execution count; expansion may only pull earlier
//!    functions into later ones, which minimizes the number of physical
//!    expansions (§2.7, §3.3).
//! 3. **Selection** ([`plan`]) — safe arcs are considered heaviest-first
//!    under the cost function's two hazard bounds: a code-size budget
//!    (code explosion, §2.3.1) and a frame-size bound for recursive
//!    regions (control-stack explosion, §2.3.2).
//! 4. **Physical expansion** ([`expand_plan`]) — code duplication,
//!    variable renaming, parameter buffering, and symbol-table updates
//!    (§2.4, §3.5).
//! 5. **Unreachable-function elimination** ([`eliminate_unreachable`]) —
//!    conservative function-level dead code removal (§2.6).
//!
//! The one-call driver [`inline_module`] runs all five stages and returns
//! an [`InlineReport`] with everything the paper's tables need.
//! [`inline_guarded`] wraps it in the paper's §4 method — profile, inline,
//! re-profile the same inputs — with a differential guard that rolls back
//! any expansion that changes the program's behavior.
//!
//! ## Example
//!
//! ```
//! use impact_cfront::{compile, Source};
//! use impact_inline::{inline_module, InlineConfig};
//! use impact_vm::{run, VmConfig};
//!
//! let mut module = compile(&[Source::new(
//!     "t.c",
//!     "int sq(int x) { return x * x; }\n\
//!      int main() { int i; int s; s = 0;\n\
//!        for (i = 0; i < 100; i++) s += sq(i);\n\
//!        return s & 0xff; }",
//! )])
//! .unwrap();
//! let baseline = run(&module, vec![], vec![], &VmConfig::default()).unwrap();
//!
//! let report = inline_module(&mut module, &baseline.profile, &InlineConfig::default());
//! assert_eq!(report.expanded.len(), 1); // the hot sq() site
//!
//! let after = run(&module, vec![], vec![], &VmConfig::default()).unwrap();
//! assert_eq!(after.exit_code, baseline.exit_code); // semantics preserved
//! assert!(after.profile.calls < baseline.profile.calls); // calls eliminated
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classify;
mod eliminate;
mod expand;
mod linearize;
mod pipeline;
mod plan;
mod promote;
mod recover;

pub use classify::{
    classify, ClassTotals, Classification, ClassifiedSite, SiteClass, UnsafeReason,
};
pub use eliminate::eliminate_unreachable;
pub use expand::{
    expand_plan, expand_plan_with_cache, expand_site, DefCacheStats, ExpansionRecord,
};
pub use linearize::{linearize, positions_of, Linearization};
pub use pipeline::{
    behavior_of, call_decrease_percent, inline_guarded, Behavior, Guarded, Observation, RunSpec,
    Runner, Unverified,
};
pub use plan::{plan, InlinePlan, PlanDecision, PlannedExpansion, RejectReason};
pub use promote::{promote_indirect_calls, PromotedSite};
pub use recover::{
    expand_plan_transactional, promote_indirect_calls_transactional, Incident, IncidentStage,
};

use impact_callgraph::CallGraph;
use impact_il::Module;
use impact_vm::{FaultPlan, Profile};

/// Tuning parameters of the expander.
#[derive(Clone, Debug)]
pub struct InlineConfig {
    /// Arcs below this expected execution count are *unsafe* (the paper
    /// uses 10 — §4.2's "estimated execution count less than 10").
    pub weight_threshold: u64,
    /// Code-size budget as a multiple of the original program size
    /// (§2.3.1's "upper limit as a function of the original program
    /// size").
    pub code_growth_limit: f64,
    /// Frame-size bound (bytes) for expanding into recursive regions
    /// (§2.3.2's fixed limit on control stack usage).
    pub stack_bound: u64,
    /// Linear-order heuristic (the paper's is [`Linearization::NodeWeight`]).
    pub linearization: Linearization,
    /// Whether to run conservative unreachable-function elimination after
    /// expansion.
    pub eliminate_unreachable: bool,
    /// Extension (off by default, not in the paper): promote indirect
    /// call sites whose profiled targets are dominated by one function
    /// into guarded direct calls before classification, making the hot
    /// leg inlinable (see [`promote_indirect_calls`]).
    pub promote_indirect: bool,
    /// Capacity of the simulated function-definition cache (§3.3's
    /// write-back cache of "the most recent definitions of functions").
    pub body_cache_capacity: usize,
    /// Deterministic fault-injection plan (robustness testing). Armed
    /// points such as `expand:verify` or `promote:verify` force the
    /// corresponding transaction to fail and roll back; the default plan
    /// is empty and never fires.
    pub fault: FaultPlan,
    /// Pipeline telemetry sink for sub-phase spans and counters.
    /// Disabled by default: nothing is recorded and no clock is read.
    pub obs: impact_obs::Telemetry,
    /// Record the per-site decision audit trail
    /// ([`InlineReport::decisions`]). Off by default so the planner
    /// allocates nothing extra.
    pub audit: bool,
}

impl Default for InlineConfig {
    fn default() -> Self {
        InlineConfig {
            weight_threshold: 10,
            code_growth_limit: 2.0,
            stack_bound: 4096,
            linearization: Linearization::NodeWeight,
            eliminate_unreachable: true,
            promote_indirect: false,
            body_cache_capacity: 16,
            fault: FaultPlan::new(),
            obs: impact_obs::Telemetry::disabled(),
            audit: false,
        }
    }
}

/// One fully-resolved audit record: a call site, its classification,
/// the budget state when the planner ruled on it, and the outcome.
/// Names are resolved before unreachable elimination, so callers and
/// callees read correctly even when the callee was later removed.
#[derive(Clone, Debug)]
pub struct SiteDecision {
    /// The call site.
    pub site: impact_il::CallSiteId,
    /// Name of the calling function.
    pub caller: String,
    /// Name of the called function; `None` for pointer calls, the
    /// extern's name for external calls.
    pub callee: Option<String>,
    /// Classification of the site.
    pub class: SiteClass,
    /// Set when `class == Unsafe`.
    pub unsafe_reason: Option<UnsafeReason>,
    /// Profile weight (expected execution count) of the site.
    pub weight: u64,
    /// Whether the planner accepted the arc for expansion.
    pub accepted: bool,
    /// The planner's reject reason; `None` when accepted.
    pub reject: Option<RejectReason>,
    /// Projected module size (IL instructions) when the site was ruled
    /// on.
    pub size_at_decision: u64,
    /// Callee body size acceptance would add (0 for non-safe sites).
    pub growth: u64,
    /// The code-size budget in force.
    pub budget: u64,
    /// The frame-size bound for recursive regions in force.
    pub stack_bound: u64,
}

impl SiteDecision {
    /// Canonical accept/reject reason string, shared verbatim by the
    /// `--explain` table and the `--decisions-out` JSON so the two views
    /// agree record-for-record.
    pub fn reason(&self) -> &'static str {
        if self.accepted {
            return "expanded";
        }
        match self.reject {
            Some(RejectReason::NotSafe(SiteClass::External)) => "external: body unavailable",
            Some(RejectReason::NotSafe(SiteClass::Pointer)) => "pointer: indirect target",
            Some(RejectReason::NotSafe(SiteClass::Unsafe)) => match self.unsafe_reason {
                Some(UnsafeReason::LowWeight) => "unsafe: low-weight",
                Some(UnsafeReason::SelfRecursive) => "unsafe: self-recursive",
                Some(UnsafeReason::RecursiveStack) => "unsafe: recursive-stack",
                None => "unsafe",
            },
            Some(RejectReason::NotSafe(SiteClass::Safe)) | None => "not planned",
            Some(RejectReason::ViolatesLinearOrder) => "violates-linear-order",
            Some(RejectReason::OverBudget) => "over-budget",
        }
    }

    /// The class as the lower-case token used in reports.
    pub fn class_str(&self) -> &'static str {
        match self.class {
            SiteClass::External => "external",
            SiteClass::Pointer => "pointer",
            SiteClass::Unsafe => "unsafe",
            SiteClass::Safe => "safe",
        }
    }
}

/// Everything the driver and the table harness need to know about one
/// inlining run.
#[derive(Clone, Debug)]
pub struct InlineReport {
    /// Per-site classification (Tables 2–3).
    pub classification: Classification,
    /// The linear order used.
    pub order: Vec<impact_il::FuncId>,
    /// Arcs that were physically expanded.
    pub expanded: Vec<PlannedExpansion>,
    /// Sites rejected, with reasons.
    pub rejected: Vec<(impact_il::CallSiteId, RejectReason)>,
    /// Expansion records (original → cloned call-site maps).
    pub records: Vec<ExpansionRecord>,
    /// Static size before expansion (IL instructions).
    pub size_before: u64,
    /// The plan's exact size prediction
    /// ([`InlinePlan::predicted_final_size`]), computed before any
    /// physical expansion ran.
    pub predicted_size: u64,
    /// Measured size right after physical expansion, before unreachable
    /// elimination. Equals `predicted_size` whenever every planned arc
    /// expanded without rollback — the fuzzer's size-accounting invariant.
    pub size_expanded: u64,
    /// Static size after expansion (and elimination, if enabled).
    pub size_after: u64,
    /// Names of functions removed by unreachable elimination.
    pub removed_functions: Vec<String>,
    /// Indirect sites promoted to guarded direct calls (empty unless
    /// [`InlineConfig::promote_indirect`] is on).
    pub promoted: Vec<PromotedSite>,
    /// Simulated definition-cache statistics (§3.3).
    pub def_cache: DefCacheStats,
    /// Failures recovered from during this run (rolled-back expansions
    /// and promotions). Empty on a clean run.
    pub incidents: Vec<Incident>,
    /// The per-site decision audit trail, sorted by call-site id; empty
    /// unless [`InlineConfig::audit`] was set.
    pub decisions: Vec<SiteDecision>,
}

impl InlineReport {
    /// Static code increase as a percentage (the paper's `code inc`
    /// column of Table 4).
    pub fn code_increase_percent(&self) -> f64 {
        if self.size_before == 0 {
            return 0.0;
        }
        100.0 * (self.size_after as f64 - self.size_before as f64) / self.size_before as f64
    }
}

/// Runs the complete pipeline: build the weighted call graph, classify,
/// linearize, select, expand, and (optionally) eliminate unreachable
/// functions.
///
/// `profile` should be the **averaged** profile of representative runs
/// (see [`Profile::averaged`]); weights drive every decision.
pub fn inline_module(
    module: &mut Module,
    profile: &Profile,
    config: &InlineConfig,
) -> InlineReport {
    let size_before = module.total_size();
    let mut incidents = Vec::new();
    let mut profile_owned;
    let (profile, promoted) = if config.promote_indirect {
        let _s = config.obs.span("inline:promote");
        profile_owned = profile.clone();
        let (promoted, promote_incidents) = promote_indirect_calls_transactional(
            module,
            &mut profile_owned,
            config.weight_threshold,
            0.5,
            &config.fault,
        );
        incidents.extend(promote_incidents);
        (&profile_owned, promoted)
    } else {
        (profile, Vec::new())
    };
    let graph = CallGraph::build_with(module, profile, &config.obs);
    let classification = {
        let _s = config.obs.span("inline:classify");
        classify(module, &graph, config)
    };
    let order = {
        let _s = config.obs.span("inline:linearize");
        linearize(module, profile, config.linearization)
    };
    let plan = {
        let _s = config.obs.span("inline:plan");
        plan(module, &classification, &order, config)
    };
    let decisions = if config.audit {
        resolve_decisions(module, &classification, &plan, config)
    } else {
        Vec::new()
    };
    let predicted_size = plan.predicted_final_size(module);
    let (records, def_cache, expand_incidents) = {
        let _s = config.obs.span("inline:expand");
        expand_plan_transactional(module, &plan, config.body_cache_capacity, &config.fault)
    };
    incidents.extend(expand_incidents);
    let size_expanded = module.total_size();
    let removed_functions = if config.eliminate_unreachable {
        let _s = config.obs.span("inline:eliminate");
        eliminate_unreachable(module)
    } else {
        Vec::new()
    };
    let size_after = module.total_size();
    if config.obs.is_enabled() {
        let st = classification.static_totals();
        config.obs.count("inline:sites:external", st.external);
        config.obs.count("inline:sites:pointer", st.pointer);
        config.obs.count("inline:sites:unsafe", st.r#unsafe);
        config.obs.count("inline:sites:safe", st.safe);
        let dy = classification.dynamic_totals();
        config.obs.count("inline:dynamic:safe", dy.safe);
        config
            .obs
            .count("inline:expanded_arcs", plan.expansions.len() as u64);
        config
            .obs
            .count("inline:rejected_sites", plan.rejected.len() as u64);
        config
            .obs
            .count("inline:removed_functions", removed_functions.len() as u64);
        config.obs.count("inline:size_before", size_before);
        config.obs.count("inline:size_after", size_after);
    }
    InlineReport {
        classification,
        order: plan.order,
        expanded: plan.expansions,
        rejected: plan.rejected,
        records,
        size_before,
        predicted_size,
        size_expanded,
        size_after,
        removed_functions,
        promoted,
        def_cache,
        incidents,
        decisions,
    }
}

/// Joins the planner's raw [`PlanDecision`]s with the classification and
/// the module's symbol table into fully-named [`SiteDecision`]s, sorted
/// by call-site id. Runs before physical expansion, so names resolve
/// against the original function set.
fn resolve_decisions(
    module: &Module,
    classification: &Classification,
    plan: &InlinePlan,
    config: &InlineConfig,
) -> Vec<SiteDecision> {
    use std::collections::HashMap;
    let by_site: HashMap<_, _> = classification.sites.iter().map(|s| (s.site, s)).collect();
    let callee_names: HashMap<_, _> = module
        .all_call_sites()
        .into_iter()
        .map(|(_, site, callee)| {
            let name = match callee {
                impact_il::Callee::Func(f) => Some(module.function(f).name.clone()),
                impact_il::Callee::Ext(x) => module.externs.get(x.index()).map(|e| e.name.clone()),
                impact_il::Callee::Reg(_) => None,
            };
            (site, name)
        })
        .collect();
    let mut out: Vec<SiteDecision> = plan
        .decisions
        .iter()
        .filter_map(|d| {
            let s = by_site.get(&d.site)?;
            Some(SiteDecision {
                site: d.site,
                caller: module.function(s.caller).name.clone(),
                callee: callee_names.get(&d.site).cloned().flatten(),
                class: s.class,
                unsafe_reason: s.unsafe_reason,
                weight: s.weight,
                accepted: d.accepted,
                reject: d.reject,
                size_at_decision: d.size_at_decision,
                growth: d.growth,
                budget: d.budget,
                stack_bound: config.stack_bound,
            })
        })
        .collect();
    out.sort_by_key(|d| d.site);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use impact_cfront::{compile, Source};
    use impact_vm::{run, NamedFile, VmConfig};

    fn pipeline(src: &str) -> (Module, Module, InlineReport, i64, i64) {
        pipeline_with(src, &InlineConfig::default(), vec![])
    }

    fn pipeline_with(
        src: &str,
        config: &InlineConfig,
        inputs: Vec<NamedFile>,
    ) -> (Module, Module, InlineReport, i64, i64) {
        let original = compile(&[Source::new("t.c", src)]).expect("compiles");
        let base = run(&original, inputs.clone(), vec![], &VmConfig::default()).expect("runs");
        let mut inlined = original.clone();
        let report = inline_module(&mut inlined, &base.profile, config);
        impact_il::verify_module(&inlined).expect("inlined module verifies");
        let after = run(&inlined, inputs, vec![], &VmConfig::default()).expect("still runs");
        assert_eq!(
            base.stdout, after.stdout,
            "inlining changed observable output"
        );
        (original, inlined, report, base.exit_code, after.exit_code)
    }

    const HOT_LEAF: &str = "int sq(int x) { return x * x; }\n\
         int main() { int i; int s; s = 0; for (i = 0; i < 100; i++) s += sq(i); return s & 0xff; }";

    #[test]
    fn expands_hot_leaf_and_preserves_semantics() {
        let (_, inlined, report, before, after) = pipeline(HOT_LEAF);
        assert_eq!(before, after);
        assert_eq!(report.expanded.len(), 1);
        // The call is gone from main.
        let main = inlined.function(inlined.main_id().unwrap());
        assert_eq!(main.num_call_sites(), 0);
    }

    #[test]
    fn eliminates_dynamic_calls() {
        let original = compile(&[Source::new("t.c", HOT_LEAF)]).unwrap();
        let base = run(&original, vec![], vec![], &VmConfig::default()).unwrap();
        let mut inlined = original.clone();
        let _ = inline_module(&mut inlined, &base.profile, &InlineConfig::default());
        let after = run(&inlined, vec![], vec![], &VmConfig::default()).unwrap();
        assert_eq!(base.profile.calls, 100);
        assert_eq!(after.profile.calls, 0);
    }

    #[test]
    fn removes_unreachable_after_expansion() {
        // sq is called from one place only and nothing else references it:
        // after expansion it is unreachable and gets removed.
        let (_, inlined, report, _, _) = pipeline(HOT_LEAF);
        assert_eq!(report.removed_functions, vec!["sq".to_string()]);
        assert!(inlined.func_by_name("sq").is_none());
    }

    #[test]
    fn externals_block_function_removal() {
        let src = "extern int __fgetc(int fd);\n\
             int sq(int x) { return x * x; }\n\
             int main() { int i; int s; s = 0; __fgetc(0);\n\
               for (i = 0; i < 100; i++) s += sq(i); return s & 0xff; }";
        let (_, inlined, report, _, _) = pipeline(src);
        assert!(report.expanded.len() == 1);
        assert!(report.removed_functions.is_empty());
        assert!(inlined.func_by_name("sq").is_some());
    }

    #[test]
    fn cold_sites_are_unsafe_and_not_expanded() {
        let src = "int rare(int x) { return x + 1; }\n\
             int main() { return rare(1); }"; // weight 1 < threshold 10
        let (_, _, report, _, _) = pipeline(src);
        assert!(report.expanded.is_empty());
        let totals = report.classification.static_totals();
        assert_eq!(totals.r#unsafe, 1);
        assert_eq!(totals.safe, 0);
    }

    #[test]
    fn threshold_is_configurable() {
        let src = "int rare(int x) { return x + 1; }\n\
             int main() { return rare(1); }";
        let config = InlineConfig {
            weight_threshold: 1,
            ..InlineConfig::default()
        };
        let (_, _, report, _, _) = pipeline_with(src, &config, vec![]);
        assert_eq!(report.expanded.len(), 1);
    }

    #[test]
    fn pointer_calls_are_classified_and_kept() {
        let src = "int twice(int x) { return 2 * x; }\n\
             int main() { int (*f)(int); int i; int s; f = twice; s = 0;\n\
               for (i = 0; i < 50; i++) s += f(i); return s & 0xff; }";
        let (_, _, report, _, _) = pipeline(src);
        let totals = report.classification.static_totals();
        assert_eq!(totals.pointer, 1);
        assert!(report.expanded.is_empty());
    }

    #[test]
    fn external_sites_are_classified() {
        let src = "extern int __fgetc(int fd);\n\
             int main() { int i; int s; s = 0; for (i = 0; i < 20; i++) s += __fgetc(0); return s + 20; }";
        let (_, _, report, _, _) = pipeline(src);
        let totals = report.classification.static_totals();
        assert_eq!(totals.external, 1);
        let dynamic = report.classification.dynamic_totals();
        assert_eq!(dynamic.external, 20);
    }

    #[test]
    fn self_recursion_is_never_expanded() {
        let src = "int fact(int n) { return n < 2 ? 1 : n * fact(n - 1); }\n\
             int main() { int i; int s; s = 0; for (i = 0; i < 10; i++) s += fact(10); return s & 0xff; }";
        let (_, _, report, before, after) = pipeline(src);
        assert_eq!(before, after);
        // The self-arc must be rejected; the main→fact arc may expand (it
        // absorbs the first iteration; recursive calls go to the original
        // copy, §2.3).
        let self_site = report
            .classification
            .sites
            .iter()
            .find(|s| s.callee == s.caller.into())
            .map(|s| s.unsafe_reason);
        assert_eq!(self_site, Some(Some(UnsafeReason::SelfRecursive)));
    }

    #[test]
    fn recursion_with_big_frames_is_stack_guarded() {
        let src = "int helper(int n) { char big[100000]; big[0] = n; return big[0]; }\n\
             int recur(int n) { return n == 0 ? 0 : recur(n - 1) + helper(n); }\n\
             int main() { return recur(50); }";
        let (_, _, report, _, _) = pipeline(src);
        // The recur→helper arc would put a 100 KB frame into a recursion.
        let blocked = report
            .classification
            .sites
            .iter()
            .any(|s| s.unsafe_reason == Some(UnsafeReason::RecursiveStack));
        assert!(blocked);
    }

    #[test]
    fn mutual_recursion_absorbs_one_direction_only() {
        let src = "int odd(int n);\n\
             int even(int n) { return n == 0 ? 1 : odd(n - 1); }\n\
             int odd(int n) { return n == 0 ? 0 : even(n - 1); }\n\
             int main() { int i; int s; s = 0; for (i = 0; i < 30; i++) s += even(i); return s; }";
        let (_, _, report, before, after) = pipeline(src);
        assert_eq!(before, after);
        // The linear order permits at most one of even→odd / odd→even.
        assert!(report.expanded.len() <= 2);
    }

    #[test]
    fn budget_limits_expansion() {
        // Many distinct hot call sites of a large callee: a tight budget
        // must reject some.
        let src = "int f(int x) {\n\
               int a; a = x;\n\
               a += a * 3; a ^= a >> 2; a += a * 5; a ^= a >> 3;\n\
               a += a * 7; a ^= a >> 4; a += a * 11; a ^= a >> 5;\n\
               return a;\n\
             }\n\
             int main() {\n\
               int i; int s; s = 0;\n\
               for (i = 0; i < 20; i++) {\n\
                 s += f(i); s += f(i + 1); s += f(i + 2); s += f(i + 3);\n\
                 s += f(i + 4); s += f(i + 5); s += f(i + 6); s += f(i + 7);\n\
               }\n\
               return s & 0xff;\n\
             }";
        let tight = InlineConfig {
            code_growth_limit: 1.6,
            ..InlineConfig::default()
        };
        let (_, _, report, before, after) = pipeline_with(src, &tight, vec![]);
        assert_eq!(before, after);
        assert!(
            report
                .rejected
                .iter()
                .any(|(_, r)| *r == RejectReason::OverBudget),
            "tight budget should reject some arcs: {:?}",
            report.rejected
        );
        assert!(!report.expanded.is_empty(), "but not all of them");
        // The realized size respects the budget.
        let limit = (report.size_before as f64 * tight.code_growth_limit) as u64;
        // Elimination may shrink below; before elimination the projected
        // size was within budget. Realized size may differ slightly from
        // projection (movs/jumps), so allow 10% slack.
        assert!(
            report.size_after as f64 <= limit as f64 * 1.1,
            "size_after={} limit={}",
            report.size_after,
            limit
        );
    }

    #[test]
    fn transitive_inlining_through_linear_order() {
        // leaf is hotter than mid, mid hotter than main: order should be
        // leaf, mid, main, and mid's copy inside main already contains
        // leaf.
        let src = "int leaf(int x) { return x + 1; }\n\
             int mid(int x) { return leaf(x) + leaf(x + 1); }\n\
             int main() { int i; int s; s = 0; for (i = 0; i < 40; i++) s += mid(i); return s & 0xff; }";
        let (_, inlined, report, before, after) = pipeline(src);
        assert_eq!(before, after);
        // All three arcs expanded (leaf→mid twice, mid→main once).
        assert_eq!(report.expanded.len(), 3);
        // Everything folded into main; no calls remain anywhere reachable.
        let main = inlined.function(inlined.main_id().unwrap());
        assert_eq!(main.num_call_sites(), 0);
        // And both helpers were removed as unreachable.
        assert_eq!(inlined.functions.len(), 1);
    }

    #[test]
    fn code_increase_percent_is_reported() {
        let (_, _, report, _, _) = pipeline(HOT_LEAF);
        // sq was absorbed and removed; size change should be modest.
        let pct = report.code_increase_percent();
        assert!(pct > -60.0 && pct < 60.0, "pct={pct}");
        assert!(report.size_before > 0 && report.size_after > 0);
    }

    #[test]
    fn expansion_keeps_io_behaviour() {
        let src = "extern int __fgetc(int fd);\n\
             extern int __fputc(int c, int fd);\n\
             int upper(int c) { return c >= 'a' && c <= 'z' ? c - 32 : c; }\n\
             int main() { int c; while ((c = __fgetc(0)) != -1) __fputc(upper(c), 1); return 0; }";
        let (_, _, report, _, _) = pipeline_with(
            src,
            &InlineConfig::default(),
            vec![NamedFile::new("stdin", b"Hello, World! 123".to_vec())],
        );
        assert_eq!(report.expanded.len(), 1);
    }

    #[test]
    fn random_linearization_still_preserves_semantics() {
        for seed in 0..5 {
            let config = InlineConfig {
                linearization: Linearization::Random(seed),
                ..InlineConfig::default()
            };
            let (_, _, _, before, after) = pipeline_with(HOT_LEAF, &config, vec![]);
            assert_eq!(before, after, "seed {seed}");
        }
    }

    #[test]
    fn reverse_linearization_blocks_expansion_of_hot_leaves() {
        let config = InlineConfig {
            linearization: Linearization::ReverseNodeWeight,
            ..InlineConfig::default()
        };
        let (_, _, report, _, _) = pipeline_with(HOT_LEAF, &config, vec![]);
        // main (weight 1) now precedes sq (weight 100): sq→main violates
        // the order.
        assert!(report.expanded.is_empty());
        assert!(report
            .rejected
            .iter()
            .any(|(_, r)| *r == RejectReason::ViolatesLinearOrder));
    }

    #[test]
    fn cloned_call_sites_get_fresh_ids() {
        let src = "int leaf(int x) { return x + 3; }\n\
             int shell(int x) { return leaf(x) * 2; }\n\
             int main() { int i; int s; s = 0;\n\
               for (i = 0; i < 25; i++) s += shell(i) + leaf(i);\n\
               return s & 0xff; }";
        let (original, inlined, report, _, _) = pipeline(src);
        impact_il::verify_module(&inlined).unwrap();
        // Records map original sites to clones; cloned ids must be beyond
        // the original module's id range... and unique (the verifier
        // already enforces uniqueness).
        for rec in &report.records {
            for (orig, clone) in &rec.cloned_sites {
                assert!(clone.0 >= original.call_site_limit());
                assert_ne!(orig, clone);
            }
        }
    }

    #[test]
    fn struct_and_array_slots_survive_inlining() {
        let src = "struct acc { int lo; int hi; };\n\
             int sum_digits(int x) {\n\
               char buf[16]; int n; int s;\n\
               n = 0;\n\
               while (x > 0) { buf[n++] = x % 10; x /= 10; }\n\
               s = 0;\n\
               while (n > 0) s += buf[--n];\n\
               return s;\n\
             }\n\
             int main() { int i; int s; s = 0; for (i = 0; i < 50; i++) s += sum_digits(i * 37); return s & 0xff; }";
        let (_, inlined, report, before, after) = pipeline(src);
        assert_eq!(before, after);
        assert_eq!(report.expanded.len(), 1);
        // The absorbed slot is path-qualified.
        let main = inlined.function(inlined.main_id().unwrap());
        assert!(main.slots.iter().any(|s| s.name == "sum_digits.buf"));
    }

    #[test]
    fn size_prediction_matches_physical_growth() {
        for src in [HOT_LEAF, CHAIN_FOR_PREDICTION] {
            let (_, _, report, _, _) = pipeline(src);
            assert!(!report.expanded.is_empty());
            assert_eq!(
                report.predicted_size, report.size_expanded,
                "exact prediction must match the measured post-expansion size"
            );
            // Elimination can only shrink from there.
            assert!(report.size_after <= report.size_expanded);
        }
    }

    const CHAIN_FOR_PREDICTION: &str = "int leaf(int x) { return x + 1; }\n\
         int mid(int x) { return leaf(x) + leaf(x + 1); }\n\
         int main() { int i; int s; s = 0; for (i = 0; i < 40; i++) s += mid(i); return s & 0xff; }";

    #[test]
    fn rolled_back_expansion_breaks_the_size_prediction() {
        // A rollback leaves the plan partially executed: the prediction
        // (computed for the full plan) must now overshoot the measured
        // size — exactly the mismatch the fuzzer's oracle alarms on.
        let fault = impact_vm::FaultPlan::new();
        fault.arm_spec("expand:verify").unwrap();
        let config = InlineConfig {
            fault,
            eliminate_unreachable: false,
            ..InlineConfig::default()
        };
        let (_, _, report, before, after) = pipeline_with(HOT_LEAF, &config, vec![]);
        assert_eq!(before, after, "rollback preserves behavior");
        assert!(!report.incidents.is_empty());
        assert!(
            report.predicted_size > report.size_expanded,
            "predicted {} vs expanded {}",
            report.predicted_size,
            report.size_expanded
        );
    }

    const ALL_CLASSES: &str = "extern int __fgetc(int fd);\n\
         int hot(int x) { return x + 1; }\n\
         int rare(int x) { return x - 1; }\n\
         int main() { int (*p)(int); int i; int s; p = hot; s = __fgetc(0) + rare(1);\n\
           for (i = 0; i < 40; i++) s += hot(i) + p(i);\n\
           return s & 0xff; }";

    #[test]
    fn audit_trail_covers_every_site_with_all_classes() {
        let config = InlineConfig {
            audit: true,
            ..InlineConfig::default()
        };
        let (original, _, report, _, _) = pipeline_with(ALL_CLASSES, &config, vec![]);
        // One decision per static call site, sorted by site id.
        assert_eq!(report.decisions.len(), original.all_call_sites().len());
        assert!(report.decisions.windows(2).all(|w| w[0].site < w[1].site));
        // All four classes appear.
        for class in ["external", "pointer", "unsafe", "safe"] {
            assert!(
                report.decisions.iter().any(|d| d.class_str() == class),
                "missing class {class}"
            );
        }
        // Accepted decisions match the expansion list exactly.
        let accepted: Vec<_> = report
            .decisions
            .iter()
            .filter(|d| d.accepted)
            .map(|d| d.site)
            .collect();
        let mut expanded: Vec<_> = report.expanded.iter().map(|e| e.site).collect();
        expanded.sort();
        assert_eq!(accepted, expanded);
        // Reasons are the canonical strings; budget state is populated.
        for d in &report.decisions {
            assert!(!d.reason().is_empty());
            assert!(d.budget > 0);
            assert!(d.size_at_decision > 0);
            if d.accepted {
                assert_eq!(d.reason(), "expanded");
                assert!(d.growth > 0);
            }
        }
        let unsafe_d = report
            .decisions
            .iter()
            .find(|d| d.class == SiteClass::Unsafe)
            .unwrap();
        assert_eq!(unsafe_d.reason(), "unsafe: low-weight");
        assert_eq!(unsafe_d.callee.as_deref(), Some("rare"));
        let ext = report
            .decisions
            .iter()
            .find(|d| d.class == SiteClass::External)
            .unwrap();
        assert_eq!(ext.callee.as_deref(), Some("__fgetc"));
        let ptr = report
            .decisions
            .iter()
            .find(|d| d.class == SiteClass::Pointer)
            .unwrap();
        assert!(ptr.callee.is_none());
    }

    #[test]
    fn audit_off_records_no_decisions() {
        let (_, _, report, _, _) = pipeline(ALL_CLASSES);
        assert!(report.decisions.is_empty());
    }

    #[test]
    fn telemetry_records_sub_phase_spans_and_counters() {
        let obs = impact_obs::Telemetry::enabled();
        let config = InlineConfig {
            obs: obs.clone(),
            ..InlineConfig::default()
        };
        let (_, _, _, _, _) = pipeline_with(HOT_LEAF, &config, vec![]);
        let m = obs.snapshot();
        let names: Vec<_> = m.spans.iter().map(|s| s.name.as_str()).collect();
        for want in [
            "callgraph:build",
            "inline:classify",
            "inline:linearize",
            "inline:plan",
            "inline:expand",
            "inline:eliminate",
        ] {
            assert!(names.contains(&want), "missing span {want}: {names:?}");
        }
        assert_eq!(m.counters.get("inline:expanded_arcs"), Some(&1));
    }

    #[test]
    fn disabled_elimination_keeps_functions() {
        let config = InlineConfig {
            eliminate_unreachable: false,
            ..InlineConfig::default()
        };
        let (_, inlined, report, _, _) = pipeline_with(HOT_LEAF, &config, vec![]);
        assert!(report.removed_functions.is_empty());
        assert!(inlined.func_by_name("sq").is_some());
    }
}

#[cfg(test)]
mod def_cache_tests {
    use super::*;
    use impact_cfront::{compile, Source};
    use impact_vm::{run, VmConfig};

    /// A chain of hot helpers: with the paper's linear order, each
    /// definition is touched in a tight window, so even a tiny cache
    /// hits most of the time.
    const CHAIN: &str = "int l1(int x) { return x + 1; }\n\
         int l2(int x) { return l1(x) * 2; }\n\
         int l3(int x) { return l2(x) + l1(x); }\n\
         int l4(int x) { return l3(x) ^ l2(x); }\n\
         int main() { int i; int s; s = 0; for (i = 0; i < 50; i++) s += l4(i); return s & 0x7f; }";

    #[test]
    fn definition_cache_reports_locality() {
        let module = compile(&[Source::new("t.c", CHAIN)]).unwrap();
        let out = run(&module, vec![], vec![], &VmConfig::default()).unwrap();
        let mut m = module.clone();
        let report = inline_module(
            &mut m,
            &out.profile.averaged(),
            &InlineConfig {
                weight_threshold: 1,
                ..InlineConfig::default()
            },
        );
        let stats = report.def_cache;
        assert!(stats.hits + stats.misses > 0, "cache was exercised");
        // With capacity 16 > 5 functions, only cold misses occur.
        assert!(stats.misses <= 5, "misses {}", stats.misses);
        assert!(stats.hit_ratio() > 0.4, "hit ratio {}", stats.hit_ratio());
        // Dirty callers get written back exactly once each at the end.
        assert!(stats.writebacks >= 1);
    }

    #[test]
    fn tiny_cache_thrashes_more_than_big_cache() {
        let module = compile(&[Source::new("t.c", CHAIN)]).unwrap();
        let out = run(&module, vec![], vec![], &VmConfig::default()).unwrap();
        let misses_at = |cap: usize| {
            let mut m = module.clone();
            let report = inline_module(
                &mut m,
                &out.profile.averaged(),
                &InlineConfig {
                    weight_threshold: 1,
                    body_cache_capacity: cap,
                    ..InlineConfig::default()
                },
            );
            report.def_cache.misses
        };
        assert!(misses_at(1) > misses_at(16));
    }
}
