//! CLI plumbing for the pipeline telemetry core (`impact-obs`): flag
//! handling, the inline-decision audit renderers, the Chrome-trace and
//! metrics exporters, and the paper-style `BENCH_inline.json` suite
//! report.
//!
//! The `--explain` table and the `--decisions-out` JSON are two views
//! over the *same* [`SiteDecision`] list the expander recorded, so they
//! agree record for record by construction. Artifact writing goes
//! through the temp-file + fsync + rename path of
//! [`crate::report::atomic_write_path`], so a crash mid-write never
//! leaves a torn telemetry file. Telemetry flags are deliberately absent
//! from [`crate::journal::campaign_fingerprint`]: an instrumented resume
//! must replay an uninstrumented campaign byte-identically.

use std::fmt::Write as _;
use std::path::Path;

use impact_inline::{SiteDecision, UnsafeReason};
use impact_obs::Telemetry;

use crate::report::{atomic_write_path, json_str};
use crate::Options;

/// Schema version of the `--decisions-out` document.
pub const DECISIONS_SCHEMA_VERSION: u32 = 1;
/// Schema version of the `BENCH_inline.json` suite report.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// Builds the telemetry handle the flags ask for: enabled only when an
/// exporter will consume it. With no telemetry flag set the pipeline
/// carries a disabled handle that neither allocates nor reads the clock.
pub fn handle_for(opts: &Options) -> Telemetry {
    if opts.trace_out.is_some() || opts.metrics_out.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    }
}

/// Whether the flags ask for the inline-decision audit trail.
pub fn audit_requested(opts: &Options) -> bool {
    opts.explain || opts.decisions_out.is_some()
}

fn unsafe_reason_str(d: &SiteDecision) -> Option<&'static str> {
    d.unsafe_reason.as_ref().map(|r| match r {
        UnsafeReason::LowWeight => "low-weight",
        UnsafeReason::SelfRecursive => "self-recursive",
        UnsafeReason::RecursiveStack => "recursive-stack",
    })
}

fn call_column(d: &SiteDecision) -> String {
    format!("{} -> {}", d.caller, d.callee.as_deref().unwrap_or("?"))
}

/// Renders the human audit table for `--explain`: one row per call site,
/// in site order, derived from exactly the records [`decisions_json`]
/// serializes.
pub fn explain_table(decisions: &[SiteDecision]) -> String {
    let expanded = decisions.iter().filter(|d| d.accepted).count();
    let mut out = format!(
        "; inline decisions: {} sites, {expanded} expanded\n",
        decisions.len()
    );
    let call_w = decisions
        .iter()
        .map(|d| call_column(d).len())
        .max()
        .unwrap_or(4)
        .max(4);
    let _ = writeln!(
        out,
        ";  {:>4}  {:<8}  {:>8}  {:>8}  {:>6}  {:>8}  {:<call_w$}  decision",
        "site", "class", "weight", "size", "growth", "budget", "call"
    );
    for d in decisions {
        let _ = writeln!(
            out,
            ";  {:>4}  {:<8}  {:>8}  {:>8}  {:>6}  {:>8}  {:<call_w$}  {}",
            d.site.index(),
            d.class_str(),
            d.weight,
            d.size_at_decision,
            d.growth,
            d.budget,
            call_column(d),
            d.reason()
        );
    }
    out
}

/// Renders the schema-versioned `--decisions-out` document: one object
/// per call site, same records and same order as [`explain_table`].
pub fn decisions_json(decisions: &[SiteDecision]) -> String {
    let expanded = decisions.iter().filter(|d| d.accepted).count();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"version\": {DECISIONS_SCHEMA_VERSION},\n  \
         \"kind\": \"impact-inline-decisions\",\n  \
         \"sites\": {},\n  \"expanded\": {expanded},\n  \"decisions\": [",
        decisions.len()
    );
    for (i, d) in decisions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"site\": {}, \"caller\": {}, \"callee\": {}, \"class\": {}, \
             \"unsafe_reason\": {}, \"weight\": {}, \"accepted\": {}, \"reason\": {}, \
             \"size_at_decision\": {}, \"growth\": {}, \"budget\": {}, \"stack_bound\": {}}}",
            d.site.index(),
            json_str(&d.caller),
            d.callee.as_deref().map_or("null".to_string(), json_str),
            json_str(d.class_str()),
            unsafe_reason_str(d).map_or("null".to_string(), json_str),
            d.weight,
            d.accepted,
            json_str(d.reason()),
            d.size_at_decision,
            d.growth,
            d.budget,
            d.stack_bound
        );
    }
    if !decisions.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Writes whichever telemetry artifacts the flags ask for, atomically.
/// With no telemetry flag set this writes nothing and snapshots nothing.
///
/// # Errors
///
/// Returns a message on filesystem errors.
pub fn write_artifacts(
    opts: &Options,
    obs: &Telemetry,
    decisions: Option<&[SiteDecision]>,
) -> Result<(), String> {
    if let (Some(path), Some(d)) = (opts.decisions_out.as_deref(), decisions) {
        atomic_write_path(Path::new(path), decisions_json(d).as_bytes())?;
    }
    if opts.trace_out.is_none() && opts.metrics_out.is_none() {
        return Ok(());
    }
    let m = obs.snapshot();
    if let Some(path) = opts.trace_out.as_deref() {
        atomic_write_path(
            Path::new(path),
            impact_obs::chrome_trace_json(&m).as_bytes(),
        )?;
    }
    if let Some(path) = opts.metrics_out.as_deref() {
        atomic_write_path(Path::new(path), impact_obs::metrics_json(&m).as_bytes())?;
    }
    Ok(())
}

/// `impactc bench` with no benchmark name: rerun the paper's evaluation
/// over every bundled workload and publish the Table 1–4 metrics as
/// `BENCH_inline.json` (into `--report-dir`, or the working directory).
///
/// # Errors
///
/// Returns flag-validation and filesystem errors; per-workload failures
/// are supervised (reported in the text and the JSON, never fatal).
pub fn run_bench_suite(opts: &Options, obs: &Telemetry) -> Result<(i32, String), String> {
    let (inline, vm) = opts.pipeline_configs(obs)?;
    let mut cfg = impact_bench::HarnessConfig {
        inline,
        vm,
        // Two representative runs per workload keep the suite
        // interactive; the numbers stay within the paper's shape.
        max_runs: 2,
    };
    if opts.budget.is_none() {
        cfg.inline.code_growth_limit = impact_bench::PAPER_CODE_GROWTH_LIMIT;
    }
    let suite_span = obs.span("bench:suite");
    let (evals, failures) = impact_bench::evaluate_all_supervised(&cfg);
    drop(suite_span);
    obs.count("bench:workloads", evals.len() as u64);
    obs.count("bench:failures", failures.len() as u64);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "; bench suite: {} workloads evaluated, {} failed (budget {:.1}, threshold {})",
        evals.len(),
        failures.len(),
        cfg.inline.code_growth_limit,
        cfg.inline.weight_threshold
    );
    let name_w = evals.iter().map(|e| e.name.len()).max().unwrap_or(4).max(4);
    let _ = writeln!(
        out,
        "{:<name_w$}  {:>6}  {:>9}  {:>8}  {:>7}  {:>8}  static e/p/u/s",
        "name", "lines", "ILs/run", "expanded", "code%", "calldec%"
    );
    for e in &evals {
        let st = &e.static_totals;
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>6}  {:>9}  {:>8}  {:>7.1}  {:>8.1}  {}/{}/{}/{}",
            e.name,
            e.c_lines,
            e.avg_ils,
            e.report.expanded.len(),
            e.code_inc_percent,
            e.call_dec_percent,
            st.external,
            st.pointer,
            st.r#unsafe,
            st.safe
        );
    }
    for (name, err) in &failures {
        let _ = writeln!(out, "; warning: `{name}` failed: {err}");
    }
    let dir = std::path::PathBuf::from(opts.report_dir.as_deref().unwrap_or("."));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
    let path = dir.join("BENCH_inline.json");
    atomic_write_path(&path, bench_json(&cfg, &evals, &failures).as_bytes())?;
    let _ = writeln!(out, "; wrote {}", path.display());
    Ok((0, out))
}

/// Renders the suite report: per-workload static/dynamic class totals,
/// code growth, and call elimination — the machine-readable counterpart
/// of the paper's Tables 1–4.
fn bench_json(
    cfg: &impact_bench::HarnessConfig,
    evals: &[impact_bench::Evaluation],
    failures: &[(String, String)],
) -> String {
    let totals = |t: &impact_inline::ClassTotals| -> String {
        format!(
            "{{\"external\": {}, \"pointer\": {}, \"unsafe\": {}, \"safe\": {}}}",
            t.external, t.pointer, t.r#unsafe, t.safe
        )
    };
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"version\": {BENCH_SCHEMA_VERSION},\n  \"kind\": \"impact-bench-inline\",\n  \
         \"budget\": {}, \"threshold\": {},\n  \"benchmarks\": [",
        cfg.inline.code_growth_limit, cfg.inline.weight_threshold
    );
    for (i, e) in evals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"name\": {}, \"c_lines\": {}, \"runs\": {}, \"avg_ils\": {}, \
             \"avg_control\": {}, \"static_sites\": {}, \"dynamic_calls\": {}, \
             \"expanded_sites\": {}, \"code_inc_percent\": {:.2}, \
             \"call_dec_percent\": {:.2}, \"ils_per_call\": {}, \"cts_per_call\": {}}}",
            json_str(&e.name),
            e.c_lines,
            e.runs,
            e.avg_ils,
            e.avg_control,
            totals(&e.static_totals),
            totals(&e.dynamic_totals),
            e.report.expanded.len(),
            e.code_inc_percent,
            e.call_dec_percent,
            e.ils_per_call,
            e.cts_per_call
        );
    }
    if !evals.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"failures\": [");
    for (i, (name, err)) in failures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"name\": {}, \"error\": {}}}",
            json_str(name),
            json_str(err)
        );
    }
    if !failures.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn handle_is_disabled_without_telemetry_flags() {
        let o = Options::parse(&strs(&["inline", "x.c", "--explain"])).unwrap();
        assert!(!handle_for(&o).is_enabled());
        assert!(audit_requested(&o));
        let o = Options::parse(&strs(&["inline", "x.c", "--trace-out", "t.json"])).unwrap();
        assert!(handle_for(&o).is_enabled());
        assert!(!audit_requested(&o));
        let o = Options::parse(&strs(&["inline", "x.c"])).unwrap();
        assert!(!handle_for(&o).is_enabled());
        assert!(!audit_requested(&o));
    }

    #[test]
    fn empty_decision_list_renders_empty_documents() {
        let json = decisions_json(&[]);
        assert!(json.contains("\"decisions\": []"), "{json}");
        assert!(json.contains("\"sites\": 0"), "{json}");
        let table = explain_table(&[]);
        assert!(table.contains("0 sites, 0 expanded"), "{table}");
    }

    #[test]
    fn table_and_json_render_the_same_records() {
        let d = SiteDecision {
            site: impact_il::CallSiteId::from_index(3),
            caller: "main".to_string(),
            callee: None,
            class: impact_inline::SiteClass::Pointer,
            unsafe_reason: None,
            weight: 7,
            accepted: false,
            reject: Some(impact_inline::RejectReason::NotSafe(
                impact_inline::SiteClass::Pointer,
            )),
            size_at_decision: 20,
            growth: 0,
            budget: 40,
            stack_bound: 4096,
        };
        let table = explain_table(std::slice::from_ref(&d));
        let json = decisions_json(std::slice::from_ref(&d));
        for needle in ["pointer", "main -> ?", d.reason()] {
            assert!(table.contains(needle), "table missing {needle}: {table}");
        }
        assert!(json.contains("\"site\": 3"), "{json}");
        assert!(json.contains("\"callee\": null"), "{json}");
        assert!(
            json.contains(&format!("\"reason\": \"{}\"", d.reason())),
            "{json}"
        );
    }
}
