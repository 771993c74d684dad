//! The metric catalogue: every end-to-end and per-layer metric with its
//! unit and better direction. `BENCHMARK.json` at the repository root
//! must list the same names, units, directions and bounds (a test below
//! checks it).

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
pub struct Metric {
    /// Name as printed in the result line.
    pub name: &'static str,
    /// Unit as printed in the result line.
    pub unit: &'static str,
    /// Better direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (`0.0` for
    /// per-layer metrics, which have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("units_per_s", "units/s", Higher, 0.25),
    e2e("latency_ms_p50", "ms", Lower, 0.25),
    e2e("latency_ms_p90", "ms", Lower, 0.25),
    e2e("success_rate", "ratio", Higher, 0.01),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
    e2e("calls_eliminated_pct", "%", Higher, 0.05),
    e2e("code_growth_pct", "%", Lower, 0.2),
    e2e("il_per_run_after", "IL/run", Lower, 0.1),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[Metric] = &[
    layer("cfront.lex_us", "us", Lower),
    layer("cfront.parse_us", "us", Lower),
    layer("cfront.lower_us", "us", Lower),
    layer("cfront.tokens_per_s", "tokens/s", Higher),
    layer("il.verify_us", "us", Lower),
    layer("il.size_before", "IL", Lower),
    layer("il.size_after", "IL", Lower),
    layer("vm.runs", "count", Lower),
    layer("vm.run_us", "us", Lower),
    layer("vm.il_executed", "IL", Lower),
    layer("vm.il_per_s", "IL/s", Higher),
    layer("vm.share_pct", "%", Lower),
    layer("callgraph.build_us", "us", Lower),
    layer("callgraph.arcs", "count", Lower),
    layer("inline.classify_us", "us", Lower),
    layer("inline.inline_module_us", "us", Lower),
    layer("inline.expanded_arcs", "count", Higher),
    layer("inline.accept_ratio", "ratio", Higher),
    layer("opt.optimize_us", "us", Lower),
    layer("opt.changes", "count", Higher),
    layer("opt.fixpoint_incidents", "count", Lower),
    layer("compiler.share_pct", "%", Lower),
    layer("driver.pipeline_us", "us", Lower),
    layer("driver.self_us", "us", Lower),
    layer("driver.pipeline_us.cccp", "us", Lower),
    layer("driver.pipeline_us.cmp", "us", Lower),
    layer("driver.pipeline_us.compress", "us", Lower),
    layer("driver.pipeline_us.eqn", "us", Lower),
    layer("driver.pipeline_us.espresso", "us", Lower),
    layer("driver.pipeline_us.grep", "us", Lower),
    layer("driver.pipeline_us.lex", "us", Lower),
    layer("driver.pipeline_us.make", "us", Lower),
    layer("driver.pipeline_us.tar", "us", Lower),
    layer("driver.pipeline_us.tee", "us", Lower),
    layer("driver.pipeline_us.wc", "us", Lower),
    layer("driver.pipeline_us.yacc", "us", Lower),
    layer("serve.queue_wait_us", "us", Lower),
    layer("serve.daemon_us", "us", Lower),
    layer("serve.accept_wire_us", "us", Lower),
    layer("serve.busy", "count", Lower),
    layer("serve.daemon_rss_mb", "MB", Lower),
    layer("cache.hit_ratio", "ratio", Higher),
    layer("cache.probe_us", "us", Lower),
    layer("cache.hit_ms_p50", "ms", Lower),
    layer("cache.miss_ms_p50", "ms", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

/// Measured values by metric name; names absent from a run print as 0
/// (the layer did no work on that workload).
pub type Values = BTreeMap<&'static str, f64>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        let Some(Value::Arr(xs)) = doc.get(key) else {
            panic!("BENCHMARK.json lacks `{key}`");
        };
        xs.iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Value::str)
                        .unwrap_or_default()
                        .to_string()
                };
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Value::num),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let want = |ms: &[Metric], bounded: bool| -> Vec<(String, String, String, Option<f64>)> {
            ms.iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.as_str().to_string(),
                        bounded.then_some(m.bound),
                    )
                })
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), want(END_TO_END, true));
        assert_eq!(listed(&doc, "per_layer"), want(PER_LAYER, false));
    }

    #[test]
    fn names_are_unique_and_within_the_format() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        for (i, n) in all.iter().enumerate() {
            assert!(!all[..i].contains(n), "duplicate metric `{n}`");
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        for b in impact_workloads::all_benchmarks() {
            let name = format!("driver.pipeline_us.{}", b.name);
            assert!(PER_LAYER.iter().any(|m| m.name == name), "missing {name}");
        }
    }
}
