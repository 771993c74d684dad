//! The in-process workloads, `suite` and `units`: compile one unit at a
//! time through `impact_driver::inline_pipeline`, then check every
//! report against an independent reference.

use std::time::Instant;

use impact_callgraph::CallGraph;
use impact_cfront::{lex, lower, parse_into, ParseContext, Source};
use impact_driver::Options;
use impact_il::{verify_module, Module};
use impact_inline::{classify, inline_module};
use impact_vm::{profile_runs, Engine, NamedFile, VmConfig};

use crate::metrics::Values;
use crate::report::{self, Summary};
use crate::stats::{self, splitmix, Fnv};
use crate::thread_cpu_s;
use crate::trace::Tracer;

/// One profiling run: input files and program arguments.
pub type RunSpec = (Vec<NamedFile>, Vec<String>);

/// One compile unit: sources plus the runs that profile it.
#[derive(Clone)]
pub struct Unit {
    /// Program name (suite) or `u<index>` (units).
    pub name: String,
    /// The C sources.
    pub sources: Vec<Source>,
    /// Profiling runs.
    pub runs: Vec<RunSpec>,
}

/// Representative inputs per suite program.
pub const SUITE_INPUTS: u32 = 2;

/// Set-up repetitions; the median is reported.
const SETUP_REPS: usize = 3;

/// Generated programs in a `units` corpus.
pub const UNITS_CORPUS: u64 = 1600;

/// The twelve paper programs, each profiled on its first
/// [`SUITE_INPUTS`] representative inputs (`Benchmark::profile_run_set`),
/// compiled in an order drawn from `seed`. The inputs themselves are
/// fixed: their cost differs up to 27x within one program (espresso), so
/// seed-drawn inputs made the suite's work, not its speed, vary between
/// seeds.
pub fn suite_corpus(seed: u64) -> Vec<Unit> {
    let mut units: Vec<Unit> = impact_workloads::all_benchmarks()
        .into_iter()
        .map(|b| Unit {
            name: b.name.to_string(),
            sources: b.sources(),
            runs: b.profile_run_set(SUITE_INPUTS),
        })
        .collect();
    let mut state = seed;
    for i in (1..units.len()).rev() {
        state = splitmix(state);
        units.swap(i, (state % (i as u64 + 1)) as usize);
    }
    units
}

/// `n` generated programs from the fuzz generator, one input-free run
/// each; unit `i` is `impact_fuzz::generate(program_seed(seed, i))`.
pub fn units_corpus(seed: u64, n: u64) -> Vec<Unit> {
    (0..n)
        .map(|i| Unit {
            name: format!("u{i}"),
            sources: vec![Source::new(
                format!("u{i}.c"),
                impact_fuzz::generate(impact_fuzz::program_seed(seed, i)),
            )],
            runs: vec![(Vec::new(), Vec::new())],
        })
        .collect()
}

/// Pipeline flags of a workload: the paper's setting for `suite`,
/// `--opt --quiet` for `units`.
pub fn options(workload: &str) -> Options {
    let argv: &[&str] = if workload == "units" {
        &["inline", "--opt", "--quiet"]
    } else {
        &["inline"]
    };
    let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    Options::parse(&argv).expect("the benchmark's fixed flags parse")
}

/// The benchmark's own pass over one unit, calling each layer's public
/// function once (spans around each call when tracing).
pub struct Layers {
    /// The module as compiled, before inlining.
    pub pristine: Module,
    /// The inlined (and, under `--opt`, optimized) module.
    pub module: Module,
    /// Per-layer counts and times, summed into the traced run's metrics.
    pub counts: Values,
}

/// Compiles, verifies, profiles, builds the call graph, classifies,
/// inlines and (with `--opt`) optimizes `u`, as the pipeline does but
/// without its differential guard and re-profile.
///
/// # Errors
///
/// Any layer's failure, rendered.
pub fn layers(u: &Unit, opts: &Options, t: &mut Tracer) -> Result<Layers, String> {
    let flags = opts.validate_flags()?;
    let name = u.name.as_str();
    let mut counts = Values::new();
    let mut add = |k: &'static str, v: f64| *counts.entry(k).or_default() += v;
    let mut ctx = ParseContext::new();
    for (i, src) in u.sources.iter().enumerate() {
        let tokens = t
            .span("cfront:lex", name, |_| lex(i as u32, &src.text))
            .map_err(|e| e.render(&u.sources))?;
        add("tokens", tokens.len() as f64);
        t.span("cfront:parse", name, |_| parse_into(&mut ctx, &tokens))
            .map_err(|e| e.render(&u.sources))?;
    }
    let mut module = t
        .span("cfront:lower", name, |_| lower(&ctx))
        .map_err(|e| e.render(&u.sources))?;
    t.span("il:verify", name, |_| verify_module(&module))
        .map_err(|_| "pre-inline verification failed")?;
    let (profile, _) = t
        .span("vm:profile_runs", name, |_| {
            profile_runs(&module, &u.runs, &flags.vm)
        })
        .map_err(|e| format!("profiling run trapped: {e}"))?;
    add("vm.runs", u.runs.len() as f64);
    add("vm.il_executed", profile.il_executed as f64);
    let averaged = profile.averaged();
    let graph = t.span("callgraph:build", name, |_| {
        CallGraph::build(&module, &averaged)
    });
    add("callgraph.arcs", graph.arcs().len() as f64);
    let classes = t.span("inline:classify", name, |_| {
        classify(&module, &graph, &flags.inline)
    });
    add("safe_sites", classes.static_totals().safe as f64);
    let pristine = module.clone();
    let rep = t.span("inline:inline_module", name, |_| {
        inline_module(&mut module, &averaged, &flags.inline)
    });
    add("inline.expanded_arcs", rep.expanded.len() as f64);
    add("il.size_before", rep.size_before as f64);
    t.span("il:verify", name, |_| verify_module(&module))
        .map_err(|_| "post-inline verification failed")?;
    if opts.opt {
        let changes = t.span("opt:optimize_module", name, |_| {
            impact_opt::optimize_module(&mut module)
        });
        add("opt.changes", changes as f64);
    }
    add("il.size_after", module.total_size() as f64);
    Ok(Layers {
        pristine,
        module,
        counts,
    })
}

/// What the oracle learned about one unit.
pub struct Checked {
    /// The report's Table 4 numbers.
    pub summary: Summary,
    /// IL executed by the inlined module, summed over the unit's runs.
    pub il_after: u64,
    /// Optimizer-fixpoint diagnostics in the report.
    pub fixpoint_incidents: u64,
}

/// The output oracle: the pristine module on the reference tree-walking
/// interpreter and the benchmark's own inlined module on the default
/// bytecode engine must agree on stdout and exit code for every run; the
/// pipeline's report must be clean and agree with the benchmark's own
/// dynamic-call and code-size counts.
///
/// # Errors
///
/// Describes the first disagreement.
pub fn check(u: &Unit, opts: &Options, report: &str) -> Result<Checked, String> {
    let fixpoint_incidents =
        report::check_incidents(report).map_err(|e| format!("{}: {e}", u.name))?;
    let summary = report::parse_summary(report)
        .ok_or_else(|| format!("{}: report lacks its summary lines", u.name))?;
    let l = layers(u, opts, &mut Tracer::new(Instant::now(), false))?;
    let reference = VmConfig {
        engine: Engine::Interp,
        ..VmConfig::default()
    };
    let (before, want) = profile_runs(&l.pristine, &u.runs, &reference)
        .map_err(|e| format!("{}: reference run trapped: {e}", u.name))?;
    let (after, got) = profile_runs(&l.module, &u.runs, &VmConfig::default())
        .map_err(|e| format!("{}: inlined run trapped: {e}", u.name))?;
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        if (&g.stdout, g.exit_code) != (&w.stdout, w.exit_code) {
            return Err(format!("{}: run {i} output differs after inlining", u.name));
        }
    }
    let own = Summary {
        calls: (before.calls, after.calls),
        size: (l.pristine.total_size(), l.module.total_size()),
    };
    if own != summary {
        return Err(format!(
            "{}: report says {summary:?}, the benchmark's own pass {own:?}",
            u.name
        ));
    }
    Ok(Checked {
        summary,
        il_after: after.il_executed,
        fixpoint_incidents,
    })
}

/// Aggregates Table 4 and Table 1 numbers over checked units into the
/// three deterministic end-to-end metrics.
pub fn quality(checked: &[Checked], runs: u64, v: &mut Values) {
    let sum = |f: &dyn Fn(&Checked) -> u64| checked.iter().map(f).sum::<u64>() as f64;
    let (calls0, calls1) = (sum(&|c| c.summary.calls.0), sum(&|c| c.summary.calls.1));
    let (size0, size1) = (sum(&|c| c.summary.size.0), sum(&|c| c.summary.size.1));
    v.insert("calls_eliminated_pct", 100.0 * (calls0 - calls1) / calls0);
    v.insert("code_growth_pct", 100.0 * (size1 - size0) / size0);
    v.insert("il_per_run_after", sum(&|c| c.il_after) / runs as f64);
    v.insert("opt.fixpoint_incidents", sum(&|c| c.fixpoint_incidents));
}

/// Result of one workload run.
#[derive(Default)]
pub struct Outcome {
    /// Metric values (end-to-end, or per-layer when traced).
    pub values: Values,
    /// Compiles attempted (plus daemon requests in a traced `units` run).
    pub attempted: u64,
    /// Of those, failed or answered wrongly, plus failed oracle checks.
    pub failed: u64,
    /// Human-readable problems, one per failure kind.
    pub problems: Vec<String>,
    /// Digest of every distinct unit's report.
    pub digest: u64,
    /// Per-program median pipeline latency in ms (suite only).
    pub per_program: Vec<(String, f64)>,
    /// How the latency percentiles were formed, with sample counts.
    pub latency_note: String,
}

/// One `inline_pipeline` call and the CPU time it took, in ms.
fn compile_one(u: &Unit, opts: &Options) -> (Result<(i32, String), String>, f64) {
    let t0 = thread_cpu_s();
    let res = impact_driver::inline_pipeline(&u.sources, &u.runs, opts);
    let ms = (thread_cpu_s() - t0) * 1e3;
    (res.map_err(|e| e.render()), ms)
}

/// Runs `suite` or `units`. Set-up generates the corpus and makes one
/// warm-up pass over it, [`SETUP_REPS`] times (the median is reported);
/// the first pass's reports become the references every later pass
/// must reproduce byte for byte. The measured phase then makes whole
/// passes over the corpus until `seconds` of wall time have passed, and
/// the oracle checks every distinct unit. Set-up, passes and compiles
/// are timed in the thread's CPU time ([`thread_cpu_s`]). A traced run
/// spends the second half of its time in traced passes that add the
/// benchmark's own per-layer calls after each pipeline call; on `units`
/// it then spends another `seconds / 2` measuring the service layer on
/// the same corpus.
pub fn run(workload: &str, seed: u64, seconds: f64, t: &mut Tracer) -> Outcome {
    let traced = t.enabled();
    let mut out = Outcome::default();
    let opts = options(workload);
    let mut setups = Vec::new();
    let mut corpus = Vec::new();
    let mut reports: Vec<Option<String>> = Vec::new();
    for rep in 0..SETUP_REPS {
        let t0 = thread_cpu_s();
        corpus = if workload == "suite" {
            suite_corpus(seed)
        } else {
            units_corpus(seed, UNITS_CORPUS)
        };
        let warm: Vec<Option<String>> = corpus
            .iter()
            .map(|u| {
                out.attempted += 1;
                match compile_one(u, &opts).0 {
                    Ok((0, report)) => Some(report),
                    Ok((code, _)) => {
                        fail_none(&mut out, format!("{}: pipeline exit {code}", u.name))
                    }
                    Err(e) => fail_none(&mut out, format!("{}: {e}", u.name)),
                }
            })
            .collect();
        setups.push(thread_cpu_s() - t0);
        if rep == 0 {
            reports = warm;
        } else if warm != reports {
            fail(
                &mut out,
                "warm-up reports differ between set-ups".to_string(),
            );
        }
    }
    let setup_s = stats::median(&setups);

    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); corpus.len()];
    let mut traced_lat: Vec<Vec<f64>> = vec![Vec::new(); corpus.len()];
    let untraced_s = if traced { seconds / 2.0 } else { seconds };
    let mut layer_sums = Values::new();
    let mut traced_units = 0u64;
    // Untraced passes' rates: the median rejects a pass a transient
    // stall of the machine slowed.
    let mut pass_rates = Vec::new();
    let phase0 = Instant::now();
    while phase0.elapsed().as_secs_f64() < seconds {
        let in_traced_half = phase0.elapsed().as_secs_f64() >= untraced_s;
        let pass0 = thread_cpu_s();
        for (i, u) in corpus.iter().enumerate() {
            let (res, ms) = if in_traced_half {
                t.span("unit", &u.name, |t| {
                    let r = t.span("driver:inline_pipeline", &u.name, |_| compile_one(u, &opts));
                    match layers(u, &opts, t) {
                        Ok(l) => {
                            for (k, v) in l.counts {
                                *layer_sums.entry(k).or_default() += v;
                            }
                        }
                        Err(e) => fail(&mut out, format!("{}: layer pass: {e}", u.name)),
                    }
                    r
                })
            } else {
                compile_one(u, &opts)
            };
            out.attempted += 1;
            match (res, &reports[i]) {
                (Ok((0, rep)), Some(want)) if rep == *want => {}
                (Ok((0, _)), _) => fail(
                    &mut out,
                    format!("{}: report changed between passes", u.name),
                ),
                (Ok((code, _)), _) => fail(&mut out, format!("{}: pipeline exit {code}", u.name)),
                (Err(e), _) => fail(&mut out, format!("{}: {e}", u.name)),
            }
            if in_traced_half {
                traced_units += 1;
                traced_lat[i].push(ms);
            } else {
                latencies[i].push(ms);
            }
        }
        if !in_traced_half {
            pass_rates.push(corpus.len() as f64 / (thread_cpu_s() - pass0));
        }
    }
    let peak_rss_mb = crate::peak_rss_mb("self").unwrap_or(0.0);
    if traced && workload == "units" {
        crate::serve::measure(&corpus, seed, seconds / 2.0, t, &mut out);
    }
    // The oracle over every distinct unit.
    let mut checked = Vec::new();
    let mut digest = Fnv::default();
    let mut runs = 0u64;
    for (u, rep) in corpus.iter().zip(&reports) {
        let Some(rep) = rep else { continue };
        digest.write(u.name.as_bytes());
        digest.write(rep.as_bytes());
        match check(u, &opts, rep) {
            Ok(c) => {
                runs += u.runs.len() as u64;
                checked.push(c);
            }
            Err(e) => fail(&mut out, e),
        }
    }
    out.digest = digest.finish();
    let all: Vec<f64> = latencies.iter().flatten().copied().collect();
    // On `suite` a per-sample p90 falls inside one program's upper tail
    // (its noisiest part), so the percentiles are taken over the twelve
    // per-program medians instead.
    let lat = if workload == "suite" {
        let medians: Vec<f64> = latencies.iter().map(|l| stats::median(l)).collect();
        out.per_program = corpus
            .iter()
            .map(|u| u.name.clone())
            .zip(medians.clone())
            .collect();
        out.per_program.sort_by(|a, b| a.0.cmp(&b.0));
        out.latency_note = format!(
            "latency percentiles over the {} per-program medians of {} samples",
            medians.len(),
            all.len()
        );
        medians
    } else {
        out.latency_note = stats::sample_note(all.len());
        all
    };
    let v = &mut out.values;
    v.insert("setup_s", setup_s);
    v.insert("units_per_s", stats::median(&pass_rates));
    v.insert("latency_ms_p50", stats::percentile(&lat, 50.0));
    v.insert("latency_ms_p90", stats::percentile(&lat, 90.0));
    v.insert(
        "success_rate",
        out.attempted.saturating_sub(out.failed) as f64 / out.attempted as f64,
    );
    v.insert("peak_rss_mb", peak_rss_mb);
    if !checked.is_empty() {
        quality(&checked, runs, v);
    }
    if traced && traced_units > 0 {
        layer_metrics(t, &layer_sums, traced_units, workload, v);
        // Per unit, traced over untraced median pipeline time; the
        // geometric mean over units is the tracing overhead.
        let ratios: Vec<f64> = traced_lat
            .iter()
            .zip(&latencies)
            .filter(|(a, b)| !a.is_empty() && !b.is_empty())
            .map(|(a, b)| stats::median(a) / stats::median(b))
            .collect();
        v.insert(
            "trace.overhead_pct",
            100.0 * (stats::geomean(&ratios) - 1.0),
        );
    }
    out
}

/// [`fail`] for a unit that has no reference report.
fn fail_none(out: &mut Outcome, msg: String) -> Option<String> {
    fail(out, msg);
    None
}

/// Counts one failure, keeping the first few messages.
fn fail(out: &mut Outcome, msg: String) {
    out.failed += 1;
    if out.problems.len() < 8 {
        out.problems.push(msg);
    }
}

/// Per-layer metrics of a traced run, as per-unit means of the
/// benchmark's own spans and counts.
fn layer_metrics(t: &Tracer, sums: &Values, n: u64, workload: &str, v: &mut Values) {
    let tot = crate::trace::totals(t.spans());
    let us = |k: &str| tot.get(k).copied().unwrap_or(0) as f64 / n as f64;
    let sum = |k: &str| sums.get(k).copied().unwrap_or(0.0);
    let per = |k: &str| sum(k) / n as f64;
    v.insert("cfront.lex_us", us("cfront:lex"));
    v.insert("cfront.parse_us", us("cfront:parse"));
    v.insert("cfront.lower_us", us("cfront:lower"));
    v.insert(
        "cfront.tokens_per_s",
        sum("tokens") / (us("cfront:lex") * n as f64) * 1e6,
    );
    v.insert("il.verify_us", us("il:verify"));
    v.insert("il.size_before", per("il.size_before"));
    v.insert("il.size_after", per("il.size_after"));
    v.insert("vm.runs", per("vm.runs"));
    v.insert("vm.run_us", us("vm:profile_runs"));
    v.insert("vm.il_executed", per("vm.il_executed"));
    v.insert(
        "vm.il_per_s",
        sum("vm.il_executed") / (us("vm:profile_runs") * n as f64) * 1e6,
    );
    v.insert("callgraph.build_us", us("callgraph:build"));
    v.insert("callgraph.arcs", per("callgraph.arcs"));
    v.insert("inline.classify_us", us("inline:classify"));
    v.insert("inline.inline_module_us", us("inline:inline_module"));
    v.insert("inline.expanded_arcs", per("inline.expanded_arcs"));
    v.insert(
        "inline.accept_ratio",
        sum("inline.expanded_arcs") / sum("safe_sites").max(1.0),
    );
    v.insert("opt.optimize_us", us("opt:optimize_module"));
    v.insert("opt.changes", per("opt.changes"));
    let pipeline = us("driver:inline_pipeline");
    v.insert("driver.pipeline_us", pipeline);
    // One call of each layer the pipeline makes; `callgraph:build` and
    // `inline:classify` run again inside `inline_module`, so they are
    // not subtracted twice.
    let one_of_each = us("cfront:lex")
        + us("cfront:parse")
        + us("cfront:lower")
        + us("il:verify")
        + us("vm:profile_runs")
        + us("inline:inline_module")
        + us("opt:optimize_module");
    v.insert("driver.self_us", pipeline - one_of_each);
    let compiler = one_of_each - us("vm:profile_runs");
    let layer_total = one_of_each + us("callgraph:build") + us("inline:classify");
    v.insert("vm.share_pct", 100.0 * us("vm:profile_runs") / layer_total);
    v.insert(
        "compiler.share_pct",
        100.0 * (compiler + us("callgraph:build") + us("inline:classify")) / layer_total,
    );
    if workload == "suite" {
        let mut per_unit: std::collections::BTreeMap<&str, (f64, f64)> = Default::default();
        for s in t
            .spans()
            .iter()
            .filter(|s| s.name == "driver:inline_pipeline")
        {
            let e = per_unit.entry(s.unit.as_str()).or_default();
            e.0 += (s.end_us - s.start_us) as f64;
            e.1 += 1.0;
        }
        for m in crate::metrics::PER_LAYER {
            if let Some(p) = m.name.strip_prefix("driver.pipeline_us.") {
                if let Some((total, count)) = per_unit.get(p) {
                    v.insert(m.name, total / count);
                }
            }
        }
    }
}
