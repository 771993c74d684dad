//! # impact-driver — the `impactc` command-line pipeline
//!
//! Library backing for the `impactc` binary: argument parsing and the
//! compile → profile → inline → report pipeline over real files, so that
//! the whole flow is unit-testable without spawning processes.

// `deny` rather than `forbid`: the one scoped exception is the SIGTERM
// handler installation in `serve::sig`, which binds the C `signal`
// function directly (no libc crate dependency) under a module-local
// `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use impact_callgraph::CallGraph;
use impact_cfront::{compile, compile_with, Source};
use impact_il::{module_to_string, verify_module, Module, VerifyError};
pub use impact_inline::RunSpec;
use impact_inline::{
    behavior_of, call_decrease_percent, inline_guarded, Incident, IncidentStage, InlineConfig,
    Linearization, Runner, SiteDecision,
};
use impact_obs::Telemetry;
use impact_opt::optimize_module_observed;
use impact_vm::{profile_runs, Engine, FaultPlan, IcacheConfig, NamedFile, VmConfig};

pub mod cache;
mod flags;
pub mod fuzz;
pub mod journal;
pub mod minimize;
pub mod pool;
pub mod report;
pub mod serve;
pub mod supervise;
pub mod telemetry;
#[cfg(unix)]
pub(crate) mod transport;

use report::PipelineFailure;

/// A parsed command line. Every flag field also has a row in the flag
/// table (`flags.rs`), which parses it, scopes it to the commands that
/// read it, and marks whether the cache key and the campaign fingerprint
/// include it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Options {
    /// Subcommand: `compile`, `run`, `inline`, `callgraph`, or `bench`.
    pub command: String,
    /// Positional arguments (source paths, or a benchmark name for
    /// `bench`).
    pub positional: Vec<String>,
    /// `--input name=path` pairs: files made visible to the program.
    pub inputs: Vec<(String, String)>,
    /// `--arg v` values passed as program arguments.
    pub args: Vec<String>,
    /// `--threshold N` (arc-weight threshold).
    pub threshold: Option<u64>,
    /// `--budget F` (code-growth limit).
    pub budget: Option<f64>,
    /// `--stack-bound N` (bytes).
    pub stack_bound: Option<u64>,
    /// `--linearize node-weight|reverse|random:<seed>|source`.
    pub linearization: Option<String>,
    /// `--promote-indirect` (profile-guided indirect-call promotion,
    /// extension).
    pub promote_indirect: bool,
    /// `--profile-out path`: write the collected profile as text.
    pub profile_out: Option<String>,
    /// `--profile-in path`: reuse a previously written profile instead of
    /// re-running the program.
    pub profile_in: Option<String>,
    /// `--opt`: run the classical optimization passes (with per-pass
    /// isolation) after inline expansion.
    pub opt: bool,
    /// `--fault KEY[=N]` specs: deterministic fault-injection points
    /// (repeatable), e.g. `expand:verify:1` or `vm:oom=3`.
    pub faults: Vec<String>,
    /// `--quiet` (suppress IL dumps).
    pub quiet: bool,
    /// `--fuel N`: VM instruction budget per run (resource governor).
    pub fuel: Option<u64>,
    /// `--mem-limit N`: VM heap allocation quota in bytes (resource
    /// governor); see [`impact_vm::Memory::set_quota`].
    pub mem_limit: Option<u64>,
    /// `--time-limit-ms N` (batch): per-attempt wall-clock deadline.
    pub time_limit_ms: Option<u64>,
    /// `--retries N` (batch): re-attempts for transient failures.
    pub retries: Option<u32>,
    /// `--retry-base-ms N` (batch): base delay of the exponential backoff.
    pub retry_base_ms: Option<u64>,
    /// `--report-dir DIR` (batch): where crash reports and minimized
    /// reproducers are persisted.
    pub report_dir: Option<String>,
    /// `--fault-unit NAME` (batch): arm the `--fault` specs for this unit
    /// only; every other unit runs fault-free.
    pub fault_unit: Option<String>,
    /// `--workloads` (batch): add the twelve bundled benchmarks as units.
    pub workloads: bool,
    /// `--seed N` (fuzz): campaign seed fixing the whole corpus.
    pub seed: Option<u64>,
    /// `--journal PATH` (batch/fuzz): record campaign progress to a
    /// crash-consistent journal at this path.
    pub journal: Option<String>,
    /// `--resume` (batch/fuzz): continue the campaign recorded in
    /// `--journal`, skipping completed units.
    pub resume: bool,
    /// `--force-resume`: resume even when the journal (or the report-dir
    /// manifest) records a different config fingerprint.
    pub force_resume: bool,
    /// `--explain` (inline): print the per-call-site inline-decision
    /// audit table.
    pub explain: bool,
    /// `--decisions-out PATH` (inline): write the audit trail as
    /// schema-versioned JSON.
    pub decisions_out: Option<String>,
    /// `--trace-out PATH`: write Chrome trace-event JSON for the run.
    pub trace_out: Option<String>,
    /// `--metrics-out PATH`: write per-stage counters and timings as
    /// schema-versioned JSON.
    pub metrics_out: Option<String>,
    /// `--jobs N` (batch/serve): worker count for the compile pool
    /// (default: the number of available cores).
    pub jobs: Option<usize>,
    /// `--cache-dir DIR` (batch/serve): content-addressed artifact cache
    /// directory.
    pub cache_dir: Option<String>,
    /// `--queue-depth N` (serve): bound of the request queue; a full
    /// queue sheds new requests with an immediate `busy` response.
    pub queue_depth: Option<usize>,
    /// `--cache-budget-bytes N` (batch/serve): total on-disk byte budget
    /// across cache entries; past it, least-recently-used entries are
    /// evicted (quarantined bytes reclaimed first, pinned reads never).
    pub cache_budget_bytes: Option<u64>,
    /// `--deadline-ms N` (request): overall client deadline across all
    /// retry attempts; per-attempt socket timeouts shrink as it runs down.
    pub deadline_ms: Option<u64>,
    /// `--ping` (request): run the daemon health self-checks instead of
    /// compiling.
    pub ping: bool,
    /// `--tcp HOST:PORT` (serve): also bind a TCP listener alongside the
    /// Unix socket, serving the same protocol to remote clients.
    pub tcp: Option<String>,
    /// `--max-conns N` (serve): accept-time cap on connections admitted
    /// but not yet finished; past it new connections are shed with an
    /// immediate `busy` response.
    pub max_conns: Option<u64>,
    /// `--remote ENDPOINTS` (batch): ship each file unit to this
    /// comma-separated daemon fleet instead of compiling locally.
    pub remote: Option<String>,
    /// `--engine interp|bytecode`: which VM execution engine runs the
    /// program (default `bytecode`). The engines are proven behaviorally
    /// identical by the parity suite, so — like the telemetry flags —
    /// this cannot change any output and is excluded from campaign
    /// fingerprints and cache keys.
    pub engine: Option<String>,
    /// `--icache`: replay the dynamic instruction stream through the
    /// paper-era simulated instruction cache (8 KiB direct-mapped,
    /// 32-byte lines) and report hit/miss statistics. Composes with
    /// either `--engine`; the simulated stream is identical on both.
    pub icache: bool,
    /// `--stats` (request): ask the daemon for a live stats snapshot
    /// rendered as a human-readable table instead of compiling.
    pub stats: bool,
    /// `--stats-prom` (request): like `--stats` but rendered as
    /// Prometheus text exposition, suitable for scraping.
    pub stats_prom: bool,
    /// `--stats-json` (request): like `--stats` but rendered as the
    /// versioned stats JSON document.
    pub stats_json: bool,
    /// `--flight-recorder N` (serve): capacity of the in-memory ring of
    /// recent structured events dumped on panic/quarantine/protocol
    /// violation and at drain (default 256).
    pub flight_recorder: Option<usize>,
}

impl Options {
    /// Parses `argv[1..]`.
    ///
    /// # Errors
    ///
    /// Returns a usage message on malformed input.
    pub fn parse(argv: &[String]) -> Result<Options, String> {
        let mut it = argv.iter();
        let mut opts = Options {
            command: it.next().cloned().ok_or_else(usage)?,
            ..Options::default()
        };
        while let Some(arg) = it.next() {
            match flags::FLAGS.iter().find(|f| f.name == arg) {
                Some(flag) => flag.apply(&mut opts, &mut it)?,
                None if arg.starts_with("--") => {
                    return Err(format!("unknown option `{arg}`\n{}", usage()));
                }
                None => opts.positional.push(arg.clone()),
            }
        }
        Ok(opts)
    }

    /// Builds the fault-injection plan from the `--fault` flags.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed spec.
    pub fn fault_plan(&self) -> Result<FaultPlan, String> {
        let plan = FaultPlan::new();
        for spec in &self.faults {
            plan.arm_spec(spec)
                .map_err(|e| format!("bad --fault `{spec}`: {e}"))?;
        }
        Ok(plan)
    }

    /// Resolves the `--engine` flag (default: [`Engine::Bytecode`]).
    ///
    /// # Errors
    ///
    /// Returns an actionable message naming the valid engines.
    pub fn engine_choice(&self) -> Result<Engine, String> {
        match self.engine.as_deref() {
            None => Ok(Engine::default()),
            Some(name) => name.parse().map_err(|_| {
                format!(
                    "--engine `{name}` is not a known execution engine; use \
                     `bytecode` (the default register-bytecode engine) or \
                     `interp` (the reference tree-walking interpreter)"
                )
            }),
        }
    }

    /// Builds the VM configuration from the resource-governor flags,
    /// threading `fault` through it. Validates `--fuel`, `--mem-limit`,
    /// and `--engine` the same way `--budget`/`--stack-bound` are, and
    /// arms the simulated instruction cache for `--icache`.
    ///
    /// # Errors
    ///
    /// Returns an actionable message for out-of-range values.
    pub fn vm_config(&self, fault: FaultPlan) -> Result<VmConfig, String> {
        let mut cfg = VmConfig {
            fault,
            engine: self.engine_choice()?,
            ..VmConfig::default()
        };
        if self.icache {
            cfg.icache = Some(IcacheConfig::small_direct_mapped());
        }
        if let Some(fuel) = self.fuel {
            if fuel == 0 {
                return Err("--fuel 0 would stop the VM before its first instruction; \
                     use a positive instruction budget (default 2000000000)"
                    .to_string());
            }
            cfg.max_steps = fuel;
        }
        if let Some(limit) = self.mem_limit {
            if limit == 0 {
                return Err(
                    "--mem-limit 0 would reject the program's first allocation; \
                     use a positive heap quota in bytes"
                        .to_string(),
                );
            }
            cfg.mem_limit = Some(limit);
        }
        Ok(cfg)
    }

    /// Builds the inline configuration from the flags.
    pub fn inline_config(&self) -> Result<InlineConfig, String> {
        let mut cfg = InlineConfig::default();
        if let Some(t) = self.threshold {
            cfg.weight_threshold = t;
        }
        if let Some(b) = self.budget {
            if !b.is_finite() {
                return Err(format!(
                    "--budget {b} is not a finite number; the code-growth limit \
                     must be a multiplier such as 1.5"
                ));
            }
            if b < 1.0 {
                return Err(format!(
                    "--budget {b} is below 1.0, which would forbid the original \
                     program itself; use a growth multiplier >= 1.0 (default 2.0)"
                ));
            }
            cfg.code_growth_limit = b;
        }
        if let Some(s) = self.stack_bound {
            if s == 0 {
                return Err(
                    "--stack-bound 0 would reject every expansion into a recursive \
                     region; use a positive byte bound (default 4096)"
                        .to_string(),
                );
            }
            cfg.stack_bound = s;
        }
        cfg.fault = self.fault_plan()?;
        cfg.promote_indirect = self.promote_indirect;
        if let Some(l) = &self.linearization {
            cfg.linearization = match l.as_str() {
                "node-weight" => Linearization::NodeWeight,
                "reverse" => Linearization::ReverseNodeWeight,
                "source" => Linearization::SourceOrder,
                other => match other.strip_prefix("random:") {
                    Some(seed) => Linearization::Random(
                        seed.parse().map_err(|_| "bad random seed".to_string())?,
                    ),
                    None => return Err(format!("unknown linearization `{other}`")),
                },
            };
        }
        Ok(cfg)
    }

    /// Builds the service configuration from the parallelism/caching
    /// flags, validating them the same way the governor flags are.
    ///
    /// # Errors
    ///
    /// Returns an actionable message for out-of-range values.
    pub fn service_config(&self) -> Result<ServiceConfig, String> {
        if self.jobs == Some(0) {
            return Err(
                "--jobs 0 would run no compile workers; use a positive worker \
                 count (default: the number of available cores)"
                    .to_string(),
            );
        }
        if self.queue_depth == Some(0) {
            return Err(format!(
                "--queue-depth 0 would shed every request before a worker could \
                 accept one; use a positive queue bound (default {DEFAULT_QUEUE_DEPTH})"
            ));
        }
        if self.cache_dir.as_deref() == Some("") {
            return Err(
                "--cache-dir needs a non-empty directory path for the artifact cache".to_string(),
            );
        }
        if self.cache_budget_bytes == Some(0) {
            return Err(
                "--cache-budget-bytes 0 would evict every entry the moment it was \
                 stored; use a positive byte budget, or omit the flag for an \
                 unbounded cache"
                    .to_string(),
            );
        }
        if self.cache_budget_bytes.is_some() && self.cache_dir.is_none() {
            return Err(
                "--cache-budget-bytes needs --cache-dir (there is no cache to \
                 bound without one)"
                    .to_string(),
            );
        }
        if self.deadline_ms == Some(0) {
            return Err("--deadline-ms 0 would expire the request before its first \
                 attempt; use a positive overall deadline in milliseconds"
                .to_string());
        }
        if let Some(addr) = &self.tcp {
            let ok = addr.rsplit_once(':').is_some_and(|(host, port)| {
                !host.is_empty() && !host.contains('/') && port.parse::<u16>().is_ok_and(|p| p > 0)
            });
            if !ok {
                return Err(format!(
                    "--tcp needs HOST:PORT with a nonzero port (got `{addr}`)"
                ));
            }
        }
        if self.max_conns == Some(0) {
            return Err(
                "--max-conns 0 would shed every connection at accept time; use a \
                 positive cap, or omit the flag for an unbounded daemon"
                    .to_string(),
            );
        }
        if let Some(list) = &self.remote {
            if list.is_empty() || list.split(',').any(str::is_empty) {
                return Err(
                    "--remote needs a non-empty comma-separated endpoint list with no \
                     empty elements"
                        .to_string(),
                );
            }
        }
        if self.ping && self.positional.first().is_some_and(|p| p.contains(',')) {
            return Err("--ping probes a single daemon; give one endpoint, not a \
                 comma-separated list"
                .to_string());
        }
        let stats_flags = [
            (self.stats, "--stats"),
            (self.stats_prom, "--stats-prom"),
            (self.stats_json, "--stats-json"),
        ];
        let picked: Vec<&str> = stats_flags
            .iter()
            .filter(|(on, _)| *on)
            .map(|&(_, name)| name)
            .collect();
        if picked.len() > 1 {
            return Err(format!(
                "{} asks for one stats snapshot in two formats; pick exactly one \
                 of --stats, --stats-prom, --stats-json",
                picked.join(" and ")
            ));
        }
        if let Some(flag) = picked.first() {
            if self.ping {
                return Err(format!(
                    "{flag} and --ping are different daemon interrogations; run \
                     them as separate requests"
                ));
            }
            if self.positional.first().is_some_and(|p| p.contains(',')) {
                return Err(format!(
                    "{flag} snapshots a single daemon; give one endpoint, not a \
                     comma-separated list"
                ));
            }
        }
        if self.flight_recorder == Some(0) {
            return Err(
                "--flight-recorder 0 would record no events before a crash; use a \
                 positive ring capacity (default 256), or omit the flag"
                    .to_string(),
            );
        }
        let jobs = match self.jobs {
            Some(n) => n,
            None => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        };
        Ok(ServiceConfig {
            jobs,
            queue_depth: self.queue_depth.unwrap_or(DEFAULT_QUEUE_DEPTH),
            cache_dir: self.cache_dir.as_ref().map(std::path::PathBuf::from),
            cache_budget_bytes: self.cache_budget_bytes,
            tcp: self.tcp.clone(),
            max_conns: self.max_conns,
            flight_recorder: self
                .flight_recorder
                .unwrap_or(impact_obs::DEFAULT_FLIGHT_CAPACITY),
        })
    }

    /// Validates the inline *and* VM flag sets in one shot, threading the
    /// shared fault plan through both — the single flag-validation path
    /// used by `inline`, `bench`, `batch`, and `fuzz` (previously each
    /// call site combined [`Options::inline_config`] and
    /// [`Options::vm_config`] by hand). The service flags (`--jobs`,
    /// `--cache-dir`, `--queue-depth`) validate through the same call.
    ///
    /// # Errors
    ///
    /// Returns the first actionable flag error, exactly as the underlying
    /// validators produce it.
    pub fn validate_flags(&self) -> Result<ValidatedFlags, String> {
        let inline = self.inline_config()?;
        let vm = self.vm_config(inline.fault.clone())?;
        let service = self.service_config()?;
        Ok(ValidatedFlags {
            inline,
            vm,
            service,
        })
    }

    /// The validated inline and VM configurations, both reporting to
    /// `obs`: what every command that inline-expands runs its pipeline
    /// under.
    pub(crate) fn pipeline_configs(
        &self,
        obs: &Telemetry,
    ) -> Result<(InlineConfig, VmConfig), String> {
        let ValidatedFlags {
            mut inline, mut vm, ..
        } = self.validate_flags()?;
        inline.obs = obs.clone();
        vm.obs = obs.clone();
        Ok((inline, vm))
    }
}

/// Default bound of the serve request queue (`--queue-depth`).
pub const DEFAULT_QUEUE_DEPTH: usize = 8;

/// Service-level settings shared by `batch` and `serve`: pool width,
/// artifact-cache location, and the serve queue bound. Like the telemetry
/// flags, none of these change pipeline *behavior*, so they are excluded
/// from [`journal::campaign_fingerprint`] — a serial campaign's journal
/// may be resumed with `--jobs 4` and vice versa.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Resolved worker count (`--jobs`, default: available cores).
    pub jobs: usize,
    /// Bounded serve queue depth (`--queue-depth`).
    pub queue_depth: usize,
    /// Artifact cache directory (`--cache-dir`), when caching is on.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Total on-disk byte budget for the cache (`--cache-budget-bytes`);
    /// `None` disables eviction.
    pub cache_budget_bytes: Option<u64>,
    /// TCP listen address (`--tcp HOST:PORT`), bound alongside the Unix
    /// socket when present.
    pub tcp: Option<String>,
    /// Accept-time cap on admitted-but-unfinished connections
    /// (`--max-conns`); `None` leaves admission bounded only by the
    /// queue.
    pub max_conns: Option<u64>,
    /// Capacity of the serve flight-recorder ring (`--flight-recorder`,
    /// default [`impact_obs::DEFAULT_FLIGHT_CAPACITY`]).
    pub flight_recorder: usize,
}

/// The result of [`Options::validate_flags`]: every configuration, built
/// from one validation pass and sharing one fault plan.
#[derive(Clone, Debug)]
pub struct ValidatedFlags {
    /// The inline-expander configuration.
    pub inline: InlineConfig,
    /// The VM configuration (resource governor + the same fault plan).
    pub vm: VmConfig,
    /// The service configuration (pool, cache, queue).
    pub service: ServiceConfig,
}

/// The usage text.
pub fn usage() -> String {
    "usage: impactc <command> [options]\n\
     \n\
     commands:\n\
     \x20 compile <files.c...>            compile and print the IL\n\
     \x20 run <files.c...>                compile and execute main()\n\
     \x20 inline <files.c...>             profile, inline-expand, report, re-run\n\
     \x20 callgraph <files.c...>          print the weighted call graph (DOT)\n\
     \x20 bench [name]                    run one bundled benchmark end to end; with no\n\
     \x20                                 name, evaluate the whole suite and write the\n\
     \x20                                 paper-style metrics to BENCH_inline.json (in\n\
     \x20                                 --report-dir, default the working directory)\n\
     \x20 batch <dirs|files|bench:N...>   supervised batch compilation: every unit\n\
     \x20                                 runs isolated under the resource governor;\n\
     \x20                                 failures are retried, then quarantined with\n\
     \x20                                 a crash report (exit 0 all ok, 10 partial,\n\
     \x20                                 11 none succeeded)\n\
     \x20 fuzz                            differential oracle fuzzing: generate seeded\n\
     \x20                                 C programs, check behavioral equivalence and\n\
     \x20                                 profile invariants across a config lattice,\n\
     \x20                                 shrink failures into repro files (exit 0 clean,\n\
     \x20                                 12 divergences found)\n\
     \x20 serve <socket>                  persistent compile daemon on a Unix socket\n\
     \x20                                 (and, with --tcp, a TCP port): bounded queue\n\
     \x20                                 with overload shedding, crash-isolated request\n\
     \x20                                 workers, SIGTERM graceful drain (finish\n\
     \x20                                 in-flight work, exit 0)\n\
     \x20 request <endpoints> <files.c..> compile files through a running serve daemon\n\
     \x20                                 and print the pipeline report; a comma-\n\
     \x20                                 separated endpoint list (socket paths and/or\n\
     \x20                                 host:port) fails over with per-endpoint\n\
     \x20                                 circuit breakers\n\
     \n\
     options:\n\
     \x20 --input name=path               make a file visible to the program (repeatable)\n\
     \x20 --arg value                     program argument (repeatable)\n\
     \x20 --threshold N                   arc-weight threshold (default 10)\n\
     \x20 --budget F                      code-growth limit (default 2.0)\n\
     \x20 --stack-bound N                 recursion stack bound in bytes (default 4096)\n\
     \x20 --linearize S                   node-weight | reverse | source | random:<seed>\n\
     \x20 --promote-indirect              promote profile-dominated indirect calls (extension)\n\
     \x20 --profile-out PATH              save the collected profile as text\n\
     \x20 --profile-in PATH               reuse a saved profile instead of re-profiling\n\
     \x20 --opt                           run classical optimizations after expansion\n\
     \x20 --fault KEY[=N]                 arm a deterministic fault point (repeatable),\n\
     \x20                                 e.g. expand:verify:1, vm:oom=3, profile:parse\n\
     \x20 --quiet                         suppress IL dumps\n\
     \n\
     resource governor (run/inline/callgraph/bench/batch/serve):\n\
     \x20 --fuel N                        VM instruction budget per run\n\
     \x20 --mem-limit N                   VM heap allocation quota in bytes\n\
     \n\
     execution engine (run/inline/callgraph/bench/batch/serve; fuzz runs both):\n\
     \x20 --engine interp|bytecode        VM execution engine (default bytecode: flat\n\
     \x20                                 register bytecode, measured multiple-x faster;\n\
     \x20                                 interp is the reference tree-walker — both are\n\
     \x20                                 behaviorally identical, proven by the parity\n\
     \x20                                 suite, so results never depend on the choice)\n\
     \x20 --icache                        (run) replay the instruction stream through\n\
     \x20                                 the paper-era simulated icache (8 KiB direct-\n\
     \x20                                 mapped, 32-byte lines) and report miss stats;\n\
     \x20                                 the stream is identical on either engine\n\
     \n\
     batch supervision:\n\
     \x20 --time-limit-ms N               per-attempt wall-clock deadline (default 10000)\n\
     \x20 --retries N                     re-attempts for transient failures (default 2)\n\
     \x20 --retry-base-ms N               backoff base delay (default 25)\n\
     \x20 --report-dir DIR                persist JSON crash reports + reproducers\n\
     \x20 --fault-unit NAME               arm --fault specs for this unit only\n\
     \x20 --workloads                     add the twelve bundled benchmarks as units\n\
     \x20 --remote ENDPOINTS              ship each file unit to this comma-separated\n\
     \x20                                 daemon fleet (failover + circuit breakers)\n\
     \x20                                 instead of compiling locally\n\
     \n\
     parallelism and caching (batch/serve):\n\
     \x20 --jobs N                        compile-pool worker count (default: the\n\
     \x20                                 number of available cores)\n\
     \x20 --cache-dir DIR                 content-addressed artifact cache: hits skip\n\
     \x20                                 recompilation; corrupt or truncated entries\n\
     \x20                                 are quarantined with an incident report and\n\
     \x20                                 recompiled, never served\n\
     \x20 --queue-depth N                 (serve) request queue bound; a full queue\n\
     \x20                                 sheds new requests with an immediate busy\n\
     \x20                                 response (default 8)\n\
     \x20 --cache-budget-bytes N          total on-disk byte budget for the cache;\n\
     \x20                                 past it, least-recently-used entries are\n\
     \x20                                 evicted (quarantined bytes reclaimed first,\n\
     \x20                                 in-flight reads never; needs --cache-dir)\n\
     \x20 --tcp HOST:PORT                 (serve) also bind a TCP listener serving the\n\
     \x20                                 same protocol to remote clients\n\
     \x20 --max-conns N                   (serve) accept-time cap on connections being\n\
     \x20                                 served; past it new connections are shed with\n\
     \x20                                 an immediate busy response\n\
     \x20 --flight-recorder N             (serve) capacity of the in-memory ring of\n\
     \x20                                 recent structured events dumped as incident\n\
     \x20                                 JSON on panic/quarantine/protocol violation\n\
     \x20                                 and at drain (default 256)\n\
     \n\
     request client (request):\n\
     \x20 --retries N                     re-attempts after retryable failures: torn\n\
     \x20                                 or dropped connections, busy daemons, crashed\n\
     \x20                                 request workers (default 2)\n\
     \x20 --retry-base-ms N               backoff base delay between attempts; the\n\
     \x20                                 daemon's busy retry-after hint overrides the\n\
     \x20                                 exponential schedule (default 25)\n\
     \x20 --deadline-ms N                 overall deadline across all attempts; socket\n\
     \x20                                 timeouts shrink as the budget runs down\n\
     \x20 --ping                          daemon health self-check instead of compiling:\n\
     \x20                                 queue headroom and cache-dir writability\n\
     \x20                                 (exit 0 healthy, 1 degraded)\n\
     \x20 --stats                         live daemon stats snapshot as a table:\n\
     \x20                                 counters, latency histograms, queue/cache/\n\
     \x20                                 idempotency occupancy, breaker states\n\
     \x20 --stats-prom                    the same snapshot as Prometheus text\n\
     \x20                                 exposition, suitable for scraping\n\
     \x20 --stats-json                    the same snapshot as versioned JSON\n\
     \n\
     fuzzing:\n\
     \x20 --seed N                        campaign seed (default 42)\n\
     \x20 --budget N                      number of programs to check (default 100)\n\
     \x20 --threshold N                   arc-weight threshold for the oracle's configs\n\
     \x20 --fault KEY[=N]                 arm fault points in every config (the positive\n\
     \x20                                 control: armed faults must surface as findings)\n\
     \x20 --report-dir DIR                where shrunken *.repro.c + JSON oracle reports\n\
     \x20                                 are written (default fuzz-reports)\n\
     \n\
     telemetry (zero-cost unless a flag below is set):\n\
     \x20 --explain                       (inline) print the per-call-site decision\n\
     \x20                                 audit table: class, weight, budget state,\n\
     \x20                                 and the accept/reject reason\n\
     \x20 --decisions-out PATH            (inline) write the same audit trail as\n\
     \x20                                 schema-versioned JSON\n\
     \x20 --trace-out PATH                write Chrome trace-event JSON (load it at\n\
     \x20                                 chrome://tracing or ui.perfetto.dev)\n\
     \x20 --metrics-out PATH              write per-stage counters and timings as\n\
     \x20                                 schema-versioned JSON; batch/fuzz aggregate\n\
     \x20                                 across all units into campaign-level metrics\n\
     \n\
     crash consistency (batch/fuzz):\n\
     \x20 --journal PATH                  record campaign progress to a checksummed\n\
     \x20                                 write-ahead journal (fsync'd per event)\n\
     \x20 --resume                        continue the campaign in --journal: completed\n\
     \x20                                 units are skipped, in-flight ones re-run, and\n\
     \x20                                 reports are re-emitted idempotently\n\
     \x20 --force-resume                  resume even if the journal or report-dir\n\
     \x20                                 manifest records different campaign flags\n"
        .to_string()
}

fn read_sources(paths: &[String]) -> Result<Vec<Source>, String> {
    if paths.is_empty() {
        return Err(format!("no source files given\n{}", usage()));
    }
    paths
        .iter()
        .map(|p| {
            std::fs::read_to_string(p)
                .map(|text| Source::new(p.clone(), text))
                .map_err(|e| format!("cannot read `{p}`: {e}"))
        })
        .collect()
}

/// Renders verifier errors the same way on every path: one readable
/// Display line per error.
fn render_verify_errors(errors: &[VerifyError]) -> String {
    errors
        .iter()
        .map(|e| e.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

fn compile_sources(paths: &[String]) -> Result<Module, String> {
    let sources = read_sources(paths)?;
    let module = compile(&sources).map_err(|e| e.render(&sources))?;
    verify_module(&module).map_err(|es| render_verify_errors(&es))?;
    Ok(module)
}

fn load_inputs(pairs: &[(String, String)]) -> Result<Vec<NamedFile>, String> {
    pairs
        .iter()
        .map(|(name, path)| {
            std::fs::read(path)
                .map(|bytes| NamedFile::new(name.clone(), bytes))
                .map_err(|e| format!("cannot read input `{path}`: {e}"))
        })
        .collect()
}

/// Warns about armed fault points that never fired — a typo'd domain or
/// an out-of-range hit count would otherwise be silently ignored.
fn warn_unfired(out: &mut String, fault: &FaultPlan) {
    for key in fault.unfired() {
        let _ = writeln!(
            out,
            "; warning: fault point `{key}` was armed but never fired; \
             check the spelling and hit count"
        );
    }
}

/// Appends per-incident lines and the `; incidents: N (M rolled back)`
/// summary to the report.
fn render_incidents(out: &mut String, incidents: &[Incident]) {
    for i in incidents {
        let _ = writeln!(out, "; incident: {i}");
    }
    let rolled = incidents.iter().filter(|i| i.rolled_back).count();
    let _ = writeln!(
        out,
        "; incidents: {} ({} rolled back)",
        incidents.len(),
        rolled
    );
}

/// The full compile → guarded inline ([`inline_guarded`]) → optimize
/// pipeline over already-loaded sources, with every hard failure
/// classified as a [`PipelineFailure`] so the batch supervisor (and the
/// `inline` command) can make retry/quarantine decisions and match
/// failure signatures.
///
/// The post-inline verification is the pipeline's one *unrecovered*
/// failure point: the `inline:verify` fault key injects a verification
/// failure there, modeling the class of hard failures that the recovery
/// layer cannot absorb.
///
/// # Errors
///
/// Returns the classified failure; `Ok` carries `(exit_code, report)`.
pub fn inline_pipeline(
    sources: &[Source],
    runs: &[RunSpec],
    opts: &Options,
) -> Result<(i32, String), PipelineFailure> {
    let obs = telemetry::handle_for(opts);
    inline_pipeline_observed(sources, runs, opts, &obs).map(|(code, out, _)| (code, out))
}

/// [`inline_pipeline`] with an externally-owned telemetry handle (so a
/// campaign can aggregate across units into one collector) and the
/// inline-decision audit trail in the result. Spans cover every stage:
/// the front end (per-source lex/parse, lower), both verifier runs, every
/// VM run, each inline sub-phase, and each optimization pass.
///
/// # Errors
///
/// Returns the classified failure; `Ok` carries
/// `(exit_code, report, decisions)`.
pub fn inline_pipeline_observed(
    sources: &[Source],
    runs: &[RunSpec],
    opts: &Options,
    obs: &Telemetry,
) -> Result<(i32, String, Vec<SiteDecision>), PipelineFailure> {
    let mut out = String::new();
    let (mut cfg, vm_cfg) = opts
        .pipeline_configs(obs)
        .map_err(|e| PipelineFailure::new("config", "bad-flag", e))?;
    cfg.audit = telemetry::audit_requested(opts);
    let module0 = compile_with(sources, obs)
        .map_err(|e| PipelineFailure::new("compile", e.message.clone(), e.render(sources)))?;
    {
        let _verify_span = obs.span("il:verify");
        verify_module(&module0).map_err(|es| {
            PipelineFailure::new(
                "verify",
                "post-compile-verify-failed",
                render_verify_errors(&es),
            )
        })?;
    }
    let profile_text = opts
        .profile_in
        .as_deref()
        .map(|path| {
            std::fs::read_to_string(path).map_err(|e| {
                let detail = format!("cannot read profile `{path}`: {e}");
                PipelineFailure::new("io", "profile-read-failed", detail)
            })
        })
        .transpose()?;
    let supplied = opts.profile_in.as_deref().zip(profile_text.as_deref());
    let guarded = inline_guarded(&module0, runs, &cfg, &vm_cfg, supplied);
    if let Some(path) = &opts.profile_out {
        let baseline = guarded
            .as_ref()
            .map_or_else(|u| &u.baseline, |g| &g.baseline);
        report::atomic_write_path(std::path::Path::new(path), baseline.to_text().as_bytes())
            .map_err(|e| PipelineFailure::new("io", "profile-write-failed", e))?;
    }
    let mut g = guarded.map_err(|u| {
        let mut f = PipelineFailure::new("inline", "verify-failed", u.detail);
        f.incidents = u.incidents.iter().map(|i| i.to_string()).collect();
        f
    })?;
    for w in &g.warnings {
        let _ = writeln!(out, "; warning: {w}");
    }
    if opts.opt {
        let pre_opt = g.module.clone();
        let (_, skipped, fixpoints) = optimize_module_observed(&mut g.module, &cfg.fault, obs);
        for s in skipped {
            g.incidents.push(Incident {
                stage: IncidentStage::OptPass,
                subject: format!("pass `{}` on `{}`", s.pass, s.func),
                detail: s.reason,
                rolled_back: true,
            });
        }
        for fx in fixpoints {
            g.incidents.push(Incident {
                stage: IncidentStage::OptFixpoint,
                detail: fx.to_string(),
                subject: format!("optimizer fixpoint in `{}`", fx.func),
                rolled_back: false,
            });
        }
        // The optimizer gets the same never-ship-a-miscompile
        // treatment, but wholesale: verify and re-compare, and
        // revert the whole optimization on any failure.
        let optimized = verify_module(&g.module)
            .is_ok()
            .then(|| Runner::new(runs, &vm_cfg).observe(&g.module))
            .filter(|o| behavior_of(o) == behavior_of(&g.after));
        match optimized {
            Some(o) => g.after = o,
            None => {
                g.module = pre_opt;
                g.incidents.push(Incident {
                    stage: IncidentStage::Divergence,
                    subject: "post-inline optimization".to_string(),
                    detail: "optimized module failed verification or diverged; \
                             optimization reverted"
                        .to_string(),
                    rolled_back: true,
                });
            }
        }
    }
    let (module, report) = (&g.module, &g.report);
    let totals = report.classification.static_totals();
    let _ = writeln!(
        out,
        "; sites: {} total / {} external / {} pointer / {} unsafe / {} safe",
        totals.total(),
        totals.external,
        totals.pointer,
        totals.r#unsafe,
        totals.safe
    );
    // Summary lines reflect the *final* module: the differential
    // guard may have rolled expansions back since the report was
    // built, changing both code size and which functions died.
    let size_after = module.total_size();
    let _ = writeln!(
        out,
        "; expanded {} arcs; code size {} -> {} ({:+.1}%)",
        report.expanded.len(),
        report.size_before,
        size_after,
        if report.size_before == 0 {
            0.0
        } else {
            100.0 * (size_after as f64 - report.size_before as f64) / report.size_before as f64
        }
    );
    let removed: Vec<&str> = module0
        .functions
        .iter()
        .map(|f| f.name.as_str())
        .filter(|n| module.functions.iter().all(|f| f.name != *n))
        .collect();
    if !removed.is_empty() {
        let _ = writeln!(out, "; removed: {}", removed.join(", "));
    }
    if !report.promoted.is_empty() {
        let _ = writeln!(
            out,
            "; promoted {} indirect site(s) to guarded direct calls",
            report.promoted.len()
        );
    }
    match &g.after {
        Ok((_, after)) => {
            let _ = writeln!(
                out,
                "; dynamic calls {} -> {} ({:.1}% eliminated)",
                g.baseline.calls,
                after.calls,
                call_decrease_percent(&g.baseline, after)
            );
        }
        Err(e) => {
            let _ = writeln!(out, "; warning: post-inline measurement run trapped: {e}");
        }
    }
    warn_unfired(&mut out, &cfg.fault);
    render_incidents(&mut out, &g.incidents);
    if opts.explain {
        out.push_str(&telemetry::explain_table(&report.decisions));
    }
    if !opts.quiet {
        out.push_str(&module_to_string(module));
    }
    Ok((0, out, g.report.decisions))
}

/// Executes a parsed command; returns the process exit code and the text
/// to print.
///
/// # Errors
///
/// Returns a human-readable error message.
pub fn execute(opts: &Options) -> Result<(i32, String), String> {
    flags::check_scope(opts)?;
    let mut out = String::new();
    match opts.command.as_str() {
        "compile" => {
            let module = compile_sources(&opts.positional)?;
            let _ = writeln!(
                out,
                "; {} functions, {} IL instructions",
                module.functions.len(),
                module.total_size()
            );
            if !opts.quiet {
                out.push_str(&module_to_string(&module));
            }
            Ok((0, out))
        }
        "run" => {
            let module = compile_sources(&opts.positional)?;
            let inputs = load_inputs(&opts.inputs)?;
            let vm_cfg = opts.vm_config(opts.fault_plan()?)?;
            let result = impact_vm::run(&module, inputs, opts.args.clone(), &vm_cfg)
                .map_err(|e| e.to_string())?;
            if let Some(path) = &opts.profile_out {
                report::atomic_write_path(
                    std::path::Path::new(path),
                    result.profile.to_text().as_bytes(),
                )?;
            }
            out.push_str(&String::from_utf8_lossy(&result.stdout));
            let _ = writeln!(
                out,
                "; exit {} after {} ILs ({} calls)",
                result.exit_code, result.profile.il_executed, result.profile.calls
            );
            if let Some(stats) = &result.icache {
                let _ = writeln!(
                    out,
                    "; icache: {} accesses, {} misses ({:.2}% miss ratio)",
                    stats.accesses,
                    stats.misses,
                    100.0 * stats.miss_ratio()
                );
            }
            warn_unfired(&mut out, &vm_cfg.fault);
            Ok((result.exit_code as i32, out))
        }
        "inline" => {
            let sources = read_sources(&opts.positional)?;
            let inputs = load_inputs(&opts.inputs)?;
            let runs = vec![(inputs, opts.args.clone())];
            let obs = telemetry::handle_for(opts);
            let (code, text, decisions) =
                inline_pipeline_observed(&sources, &runs, opts, &obs).map_err(|f| f.render())?;
            telemetry::write_artifacts(opts, &obs, Some(&decisions))?;
            Ok((code, text))
        }
        "callgraph" => {
            let module = compile_sources(&opts.positional)?;
            let inputs = load_inputs(&opts.inputs)?;
            let runs = vec![(inputs, opts.args.clone())];
            let cfg = opts.vm_config(FaultPlan::new())?;
            let (profile, _) = profile_runs(&module, &runs, &cfg).map_err(|e| e.to_string())?;
            let graph = CallGraph::build(&module, &profile.averaged());
            out.push_str(&graph.to_dot(&module));
            Ok((0, out))
        }
        "bench" => {
            let obs = telemetry::handle_for(opts);
            let Some(name) = opts.positional.first() else {
                let (code, text) = telemetry::run_bench_suite(opts, &obs)?;
                telemetry::write_artifacts(opts, &obs, None)?;
                out.push_str(&text);
                return Ok((code, out));
            };
            let b = impact_workloads::benchmark(name)
                .ok_or_else(|| format!("unknown benchmark `{name}`"))?;
            let (cfg, vm_cfg) = opts.pipeline_configs(&obs)?;
            let module = compile_with(&b.sources(), &obs).map_err(|e| e.render(&b.sources()))?;
            let g = inline_guarded(&module, &b.profile_run_set(4), &cfg, &vm_cfg, None)
                .map_err(|u| u.detail)?;
            for w in &g.warnings {
                let _ = writeln!(out, "; warning: {w}");
            }
            let (_, after) = g.after?;
            let _ = writeln!(
                out,
                "{name}: {} C lines, {} ILs/run, calls {} -> {} ({:.1}% eliminated), code {:+.1}%",
                b.c_lines(),
                g.baseline.averaged().il_executed,
                g.baseline.calls,
                after.calls,
                call_decrease_percent(&g.baseline, &after),
                g.report.code_increase_percent()
            );
            warn_unfired(&mut out, &cfg.fault);
            if !g.incidents.is_empty() {
                render_incidents(&mut out, &g.incidents);
            }
            telemetry::write_artifacts(opts, &obs, None)?;
            Ok((0, out))
        }
        "batch" => supervise::run_batch(opts),
        "fuzz" => fuzz::run_fuzz(opts),
        "serve" => serve::run_serve(opts),
        "request" => serve::run_request(opts),
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_full_option_set() {
        let o = Options::parse(&strs(&[
            "inline",
            "a.c",
            "b.c",
            "--input",
            "stdin=/tmp/x",
            "--arg",
            "-v",
            "--threshold",
            "5",
            "--budget",
            "1.5",
            "--stack-bound",
            "8192",
            "--linearize",
            "random:9",
            "--quiet",
        ]))
        .unwrap();
        assert_eq!(o.command, "inline");
        assert_eq!(o.positional, strs(&["a.c", "b.c"]));
        assert_eq!(o.inputs, vec![("stdin".to_string(), "/tmp/x".to_string())]);
        assert_eq!(o.args, strs(&["-v"]));
        assert_eq!(o.threshold, Some(5));
        assert_eq!(o.budget, Some(1.5));
        assert_eq!(o.stack_bound, Some(8192));
        assert!(o.quiet);
        let cfg = o.inline_config().unwrap();
        assert_eq!(cfg.weight_threshold, 5);
        assert_eq!(cfg.linearization, Linearization::Random(9));
    }

    #[test]
    fn rejects_unknown_flags_and_commands() {
        assert!(Options::parse(&strs(&["compile", "--bogus"])).is_err());
        for args in [&["teleport"][..], &["teleport", "--quiet"]] {
            let o = Options::parse(&strs(args)).unwrap();
            let err = execute(&o).unwrap_err();
            assert!(err.starts_with("unknown command `teleport`"), "{err}");
        }
    }

    #[test]
    fn engine_flag_resolves_and_rejects_unknown_names() {
        let o = Options::parse(&strs(&["run", "a.c"])).unwrap();
        assert_eq!(o.engine_choice().unwrap(), Engine::Bytecode);
        let o = Options::parse(&strs(&["run", "a.c", "--engine", "interp"])).unwrap();
        assert_eq!(o.engine_choice().unwrap(), Engine::Interp);
        let o = Options::parse(&strs(&["run", "a.c", "--engine", "bytecode"])).unwrap();
        assert_eq!(o.engine_choice().unwrap(), Engine::Bytecode);
        let o = Options::parse(&strs(&["run", "a.c", "--engine", "turbo"])).unwrap();
        let err = o.engine_choice().unwrap_err();
        assert!(err.contains("not a known execution engine"), "{err}");
        assert!(err.contains("interp") && err.contains("bytecode"), "{err}");
        // vm_config surfaces the same failure.
        assert!(o.vm_config(FaultPlan::new()).is_err());
    }

    #[test]
    fn both_engines_run_and_icache_composes() {
        let dir = std::env::temp_dir().join("impactc-test-engine");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("e.c");
        std::fs::write(
            &src,
            "int main() { int i; int s; s = 0; for (i = 0; i < 10; i++) s += i; return s; }",
        )
        .unwrap();
        let path = src.to_str().unwrap();

        let mut outs = Vec::new();
        for engine in ["interp", "bytecode"] {
            let o = Options::parse(&strs(&["run", path, "--engine", engine, "--icache"])).unwrap();
            let (code, out) = execute(&o).unwrap();
            assert_eq!(code, 45, "{engine}");
            assert!(out.contains("icache:"), "{engine}: {out}");
            outs.push(out);
        }
        // The simulated stream (and thus the stats line) is identical
        // on both engines.
        assert_eq!(outs[0], outs[1]);
    }

    #[test]
    fn compile_and_run_a_real_file() {
        let dir = std::env::temp_dir().join("impactc-test");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("t.c");
        std::fs::write(&src, "int main() { return 41 + 1; }").unwrap();

        let o = Options::parse(&strs(&["compile", src.to_str().unwrap()])).unwrap();
        let (code, out) = execute(&o).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("func"));

        let o = Options::parse(&strs(&["run", src.to_str().unwrap()])).unwrap();
        let (code, out) = execute(&o).unwrap();
        assert_eq!(code, 42);
        assert!(out.contains("exit 42"));
    }

    #[test]
    fn inline_pipeline_over_files() {
        let dir = std::env::temp_dir().join("impactc-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("hot.c");
        std::fs::write(
            &src,
            "int sq(int x) { return x * x; }\n\
             int main() { int i; int s; s = 0; for (i = 0; i < 50; i++) s += sq(i); return s & 0xff; }",
        )
        .unwrap();
        let o = Options::parse(&strs(&["inline", src.to_str().unwrap(), "--quiet"])).unwrap();
        let (code, out) = execute(&o).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("expanded 1 arcs"), "{out}");
        assert!(out.contains("100.0% eliminated"), "{out}");
    }

    #[test]
    fn callgraph_emits_dot() {
        let dir = std::env::temp_dir().join("impactc-test3");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("g.c");
        std::fs::write(
            &src,
            "int f(int x) { return x; } int main() { return f(1); }",
        )
        .unwrap();
        let o = Options::parse(&strs(&["callgraph", src.to_str().unwrap()])).unwrap();
        let (_, out) = execute(&o).unwrap();
        assert!(out.starts_with("digraph"));
        assert!(out.contains("main"));
    }

    #[test]
    fn bench_command_runs_a_suite_member() {
        let o = Options::parse(&strs(&["bench", "wc"])).unwrap();
        let (code, out) = execute(&o).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("wc:"), "{out}");
        assert!(out.contains("eliminated"), "{out}");
    }
}

#[cfg(test)]
mod profile_flag_tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn profile_round_trips_through_disk() {
        let dir = std::env::temp_dir().join("impactc-prof");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("p.c");
        std::fs::write(
            &src,
            "int sq(int x) { return x * x; }\n\
             int main() { int i; int s; s = 0; for (i = 0; i < 30; i++) s += sq(i); return s & 0x7f; }",
        )
        .unwrap();
        let prof = dir.join("p.profile");

        // run --profile-out
        let o = Options::parse(&strs(&[
            "run",
            src.to_str().unwrap(),
            "--profile-out",
            prof.to_str().unwrap(),
        ]))
        .unwrap();
        let (_, _) = execute(&o).unwrap();
        let text = std::fs::read_to_string(&prof).unwrap();
        assert!(text.starts_with("impact-profile v1"));

        // inline --profile-in (no re-profiling run needed)
        let o = Options::parse(&strs(&[
            "inline",
            src.to_str().unwrap(),
            "--profile-in",
            prof.to_str().unwrap(),
            "--quiet",
        ]))
        .unwrap();
        let (code, out) = execute(&o).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("expanded 1 arcs"), "{out}");
    }

    #[test]
    fn promote_indirect_flag_reaches_config() {
        let o = Options::parse(&strs(&["inline", "x.c", "--promote-indirect"])).unwrap();
        assert!(o.inline_config().unwrap().promote_indirect);
    }
}

#[cfg(test)]
mod recovery_tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    const HOT_TWO: &str = "int sq(int x) { return x * x; }\n\
         int cube(int x) { return x * x * x; }\n\
         int main() { int i; int s; s = 0;\n\
           for (i = 0; i < 100; i++) { s += sq(i); s += cube(i); }\n\
           return s & 0xff; }";

    fn write_src(dir: &str, name: &str, text: &str) -> String {
        let dir = std::env::temp_dir().join(dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn numeric_flag_validation() {
        for bad in [
            vec!["inline", "x.c", "--budget", "NaN"],
            vec!["inline", "x.c", "--budget", "inf"],
            vec!["inline", "x.c", "--budget", "0.5"],
            vec!["inline", "x.c", "--stack-bound", "0"],
        ] {
            let o = Options::parse(&strs(&bad)).unwrap();
            let err = o.inline_config().unwrap_err();
            assert!(
                err.contains("--budget") || err.contains("--stack-bound"),
                "unactionable message: {err}"
            );
        }
        // The boundary value 1.0 is allowed.
        let o = Options::parse(&strs(&["inline", "x.c", "--budget", "1.0"])).unwrap();
        assert_eq!(o.inline_config().unwrap().code_growth_limit, 1.0);
    }

    #[test]
    fn governor_flag_validation() {
        let o = Options::parse(&strs(&["run", "x.c", "--fuel", "0"])).unwrap();
        let err = o.vm_config(FaultPlan::new()).unwrap_err();
        assert!(err.contains("--fuel"), "unactionable message: {err}");
        let o = Options::parse(&strs(&["run", "x.c", "--mem-limit", "0"])).unwrap();
        let err = o.vm_config(FaultPlan::new()).unwrap_err();
        assert!(err.contains("--mem-limit"), "unactionable message: {err}");
        let o = Options::parse(&strs(&[
            "run",
            "x.c",
            "--fuel",
            "500",
            "--mem-limit",
            "4096",
        ]))
        .unwrap();
        let cfg = o.vm_config(FaultPlan::new()).unwrap();
        assert_eq!(cfg.max_steps, 500);
        assert_eq!(cfg.mem_limit, Some(4096));
    }

    #[test]
    fn service_flag_validation() {
        let o = Options::parse(&strs(&["batch", "u.c", "--jobs", "0"])).unwrap();
        let err = o.service_config().unwrap_err();
        assert!(err.contains("--jobs"), "unactionable message: {err}");
        let o = Options::parse(&strs(&["serve", "s.sock", "--queue-depth", "0"])).unwrap();
        let err = o.service_config().unwrap_err();
        assert!(err.contains("--queue-depth"), "unactionable message: {err}");
        let o = Options::parse(&strs(&["batch", "u.c", "--cache-dir", ""])).unwrap();
        let err = o.service_config().unwrap_err();
        assert!(err.contains("--cache-dir"), "unactionable message: {err}");
        // Explicit values round-trip; the default queue bound is applied.
        let o = Options::parse(&strs(&[
            "serve",
            "s.sock",
            "--jobs",
            "4",
            "--cache-dir",
            "/tmp/c",
        ]))
        .unwrap();
        let svc = o.service_config().unwrap();
        assert_eq!(svc.jobs, 4);
        assert_eq!(svc.queue_depth, DEFAULT_QUEUE_DEPTH);
        assert_eq!(
            svc.cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/c"))
        );
        // validate_flags surfaces the same rejection.
        let o = Options::parse(&strs(&["batch", "u.c", "--jobs", "0"])).unwrap();
        assert!(o.validate_flags().unwrap_err().contains("--jobs"));
    }

    #[test]
    fn cache_budget_flag_validation() {
        // A zero budget would make the cache useless; reject it outright.
        let o = Options::parse(&strs(&[
            "serve",
            "s.sock",
            "--cache-dir",
            "/tmp/c",
            "--cache-budget-bytes",
            "0",
        ]))
        .unwrap();
        let err = o.service_config().unwrap_err();
        assert!(err.contains("--cache-budget-bytes"), "unactionable: {err}");
        // A budget without a cache has nothing to bound.
        let o = Options::parse(&strs(&["serve", "s.sock", "--cache-budget-bytes", "64"])).unwrap();
        let err = o.service_config().unwrap_err();
        assert!(err.contains("--cache-dir"), "unactionable: {err}");
        // A positive budget with a cache dir rides through to the config.
        let o = Options::parse(&strs(&[
            "batch",
            "u.c",
            "--cache-dir",
            "/tmp/c",
            "--cache-budget-bytes",
            "4096",
        ]))
        .unwrap();
        assert_eq!(o.service_config().unwrap().cache_budget_bytes, Some(4096));
    }

    #[test]
    fn deadline_flag_validation() {
        let o = Options::parse(&strs(&["request", "s.sock", "x.c", "--deadline-ms", "0"])).unwrap();
        let err = o.service_config().unwrap_err();
        assert!(err.contains("--deadline-ms"), "unactionable: {err}");
    }

    #[test]
    fn tcp_flag_validation() {
        // Anything that is not HOST:PORT with a nonzero u16 port is
        // rejected — a Unix path here means the operator swapped flags.
        for bad in [
            "7070",
            "host:",
            ":7070",
            "host:0",
            "host:99999",
            "/tmp/d.sock",
        ] {
            let o = Options::parse(&strs(&["serve", "s.sock", "--tcp", bad])).unwrap();
            let err = o.service_config().unwrap_err();
            assert!(err.contains("--tcp"), "`{bad}`: unactionable: {err}");
        }
        let o = Options::parse(&strs(&["serve", "s.sock", "--tcp", "127.0.0.1:7070"])).unwrap();
        assert_eq!(
            o.service_config().unwrap().tcp.as_deref(),
            Some("127.0.0.1:7070")
        );
    }

    #[test]
    fn max_conns_zero_is_rejected() {
        let o = Options::parse(&strs(&["serve", "s.sock", "--max-conns", "0"])).unwrap();
        let err = o.service_config().unwrap_err();
        assert!(err.contains("--max-conns"), "unactionable: {err}");
        let o = Options::parse(&strs(&["serve", "s.sock", "--max-conns", "2"])).unwrap();
        assert_eq!(o.service_config().unwrap().max_conns, Some(2));
    }

    #[test]
    fn remote_endpoint_list_validation() {
        for bad in ["", ",", "a.sock,", ",a.sock", "a.sock,,b.sock"] {
            let o = Options::parse(&strs(&["batch", "u.c", "--remote", bad])).unwrap();
            let err = o.service_config().unwrap_err();
            assert!(err.contains("--remote"), "`{bad}`: unactionable: {err}");
        }
        let o = Options::parse(&strs(&["batch", "u.c", "--remote", "a.sock,host:9000"])).unwrap();
        assert!(o.service_config().is_ok());
    }

    #[test]
    fn ping_rejects_a_multi_endpoint_list() {
        let o = Options::parse(&strs(&["request", "a.sock,b.sock", "--ping"])).unwrap();
        let err = o.service_config().unwrap_err();
        assert!(err.contains("--ping"), "unactionable: {err}");
        let o = Options::parse(&strs(&["request", "a.sock", "--ping"])).unwrap();
        assert!(o.service_config().is_ok());
    }

    #[test]
    fn stats_formats_are_mutually_exclusive() {
        let o = Options::parse(&strs(&["request", "a.sock", "--stats", "--stats-prom"])).unwrap();
        let err = o.service_config().unwrap_err();
        assert!(
            err.contains("--stats") && err.contains("--stats-prom"),
            "unactionable: {err}"
        );
        let o = Options::parse(&strs(&[
            "request",
            "a.sock",
            "--stats-prom",
            "--stats-json",
        ]))
        .unwrap();
        assert!(o.service_config().is_err());
        let o = Options::parse(&strs(&["request", "a.sock", "--stats"])).unwrap();
        assert!(o.service_config().is_ok());
    }

    #[test]
    fn stats_rejects_ping_in_the_same_request() {
        let o = Options::parse(&strs(&["request", "a.sock", "--stats", "--ping"])).unwrap();
        let err = o.service_config().unwrap_err();
        assert!(
            err.contains("--stats") && err.contains("--ping"),
            "unactionable: {err}"
        );
    }

    #[test]
    fn stats_rejects_a_multi_endpoint_list() {
        let o = Options::parse(&strs(&["request", "a.sock,b.sock", "--stats-prom"])).unwrap();
        let err = o.service_config().unwrap_err();
        assert!(err.contains("--stats-prom"), "unactionable: {err}");
        let o = Options::parse(&strs(&["request", "a.sock", "--stats-prom"])).unwrap();
        assert!(o.service_config().is_ok());
    }

    #[test]
    fn flight_recorder_zero_is_rejected() {
        let o = Options::parse(&strs(&["serve", "s.sock", "--flight-recorder", "0"])).unwrap();
        let err = o.service_config().unwrap_err();
        assert!(err.contains("--flight-recorder"), "unactionable: {err}");
        let o = Options::parse(&strs(&["serve", "s.sock", "--flight-recorder", "16"])).unwrap();
        assert_eq!(o.service_config().unwrap().flight_recorder, 16);
        let o = Options::parse(&strs(&["serve", "s.sock"])).unwrap();
        assert_eq!(
            o.service_config().unwrap().flight_recorder,
            impact_obs::DEFAULT_FLIGHT_CAPACITY
        );
    }

    #[test]
    fn rejections_keep_their_messages() {
        for (args, message) in [
            (
                vec!["inline", "x.c", "--journal", "j"],
                "--journal/--resume/--force-resume only apply to campaign commands \
                 (batch, fuzz), not `inline`",
            ),
            (
                vec!["bench", "--explain"],
                "--explain/--decisions-out only apply to `inline` (the command that \
                 plans inline expansion), not `bench`",
            ),
            (
                vec!["run", "x.c", "--trace-out", "t.json"],
                "--trace-out/--metrics-out only apply to pipeline commands \
                 (inline, bench, batch, fuzz, serve, request), not `run`",
            ),
            (
                vec!["inline", "x.c", "--jobs", "2"],
                "--jobs/--cache-dir/--cache-budget-bytes only apply to service \
                 commands (batch, serve), not `inline`",
            ),
            (
                vec!["run", "x.c", "--cache-dir", "/tmp/c"],
                "--jobs/--cache-dir/--cache-budget-bytes only apply to service \
                 commands (batch, serve), not `run`",
            ),
            (
                vec!["run", "x.c", "--cache-budget-bytes", "64"],
                "--jobs/--cache-dir/--cache-budget-bytes only apply to service \
                 commands (batch, serve), not `run`",
            ),
            (
                vec!["batch", "u.c", "--queue-depth", "4"],
                "--queue-depth only applies to `serve` (the command with a bounded \
                 request queue), not `batch`",
            ),
            (
                vec!["request", "s.sock", "x.c", "--tcp", "h:1"],
                "--tcp/--max-conns only apply to `serve` (the daemon that binds \
                 listeners), not `request`",
            ),
            (
                vec!["batch", "u.c", "--max-conns", "4"],
                "--tcp/--max-conns only apply to `serve` (the daemon that binds \
                 listeners), not `batch`",
            ),
            (
                vec!["request", "s.sock", "x.c", "--remote", "a.sock"],
                "--remote only applies to `batch` (shipping units to a daemon \
                 fleet), not `request`",
            ),
            (
                vec!["batch", "u.c", "--deadline-ms", "500"],
                "--deadline-ms/--ping only apply to `request` (the client talking \
                 to a serve daemon), not `batch`",
            ),
            (
                vec!["serve", "s.sock", "--ping"],
                "--deadline-ms/--ping only apply to `request` (the client talking \
                 to a serve daemon), not `serve`",
            ),
            (
                vec!["batch", "u.c", "--stats"],
                "--stats/--stats-prom/--stats-json only apply to `request` (the \
                 client interrogating a serve daemon), not `batch`",
            ),
            (
                vec!["batch", "u.c", "--stats-prom"],
                "--stats/--stats-prom/--stats-json only apply to `request` (the \
                 client interrogating a serve daemon), not `batch`",
            ),
            (
                vec!["batch", "u.c", "--stats-json"],
                "--stats/--stats-prom/--stats-json only apply to `request` (the \
                 client interrogating a serve daemon), not `batch`",
            ),
            (
                vec!["bench", "--opt"],
                "--opt only applies to commands that compile through the inline \
                 pipeline (inline, batch, serve), not `bench`",
            ),
            (
                vec!["bench", "grep", "--opt"],
                "--opt only applies to commands that compile through the inline \
                 pipeline (inline, batch, serve), not `bench`",
            ),
            (
                vec!["request", "s.sock", "--flight-recorder", "8"],
                "--flight-recorder only applies to `serve` (the daemon that keeps \
                 the event ring), not `request`",
            ),
            (
                vec!["run", "x.c", "--retries", "3"],
                "--retries/--retry-base-ms only apply to the commands that retry \
                 (batch supervision, request client), not `run`",
            ),
            (
                vec!["fuzz", "--retry-base-ms", "5"],
                "--retries/--retry-base-ms only apply to the commands that retry \
                 (batch supervision, request client), not `fuzz`",
            ),
            (
                vec!["compile", "a.c", "--engine", "interp"],
                "--engine only applies to commands that run the program on one chosen \
                 VM engine (run, inline, callgraph, bench, batch, serve), not `compile`",
            ),
            (
                vec!["fuzz", "--engine", "interp"],
                "--engine only applies to commands that run the program on one chosen \
                 VM engine (run, inline, callgraph, bench, batch, serve), not `fuzz`",
            ),
            (
                vec!["compile", "a.c", "--icache"],
                "--icache only applies to `run` (the command that reports \
                 instruction-cache statistics), not `compile`",
            ),
            (
                vec!["request", "--engine", "bytecode"],
                "--engine only applies to commands that run the program on one chosen \
                 VM engine (run, inline, callgraph, bench, batch, serve), not `request`",
            ),
            (
                vec!["request", "--icache"],
                "--icache only applies to `run` (the command that reports \
                 instruction-cache statistics), not `request`",
            ),
            (
                vec!["bench", "grep", "--report-dir", "d"],
                "--report-dir only applies to commands that write reports to a \
                 directory (the bench suite, batch, fuzz, serve), not `bench`",
            ),
            (
                vec!["bench", "grep", "--quiet"],
                "--quiet only applies to commands that print IL (compile, inline), \
                 not `bench`",
            ),
        ] {
            let o = Options::parse(&strs(&args)).unwrap();
            assert_eq!(execute(&o).unwrap_err(), message, "{args:?}");
        }
    }

    #[test]
    fn flags_a_command_ignores_are_rejected() {
        for args in [
            &["compile", "t.c", "--opt"][..],
            &["compile", "t.c", "--threshold", "3"],
            &["compile", "t.c", "--fuel", "5"],
            &["compile", "t.c", "--profile-in", "p"],
            &["compile", "t.c", "--report-dir", "d"],
            &["run", "t.c", "--opt"],
            &["run", "t.c", "--threshold", "3"],
            &["run", "t.c", "--budget", "1.5"],
            &["run", "t.c", "--seed", "3"],
            &["inline", "t.c", "--seed", "3"],
            &["inline", "t.c", "--workloads"],
            &["inline", "t.c", "--time-limit-ms", "1"],
            &["inline", "t.c", "--fault-unit", "t.c"],
            &["callgraph", "t.c", "--fault", "vm:oom"],
            &["fuzz", "--fuel", "5"],
            &["batch", "u.c", "--quiet"],
            &["serve", "s.sock", "--profile-out", "p"],
            &["request", "s.sock", "t.c", "--threshold", "3"],
            &["inline", "t.c", "--icache"],
            &["bench", "--icache"],
            &["batch", "u.c", "--icache"],
            &["serve", "s.sock", "--icache"],
            &["fuzz", "--engine", "interp"],
            &["bench", "grep", "--report-dir", "d"],
        ] {
            let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
            let err = execute(&Options::parse(&strs(args)).unwrap()).unwrap_err();
            let (group, _) = err.split_once(" only appl").unwrap();
            assert!(group.split('/').any(|n| n == *flag), "{args:?}: {err}");
            assert!(
                err.ends_with(&format!(", not `{}`", args[0])),
                "{args:?}: {err}"
            );
        }
    }

    #[test]
    fn fuel_flag_bounds_a_run() {
        let src = write_src(
            "impactc-governor1",
            "spin.c",
            "int main() { int i; int s; s = 0; for (i = 0; i < 100000; i++) s += i; return s & 1; }",
        );
        let o = Options::parse(&strs(&["run", &src, "--fuel", "50"])).unwrap();
        let err = execute(&o).unwrap_err();
        assert!(err.contains("instruction budget"), "{err}");
    }

    #[test]
    fn fuel_flag_bounds_the_callgraph_profiling_run() {
        let src = write_src(
            "impactc-governor-callgraph",
            "g.c",
            "int f(int x) { return x; } int main() { return f(1); }",
        );
        let o = Options::parse(&strs(&["callgraph", &src, "--fuel", "1"])).unwrap();
        let err = execute(&o).unwrap_err();
        assert!(err.contains("instruction budget"), "{err}");
    }

    #[test]
    fn mem_limit_flag_bounds_a_run() {
        let src = write_src(
            "impactc-governor2",
            "alloc.c",
            "extern long __malloc(long n);\n\
             int main() { long p; p = __malloc(100000); if (p == 0) return 1; return 0; }",
        );
        // Without a quota the allocation succeeds...
        let o = Options::parse(&strs(&["run", &src])).unwrap();
        let (code, _) = execute(&o).unwrap();
        assert_eq!(code, 0);
        // ...and the governor's quota makes the program observe NULL.
        let o = Options::parse(&strs(&["run", &src, "--mem-limit", "1024"])).unwrap();
        let (code, _) = execute(&o).unwrap();
        assert_eq!(code, 1);
    }

    #[test]
    fn bad_fault_specs_are_rejected() {
        let o = Options::parse(&strs(&["inline", "x.c", "--fault", "nocolon"])).unwrap();
        assert!(o.inline_config().unwrap_err().contains("--fault"));
        let o = Options::parse(&strs(&["inline", "x.c", "--fault", "vm:oom=x"])).unwrap();
        assert!(o.fault_plan().is_err());
    }

    #[test]
    fn expand_fault_rolls_back_one_arc_and_exits_zero() {
        let src = write_src("impactc-recover1", "hot.c", HOT_TWO);
        let o = Options::parse(&strs(&[
            "inline",
            &src,
            "--quiet",
            "--fault",
            "expand:verify:1",
        ]))
        .unwrap();
        let (code, out) = execute(&o).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("; incidents: 1 (1 rolled back)"), "{out}");
        assert!(out.contains("[expand]"), "{out}");
        // The other arc still expanded: half the dynamic calls are gone.
        assert!(out.contains("50.0% eliminated"), "{out}");
    }

    #[test]
    fn corrupt_profile_in_degrades_to_unprofiled_inlining() {
        let src = write_src("impactc-recover2", "hot.c", HOT_TWO);
        let prof = write_src("impactc-recover2", "bad.profile", "not a profile at all");
        let o = Options::parse(&strs(&["inline", &src, "--profile-in", &prof, "--quiet"])).unwrap();
        let (code, out) = execute(&o).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("warning"), "{out}");
        assert!(out.contains("falling back to unprofiled"), "{out}");
        assert!(out.contains("[profile]"), "{out}");
        // Threshold-only inlining still expands the hot arcs.
        assert!(out.contains("expanded 2 arcs"), "{out}");
    }

    #[test]
    fn profile_parse_fault_degrades_a_good_profile() {
        let src = write_src("impactc-recover3", "hot.c", HOT_TWO);
        let prof = std::env::temp_dir()
            .join("impactc-recover3")
            .join("good.profile");
        let o = Options::parse(&strs(&[
            "run",
            &src,
            "--profile-out",
            prof.to_str().unwrap(),
        ]))
        .unwrap();
        execute(&o).unwrap();

        let o = Options::parse(&strs(&[
            "inline",
            &src,
            "--profile-in",
            prof.to_str().unwrap(),
            "--quiet",
            "--fault",
            "profile:parse",
        ]))
        .unwrap();
        let (code, out) = execute(&o).unwrap();
        assert_eq!(code, 0);
        assert!(
            out.contains("fault injection corrupted the profile read"),
            "{out}"
        );
        assert!(out.contains("; incidents: 1 (0 rolled back)"), "{out}");
    }

    #[test]
    fn trapping_profile_run_degrades_instead_of_erroring() {
        let src = write_src(
            "impactc-recover4",
            "trap.c",
            "int sq(int x) { return x * x; }\n\
             int main() { int z; z = 0; return sq(3) / z; }",
        );
        let o = Options::parse(&strs(&["inline", &src, "--quiet"])).unwrap();
        let (code, out) = execute(&o).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("profiling run trapped"), "{out}");
        assert!(out.contains("falling back to unprofiled"), "{out}");
    }

    #[test]
    fn opt_pass_fault_is_isolated_and_reported() {
        let src = write_src("impactc-recover5", "hot.c", HOT_TWO);
        let o = Options::parse(&strs(&[
            "inline",
            &src,
            "--quiet",
            "--opt",
            "--fault",
            "opt:pass:1",
        ]))
        .unwrap();
        let (code, out) = execute(&o).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("[opt]"), "{out}");
        assert!(out.contains("rolled back)"), "{out}");
    }

    #[test]
    fn differential_net_bisects_a_real_stack_divergence() {
        // Inlining `leaf` (2 KiB frame) into `rec` passes the paper's
        // per-frame stack bound but multiplies the frame across 10 000
        // recursion levels, overflowing the VM's 4 MiB stack — a genuine
        // behavior divergence only the differential net can catch. The
        // bisect must roll back exactly that arc and keep the harmless
        // `leaf` -> `main` expansion.
        let src = write_src(
            "impactc-recover7",
            "deep.c",
            "int leaf(int x) { char a[2048]; a[0] = x; a[x & 1023] = 1; return a[0] + a[x & 1023]; }\n\
             int rec(int n) { if (n <= 0) return 0; return leaf(n) + rec(n - 1); }\n\
             int main() { int i; int s; s = 0;\n\
               for (i = 0; i < 20000; i++) s += leaf(i);\n\
               s += rec(10000);\n\
               return s & 0xff; }",
        );
        let o = Options::parse(&strs(&["inline", &src, "--quiet"])).unwrap();
        let (code, out) = execute(&o).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("behavior diverged"), "{out}");
        assert!(out.contains("[differential]"), "{out}");
        assert!(
            out.contains("`leaf` -> `rec`"),
            "bisect should name the offending arc: {out}"
        );
        assert!(
            !out.contains("`leaf` -> `main`"),
            "the harmless arc must survive: {out}"
        );
        assert!(out.contains("(1 rolled back)"), "{out}");
    }

    #[test]
    fn guard_runs_obey_the_heap_quota() {
        // Under the quota `__malloc` returns NULL and the program takes
        // its short branch. Profile, guard and after-profile must all see
        // that branch: a guard run without the quota would report a
        // divergence, and an after-profile without it would count the
        // long branch's 50 calls.
        let src = write_src(
            "impactc-memlimit-guard",
            "null.c",
            "extern long __malloc(long n);\n\
             int sq(int x) { return x * x; }\n\
             int main() { long p; int i; int s; s = 0; p = __malloc(4096);\n\
               if (p == 0) { for (i = 0; i < 10; i++) s += sq(i); return 1; }\n\
               for (i = 0; i < 50; i++) s += sq(i);\n\
               return 2; }",
        );
        let o = Options::parse(&strs(&["inline", &src, "--quiet", "--mem-limit", "1024"])).unwrap();
        let (code, out) = execute(&o).unwrap();
        assert_eq!(code, 0);
        assert!(!out.contains("diverged"), "{out}");
        assert!(out.contains("; incidents: 0 (0 rolled back)"), "{out}");
        assert!(out.contains("; dynamic calls 11 -> 1 "), "{out}");
    }

    /// The report of `inline --quiet EXTRA` on `grep`'s first two
    /// representative inputs, as an FNV-1a digest.
    fn grep_report_digest(extra: &[&str]) -> String {
        let b = impact_workloads::benchmark("grep").unwrap();
        let mut args = vec!["inline", "--quiet"];
        args.extend(extra);
        let o = Options::parse(&strs(&args)).unwrap();
        let (_, report) = inline_pipeline(&b.sources(), &b.profile_run_set(2), &o).unwrap();
        format!("{:016x}", impact_vm::fnv1a64(report.as_bytes()))
    }

    #[test]
    fn fallback_paths_keep_their_reports_on_a_paper_workload() {
        // The digests are those of the reports before the guard reused
        // the profiling run: the paths that still run the pristine module
        // afresh must not change a byte.
        let dir = std::env::temp_dir().join("impactc-fallback-grep");
        std::fs::create_dir_all(&dir).unwrap();
        let prof = dir.join("grep.profile");
        let prof = prof.to_str().unwrap();
        assert_eq!(
            grep_report_digest(&["--profile-out", prof]),
            "7d211d311e11e25e"
        );
        assert_eq!(
            grep_report_digest(&["--profile-in", prof]),
            "7d211d311e11e25e"
        );
        assert_eq!(
            grep_report_digest(&["--fault", "vm:oom=1000000000"]),
            "ebf883990a190c8f"
        );
        assert_eq!(
            grep_report_digest(&["--fault", "expand:verify:1"]),
            "e8d5a3be2098705d"
        );
    }

    #[test]
    fn clean_run_reports_zero_incidents() {
        let src = write_src("impactc-recover6", "hot.c", HOT_TWO);
        let o = Options::parse(&strs(&["inline", &src, "--quiet", "--opt"])).unwrap();
        let (code, out) = execute(&o).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("; incidents: 0 (0 rolled back)"), "{out}");
        assert!(out.contains("100.0% eliminated"), "{out}");
    }
}
