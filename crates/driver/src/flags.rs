//! The flag table: one row per `impactc` flag. [`Options::parse`], the
//! command scoping check, and the flag lines of the cache key and the
//! campaign fingerprint are all read off [`FLAGS`], so how a flag parses,
//! which commands take it and which identities include it are each
//! declared once, in its row.

use std::fmt::{Debug, Write as _};
use std::str::FromStr;

use crate::Options;

/// One flag: its name, its value, the [`Options`] field it sets, the
/// commands it applies to, and the identity dumps that include it.
pub(crate) struct Flag {
    /// The flag as typed, e.g. `--stack-bound`.
    pub(crate) name: &'static str,
    /// What its value is, completing "`--X` needs …"; `None` for a
    /// switch, which takes no value.
    takes: Option<&'static str>,
    field: fn(&mut Options) -> &mut dyn Field,
    view: fn(&Options) -> &dyn Field,
    /// The commands that read the flag.
    scope: Scope,
    identity: Identity,
}

/// The commands a flag applies to, and the text completing "`--X` only
/// applies to …, not `cmd`". Rows sharing a scope are rejected together:
/// the message names them all, e.g. "--jobs/--cache-dir only apply to …".
/// `bench` with a benchmark name is listed as `bench NAME`, apart from
/// the suite (`bench` alone).
struct Scope(&'static [&'static str], &'static str);

/// Which identity dumps include a flag's value: the cache key
/// ([`crate::cache::unit_key`]), the campaign fingerprint
/// ([`crate::journal::campaign_fingerprint`]), both or neither. Flags
/// that cannot change what a compile or campaign computes (telemetry,
/// engine choice, service knobs) are in neither.
#[derive(PartialEq, Eq)]
pub(crate) enum Identity {
    Neither,
    CacheKey,
    Campaign,
    Both,
}

/// Why a field refused a value.
enum Refused {
    /// The value lacks the shape the row names: `--X needs …`.
    Shape,
    /// The value does not parse: `bad --X`.
    Parse,
}

/// An [`Options`] field a flag writes.
trait Field: Debug {
    /// Records one occurrence of the flag; `v` is empty for a switch.
    fn set(&mut self, v: &str) -> Result<(), Refused>;
    /// Whether the command line gave the flag.
    fn is_set(&self) -> bool;
}

impl Field for bool {
    fn set(&mut self, _: &str) -> Result<(), Refused> {
        *self = true;
        Ok(())
    }
    fn is_set(&self) -> bool {
        *self
    }
}

impl<T: FromStr + Debug> Field for Option<T> {
    fn set(&mut self, v: &str) -> Result<(), Refused> {
        *self = Some(v.parse().map_err(|_| Refused::Parse)?);
        Ok(())
    }
    fn is_set(&self) -> bool {
        self.is_some()
    }
}

impl Field for Vec<String> {
    fn set(&mut self, v: &str) -> Result<(), Refused> {
        self.push(v.to_string());
        Ok(())
    }
    fn is_set(&self) -> bool {
        !self.is_empty()
    }
}

impl Field for Vec<(String, String)> {
    fn set(&mut self, v: &str) -> Result<(), Refused> {
        let (name, path) = v.split_once('=').ok_or(Refused::Shape)?;
        self.push((name.to_string(), path.to_string()));
        Ok(())
    }
    fn is_set(&self) -> bool {
        !self.is_empty()
    }
}

impl Flag {
    fn needs(&self) -> String {
        format!("{} needs {}", self.name, self.takes.unwrap_or_default())
    }

    /// Consumes this flag's value (if it takes one) from `rest` and
    /// stores it in `opts`.
    pub(crate) fn apply<'a>(
        &self,
        opts: &mut Options,
        rest: &mut impl Iterator<Item = &'a String>,
    ) -> Result<(), String> {
        let v = match self.takes {
            None => "",
            Some(_) => rest.next().ok_or_else(|| self.needs())?,
        };
        (self.field)(opts).set(v).map_err(|r| match r {
            Refused::Shape => self.needs(),
            Refused::Parse => format!("bad {}", self.name),
        })
    }
}

/// Rejects the first flag `opts` carries that its command does not read,
/// naming every flag of its scope.
///
/// # Errors
///
/// Returns the "`--X` only applies to …, not `cmd`" message.
pub(crate) fn check_scope(opts: &Options) -> Result<(), String> {
    let command = opts.command.as_str();
    let form = match command {
        "bench" if !opts.positional.is_empty() => "bench NAME",
        _ => command,
    };
    if !FLAGS.iter().any(|f| f.scope.0.contains(&form)) {
        // Not a command at all: `execute` reports that instead.
        return Ok(());
    }
    let Some(f) = FLAGS
        .iter()
        .find(|f| (f.view)(opts).is_set() && !f.scope.0.contains(&form))
    else {
        return Ok(());
    };
    let group: Vec<&str> = FLAGS
        .iter()
        .filter(|g| g.scope.1 == f.scope.1)
        .map(|g| g.name)
        .collect();
    let verb = if group.len() == 1 { "applies" } else { "apply" };
    Err(format!(
        "{} only {verb} to {}, not `{command}`",
        group.join("/"),
        f.scope.1
    ))
}

/// Appends one `label value` line per row in the `dump` identity, in
/// table order. The label is the flag name without `--`, with `-` as
/// `_`; the value is the field's `Debug` form.
pub(crate) fn write_identity(s: &mut String, opts: &Options, dump: Identity) {
    for f in FLAGS
        .iter()
        .filter(|f| f.identity == dump || f.identity == Identity::Both)
    {
        let label = f.name.trim_start_matches("--").replace('-', "_");
        let _ = writeln!(s, "{label} {:?}", (f.view)(opts));
    }
}

/// The scopes of the table's rows, one per group of flags rejected
/// together.
#[rustfmt::skip]
mod scopes {
    use super::Scope;

    pub(super) const PROGRAM_RUNS: Scope = Scope(&["run", "inline", "callgraph", "batch", "serve"],
        "commands that run the program on its inputs (run, inline, callgraph, batch, serve)");
    pub(super) const FAULTS: Scope = Scope(&["run", "inline", "bench", "bench NAME", "batch", "fuzz", "serve"],
        "commands with fault points to arm (run, inline, bench, batch, fuzz, serve)");
    pub(super) const EXPANSION: Scope = Scope(&["inline", "bench", "bench NAME", "batch", "fuzz", "serve"],
        "commands that inline-expand or fuzz the expander (inline, bench, batch, fuzz, serve)");
    pub(super) const EXPANDER: Scope = Scope(&["inline", "bench", "bench NAME", "batch", "serve"],
        "commands that configure the expander (inline, bench, batch, serve)");
    pub(super) const OPT: Scope = Scope(&["inline", "batch", "serve"],
        "commands that compile through the inline pipeline (inline, batch, serve)");
    pub(super) const GOVERNOR: Scope = Scope(&["run", "inline", "callgraph", "bench", "bench NAME", "batch", "serve"],
        "commands whose VM runs obey the resource governor (run, inline, callgraph, bench, batch, serve)");
    pub(super) const PROFILE_IN: Scope = Scope(&["inline"],
        "`inline` (the command that can reuse a saved profile)");
    pub(super) const PROFILE_OUT: Scope = Scope(&["run", "inline"],
        "commands that save the profile they collect (run, inline)");
    pub(super) const IL_DUMP: Scope = Scope(&["compile", "inline"],
        "commands that print IL (compile, inline)");
    pub(super) const DEADLINE: Scope = Scope(&["batch", "serve"],
        "commands that give each compile a deadline (batch, serve)");
    pub(super) const RETRY: Scope = Scope(&["batch", "request"],
        "the commands that retry (batch supervision, request client)");
    pub(super) const REPORTS: Scope = Scope(&["bench", "batch", "fuzz", "serve"],
        "commands that write reports to a directory (the bench suite, batch, fuzz, serve)");
    pub(super) const UNITS: Scope = Scope(&["batch"],
        "`batch` (the command with a unit list)");
    pub(super) const SEED: Scope = Scope(&["fuzz"],
        "`fuzz` (the command that generates its programs)");
    pub(super) const ENGINE: Scope = Scope(&["run", "inline", "callgraph", "bench", "bench NAME", "batch", "serve"],
        "commands that run the program on one chosen VM engine (run, inline, callgraph, bench, batch, serve)");
    pub(super) const ICACHE: Scope = Scope(&["run"],
        "`run` (the command that reports instruction-cache statistics)");
    pub(super) const CAMPAIGN: Scope = Scope(&["batch", "fuzz"],
        "campaign commands (batch, fuzz)");
    pub(super) const AUDIT: Scope = Scope(&["inline"],
        "`inline` (the command that plans inline expansion)");
    pub(super) const TELEMETRY: Scope = Scope(&["inline", "bench", "bench NAME", "batch", "fuzz", "serve", "request"],
        "pipeline commands (inline, bench, batch, fuzz, serve, request)");
    pub(super) const SERVICE: Scope = Scope(&["batch", "serve"],
        "service commands (batch, serve)");
    pub(super) const QUEUE: Scope = Scope(&["serve"],
        "`serve` (the command with a bounded request queue)");
    pub(super) const LISTENERS: Scope = Scope(&["serve"],
        "`serve` (the daemon that binds listeners)");
    pub(super) const FLIGHT: Scope = Scope(&["serve"],
        "`serve` (the daemon that keeps the event ring)");
    pub(super) const FLEET: Scope = Scope(&["batch"],
        "`batch` (shipping units to a daemon fleet)");
    pub(super) const CLIENT: Scope = Scope(&["request"],
        "`request` (the client talking to a serve daemon)");
    pub(super) const STATS: Scope = Scope(&["request"],
        "`request` (the client interrogating a serve daemon)");
}
use scopes::*;

const NUMBER: Option<&str> = Some("a number");
const PATH: Option<&str> = Some("a path");
const SWITCH: Option<&str> = None;

/// Builds the rows: `name takes, field, scope, identity;`.
macro_rules! flags {
    ($($name:literal $takes:expr, $field:ident, $scope:ident, $identity:ident;)*) => {
        [$(Flag {
            name: $name,
            takes: $takes,
            field: |o| &mut o.$field,
            view: |o| &o.$field,
            scope: $scope,
            identity: Identity::$identity,
        }),*]
    };
}

/// Every flag `impactc` accepts. The identity dumps list their rows in
/// this order, which is the order they had before the table: reordering
/// rows changes every cache key and campaign fingerprint.
#[rustfmt::skip]
pub(crate) static FLAGS: &[Flag] = &flags! {
    // The repeatable flags: the identity dumps write their lines by hand
    // (per-run inputs and args, fault specs filtered by domain).
    "--input"              Some("name=path"),        inputs,             PROGRAM_RUNS, Neither;
    "--arg"                Some("a value"),          args,               PROGRAM_RUNS, Neither;
    "--fault"              Some("KEY[=N]"),          faults,             FAULTS,       Neither;
    "--threshold"          NUMBER,                   threshold,          EXPANSION,    Both;
    "--budget"             NUMBER,                   budget,             EXPANSION,    Both;
    "--stack-bound"        NUMBER,                   stack_bound,        EXPANDER,     Both;
    "--linearize"          Some("a strategy"),       linearization,      EXPANDER,     Both;
    "--promote-indirect"   SWITCH,                   promote_indirect,   EXPANDER,     Both;
    "--opt"                SWITCH,                   opt,                OPT,          Both;
    "--fuel"               NUMBER,                   fuel,               GOVERNOR,     Both;
    "--mem-limit"          NUMBER,                   mem_limit,          GOVERNOR,     Both;
    "--profile-in"         PATH,                     profile_in,         PROFILE_IN,   CacheKey;
    "--profile-out"        PATH,                     profile_out,        PROFILE_OUT,  CacheKey;
    "--quiet"              SWITCH,                   quiet,              IL_DUMP,      CacheKey;
    "--time-limit-ms"      NUMBER,                   time_limit_ms,      DEADLINE,     Campaign;
    "--retries"            NUMBER,                   retries,            RETRY,        Campaign;
    "--retry-base-ms"      NUMBER,                   retry_base_ms,      RETRY,        Campaign;
    "--report-dir"         PATH,                     report_dir,         REPORTS,      Campaign;
    "--fault-unit"         Some("a name"),           fault_unit,         UNITS,        Campaign;
    "--workloads"          SWITCH,                   workloads,          UNITS,        Campaign;
    "--seed"               NUMBER,                   seed,               SEED,         Campaign;
    "--engine"             Some("a name"),           engine,             ENGINE,       Neither;
    "--icache"             SWITCH,                   icache,             ICACHE,       Neither;
    "--journal"            PATH,                     journal,            CAMPAIGN,     Neither;
    "--resume"             SWITCH,                   resume,             CAMPAIGN,     Neither;
    "--force-resume"       SWITCH,                   force_resume,       CAMPAIGN,     Neither;
    "--explain"            SWITCH,                   explain,            AUDIT,        Neither;
    "--decisions-out"      PATH,                     decisions_out,      AUDIT,        Neither;
    "--trace-out"          PATH,                     trace_out,          TELEMETRY,    Neither;
    "--metrics-out"        PATH,                     metrics_out,        TELEMETRY,    Neither;
    "--jobs"               NUMBER,                   jobs,               SERVICE,      Neither;
    "--cache-dir"          PATH,                     cache_dir,          SERVICE,      Neither;
    "--cache-budget-bytes" NUMBER,                   cache_budget_bytes, SERVICE,      Neither;
    "--queue-depth"        NUMBER,                   queue_depth,        QUEUE,        Neither;
    "--tcp"                Some("HOST:PORT"),        tcp,                LISTENERS,    Neither;
    "--max-conns"          NUMBER,                   max_conns,          LISTENERS,    Neither;
    "--flight-recorder"    Some("a capacity"),       flight_recorder,    FLIGHT,       Neither;
    "--remote"             Some("an endpoint list"), remote,             FLEET,        Neither;
    "--deadline-ms"        NUMBER,                   deadline_ms,        CLIENT,       Neither;
    "--ping"               SWITCH,                   ping,               CLIENT,       Neither;
    "--stats"              SWITCH,                   stats,              STATS,        Neither;
    "--stats-prom"         SWITCH,                   stats_prom,         STATS,        Neither;
    "--stats-json"         SWITCH,                   stats_json,         STATS,        Neither;
};

#[cfg(test)]
mod tests {
    use super::*;

    const COMMANDS: &[&str] = &[
        "compile",
        "run",
        "inline",
        "callgraph",
        "bench",
        "bench NAME",
        "batch",
        "fuzz",
        "serve",
        "request",
    ];

    /// `command FLAG [VALUE]`, parsed; `bench NAME` becomes `bench grep`.
    fn given(command: &str, flag: &Flag) -> Options {
        let mut argv: Vec<String> = command
            .replace("NAME", "grep")
            .split(' ')
            .map(String::from)
            .collect();
        argv.push(flag.name.to_string());
        match flag.takes {
            Some("name=path") => argv.push("k=v".to_string()),
            Some(_) => argv.push("1".to_string()),
            None => {}
        }
        Options::parse(&argv).unwrap()
    }

    #[test]
    fn every_flag_applies_to_exactly_its_commands() {
        for flag in FLAGS {
            for c in flag.scope.0 {
                assert!(COMMANDS.contains(c), "{}: unknown command `{c}`", flag.name);
            }
            for &command in COMMANDS {
                let scoped = check_scope(&given(command, flag));
                if flag.scope.0.contains(&command) {
                    assert!(scoped.is_ok(), "{} on {command}: {scoped:?}", flag.name);
                    continue;
                }
                let err = scoped.unwrap_err();
                let (group, rest) = err.split_once(" only ").unwrap();
                assert!(group.split('/').any(|n| n == flag.name), "{err}");
                assert!(rest.starts_with("appl"), "{err}");
                let shown = command.split(' ').next().unwrap();
                assert!(err.ends_with(&format!(", not `{shown}`")), "{err}");
            }
        }
    }

    #[test]
    fn usage_documents_exactly_the_table() {
        let text = crate::usage();
        let mut words: Vec<&str> = text
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.starts_with("--"))
            .collect();
        words.sort_unstable();
        words.dedup();
        let mut names: Vec<&str> = FLAGS.iter().map(|f| f.name).collect();
        names.sort_unstable();
        assert_eq!(words, names);
    }
}
