//! `perfbench`: the repository benchmark. One invocation runs one
//! workload for a fixed time, checks every output, and prints every
//! metric with its unit; the last stdout line is one JSON object.
//!
//! ```text
//! perfbench --workload suite|units --seed N --seconds S --trace 0|1
//! perfbench compare PARENT_DIR CHANGE_DIR
//! ```
//!
//! See `README.md` beside this package for the workloads and metrics.

mod compare;
mod compile;
mod json;
mod metrics;
mod report;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use metrics::{Metric, Values, END_TO_END, PER_LAYER};
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload suite|units --seed N --seconds S --trace 0|1\n\
                     \x20      perfbench compare PARENT_DIR CHANGE_DIR";

/// A checked command line.
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{val}` for `{flag}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    ["suite", "units"]
                        .into_iter()
                        .find(|w| w == val)
                        .ok_or_else(bad)?,
                )
            }
            "--seed" => seed = Some(val.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        traced: traced.unwrap_or(false),
    })
}

/// CPU time the calling thread has consumed, in seconds
/// (`CLOCK_THREAD_CPUTIME_ID`). The end-to-end timings use it rather
/// than wall time: on a guest kernel with paravirtual steal accounting
/// it leaves out the time the hypervisor ran other tenants on this
/// vCPU, which wall time counts. Every timed compile is single-threaded,
/// in process and free of I/O, so nothing else separates the two.
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a writable 64-bit Linux `timespec`, and the clock
    // id names the calling thread's CPU clock, which always exists.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set (`VmHWM`) of process `pid` (or `self`), in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        match argv.get(1..) {
            Some([p, c]) => match compare::compare_dirs(Path::new(p), Path::new(c)) {
                Ok(table) => print!("{table}"),
                Err(e) => {
                    eprintln!("perfbench compare: {e}");
                    std::process::exit(1);
                }
            },
            _ => {
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs one workload from a private working directory under
/// `.perfbench/` (the pipeline may leave scratch files in its cwd), then
/// prints the results. Returns whether every output checked out.
fn run(a: &Args) -> Result<bool, String> {
    let root = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    let out_dir = root.join(".perfbench");
    let work = out_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("mkdir {}: {e}", work.display()))?;
    std::env::set_current_dir(&work).map_err(|e| format!("cd {}: {e}", work.display()))?;
    let mut t = Tracer::new(Instant::now(), a.traced);
    let outcome = compile::run(a.workload, a.seed, a.seconds, &mut t);
    std::env::set_current_dir(&root).map_err(|e| format!("cd back: {e}"))?;
    let _ = std::fs::remove_dir_all(&work);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} available_parallelism={threads}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.traced)
    );
    for p in &outcome.problems {
        println!("FAILED: {p}");
    }
    let table: &[Metric] = if a.traced { PER_LAYER } else { END_TO_END };
    for m in table {
        println!(
            "  {:<28} {:>16.4} {:<9} ({} is better)",
            m.name,
            value(&outcome.values, m.name),
            m.unit,
            m.better.as_str()
        );
    }
    if !a.traced {
        println!("  {}", outcome.latency_note);
    }
    if let Some(n) = outcome.values.get("opt.fixpoint_incidents") {
        println!("  reports carry {n} opt:fixpoint diagnostics (counted, not failed)");
    }
    if a.traced {
        let path = trace_path(&out_dir, a);
        std::fs::write(&path, trace::chrome_json(t.spans(), a.workload))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        print!("{}", attribution(&t));
        println!("chrome trace: {}", path.display());
    }
    println!(
        "digest {} seed={} fnv1a64={:016x}",
        a.workload, a.seed, outcome.digest
    );
    if !outcome.per_program.is_empty() {
        let mut line = String::from("{");
        for (i, (name, ms)) in outcome.per_program.iter().enumerate() {
            if i > 0 {
                line.push_str(", ");
            }
            json::write_str(&mut line, name);
            let _ = write!(line, ": {ms}");
        }
        println!("{}{line}}}", compare::PROGRAMS_PREFIX);
    }
    let correct = outcome.failed == 0;
    println!(
        "{}",
        result_line(
            correct,
            outcome.attempted,
            outcome.failed,
            table,
            &outcome.values
        )
    );
    Ok(correct)
}

/// A metric's value; absent metrics are 0, and `+ 0.0` turns the
/// `-0.0` an empty float sum yields into `0`.
fn value(v: &Values, name: &str) -> f64 {
    v.get(name).copied().unwrap_or(0.0) + 0.0
}

fn trace_path(out_dir: &Path, a: &Args) -> PathBuf {
    out_dir.join(format!("trace-{}-{}.json", a.workload, a.seed))
}

/// The final result line.
fn result_line(correct: bool, attempted: u64, failed: u64, table: &[Metric], v: &Values) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in table.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        json::write_str(&mut s, m.name);
        let _ = write!(s, ": {{\"value\": {}, \"unit\": ", value(v, m.name));
        json::write_str(&mut s, m.unit);
        s.push('}');
    }
    s.push_str("}}");
    s
}

/// Self time per span name across the traced run, largest first, as a
/// share of all recorded span time.
fn attribution(t: &Tracer) -> String {
    let st = trace::self_times(t.spans());
    let total: u64 = st.values().sum();
    let mut rows: Vec<(&String, &u64)> = st.iter().collect();
    rows.sort_by(|a, b| b.1.cmp(a.1));
    let mut out = String::from("self time by span (traced half):\n");
    for (name, us) in rows {
        let _ = writeln!(
            out,
            "  {name:<28} {:>12.1} ms {:>6.1}%",
            *us as f64 / 1e3,
            100.0 * *us as f64 / total.max(1) as f64
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_contract_command_line() {
        let a = parse_args(&argv("--workload units --seed 7 --seconds 10 --trace 1")).expect("ok");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.traced),
            ("units", 7, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload suite --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload suite --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload suite --seconds 1")).is_err());
    }

    #[test]
    fn thread_cpu_clock_advances_with_work_and_not_with_sleep() {
        let t0 = thread_cpu_s();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = thread_cpu_s() - t0;
        let t1 = thread_cpu_s();
        let mut x = 1u64;
        while thread_cpu_s() - t1 < 0.02 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(slept < 0.02, "sleeping cost {slept} s of CPU");
        assert!(thread_cpu_s() - t1 >= 0.02);
    }

    #[test]
    fn result_line_has_every_metric_with_its_unit() {
        let mut v = Values::new();
        v.insert("setup_s", 0.5);
        let line = result_line(true, 3, 0, END_TO_END, &v);
        let doc = json::parse(&line).expect("valid JSON");
        let m = doc.get("metrics").expect("metrics");
        for metric in END_TO_END {
            assert_eq!(
                m.get(metric.name)
                    .and_then(|x| x.get("unit"))
                    .and_then(json::Value::str),
                Some(metric.unit)
            );
        }
    }
}
