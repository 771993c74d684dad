//! Parallel-campaign robustness matrix: `impactc batch --jobs 4` must be
//! observationally identical to a serial run — same summary, same report
//! set — and the crash→resume guarantees of the journal must hold under
//! concurrent unit completion:
//!
//! 1. a campaign killed mid-flight at any journal append leaves a
//!    replayable journal (the single-writer design means only the *tail*
//!    can be torn, never an interior record) and no torn report
//!    artifacts, and
//! 2. `--resume --jobs 4` reproduces the uninterrupted **serial** run's
//!    summary and reports byte-for-byte (modulo `; journal:` lines and
//!    wall-clock fields), because rendering is in canonical unit order
//!    and per-unit timings are journaled, not re-measured.
//!
//! The artifact cache rides the same harness: a bit-flipped cache entry
//! must be detected, quarantined with an incident report, and
//! transparently recompiled — never served.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_impactc");

struct RunResult {
    /// `None` when the process died on a signal (SIGABRT from a kill
    /// point); `Some(code)` for a normal exit.
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

fn impactc<S: AsRef<std::ffi::OsStr>>(args: &[S]) -> RunResult {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn impactc");
    RunResult {
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("impactc-parallel-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Drops `; journal:` status lines, rewrites the report dir to a
/// placeholder, and normalizes elapsed-time tokens plus the column
/// padding they shift (see `crash_recovery.rs` for the rationale).
fn canon(s: &str, report_dir: &Path) -> String {
    let kept = s
        .lines()
        .filter(|l| !l.starts_with("; journal:"))
        .map(|l| format!("{l}\n"))
        .collect::<String>()
        .replace(report_dir.to_str().unwrap(), "<REPORT_DIR>");
    collapse_spaces(&normalize_ms(&kept))
}

/// Replaces every `<digits>ms` token with `<N>ms`.
fn normalize_ms(s: &str) -> String {
    let pieces: Vec<&str> = s.split("ms").collect();
    let mut out = String::with_capacity(s.len());
    for (i, piece) in pieces.iter().enumerate() {
        if i > 0 {
            out.push_str("ms");
        }
        let head = piece.trim_end_matches(|c: char| c.is_ascii_digit());
        if i + 1 < pieces.len() && head.len() < piece.len() {
            out.push_str(head);
            out.push_str("<N>");
        } else {
            out.push_str(piece);
        }
    }
    out
}

/// Collapses runs of spaces to a single space.
fn collapse_spaces(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut prev_space = false;
    for c in s.chars() {
        if c == ' ' {
            if !prev_space {
                out.push(c);
            }
            prev_space = true;
        } else {
            prev_space = false;
            out.push(c);
        }
    }
    out
}

/// Zeroes every `"wall_ms": N` in a JSON report.
fn normalize_wall_ms(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find("\"wall_ms\": ") {
        let tail = &rest[i + "\"wall_ms\": ".len()..];
        let digits = tail.chars().take_while(char::is_ascii_digit).count();
        out.push_str(&rest[..i]);
        out.push_str("\"wall_ms\": 0");
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

/// Snapshot of a report dir: file name → normalized content.
fn snapshot(dir: &Path) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    if !dir.is_dir() {
        return map;
    }
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        if entry.path().is_dir() || name == "campaign.manifest" {
            continue;
        }
        let text = std::fs::read_to_string(entry.path()).unwrap();
        map.insert(
            name,
            normalize_wall_ms(&text).replace(dir.to_str().unwrap(), "<REPORT_DIR>"),
        );
    }
    map
}

/// Post-kill invariant: no torn *published* artifact — no `*.tmp`
/// outside `.staging/`, every published JSON document complete. The
/// `.staging/` scratch area is excluded: a parallel kill can interrupt
/// a pool worker mid-staging-write (the abort fires on the journal
/// thread while compiles are in flight), and the crash-consistency
/// contract is that such in-flight files are never *published* and are
/// scrubbed on the next campaign start (`assert_staging_scrubbed`).
fn assert_no_torn_artifacts(dir: &Path) {
    if !dir.is_dir() {
        return;
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let p = entry.unwrap().path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n == ".staging") {
                    continue;
                }
                stack.push(p);
                continue;
            }
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            assert!(
                !name.ends_with(".tmp"),
                "torn staging file visible after kill: {}",
                p.display()
            );
            if name.ends_with(".json") {
                let text = std::fs::read_to_string(&p).unwrap();
                let opens = text.matches('{').count();
                let closes = text.matches('}').count();
                assert!(
                    opens > 0 && opens == closes && text.ends_with('\n'),
                    "truncated JSON visible after kill: {} ({opens} open / {closes} close braces)",
                    p.display()
                );
            }
        }
    }
}

/// After a completed (resumed) campaign, even the scratch area is
/// clean: campaign start scrubs staging leftovers a crash stranded.
fn assert_staging_scrubbed(dir: &Path) {
    let staging = dir.join(".staging");
    if !staging.is_dir() {
        return;
    }
    if let Some(entry) = std::fs::read_dir(&staging).unwrap().next() {
        panic!(
            "stale staging file survived the resumed campaign: {}",
            entry.unwrap().path().display()
        );
    }
}

/// A killed campaign's journal must still replay: the pool design keeps
/// appends on a single thread, so an abort mid-append can tear only the
/// final record — never interleave records of concurrently-finishing
/// units.
fn assert_journal_replayable(journal: &Path) {
    let text = std::fs::read_to_string(journal).unwrap_or_default();
    if let Err(e) = impact_driver::journal::replay(&text) {
        panic!(
            "killed parallel campaign left an unreplayable journal ({e}): {}",
            journal.display()
        );
    }
}

fn write_units(dir: &Path) -> Vec<String> {
    let units = [
        (
            "alpha.c",
            "int sq(int x) { return x * x; }\n\
             int main() { int i; int s; s = 0; for (i = 0; i < 40; i++) s += sq(i); return s & 0xff; }",
        ),
        (
            "beta.c",
            "int tri(int x) { return x + x + x; }\n\
             int main() { int i; int s; s = 0; for (i = 0; i < 40; i++) s += tri(i); return s & 0xff; }",
        ),
        (
            "gamma.c",
            "int half(int x) { return x / 2; }\n\
             int main() { int i; int s; s = 0; for (i = 0; i < 40; i++) s += half(i); return s & 0xff; }",
        ),
    ];
    units
        .iter()
        .map(|(name, text)| {
            let p = dir.join(name);
            std::fs::write(&p, text).unwrap();
            p.to_str().unwrap().to_string()
        })
        .collect()
}

/// Shared flag set: beta quarantines via an injected verifier fault, so
/// the batch exercises ok units, a failing unit, and crash reporting.
fn batch_args<'a>(
    units: &'a [String],
    beta: &'a str,
    report: &'a str,
    journal: &'a str,
) -> Vec<&'a str> {
    let mut v: Vec<&str> = vec!["batch"];
    v.extend(units.iter().map(String::as_str));
    v.extend([
        "--retries",
        "0",
        "--fault",
        "inline:verify",
        "--fault-unit",
        beta,
        "--report-dir",
        report,
        "--journal",
        journal,
    ]);
    v
}

#[test]
fn parallel_batch_matches_serial_batch_exactly() {
    let dir = tmp_dir("vs-serial");
    let units = write_units(&dir);
    let beta = units[1].clone();

    let serial_report = dir.join("serial-reports");
    let serial_journal = dir.join("serial.journal");
    let serial = impactc(&batch_args(
        &units,
        &beta,
        serial_report.to_str().unwrap(),
        serial_journal.to_str().unwrap(),
    ));
    assert_eq!(serial.code, Some(10), "serial baseline: {}", serial.stderr);

    let par_report = dir.join("par-reports");
    let par_journal = dir.join("par.journal");
    let mut args = batch_args(
        &units,
        &beta,
        par_report.to_str().unwrap(),
        par_journal.to_str().unwrap(),
    );
    args.extend(["--jobs", "4"]);
    let parallel = impactc(&args);
    assert_eq!(parallel.code, Some(10), "parallel run: {}", parallel.stderr);

    assert_eq!(
        canon(&parallel.stdout, &par_report),
        canon(&serial.stdout, &serial_report),
        "parallel summary diverged from serial"
    );
    assert_eq!(
        snapshot(&par_report),
        snapshot(&serial_report),
        "parallel report set diverged from serial"
    );
}

#[test]
fn parallel_crash_resume_matrix_is_exact() {
    let dir = tmp_dir("kill-matrix");
    let units = write_units(&dir);
    let beta = units[1].clone();

    // The comparison baseline is the uninterrupted SERIAL run: a resumed
    // parallel campaign must match it, proving jobs count changes nothing
    // observable.
    let base_report = dir.join("base-reports");
    let base_journal = dir.join("base.journal");
    let base = impactc(&batch_args(
        &units,
        &beta,
        base_report.to_str().unwrap(),
        base_journal.to_str().unwrap(),
    ));
    assert_eq!(base.code, Some(10), "baseline: {}", base.stderr);
    let base_stdout = canon(&base.stdout, &base_report);
    let base_files = snapshot(&base_report);

    for class in ["journal:crash", "journal:torn", "journal:crash-after"] {
        let mut crashed_at_least_once = false;
        for n in 1..=16u32 {
            let tag = format!("{}-{n}", class.replace(':', "-"));
            let report = dir.join(format!("reports-{tag}"));
            let journal = dir.join(format!("{tag}.journal"));
            let report_s = report.to_str().unwrap().to_string();
            let journal_s = journal.to_str().unwrap().to_string();
            let kill = format!("{class}={n}");
            let mut args = batch_args(&units, &beta, &report_s, &journal_s);
            args.extend(["--jobs", "4", "--fault", &kill]);
            let killed = impactc(&args);
            if killed.code.is_some() {
                assert_eq!(killed.code, Some(10), "{tag}: {}", killed.stderr);
                assert!(n > 1, "{class} never fired");
                break;
            }
            crashed_at_least_once = true;
            assert_no_torn_artifacts(&report);
            assert_journal_replayable(&journal);

            let mut args = batch_args(&units, &beta, &report_s, &journal_s);
            args.extend(["--jobs", "4", "--resume"]);
            let resumed = impactc(&args);
            assert_eq!(
                resumed.code,
                Some(10),
                "{tag} resume failed: {}",
                resumed.stderr
            );
            assert_eq!(
                canon(&resumed.stdout, &report),
                base_stdout,
                "{tag}: resumed parallel summary diverged from the serial run"
            );
            assert_eq!(
                snapshot(&report),
                base_files,
                "{tag}: resumed parallel report set diverged from the serial run"
            );
            assert_no_torn_artifacts(&report);
            assert_staging_scrubbed(&report);
        }
        assert!(crashed_at_least_once, "{class} fired for no kill index");
    }
}

#[test]
fn jobs_count_is_excluded_from_the_campaign_fingerprint() {
    let dir = tmp_dir("fingerprint-jobs");
    let units = write_units(&dir);
    let beta = units[1].clone();

    let base_report = dir.join("base-reports");
    let base_journal = dir.join("base.journal");
    let base = impactc(&batch_args(
        &units,
        &beta,
        base_report.to_str().unwrap(),
        base_journal.to_str().unwrap(),
    ));
    assert_eq!(base.code, Some(10), "baseline: {}", base.stderr);
    let base_stdout = canon(&base.stdout, &base_report);
    let base_files = snapshot(&base_report);

    // Kill a SERIAL campaign mid-flight, then resume it with --jobs 4:
    // the service knobs are operator tuning, not campaign identity, so
    // the fingerprint check must accept the switch.
    let report = dir.join("reports-switch");
    let journal = dir.join("switch.journal");
    let report_s = report.to_str().unwrap().to_string();
    let journal_s = journal.to_str().unwrap().to_string();
    let mut args = batch_args(&units, &beta, &report_s, &journal_s);
    args.extend(["--fault", "journal:crash=3"]);
    let killed = impactc(&args);
    assert_eq!(killed.code, None, "the kill point must abort the process");

    let mut args = batch_args(&units, &beta, &report_s, &journal_s);
    args.extend(["--jobs", "4", "--resume"]);
    let resumed = impactc(&args);
    assert_eq!(
        resumed.code,
        Some(10),
        "serial campaign must resume under --jobs 4: {}",
        resumed.stderr
    );
    assert_eq!(canon(&resumed.stdout, &report), base_stdout);
    assert_eq!(snapshot(&report), base_files);
}

#[test]
fn corrupted_cache_entry_is_quarantined_and_recompiled() {
    let dir = tmp_dir("cache-corruption");
    let units = write_units(&dir);
    let cache = dir.join("cache");
    let cache_s = cache.to_str().unwrap().to_string();
    let run = |extra: &[&str]| {
        let mut args: Vec<&str> = vec!["batch"];
        args.extend(units.iter().map(String::as_str));
        args.extend(["--cache-dir", &cache_s]);
        args.extend(extra);
        impactc(&args)
    };

    // Cold run populates the cache; the units exit 0, so the whole batch
    // does too.
    let cold = run(&[]);
    assert_eq!(cold.code, Some(0), "cold run: {}", cold.stderr);
    assert!(
        !cold.stdout.contains("; cache:"),
        "cold run emitted a cache note: {}",
        cold.stdout
    );
    let entries: Vec<PathBuf> = std::fs::read_dir(&cache)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().is_some_and(|x| x == "entry")).then_some(p)
        })
        .collect();
    assert_eq!(entries.len(), 3, "one cache entry per unit");

    // Warm run: byte-identical summary (cache hits record zero elapsed
    // time, and elapsed tokens are normalized either way), and the
    // metrics counters prove every unit was served from cache.
    let metrics = dir.join("warm-metrics.json");
    let warm = run(&["--metrics-out", metrics.to_str().unwrap()]);
    assert_eq!(warm.code, Some(0), "warm run: {}", warm.stderr);
    assert_eq!(
        canon(&warm.stdout, &dir),
        canon(&cold.stdout, &dir),
        "warm summary diverged from cold"
    );
    let metrics_text = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        metrics_text.contains("\"name\": \"cache:hits\", \"value\": 3"),
        "warm run did not hit the cache 3 times: {metrics_text}"
    );

    // Flip one payload bit in one entry. The corrupted entry must never
    // be served: the run detects it, quarantines it with an incident
    // report, recompiles, and re-stores a good entry.
    let victim = &entries[0];
    let mut bytes = std::fs::read(victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(victim, &bytes).unwrap();

    // The startup scan-and-validate catches the corruption before any
    // lookup: the entry is quarantined (counted in the metrics, with
    // the incident report as the durable record) and the unit
    // recompiles — never served the bad bytes.
    let metrics_rec = dir.join("recovery-metrics.json");
    let recovered = run(&["--metrics-out", metrics_rec.to_str().unwrap()]);
    assert_eq!(
        recovered.code,
        Some(0),
        "recovery run: {}",
        recovered.stderr
    );
    let metrics_rec_text = std::fs::read_to_string(&metrics_rec).unwrap();
    assert!(
        metrics_rec_text.contains("\"name\": \"cache:quarantined\", \"value\": 1"),
        "corruption was not reported: {metrics_rec_text}"
    );
    let stem = victim.file_stem().unwrap().to_str().unwrap();
    assert!(
        cache.join(format!("{stem}.quarantined")).is_file(),
        "corrupt entry was not moved aside"
    );
    let incident = cache.join(format!("{stem}.incident.json"));
    let incident_text = std::fs::read_to_string(&incident).expect("incident report written");
    assert!(
        incident_text.contains("cache-incident"),
        "incident report malformed: {incident_text}"
    );
    assert!(
        victim.is_file(),
        "recompiled result was not re-stored under the same key"
    );

    // And the re-stored entry serves clean hits again.
    let metrics2 = dir.join("rewarm-metrics.json");
    let rewarm = run(&["--metrics-out", metrics2.to_str().unwrap()]);
    assert_eq!(rewarm.code, Some(0), "re-warm run: {}", rewarm.stderr);
    assert!(
        !rewarm.stdout.contains("; cache: quarantined"),
        "re-warm run still sees corruption: {}",
        rewarm.stdout
    );
    let metrics2_text = std::fs::read_to_string(&metrics2).unwrap();
    assert!(
        metrics2_text.contains("\"name\": \"cache:hits\", \"value\": 3"),
        "re-warm run did not hit the cache 3 times: {metrics2_text}"
    );
}
