//! The service layer, measured in the `units` workload's traced run: a
//! real `impactc serve` daemon driven in a closed loop by two client
//! threads through the public client functions `write_request`,
//! `write_ping` and `read_response`.
//!
//! It is not an end-to-end workload of its own. The daemon's accept
//! loop sleeps 5 ms whenever no connection is pending, and with two
//! clients it usually is idle, so client latency depends on where each
//! connect lands in that sleep. Together with the host's scheduling
//! noise on a 2-core VM shared with other tenants, this made the closed
//! loop's p90 latency spread 0.40–0.55 over repeated identical runs,
//! above any bound a regression gate can use;
//! with `--cache-dir`, every cache read also pays two `fsync`s whose
//! latency drifted 2× from minute to minute. The per-layer metrics have
//! no bound, so they still attribute the service's time.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use impact_driver::serve::{read_response, write_ping, write_request, Response};
use impact_driver::Options;

use crate::compile::{Outcome, Unit};
use crate::metrics::Values;
use crate::stats::{self, splitmix};
use crate::trace::{Span, Tracer};

/// Programs that repeat. Before the cached phase they are warmed into
/// the cache, so every request for one there is a cache read.
const HOT_SET: usize = 256;

/// One request in this many is a first-seen program; in the cached
/// phase it compiles and then writes a cache entry.
const MISS_EVERY: u64 = 4;

/// Client threads, each holding one connection at a time.
const CLIENTS: usize = 2;

/// Per-request socket timeout: a wedged daemon fails the run instead of
/// hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// A daemon child process; dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    sock: PathBuf,
    dir: PathBuf,
    /// Pings that reached the daemon (each counts as a request in its
    /// drain summary).
    pings: u64,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The daemon's command line: the socket inside `dir`, default
/// `--jobs`, and with `cached` a cache directory inside `dir`.
fn daemon_argv(dir: &Path, cached: bool) -> Vec<String> {
    let mut argv = vec![
        "serve".to_string(),
        dir.join("s.sock").display().to_string(),
    ];
    if cached {
        argv.push("--cache-dir".to_string());
        argv.push(dir.join("cache").display().to_string());
    }
    argv
}

/// The per-request pipeline flags the daemon derives from its own
/// command line (quiet, no positional arguments).
fn request_options(argv: &[String]) -> Options {
    let mut o = Options::parse(argv).expect("the daemon's fixed flags parse");
    o.quiet = true;
    o.positional.clear();
    o
}

fn impactc() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let p = me.with_file_name("impactc");
    p.exists()
        .then_some(p)
        .ok_or_else(|| "impactc is not built beside perfbench".to_string())
}

impl Daemon {
    /// Starts a daemon in `dir` and waits until a ping reports healthy.
    fn start(dir: PathBuf, cached: bool) -> Result<Daemon, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        let stderr = File::create(dir.join("daemon.stderr")).map_err(|e| e.to_string())?;
        let child = Command::new(impactc()?)
            .args(daemon_argv(&dir, cached))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start impactc serve: {e}"))?;
        let mut d = Daemon {
            child,
            sock: dir.join("s.sock"),
            dir,
            pings: 0,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = d.child.try_wait() {
                return Err(format!(
                    "daemon exited {status} before it was ready{}",
                    d.stderr_tail()
                ));
            }
            if d.sock.exists() {
                if let Ok(r) = d.ping() {
                    if r.status == "ok" && r.exit == 0 {
                        return Ok(d);
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err(format!("daemon not ready within 20s{}", d.stderr_tail()))
    }

    fn ping(&mut self) -> Result<Response, String> {
        let s = connect(&self.sock)?;
        self.pings += 1;
        write_ping(&mut BufWriter::new(&s), 1).map_err(|e| e.to_string())?;
        read_response(&mut BufReader::new(&s))
    }

    fn stderr_tail(&self) -> String {
        let text = std::fs::read_to_string(self.dir.join("daemon.stderr")).unwrap_or_default();
        if text.is_empty() {
            String::new()
        } else {
            format!("; daemon stderr:\n{text}")
        }
    }

    /// SIGTERM, wait for the graceful drain, and return the drain
    /// summary's `(requests, ok, errors)`.
    fn shutdown(mut self) -> Result<(u64, u64, u64), String> {
        let pid = self.child.id().to_string();
        let sent = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .map_err(|e| format!("kill -TERM: {e}"))?;
        if !sent.success() {
            return Err("kill -TERM failed".to_string());
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(st)) => break st,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("daemon did not drain within 30s of SIGTERM".to_string()),
            }
        };
        let mut out = String::new();
        if let Some(mut so) = self.child.stdout.take() {
            let _ = so.read_to_string(&mut out);
        }
        if !status.success() {
            return Err(format!("daemon exited {status}{}", self.stderr_tail()));
        }
        crate::report::parse_drained(&out)
            .ok_or_else(|| format!("no drain summary in daemon output: {out:?}"))
    }
}

fn connect(sock: &Path) -> Result<UnixStream, String> {
    let s = UnixStream::connect(sock).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| s.set_write_timeout(Some(IO_TIMEOUT)))
        .map_err(|e| format!("socket timeout: {e}"))?;
    Ok(s)
}

/// One compile request, timed from connect until the response is read.
fn request(sock: &Path, u: &Unit, id: u64, trace: u64) -> Result<(Response, f64), String> {
    let t0 = Instant::now();
    let s = connect(sock)?;
    write_request(&mut BufWriter::new(&s), &u.sources, id, trace).map_err(|e| e.to_string())?;
    let r = read_response(&mut BufReader::new(&s))?;
    Ok((r, t0.elapsed().as_secs_f64() * 1e3))
}

/// What one request saw.
struct Sample {
    latency_ms: f64,
    cached: bool,
    /// Durations of the daemon's spans for this request, by name.
    daemon_us: BTreeMap<String, u64>,
}

impl Sample {
    fn span_us(&self, name: &str) -> f64 {
        self.daemon_us.get(name).copied().unwrap_or(0) as f64
    }
}

/// The request corpus: hot programs and first-seen ones, with their
/// local reference reports.
struct Corpus<'a> {
    hot: &'a [Unit],
    misses: &'a [Unit],
    hot_refs: &'a [String],
    miss_refs: &'a [String],
}

/// Shared state of one closed-loop phase.
struct Loop<'a> {
    corpus: &'a Corpus<'a>,
    sock: &'a Path,
    seed: u64,
    next: AtomicU64,
    next_miss: AtomicU64,
    phase0: Instant,
    seconds: f64,
}

/// What one client thread, or a whole phase, saw.
#[derive(Default)]
struct Phase {
    samples: Vec<Sample>,
    attempted: u64,
    failed: Vec<String>,
    busy: u64,
    /// The daemon's peak resident set, read before SIGTERM.
    daemon_rss_mb: f64,
}

/// One client thread: traced requests back to back until the phase
/// ends or the first-seen programs run out. Every `ok` payload must be
/// byte-equal to the local reference report.
fn client(l: &Loop, t: &mut Tracer) -> Phase {
    let c = l.corpus;
    let mut res = Phase::default();
    while l.phase0.elapsed().as_secs_f64() < l.seconds {
        let r = l.next.fetch_add(1, Ordering::Relaxed);
        let (unit, want) = if r % MISS_EVERY == MISS_EVERY - 1 {
            let m = l.next_miss.fetch_add(1, Ordering::Relaxed) as usize;
            let Some(u) = c.misses.get(m) else { break };
            (u, &c.miss_refs[m])
        } else {
            let h = splitmix(l.seed ^ r.wrapping_mul(0x2545_f491_4f6c_dd1d)) % c.hot.len() as u64;
            (&c.hot[h as usize], &c.hot_refs[h as usize])
        };
        let id = splitmix(l.seed.wrapping_add(r << 1));
        let trace = splitmix(l.seed.wrapping_add((r << 1) | 1));
        res.attempted += 1;
        let start_us = t.now_us();
        let out = t.span("client:request", &unit.name, |t| {
            t.tag_current(trace);
            let out = request(l.sock, unit, id, trace);
            if let Ok((resp, _)) = &out {
                nest_daemon_spans(t, &unit.name, start_us, &resp.spans);
            }
            out
        });
        match out {
            Ok((resp, latency_ms)) if resp.status == "ok" => {
                if resp.payload != *want {
                    res.failed.push(format!(
                        "{}: response differs from the local report",
                        unit.name
                    ));
                    continue;
                }
                let mut daemon_us = BTreeMap::new();
                for s in &resp.spans {
                    *daemon_us.entry(s.name.clone()).or_default() += s.dur_us;
                }
                res.samples.push(Sample {
                    latency_ms,
                    cached: resp.cached,
                    daemon_us,
                });
            }
            Ok((resp, _)) if resp.status == "busy" => {
                res.busy += 1;
                res.failed.push(format!("{}: busy", unit.name));
            }
            Ok((resp, _)) => res
                .failed
                .push(format!("{}: {} {}", unit.name, resp.status, resp.payload)),
            Err(e) => res.failed.push(format!("{}: {e}", unit.name)),
        }
    }
    res
}

/// Records the daemon's returned spans under the open client span,
/// rebased onto the client's clock (daemon offset 0 = accept ≈ connect)
/// and nested by interval containment.
fn nest_daemon_spans(t: &mut Tracer, unit: &str, start_us: u64, spans: &[impact_obs::SpanEvent]) {
    let root = t.current();
    let mut order: Vec<&impact_obs::SpanEvent> = spans.iter().collect();
    order.sort_by_key(|s| (s.start_us, std::cmp::Reverse(s.dur_us)));
    let mut stack: Vec<(usize, u64)> = Vec::new();
    for s in order {
        let (a, b) = (start_us + s.start_us, start_us + s.start_us + s.dur_us);
        while stack.last().is_some_and(|&(_, end)| end < b) {
            stack.pop();
        }
        let idx = t.spans().len();
        t.record(Span {
            name: s.name.clone(),
            start_us: a,
            end_us: b,
            parent: stack.last().map(|&(i, _)| i).or(root),
            unit: unit.to_string(),
            trace: s.trace,
        });
        stack.push((idx, b));
    }
}

/// Starts a daemon in `dir` (with `--cache-dir` when `cached`, the hot
/// set then warmed into the cache), runs one traced closed-loop phase of
/// `seconds` against it, drains it, and checks its drain summary: every
/// connection counted, every `ok` seen, no errors.
fn phase(
    dir: &str,
    cached: bool,
    corpus: &Corpus,
    seed: u64,
    seconds: f64,
    t: &mut Tracer,
) -> Result<Phase, String> {
    let d = Daemon::start(PathBuf::from(dir), cached)?;
    let (mut sent, mut ok) = (d.pings, 0);
    if cached {
        for (i, (u, want)) in corpus.hot.iter().zip(corpus.hot_refs).enumerate() {
            let (resp, _) = request(&d.sock, u, splitmix(seed ^ !(i as u64)), 0)?;
            sent += 1;
            if resp.status != "ok" || resp.cached || resp.payload != *want {
                return Err(format!(
                    "{}: warm-up response is wrong ({})",
                    u.name, resp.status
                ));
            }
            ok += 1;
        }
    }
    let l = Loop {
        corpus,
        sock: &d.sock,
        seed,
        next: AtomicU64::new(0),
        next_miss: AtomicU64::new(0),
        phase0: Instant::now(),
        seconds,
    };
    let epoch = t.epoch();
    let results: Vec<(Phase, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut tt = Tracer::new(epoch, true);
                    (client(&l, &mut tt), tt)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut p = Phase::default();
    for (res, tt) in results {
        p.attempted += res.attempted;
        p.busy += res.busy;
        p.failed.extend(res.failed);
        p.samples.extend(res.samples);
        t.merge(tt);
    }
    sent += p.attempted;
    ok += p.samples.len() as u64;
    p.daemon_rss_mb = crate::peak_rss_mb(&d.child.id().to_string()).unwrap_or(0.0);
    let got = d.shutdown()?;
    if got != (sent, ok, 0) {
        p.failed.push(format!(
            "drain summary says {} requests, {} ok, {} errors; the clients sent {sent} and saw {ok} ok",
            got.0, got.1, got.2
        ));
    }
    Ok(p)
}

/// Measures the service layer on `units` for `seconds`: half against a
/// daemon without a cache (every request compiles), half against one
/// with `--cache-dir` and the hot set warmed. Adds the `serve.*` and
/// `cache.*` per-layer metrics, and counts requests and failures into
/// `out`.
pub fn measure(units: &[Unit], seed: u64, seconds: f64, t: &mut Tracer, out: &mut Outcome) {
    let mut run = || -> Result<(Phase, Phase), String> {
        let opts = request_options(&daemon_argv(Path::new("d"), false));
        let refs = references(units, &opts)?;
        let hot = HOT_SET.min(units.len() / 2);
        let corpus = Corpus {
            hot: &units[..hot],
            misses: &units[hot..],
            hot_refs: &refs[..hot],
            miss_refs: &refs[hot..],
        };
        let uncached = phase("serve-nocache", false, &corpus, seed, seconds / 2.0, t)?;
        let cached = phase("serve-cache", true, &corpus, seed, seconds / 2.0, t)?;
        Ok((uncached, cached))
    };
    match run() {
        Ok((uncached, cached)) => {
            for p in [&uncached, &cached] {
                out.attempted += p.attempted;
                out.failed += p.failed.len() as u64;
                out.problems.extend(p.failed.iter().take(4).cloned());
            }
            layer_metrics(&uncached, &cached, &mut out.values);
        }
        Err(e) => {
            out.attempted += 1;
            out.failed += 1;
            out.problems.push(format!("serve: {e}"));
        }
    }
}

/// Local `inline_pipeline` reports for every unit under the daemon's
/// flags, computed on [`CLIENTS`] threads.
fn references(units: &[Unit], opts: &Options) -> Result<Vec<String>, String> {
    let chunk = units.len().div_ceil(CLIENTS).max(1);
    let parts: Vec<Result<Vec<String>, String>> = std::thread::scope(|s| {
        let hs: Vec<_> = units
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(
                            |u| match impact_driver::inline_pipeline(&u.sources, &u.runs, opts) {
                                Ok((0, r)) => Ok(r),
                                Ok((c, _)) => Err(format!("{}: local pipeline exit {c}", u.name)),
                                Err(e) => Err(format!("{}: {}", u.name, e.render())),
                            },
                        )
                        .collect()
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    let mut refs = Vec::with_capacity(units.len());
    for p in parts {
        refs.extend(p?);
    }
    Ok(refs)
}

/// Mean of `f` over `xs` (0 when empty).
fn mean(xs: &[&Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    xs.iter().map(|s| f(s)).sum::<f64>() / xs.len().max(1) as f64
}

/// The service timings from the uncached phase (client latency split
/// into queue wait, the daemon's `serve:request`, and the rest: accept
/// loop and wire) and the cache layer from the cached phase.
fn layer_metrics(uncached: &Phase, cached: &Phase, v: &mut Values) {
    let all: Vec<&Sample> = uncached.samples.iter().collect();
    let queue = mean(&all, |s| s.span_us("serve:queue-wait"));
    let daemon = mean(&all, |s| s.span_us("serve:request"));
    v.insert("serve.queue_wait_us", queue);
    v.insert("serve.daemon_us", daemon);
    v.insert(
        "serve.accept_wire_us",
        mean(&all, |s| s.latency_ms * 1e3) - queue - daemon,
    );
    v.insert("serve.busy", (uncached.busy + cached.busy) as f64);
    v.insert(
        "serve.daemon_rss_mb",
        uncached.daemon_rss_mb.max(cached.daemon_rss_mb),
    );
    let cached: Vec<&Sample> = cached.samples.iter().collect();
    let (hits, misses): (Vec<&Sample>, Vec<&Sample>) = cached.iter().partition(|s| s.cached);
    let lat = |xs: &[&Sample]| xs.iter().map(|s| s.latency_ms).collect::<Vec<_>>();
    v.insert(
        "cache.hit_ratio",
        hits.len() as f64 / cached.len().max(1) as f64,
    );
    v.insert(
        "cache.probe_us",
        mean(&cached, |s| s.span_us("serve:cache-probe")),
    );
    v.insert("cache.hit_ms_p50", stats::median(&lat(&hits)));
    v.insert("cache.miss_ms_p50", stats::median(&lat(&misses)));
}
