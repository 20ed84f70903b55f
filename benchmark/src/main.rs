//! The repository benchmark's command.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload churn_packets_128 --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Each episode (set-up, injection window, drain) runs in its own child process,
//! so the peak resident set it reports belongs to that episode alone.  The first
//! episode uses the run's seed and later ones seeds mixed from it, until
//! `--seconds` have passed.  The command checks every episode's outputs and
//! prints one JSON object as its last line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1` (whose run first makes
//! one untraced episode of its seed, to check that tracing leaves the
//! simulation untouched and to measure the trace overhead).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use lgfi_benchmark::{now, Episode, Span, Workload, STEP_CLASSES, WORKLOADS};

/// Set-ups per episode; `setup_s` is their median.
const SETUPS_PER_EPISODE: usize = 5;
/// Never start an episode that could end after this many seconds of the run.
const WALL_LIMIT_S: f64 = 150.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|cli| {
        if cli.episode {
            episode(&cli)
        } else {
            run(&cli)
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("lgfi-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Parsed command line.
struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run one episode and report it in the child protocol.
    episode: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        episode: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--episode" {
            cli.episode = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => cli.workload = value.clone(),
            "--seed" => cli.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cli.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => cli.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&cli.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            cli.workload
        ));
    }
    Ok(cli)
}

// ---------------------------------------------------------------------------
// Child: one episode.

/// Reads one `kB` field of `/proc/self/status` in bytes.
fn proc_status_bytes(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

fn episode(cli: &Cli) -> Result<bool, String> {
    let workload =
        Workload::named(&cli.workload, cli.seed).ok_or_else(|| "unknown workload".to_string())?;
    let mut setup_ns = Vec::with_capacity(SETUPS_PER_EPISODE);
    let mut ep = None;
    for _ in 0..SETUPS_PER_EPISODE {
        drop(ep.take());
        let start = now();
        ep = Some(Episode::setup(&workload));
        setup_ns.push(start.elapsed().as_nanos() as u64);
    }
    let ep = ep.ok_or_else(|| "no episode was set up".to_string())?;
    let rss_setup = proc_status_bytes("VmRSS:");
    let outcome = ep.run(cli.trace);
    let hwm = proc_status_bytes("VmHWM:");

    let mut out = String::new();
    let line = |out: &mut String, key: &str, vals: &[u64]| {
        out.push_str(key);
        for v in vals {
            let _ = write!(out, " {v}");
        }
        out.push('\n');
    };
    line(&mut out, "setup_ns", &setup_ns);
    line(&mut out, "rss_setup", &[rss_setup]);
    line(&mut out, "vmhwm", &[hwm]);
    line(&mut out, "cycle_ns", &outcome.cycle_ns);
    line(&mut out, "drain_ns", &[outcome.drain_ns]);
    line(&mut out, "request_ns", &outcome.request_ns);
    for (k, v) in &outcome.sim {
        line(&mut out, &format!("sim {k}"), &[*v]);
    }
    if let Some(t) = &outcome.trace {
        for (name, span) in spans(t) {
            line(&mut out, &format!("span {name}"), &span.ns);
        }
    }
    for m in &outcome.mismatches {
        let _ = writeln!(out, "mismatch {}", m.replace('\n', " "));
    }
    print!("{out}");
    Ok(outcome.mismatches.is_empty())
}

/// The traced spans under their metric names.
fn spans(t: &lgfi_benchmark::Trace) -> Vec<(String, &Span)> {
    let mut v = vec![
        ("churn.events_at".to_string(), &t.churn),
        ("traffic_gen.next_request".to_string(), &t.traffic_gen),
        ("traffic_engine.inject".to_string(), &t.inject),
    ];
    for (class, span) in STEP_CLASSES.iter().zip(&t.steps) {
        v.push((format!("network.step_{class}"), span));
    }
    v.push(("slo.observe_step".to_string(), &t.observe));
    v.push(("route_service.resolve".to_string(), &t.resolve));
    v
}

// ---------------------------------------------------------------------------
// Parent: episodes in child processes, aggregation, checks, report.

/// One child episode as reported through the child protocol.
#[derive(Debug, Default)]
struct Report {
    seed: u64,
    setup_ns: Vec<u64>,
    rss_setup: u64,
    vmhwm: u64,
    cycle_ns: Vec<u64>,
    drain_ns: u64,
    request_ns: Vec<u64>,
    sim: Vec<(String, u64)>,
    spans: BTreeMap<String, Vec<u64>>,
    mismatches: Vec<String>,
}

impl Report {
    /// Host nanoseconds of the injection window.
    fn window_ns(&self) -> u64 {
        self.cycle_ns.iter().sum()
    }

    /// Host nanoseconds of the injection window and the drain.
    fn episode_ns(&self) -> u64 {
        self.window_ns() + self.drain_ns
    }

    fn sim(&self, key: &str) -> u64 {
        self.sim
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |(_, v)| *v)
    }
}

/// Seed of the `k`-th episode of a run: the run's own seed first, then
/// splitmix64 mixes of it.
fn episode_seed(seed: u64, k: u64) -> u64 {
    if k == 0 {
        return seed;
    }
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn spawn_episode(workload: &str, seed: u64, traced: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--episode",
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run an episode: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut r = Report {
        seed,
        ..Report::default()
    };
    for line in text.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        let nums = |s: &str| -> Result<Vec<u64>, String> {
            s.split_whitespace()
                .map(|n| {
                    n.parse()
                        .map_err(|e| format!("bad episode line {key}: {e}"))
                })
                .collect()
        };
        let one = |s: &str| -> Result<u64, String> {
            nums(s)?
                .first()
                .copied()
                .ok_or_else(|| format!("empty episode line {key}"))
        };
        match key {
            "setup_ns" => r.setup_ns = nums(rest)?,
            "rss_setup" => r.rss_setup = one(rest)?,
            "vmhwm" => r.vmhwm = one(rest)?,
            "cycle_ns" => r.cycle_ns = nums(rest)?,
            "drain_ns" => r.drain_ns = one(rest)?,
            "request_ns" => r.request_ns = nums(rest)?,
            "sim" | "span" => {
                let (name, vals) = rest.split_once(' ').unwrap_or((rest, ""));
                if key == "sim" {
                    r.sim.push((name.to_string(), one(vals)?));
                } else {
                    r.spans.insert(name.to_string(), nums(vals)?);
                }
            }
            "mismatch" => r.mismatches.push(rest.to_string()),
            _ => return Err(format!("unexpected episode output: {line}")),
        }
    }
    if !output.status.success() && r.mismatches.is_empty() {
        return Err(format!("episode exited with {}", output.status));
    }
    if r.cycle_ns.is_empty() || r.setup_ns.is_empty() {
        return Err("episode reported no cycles".to_string());
    }
    Ok(r)
}

/// Differences between two episodes' simulated values (empty when identical).
fn sim_diff(a: &[(String, u64)], b: &[(String, u64)]) -> Vec<String> {
    if a.len() != b.len() {
        return vec![format!("{} values against {}", a.len(), b.len())];
    }
    a.iter()
        .zip(b)
        .filter(|(x, y)| x != y)
        .map(|(x, y)| format!("{} {} against {} {}", x.0, x.1, y.0, y.1))
        .collect()
}

/// Compares each episode's simulated values with those an earlier run of the
/// same executable recorded for the same workload and seed, recording them on
/// the first run.  The records live beside the executable, in the build
/// directory.
fn check_against_earlier_runs(workload: &str, reports: &[&Report]) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("cannot read own executable: {e}"))?;
    // FNV-1a: a new build gets new records.
    let build = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    let dir = exe
        .parent()
        .ok_or_else(|| "executable has no directory".to_string())?
        .join("lgfi-benchmark-runs");
    let mut problems = Vec::new();
    for r in reports {
        let path = dir.join(format!("{workload}-{}-{build:016x}.txt", r.seed));
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let earlier: Vec<(String, u64)> = text
                    .lines()
                    .filter_map(|l| {
                        let (k, v) = l.split_once(' ')?;
                        Some((k.to_string(), v.parse().ok()?))
                    })
                    .collect();
                let diff = sim_diff(&r.sim, &earlier);
                if !diff.is_empty() {
                    problems.push(format!(
                        "seed {}: simulated values differ from an earlier run: {}",
                        r.seed,
                        diff.join(", ")
                    ));
                }
            }
            Err(_) => {
                std::fs::create_dir_all(&dir)
                    .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
                let text: String = r.sim.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
                std::fs::write(&path, text)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            }
        }
    }
    Ok(problems)
}

/// Nearest-rank quantile of unsorted samples (0 when empty).
fn quantile(samples: &[u64], q: f64) -> u64 {
    let mut s = samples.to_vec();
    s.sort_unstable();
    if s.is_empty() {
        return 0;
    }
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Median of unsorted values (mean of the middle two for even counts).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Injection-window cycles per host second: the median over episodes.
fn cycles_per_s(reports: &[Report]) -> f64 {
    let per_episode: Vec<f64> = reports
        .iter()
        .map(|r| r.sim("cycles") as f64 / (r.window_ns().max(1) as f64 * 1e-9))
        .collect();
    median(&per_episode)
}

fn pooled(reports: &[Report], f: impl Fn(&Report) -> &[u64]) -> Vec<u64> {
    reports.iter().flat_map(|r| f(r).iter().copied()).collect()
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The end-to-end metrics: host figures pooled over every episode, simulated
/// figures from the first episode (the run's own seed).
fn end_to_end(reports: &[Report]) -> Vec<Metric> {
    let first = &reports[0];
    let cycle_ns = pooled(reports, |r| &r.cycle_ns);
    let requests = pooled(reports, |r| &r.request_ns);
    let setups: Vec<f64> = pooled(reports, |r| &r.setup_ns)
        .iter()
        .map(|&ns| ns as f64 * 1e-9)
        .collect();
    let hwm: Vec<f64> = reports.iter().map(|r| r.vmhwm as f64).collect();
    let s = |k: &str| first.sim(k) as f64;
    vec![
        metric("cycles_per_s", cycles_per_s(reports), "1/s"),
        metric("cycle_ns_p50", quantile(&cycle_ns, 0.5) as f64, "ns"),
        metric("cycle_ns_p99", quantile(&cycle_ns, 0.99) as f64, "ns"),
        metric("peak_rss_bytes", median(&hwm), "bytes"),
        metric("setup_s", median(&setups), "s"),
        metric("query_ns_p50", quantile(&requests, 0.5) as f64, "ns"),
        metric("query_ns_p99", quantile(&requests, 0.99) as f64, "ns"),
        metric(
            "delivered_share",
            1.0 - s("failed") / s("attempted").max(1.0),
            "share",
        ),
        metric("latency_p50_cycles", s("latency_p50"), "cycles"),
    ]
}

/// The per-layer metrics of a traced run: span times pooled over the traced
/// episodes, counters from the first one (the run's own seed, also run
/// untraced as `reference`).
fn per_layer(reference: &Report, traced: &[Report]) -> Vec<Metric> {
    let n = traced.len() as f64;
    let first = &traced[0];
    let episode: u64 = traced.iter().map(Report::episode_ns).sum();
    let mut m = Vec::new();
    for name in first.spans.keys() {
        let all = pooled(traced, |r| r.spans.get(name).map_or(&[], Vec::as_slice));
        let total: u64 = all.iter().sum();
        m.push(metric(format!("{name}.ns"), total as f64 / n, "ns"));
        m.push(metric(
            format!("{name}.count"),
            all.len() as f64 / n,
            "count",
        ));
        m.push(metric(
            format!("{name}.ns_p50"),
            quantile(&all, 0.5) as f64,
            "ns",
        ));
        if name == "route_service.resolve" {
            m.push(metric(
                format!("{name}.ns_p99"),
                quantile(&all, 0.99) as f64,
                "ns",
            ));
        }
        m.push(metric(
            format!("{name}.share"),
            total as f64 / episode.max(1) as f64,
            "share",
        ));
    }
    let s = |k: &str| first.sim(k) as f64;
    let all_cycles = (s("cycles") + s("drained")).max(1.0);
    m.extend([
        metric("traffic_engine.inject.calls", s("injected"), "count"),
        metric("traffic_engine.inject.fresh", s("inject_fresh"), "count"),
        metric(
            "rss.bytes_per_inflight",
            if s("inflight_max") > 0.0 {
                first.vmhwm.saturating_sub(first.rss_setup) as f64 / s("inflight_max")
            } else {
                0.0
            },
            "bytes",
        ),
        metric("network.rebuilds", s("rebuilds"), "count"),
        metric("network.blocks_changed", s("blocks_changed"), "count"),
        metric("network.a_rounds", s("a_rounds"), "rounds"),
        metric("network.b_rounds", s("b_rounds"), "rounds"),
        metric("network.c_rounds", s("c_rounds"), "rounds"),
        metric("network.fault_events", s("fault_events"), "count"),
        metric("traffic_engine.injected", s("injected"), "count"),
        metric("traffic_engine.delivered", s("delivered"), "count"),
        metric("traffic_engine.failed", s("failed_packets"), "count"),
        metric("traffic_engine.deadlocked", s("deadlocked"), "count"),
        metric("traffic_engine.stranded", s("stranded"), "count"),
        metric("traffic_engine.hops", s("hops"), "count"),
        metric("traffic_engine.stalls", s("stalls"), "count"),
        metric(
            "traffic_engine.stalls_per_hop",
            s("stalls") / s("hops").max(1.0),
            "ratio",
        ),
        metric(
            "traffic_engine.inflight_mean",
            s("inflight_sum") / all_cycles,
            "packets",
        ),
        metric("traffic_engine.inflight_max", s("inflight_max"), "packets"),
        metric("traffic_engine.drain_cycles", s("drained"), "cycles"),
        metric(
            "traffic_engine.drain.ns",
            traced.iter().map(|r| r.drain_ns).sum::<u64>() as f64 / n,
            "ns",
        ),
        metric("route_service.queries", s("queries"), "count"),
        metric(
            "route_service.hops_mean",
            s("query_steps") / s("queries").max(1.0),
            "hops",
        ),
        metric(
            "route_service.epochs_published",
            s("epochs_published"),
            "count",
        ),
        metric("route_service.buffers_reused", s("buffers_reused"), "count"),
        metric(
            "route_service.snapshot_heap_bytes",
            s("snapshot_heap_bytes"),
            "bytes",
        ),
        metric(
            "slo.failed_share",
            s("failed") / s("attempted").max(1.0),
            "share",
        ),
        metric("slo.latency_p99_cycles", s("latency_p99"), "cycles"),
        metric("slo.detour_violations", s("detour_violations"), "count"),
        metric("slo.reconverge_p50_steps", s("reconverge_p50"), "steps"),
        metric("slo.bursts", s("bursts"), "count"),
        metric(
            "trace.overhead",
            1.0 - cycles_per_s(std::slice::from_ref(first))
                / cycles_per_s(std::slice::from_ref(reference)),
            "share",
        ),
    ]);
    m
}

/// The host metadata every result carries.
fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\":{nproc},\"commit\":{},\"rustc\":{},\"profile\":{}}}",
        json_str(&commit()),
        json_str(env!("LGFI_BENCH_RUSTC")),
        json_str(env!("LGFI_BENCH_PROFILE")),
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// (`"unknown"` outside a git checkout).
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs").and_then(|p| {
                p.lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The "where a 128² cycle goes" table of a traced run.
fn print_table(workload: &str, traced: &[Report], overhead: f64) {
    let n = traced.len() as f64;
    let episode: u64 = traced.iter().map(Report::episode_ns).sum();
    println!(
        "where a 128x128 cycle goes: {workload}, {} traced episodes (injection window and drain)",
        traced.len()
    );
    println!(
        "  {:<28} {:>12} {:>8} {:>10} {:>10}",
        "span", "ms/episode", "share", "calls", "ns p50"
    );
    let mut covered = 0u64;
    for name in traced[0].spans.keys() {
        let all = pooled(traced, |r| r.spans.get(name).map_or(&[], Vec::as_slice));
        let total: u64 = all.iter().sum();
        covered += total;
        println!(
            "  {:<28} {:>12.3} {:>7.2}% {:>10.0} {:>10}",
            name,
            total as f64 / n * 1e-6,
            100.0 * total as f64 / episode.max(1) as f64,
            all.len() as f64 / n,
            quantile(&all, 0.5),
        );
    }
    let rest = episode.saturating_sub(covered);
    println!(
        "  {:<28} {:>12.3} {:>7.2}%",
        "(loop and clocks)",
        rest as f64 / n * 1e-6,
        100.0 * rest as f64 / episode.max(1) as f64
    );
    println!(
        "  trace overhead: {:.2}% of the untraced cycles_per_s",
        100.0 * overhead
    );
}

fn run(cli: &Cli) -> Result<bool, String> {
    let start = now();
    let reference = if cli.trace {
        Some(spawn_episode(&cli.workload, cli.seed, false)?)
    } else {
        None
    };
    let mut reports: Vec<Report> = Vec::new();
    // Episodes run until the next one would end nearer after `--seconds`
    // than before it.
    let mut longest = 0.0f64;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if !reports.is_empty()
            && (elapsed + longest / 2.0 >= cli.seconds || elapsed + longest >= WALL_LIMIT_S)
        {
            break;
        }
        let seed = episode_seed(cli.seed, reports.len() as u64);
        reports.push(spawn_episode(&cli.workload, seed, cli.trace)?);
        longest = longest.max(start.elapsed().as_secs_f64() - elapsed);
    }

    // Output checks: each episode's own, tracing leaves the simulation
    // untouched, and a repeated episode repeats exactly.
    let mut problems: Vec<String> = Vec::new();
    let all: Vec<&Report> = reference.iter().chain(&reports).collect();
    for r in &all {
        problems.extend(r.mismatches.iter().map(|m| format!("seed {}: {m}", r.seed)));
    }
    problems.extend(check_against_earlier_runs(&cli.workload, &all)?);
    if let Some(reference) = &reference {
        let diff = sim_diff(&reports[0].sim, &reference.sim);
        if !diff.is_empty() {
            problems.push(format!(
                "seed {}: traced and untraced simulated values differ: {}",
                cli.seed,
                diff.join(", ")
            ));
        }
    }
    for p in &problems {
        println!("check failed: {p}");
    }

    let metrics = match &reference {
        Some(reference) => {
            let m = per_layer(reference, &reports);
            let overhead = m
                .iter()
                .find(|m| m.name == "trace.overhead")
                .map_or(0.0, |m| m.value);
            print_table(&cli.workload, &reports, overhead);
            m
        }
        None => end_to_end(&reports),
    };
    for m in &metrics {
        println!("  {:<40} {:>20} {}", m.name, json_num(m.value), m.unit);
    }
    let first = &reports[0];
    println!(
        "{{\"bench\":\"lgfi-benchmark\",\"workload\":{},\"seed\":{},\"trace\":{},\"episodes\":{},\"host\":{},\"sim\":{{{}}},\"metrics\":{}}}",
        json_str(&cli.workload),
        cli.seed,
        u8::from(cli.trace),
        reports.len(),
        host_json(),
        first
            .sim
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect::<Vec<_>>()
            .join(","),
        metrics_json(&metrics),
    );
    let attempted: u64 = reports.iter().map(|r| r.sim("attempted")).sum();
    let correct = problems.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{},\"metrics\":{}}}",
        if correct { 0 } else { attempted },
        metrics_json(&metrics)
    );
    Ok(correct)
}
