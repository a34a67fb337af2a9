//! End-to-end and per-layer benchmark of the sap serving stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]
//! ```
//!
//! Drives one workload (see `workloads`) through the public `sap::prelude`
//! surface only, checks delivered updates against a brute-force oracle,
//! and prints a header, one line per metric, and as its last line a JSON
//! object `{correct, attempted, failed, metrics}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run also records
//! spans around every layer call and reports the per-layer metrics. The
//! end-to-end times are scaled to a reference host speed (see `calib`)
//! and taken over the better quarter of a run's slices and windows (see
//! `BETTER_QUARTER`).

mod calib;
mod feed;
mod oracle;
mod pacer;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use sap::prelude::*;

use oracle::{Sub, Verdict};
use stats::{label, median, quantile, Samples, Summary};
use trace::{Span, Tracer};
use workloads::{Design, Live, Saturation, PACED_WINDOW};

/// Set-ups per run, `setup_s` being their median: at least `SETUPS.0`,
/// and more, up to `SETUPS.1`, while they took less than `SETUP_BUDGET`.
const SETUPS: (usize, usize) = (3, 40);
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Least length of one throughput slice of the saturation phase; a slice
/// runs on to the end of its cycle.
const SLICE: Duration = Duration::from_millis(200);
/// Saturation time between two paced windows.
const ROUND: Duration = Duration::from_secs(1);
/// The end-to-end throughput and latencies are taken over the better
/// quarter of a run's slices and windows: the upper quartile of the slice
/// rates, the lower quartile of the windows' percentiles. A shared host's
/// stalls only ever make a slice slower or a window's tail longer, and
/// they come in episodes of minutes that can cover most of a run, so a
/// median would report the host's episode rather than the program.
const BETTER_QUARTER: f64 = 0.25;
/// Stream prefix the standalone engines slide over in a traced run.
const ENGINE_OBJECTS: u64 = 120_000;

const USAGE: &str = "usage: perfbench --workload <paper-engine|fanout-classed|filtered-async> \
                     --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_file: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_file) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--trace-file" => trace_file = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_file,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn print_header(args: &Args, design: &Design, feed: &feed::Feed) {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (hub, workers) = match design.exec {
        None => ("Hub".to_string(), "0 (sequential)".to_string()),
        Some((shards, workers)) => (format!("AsyncHub({shards} shards)"), workers.to_string()),
    };
    println!("# workload       {}", design.name);
    println!("# seed           {}", args.seed);
    println!("# seconds        {}", args.seconds);
    println!("# trace          {}", u8::from(args.trace));
    println!(
        "# hub            {hub}, {} subscriptions",
        design.population.len()
    );
    println!(
        "# stream         Stock, base block of {} objects repeated with fresh ids",
        feed.base_len()
    );
    println!("# batch          {} objects", design.batch);
    println!("# paced rate     {} objects/s", design.paced_rate);
    println!("# nproc          {nproc}");
    println!("# workers        {workers}");
    println!("# rustc          {}", env("PERFBENCH_RUSTC"));
    println!("# commit         {}", env("PERFBENCH_COMMIT"));
}

/// What both kinds of run share: set-up, the oracle's verdict, and call
/// counts.
struct Common {
    setups: Vec<f64>,
    verdict: Verdict,
    calls_attempted: u64,
    calls_failed: u64,
    first_error: Option<String>,
    published: u64,
}

impl Common {
    fn attempted(&self) -> u64 {
        self.calls_attempted + self.verdict.checked + self.verdict.missing + self.verdict.repeated
    }

    fn failed(&self) -> u64 {
        self.calls_failed + self.verdict.failed()
    }

    fn print(&self) {
        let v = &self.verdict;
        println!(
            "failure_rate   = {} ({} failed of {} attempted: {} hub calls with {} errors; \
             oracle checked {} updates, {} wrong, {} missing, {} repeated)",
            self.failed() as f64 / self.attempted().max(1) as f64,
            self.failed(),
            self.attempted(),
            self.calls_attempted,
            self.calls_failed,
            v.checked,
            v.wrong,
            v.missing,
            v.repeated
        );
        if let Some(e) = &self.first_error {
            println!("first error    = {e}");
        }
        println!("published      = {} objects", self.published);
    }
}

/// Runs the set-ups, keeping the last one's hub.
fn set_up(
    design: &Design,
    feed: &feed::Feed,
    seed: u64,
    tracer: &mut Tracer,
) -> (Live, oracle::Recorder, Vec<f64>) {
    let mut setups = Vec::new();
    let mut kept = None;
    while setups.len() < SETUPS.0
        || (setups.len() < SETUPS.1 && setups.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
    {
        // the previous hub is torn down before the next set-up is timed
        drop(kept.take());
        let before = calib::probe_us();
        let (live, recorder, took) = workloads::setup(design, feed, seed, tracer);
        let slowdown = calib::slowdown(before, calib::probe_us());
        setups.push(took.as_secs_f64() / slowdown);
        kept = Some((live, recorder));
    }
    let (live, recorder) = kept.expect("at least one set-up");
    (live, recorder, setups)
}

fn finish(
    live: Live,
    recorder: oracle::Recorder,
    design: &Design,
    feed: &feed::Feed,
    setups: Vec<f64>,
) -> Common {
    let subs: Vec<Sub> = design.population.iter().map(Sub::of).collect();
    let published = live.published;
    let verdict = recorder.verify(&subs, feed, published);
    Common {
        setups,
        verdict,
        calls_attempted: live.calls.attempted,
        calls_failed: live.calls.failed,
        first_error: live.calls.first_error.clone(),
        published,
    }
}

/// One round of both phases whose figures are dropped: the first paced
/// window after set-up runs slow while the process's buffers still grow.
fn warm_up(
    live: &mut Live,
    feed: &feed::Feed,
    tracer: &mut Tracer,
    recorder: &mut oracle::Recorder,
    design: &Design,
) {
    workloads::saturate(live, feed, tracer, recorder, ROUND);
    workloads::pace(live, feed, tracer, recorder, PACED_WINDOW, design.paced_rate);
}

/// The untraced run: the end-to-end metrics.
fn run_plain(args: &Args, design: &Design, feed: &feed::Feed) -> (Common, Vec<Metric>) {
    let mut tracer = Tracer::new(false);
    let (mut live, mut recorder, setups) = set_up(design, feed, args.seed, &mut tracer);
    warm_up(&mut live, feed, &mut tracer, &mut recorder, design);
    // saturation slices and paced windows alternate, so both kinds of
    // metric sample the whole run rather than one half of it each; the
    // host-speed probe runs between any two of them
    let mut slices = Vec::new();
    let mut slice_slowdowns = Vec::new();
    let mut paced = workloads::Paced::default();
    let mut window_slowdowns = Vec::new();
    let mut probe = calib::probe_us();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < args.seconds {
        let round = Instant::now();
        while round.elapsed() < ROUND {
            slices.push(workloads::saturate(
                &mut live,
                feed,
                &mut tracer,
                &mut recorder,
                SLICE,
            ));
            let after = calib::probe_us();
            slice_slowdowns.push(calib::slowdown(probe, after));
            probe = after;
        }
        let window = workloads::pace(
            &mut live,
            feed,
            &mut tracer,
            &mut recorder,
            PACED_WINDOW,
            design.paced_rate,
        );
        let after = calib::probe_us();
        window_slowdowns.extend(window.windows.iter().map(|_| calib::slowdown(probe, after)));
        probe = after;
        paced.merge(window);
    }
    let common = finish(live, recorder, design, feed, setups);

    let mut total = Saturation::default();
    slices.iter().for_each(|s| total.add(*s));
    let rates: Vec<f64> = slices.iter().map(Saturation::objects_per_sec).collect();
    let scaled: Vec<f64> = rates
        .iter()
        .zip(&slice_slowdowns)
        .map(|(r, s)| r * s)
        .collect();
    let throughput = quantile(&scaled, 1.0 - BETTER_QUARTER);
    println!(
        "throughput_ops = {throughput} objects/s (upper quartile of {} slices, scaled to the \
         reference host speed; as run: median {} objects/s, {} objects in {:.3} s, closed loop)",
        slices.len(),
        median(&rates),
        total.objects,
        total.elapsed.as_secs_f64(),
    );
    let windows: Vec<Summary> = paced.windows.iter_mut().map(Samples::summary).collect();
    let round2 = |v: &[f64]| v.iter().map(|x| (x * 100.0).round() / 100.0).collect::<Vec<_>>();
    println!("slices         = {:?} objects/s", round2(&rates));
    println!("host slowdown  = {:?} (slices)", round2(&slice_slowdowns));
    let window_p50: Vec<f64> = windows.iter().map(|w| w.p50).collect();
    let window_p99: Vec<f64> = windows.iter().map(|w| w.p99).collect();
    println!("window p50     = {:?} us", round2(&window_p50));
    println!("window p99     = {:?} us", round2(&window_p99));
    println!("host slowdown  = {:?} (windows)", round2(&window_slowdowns));
    let at_reference = |v: &[f64]| {
        let scaled: Vec<f64> = v.iter().zip(&window_slowdowns).map(|(l, s)| l / s).collect();
        quantile(&scaled, BETTER_QUARTER)
    };
    let (p50, p99) = (at_reference(&window_p50), at_reference(&window_p99));
    let min_window = windows.iter().map(|w| w.count).min().unwrap_or(0);
    let whole = paced.latency_us.summary();
    let top = whole.top.map_or("none".to_string(), |(q, v)| {
        format!("{} = {v} us", label(q))
    });
    println!(
        "latency_p50_us = {p50} us (lower quartile of {} windows of >= {min_window} updates, \
         scaled to the reference host speed; as run: whole phase {} us over n = {} updates)",
        windows.len(),
        whole.p50,
        whole.count,
    );
    println!(
        "latency_p99_us = {p99} us (lower quartile of {} windows, scaled to the reference host \
         speed; as run: whole phase {} us, highest supported percentile {top})",
        windows.len(),
        whole.p99,
    );
    println!(
        "setup_s        = {} s (median of {} set-ups, scaled to the reference host speed: {:?})",
        median(&common.setups),
        common.setups.len(),
        common.setups
    );
    let rss = peak_rss_mb();
    println!("peak_rss_mb    = {rss} MiB");
    println!(
        "paced          = {} objects at {} objects/s; lag p99 {} us; backlog max {}",
        paced.objects,
        design.paced_rate,
        paced.lag_us.summary().p99,
        paced.backlog_max
    );
    common.print();
    let metrics = vec![
        metric("throughput_ops", throughput, "obj/s"),
        metric("latency_p50_us", p50, "us"),
        metric("latency_p99_us", p99, "us"),
        metric("setup_s", median(&common.setups), "s"),
        metric("peak_rss_mb", rss, "MiB"),
    ];
    (common, metrics)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced run: per-layer metrics, from spans around every layer call
/// and from the hub's own counters.
fn run_traced(args: &Args, design: &Design, feed: &feed::Feed) -> (Common, Vec<Metric>, Tracer) {
    let mut tracer = Tracer::new(true);
    let (mut live, mut recorder, setups) = set_up(design, feed, args.seed, &mut tracer);
    tracer.set(false);
    warm_up(&mut live, feed, &mut tracer, &mut recorder, design);
    let before = live.stats().unwrap_or_default();
    let mark = tracer.spans().len();
    // the plain run's rounds, with an untraced slice added to each: the
    // untraced and traced slices sample the same stretch of the run, so
    // their gap is the tracing overhead
    let (mut plain, mut traced) = (Saturation::default(), Saturation::default());
    let mut paced = workloads::Paced::default();
    let started = std::time::Instant::now();
    while started.elapsed().as_secs_f64() < args.seconds {
        let round = Instant::now();
        while round.elapsed() < ROUND {
            tracer.set(false);
            plain.add(workloads::saturate(
                &mut live,
                feed,
                &mut tracer,
                &mut recorder,
                SLICE,
            ));
            tracer.set(true);
            traced.add(workloads::saturate(
                &mut live,
                feed,
                &mut tracer,
                &mut recorder,
                SLICE,
            ));
        }
        let window = workloads::pace(
            &mut live,
            feed,
            &mut tracer,
            &mut recorder,
            PACED_WINDOW,
            design.paced_rate,
        );
        paced.merge(window);
    }
    tracer.set(false);
    let after = live.stats().unwrap_or_default();
    let loads = live.shard_loads();
    let bytes_per_query = ratio(live.checkpoint_bytes as f64, live.len() as f64);
    tracer.set(true);
    let engines = workloads::drive_engines(design, feed, &mut tracer, ENGINE_OBJECTS);
    let restore_ms = live.restore_ms(&mut tracer).unwrap_or(0.0);
    tracer.set(false);
    let common = finish(live, recorder, design, feed, setups);

    let phase_spans = &tracer.spans()[mark..];
    let all = tracer.spans();
    let mut m = Vec::new();
    engine_metrics(&mut m, all, engines);
    hub_metrics(
        &mut m,
        phase_spans,
        &before,
        &after,
        &plain,
        &traced,
        &paced,
    );
    exec_metrics(&mut m, phase_spans, &after, &loads);
    let encode = Tracer::durations(all, "checkpoint.encode", 1e6).quantile(0.5);
    m.push(metric("checkpoint.encode_ms", encode, "ms"));
    m.push(metric("checkpoint.bytes_per_query", bytes_per_query, "B"));
    m.push(metric("checkpoint.restore_ms", restore_ms, "ms"));
    let mut register = Tracer::durations(all, "facade.register", 1e3);
    let register = register.summary();
    m.push(metric("facade.register_us_p50", register.p50, "us"));
    m.push(metric("facade.register_us_p99", register.p99, "us"));
    let unregister = Tracer::durations(all, "facade.unregister", 1e3).quantile(0.5);
    m.push(metric("facade.unregister_us_p50", unregister, "us"));
    m.push(metric(
        "loadgen.lag_p99_us",
        paced.lag_us.summary().p99,
        "us",
    ));
    m.push(metric(
        "loadgen.backlog_max",
        paced.backlog_max as f64,
        "count",
    ));
    let overhead = 100.0 * (1.0 - ratio(traced.objects_per_sec(), plain.objects_per_sec()));
    m.push(metric("trace.overhead_pct", overhead, "%"));
    let own = tracer.self_ns(mark);
    for (layer, name) in [
        ("loadgen", "loadgen.self_ms"),
        ("hub", "hub.self_ms"),
        ("exec", "exec.self_ms"),
        ("checkpoint", "checkpoint.self_ms"),
        ("facade", "facade.self_ms"),
        ("engine", "engine.self_ms"),
    ] {
        let ns = own.get(layer).copied().unwrap_or(0);
        m.push(metric(name, ns as f64 / 1e6, "ms"));
    }
    println!(
        "traced run     = {} objects/s untraced, {} objects/s traced, {} spans",
        plain.objects_per_sec(),
        traced.objects_per_sec(),
        tracer.spans().len()
    );
    let latency: Summary = paced.latency_us.summary();
    println!(
        "traced paced   = {} objects; latency p50 {} us, p99 {} us over {} updates",
        paced.objects, latency.p50, latency.p99, latency.count
    );
    common.print();
    (common, m, tracer)
}

fn engine_metrics(m: &mut Vec<Metric>, spans: &[Span], engines: Option<workloads::Engines>) {
    let mut slide = Tracer::durations(spans, "engine.slide", 1e3);
    let slide = slide.summary();
    let e = engines.unwrap_or_default();
    let per = |v: u64| ratio(v as f64, e.objects as f64);
    m.push(metric("engine.slide_us_p50", slide.p50, "us"));
    m.push(metric("engine.slide_us_p99", slide.p99, "us"));
    m.push(metric(
        "engine.insertions",
        per(e.stats.insertions),
        "count/obj",
    ));
    m.push(metric(
        "engine.deletions",
        per(e.stats.deletions),
        "count/obj",
    ));
    m.push(metric(
        "engine.objects_scanned",
        per(e.stats.objects_scanned),
        "count/obj",
    ));
    m.push(metric(
        "engine.meaningful_sets_formed",
        per(e.stats.meaningful_sets_formed),
        "count/obj",
    ));
    m.push(metric(
        "engine.wrt_tests",
        per(e.stats.wrt_tests),
        "count/obj",
    ));
    m.push(metric("engine.candidates_mean", e.candidates_mean, "count"));
    m.push(metric("engine.memory_bytes", e.memory_bytes as f64, "B"));
}

fn hub_metrics(
    m: &mut Vec<Metric>,
    spans: &[Span],
    before: &HubStats,
    after: &HubStats,
    plain: &Saturation,
    traced: &Saturation,
    paced: &workloads::Paced,
) {
    let publishes: Vec<&Span> = spans.iter().filter(|s| s.name == "hub.publish").collect();
    let (mut quiet_ns, mut quiet_objects, mut objects, mut updates) = (0u64, 0u64, 0u64, 0u64);
    let mut close_us = Samples::default();
    for s in &publishes {
        objects += s.objects;
        updates += s.updates;
        if s.updates == 0 {
            quiet_ns += s.ns();
            quiet_objects += s.objects;
        } else {
            close_us.push(s.ns() as f64 / 1e3, 1);
        }
    }
    let quiet = ratio(quiet_ns as f64, quiet_objects as f64);
    // close work: a closing publish's time beyond what its objects cost
    // on a quiet publish, per update it delivered
    let close_ns_per_update = if publishes.is_empty() {
        let drains = spans
            .iter()
            .filter(|s| s.name == "exec.drain" && s.updates > 0);
        let (ns, n) = drains.fold((0u64, 0u64), |(ns, n), s| (ns + s.ns(), n + s.updates));
        ratio(ns as f64, n as f64)
    } else {
        let extra: f64 = publishes
            .iter()
            .filter(|s| s.updates > 0)
            .map(|s| (s.ns() as f64 - quiet * s.objects as f64).max(0.0))
            .sum();
        ratio(extra, updates as f64)
    };
    let close = close_us.summary();
    m.push(metric("hub.publish_quiet_ns_per_object", quiet, "ns"));
    m.push(metric("hub.publish_close_us_p50", close.p50, "us"));
    m.push(metric("hub.publish_close_us_p99", close.p99, "us"));
    m.push(metric(
        "hub.updates_per_object",
        ratio(updates as f64, objects as f64),
        "count/obj",
    ));
    m.push(metric(
        "registry.close_ns_per_update",
        close_ns_per_update,
        "ns",
    ));
    m.push(metric(
        "registry.count_groups",
        after.count_groups as f64,
        "count",
    ));
    m.push(metric(
        "registry.digest_groups",
        after.digest_groups as f64,
        "count",
    ));
    m.push(metric(
        "registry.result_classes",
        after.result_classes as f64,
        "count",
    ));
    let member_slides = (after.count_group_hits + after.digest_hits) as f64;
    m.push(metric(
        "registry.class_hit_rate",
        ratio(after.class_hits as f64, member_slides),
        "ratio",
    ));
    m.push(metric(
        "registry.count_group_hit_rate",
        after.count_group_hit_rate(),
        "ratio",
    ));
    m.push(metric(
        "registry.digest_hit_rate",
        after.digest_hit_rate(),
        "ratio",
    ));
    m.push(metric(
        "registry.digest_rebuilds",
        after.digest_rebuilds as f64,
        "count",
    ));
    let phase_objects = (plain.objects + traced.objects + paced.objects) as f64;
    let admitted = after.admitted.saturating_sub(before.admitted) as f64;
    let pruned = after.pruned.saturating_sub(before.pruned) as f64;
    m.push(metric(
        "admission.admitted_per_object",
        ratio(admitted, phase_objects),
        "count/obj",
    ));
    m.push(metric(
        "admission.pruned_per_object",
        ratio(pruned, phase_objects),
        "count/obj",
    ));
    m.push(metric(
        "admission.prune_rate",
        ratio(pruned, admitted + pruned),
        "ratio",
    ));
}

fn exec_metrics(m: &mut Vec<Metric>, spans: &[Span], after: &HubStats, loads: &[(u64, u64)]) {
    let publish = Tracer::durations(spans, "exec.publish", 1e3).summary();
    let drain = Tracer::durations(spans, "exec.drain", 1e3).summary();
    m.push(metric("exec.publish_us_p50", publish.p50, "us"));
    m.push(metric("exec.publish_us_p99", publish.p99, "us"));
    m.push(metric("exec.drain_us_p50", drain.p50, "us"));
    m.push(metric("exec.drain_us_p99", drain.p99, "us"));
    m.push(metric(
        "exec.publisher_parks",
        after.publisher_parks as f64,
        "count",
    ));
    m.push(metric(
        "exec.queue_depth_hwm",
        after.queue_depth_hwm as f64,
        "count",
    ));
    let depths: Vec<f64> = loads.iter().map(|l| l.1 as f64).collect();
    let mean = ratio(depths.iter().sum(), depths.len() as f64);
    let max = depths.iter().copied().fold(0.0, f64::max);
    m.push(metric("exec.shard_depth_skew", ratio(max, mean), "ratio"));
}

/// The last line of output: the machine-readable result.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(design) = workloads::design(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?}; one of {:?}",
            args.workload,
            workloads::NAMES
        );
        return ExitCode::from(2);
    };
    let feed = workloads::feed(&design, args.seed);
    let slack = pacer::tighten_timer_slack();
    print_header(&args, &design, &feed);
    println!("# timer slack    {}", if slack { "1 ns" } else { "default" });
    let (common, metrics) = if args.trace {
        let (common, metrics, tracer) = run_traced(&args, &design, &feed);
        if let Some(path) = &args.trace_file {
            if let Err(e) = tracer.write_tsv(std::path::Path::new(path)) {
                eprintln!("perfbench: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("trace file     = {path}");
        }
        (common, metrics)
    } else {
        run_plain(&args, &design, &feed)
    };
    for m in &metrics {
        println!("metric {:<36} {} {}", m.name, m.value, m.unit);
    }
    let correct = common.failed() == 0 && common.verdict.checked > 0;
    println!(
        "{}",
        result_json(correct, common.attempted(), common.failed(), &metrics)
    );
    ExitCode::SUCCESS
}
