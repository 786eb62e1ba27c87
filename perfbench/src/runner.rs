//! The measurement loop shared by every workload: repeated set-up, timed
//! iterations until the run's time is spent, output checks, counter repeat
//! checks, and assembly of the end-to-end or per-layer metrics.

use crate::stats::{
    fnv1a, fnv1a_extend, median, nearest_rank, peak_rss_mb, Reference, FNV1A_START,
};
use crate::trace::{profile, PhaseProfile, Tracer};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Worker budget of every scan workload.
pub const WORKERS: usize = 2;

/// Scratch directory for stores, traces and expected outputs, relative to
/// the directory the benchmark is run from.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".bench_work")
}

/// Every per-layer metric a traced run prints, in output order.  Metrics of
/// a layer a workload does not use print 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("universe.generate_s", "s"),
    ("scan_s", "s"),
    ("scan.host_us.p50", "us"),
    ("scan.host_us.p99", "us"),
    ("scan.host_us.p999", "us"),
    ("scan.host_us.samples", "count"),
    ("scan.parallel_efficiency", "ratio"),
    ("scan.hosts", "count"),
    ("scan.quic.retries", "count"),
    ("scan.traced", "count"),
    ("engine.events", "count"),
    ("engine.events_per_s", "1/s"),
    ("queue.enqueued", "count"),
    ("queue.marked", "count"),
    ("queue.dropped", "count"),
    ("store.append_s", "s"),
    ("store.seal_s", "s"),
    ("store.open_s", "s"),
    ("store.replay_s", "s"),
    ("store.bytes", "bytes"),
    ("store.records", "count"),
    ("store.bytes_per_record", "bytes"),
    ("store.delta_ratio", "ratio"),
    ("report.join_s", "s"),
    ("report.table1_s", "s"),
    ("report.table2_s", "s"),
    ("report.table3_s", "s"),
    ("report.table5_s", "s"),
    ("report.table6_s", "s"),
    ("report.figure3_s", "s"),
    ("report.figure4_s", "s"),
    ("report.figure5_s", "s"),
    ("report.figure6_s", "s"),
    ("workload.netbench_s", "s"),
    ("workload.lossy_bottleneck_s", "s"),
    ("workload.flapping_link_s", "s"),
    ("workload.engine_events", "count"),
    ("workload.queue_dropped", "count"),
    ("self.qem-web_s", "s"),
    ("self.qem-core.scanner_s", "s"),
    ("self.qem-store_s", "s"),
    ("self.qem-core.reports_s", "s"),
    ("self.qem-workload_s", "s"),
    ("self.bench_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.counter_defects", "count"),
];

/// What one timed iteration produced, as seen by the output checks.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Work completed, in the workload's throughput unit.
    pub items: f64,
    /// Outputs checked against ground truth.
    pub checked: u64,
    /// Outputs that disagreed with ground truth or failed to decode.
    pub failed: u64,
    /// Every rendered report text of the iteration, concatenated.
    pub rendered: String,
    /// Per-operation fingerprints that must repeat exactly.
    pub fingerprints: Vec<u64>,
    /// The program's own deterministic counters; they must repeat exactly.
    pub counters: BTreeMap<String, u64>,
}

pub trait Workload {
    type Input;
    type Output;
    /// Span around each set-up call.
    const SETUP_SPAN: &'static str;
    /// Set-ups per iteration, the last of which the iteration uses;
    /// `setup_s` is the median of all.
    const SETUP_REPS: usize;
    /// Name of the throughput this workload reports (`hosts_per_s` or
    /// `app_mb_per_s`), printed next to the JSON result.
    const THROUGHPUT: &'static str;

    fn setup(seed: u64) -> Self::Input;
    /// The timed phase: every call the user waits for, one after another.
    fn run(input: &Self::Input, tracer: &Tracer) -> Self::Output;
    /// Check the outputs of one iteration (not timed).
    fn check(input: &Self::Input, output: Self::Output) -> Outcome;
    /// Traced runs only: call `Scanner::measure_host` for every host on one
    /// thread, each inside a `scan.measure_host` span.
    fn per_host(_input: &Self::Input, _tracer: &Tracer) {}
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The benchmark's result line.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `+ 0.0` turns an empty sum's -0.0 into 0.0.
            let value = if value.is_finite() { *value + 0.0 } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

struct Iteration {
    traced: bool,
    wall_s: f64,
    items: f64,
    /// Span profile of the iteration (traced iterations only).
    profile: Option<PhaseProfile>,
    counters: BTreeMap<String, u64>,
}

/// Outputs every iteration (and every earlier run of the same build with the
/// same seed in this directory) must reproduce.
struct Expected {
    digest: u64,
    fingerprints: Vec<u64>,
    counters: BTreeMap<String, u64>,
}

impl Expected {
    fn render(&self) -> String {
        let mut out = format!("digest {:016x}\n", self.digest);
        for fp in &self.fingerprints {
            let _ = writeln!(out, "fingerprint {fp:016x}");
        }
        for (name, value) in &self.counters {
            let _ = writeln!(out, "counter {name} {value}");
        }
        out
    }

    fn parse(text: &str) -> Option<Expected> {
        let mut expected = Expected {
            digest: 0,
            fingerprints: Vec::new(),
            counters: BTreeMap::new(),
        };
        for line in text.lines() {
            let mut parts = line.split(' ');
            match (parts.next()?, parts.next()?, parts.next()) {
                ("digest", hex, None) => expected.digest = u64::from_str_radix(hex, 16).ok()?,
                ("fingerprint", hex, None) => expected
                    .fingerprints
                    .push(u64::from_str_radix(hex, 16).ok()?),
                ("counter", name, Some(value)) => {
                    expected
                        .counters
                        .insert(name.to_string(), value.parse().ok()?);
                }
                _ => return None,
            }
        }
        Some(expected)
    }

    /// Compare an iteration against the expectation: returns (output
    /// mismatches, counter defects).
    fn compare(&self, digest: u64, outcome: &Outcome, context: &str) -> (u64, u64) {
        let mut mismatches = u64::from(digest != self.digest);
        if digest != self.digest {
            eprintln!(
                "perfbench: {context}: report digest {digest:016x} != {:016x}",
                self.digest
            );
        }
        let common = self.fingerprints.len().min(outcome.fingerprints.len());
        let moved = (0..common)
            .filter(|&i| self.fingerprints[i] != outcome.fingerprints[i])
            .count();
        let missing = self.fingerprints.len().abs_diff(outcome.fingerprints.len());
        if moved + missing > 0 {
            eprintln!("perfbench: {context}: {moved} runs differ, {missing} missing");
        }
        mismatches += (moved + missing) as u64;
        let names: BTreeSet<&String> = self
            .counters
            .keys()
            .chain(outcome.counters.keys())
            .collect();
        let mut defects = 0;
        for name in names {
            let (a, b) = (self.counters.get(name), outcome.counters.get(name));
            if a != b {
                defects += 1;
                eprintln!(
                    "perfbench: benchmark defect: {context}: counter {name} moved {a:?} -> {b:?}"
                );
            }
        }
        (mismatches, defects)
    }
}

/// Where runs of this build with this workload and seed keep what they must
/// all reproduce.  The name carries a digest of the running executable, so
/// only runs of one build are compared: a rebuilt program with other code
/// starts a fresh expectation.  `None` if the executable cannot be read.
fn expectation_path(args: &Args) -> Option<PathBuf> {
    // Streamed in small chunks: reading the whole executable at once would
    // add its size to `peak_rss_mb`.
    let mut exe = fs::File::open(std::env::current_exe().ok()?).ok()?;
    let mut chunk = [0u8; 1 << 16];
    let mut build = FNV1A_START;
    loop {
        match exe.read(&mut chunk).ok()? {
            0 => break,
            n => build = fnv1a_extend(build, &chunk[..n]),
        }
    }
    Some(
        work_dir()
            .join("expect")
            .join(format!("{}-{}-{build:016x}.txt", args.workload, args.seed)),
    )
}

fn load_or_store(path: &Path, expected: &Expected) -> Option<Expected> {
    match fs::read_to_string(path) {
        Ok(text) => Expected::parse(&text),
        Err(_) => {
            if let Some(dir) = path.parent() {
                let _ = fs::create_dir_all(dir);
            }
            let tmp = path.with_extension(format!("tmp{}", std::process::id()));
            if fs::write(&tmp, expected.render()).is_ok() {
                let _ = fs::rename(&tmp, path);
            }
            None
        }
    }
}

pub fn run<W: Workload>(args: &Args) -> Report {
    let tracer = Tracer::new();

    // Every iteration builds its own input, as a batch job would, after
    // `SETUP_REPS - 1` set-ups whose inputs are dropped at once: set-up is
    // sampled over the many heap states of a run, and no more than one input
    // is alive at a time, so `peak_rss_mb` is that of one job.
    let mut setup_s: Vec<f64> = Vec::new();
    let setup = |setup_s: &mut Vec<f64>| {
        tracer.set_enabled(args.trace);
        let start = Instant::now();
        let input = tracer.span(W::SETUP_SPAN, || W::setup(args.seed));
        setup_s.push(start.elapsed().as_secs_f64());
        tracer.set_enabled(false);
        input
    };

    // Timed iterations.  A traced run alternates untraced and traced
    // iterations so that the tracing overhead is measured in one process;
    // its first iteration, the process's coldest, is left out of that
    // comparison.
    let min_iterations = if args.trace { 5 } else { 3 };
    let budget = Duration::from_secs_f64(args.seconds);
    let loop_start = Instant::now();
    let mut iterations: Vec<Iteration> = Vec::new();
    let mut expected: Option<Expected> = None;
    let (mut attempted, mut failed, mut defects) = (0u64, 0u64, 0u64);
    let mut job_peak_rss_mb = 0.0;
    let mut reference = Reference::default();
    let mut last_job_mark = 0;
    // Iterate while the next one, taking as long as the last, still ends
    // within the budget.
    let mut iteration_time = Duration::ZERO;
    while iterations.len() < min_iterations || loop_start.elapsed() + iteration_time <= budget {
        let iteration_start = Instant::now();
        let traced = args.trace && iterations.len() % 2 == 1;
        if traced {
            last_job_mark = tracer.mark();
        }
        for _ in 1..W::SETUP_REPS {
            drop(setup(&mut setup_s));
        }
        let input = setup(&mut setup_s);
        tracer.set_enabled(traced);
        let mark = tracer.mark();
        let start = Instant::now();
        let output = W::run(&input, &tracer);
        let wall_s = start.elapsed().as_secs_f64();
        tracer.set_enabled(false);
        let phase = traced.then(|| profile(&tracer.spans(mark, tracer.mark()), mark));

        let outcome = W::check(&input, output);
        let digest = fnv1a(outcome.rendered.as_bytes());
        attempted += outcome.checked + outcome.fingerprints.len() as u64 + 1;
        failed += outcome.failed;
        match &expected {
            None => {
                let first = Expected {
                    digest,
                    fingerprints: outcome.fingerprints.clone(),
                    counters: outcome.counters.clone(),
                };
                let earlier = expectation_path(args).and_then(|path| load_or_store(&path, &first));
                if let Some(earlier) = earlier {
                    let (m, d) =
                        earlier.compare(digest, &outcome, "earlier run, same build and seed");
                    failed += m;
                    defects += d;
                }
                println!("report digest {digest:016x}");
                expected = Some(first);
            }
            Some(first) => {
                let context = format!("iteration {}", iterations.len());
                let (m, d) = first.compare(digest, &outcome, &context);
                failed += m;
                defects += d;
            }
        }
        if iterations.is_empty() {
            // One job in a fresh process, as a user runs it.  The process
            // keeps its heap afterwards, so later iterations only add
            // allocator fragmentation that varies from run to run.
            job_peak_rss_mb = peak_rss_mb();
        }
        // The machine-speed reference, sampled between iterations over the
        // whole run, for about a tenth of its time.
        let reference_budget = loop_start.elapsed().as_secs_f64() / 10.0;
        while reference.total_s() < reference_budget {
            reference.pass();
        }
        iteration_time = iteration_start.elapsed();
        eprintln!(
            "perfbench: iteration {}{}: wall_s {wall_s:.4}",
            iterations.len(),
            if traced { " (traced)" } else { "" }
        );
        iterations.push(Iteration {
            traced,
            wall_s,
            items: outcome.items,
            profile: phase,
            counters: outcome.counters,
        });
    }

    let error_rate = failed as f64 / attempted.max(1) as f64;
    let untraced: Vec<&Iteration> = iterations.iter().filter(|i| !i.traced).collect();
    let setup_s = median(setup_s.iter().copied());
    let wall_s = median(untraced.iter().map(|i| i.wall_s));
    let throughput = median(untraced.iter().map(|i| i.items / i.wall_s));
    // Time metrics read at the reference machine speed: raw time × scale.
    let scale = reference.scale();
    println!(
        "{} seed {}: {} iterations, measured setup_s {setup_s:.6}, wall_s {wall_s:.4}, {} {throughput:.1}; \
         reference pass {:.4} s, scale {scale:.4}; error_rate {error_rate} ({failed} of {attempted})",
        args.workload,
        args.seed,
        iterations.len(),
        W::THROUGHPUT,
        reference.median_s(),
    );
    if defects > 0 {
        eprintln!("perfbench: {defects} counters moved between runs of the same code");
    }

    let metrics = if args.trace {
        let input = W::setup(args.seed);
        tracer.set_enabled(true);
        W::per_host(&input, &tracer);
        tracer.set_enabled(false);
        let warm_untraced_wall_s = median(
            iterations
                .iter()
                .skip(1)
                .filter(|i| !i.traced)
                .map(|i| i.wall_s),
        );
        layer_metrics(&tracer, &iterations, warm_untraced_wall_s, defects)
    } else {
        vec![
            ("setup_s", setup_s * scale, "s"),
            ("wall_s", wall_s * scale, "s"),
            ("throughput", throughput / scale, "items/s"),
            ("peak_rss_mb", job_peak_rss_mb, "MB"),
        ]
    };
    if args.trace {
        let path = work_dir().join(format!("trace-{}.jsonl", args.workload));
        if fs::create_dir_all(work_dir()).is_ok() {
            let _ = fs::write(&path, tracer.to_jsonl(last_job_mark));
        }
    }
    Report {
        attempted,
        failed,
        correct: failed == 0 && defects == 0,
        metrics,
    }
}

/// Per-layer metrics of a traced run: span times and counters of every
/// traced iteration (median across them), the set-up spans, and the
/// per-host pass recorded after the last iteration.
fn layer_metrics(
    tracer: &Tracer,
    iterations: &[Iteration],
    untraced_wall_s: f64,
    defects: u64,
) -> Vec<(&'static str, f64, &'static str)> {
    let mut per_iteration: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for it in iterations.iter().filter(|i| i.traced) {
        let phase = it
            .profile
            .as_ref()
            .expect("traced iterations carry a profile");
        let counter = |name: &str| it.counters.get(name).copied().unwrap_or(0) as f64;
        let mut m: Vec<(&'static str, f64)> = Vec::new();
        // Span `x` feeds metric `x_s`, a layer's self time `self.<layer>_s`
        // and counter `x` metric `x`, wherever the metric exists.
        for (name, s) in &phase.total_s {
            m.extend(per_layer(&format!("{name}_s")).map(|metric| (metric, *s)));
        }
        for (layer, s) in &phase.self_s {
            m.extend(per_layer(&format!("self.{layer}_s")).map(|metric| (metric, *s)));
        }
        for (name, v) in &it.counters {
            m.extend(per_layer(name).map(|metric| (metric, *v as f64)));
        }
        let scan_s: f64 = phase
            .total_s
            .iter()
            .filter(|(name, _)| name.starts_with("scan."))
            .map(|(_, s)| s)
            .sum();
        // Busy time of the scenario runs (on two workers it exceeds wall).
        let workload_s: f64 = phase
            .total_s
            .iter()
            .filter(|(name, _)| {
                name.starts_with("workload.") && per_layer(&format!("{name}_s")).is_some()
            })
            .map(|(_, s)| s)
            .sum();
        let covered: f64 = phase.self_s.values().sum();
        m.extend([
            ("wall_s", it.wall_s),
            ("scan_s", scan_s),
            (
                "engine.events_per_s",
                ratio(counter("engine.events"), scan_s + workload_s),
            ),
            (
                "store.bytes_per_record",
                ratio(counter("store.bytes"), counter("store.records")),
            ),
            (
                "store.delta_ratio",
                ratio(counter("store.records"), counter("store.offered")),
            ),
            ("trace.coverage", ratio(phase.top_level_s, it.wall_s)),
            ("self.bench_s", (it.wall_s - covered).max(0.0)),
        ]);
        for (name, value) in m {
            per_iteration.entry(name).or_default().push(value);
        }
    }
    let mut values: BTreeMap<&'static str, f64> = per_iteration
        .iter()
        .map(|(name, v)| (*name, median(v.iter().copied())))
        .collect();

    // Set-up spans: every set-up of the run was traced.
    let all = tracer.spans(0, tracer.mark());
    let generate: Vec<f64> = all
        .iter()
        .filter(|s| s.name == "universe.generate")
        .map(|s| s.duration_ns() as f64 / 1e9)
        .collect();
    if !generate.is_empty() {
        values.insert("universe.generate_s", median(generate.iter().copied()));
        values.insert("self.qem-web_s", median(generate.iter().copied()));
    }

    // The per-host pass, recorded after the last iteration.
    let mut host_ns: Vec<u64> = all
        .iter()
        .filter(|s| s.name == "scan.measure_host")
        .map(|s| s.duration_ns())
        .collect();
    if !host_ns.is_empty() {
        host_ns.sort_unstable();
        let us = |q: f64| nearest_rank(&host_ns, q) as f64 / 1e3;
        values.insert("scan.host_us.p50", us(0.50));
        values.insert("scan.host_us.p99", us(0.99));
        values.insert("scan.host_us.p999", us(0.999));
        values.insert("scan.host_us.samples", host_ns.len() as f64);
        let busy_s = host_ns.iter().sum::<u64>() as f64 / 1e9;
        let scan_s = values.get("scan_s").copied().unwrap_or(0.0);
        values.insert(
            "scan.parallel_efficiency",
            ratio(busy_s, scan_s * WORKERS as f64),
        );
    }

    let traced_wall = values.get("wall_s").copied().unwrap_or(0.0);
    values.insert("trace.overhead", ratio(traced_wall, untraced_wall_s) - 1.0);
    values.insert("trace.counter_defects", defects as f64);

    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The `PER_LAYER` entry called `name`, if there is one.
fn per_layer(name: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .map(|&(metric, _)| metric)
        .find(|&metric| metric == name)
}
