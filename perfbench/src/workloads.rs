//! The four workloads.  Each drives the layers through their public calls
//! only, one stage after another, and wraps every call in a span (a no-op
//! unless the iteration is traced).

use crate::runner::{work_dir, Outcome, Workload, WORKERS};
use crate::stats::fnv1a;
use crate::trace::{since, Tracer};
use qem::core::reports::{
    figure3, figure4, figure5, figure6, table1, table2, table3, table5, table6,
};
use qem::core::{
    Campaign, CampaignOptions, CampaignResult, DomainRecord, HostMeasurement, ScanOptions, Scanner,
    ShardedExecutor, SnapshotMeasurement, SnapshotSource, VantagePoint,
};
use qem::obs::{MetricValue, MetricsSnapshot, RunTelemetry};
use qem::store::{scan_into, LongitudinalStore as SeriesStore, LongitudinalWriter};
use qem::web::{SnapshotDate, Universe, UniverseConfig};
use qem::workload::{AppSpec, EcnVariant, Scenario, WorkloadComparison, WorkloadReport};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

fn universe(scale: f64, seed: u64) -> Universe {
    Universe::generate(&UniverseConfig {
        scale,
        seed,
        ensure_rare_segments: true,
    })
}

/// The scan options a campaign run derives from `options`.
fn scan_options(options: &CampaignOptions, ipv6: bool) -> ScanOptions {
    ScanOptions {
        date: options.date,
        ipv6,
        probe: options.probe,
        trace_sample_probability: options.trace_sample_probability,
        workers: options.workers,
        seed: options.seed,
        cross_traffic: options.cross_traffic,
        retry: options.retry,
    }
}

/// A snapshot source that puts a `report.join` span around the domain join
/// and delegates everything else, so the builders' own time and the join's
/// time can be told apart from outside.  Untraced iterations use it too (the
/// span is then a no-op), so both kinds run the same code.
struct Traced<'a, S: SnapshotSource> {
    inner: &'a S,
    tracer: &'a Tracer,
}

impl<S: SnapshotSource> Clone for Traced<'_, S> {
    fn clone(&self) -> Self {
        Traced { ..*self }
    }
}

impl<'a, S: SnapshotSource> Traced<'a, S> {
    fn new(inner: &'a S, tracer: &'a Tracer) -> Self {
        Traced { inner, tracer }
    }
}

impl<S: SnapshotSource> SnapshotSource for Traced<'_, S> {
    fn date(&self) -> SnapshotDate {
        self.inner.date()
    }

    fn ipv6(&self) -> bool {
        self.inner.ipv6()
    }

    fn vantage(&self) -> &VantagePoint {
        self.inner.vantage()
    }

    fn for_each_host(&self, f: &mut dyn FnMut(&HostMeasurement)) {
        self.inner.for_each_host(f);
    }

    fn host_count(&self) -> usize {
        self.inner.host_count()
    }

    fn quic_host_count(&self) -> usize {
        self.inner.quic_host_count()
    }

    fn domain_records(&self, universe: &Universe) -> Vec<DomainRecord> {
        self.tracer
            .span("report.join", || self.inner.domain_records(universe))
    }
}

/// Check every host of `snapshot` against the universe's ground truth:
/// returns (hosts checked, hosts whose QUIC reachability disagrees).
fn check_snapshot(universe: &Universe, snapshot: &SnapshotMeasurement) -> (u64, u64) {
    let failed = snapshot
        .hosts
        .values()
        .filter(|m| m.quic_reachable != universe.hosts[m.host_id].quic_available_at(snapshot.date))
        .count();
    (snapshot.hosts.len() as u64, failed as u64)
}

/// Add counter `name` of the program's telemetry to the per-layer counter it
/// feeds, if any: queues are summed over routers (`queue.r<id>.dropped`
/// feeds `queue.dropped`).
fn add_to_layer(counters: &mut BTreeMap<String, u64>, name: &str, value: u64) {
    let layer = match name {
        "scan.hosts" | "scan.quic.retries" | "scan.traced" => name.to_string(),
        "engine.events_processed" => "engine.events".to_string(),
        _ if name.starts_with("queue.") => {
            format!("queue.{}", name.rsplit('.').next().unwrap_or_default())
        }
        _ => return,
    };
    *counters.entry(layer).or_default() += value;
}

/// Add every metric of `snapshot` to `counters` under `prefix`, and its
/// counters to the per-layer sums.
fn fold_metrics(counters: &mut BTreeMap<String, u64>, prefix: &str, snapshot: &MetricsSnapshot) {
    for (name, value) in &snapshot.metrics {
        match value {
            MetricValue::Counter(v) => {
                counters.insert(format!("{prefix}/{name}"), *v);
                add_to_layer(counters, name, *v);
            }
            MetricValue::Gauge(v) => {
                counters.insert(format!("{prefix}/{name}"), *v);
            }
            MetricValue::Histogram(h) => {
                counters.insert(format!("{prefix}/{name}.count"), h.count);
                counters.insert(format!("{prefix}/{name}.sum"), h.sum);
            }
        }
    }
}

fn fold_telemetry(counters: &mut BTreeMap<String, u64>, telemetry: &RunTelemetry) {
    for (section, snapshot) in &telemetry.sections {
        fold_metrics(counters, section, snapshot);
    }
}

/// The per-host pass of a scan workload: `measure_host` on this thread for
/// every host of the scan population, each in its own span.
fn measure_hosts(universe: &Universe, options: &CampaignOptions, ipv6: bool, tracer: &Tracer) {
    let scanner = Scanner::new(universe, VantagePoint::main(), scan_options(options, ipv6));
    tracer.span("scan.per_host", || {
        for id in universe.scan_population(ipv6) {
            std::hint::black_box(tracer.span("scan.measure_host", || scanner.measure_host(id)));
        }
    });
}

// ---------------------------------------------------------------------------
// census
// ---------------------------------------------------------------------------

/// The `examples/census.rs` pipeline at 1:100: main campaign over IPv4 and
/// IPv6, then Tables 1, 2, 3, 5, 6 and Figure 5.
pub struct Census;

fn census_options() -> CampaignOptions {
    CampaignOptions {
        workers: WORKERS,
        ..CampaignOptions::paper_default()
    }
}

fn census_reports<S: SnapshotSource>(
    universe: &Universe,
    v4: &S,
    v6: Option<&S>,
    tracer: &Tracer,
) -> String {
    let mut out = String::new();
    out += &tracer.span("report.table1", || table1(universe, v4).to_string());
    out += &tracer.span("report.table2", || table2(universe, v4).to_string());
    out += &tracer.span("report.table3", || table3(universe, v4).to_string());
    out += &tracer.span("report.table5", || table5(universe, v4, v6).to_string());
    out += &tracer.span("report.table6", || table6(universe, v4).to_string());
    if let Some(v6) = v6 {
        out += &tracer.span("report.figure5", || figure5(universe, v4, v6).to_string());
    }
    out
}

impl Workload for Census {
    type Input = Universe;
    type Output = (CampaignResult, RunTelemetry, String);
    const SETUP_SPAN: &'static str = "universe.generate";
    const SETUP_REPS: usize = 1;
    const THROUGHPUT: &'static str = "hosts_per_s";

    fn setup(seed: u64) -> Universe {
        universe(0.01, seed)
    }

    fn run(universe: &Universe, tracer: &Tracer) -> Self::Output {
        let campaign = Campaign::new(universe);
        let (result, telemetry) = tracer.span("scan.campaign", || {
            campaign.run_main_with_telemetry(&census_options(), true)
        });
        let v4 = Traced::new(&result.v4, tracer);
        let v6 = result.v6.as_ref().map(|v6| Traced::new(v6, tracer));
        let text = census_reports(universe, &v4, v6.as_ref(), tracer);
        (result, telemetry, text)
    }

    fn check(universe: &Universe, (result, telemetry, rendered): Self::Output) -> Outcome {
        let mut outcome = Outcome {
            rendered,
            ..Outcome::default()
        };
        for snapshot in std::iter::once(&result.v4).chain(result.v6.as_ref()) {
            let (checked, failed) = check_snapshot(universe, snapshot);
            outcome.checked += checked;
            outcome.failed += failed;
        }
        outcome.items = outcome.checked as f64;
        fold_telemetry(&mut outcome.counters, &telemetry);
        outcome
    }

    fn per_host(universe: &Universe, tracer: &Tracer) {
        measure_hosts(universe, &census_options(), false, tracer);
        measure_hosts(universe, &census_options(), true, tracer);
    }
}

// ---------------------------------------------------------------------------
// ce_under_load
// ---------------------------------------------------------------------------

/// The Figure 6 run at 1:1000 with every probed host behind a congested
/// shared bottleneck, IPv4 only.
pub struct CeUnderLoad;

fn ce_options() -> CampaignOptions {
    CampaignOptions {
        workers: WORKERS,
        ..CampaignOptions::ce_probing_under_load()
    }
}

impl Workload for CeUnderLoad {
    type Input = Universe;
    type Output = (CampaignResult, RunTelemetry, String);
    const SETUP_SPAN: &'static str = "universe.generate";
    const SETUP_REPS: usize = 4;
    const THROUGHPUT: &'static str = "hosts_per_s";

    fn setup(seed: u64) -> Universe {
        universe(0.001, seed)
    }

    fn run(universe: &Universe, tracer: &Tracer) -> Self::Output {
        let campaign = Campaign::new(universe);
        let (result, telemetry) = tracer.span("scan.campaign", || {
            campaign.run_main_with_telemetry(&ce_options(), false)
        });
        let v4 = Traced::new(&result.v4, tracer);
        let text = tracer.span("report.figure6", || figure6(universe, &v4).to_string());
        (result, telemetry, text)
    }

    fn check(universe: &Universe, output: Self::Output) -> Outcome {
        Census::check(universe, output)
    }

    fn per_host(universe: &Universe, tracer: &Tracer) {
        measure_hosts(universe, &ce_options(), false, tracer);
    }
}

// ---------------------------------------------------------------------------
// longitudinal_store
// ---------------------------------------------------------------------------

/// The eleven monthly IPv4 snapshots at 1:1000 streamed into a delta-encoded
/// store, which is then reopened and replayed to render Figures 3 and 4.
pub struct LongitudinalStore;

pub struct SeriesOutput {
    dir: PathBuf,
    telemetry: Vec<MetricsSnapshot>,
    stored_per_date: Vec<u64>,
    stored_record_count: Vec<Option<u64>>,
    population: usize,
    replayed: Result<Vec<SnapshotMeasurement>, String>,
    rendered: String,
}

fn series_options() -> CampaignOptions {
    CampaignOptions {
        workers: WORKERS,
        ..CampaignOptions::paper_default()
    }
}

/// Figure 3 over every replayed date, Figure 4 over the paper's key dates.
fn longitudinal_reports<S: SnapshotSource + Clone>(
    universe: &Universe,
    all: &[S],
    tracer: &Tracer,
) -> String {
    let mut out = tracer.span("report.figure3", || figure3(universe, all).to_string());
    out += &tracer.span("report.figure4", || {
        let key_dates = [
            SnapshotDate::JUN_2022,
            SnapshotDate::FEB_2023,
            SnapshotDate::APR_2023,
        ];
        let key: Vec<S> = all
            .iter()
            .filter(|s| key_dates.contains(&s.date()))
            .cloned()
            .collect();
        figure4(universe, &key).to_string()
    });
    out
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

impl Workload for LongitudinalStore {
    type Input = Universe;
    type Output = SeriesOutput;
    const SETUP_SPAN: &'static str = "universe.generate";
    const SETUP_REPS: usize = 4;
    const THROUGHPUT: &'static str = "hosts_per_s";

    fn setup(seed: u64) -> Universe {
        universe(0.001, seed)
    }

    fn run(universe: &Universe, tracer: &Tracer) -> SeriesOutput {
        let dir = work_dir().join(format!("store-{}", std::process::id()));
        let dates = SnapshotDate::longitudinal_range();
        let options = series_options();
        let vantage = VantagePoint::main();
        let population = tracer.span("scan.population", || universe.scan_population(false));

        let mut writer = tracer
            .span("store.create", || {
                LongitudinalWriter::create(&dir, &vantage, &options, &dates)
            })
            .unwrap_or_else(|e| panic!("creating a series at {}: {e}", dir.display()));
        let mut telemetry = Vec::with_capacity(dates.len());
        for _ in &dates {
            let date = tracer
                .span("store.begin", || writer.begin_date())
                .expect("begin the next date");
            let metrics = tracer.span("scan.date", || {
                let scanner = Scanner::new(
                    universe,
                    vantage.clone(),
                    scan_options(&CampaignOptions { date, ..options }, false),
                );
                scan_into(&scanner, &population, |m| {
                    tracer.span("store.append", || writer.append(m))
                })
                .expect("append a measurement");
                scanner.metrics_snapshot()
            });
            tracer
                .span("store.seal", || writer.end_date())
                .expect("seal a date");
            telemetry.push(metrics);
        }
        let stored_per_date = writer.stored_per_date().to_vec();
        drop(
            tracer
                .span("store.seal", || writer.finish())
                .expect("seal the series"),
        );

        let store = tracer
            .span("store.open", || SeriesStore::open(&dir))
            .expect("reopen the series");
        let stored_record_count = (0..dates.len())
            .map(|idx| store.stored_record_count(idx))
            .collect();
        let replayed = tracer
            .span("store.replay", || store.snapshots())
            .map_err(|e| e.to_string());
        let rendered = match &replayed {
            Ok(snapshots) => {
                let all: Vec<_> = snapshots.iter().map(|s| Traced::new(s, tracer)).collect();
                longitudinal_reports(universe, &all, tracer)
            }
            Err(_) => String::new(),
        };
        SeriesOutput {
            dir,
            telemetry,
            stored_per_date,
            stored_record_count,
            population: population.len(),
            replayed,
            rendered,
        }
    }

    fn per_host(universe: &Universe, tracer: &Tracer) {
        for date in SnapshotDate::longitudinal_range() {
            let options = CampaignOptions {
                date,
                ..series_options()
            };
            measure_hosts(universe, &options, false, tracer);
        }
    }

    fn check(universe: &Universe, output: SeriesOutput) -> Outcome {
        let dates = SnapshotDate::longitudinal_range();
        let mut outcome = Outcome {
            items: (dates.len() * output.population) as f64,
            ..Outcome::default()
        };
        match &output.replayed {
            Ok(snapshots) => {
                for (snapshot, &date) in snapshots.iter().zip(&dates) {
                    let (checked, failed) = check_snapshot(universe, snapshot);
                    outcome.checked += checked;
                    outcome.failed += failed;
                    // A replayed date must hold the whole population, at
                    // the date it was written for.
                    let missing = output.population.abs_diff(snapshot.hosts.len()) as u64;
                    outcome.checked += 1;
                    outcome.failed += missing + u64::from(snapshot.date != date);
                }
                outcome.checked += 1;
                outcome.failed += u64::from(snapshots.len() != dates.len());
            }
            Err(e) => {
                eprintln!("perfbench: replay failed: {e}");
                outcome.checked += 1;
                outcome.failed += 1;
            }
        }
        // The store's own record counts must match what the writer stored.
        for (idx, (&stored, recorded)) in output
            .stored_per_date
            .iter()
            .zip(&output.stored_record_count)
            .enumerate()
        {
            outcome.checked += 1;
            outcome.failed += u64::from(*recorded != Some(stored));
            outcome
                .counters
                .insert(format!("store.stored.d{idx:02}"), stored);
        }
        for (idx, snapshot) in output.telemetry.iter().enumerate() {
            fold_metrics(&mut outcome.counters, &format!("d{idx:02}"), snapshot);
        }
        let records: u64 = output.stored_per_date.iter().sum();
        outcome.counters.insert("store.records".into(), records);
        outcome.counters.insert(
            "store.offered".into(),
            (dates.len() * output.population) as u64,
        );
        outcome
            .counters
            .insert("store.bytes".into(), dir_bytes(&output.dir));
        outcome.rendered = output.rendered;
        if let Err(e) = fs::remove_dir_all(&output.dir) {
            eprintln!("perfbench: removing {}: {e}", output.dir.display());
        }
        outcome
    }
}

// ---------------------------------------------------------------------------
// netbench
// ---------------------------------------------------------------------------

/// The three netbench scenarios under all three ECN variants, over a range
/// of scenario seeds derived from the workload seed.
pub struct Netbench;

/// Scenario seeds per run: enough that one pass takes about a second.
const NETBENCH_SEEDS: u64 = 24;

fn scenario_span(scenario: &Scenario) -> &'static str {
    match scenario.name.as_str() {
        "netbench" => "workload.netbench",
        "lossy-bottleneck" => "workload.lossy_bottleneck",
        "flapping-link" => "workload.flapping_link",
        other => panic!("unexpected scenario {other}"),
    }
}

/// Application bytes a run delivered: completed bulk objects plus delivered
/// RTC frames.
fn app_bytes(scenario: &Scenario, report: &WorkloadReport) -> u64 {
    let bulk: u64 = report
        .bulk
        .iter()
        .map(|b| b.object_size * b.fct_us.iter().filter(|&&fct| fct != u64::MAX).count() as u64)
        .sum();
    let frame_sizes = scenario.apps.iter().filter_map(|app| match app {
        AppSpec::RtcStream {
            frame_interval_us,
            bitrate_kbps,
            ..
        } => Some((bitrate_kbps * frame_interval_us / 8_000).max(1)),
        _ => None,
    });
    let rtc: u64 = report
        .rtc
        .iter()
        .zip(frame_sizes)
        .map(|(r, frame_bytes)| r.frames_delivered * frame_bytes)
        .sum();
    bulk + rtc
}

impl Workload for Netbench {
    type Input = Vec<Scenario>;
    type Output = Vec<(WorkloadComparison, String)>;
    const SETUP_SPAN: &'static str = "workload.build";
    const SETUP_REPS: usize = 11;
    const THROUGHPUT: &'static str = "app_mb_per_s";

    fn setup(seed: u64) -> Vec<Scenario> {
        (0..NETBENCH_SEEDS)
            .flat_map(|k| {
                let s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(k);
                [
                    Scenario::netbench_default(s),
                    Scenario::lossy_bottleneck(s),
                    Scenario::flapping_link(s),
                ]
            })
            .collect()
    }

    fn run(scenarios: &Vec<Scenario>, tracer: &Tracer) -> Self::Output {
        // Every (scenario, variant) run on the worker budget, as
        // `examples/netbench.rs` does.  Runs on worker threads are timed
        // there and recorded as spans once the executor returns.
        let runs: Vec<(&Scenario, EcnVariant)> = scenarios
            .iter()
            .flat_map(|s| EcnVariant::ALL.map(|v| (s, v)))
            .collect();
        let origin = tracer.origin();
        let mut reports = tracer
            .span("workload.run", || {
                let timed = ShardedExecutor::new(WORKERS).run(&runs, |&(scenario, variant)| {
                    let start = since(origin);
                    let report = scenario.run(variant);
                    (report, start, since(origin))
                });
                runs.iter()
                    .zip(timed)
                    .map(|(&(scenario, _), (report, start, end))| {
                        tracer.record(scenario_span(scenario), start, end);
                        report
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter();
        scenarios
            .iter()
            .map(|scenario| {
                let comparison = WorkloadComparison {
                    scenario: scenario.name.clone(),
                    seed: scenario.seed,
                    reports: reports.by_ref().take(EcnVariant::ALL.len()).collect(),
                };
                let text = tracer.span("workload.render", || comparison.to_string());
                (comparison, text)
            })
            .collect()
    }

    fn check(scenarios: &Vec<Scenario>, output: Self::Output) -> Outcome {
        let mut outcome = Outcome::default();
        let mut bytes = 0u64;
        for (scenario, (comparison, text)) in scenarios.iter().zip(output) {
            for report in &comparison.reports {
                outcome
                    .fingerprints
                    .push(fnv1a(format!("{report:?}").as_bytes()));
                bytes += app_bytes(scenario, report);
                let counters = &mut outcome.counters;
                for (name, value) in &report.metrics.metrics {
                    if let MetricValue::Counter(v) | MetricValue::Gauge(v) = value {
                        *counters.entry(format!("sum/{name}")).or_default() += v;
                    }
                    if let MetricValue::Counter(v) = value {
                        add_to_layer(counters, name, *v);
                    }
                }
                *counters.entry("workload.queue_dropped".into()).or_default() +=
                    report.queue.dropped;
            }
            outcome.rendered += &text;
        }
        let events = outcome.counters.get("engine.events").copied().unwrap_or(0);
        outcome
            .counters
            .insert("workload.engine_events".into(), events);
        outcome.counters.insert("workload.app_bytes".into(), bytes);
        outcome.items = bytes as f64 / 1e6;
        outcome
    }
}
