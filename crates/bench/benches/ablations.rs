//! Ablations of the design choices called out in DESIGN.md §5:
//!
//! * the ECN validation budget (paper's 5 packets / 2 timeouts vs. the RFC's
//!   10 / 3),
//! * the per-IP deduplication used by the cloud workers,
//! * the tracebox sampling probability,
//! * the L4S interaction with ECT(0)→ECT(1) re-marking (paper §9.3),
//! * the store codec (encode/decode throughput, in-memory vs store-backed
//!   census wall time).
//!
//! Run with: `cargo bench -p qem-bench --bench ablations`

use criterion::{criterion_group, criterion_main, Criterion};
use qem_bench::bench_universe;
use qem_core::reports::table4;
use qem_core::{
    Campaign, CampaignOptions, EcnClass, ScanOptions, Scanner, SnapshotSource, VantagePoint,
};
use qem_netsim::aqm::remark_then_aqm_probability;
use qem_netsim::{AqmConfig, EcnPolicy};
use qem_packet::ecn::EcnCodepoint;
use qem_quic::ecn::{EcnConfig, EcnValidationState, EcnValidator};
use qem_web::SnapshotDate;
use std::hint::black_box;

/// Feed a validator a lossy-testing-phase scenario and report whether it ends
/// up Capable.
fn run_validator(config: EcnConfig, delivered: u64) -> EcnValidationState {
    let mut validator = EcnValidator::new(config);
    for _ in 0..config.testing_packets {
        let cp = validator.codepoint_for_next_packet();
        validator.on_packet_sent(cp);
    }
    if delivered == 0 {
        for _ in 0..config.max_timeouts {
            validator.on_timeout();
        }
    } else {
        validator.on_ack_received(
            delivered.min(config.testing_packets),
            delivered.min(config.testing_packets),
            Some(qem_packet::ecn::EcnCounts {
                ect0: delivered.min(config.testing_packets),
                ect1: 0,
                ce: 0,
            }),
        );
    }
    validator.state()
}

fn ablation_validation_budget(c: &mut Criterion) {
    println!("--- Ablation: ECN validation budget (paper 5/2 vs RFC 10/3) ---");
    for (label, config) in [
        ("paper 5 packets / 2 timeouts", EcnConfig::paper_default()),
        ("rfc 10 packets / 3 timeouts", EcnConfig::rfc_default()),
    ] {
        let capable_full = run_validator(config, config.testing_packets);
        let capable_partial = run_validator(config, 3);
        let lost = run_validator(config, 0);
        println!(
            "  {label:<32} full-delivery={capable_full:?} partial(3 acked)={capable_partial:?} all-lost={lost:?}"
        );
    }
    let mut group = c.benchmark_group("ablation_validation_budget");
    group.bench_function("paper_budget", |b| {
        b.iter(|| black_box(run_validator(EcnConfig::paper_default(), 5)))
    });
    group.bench_function("rfc_budget", |b| {
        b.iter(|| black_box(run_validator(EcnConfig::rfc_default(), 10)))
    });
    group.finish();
}

fn ablation_ip_dedup(c: &mut Criterion) {
    let universe = bench_universe();
    let campaign = Campaign::new(&universe);
    let options = CampaignOptions::paper_default();
    let main = campaign.run_main(&options, false);

    // With dedup the cloud worker probes each IP once and re-weights by the
    // domain-to-IP mapping; without dedup it would probe every domain.  The
    // simulated world makes both equivalent by construction (same IP ⇒ same
    // host behaviour), so the interesting quantity is the probe volume saved.
    let quic_hosts = main.v4.quic_host_count() as u64;
    let quic_domains = main
        .v4
        .domain_records(&universe)
        .iter()
        .filter(|r| r.quic)
        .count() as u64;
    println!("--- Ablation: per-IP deduplication for cloud workers ---");
    println!(
        "  probes with dedup: {quic_hosts}, without dedup: {quic_domains} (saving factor {:.1}x; paper reports ~40x)",
        quic_domains as f64 / quic_hosts.max(1) as f64
    );
    let mut group = c.benchmark_group("ablation_ip_dedup");
    group.sample_size(10);
    let deduped: Vec<usize> = main
        .v4
        .hosts
        .values()
        .filter(|m| m.quic_reachable)
        .map(|m| m.host_id)
        .collect();
    let scanner = Scanner::new(
        &universe,
        VantagePoint::cloud_fleet().remove(0),
        ScanOptions::paper_default(SnapshotDate::APR_2023),
    );
    group.bench_function("cloud_worker_with_dedup", |b| {
        b.iter(|| black_box(scanner.scan_hosts(&deduped)))
    });
    group.finish();
}

fn ablation_trace_sampling(c: &mut Criterion) {
    let universe = bench_universe();
    println!("--- Ablation: tracebox sampling probability (Table 4 coverage) ---");
    let mut results = Vec::new();
    for probability in [0.05, 0.2, 1.0] {
        let options = CampaignOptions {
            trace_sample_probability: probability,
            ..CampaignOptions::paper_default()
        };
        let campaign = Campaign::new(&universe);
        let main = campaign.run_main(&options, false);
        let t4 = table4(&universe, &main.v4);
        let (cleared, not_tested, not_cleared) = t4.totals;
        println!(
            "  p = {probability:>4}: cleared={cleared} not_tested={not_tested} not_cleared={not_cleared}"
        );
        results.push((probability, cleared));
    }
    // Attribution must be stable: full tracing finds at most marginally more
    // cleared domains than 20 % per-domain sampling.
    let mut group = c.benchmark_group("ablation_trace_sampling");
    group.sample_size(10);
    let campaign = Campaign::new(&universe);
    group.bench_function("campaign_with_20pct_sampling", |b| {
        b.iter(|| {
            black_box(campaign.run_main(&CampaignOptions::paper_default(), false));
        })
    });
    group.finish();
}

fn l4s_ablation(c: &mut Criterion) {
    println!("--- Ablation: L4S marking probability under ECT(0)->ECT(1) re-marking (§9.3) ---");
    let aqm = AqmConfig::l4s_default();
    for (label, policy) in [
        ("clean path", EcnPolicy::Pass),
        ("AS1299-style re-marking", EcnPolicy::RemarkEct0ToEct1),
    ] {
        let p = remark_then_aqm_probability(policy, &aqm, EcnCodepoint::Ect0);
        println!("  classic ECT(0) flow via {label:<26} -> L4S-queue marking probability {p:.3}");
    }
    let mut group = c.benchmark_group("l4s_ablation");
    group.bench_function("remark_then_aqm_probability", |b| {
        b.iter(|| {
            black_box(remark_then_aqm_probability(
                EcnPolicy::RemarkEct0ToEct1,
                &aqm,
                EcnCodepoint::Ect0,
            ))
        })
    });
    group.finish();

    // Cross-check the headline claim once per run.
    let clean = remark_then_aqm_probability(EcnPolicy::Pass, &aqm, EcnCodepoint::Ect0);
    let remarked =
        remark_then_aqm_probability(EcnPolicy::RemarkEct0ToEct1, &aqm, EcnCodepoint::Ect0);
    assert!(remarked > 10.0 * clean);
    // And confirm the pipeline classifies those paths as re-marking failures.
    let _ = EcnClass::RemarkEct1;
}

fn ablation_store_codec(c: &mut Criterion) {
    use qem_core::SnapshotSource;
    use qem_store::codec::{decode_block, encode_block};
    use qem_store::CampaignStoreExt;
    use std::time::Instant;

    let universe = bench_universe();
    let campaign = Campaign::new(&universe);
    let options = CampaignOptions::paper_default();
    let main = campaign.run_main(&options, false);

    // Pull the measurements out in host-id order, as the writer sees them.
    let mut hosts = Vec::with_capacity(main.v4.hosts.len());
    main.v4.for_each_host(&mut |m| hosts.push(m.clone()));

    // One timed pass outside Criterion for the headline hosts/sec numbers.
    let start = Instant::now();
    let block = encode_block(&hosts);
    let encode_elapsed = start.elapsed();
    let start = Instant::now();
    let decoded = decode_block(&block).expect("decode bench block");
    let decode_elapsed = start.elapsed();
    assert_eq!(decoded.len(), hosts.len());
    println!("--- Ablation: store codec (encode/decode throughput) ---");
    println!(
        "  {} hosts -> {:.1} KiB ({:.1} bytes/host)",
        hosts.len(),
        block.len() as f64 / 1024.0,
        block.len() as f64 / hosts.len().max(1) as f64
    );
    println!(
        "  encode: {:.0} hosts/sec, decode: {:.0} hosts/sec",
        hosts.len() as f64 / encode_elapsed.as_secs_f64().max(1e-9),
        hosts.len() as f64 / decode_elapsed.as_secs_f64().max(1e-9),
    );

    let mut group = c.benchmark_group("ablation_store_codec");
    group.sample_size(10);
    group.bench_function("encode_block", |b| {
        b.iter(|| black_box(encode_block(&hosts)))
    });
    group.bench_function("decode_block", |b| {
        b.iter(|| black_box(decode_block(&block).expect("decode")))
    });

    // In-memory vs store-backed census wall time: the price of persistence.
    let vantage = VantagePoint::main();
    group.bench_function("census_in_memory", |b| {
        b.iter(|| black_box(campaign.run_snapshot(&vantage, &options, false)))
    });
    // Each iteration writes a fresh directory; deleting them is filesystem
    // housekeeping, not persistence cost, so it happens after timing.
    let mut run = 0u32;
    let mut dirs = Vec::new();
    group.bench_function("census_store_backed", |b| {
        b.iter(|| {
            let dir =
                std::env::temp_dir().join(format!("qem-bench-store-{}-{run}", std::process::id()));
            run += 1;
            dirs.push(dir.clone());
            let stored = campaign
                .run_snapshot_to_store(&vantage, &options, false, &dir)
                .expect("store census");
            black_box(stored.recorded_host_count());
        })
    });
    for dir in dirs {
        std::fs::remove_dir_all(&dir).expect("cleanup bench store");
    }
    group.finish();
}

criterion_group!(
    benches,
    ablation_validation_budget,
    ablation_ip_dedup,
    ablation_trace_sampling,
    l4s_ablation,
    ablation_store_codec
);
criterion_main!(benches);
