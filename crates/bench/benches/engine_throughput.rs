//! Throughput of the discrete-event engine vs. the historical per-connection
//! driver loop, and of the timer-wheel scheduler vs. the binary-heap oracle.
//!
//! Two families of measurements:
//!
//! * **Driver loop** — the engine refactor moved connection runs onto a
//!   one-flow [`qem_netsim::Engine`]; the acceptance bar is that single-flow
//!   hosts/sec must be no worse than the legacy loop.  To keep the
//!   comparison honest the legacy loop lives on here, verbatim, built from
//!   the same public sans-IO endpoint API.
//! * **Scheduler** — the same workload driven through
//!   [`qem_netsim::EventQueue`] (binary heap, the reference oracle) and
//!   [`qem_netsim::TimerWheel`] (the production scheduler) at 1/10/100/500
//!   concurrent flows: raw scheduler churn, cancel-heavy RTO churn (the
//!   QUIC ACK-clock pattern — every wake cancels and re-arms a timer), and
//!   full engine runs of ticking flows.  The wheel's O(1) schedule/cancel
//!   is expected to pull ahead as concurrency grows.
//!
//! Run with: `cargo bench -p qem-bench --bench engine_throughput`

use criterion::{criterion_group, criterion_main, Criterion};
use qem_netsim::engine::{
    EngineCore, EventId, EventQueue, Flow, FlowStatus, Scheduler, SharedQueues,
};
use qem_netsim::{build_transit_path, Asn, CrossTraffic, DuplexPath, TimerWheel, TransitProfile};
use qem_netsim::{SimDuration, SimInstant};
use qem_packet::ip::IpDatagram;
use qem_packet::quic::QUIC_PORT;
use qem_quic::client::{ClientConfig, ClientConnection};
use qem_quic::server::ServerConnection;
use qem_quic::ServerBehavior;
use qem_quic::{ConnectionOutcome, ConnectionRun, DriverConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::time::Instant;

fn addrs() -> (IpAddr, IpAddr) {
    (
        IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10)),
        IpAddr::V4(Ipv4Addr::new(198, 51, 100, 80)),
    )
}

fn clean_path() -> DuplexPath {
    DuplexPath::symmetric_clean_reverse(build_transit_path(
        Asn::DFN,
        Asn(16509),
        TransitProfile::Clean,
        false,
    ))
}

/// The pre-engine driver loop, kept verbatim as the performance baseline.
fn legacy_run_connection(
    client_config: ClientConfig,
    behavior: ServerBehavior,
    path: &DuplexPath,
    config: &DriverConfig,
    rng: &mut StdRng,
) -> bool {
    let mut client = ClientConnection::new(client_config, SimInstant::EPOCH, rng.gen());
    let mut server = ServerConnection::new(behavior, rng.gen());
    let mut now = SimInstant::EPOCH;
    let deadline = SimInstant::EPOCH + config.max_duration;
    let client_addr = SocketAddr::new(config.client_addr, config.client_port);
    let server_addr = SocketAddr::new(config.server_addr, QUIC_PORT);

    for _ in 0..config.max_iterations {
        let mut activity = false;
        while let Some(transmit) = client.poll_transmit(now) {
            activity = true;
            let datagram =
                IpDatagram::udp(client_addr, server_addr, transmit.ecn, &transmit.payload);
            if let qem_netsim::TransitOutcome::Delivered { datagram, .. } =
                path.forward.transit(&datagram, rng)
            {
                if let Some(payload) = datagram.udp_payload() {
                    server.handle_datagram(now, datagram.header.ecn(), payload);
                }
            }
        }
        while let Some(transmit) = server.poll_transmit(now) {
            activity = true;
            let datagram =
                IpDatagram::udp(server_addr, client_addr, transmit.ecn, &transmit.payload);
            if let qem_netsim::TransitOutcome::Delivered { datagram, .. } =
                path.reverse.transit(&datagram, rng)
            {
                if let Some(payload) = datagram.udp_payload() {
                    client.handle_datagram(now, datagram.header.ecn(), payload);
                }
            }
        }
        if client.is_closed() {
            break;
        }
        if activity {
            continue;
        }
        let next = match (client.poll_timeout(), server.poll_timeout()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        };
        match next {
            Some(t) if t <= deadline => {
                now = if t > now {
                    t
                } else {
                    now + SimDuration::from_millis(1)
                };
                client.handle_timeout(now);
                server.handle_timeout(now);
            }
            _ => break,
        }
    }
    client.report().connected
}

fn engine_hosts(n: u64, path: &DuplexPath, config: &DriverConfig) -> u64 {
    let mut connected = 0u64;
    for seed in 0..n {
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome: ConnectionOutcome = ConnectionRun::new(
            ClientConfig::paper_default("bench.example"),
            ServerBehavior::accurate(),
            path,
            config.clone(),
        )
        .execute(&mut rng)
        .connection;
        connected += u64::from(outcome.report.connected);
    }
    connected
}

fn engine_hosts_with_metrics(n: u64, path: &DuplexPath, config: &DriverConfig) -> u64 {
    let mut connected = 0u64;
    for seed in 0..n {
        let mut rng = StdRng::seed_from_u64(seed);
        let run = ConnectionRun::new(
            ClientConfig::paper_default("bench.example"),
            ServerBehavior::accurate(),
            path,
            config.clone(),
        )
        .telemetry(true)
        .execute(&mut rng);
        connected += u64::from(run.connection.report.connected);
        // Consume the snapshot so the metrics pipeline cannot be elided.
        if let Some(telemetry) = run.telemetry {
            black_box(telemetry.metrics.counter("engine.events_processed"));
        }
    }
    connected
}

fn legacy_hosts(n: u64, path: &DuplexPath, config: &DriverConfig) -> u64 {
    let mut connected = 0u64;
    for seed in 0..n {
        let mut rng = StdRng::seed_from_u64(seed);
        connected += u64::from(legacy_run_connection(
            ClientConfig::paper_default("bench.example"),
            ServerBehavior::accurate(),
            path,
            config,
            &mut rng,
        ));
    }
    connected
}

fn engine_throughput(c: &mut Criterion) {
    let (client_addr, server_addr) = addrs();
    let path = clean_path();
    let config = DriverConfig::new(client_addr, server_addr);
    const HOSTS: u64 = 50;

    // Headline numbers once per run: hosts/sec, engine vs legacy (both
    // warmed up first so neither pays one-time setup costs).
    let a = legacy_hosts(HOSTS, &path, &config);
    let b = engine_hosts(HOSTS, &path, &config);
    assert_eq!(a, b, "engine and legacy loop must agree on outcomes");
    let t = Instant::now();
    let _ = black_box(legacy_hosts(HOSTS, &path, &config));
    let legacy_rate = HOSTS as f64 / t.elapsed().as_secs_f64();
    let t = Instant::now();
    let _ = black_box(engine_hosts(HOSTS, &path, &config));
    let engine_rate = HOSTS as f64 / t.elapsed().as_secs_f64();
    let t = Instant::now();
    let _ = black_box(engine_hosts_with_metrics(HOSTS, &path, &config));
    let metrics_rate = HOSTS as f64 / t.elapsed().as_secs_f64();
    println!("--- engine_throughput: single-flow hosts/sec ---");
    println!("  legacy driver loop: {legacy_rate:>10.0} hosts/s");
    println!(
        "  one-flow engine:    {engine_rate:>10.0} hosts/s ({:+.1} %)",
        100.0 * (engine_rate - legacy_rate) / legacy_rate
    );
    println!(
        "  engine + telemetry: {metrics_rate:>10.0} hosts/s ({:+.1} % vs engine; budget -5 %)",
        100.0 * (metrics_rate - engine_rate) / engine_rate
    );

    let mut group = c.benchmark_group("engine_throughput");
    group.sample_size(10);
    group.bench_function("single_flow_legacy_loop", |bch| {
        bch.iter(|| black_box(legacy_hosts(10, &path, &config)))
    });
    group.bench_function("single_flow_engine", |bch| {
        bch.iter(|| black_box(engine_hosts(10, &path, &config)))
    });
    // The observability acceptance bar: metrics + trace recording on the
    // same scenario must stay within a few percent of the bare engine.
    group.bench_function("single_flow_engine_with_metrics", |bch| {
        bch.iter(|| black_box(engine_hosts_with_metrics(10, &path, &config)))
    });
    // One loaded QUIC measurement: the 32 load flows' first packets, then
    // the handshake, which completes at the epoch and ends the run — load
    // not yet due is never simulated.
    group.bench_function("shared_bottleneck_32_load_flows", |bch| {
        let cross = CrossTraffic::congested();
        bch.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            black_box(
                ConnectionRun::new(
                    ClientConfig::paper_default("bench.example"),
                    ServerBehavior::accurate(),
                    &path,
                    config.clone(),
                )
                .cross_traffic(cross)
                .execute(&mut rng),
            )
        })
    });
    group.finish();
}

/// A flow that does nothing but re-arm its timer: the whole engine run is
/// scheduler cost, which is exactly what the heap-vs-wheel comparison wants
/// to isolate.
struct TickerFlow {
    interval: SimDuration,
    remaining: u32,
}

impl Flow for TickerFlow {
    fn on_wake(&mut self, now: SimInstant, _net: &mut SharedQueues) -> FlowStatus {
        if self.remaining == 0 {
            FlowStatus::Done
        } else {
            self.remaining -= 1;
            FlowStatus::Sleep(now + self.interval)
        }
    }
}

/// Staggered, co-prime-ish periods so the timers interleave across slots
/// instead of piling onto one instant.
fn ticker_interval(i: usize) -> SimDuration {
    SimDuration::from_micros(97 + (i as u64 % 64) * 13)
}

/// Raw scheduler churn: `flows` concurrent timers, each popped and re-armed
/// until ~`flows * rounds` events have fired.  No engine, no dispatch — pure
/// schedule/pop cost of the [`Scheduler`] impl.
fn scheduler_churn<S: Scheduler<usize> + Default>(flows: usize, rounds: usize) -> u64 {
    let mut sched = S::default();
    for i in 0..flows {
        sched.schedule_at(SimInstant::EPOCH + SimDuration::from_micros(i as u64), i);
    }
    let target = (flows * rounds) as u64;
    let mut fired = 0u64;
    let mut batch = Vec::new();
    while fired < target {
        if sched.pop_batch(&mut batch) == 0 {
            break;
        }
        for event in &batch {
            fired += 1;
            sched.schedule_at(event.at + ticker_interval(event.payload), event.payload);
        }
    }
    fired
}

/// The QUIC ACK-clock pattern: every wake cancels the flow's outstanding
/// retransmission timer and re-arms both it and the next pacing tick, so
/// cancellations happen as often as fires.  This is the workload the wheel
/// was built for — the heap must scan its storage per cancel before
/// tombstoning, the wheel frees an arena slot in O(1).
fn rto_churn<S: Scheduler<usize> + Default>(flows: usize, rounds: usize) -> u64 {
    let mut sched = S::default();
    let mut rtos: Vec<EventId> = Vec::with_capacity(flows);
    for i in 0..flows {
        sched.schedule_at(SimInstant::EPOCH + SimDuration::from_micros(i as u64), i);
        rtos.push(sched.schedule_at(
            SimInstant::EPOCH + SimDuration::from_millis(300) + SimDuration::from_micros(i as u64),
            i,
        ));
    }
    let target = (flows * rounds) as u64;
    let mut fired = 0u64;
    let mut batch = Vec::new();
    while fired < target {
        if sched.pop_batch(&mut batch) == 0 {
            break;
        }
        for event in &batch {
            fired += 1;
            let flow = event.payload;
            // The "ACK" arrived: the outstanding RTO is dead; a fresh one
            // and the next pacing tick take its place.
            sched.cancel(rtos[flow]);
            sched.schedule_at(event.at + ticker_interval(flow), flow);
            rtos[flow] = sched.schedule_at(event.at + SimDuration::from_millis(300), flow);
        }
    }
    fired
}

/// Full engine run over `flows` ticking flows: scheduler cost plus the
/// engine's dispatch/trace overhead, identical on both schedulers.
fn ticker_engine_events<S: Scheduler<usize> + Default>(flows: usize, wakes: u32) -> u64 {
    let mut tickers: Vec<TickerFlow> = (0..flows)
        .map(|i| TickerFlow {
            interval: ticker_interval(i),
            remaining: wakes,
        })
        .collect();
    let mut engine: EngineCore<'_, S> = EngineCore::new(SharedQueues::new());
    for (i, ticker) in tickers.iter_mut().enumerate() {
        engine.add_flow_at(
            SimInstant::EPOCH + SimDuration::from_micros(i as u64),
            ticker,
        );
    }
    engine.run();
    engine.events_processed()
}

fn scheduler_scaling(c: &mut Criterion) {
    const ROUNDS: usize = 200;
    const WAKES: u32 = 200;

    // Headline once per run: raw churn ops/sec at each concurrency level,
    // with and without per-wake cancellation.
    println!("--- scheduler_scaling: heap vs wheel, raw churn ---");
    for &flows in &[1usize, 10, 100, 500] {
        let heap_fired = scheduler_churn::<EventQueue<usize>>(flows, ROUNDS);
        let wheel_fired = scheduler_churn::<TimerWheel<usize>>(flows, ROUNDS);
        assert_eq!(heap_fired, wheel_fired, "both schedulers fire equally");
        let t = Instant::now();
        let _ = black_box(scheduler_churn::<EventQueue<usize>>(flows, ROUNDS));
        let heap = t.elapsed();
        let t = Instant::now();
        let _ = black_box(scheduler_churn::<TimerWheel<usize>>(flows, ROUNDS));
        let wheel = t.elapsed();
        println!(
            "  {flows:>3} flows: heap {heap:>9.1?}  wheel {wheel:>9.1?}  ({:.2}x)",
            heap.as_secs_f64() / wheel.as_secs_f64()
        );
    }
    println!("--- scheduler_scaling: heap vs wheel, RTO cancel churn ---");
    for &flows in &[1usize, 10, 100, 500] {
        let heap_fired = rto_churn::<EventQueue<usize>>(flows, ROUNDS);
        let wheel_fired = rto_churn::<TimerWheel<usize>>(flows, ROUNDS);
        assert_eq!(heap_fired, wheel_fired, "both schedulers fire equally");
        let t = Instant::now();
        let _ = black_box(rto_churn::<EventQueue<usize>>(flows, ROUNDS));
        let heap = t.elapsed();
        let t = Instant::now();
        let _ = black_box(rto_churn::<TimerWheel<usize>>(flows, ROUNDS));
        let wheel = t.elapsed();
        println!(
            "  {flows:>3} flows: heap {heap:>9.1?}  wheel {wheel:>9.1?}  ({:.2}x)",
            heap.as_secs_f64() / wheel.as_secs_f64()
        );
    }

    let mut group = c.benchmark_group("scheduler_scaling");
    group.sample_size(10);
    for &flows in &[1usize, 10, 100, 500] {
        group.bench_function(&format!("churn_heap_{flows}_flows"), |bch| {
            bch.iter(|| black_box(scheduler_churn::<EventQueue<usize>>(flows, ROUNDS)))
        });
        group.bench_function(&format!("churn_wheel_{flows}_flows"), |bch| {
            bch.iter(|| black_box(scheduler_churn::<TimerWheel<usize>>(flows, ROUNDS)))
        });
    }
    // The cancel-heavy variant at the concurrency levels the acceptance bar
    // names: O(1) vs O(n) cancellation is the wheel's structural win.
    for &flows in &[100usize, 500] {
        group.bench_function(&format!("rto_churn_heap_{flows}_flows"), |bch| {
            bch.iter(|| black_box(rto_churn::<EventQueue<usize>>(flows, ROUNDS)))
        });
        group.bench_function(&format!("rto_churn_wheel_{flows}_flows"), |bch| {
            bch.iter(|| black_box(rto_churn::<TimerWheel<usize>>(flows, ROUNDS)))
        });
    }
    // Engine-level confirmation at the concurrency levels where the wheel
    // matters: same flows, same wakes, full dispatch path.
    for &flows in &[100usize, 500] {
        group.bench_function(&format!("ticker_engine_heap_{flows}_flows"), |bch| {
            bch.iter(|| black_box(ticker_engine_events::<EventQueue<usize>>(flows, WAKES)))
        });
        group.bench_function(&format!("ticker_engine_wheel_{flows}_flows"), |bch| {
            bch.iter(|| black_box(ticker_engine_events::<TimerWheel<usize>>(flows, WAKES)))
        });
    }
    group.finish();
}

criterion_group!(benches, engine_throughput, scheduler_scaling);
criterion_main!(benches);
