//! Differential tests: the timer wheel against the binary-heap oracle.
//!
//! The engine's [`Scheduler`] boundary has two implementations —
//! [`EventQueue`] (binary heap, the reference oracle) and [`TimerWheel`]
//! (the production scheduler).  Their contract is bit-identical observable
//! behaviour: the same `(fire time, payload)` sequence, the same FIFO
//! tie-breaking, the same batch boundaries, the same cancellation
//! accounting.  These tests drive both through identical workloads — a
//! full shared-bottleneck engine run, one stopped when its measured flow
//! is done, explicit cancellation, and
//! proptest-generated random schedule/cancel/pop interleavings — and
//! assert exact agreement.

use proptest::prelude::*;
use qem_netsim::engine::{
    CrossTraffic, EngineCore, EventQueue, Flow, FlowStatus, FlowWake, LoadFlow, Scheduler,
    SharedQueues,
};
use qem_netsim::{
    build_transit_path, Asn, EngineTelemetry, Path, SimDuration, SimInstant, TimerWheel,
    TransitProfile,
};

/// Run the congested shared-bottleneck scenario — 32 background load flows
/// racing through one queue — on the given scheduler, returning the wake
/// log and the telemetry document.
fn run_congested<S: Scheduler<usize> + Default>(seed: u64) -> (Vec<FlowWake>, EngineTelemetry) {
    let forward = build_transit_path(Asn::DFN, Asn(13335), TransitProfile::Clean, false);
    let (queues, mut loads) = CrossTraffic::congested()
        .instantiate(&forward, seed)
        .expect("transit path has a bottleneck hop");
    let mut engine: EngineCore<'_, S> = EngineCore::new(queues);
    for load in loads.iter_mut() {
        engine.add_flow(load);
    }
    engine.run();
    let log = engine.event_log();
    let telemetry = engine.telemetry();
    (log, telemetry)
}

/// The tentpole's acceptance test: a multi-flow engine run produces a
/// bit-identical event log — and therefore bit-identical telemetry — on
/// the heap oracle and the timer wheel.
#[test]
fn wheel_and_heap_agree_on_multi_flow_event_order() {
    for seed in [1u64, 7, 42, 1299] {
        let (heap_log, heap_tel) = run_congested::<EventQueue<usize>>(seed);
        let (wheel_log, wheel_tel) = run_congested::<TimerWheel<usize>>(seed);
        assert!(!heap_log.is_empty(), "scenario must produce wakes");
        assert_eq!(heap_log, wheel_log, "event order diverged (seed {seed})");
        assert_eq!(heap_tel, wheel_tel, "telemetry diverged (seed {seed})");
    }
}

/// The congested fleet plus a short measured flow: five packets through
/// the same bottleneck, 1 ms apart.
fn fleet_and_measured_flow(seed: u64) -> (SharedQueues, Vec<LoadFlow>, LoadFlow) {
    let forward = build_transit_path(Asn::DFN, Asn(13335), TransitProfile::Clean, false);
    let (queues, loads) = CrossTraffic::congested()
        .instantiate(&forward, seed)
        .expect("transit path has a bottleneck hop");
    let bottleneck = forward.hops.last().expect("bottleneck hop").clone();
    let measured = LoadFlow::new(
        Path::new(vec![bottleneck]),
        5,
        SimDuration::from_millis(1),
        seed ^ 0xec,
    );
    (queues, loads, measured)
}

/// What one engine run of [`fleet_and_measured_flow`] lets the caller see.
struct Snapshot {
    measured: usize,
    log: Vec<FlowWake>,
    telemetry: EngineTelemetry,
}

/// Register the fleet, then the measured flow last, and run: with
/// `run_until_done` on the measured flow when `stop` is set, then — in
/// either case — with `run` to the end.  Returns what was observable at
/// the stop (or after the plain run) and at the end.
fn run_fleet<S: Scheduler<usize> + Default>(seed: u64, stop: bool) -> (Snapshot, Snapshot) {
    let (queues, mut loads, mut measured) = fleet_and_measured_flow(seed);
    let mut engine: EngineCore<'_, S> = EngineCore::new(queues);
    for load in loads.iter_mut() {
        engine.add_flow(load);
    }
    let index = engine.add_flow(&mut measured);
    if stop {
        engine.run_until_done(index);
    } else {
        engine.run();
    }
    let snapshot = |engine: &EngineCore<'_, S>| Snapshot {
        measured: index,
        log: engine.event_log(),
        telemetry: engine.telemetry(),
    };
    let at_stop = snapshot(&engine);
    engine.run();
    (at_stop, snapshot(&engine))
}

/// `run_until_done` stops both schedulers at the same wake — the measured
/// flow's last — with identical logs and telemetry, long before the fleet
/// is done; resuming with `run` then reaches exactly the state of a single
/// uninterrupted `run`.
#[test]
fn wheel_and_heap_stop_at_the_same_wake() {
    for seed in [1u64, 7, 42, 1299] {
        let (heap_stop, heap_end) = run_fleet::<EventQueue<usize>>(seed, true);
        let (wheel_stop, wheel_end) = run_fleet::<TimerWheel<usize>>(seed, true);
        assert_eq!(heap_stop.log, wheel_stop.log, "stop diverged (seed {seed})");
        assert_eq!(heap_stop.telemetry, wheel_stop.telemetry);
        assert_eq!(heap_end.log, wheel_end.log, "resume diverged (seed {seed})");
        assert_eq!(heap_end.telemetry, wheel_end.telemetry);

        // The stop is the measured flow's fifth and final wake, at 4 ms,
        // while the fleet still has most of its 63 ms to go.
        let last = wheel_stop.log.last().expect("wakes before the stop");
        assert_eq!(last.flow, wheel_stop.measured);
        assert_eq!(last.at, SimInstant::EPOCH + SimDuration::from_millis(4));
        assert_eq!(
            wheel_stop.telemetry.metrics.gauge("engine.virtual_now_us"),
            Some(4_000)
        );
        assert!(wheel_stop.log.len() < wheel_end.log.len());

        // Stopping and resuming loses no wake: the same log and telemetry
        // as one uninterrupted `run`.
        let (uninterrupted, _) = run_fleet::<TimerWheel<usize>>(seed, false);
        assert_eq!(uninterrupted.log, wheel_end.log);
        assert_eq!(uninterrupted.telemetry, wheel_end.telemetry);
    }
}

/// A flow that re-arms a fixed number of times at a fixed period.
struct PeriodicFlow {
    period: SimDuration,
    remaining: u32,
}

impl Flow for PeriodicFlow {
    fn on_wake(&mut self, now: SimInstant, _net: &mut SharedQueues) -> FlowStatus {
        if self.remaining == 0 {
            FlowStatus::Done
        } else {
            self.remaining -= 1;
            FlowStatus::Sleep(now + self.period)
        }
    }
}

/// Cancelled wakes really are cancelled (the flow never fires), and the
/// engine accounts for them: `cancelled` counts the cancel call, `stale`
/// counts the skipped wheel/heap entry, and both surface in the telemetry
/// document — but only when nonzero, so cancel-free runs keep byte-stable
/// golden telemetry.
#[test]
fn cancelled_wakes_are_skipped_and_counted() {
    fn run<S: Scheduler<usize> + Default>() -> (Vec<FlowWake>, EngineTelemetry) {
        let mut ticker = PeriodicFlow {
            period: SimDuration::from_millis(1),
            remaining: 3,
        };
        let mut engine: EngineCore<'_, S> = EngineCore::new(SharedQueues::new());
        let index = engine.add_flow(&mut ticker);
        // An extra wake far in the future, cancelled before it fires: the
        // run must end at the ticker's natural end, not at +10 s.
        let id = engine.schedule_wake_at(SimInstant::EPOCH + SimDuration::from_secs(10), index);
        assert!(engine.cancel_wake(id));
        // Cancelling again is a no-op: the id is already dead.
        assert!(!engine.cancel_wake(id));
        engine.run();
        let stats = engine.scheduler_stats();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.stale, 1);
        (engine.event_log(), engine.telemetry())
    }

    let (heap_log, heap_tel) = run::<EventQueue<usize>>();
    let (wheel_log, wheel_tel) = run::<TimerWheel<usize>>();
    assert_eq!(heap_log, wheel_log);
    assert_eq!(heap_tel, wheel_tel);

    // 4 wakes fired (the initial one plus 3 re-arms); the cancelled fifth
    // never did, and the telemetry document says so.
    assert_eq!(heap_log.len(), 4);
    assert_eq!(heap_tel.metrics.counter("engine.sched.cancelled"), Some(1));
    assert_eq!(heap_tel.metrics.counter("engine.sched.stale_pops"), Some(1));

    // A cancel-free run emits neither counter: the golden telemetry
    // documents pinned before the scheduler swap stay byte-identical.
    let (_, clean_tel) = run_congested::<TimerWheel<usize>>(1);
    assert_eq!(clean_tel.metrics.counter("engine.sched.cancelled"), None);
    assert_eq!(clean_tel.metrics.counter("engine.sched.stale_pops"), None);
}

/// One step of the random scheduler workload.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule a payload `delay_us` after the latest schedule so far.
    /// Schedule times are monotone — the engine's usage pattern: flows
    /// re-arm relative to their wake instant, never behind it.
    Schedule { delay_us: u64, payload: u32 },
    /// Cancel the `i`-th id handed out so far (mod the count), if any.
    Cancel { i: usize },
    /// Pop the next live event.
    Pop,
    /// Drain the next same-instant batch.
    PopBatch,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Delays span wheel levels: 0 forces same-tick collisions, large
        // values force far-future entries that must cascade down.
        (0u64..3_000_000, any::<u32>())
            .prop_map(|(delay_us, payload)| Op::Schedule { delay_us, payload }),
        (0usize..64).prop_map(|i| Op::Cancel { i }),
        Just(Op::Pop),
        Just(Op::PopBatch),
    ]
}

/// Everything one scheduler interaction lets the caller observe.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Observed {
    Cancelled(bool),
    Popped(Option<(u64, u32)>, usize),
    Batch(Vec<(u64, u32)>, usize),
}

/// Apply the same operation sequence and record every observable: pop
/// results, batch boundaries, cancel return values, pending lengths.
fn observe<S: Scheduler<u32>>(sched: &mut S, ops: &[Op]) -> Vec<Observed> {
    let mut ids = Vec::new();
    let mut horizon = 0u64;
    let mut seen = Vec::new();
    let mut batch = Vec::new();
    for op in ops {
        match op {
            Op::Schedule { delay_us, payload } => {
                horizon += delay_us;
                let at = SimInstant::EPOCH + SimDuration::from_micros(horizon);
                ids.push(Some(sched.schedule_at(at, *payload)));
            }
            Op::Cancel { i } => {
                if !ids.is_empty() {
                    let slot = *i % ids.len();
                    if let Some(id) = ids[slot].take() {
                        // Whether the cancel lands (the event may already
                        // have fired) must agree between implementations.
                        seen.push(Observed::Cancelled(sched.cancel(id)));
                    }
                }
            }
            Op::Pop => {
                let popped = sched.pop().map(|e| (e.at.as_micros(), e.payload));
                seen.push(Observed::Popped(popped, sched.len()));
            }
            Op::PopBatch => {
                sched.pop_batch(&mut batch);
                let items = batch
                    .iter()
                    .map(|e| (e.at.as_micros(), e.payload))
                    .collect();
                seen.push(Observed::Batch(items, sched.len()));
            }
        }
    }
    // Full drain: whatever is left must come out in the same order, and
    // skipping the cancelled entries must leave identical stale totals.
    while let Some(e) = sched.pop() {
        seen.push(Observed::Popped(
            Some((e.at.as_micros(), e.payload)),
            sched.len(),
        ));
    }
    seen
}

proptest! {
    /// Any interleaving of schedules, cancels and pops observed through the
    /// heap oracle and the timer wheel is indistinguishable: same events at
    /// the same times in the same batches, same cancel outcomes, same
    /// lengths, same final counters.
    #[test]
    fn random_workloads_are_indistinguishable(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let mut heap = EventQueue::<u32>::new();
        let mut wheel = TimerWheel::<u32>::new();
        let heap_seen = observe(&mut heap, &ops);
        let wheel_seen = observe(&mut wheel, &ops);
        prop_assert_eq!(heap_seen, wheel_seen);
        prop_assert_eq!(
            Scheduler::<u32>::stats(&heap),
            Scheduler::<u32>::stats(&wheel)
        );
    }
}
