//! Cross-crate property tests: invariants that must hold for *any* path,
//! server behaviour and loss pattern.

use proptest::prelude::*;
use qem_core::reports::HostSet;
use qem_netsim::{
    build_transit_path, Asn, DuplexPath, EcnPolicy, Hop, Path, Router, TransitProfile,
};
use qem_packet::ecn::EcnCodepoint;
use qem_quic::ecn::EcnValidationState;
use qem_quic::{ClientConfig, ConnectionRun, DriverConfig, EcnMirroringBehavior, ServerBehavior};
use qem_tracebox::{analyze_trace, trace_path, TraceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::net::IpAddr;

fn arb_transit() -> impl Strategy<Value = TransitProfile> {
    prop_oneof![
        Just(TransitProfile::Clean),
        Just(TransitProfile::Clearing { asn: Asn::ARELION }),
        Just(TransitProfile::Remarking { asn: Asn::ARELION }),
        Just(TransitProfile::RemarkThenClear {
            first: Asn::ARELION,
            second: Asn::COGENT
        }),
        Just(TransitProfile::MarkAllCe { asn: Asn(64500) }),
    ]
}

fn arb_mirroring() -> impl Strategy<Value = EcnMirroringBehavior> {
    prop_oneof![
        Just(EcnMirroringBehavior::None),
        Just(EcnMirroringBehavior::Accurate),
        Just(EcnMirroringBehavior::MirrorOnlyHandshake),
        Just(EcnMirroringBehavior::MirrorAsEct1),
        Just(EcnMirroringBehavior::AlwaysCe),
    ]
}

fn endpoints() -> (IpAddr, IpAddr) {
    (
        "192.0.2.10".parse().unwrap(),
        "198.51.100.99".parse().unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ECN validation must never succeed when the forward path impairs the
    /// codepoints or the server misreports them — the central guarantee the
    /// study relies on when interpreting "Capable".
    #[test]
    fn validation_never_passes_on_an_impaired_connection(
        transit in arb_transit(),
        mirroring in arb_mirroring(),
        seed in 0u64..1_000,
    ) {
        let (client_addr, server_addr) = endpoints();
        let path = DuplexPath::symmetric_clean_reverse(
            build_transit_path(Asn::DFN, Asn(16509), transit, false),
        );
        let behavior = ServerBehavior::accurate().with_mirroring(mirroring);
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = ConnectionRun::new(
            ClientConfig::paper_default("prop.example"),
            behavior,
            &path,
            DriverConfig::new(client_addr, server_addr),
        )
        .execute(&mut rng)
        .connection;
        let clean = matches!(transit, TransitProfile::Clean);
        let honest = matches!(mirroring, EcnMirroringBehavior::Accurate);
        if outcome.report.ecn_state == EcnValidationState::Capable {
            prop_assert!(clean && honest,
                "capable despite transit {transit:?} / mirroring {mirroring:?}");
        }
        // And the converse: a clean path with an honest server always validates.
        if clean && honest {
            prop_assert_eq!(outcome.report.ecn_state, EcnValidationState::Capable);
        }
    }

    /// The tracer never reports an impairment on a path whose routers all
    /// forward ECN untouched, regardless of ICMP behaviour and loss.
    #[test]
    fn tracebox_never_invents_impairments(
        hops in 1usize..12,
        silent_mask in any::<u16>(),
        seed in 0u64..1_000,
    ) {
        let (src, dst) = endpoints();
        let mut path_hops = Vec::new();
        for i in 0..hops {
            let mut router = Router::transparent(i as u32 + 1, Asn(100 + i as u32));
            if silent_mask & (1 << i) != 0 {
                router = router.with_icmp(qem_netsim::IcmpBehavior::silent());
            }
            path_hops.push(Hop::new(router));
        }
        let path = Path::new(path_hops);
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = trace_path(&path, src, dst, &TraceConfig::default(), &mut rng);
        let analysis = analyze_trace(&trace, &|_| None);
        prop_assert!(!analysis.is_impaired());
    }

    /// Whatever the per-hop policies are, the codepoint observed at the end
    /// of a path equals the composition of the policies — and the QUIC
    /// driver's ground-truth counter agrees with it.
    #[test]
    fn path_composition_matches_driver_ground_truth(
        policies in proptest::collection::vec(
            prop_oneof![
                Just(EcnPolicy::Pass),
                Just(EcnPolicy::ClearEcn),
                Just(EcnPolicy::RemarkEct0ToEct1),
                Just(EcnPolicy::RemarkEctToNotEct),
            ],
            1..8,
        ),
        seed in 0u64..1_000,
    ) {
        let (client_addr, server_addr) = endpoints();
        let hops: Vec<Hop> = policies
            .iter()
            .enumerate()
            .map(|(i, policy)| {
                Hop::new(Router::transparent(i as u32 + 1, Asn(200 + i as u32)).with_ecn_policy(*policy))
            })
            .collect();
        let forward = Path::new(hops);
        let expected = forward.expected_arrival_ecn(EcnCodepoint::Ect0);
        let path = DuplexPath::new(forward, Path::empty());
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = ConnectionRun::new(
            ClientConfig::paper_default("compose.example"),
            ServerBehavior::accurate(),
            &path,
            DriverConfig::new(client_addr, server_addr),
        )
        .execute(&mut rng)
        .connection;
        let ground_truth = outcome.forward_arrival_ecn;
        match expected {
            EcnCodepoint::Ect0 => prop_assert!(ground_truth.ect0 > 0 && ground_truth.ect1 == 0),
            EcnCodepoint::Ect1 => prop_assert!(ground_truth.ect1 > 0 && ground_truth.ect0 == 0),
            EcnCodepoint::NotEct => prop_assert_eq!(ground_truth.total(), 0),
            EcnCodepoint::Ce => prop_assert!(ground_truth.ce > 0),
        }
    }

    /// The per-IP columns' bitset counts exactly the distinct host ids a
    /// `BTreeSet` would, whatever the order and however many duplicates.
    #[test]
    fn host_set_counts_like_a_btree_set(
        ids in proptest::collection::vec(0usize..1_000, 0..400),
        repeat in 1usize..4,
    ) {
        let mut bitset = HostSet::default();
        let mut tree = BTreeSet::new();
        for &id in ids.iter().cycle().take(ids.len() * repeat) {
            prop_assert_eq!(bitset.insert(id), tree.insert(id));
        }
        prop_assert_eq!(bitset.len(), tree.len());
        prop_assert_eq!(bitset.is_empty(), tree.is_empty());
    }
}
