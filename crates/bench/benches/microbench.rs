//! Micro-benchmarks of the protocol machinery: wire-format codecs, the ECN
//! validation state machine, path transit and a full simulated connection.
//!
//! Run with: `cargo bench -p qem-bench --bench microbench`

use criterion::{criterion_group, criterion_main, Criterion};
use qem_netsim::{build_transit_path, Asn, DuplexPath, TransitProfile};
use qem_packet::ecn::{EcnCodepoint, EcnCounts};
use qem_packet::ip::{IpDatagram, IpHeader, IpProtocol, Ipv4Header};
use qem_packet::quic::{
    encode_varint, AckFrame, ConnectionId, Frame, LongPacketType, PacketHeader, QuicPacket,
    QuicVersion,
};
use qem_quic::ecn::{EcnConfig, EcnValidator};
use qem_quic::{ClientConfig, ConnectionRun, DriverConfig, ServerBehavior};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::net::{IpAddr, Ipv4Addr};

fn packet_codecs(c: &mut Criterion) {
    let mut group = c.benchmark_group("packet_codecs");
    let header = Ipv4Header::new(
        Ipv4Addr::new(192, 0, 2, 1),
        Ipv4Addr::new(198, 51, 100, 2),
        IpProtocol::Udp,
        64,
    )
    .with_ecn(EcnCodepoint::Ect0);
    group.bench_function("ipv4_encode", |b| b.iter(|| black_box(header.encode(1200))));
    let bytes = header.encode(1200);
    group.bench_function("ipv4_decode", |b| {
        b.iter(|| black_box(Ipv4Header::decode(&bytes).unwrap()))
    });

    let packet = QuicPacket::new(
        PacketHeader::Long {
            ty: LongPacketType::Initial,
            version: QuicVersion::V1,
            dcid: ConnectionId::from_u64(1),
            scid: ConnectionId::from_u64(2),
            token: Vec::new(),
            packet_number: 3,
        },
        Frame::encode_all(&[
            Frame::Ack(AckFrame::contiguous(
                0,
                9,
                Some(EcnCounts {
                    ect0: 10,
                    ect1: 0,
                    ce: 1,
                }),
            )),
            Frame::Padding { size: 1100 },
        ]),
    );
    let encoded = packet.encode();
    group.bench_function("quic_initial_encode", |b| {
        b.iter(|| black_box(packet.encode()))
    });
    group.bench_function("quic_initial_decode", |b| {
        b.iter(|| black_box(QuicPacket::decode(&encoded, 8).unwrap()))
    });
    group.bench_function("varint_encode", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(8);
            encode_varint(&mut buf, black_box(1_234_567));
            black_box(buf)
        })
    });
    group.finish();
}

fn validation_machine(c: &mut Criterion) {
    let mut group = c.benchmark_group("validation_machine");
    group.bench_function("full_validation_pass", |b| {
        b.iter(|| {
            let mut validator = EcnValidator::new(EcnConfig::paper_default());
            for _ in 0..5 {
                let cp = validator.codepoint_for_next_packet();
                validator.on_packet_sent(cp);
            }
            validator.on_ack_received(
                5,
                5,
                Some(EcnCounts {
                    ect0: 5,
                    ect1: 0,
                    ce: 0,
                }),
            );
            black_box(validator.state())
        })
    });
    group.finish();
}

fn path_transit(c: &mut Criterion) {
    let mut group = c.benchmark_group("path_transit");
    let path = build_transit_path(
        Asn::DFN,
        Asn(16509),
        TransitProfile::Remarking { asn: Asn::ARELION },
        false,
    );
    let datagram = IpDatagram::new(
        IpHeader::V4(
            Ipv4Header::new(
                Ipv4Addr::new(192, 0, 2, 1),
                Ipv4Addr::new(198, 51, 100, 2),
                IpProtocol::Udp,
                64,
            )
            .with_ecn(EcnCodepoint::Ect0),
        ),
        vec![0u8; 1200],
    );
    let mut rng = StdRng::seed_from_u64(5);
    group.bench_function("eight_hop_transit", |b| {
        b.iter(|| black_box(path.transit(&datagram, &mut rng)))
    });
    group.finish();
}

fn full_connection(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_connection");
    group.sample_size(20);
    let path = DuplexPath::symmetric_clean_reverse(build_transit_path(
        Asn::DFN,
        Asn(16509),
        TransitProfile::Clean,
        false,
    ));
    let client: IpAddr = "192.0.2.10".parse().unwrap();
    let server: IpAddr = "198.51.100.80".parse().unwrap();
    let mut rng = StdRng::seed_from_u64(77);
    group.bench_function("quic_handshake_request_validation", |b| {
        b.iter(|| {
            black_box(
                ConnectionRun::new(
                    ClientConfig::paper_default("bench.example"),
                    ServerBehavior::accurate(),
                    &path,
                    DriverConfig::new(client, server),
                )
                .execute(&mut rng),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    packet_codecs,
    validation_machine,
    path_transit,
    full_connection
);
criterion_main!(benches);
