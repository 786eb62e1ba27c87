//! Streaming snapshot sources: the report builders' view of a snapshot.
//!
//! Tables 1–7 and Figures 3–8 never need a whole snapshot in memory at once —
//! each builder needs (a) the per-domain join with the universe's DNS data
//! and (b) one or two small per-host attributes (a trace verdict, a server
//! family, a TCP category).  [`SnapshotSource`] captures exactly that: a
//! snapshot's identity plus a way to *stream* its measurements in host-id
//! order.  The in-memory [`SnapshotMeasurement`] implements it trivially;
//! `qem-store`'s segment reader implements it by decoding one segment at a
//! time, which is how store-backed reports run without ever materialising a
//! full campaign.
//!
//! The domain join is one host pass into a dense table indexed by host id,
//! then one domain pass that streams the records: nothing is materialised.
//! Every builder consumes that stream directly; per-IP columns deduplicate
//! through a dense host-id bitset.
//!
//! The contract that makes store-backed and in-memory reports byte-identical
//! is the same one the sharded executor relies on: measurements are streamed
//! in ascending host-id order, and every consumer aggregates into
//! order-insensitive structures keyed by domain index, host id or class.

use crate::campaign::SnapshotMeasurement;
use crate::observation::{DomainRecord, EcnClass, HostMeasurement, MirrorUse};
use crate::vantage::VantagePoint;
use qem_web::{SnapshotDate, Universe};

/// A source of host measurements for one snapshot (one vantage point, one
/// address family, one date).
pub trait SnapshotSource {
    /// Snapshot date.
    fn date(&self) -> SnapshotDate;

    /// Whether this snapshot probed IPv6.
    fn ipv6(&self) -> bool;

    /// The vantage point the snapshot was taken from.
    fn vantage(&self) -> &VantagePoint;

    /// Stream every measurement in ascending host-id order.
    fn for_each_host(&self, f: &mut dyn FnMut(&HostMeasurement));

    /// Number of hosts measured.
    fn host_count(&self) -> usize {
        let mut n = 0;
        self.for_each_host(&mut |_| n += 1);
        n
    }

    /// Number of hosts reachable via QUIC.
    fn quic_host_count(&self) -> usize {
        let mut n = 0;
        self.for_each_host(&mut |m| {
            if m.quic_reachable {
                n += 1;
            }
        });
        n
    }

    /// Build per-domain records by joining the universe's DNS data with the
    /// per-host measurements — the paper's per-domain vs per-IP distinction.
    ///
    /// **Cost:** one host pass into a dense per-host table, one domain pass,
    /// and a `Vec` holding a record for every domain.  The report builders
    /// never call it: they consume the same join as a stream, so nothing is
    /// materialised.
    fn domain_records(&self, universe: &Universe) -> Vec<DomainRecord> {
        domain_join(universe, self).collect()
    }
}

/// The join's summary of a host that resolves for the snapshot's address
/// family: all defaults unless it was measured reachable via QUIC.
#[derive(Clone, Copy, Default)]
struct HostJoin {
    quic: bool,
    mirror_use: MirrorUse,
    class: Option<EcnClass>,
}

/// Join the universe's DNS data with `snapshot`'s measurements and stream one
/// [`DomainRecord`] per domain, in domain order.
///
/// One pass over [`SnapshotSource::for_each_host`] fills a table indexed by
/// host id (summarising each measurement once, however many domains share
/// the host); one pass over `universe.domains` then yields the records.  A
/// measurement whose host id lies outside the universe joins no domain and is
/// ignored.
pub(crate) fn domain_join<'u, S: SnapshotSource + ?Sized>(
    universe: &'u Universe,
    snapshot: &S,
) -> impl Iterator<Item = DomainRecord> + 'u {
    let ipv6 = snapshot.ipv6();
    // `None` for hosts without an address of the snapshot's family.
    let mut hosts: Vec<Option<HostJoin>> = universe
        .hosts
        .iter()
        .map(|host| host.addr(ipv6).map(|_| HostJoin::default()))
        .collect();
    snapshot.for_each_host(&mut |m| {
        if let Some(Some(host)) = hosts.get_mut(m.host_id) {
            *host = if m.quic_reachable {
                HostJoin {
                    quic: true,
                    mirror_use: m.mirror_use(),
                    class: m.ecn_class(),
                }
            } else {
                HostJoin::default()
            };
        }
    });
    universe
        .domains
        .iter()
        .enumerate()
        .map(move |(domain_idx, domain)| {
            // The domain's host, if it has an address of the snapshot's family.
            let joined = domain.host.and_then(|h| Some((h, (*hosts.get(h)?)?)));
            let join = joined.map(|(_, join)| join).unwrap_or_default();
            DomainRecord {
                domain_idx,
                resolved: joined.is_some(),
                host_id: joined.map(|(h, _)| h),
                quic: join.quic,
                mirror_use: join.mirror_use,
                class: join.class,
            }
        })
}

impl SnapshotSource for SnapshotMeasurement {
    fn date(&self) -> SnapshotDate {
        self.date
    }

    fn ipv6(&self) -> bool {
        self.ipv6
    }

    fn vantage(&self) -> &VantagePoint {
        &self.vantage
    }

    fn for_each_host(&self, f: &mut dyn FnMut(&HostMeasurement)) {
        // `hosts` is a BTreeMap, so iteration is already in ascending
        // host-id order — the order the contract requires.
        for m in self.hosts.values() {
            f(m);
        }
    }

    fn host_count(&self) -> usize {
        self.hosts.len()
    }

    fn quic_host_count(&self) -> usize {
        SnapshotMeasurement::quic_host_count(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignOptions};
    use qem_web::UniverseConfig;

    /// The join written out directly against the in-memory snapshot's map.
    fn naive_join(universe: &Universe, snapshot: &SnapshotMeasurement) -> Vec<DomainRecord> {
        universe
            .domains
            .iter()
            .enumerate()
            .map(|(domain_idx, domain)| {
                let host_id = domain
                    .host
                    .filter(|&h| universe.hosts[h].addr(snapshot.ipv6).is_some());
                let quic = host_id
                    .and_then(|h| snapshot.hosts.get(&h))
                    .filter(|m| m.quic_reachable);
                DomainRecord {
                    domain_idx,
                    resolved: host_id.is_some(),
                    host_id,
                    quic: quic.is_some(),
                    mirror_use: quic.map(|m| m.mirror_use()).unwrap_or_default(),
                    class: quic.and_then(|m| m.ecn_class()),
                }
            })
            .collect()
    }

    #[test]
    fn streamed_join_matches_a_naive_join() {
        let universe = Universe::generate(&UniverseConfig::tiny());
        let result = Campaign::new(&universe).run_main(&CampaignOptions::paper_default(), true);
        for full in [result.v4, result.v6.expect("IPv6 was requested")] {
            // Drop every third measurement so that some hosts resolve but
            // were never measured.
            let mut partial = full.clone();
            partial.hosts.retain(|&h, _| h % 3 != 0);
            for snapshot in [&full, &partial] {
                let expected = naive_join(&universe, snapshot);
                assert!(expected.iter().any(|r| r.quic && r.mirror_use.mirroring));
                assert_eq!(
                    domain_join(&universe, snapshot).collect::<Vec<_>>(),
                    expected
                );
                assert_eq!(snapshot.domain_records(&universe), expected);
            }
            let unmeasured = naive_join(&universe, &partial)
                .iter()
                .filter_map(|r| r.host_id)
                .filter(|h| !partial.hosts.contains_key(h))
                .count();
            assert!(unmeasured > 0);
        }
    }
}
