//! Report builders: one per table and figure of the paper.
//!
//! Every builder consumes only the measurement results (plus the DNS and
//! as2org data a real scanner would also have) and produces a printable
//! structure whose rows mirror the corresponding table or figure.  The
//! absolute counts depend on the universe scale; the *shape* — who wins, by
//! roughly which factor, where the crossovers are — is what EXPERIMENTS.md
//! compares against the paper.

mod figures;
mod tables;

pub use figures::{
    figure3, figure4, figure5, figure6, figure7, DomainState, Figure3, Figure3Point, Figure4,
    Figure5, Figure6, Figure7, Figure7Row, MirrorUseQuadrant, QuicCeCategory, TcpCategory,
};
pub use tables::{
    table1, table2, table3, table4, table5, table6, table7, ClassCount, ProviderRow, ProviderTable,
    Table1, Table1Row, Table4, Table4Row, Table5, Table6, Table7, Table7Row,
};

/// A set of host ids stored as a dense bitset — how the per-IP columns count
/// distinct hosts.  Host ids are dense indices into `universe.hosts`, so a
/// bit per host costs a few kilobytes, and an insert is one word operation
/// instead of a tree walk; the set grows to fit the largest id inserted.
#[derive(Debug, Clone, Default)]
pub struct HostSet {
    words: Vec<u64>,
    len: usize,
}

impl HostSet {
    /// Add `host`; returns whether it was not yet in the set.
    pub fn insert(&mut self, host: usize) -> bool {
        let (word, bit) = (host / 64, 1u64 << (host % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let slot = &mut self.words[word];
        let new = *slot & bit == 0;
        *slot |= bit;
        self.len += usize::from(new);
        new
    }

    /// Number of distinct hosts in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Format a count with thousands separators (tables in the paper use `k`/`M`
/// suffixes; we keep exact counts but group digits for readability).
pub(crate) fn fmt_count(value: u64) -> String {
    let digits: Vec<char> = value.to_string().chars().rev().collect();
    let mut out = String::new();
    for (i, c) in digits.iter().enumerate() {
        if i > 0 && i % 3 == 0 {
            out.push(',');
        }
        out.push(*c);
    }
    out.chars().rev().collect()
}

/// Format a percentage with one decimal.
pub(crate) fn fmt_pct(value: f64) -> String {
    format!("{:.1} %", value * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignOptions, SnapshotMeasurement};
    use crate::source::SnapshotSource;
    use qem_web::{Universe, UniverseConfig};
    use std::slice::from_ref;

    /// Every table and figure that reads a snapshot's domain join.
    fn render<S: SnapshotSource>(universe: &Universe, v4: &S, v6: &S) -> String {
        [
            table1(universe, v4).to_string(),
            table2(universe, v4).to_string(),
            table3(universe, v4).to_string(),
            table4(universe, v4).to_string(),
            table5(universe, v4, Some(v6)).to_string(),
            table6(universe, v4).to_string(),
            table7(universe, v4).to_string(),
            figure3(universe, from_ref(v4)).to_string(),
            figure4(universe, from_ref(v4)).to_string(),
            figure5(universe, v4, v6).to_string(),
            figure6(universe, v4).to_string(),
            figure7::<S, S>(universe, v4, &[]).to_string(),
        ]
        .concat()
    }

    #[test]
    fn host_ids_outside_the_universe_are_ignored() {
        let universe = Universe::generate(&UniverseConfig::tiny());
        let result = Campaign::new(&universe).run_main(&CampaignOptions::paper_default(), true);
        let v6 = result.v6.expect("IPv6 was requested");
        // Stream a copy of a mirroring host under an id no domain can name,
        // after every real host (the order a store would stream it in).
        let with_stray = |snapshot: &SnapshotMeasurement| {
            let mut stray = snapshot.clone();
            let mirroring = result.v4.hosts.values().find(|m| m.mirror_use().mirroring);
            let mut host = mirroring.cloned().expect("a mirroring host");
            host.host_id = universe.hosts.len() + 7;
            stray.hosts.insert(host.host_id, host);
            stray
        };
        assert_eq!(
            render(&universe, &with_stray(&result.v4), &with_stray(&v6)),
            render(&universe, &result.v4, &v6)
        );
    }

    #[test]
    fn count_formatting_groups_digits() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1_000), "1,000");
        assert_eq!(fmt_count(17_300_000), "17,300,000");
    }

    #[test]
    fn percentage_formatting() {
        assert_eq!(fmt_pct(0.056), "5.6 %");
        assert_eq!(fmt_pct(0.0), "0.0 %");
    }
}
