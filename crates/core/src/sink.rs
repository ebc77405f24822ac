//! Mergeable row sinks: the interface every analysis consumer speaks.
//!
//! ENTRADA scales to the paper's 55.7B queries by aggregating Parquet
//! partitions in parallel and merging the partials; [`RowSink`] is that
//! shape at library scale. Anything that consumes [`QueryRow`]s
//! implements it — the whole-dataset aggregation
//! ([`crate::analysis::DatasetAnalysis`]), the Facebook dual-stack
//! analysis (via [`DualStackSink`], which carries the PTR view the
//! joins need), the Chromium junk classifier
//! ([`crate::junk::ChromiumProbeStats`]), and the columnar warehouse
//! batch ([`entrada::table::ColumnarBatch`]).
//!
//! The contract behind [`RowSink::merge`]: a sink must be an
//! **order-insensitive function of the row multiset**, so that partials
//! built over disjoint row subsets and merged in any deterministic
//! order are indistinguishable from one serial pass. That property is
//! what lets `core::pipeline` fan the ingest→analysis half out over N
//! workers and still render byte-identical reports, and it is pinned by
//! the `jobs_determinism` proptest.

use crate::analysis::DatasetAnalysis;
use crate::dualstack::DualStackAnalysis;
use crate::junk::ChromiumProbeStats;
use entrada::schema::QueryRow;
use entrada::table::ColumnarBatch;
use simnet::ptr::PtrDb;

/// A mergeable consumer of enriched query rows.
pub trait RowSink {
    /// Consume one row.
    fn push(&mut self, row: &QueryRow);

    /// Absorb a partial sink built over a disjoint subset of the same
    /// dataset's rows. After merging, `self` must equal the sink one
    /// serial pass over the union of both row sets would have built.
    fn merge(&mut self, other: Self)
    where
        Self: Sized;
}

impl RowSink for DatasetAnalysis {
    fn push(&mut self, row: &QueryRow) {
        DatasetAnalysis::push(self, row);
    }

    fn merge(&mut self, other: Self) {
        DatasetAnalysis::merge(self, other);
    }
}

impl RowSink for ChromiumProbeStats {
    fn push(&mut self, row: &QueryRow) {
        ChromiumProbeStats::push(self, row);
    }

    fn merge(&mut self, other: Self) {
        ChromiumProbeStats::merge(self, other);
    }
}

impl RowSink for ColumnarBatch {
    fn push(&mut self, row: &QueryRow) {
        ColumnarBatch::push(self, row);
    }

    fn merge(&mut self, other: Self) {
        ColumnarBatch::merge(self, other);
    }
}

/// [`DualStackAnalysis`] as a [`RowSink`]: the PTR joins of §4.3 need
/// the reverse-DNS view alongside each row, so the sink pairs the
/// analysis state with a borrowed [`PtrDb`].
pub struct DualStackSink<'a> {
    /// The accumulated dual-stack state.
    pub analysis: DualStackAnalysis,
    ptr: &'a PtrDb,
}

impl<'a> DualStackSink<'a> {
    /// Wrap an analysis with the PTR view it joins against.
    pub fn new(analysis: DualStackAnalysis, ptr: &'a PtrDb) -> Self {
        DualStackSink { analysis, ptr }
    }

    /// Unwrap the accumulated analysis.
    pub fn into_inner(self) -> DualStackAnalysis {
        self.analysis
    }
}

impl RowSink for DualStackSink<'_> {
    fn push(&mut self, row: &QueryRow) {
        self.analysis.push(row, self.ptr);
    }

    fn merge(&mut self, other: Self) {
        self.analysis.merge(other.analysis);
    }
}

/// Two sinks fed from one stream: pushes go to both, merges pair up
/// componentwise. Nest for wider fan-out.
pub struct FanoutSink<A, B> {
    /// First branch.
    pub a: A,
    /// Second branch.
    pub b: B,
}

impl<A: RowSink, B: RowSink> FanoutSink<A, B> {
    /// Fan one row stream out to `a` and `b`.
    pub fn new(a: A, b: B) -> Self {
        FanoutSink { a, b }
    }

    /// Unwrap both branches.
    pub fn into_parts(self) -> (A, B) {
        (self.a, self.b)
    }
}

impl<A: RowSink, B: RowSink> RowSink for FanoutSink<A, B> {
    fn push(&mut self, row: &QueryRow) {
        self.a.push(row);
        self.b.push(row);
    }

    fn merge(&mut self, other: Self) {
        self.a.merge(other.a);
        self.b.merge(other.b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdb::cloud::Provider;
    use dns_wire::types::{RType, Rcode};
    use netbase::flow::Transport;
    use netbase::time::SimTime;
    use zonedb::zone::ZoneModel;

    fn row(i: u64) -> QueryRow {
        let google = i.is_multiple_of(3);
        QueryRow {
            timestamp: SimTime::from_date(2020, 4, 1 + (i % 7) as u32),
            src: if google {
                "8.8.8.8".parse().unwrap()
            } else {
                format!("192.0.2.{}", i % 200).parse().unwrap()
            },
            src_port: 1000 + (i % 50_000) as u16,
            server: "194.0.28.53".parse().unwrap(),
            transport: if i.is_multiple_of(5) {
                Transport::Tcp
            } else {
                Transport::Udp
            },
            qname: format!("host{}.example.nl.", i % 11).parse().unwrap(),
            qtype: if i.is_multiple_of(2) {
                RType::A
            } else {
                RType::Ns
            },
            edns_size: Some(1232),
            do_bit: true,
            rcode: if i.is_multiple_of(7) {
                Some(Rcode::NxDomain)
            } else {
                Some(Rcode::NoError)
            },
            response_size: Some(80 + (i % 400) as u32),
            response_truncated: i.is_multiple_of(13),
            tcp_rtt_us: if i.is_multiple_of(5) { 15_000 } else { 0 },
            asn: Some(if google {
                Provider::Google.asns()[0]
            } else {
                asdb::registry::Asn(64496 + (i % 9) as u32)
            }),
            provider: google.then_some(Provider::Google),
            public_dns: google,
        }
    }

    /// Generic harness: split a row stream across `parts` sinks, merge,
    /// and hand back both the merged sink and a serially-built one.
    fn split_and_merge<S: RowSink, F: Fn() -> S>(make: F, parts: usize, n: u64) -> (S, S) {
        let mut serial = make();
        let mut partials: Vec<S> = (0..parts).map(|_| make()).collect();
        for i in 0..n {
            let r = row(i);
            serial.push(&r);
            partials[(i as usize) % parts].push(&r);
        }
        let mut merged = partials.remove(0);
        for p in partials {
            merged.merge(p);
        }
        (merged, serial)
    }

    #[test]
    fn dataset_analysis_merge_matches_serial() {
        let (merged, serial) =
            split_and_merge(|| DatasetAnalysis::new(ZoneModel::nl(100)), 4, 1000);
        assert_eq!(merged.total_queries, serial.total_queries);
        assert_eq!(merged.valid_queries, serial.valid_queries);
        assert_eq!(merged.resolvers(), serial.resolvers());
        assert_eq!(merged.ases(), serial.ases());
        assert_eq!(merged.cloud_share(), serial.cloud_share());
        for p in [None, Some(Provider::Google)] {
            let (m, s) = (merged.provider(p), serial.provider(p));
            assert_eq!(m.queries, s.queries);
            assert_eq!(m.junk, s.junk);
            assert_eq!(m.ns_queries, s.ns_queries);
            assert_eq!(m.minimized_ns, s.minimized_ns);
            assert_eq!(m.edns_sizes.len(), s.edns_sizes.len());
            assert_eq!(m.response_sizes.median(), s.response_sizes.median());
            assert_eq!(m.resolvers_v4(), s.resolvers_v4());
        }
        assert_eq!(
            merged.google_public().public_query_ratio(),
            serial.google_public().public_query_ratio()
        );
        assert_eq!(merged.first_cloud_as_rank(), serial.first_cloud_as_rank());
    }

    #[test]
    fn probe_stats_merge_matches_serial() {
        let (merged, serial) = split_and_merge(ChromiumProbeStats::default, 3, 500);
        assert_eq!(merged.junk_queries, serial.junk_queries);
        assert_eq!(merged.probe_shaped, serial.probe_shaped);
    }

    /// Satellite: ColumnarBatch speaks RowSink — push rows through the
    /// trait, iterate them back out, and get equal `QueryRow`s.
    #[test]
    fn columnar_batch_roundtrips_through_rowsink() {
        let rows: Vec<QueryRow> = (0..300).map(row).collect();
        let mut batch = ColumnarBatch::new();
        for r in &rows {
            RowSink::push(&mut batch, r);
        }
        let back: Vec<QueryRow> = batch.iter().collect();
        assert_eq!(back, rows);

        let (merged, serial) = split_and_merge(ColumnarBatch::new, 4, 300);
        let merged_rows: Vec<QueryRow> = merged.iter().collect();
        let mut serial_rows: Vec<QueryRow> = serial.iter().collect();
        // partials interleave rows round-robin; compare as multisets
        let mut merged_sorted = merged_rows;
        merged_sorted.sort_by_key(|r| (r.timestamp, r.src_port));
        serial_rows.sort_by_key(|r| (r.timestamp, r.src_port));
        assert_eq!(merged_sorted, serial_rows);
    }

    #[test]
    fn fanout_feeds_both_branches_and_merges() {
        let make = || {
            FanoutSink::new(
                DatasetAnalysis::new(ZoneModel::nl(100)),
                ChromiumProbeStats::default(),
            )
        };
        let (merged, serial) = split_and_merge(make, 4, 800);
        let (ma, mp) = merged.into_parts();
        let (sa, sp) = serial.into_parts();
        assert_eq!(ma.total_queries, sa.total_queries);
        assert_eq!(mp.junk_queries, sp.junk_queries);
        assert_eq!(mp.probe_shaped, sp.probe_shaped);
    }
}
