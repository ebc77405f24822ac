//! Capture ingestion: parse, join queries with responses, enrich.
//!
//! Joining follows real passive-DNS practice: a response matches the
//! pending query with the same (reversed) flow 5-tuple and DNS
//! transaction id. Unmatched responses and malformed frames are counted
//! in [`IngestStats`], never fatal.
//!
//! The join is a push machine ([`Joiner`]): the streamed pipeline's
//! workers feed it the slices they generate, and [`CaptureIngest`]
//! pulls a [`RecordSource`] — a `.dnscap` file on disk, an in-memory
//! record vector — through the same one, with identical accounting.

use crate::enrich::Enricher;
use crate::schema::QueryRow;
use dns_wire::header::Header;
use dns_wire::message::Message;
use netbase::capture::{CaptureRecord, Direction, RecordSource};
use netbase::flow::FlowKey;
use std::collections::{HashMap, VecDeque};

/// Ingestion health counters.
///
/// The accounting is exact: once the stream is exhausted, every DNS
/// message that entered the joiner is in exactly one bucket — see
/// [`IngestStats::balanced`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct IngestStats {
    /// Frames read from the capture.
    pub frames: u64,
    /// DNS messages carried by those frames: one per UDP frame, one or
    /// more per TCP frame (RFC 1035 framing legitimately coalesces
    /// several messages per segment). A frame whose TCP deframing fails
    /// outright counts as one (malformed) message.
    pub messages: u64,
    /// Messages whose DNS payload failed to deframe or parse, plus
    /// query messages carrying no question.
    pub malformed: u64,
    /// Responses with no pending query (late, spoofed, or dropped).
    pub unmatched_responses: u64,
    /// Queries that never saw a response by end of stream.
    pub unanswered_queries: u64,
    /// Rows emitted.
    pub rows: u64,
    /// Torn or corrupt capture records: the stream ended early on an
    /// error rather than at a clean end-of-stream marker.
    pub capture_errors: u64,
}

impl IngestStats {
    /// Responses that joined a pending query.
    pub fn matched_responses(&self) -> u64 {
        self.rows - self.unanswered_queries
    }

    /// The exact accounting invariant (valid once the ingest iterator
    /// is exhausted): every message is malformed, a query (one row
    /// each), a matched response, or an unmatched response.
    ///
    /// `messages == malformed + rows + matched_responses + unmatched_responses`
    pub fn balanced(&self) -> bool {
        self.messages
            == self.malformed + self.rows + self.matched_responses() + self.unmatched_responses
    }

    /// Merge the counters of another (disjoint) ingest run in. Every
    /// field is a sum over messages, so partitioned ingests — the
    /// parallel-analysis workers each joining their own slice subset —
    /// merge into exactly the stats one serial ingest would report, and
    /// [`IngestStats::balanced`] is preserved.
    pub fn merge(&mut self, other: &IngestStats) {
        self.frames += other.frames;
        self.messages += other.messages;
        self.malformed += other.malformed;
        self.unmatched_responses += other.unmatched_responses;
        self.unanswered_queries += other.unanswered_queries;
        self.rows += other.rows;
        self.capture_errors += other.capture_errors;
    }
}

/// Key identifying a DNS transaction in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TxnKey {
    flow: FlowKey,
    id: u16,
}

/// The join itself, in push form: [`Joiner::absorb`] frames as they
/// come, take completed rows with [`Joiner::pop_ready`], and call
/// [`Joiner::finish`] once the stream has ended to flush the queries
/// that never saw a response.
///
/// Rows complete when the response arrives (the common case) or at
/// end-of-stream for unanswered queries. Emission order therefore
/// follows response arrival, which is fine for every aggregate in the
/// paper (nothing downstream requires query order).
pub struct Joiner {
    enricher: Enricher,
    pending: HashMap<TxnKey, QueryRow>,
    /// Every message is parsed into this one, so its section vectors
    /// are sized by the first few messages and reused from then on.
    scratch: Message,
    stats: IngestStats,
    /// Rows ready to take (a TCP frame can produce several at once).
    ready: VecDeque<QueryRow>,
    frames_metric: std::sync::Arc<obs::Counter>,
    rows_metric: std::sync::Arc<obs::Counter>,
    malformed_metric: std::sync::Arc<obs::Counter>,
    capture_errors_metric: std::sync::Arc<obs::Counter>,
}

impl Joiner {
    /// An empty join that enriches its rows with `enricher`.
    pub fn new(enricher: Enricher) -> Joiner {
        Joiner {
            enricher,
            pending: HashMap::new(),
            scratch: Message::new(Header::request(0)),
            stats: IngestStats::default(),
            ready: VecDeque::new(),
            frames_metric: obs::counter("entrada_frames_total", "capture frames ingested"),
            rows_metric: obs::counter("entrada_rows_total", "query rows emitted by ingest"),
            malformed_metric: obs::counter(
                "entrada_malformed_total",
                "DNS messages that failed to deframe or parse",
            ),
            capture_errors_metric: obs::counter(
                "entrada_capture_errors_total",
                "torn or corrupt capture records cutting an ingest stream short",
            ),
        }
    }

    /// Counters so far (final after [`Joiner::finish`]).
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// The next completed row, oldest first.
    pub fn pop_ready(&mut self) -> Option<QueryRow> {
        self.ready.pop_front()
    }

    /// Absorb one capture frame, queueing any rows it completes.
    pub fn absorb(&mut self, rec: CaptureRecord) {
        self.stats.frames += 1;
        self.frames_metric.inc();
        match rec.flow.transport {
            // TCP payloads carry RFC 1035 two-octet length prefixes and
            // may coalesce several DNS messages per captured segment
            // (real pcap imports do); absorb each message.
            netbase::flow::Transport::Tcp => match dns_wire::tcp::deframe_all(&rec.payload) {
                Ok(messages) if !messages.is_empty() => {
                    for wire in &messages {
                        self.absorb_message(&rec, wire);
                    }
                }
                _ => {
                    // an unframed/truncated TCP payload (or one with no
                    // messages at all): one malformed message unit
                    self.stats.messages += 1;
                    self.stats.malformed += 1;
                    self.malformed_metric.inc();
                }
            },
            netbase::flow::Transport::Udp => self.absorb_message(&rec, &rec.payload),
        }
    }

    /// Absorb one deframed DNS message from frame `rec`.
    fn absorb_message(&mut self, rec: &CaptureRecord, wire: &[u8]) {
        self.stats.messages += 1;
        let msg = &mut self.scratch;
        if msg.parse_into(wire).is_err() {
            self.stats.malformed += 1;
            self.malformed_metric.inc();
            return;
        }
        match rec.direction {
            Direction::Query => {
                if msg.questions.is_empty() {
                    // a query with an empty question section joins
                    // nothing and aggregates nowhere: malformed, so
                    // the message accounting stays exact
                    self.stats.malformed += 1;
                    self.malformed_metric.inc();
                    return;
                }
                // the row takes the first question; the scratch message
                // is overwritten by the next parse anyway
                let question = msg.questions.swap_remove(0);
                let (asn, provider, public_dns) = self.enricher.enrich(rec.flow.src);
                let row = QueryRow {
                    timestamp: rec.timestamp,
                    src: rec.flow.src,
                    src_port: rec.flow.src_port,
                    server: rec.flow.dst,
                    transport: rec.flow.transport,
                    qname: question.qname,
                    qtype: question.qtype,
                    edns_size: msg.edns.as_ref().map(|e| e.udp_payload_size),
                    do_bit: msg.edns.as_ref().map(|e| e.dnssec_ok).unwrap_or(false),
                    rcode: None,
                    response_size: None,
                    response_truncated: false,
                    tcp_rtt_us: rec.tcp_rtt_us,
                    asn,
                    provider,
                    public_dns,
                };
                let key = TxnKey {
                    flow: rec.flow,
                    id: msg.header.id,
                };
                if let Some(orphan) = self.pending.insert(key, row) {
                    // same flow+id reused before the first was answered:
                    // flush the old one as unanswered
                    self.stats.unanswered_queries += 1;
                    self.stats.rows += 1;
                    self.rows_metric.inc();
                    self.ready.push_back(orphan);
                }
            }
            Direction::Response => {
                let key = TxnKey {
                    flow: rec.flow.reversed(),
                    id: msg.header.id,
                };
                match self.pending.remove(&key) {
                    Some(mut row) => {
                        row.rcode = Some(msg.header.rcode);
                        // the deframed DNS message length for both
                        // transports — a raw TCP payload length would
                        // inflate every TCP response by the 2-byte
                        // RFC 1035 length prefix relative to UDP
                        row.response_size = Some(wire.len() as u32);
                        row.response_truncated = msg.header.truncated;
                        if rec.tcp_rtt_us != 0 {
                            row.tcp_rtt_us = rec.tcp_rtt_us;
                        }
                        self.stats.rows += 1;
                        self.rows_metric.inc();
                        self.ready.push_back(row);
                    }
                    None => {
                        self.stats.unmatched_responses += 1;
                    }
                }
            }
        }
    }

    /// The source tore: a torn or corrupt capture record is NOT a
    /// clean end-of-stream. Count it so downstream runs can warn; the
    /// caller then [`Joiner::finish`]es to salvage what was read.
    pub fn torn(&mut self) {
        self.stats.capture_errors += 1;
        self.capture_errors_metric.inc();
    }

    /// End of stream: flush unanswered queries in deterministic (time)
    /// order.
    pub fn finish(&mut self) {
        let mut rest: Vec<QueryRow> = self.pending.drain().map(|(_, v)| v).collect();
        rest.sort_by_key(|r| (r.timestamp, r.src_port));
        self.stats.unanswered_queries += rest.len() as u64;
        self.stats.rows += rest.len() as u64;
        self.rows_metric.add(rest.len() as u64);
        self.ready.extend(rest);
    }
}

/// Streaming capture → [`QueryRow`] iterator: a [`Joiner`] pulled
/// through a [`RecordSource`].
pub struct CaptureIngest<S: RecordSource> {
    source: S,
    joiner: Joiner,
    /// The source reached end-of-stream (clean or via capture error)
    /// and pending queries were flushed.
    finished: bool,
}

impl<S: RecordSource> CaptureIngest<S> {
    /// Start ingesting from a record source (a validated
    /// `CaptureReader`, an in-memory vector, ...).
    pub fn new(source: S, enricher: Enricher) -> Self {
        CaptureIngest {
            source,
            joiner: Joiner::new(enricher),
            finished: false,
        }
    }

    /// Counters so far (final after the iterator is exhausted).
    pub fn stats(&self) -> &IngestStats {
        self.joiner.stats()
    }
}

impl<S: RecordSource> Iterator for CaptureIngest<S> {
    type Item = QueryRow;

    fn next(&mut self) -> Option<QueryRow> {
        loop {
            if let Some(row) = self.joiner.pop_ready() {
                return Some(row);
            }
            if self.finished {
                return None;
            }
            match self.source.next_record() {
                Ok(Some(rec)) => self.joiner.absorb(rec),
                end => {
                    if end.is_err() {
                        self.joiner.torn();
                    }
                    self.joiner.finish();
                    self.finished = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdb::synth::{InternetPlan, PlanConfig};
    use dns_wire::builder::MessageBuilder;
    use dns_wire::types::{RType, Rcode};
    use netbase::capture::{CaptureReader, CaptureWriter};
    use netbase::flow::Transport;
    use netbase::time::SimTime;
    use proptest::prelude::*;

    fn enricher() -> Enricher {
        let plan = InternetPlan::build(&PlanConfig {
            other_as_count: 10,
            isp_fraction: 0.5,
            v6_fraction: 0.3,
            seed: 5,
        });
        Enricher::new(plan.mapper)
    }

    fn flow(src: &str, port: u16) -> FlowKey {
        FlowKey {
            src: src.parse().unwrap(),
            src_port: port,
            dst: "194.0.28.53".parse().unwrap(),
            dst_port: 53,
            transport: Transport::Udp,
        }
    }

    fn capture(records: &[CaptureRecord]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = CaptureWriter::new(&mut buf).unwrap();
        for r in records {
            w.write(r).unwrap();
        }
        w.finish().unwrap();
        buf
    }

    fn query_rec(src: &str, port: u16, id: u16, t: u64) -> CaptureRecord {
        let q = MessageBuilder::query(id, "example.nl.".parse().unwrap(), RType::A)
            .with_edns(1232, true)
            .build();
        CaptureRecord {
            timestamp: SimTime(t),
            direction: Direction::Query,
            flow: flow(src, port),
            tcp_rtt_us: 0,
            payload: q.encode().unwrap(),
        }
    }

    fn response_rec(src: &str, port: u16, id: u16, t: u64, rcode: Rcode) -> CaptureRecord {
        let q = MessageBuilder::query(id, "example.nl.".parse().unwrap(), RType::A).build();
        let r = MessageBuilder::response(&q, rcode).build();
        CaptureRecord {
            timestamp: SimTime(t),
            direction: Direction::Response,
            flow: flow(src, port).reversed(),
            tcp_rtt_us: 0,
            payload: r.encode().unwrap(),
        }
    }

    /// Exhaust an ingest run and hand back (rows, final stats), always
    /// checking the accounting invariant.
    fn drain(buf: &[u8]) -> (Vec<QueryRow>, IngestStats) {
        let mut ingest = CaptureIngest::new(CaptureReader::new(buf).unwrap(), enricher());
        let rows: Vec<QueryRow> = ingest.by_ref().collect();
        let stats = ingest.stats().clone();
        assert!(stats.balanced(), "accounting out of balance: {stats:?}");
        (rows, stats)
    }

    #[test]
    fn join_produces_enriched_rows() {
        let buf = capture(&[
            query_rec("8.8.8.8", 1000, 7, 10),
            response_rec("8.8.8.8", 1000, 7, 20, Rcode::NoError),
        ]);
        let (rows, stats) = drain(&buf);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.rcode, Some(Rcode::NoError));
        assert!(row.is_valid());
        assert_eq!(row.provider, Some(asdb::cloud::Provider::Google));
        assert!(row.public_dns);
        assert_eq!(row.edns_size, Some(1232));
        assert!(row.do_bit);
        assert_eq!(stats.frames, 2);
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.rows, 1);
        assert_eq!(stats.malformed, 0);
        assert_eq!(stats.unanswered_queries, 0);
        assert_eq!(stats.capture_errors, 0);
    }

    #[test]
    fn unanswered_query_flushes_at_eof() {
        let buf = capture(&[query_rec("8.8.8.8", 1000, 7, 10)]);
        let (rows, stats) = drain(&buf);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].rcode, None);
        assert!(!rows[0].is_valid() && !rows[0].is_junk());
        assert_eq!(stats.unanswered_queries, 1);
    }

    #[test]
    fn unmatched_response_is_counted_not_emitted() {
        let buf = capture(&[response_rec("8.8.8.8", 1000, 7, 10, Rcode::NoError)]);
        let (rows, stats) = drain(&buf);
        assert!(rows.is_empty());
        assert_eq!(stats.unmatched_responses, 1);
    }

    #[test]
    fn id_mismatch_does_not_join() {
        let buf = capture(&[
            query_rec("8.8.8.8", 1000, 7, 10),
            response_rec("8.8.8.8", 1000, 8, 20, Rcode::NoError),
        ]);
        let (rows, stats) = drain(&buf);
        assert_eq!(rows.len(), 1, "query flushed unanswered");
        assert_eq!(rows[0].rcode, None);
        assert_eq!(stats.unmatched_responses, 1);
    }

    #[test]
    fn port_mismatch_does_not_join() {
        let buf = capture(&[
            query_rec("8.8.8.8", 1000, 7, 10),
            response_rec("8.8.8.8", 1001, 7, 20, Rcode::NoError),
        ]);
        let (rows, _) = drain(&buf);
        assert_eq!(rows[0].rcode, None);
    }

    #[test]
    fn malformed_payload_is_skipped() {
        let mut bad = query_rec("8.8.8.8", 1000, 7, 10);
        bad.payload = vec![1, 2, 3];
        let buf = capture(&[bad, query_rec("1.1.1.1", 2000, 9, 30)]);
        let (rows, stats) = drain(&buf);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].src.to_string(), "1.1.1.1");
        assert_eq!(stats.malformed, 1);
    }

    #[test]
    fn junk_rcode_flows_through() {
        let buf = capture(&[
            query_rec("1.1.1.1", 1000, 7, 10),
            response_rec("1.1.1.1", 1000, 7, 20, Rcode::NxDomain),
        ]);
        let (rows, _) = drain(&buf);
        assert!(rows[0].is_junk());
    }

    #[test]
    fn reused_transaction_id_flushes_orphan() {
        let buf = capture(&[
            query_rec("8.8.8.8", 1000, 7, 10),
            query_rec("8.8.8.8", 1000, 7, 50),
            response_rec("8.8.8.8", 1000, 7, 60, Rcode::NoError),
        ]);
        let (rows, _) = drain(&buf);
        assert_eq!(rows.len(), 2);
        // first emitted is the orphan (unanswered), then the joined one
        assert_eq!(rows[0].rcode, None);
        assert_eq!(rows[1].rcode, Some(Rcode::NoError));
    }

    #[test]
    fn tcp_payloads_are_deframed() {
        let q = MessageBuilder::query(7, "example.nl.".parse().unwrap(), RType::Soa).build();
        let r = MessageBuilder::response(&q, Rcode::NoError).build();
        let mut f = flow("8.8.8.8", 555);
        f.transport = Transport::Tcp;
        let records = [
            CaptureRecord {
                timestamp: SimTime(1),
                direction: Direction::Query,
                flow: f,
                tcp_rtt_us: 12_000,
                payload: dns_wire::tcp::frame(&q.encode().unwrap()).unwrap(),
            },
            CaptureRecord {
                timestamp: SimTime(2),
                direction: Direction::Response,
                flow: f.reversed(),
                tcp_rtt_us: 12_000,
                payload: dns_wire::tcp::frame(&r.encode().unwrap()).unwrap(),
            },
        ];
        let buf = capture(&records);
        let (rows, stats) = drain(&buf);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].transport, Transport::Tcp);
        assert_eq!(rows[0].tcp_rtt_us, 12_000);
        assert_eq!(rows[0].rcode, Some(Rcode::NoError));
        assert_eq!(stats.malformed, 0);
    }

    #[test]
    fn unframed_tcp_payload_is_malformed() {
        let q = MessageBuilder::query(7, "example.nl.".parse().unwrap(), RType::A).build();
        let mut f = flow("8.8.8.8", 556);
        f.transport = Transport::Tcp;
        let rec = CaptureRecord {
            timestamp: SimTime(1),
            direction: Direction::Query,
            flow: f,
            tcp_rtt_us: 1,
            payload: q.encode().unwrap(), // missing the length prefix
        };
        let buf = capture(&[rec]);
        let (rows, stats) = drain(&buf);
        assert!(rows.is_empty());
        assert_eq!(stats.malformed, 1);
        assert_eq!(stats.messages, 1);
    }

    #[test]
    fn truncation_and_size_recorded() {
        let q = MessageBuilder::query(5, "example.nl.".parse().unwrap(), RType::A)
            .with_edns(512, true)
            .build();
        let mut resp = MessageBuilder::response(&q, Rcode::NoError).build();
        resp.header.truncated = true;
        let records = [
            CaptureRecord {
                timestamp: SimTime(1),
                direction: Direction::Query,
                flow: flow("8.8.8.8", 1234),
                tcp_rtt_us: 0,
                payload: q.encode().unwrap(),
            },
            CaptureRecord {
                timestamp: SimTime(2),
                direction: Direction::Response,
                flow: flow("8.8.8.8", 1234).reversed(),
                tcp_rtt_us: 0,
                payload: resp.encode().unwrap(),
            },
        ];
        let buf = capture(&records);
        let (rows, _) = drain(&buf);
        assert!(rows[0].response_truncated);
        assert_eq!(rows[0].response_size, Some(records[1].payload.len() as u32));
    }

    /// Regression (PR 3): a torn capture tail is counted, not silently
    /// treated as a clean end-of-stream.
    #[test]
    fn torn_capture_tail_is_counted() {
        let mut buf = capture(&[
            query_rec("8.8.8.8", 1000, 7, 10),
            response_rec("8.8.8.8", 1000, 7, 20, Rcode::NoError),
            query_rec("1.1.1.1", 2000, 9, 30),
        ]);
        buf.truncate(buf.len() - 5); // tear the last record
        let mut ingest = CaptureIngest::new(CaptureReader::new(&buf[..]).unwrap(), enricher());
        let rows: Vec<QueryRow> = ingest.by_ref().collect();
        let stats = ingest.stats().clone();
        assert_eq!(stats.capture_errors, 1, "torn record detected");
        assert_eq!(rows.len(), 1, "intact records still ingested");
        assert_eq!(rows[0].rcode, Some(Rcode::NoError));
        assert!(stats.balanced(), "{stats:?}");
        // fuse: a second iteration attempt yields nothing and does not
        // double-count the error
        assert!(ingest.next().is_none());
        assert_eq!(ingest.stats().capture_errors, 1);
    }

    /// Regression (PR 3): TCP response sizes are deframed DNS message
    /// lengths, byte-comparable with UDP (no +2 framing bias).
    #[test]
    fn tcp_response_size_matches_udp_for_identical_message() {
        let q = MessageBuilder::query(7, "example.nl.".parse().unwrap(), RType::A).build();
        let r = MessageBuilder::response(&q, Rcode::NoError).build();
        let q_wire = q.encode().unwrap();
        let r_wire = r.encode().unwrap();

        let udp_flow = flow("8.8.8.8", 700);
        let mut tcp_flow = flow("8.8.8.8", 701);
        tcp_flow.transport = Transport::Tcp;
        let buf = capture(&[
            CaptureRecord {
                timestamp: SimTime(1),
                direction: Direction::Query,
                flow: udp_flow,
                tcp_rtt_us: 0,
                payload: q_wire.clone(),
            },
            CaptureRecord {
                timestamp: SimTime(2),
                direction: Direction::Response,
                flow: udp_flow.reversed(),
                tcp_rtt_us: 0,
                payload: r_wire.clone(),
            },
            CaptureRecord {
                timestamp: SimTime(3),
                direction: Direction::Query,
                flow: tcp_flow,
                tcp_rtt_us: 9000,
                payload: dns_wire::tcp::frame(&q_wire).unwrap(),
            },
            CaptureRecord {
                timestamp: SimTime(4),
                direction: Direction::Response,
                flow: tcp_flow.reversed(),
                tcp_rtt_us: 9000,
                payload: dns_wire::tcp::frame(&r_wire).unwrap(),
            },
        ]);
        let (rows, stats) = drain(&buf);
        assert_eq!(rows.len(), 2);
        let udp_row = rows.iter().find(|r| r.transport == Transport::Udp).unwrap();
        let tcp_row = rows.iter().find(|r| r.transport == Transport::Tcp).unwrap();
        assert_eq!(udp_row.response_size, Some(r_wire.len() as u32));
        assert_eq!(
            tcp_row.response_size, udp_row.response_size,
            "identical messages must have identical recorded sizes"
        );
        assert_eq!(stats.malformed, 0);
    }

    /// Regression (PR 3): a query with zero questions is counted as
    /// malformed rather than silently dropped.
    #[test]
    fn zero_question_query_counts_as_malformed() {
        let mut q = MessageBuilder::query(7, "example.nl.".parse().unwrap(), RType::A).build();
        q.questions.clear();
        let mut rec = query_rec("8.8.8.8", 1000, 7, 10);
        rec.payload = q.encode().unwrap();
        let buf = capture(&[rec, query_rec("1.1.1.1", 2000, 9, 30)]);
        let (rows, stats) = drain(&buf);
        assert_eq!(rows.len(), 1, "only the well-formed query becomes a row");
        assert_eq!(stats.frames, 2);
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.malformed, 1, "zero-question query counted");
    }

    /// Regression (PR 3): a TCP frame coalescing two DNS messages
    /// yields both, instead of marking the whole frame malformed.
    #[test]
    fn coalesced_tcp_frame_absorbs_every_message() {
        let q1 = MessageBuilder::query(1, "one.example.nl.".parse().unwrap(), RType::A).build();
        let q2 = MessageBuilder::query(2, "two.example.nl.".parse().unwrap(), RType::Aaaa).build();
        let r1 = MessageBuilder::response(&q1, Rcode::NoError).build();
        let r2 = MessageBuilder::response(&q2, Rcode::NxDomain).build();
        let mut f = flow("8.8.4.4", 888);
        f.transport = Transport::Tcp;
        let queries =
            dns_wire::tcp::frame_all([&q1.encode().unwrap()[..], &q2.encode().unwrap()[..]])
                .unwrap();
        let responses =
            dns_wire::tcp::frame_all([&r1.encode().unwrap()[..], &r2.encode().unwrap()[..]])
                .unwrap();
        let buf = capture(&[
            CaptureRecord {
                timestamp: SimTime(1),
                direction: Direction::Query,
                flow: f,
                tcp_rtt_us: 5000,
                payload: queries,
            },
            CaptureRecord {
                timestamp: SimTime(2),
                direction: Direction::Response,
                flow: f.reversed(),
                tcp_rtt_us: 5000,
                payload: responses,
            },
        ]);
        let (rows, stats) = drain(&buf);
        assert_eq!(stats.frames, 2);
        assert_eq!(stats.messages, 4, "two messages per frame");
        assert_eq!(rows.len(), 2, "both transactions joined");
        assert_eq!(stats.malformed, 0);
        let by_id: Vec<_> = rows.iter().map(|r| (r.qtype, r.rcode)).collect();
        assert!(by_id.contains(&(RType::A, Some(Rcode::NoError))));
        assert!(by_id.contains(&(RType::Aaaa, Some(Rcode::NxDomain))));
        assert_eq!(
            rows[0].response_size,
            Some(r1.encode().unwrap().len() as u32),
            "per-message deframed size, not the coalesced payload size"
        );
    }

    /// A vector source that tears after `intact` records.
    struct TearingSource {
        records: std::vec::IntoIter<CaptureRecord>,
        intact: usize,
    }

    impl RecordSource for TearingSource {
        fn next_record(&mut self) -> Result<Option<CaptureRecord>, netbase::capture::CaptureError> {
            if self.intact == 0 {
                return Err(netbase::capture::CaptureError::Corrupt("torn"));
            }
            self.intact -= 1;
            Ok(self.records.next())
        }
    }

    proptest! {
        /// The push form is the pull form: absorbing a record sequence
        /// into a [`Joiner`] yields the rows and the accounting
        /// [`CaptureIngest`] yields over the same sequence, in the same
        /// order, whether rows are taken as they complete or all at the
        /// end. Two sources, two ports and three ids make reused
        /// `(flow, id)` keys (orphans), unmatched responses and
        /// unanswered queries common; garbage payloads and a source
        /// that tears part-way are in the mix.
        #[test]
        fn joiner_pushed_equals_ingest_pulled(
            ops in prop::collection::vec(
                (0u8..3, 0usize..2, 1000u16..1002, 0u16..3),
                0..60,
            ),
            tear in prop::option::of(0usize..60),
        ) {
            let records: Vec<CaptureRecord> = ops
                .iter()
                .enumerate()
                .map(|(i, &(kind, src, port, id))| {
                    let src = ["8.8.8.8", "1.1.1.1"][src];
                    let t = 10 * i as u64;
                    match kind {
                        0 => query_rec(src, port, id, t),
                        1 => response_rec(src, port, id, t, Rcode::NoError),
                        _ => CaptureRecord {
                            payload: vec![0xde, 0xad],
                            ..query_rec(src, port, id, t)
                        },
                    }
                })
                .collect();
            let intact = tear.map_or(usize::MAX, |at| at.min(records.len()));
            let source = TearingSource { records: records.clone().into_iter(), intact };
            let mut pulled = CaptureIngest::new(source, enricher());
            let pulled_rows: Vec<QueryRow> = pulled.by_ref().collect();

            for take_as_completed in [true, false] {
                let mut joiner = Joiner::new(enricher());
                let mut pushed_rows = Vec::new();
                for rec in records.iter().take(intact).cloned() {
                    joiner.absorb(rec);
                    if take_as_completed {
                        pushed_rows.extend(std::iter::from_fn(|| joiner.pop_ready()));
                    }
                }
                if tear.is_some() {
                    joiner.torn();
                }
                joiner.finish();
                pushed_rows.extend(std::iter::from_fn(|| joiner.pop_ready()));
                prop_assert_eq!(&pushed_rows, &pulled_rows);
                prop_assert_eq!(joiner.stats(), pulled.stats());
                prop_assert!(joiner.stats().balanced(), "{:?}", joiner.stats());
            }
        }
    }
}
