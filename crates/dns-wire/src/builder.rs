//! Ergonomic construction of queries and responses.

use crate::edns::Edns;
use crate::header::Header;
use crate::message::{Message, Question, Record};
use crate::name::Name;
use crate::rdata::RData;
use crate::types::{RType, Rcode};

/// Fluent builder for [`Message`].
///
/// ```
/// use dns_wire::{builder::MessageBuilder, name::Name, types::{RType, Rcode}};
///
/// let q: Name = "sidn.nl.".parse().unwrap();
/// let query = MessageBuilder::query(7, q.clone(), RType::Ns)
///     .with_edns(1232, true)
///     .build();
/// let resp = MessageBuilder::response(&query, Rcode::NoError)
///     .answer(q, 3600, dns_wire::rdata::RData::Ns("ns1.sidn.nl.".parse().unwrap()))
///     .build();
/// assert!(resp.header.response);
/// ```
pub struct MessageBuilder {
    msg: Message,
}

impl MessageBuilder {
    /// Start a standard query for `(qname, qtype)` with transaction `id`.
    pub fn query(id: u16, qname: Name, qtype: RType) -> Self {
        let mut msg = Message::new(Header::request(id));
        msg.questions.push(Question::new(qname, qtype));
        MessageBuilder { msg }
    }

    /// Start a response answering `query` with `rcode`, copying its
    /// question section and mirroring the requestor's EDNS presence.
    pub fn response(query: &Message, rcode: Rcode) -> Self {
        let mut msg = Message::new(Header::response_to(&query.header, rcode));
        msg.questions = query.questions.clone();
        if let Some(q_edns) = &query.edns {
            msg.edns = Some(Edns::with_size(4096, q_edns.dnssec_ok));
        }
        MessageBuilder { msg }
    }

    /// Attach an EDNS(0) OPT advertising `udp_size`, with the DO bit.
    pub fn with_edns(mut self, udp_size: u16, dnssec_ok: bool) -> Self {
        self.msg.edns = Some(Edns::with_size(udp_size, dnssec_ok));
        self
    }

    /// Append a record to the answer section.
    pub fn answer(mut self, name: Name, ttl: u32, rdata: RData) -> Self {
        self.msg.answers.push(Record::new(name, ttl, rdata));
        self
    }

    /// Append a record to the authority section.
    pub fn authority(mut self, name: Name, ttl: u32, rdata: RData) -> Self {
        self.msg.authorities.push(Record::new(name, ttl, rdata));
        self
    }

    /// Append a record to the additional section.
    pub fn additional(mut self, name: Name, ttl: u32, rdata: RData) -> Self {
        self.msg.additionals.push(Record::new(name, ttl, rdata));
        self
    }

    /// Finish, yielding the message.
    pub fn build(self) -> Message {
        self.msg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn query_shape() {
        let q = MessageBuilder::query(42, n("example.nz"), RType::Aaaa)
            .with_edns(512, false)
            .build();
        assert!(!q.header.response);
        assert_eq!(q.questions.len(), 1);
        assert_eq!(q.questions[0].qtype, RType::Aaaa);
        assert_eq!(q.edns.as_ref().unwrap().udp_payload_size, 512);
        assert!(
            !q.header.recursion_desired,
            "resolver->auth queries clear RD"
        );
    }

    #[test]
    fn response_copies_question_and_edns_presence() {
        let q = MessageBuilder::query(42, n("example.nz"), RType::A)
            .with_edns(1232, true)
            .build();
        let r = MessageBuilder::response(&q, Rcode::NxDomain).build();
        assert_eq!(r.header.id, 42);
        assert!(r.header.response);
        assert_eq!(r.header.rcode, Rcode::NxDomain);
        assert_eq!(r.questions, q.questions);
        assert!(r.edns.is_some());
        assert!(r.edns.as_ref().unwrap().dnssec_ok);
    }

    #[test]
    fn response_without_edns_when_query_lacks_it() {
        let q = MessageBuilder::query(1, n("x.nl"), RType::A).build();
        let r = MessageBuilder::response(&q, Rcode::NoError).build();
        assert!(r.edns.is_none());
    }

    #[test]
    fn sections_accumulate() {
        let q = MessageBuilder::query(1, n("example.nl"), RType::Ns).build();
        let r = MessageBuilder::response(&q, Rcode::NoError)
            .answer(n("example.nl"), 3600, RData::Ns(n("ns1.example.nl")))
            .authority(n("nl"), 3600, RData::Ns(n("ns1.dns.nl")))
            .additional(
                n("ns1.example.nl"),
                300,
                RData::A("192.0.2.1".parse().unwrap()),
            )
            .build();
        assert_eq!(r.answers.len(), 1);
        assert_eq!(r.authorities.len(), 1);
        assert_eq!(r.additionals.len(), 1);
        let bytes = r.encode().unwrap();
        assert_eq!(Message::parse(&bytes).unwrap(), r);
    }
}
