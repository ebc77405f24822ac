//! Sections → bytes, written once.
//!
//! [`MessageWriter`] is the only code that lays a message out on the
//! wire: the header, the question entries, each record's owner / type /
//! class / TTL / RDLENGTH frame around caller-written RDATA, and the
//! closing OPT. [`crate::message::Message::encode`] and its siblings
//! are a loop feeding it; a responder that knows its answer's shape
//! calls it directly and never builds a `Message`.
//!
//! Truncation is a cut, not a second encode: the bytes before a record
//! boundary never depend on what follows it, because a compression
//! pointer only ever points backwards. The writer leaves [`Marks`] —
//! where the question section ends, where the OPT starts, how many
//! records each section holds — and the record boundaries between those
//! two offsets are the RDLENGTH frames it wrote itself, read back only
//! when a message has to be cut. So nothing is stored per record: no
//! allocation, no cap on how many there are.

use crate::edns::Edns;
use crate::error::WireError;
use crate::header::{Header, HEADER_LEN};
use crate::message::Question;
use crate::name::{Name, ReusableCompressor};
use crate::types::{RClass, RType};

/// Header octet 2's TC bit.
const TC: u8 = 0x02;

/// The three record sections, in wire order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Section {
    /// Answer section.
    Answer = 0,
    /// Authority section.
    Authority = 1,
    /// Additional section (the OPT is not written as a record; see
    /// [`MessageWriter::finish`]).
    Additional = 2,
}

/// Where a message written by [`MessageWriter`] can be cut. Only
/// meaningful together with the bytes it was written into.
#[derive(Debug, Clone, Copy, Default)]
pub struct Marks {
    questions: usize,
    /// Records per section, the OPT not counted.
    sections: [usize; 3],
    /// End of the question section: where the first record starts.
    body: usize,
    /// End of the last record: where the OPT starts, if there is one.
    opt_at: usize,
}

impl Marks {
    /// Records in the message, the OPT not counted.
    pub fn records(&self) -> usize {
        self.sections.iter().sum()
    }

    /// The leading records of `msg` that fit under `limit` together
    /// with the OPT, as `(count, end offset)`.
    fn fit(&self, msg: &[u8], limit: usize) -> Result<(usize, usize), WireError> {
        let room = limit
            .checked_sub(msg.len() - self.opt_at)
            .filter(|room| *room >= self.body)
            .ok_or(WireError::WontFit { limit })?;
        if self.opt_at <= room {
            return Ok((self.records(), self.opt_at));
        }
        // the last record ends at `opt_at`, past `room`: the walk stops
        let (mut keep, mut end) = (0, self.body);
        loop {
            // skip the owner (labels up to the root or a pointer), the
            // fixed fields, and the RDATA its RDLENGTH frames
            let mut next = end;
            while msg[next] != 0 && msg[next] < 0xc0 {
                next += 1 + msg[next] as usize;
            }
            next += if msg[next] == 0 { 1 } else { 2 } + 8;
            next += 2 + u16::from_be_bytes([msg[next], msg[next + 1]]) as usize;
            if next > room {
                return Ok((keep, end));
            }
            (keep, end) = (keep + 1, next);
        }
    }

    /// Patch the header counts of `msg`, which holds the first `keep`
    /// records and, with `opt`, the OPT; returns the records kept per
    /// section.
    fn set_counts(&self, msg: &mut [u8], keep: usize, opt: bool) -> [usize; 3] {
        let mut left = keep;
        let kept = self.sections.map(|n| {
            let kept = left.min(n);
            left -= kept;
            kept
        });
        let counts = [self.questions, kept[0], kept[1], kept[2] + opt as usize];
        for (slot, count) in msg[4..HEADER_LEN].chunks_exact_mut(2).zip(counts) {
            slot.copy_from_slice(&(count as u16).to_be_bytes());
        }
        kept
    }

    /// `full` (the finished message these marks came with) without the
    /// records from offset `end` on, as an exact-length `dst`; with
    /// `cut`, TC set.
    fn copy_cut(&self, full: &[u8], (keep, end): (usize, usize), cut: bool, dst: &mut Vec<u8>) {
        let opt = &full[self.opt_at..];
        dst.clear();
        dst.reserve_exact(end + opt.len());
        dst.extend_from_slice(&full[..end]);
        dst.extend_from_slice(opt);
        self.set_counts(dst, keep, !opt.is_empty());
        dst[2] |= if cut { TC } else { 0 };
    }

    /// Copy `full` into `dst` shaped for a UDP payload of `limit`
    /// octets: whole if it fits, otherwise with records cut from the
    /// tail until it does, and TC set. Returns whether records were cut.
    pub fn cut_into(
        &self,
        full: &[u8],
        limit: usize,
        dst: &mut Vec<u8>,
    ) -> Result<bool, WireError> {
        let fit = self.fit(full, limit)?;
        let cut = fit.0 < self.records();
        self.copy_cut(full, fit, cut, dst);
        Ok(cut)
    }

    /// Copy `full` into `dst` as the empty TC=1 slip a rate limiter
    /// sends in its place: header, question and OPT, no records.
    pub fn slip_into(&self, full: &[u8], dst: &mut Vec<u8>) {
        self.copy_cut(full, (0, self.body), true, dst);
    }
}

/// Writes one message into a caller-owned buffer through a caller-owned
/// compressor, both reused across messages: in steady state a message
/// costs no heap allocation.
///
/// Call order is wire order: [`question`](Self::question) entries, then
/// [`record`](Self::record)s section by section, then
/// [`finish`](Self::finish).
pub struct MessageWriter<'a> {
    comp: &'a mut ReusableCompressor,
    out: &'a mut Vec<u8>,
    marks: &'a mut Marks,
    /// Extended-rcode bits the OPT will carry (RFC 6891 §6.1.3).
    rcode_bits: u8,
    section: Section,
}

impl<'a> MessageWriter<'a> {
    /// Start a message: `out` is cleared, `comp` reset, and `header`
    /// written (its counts are filled in by [`finish`](Self::finish),
    /// which also leaves the message's cut points in `marks`).
    pub fn new(
        header: &Header,
        comp: &'a mut ReusableCompressor,
        out: &'a mut Vec<u8>,
        marks: &'a mut Marks,
    ) -> Self {
        out.clear();
        comp.reset();
        header.encode([0; 4], out);
        *marks = Marks {
            body: HEADER_LEN,
            ..Marks::default()
        };
        MessageWriter {
            comp,
            out,
            marks,
            rcode_bits: (header.rcode.to_u16() >> 4) as u8,
            section: Section::Answer,
        }
    }

    /// Append a question entry.
    pub fn question(&mut self, q: &Question) {
        assert_eq!(self.marks.records(), 0, "questions precede records");
        self.comp.encode_name(&q.qname, self.out);
        self.out.extend_from_slice(&q.qtype.to_u16().to_be_bytes());
        self.out.extend_from_slice(&q.qclass.to_u16().to_be_bytes());
        self.marks.questions += 1;
        self.marks.body = self.out.len();
    }

    /// Append a record to `section`: the owner (compressed), the fixed
    /// fields, and whatever `rdata` writes, framed by its RDLENGTH.
    pub fn record(
        &mut self,
        section: Section,
        owner: &Name,
        rtype: RType,
        class: RClass,
        ttl: u32,
        rdata: impl FnOnce(&mut ReusableCompressor, &mut Vec<u8>) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        assert!(
            section >= self.section,
            "sections are written in wire order"
        );
        self.section = section;
        self.comp.encode_name(owner, self.out);
        self.out.extend_from_slice(&rtype.to_u16().to_be_bytes());
        self.out.extend_from_slice(&class.to_u16().to_be_bytes());
        self.out.extend_from_slice(&ttl.to_be_bytes());
        let rdlen_at = self.out.len();
        self.out.extend_from_slice(&[0, 0]);
        rdata(self.comp, self.out)?;
        // the frame is also what a later cut walks by: it must be true
        let rdlen =
            u16::try_from(self.out.len() - rdlen_at - 2).map_err(|_| WireError::WontFit {
                limit: u16::MAX as usize,
            })?;
        self.out[rdlen_at..rdlen_at + 2].copy_from_slice(&rdlen.to_be_bytes());
        self.marks.sections[section as usize] += 1;
        Ok(())
    }

    /// Close the message: append the OPT for `edns`, and if the whole
    /// exceeds `limit`, cut records from the tail (additional first,
    /// then authority, then answer) until it fits and set TC. Returns
    /// whether records were cut; [`WireError::WontFit`] when header,
    /// question and OPT alone exceed `limit`.
    pub fn finish(self, edns: Option<&Edns>, limit: usize) -> Result<bool, WireError> {
        let MessageWriter {
            out,
            marks,
            rcode_bits,
            ..
        } = self;
        marks.opt_at = out.len();
        if let Some(edns) = edns {
            edns.encode_with_rcode_bits(rcode_bits, out);
        }
        let (keep, end) = marks.fit(out, limit)?;
        let cut = keep < marks.records();
        if cut {
            out.copy_within(marks.opt_at.., end);
            out.truncate(end + out.len() - marks.opt_at);
            out[2] |= TC;
        }
        marks.sections = marks.set_counts(out, keep, edns.is_some());
        marks.opt_at = end;
        Ok(cut)
    }
}
