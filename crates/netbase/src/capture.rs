//! The `.dnscap` capture format: the boundary between traffic generation
//! and traffic analysis.
//!
//! A capture file is a stream of timestamped DNS-over-{UDP,TCP} frames as
//! seen at one authoritative server, the same information a pcap tap at
//! the paper's vantage points yields after link/IP/transport reassembly:
//! addresses, ports, transport, direction, the DNS payload, and — for TCP
//! — the handshake RTT the capture box measured (the paper computes
//! Figure 5's RTTs from TCP handshakes the same way).
//!
//! Format (all integers little-endian):
//!
//! ```text
//! file   := magic(4)="DNSC" version:u16 flags:u16 record*
//! record := len:u32 body
//! body   := ts_us:u64 dir:u8 transport:u8 rtt_us:u32 (0 = unmeasured)
//!           src_ip:ip src_port:u16 dst_ip:ip dst_port:u16
//!           payload_len:u32 payload:bytes
//! ip     := tag:u8 (4|6) octets(4|16)
//! ```

use crate::flow::{FlowKey, Transport};
use crate::time::SimTime;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// File magic.
pub const MAGIC: [u8; 4] = *b"DNSC";
/// Current format version.
pub const VERSION: u16 = 1;

/// Whether a frame travels resolver→authoritative or back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Resolver to authoritative server.
    Query,
    /// Authoritative server to resolver.
    Response,
}

/// One captured frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaptureRecord {
    /// Capture timestamp.
    pub timestamp: SimTime,
    /// Frame direction.
    pub direction: Direction,
    /// The flow this frame belongs to (src = sender of this frame).
    pub flow: FlowKey,
    /// TCP handshake RTT in microseconds measured by the capture box for
    /// this flow; 0 when unmeasured (all UDP frames).
    pub tcp_rtt_us: u32,
    /// The raw DNS message bytes.
    pub payload: Vec<u8>,
}

/// A borrowed view of one frame, for writers on allocation-free hot
/// paths (authd's capture tap writes these straight off the socket
/// buffers).
#[derive(Debug, Clone, Copy)]
pub struct RecordRef<'a> {
    /// Capture timestamp.
    pub timestamp: SimTime,
    /// Frame direction.
    pub direction: Direction,
    /// The flow this frame belongs to (src = sender of this frame).
    pub flow: FlowKey,
    /// TCP handshake RTT in microseconds; 0 when unmeasured.
    pub tcp_rtt_us: u32,
    /// The raw DNS message bytes.
    pub payload: &'a [u8],
}

impl CaptureRecord {
    /// Borrow this record as a [`RecordRef`].
    pub fn as_ref(&self) -> RecordRef<'_> {
        RecordRef {
            timestamp: self.timestamp,
            direction: self.direction,
            flow: self.flow,
            tcp_rtt_us: self.tcp_rtt_us,
            payload: &self.payload,
        }
    }
}

/// Errors from reading a capture stream.
#[derive(Debug)]
pub enum CaptureError {
    /// Underlying I/O failed.
    Io(io::Error),
    /// Magic or version mismatch.
    BadHeader,
    /// A record was internally inconsistent.
    Corrupt(&'static str),
}

impl std::fmt::Display for CaptureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaptureError::Io(e) => write!(f, "capture i/o: {e}"),
            CaptureError::BadHeader => write!(f, "not a DNSC capture (bad magic/version)"),
            CaptureError::Corrupt(what) => write!(f, "corrupt capture record: {what}"),
        }
    }
}

impl std::error::Error for CaptureError {}

impl From<io::Error> for CaptureError {
    fn from(e: io::Error) -> Self {
        CaptureError::Io(e)
    }
}

/// Anything that accepts a stream of [`CaptureRecord`]s in order.
///
/// The traffic generator is written against this trait so the same
/// generation code can feed a `.dnscap` file on disk
/// ([`CaptureWriter`]), an in-memory buffer (`Vec<CaptureRecord>`), or
/// the analysis consumer directly — the streamed pipeline mode that
/// skips the intermediate capture file entirely.
pub trait RecordSink {
    /// Accept the next record of the stream.
    fn emit(&mut self, rec: CaptureRecord) -> io::Result<()>;

    /// Accept all of time slice `slot`, in order, draining `slice`.
    ///
    /// The generator produces traffic in self-contained time slices
    /// (every query/response exchange falls entirely within one slice)
    /// and hands each over whole. The vector stays the caller's, so a
    /// generator that feeds its sink on its own thread fills the same
    /// buffer again for its next slice. The default is
    /// [`RecordSink::emit`] record by record.
    fn emit_slice(&mut self, slot: u64, slice: &mut Vec<CaptureRecord>) -> io::Result<()> {
        let _ = slot;
        slice.drain(..).try_for_each(|rec| self.emit(rec))
    }
}

impl<W: Write> RecordSink for CaptureWriter<W> {
    fn emit(&mut self, rec: CaptureRecord) -> io::Result<()> {
        self.write(&rec)
    }
}

impl RecordSink for Vec<CaptureRecord> {
    fn emit(&mut self, rec: CaptureRecord) -> io::Result<()> {
        self.push(rec);
        Ok(())
    }
}

/// Anything that yields a stream of [`CaptureRecord`]s in order.
///
/// The analysis side (entrada's `CaptureIngest`) is written against
/// this trait so it consumes a capture file ([`CaptureReader`]) or an
/// in-memory record vector identically.
pub trait RecordSource {
    /// The next record; `Ok(None)` at clean end-of-stream, `Err` on a
    /// torn or corrupt record (the stream cannot continue past it).
    fn next_record(&mut self) -> Result<Option<CaptureRecord>, CaptureError>;
}

impl<R: Read> RecordSource for CaptureReader<R> {
    fn next_record(&mut self) -> Result<Option<CaptureRecord>, CaptureError> {
        CaptureReader::next_record(self)
    }
}

impl RecordSource for std::vec::IntoIter<CaptureRecord> {
    fn next_record(&mut self) -> Result<Option<CaptureRecord>, CaptureError> {
        Ok(self.next())
    }
}

/// Streaming writer for `.dnscap` data.
pub struct CaptureWriter<W: Write> {
    out: BufWriter<W>,
    records: u64,
    /// Reused body-encode buffer: after warmup, [`write_ref`] performs
    /// zero heap allocations per record.
    ///
    /// [`write_ref`]: CaptureWriter::write_ref
    scratch: Vec<u8>,
}

impl<W: Write> CaptureWriter<W> {
    /// Write the file header and return a ready writer.
    pub fn new(inner: W) -> io::Result<Self> {
        let mut out = BufWriter::new(inner);
        out.write_all(&MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        out.write_all(&0u16.to_le_bytes())?; // flags, reserved
        Ok(CaptureWriter {
            out,
            records: 0,
            scratch: Vec::new(),
        })
    }

    /// Append one record.
    pub fn write(&mut self, rec: &CaptureRecord) -> io::Result<()> {
        self.write_ref(rec.as_ref())
    }

    /// Append one record from borrowed parts, reusing the internal
    /// encode buffer (no per-record allocation in steady state).
    pub fn write_ref(&mut self, rec: RecordRef<'_>) -> io::Result<()> {
        let body = &mut self.scratch;
        body.clear();
        body.extend_from_slice(&rec.timestamp.as_micros().to_le_bytes());
        body.push(match rec.direction {
            Direction::Query => 0,
            Direction::Response => 1,
        });
        body.push(match rec.flow.transport {
            Transport::Udp => 0,
            Transport::Tcp => 1,
        });
        body.extend_from_slice(&rec.tcp_rtt_us.to_le_bytes());
        write_ip(body, rec.flow.src);
        body.extend_from_slice(&rec.flow.src_port.to_le_bytes());
        write_ip(body, rec.flow.dst);
        body.extend_from_slice(&rec.flow.dst_port.to_le_bytes());
        body.extend_from_slice(&(rec.payload.len() as u32).to_le_bytes());
        body.extend_from_slice(rec.payload);
        self.out.write_all(&(body.len() as u32).to_le_bytes())?;
        self.out.write_all(body)?;
        self.records += 1;
        Ok(())
    }

    /// Records written so far.
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Flush and return the inner writer.
    pub fn finish(self) -> io::Result<W> {
        self.out.into_inner().map_err(|e| e.into_error())
    }
}

fn write_ip(out: &mut Vec<u8>, ip: IpAddr) {
    match ip {
        IpAddr::V4(v4) => {
            out.push(4);
            out.extend_from_slice(&v4.octets());
        }
        IpAddr::V6(v6) => {
            out.push(6);
            out.extend_from_slice(&v6.octets());
        }
    }
}

/// Streaming reader for `.dnscap` data.
pub struct CaptureReader<R: Read> {
    input: BufReader<R>,
}

impl<R: Read> CaptureReader<R> {
    /// Validate the file header and return a ready reader.
    pub fn new(inner: R) -> Result<Self, CaptureError> {
        let mut input = BufReader::new(inner);
        let mut header = [0u8; 8];
        input.read_exact(&mut header)?;
        if header[..4] != MAGIC || u16::from_le_bytes([header[4], header[5]]) != VERSION {
            return Err(CaptureError::BadHeader);
        }
        Ok(CaptureReader { input })
    }

    /// Read the next record; `Ok(None)` at clean end-of-stream.
    pub fn next_record(&mut self) -> Result<Option<CaptureRecord>, CaptureError> {
        let mut len_buf = [0u8; 4];
        match self.input.read_exact(&mut len_buf) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        if len > 1 << 24 {
            return Err(CaptureError::Corrupt("record length over 16 MiB"));
        }
        let mut body = vec![0u8; len];
        self.input.read_exact(&mut body)?;
        parse_body(&body).map(Some)
    }
}

impl<R: Read> Iterator for CaptureReader<R> {
    type Item = Result<CaptureRecord, CaptureError>;
    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

fn parse_body(body: &[u8]) -> Result<CaptureRecord, CaptureError> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], CaptureError> {
        if *pos + n > body.len() {
            return Err(CaptureError::Corrupt("short body"));
        }
        let s = &body[*pos..*pos + n];
        *pos += n;
        Ok(s)
    };
    let ts = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
    let dir = match take(&mut pos, 1)?[0] {
        0 => Direction::Query,
        1 => Direction::Response,
        _ => return Err(CaptureError::Corrupt("bad direction")),
    };
    let transport = match take(&mut pos, 1)?[0] {
        0 => Transport::Udp,
        1 => Transport::Tcp,
        _ => return Err(CaptureError::Corrupt("bad transport")),
    };
    let rtt = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
    let src = read_ip(body, &mut pos)?;
    let src_port = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap());
    let dst = read_ip(body, &mut pos)?;
    let dst_port = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap());
    let plen = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
    let payload = take(&mut pos, plen)?.to_vec();
    if pos != body.len() {
        return Err(CaptureError::Corrupt("trailing bytes"));
    }
    Ok(CaptureRecord {
        timestamp: SimTime(ts),
        direction: dir,
        flow: FlowKey {
            src,
            src_port,
            dst,
            dst_port,
            transport,
        },
        tcp_rtt_us: rtt,
        payload,
    })
}

fn read_ip(body: &[u8], pos: &mut usize) -> Result<IpAddr, CaptureError> {
    let tag = *body.get(*pos).ok_or(CaptureError::Corrupt("short ip"))?;
    *pos += 1;
    match tag {
        4 => {
            if *pos + 4 > body.len() {
                return Err(CaptureError::Corrupt("short v4"));
            }
            let o: [u8; 4] = body[*pos..*pos + 4].try_into().unwrap();
            *pos += 4;
            Ok(IpAddr::V4(Ipv4Addr::from(o)))
        }
        6 => {
            if *pos + 16 > body.len() {
                return Err(CaptureError::Corrupt("short v6"));
            }
            let o: [u8; 16] = body[*pos..*pos + 16].try_into().unwrap();
            *pos += 16;
            Ok(IpAddr::V6(Ipv6Addr::from(o)))
        }
        _ => Err(CaptureError::Corrupt("bad ip tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts: u64, tcp: bool) -> CaptureRecord {
        CaptureRecord {
            timestamp: SimTime(ts),
            direction: if ts.is_multiple_of(2) {
                Direction::Query
            } else {
                Direction::Response
            },
            flow: FlowKey {
                src: if tcp {
                    "2001:db8::9".parse().unwrap()
                } else {
                    "192.0.2.9".parse().unwrap()
                },
                src_port: 40000 + ts as u16 % 1000,
                dst: "192.0.2.53".parse().unwrap(),
                dst_port: 53,
                transport: if tcp { Transport::Tcp } else { Transport::Udp },
            },
            tcp_rtt_us: if tcp { 23_500 } else { 0 },
            payload: vec![ts as u8; (ts % 64) as usize + 12],
        }
    }

    #[test]
    fn roundtrip_many_records() {
        let mut buf = Vec::new();
        {
            let mut w = CaptureWriter::new(&mut buf).unwrap();
            for i in 0..100 {
                w.write(&rec(i, i % 3 == 0)).unwrap();
            }
            assert_eq!(w.records_written(), 100);
            w.finish().unwrap();
        }
        let r = CaptureReader::new(&buf[..]).unwrap();
        let records: Result<Vec<_>, _> = r.collect();
        let records = records.unwrap();
        assert_eq!(records.len(), 100);
        for (i, got) in records.iter().enumerate() {
            assert_eq!(got, &rec(i as u64, i % 3 == 0));
        }
    }

    #[test]
    fn write_ref_matches_owned_write() {
        let mut owned = Vec::new();
        let mut borrowed = Vec::new();
        {
            let mut w = CaptureWriter::new(&mut owned).unwrap();
            for i in 0..20 {
                w.write(&rec(i, i % 3 == 0)).unwrap();
            }
            w.finish().unwrap();
        }
        {
            let mut w = CaptureWriter::new(&mut borrowed).unwrap();
            for i in 0..20 {
                let r = rec(i, i % 3 == 0);
                w.write_ref(r.as_ref()).unwrap();
            }
            assert_eq!(w.records_written(), 20);
            w.finish().unwrap();
        }
        assert_eq!(owned, borrowed, "borrowed writes are byte-identical");
    }

    /// The default `emit_slice` is `emit`, record by record, in order:
    /// slices handed to a vector or a file sink land exactly as the
    /// same records emitted one at a time.
    #[test]
    fn default_emit_slice_is_emit_in_order() {
        let slices: Vec<Vec<CaptureRecord>> = vec![
            (0..7).map(|i| rec(i, i % 3 == 0)).collect(),
            Vec::new(),
            (7..12).map(|i| rec(i, i % 2 == 0)).collect(),
        ];
        let mut by_record: Vec<CaptureRecord> = Vec::new();
        let mut by_slice: Vec<CaptureRecord> = Vec::new();
        let (mut file_by_record, mut file_by_slice) = (Vec::new(), Vec::new());
        {
            let mut w_record = CaptureWriter::new(&mut file_by_record).unwrap();
            let mut w_slice = CaptureWriter::new(&mut file_by_slice).unwrap();
            for (slot, slice) in slices.iter().enumerate() {
                for r in slice {
                    by_record.emit(r.clone()).unwrap();
                    w_record.emit(r.clone()).unwrap();
                }
                by_slice
                    .emit_slice(slot as u64, &mut slice.clone())
                    .unwrap();
                w_slice.emit_slice(slot as u64, &mut slice.clone()).unwrap();
            }
            w_record.finish().unwrap();
            w_slice.finish().unwrap();
        }
        assert_eq!(by_slice.len(), 12);
        assert_eq!(by_slice, by_record);
        assert_eq!(file_by_slice, file_by_record);
    }

    #[test]
    fn empty_capture_is_valid() {
        let mut buf = Vec::new();
        CaptureWriter::new(&mut buf).unwrap().finish().unwrap();
        let mut r = CaptureReader::new(&buf[..]).unwrap();
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"PCAP\x01\x00\x00\x00".to_vec();
        assert!(matches!(
            CaptureReader::new(&buf[..]),
            Err(CaptureError::BadHeader)
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&99u16.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        assert!(matches!(
            CaptureReader::new(&buf[..]),
            Err(CaptureError::BadHeader)
        ));
    }

    #[test]
    fn truncated_record_is_io_error_not_panic() {
        let mut buf = Vec::new();
        {
            let mut w = CaptureWriter::new(&mut buf).unwrap();
            w.write(&rec(7, true)).unwrap();
            w.finish().unwrap();
        }
        // chop the last 5 bytes
        buf.truncate(buf.len() - 5);
        let mut r = CaptureReader::new(&buf[..]).unwrap();
        assert!(r.next_record().is_err());
    }

    #[test]
    fn corrupt_direction_detected() {
        let mut buf = Vec::new();
        {
            let mut w = CaptureWriter::new(&mut buf).unwrap();
            w.write(&rec(4, false)).unwrap();
            w.finish().unwrap();
        }
        // direction byte lives at header(8) + len(4) + ts(8)
        buf[8 + 4 + 8] = 9;
        let mut r = CaptureReader::new(&buf[..]).unwrap();
        assert!(matches!(r.next_record(), Err(CaptureError::Corrupt(_))));
    }

    #[test]
    fn oversized_record_length_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&(1u32 << 30).to_le_bytes());
        let mut r = CaptureReader::new(&buf[..]).unwrap();
        assert!(matches!(r.next_record(), Err(CaptureError::Corrupt(_))));
    }

    #[test]
    fn trailing_garbage_in_body_detected() {
        let mut buf = Vec::new();
        {
            let mut w = CaptureWriter::new(&mut buf).unwrap();
            w.write(&rec(2, false)).unwrap();
            w.finish().unwrap();
        }
        // extend the declared record length by 1 and append a byte
        let len_at = 8;
        let old = u32::from_le_bytes(buf[len_at..len_at + 4].try_into().unwrap());
        buf.splice(len_at..len_at + 4, (old + 1).to_le_bytes());
        buf.push(0xaa);
        let mut r = CaptureReader::new(&buf[..]).unwrap();
        assert!(matches!(
            r.next_record(),
            Err(CaptureError::Corrupt("trailing bytes"))
        ));
    }
}
