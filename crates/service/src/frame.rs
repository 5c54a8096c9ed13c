//! Wire framing: the text protocol's hot-path twin.
//!
//! The line protocol ([`crate::protocol`]) is telnet-friendly but pays
//! for it on the serving hot path: every `ROUND` line is formatted
//! from integers and parsed back by the client. A session that
//! negotiates `HELLO framing=binary` keeps sending **text requests**
//! (they are rare and tiny) but receives every response as a
//! length-prefixed binary frame:
//!
//! ```text
//! [kind: u8][len: u32 LE][payload: len bytes]
//! ```
//!
//! | kind | payload |
//! |---|---|
//! | `R` | round record: `round u32, endpoints u64, pairs u64, cases u64, unresponsive u64, links_measured u64, links_planned u64, symmetry u64` (all LE), then `label_len u16 LE` + label bytes |
//! | `E` | UTF-8 `END` payload (everything after `END ` in text mode) |
//! | `O` | UTF-8 `OK` detail |
//! | `X` | UTF-8 `ERR` message |
//! | `S` | UTF-8 `STATS` payload |
//! | `C` | `name_len u16 LE` + name bytes + raw CSV bytes |
//! | `M` | raw Prometheus-style `METRICS` exposition bytes |
//!
//! Both framings carry the same information: a binary `R` frame
//! decodes to exactly the text `ROUND` payload via
//! [`RoundLine::payload`], which is what lets the e2e suite assert the
//! two framings byte-identical at the event level.
//!
//! [`ResponseWriter`] is the server side: it encodes into whichever
//! framing the session negotiated and hands the socket **whole
//! messages** — everything buffered since the last flush leaves in one
//! `write`, so a small response is one syscall and (on a
//! `TCP_NODELAY` socket) one segment, never a header waiting behind
//! Nagle for the peer's delayed ACK. Payload responses (`CSV`,
//! `METRICS`) are encoded from the borrowed payload: the header rides
//! with the first 16 KiB of it and the rest is written
//! straight from the caller's slice, uncopied.

use shortcuts_core::workflow::RoundSummary;
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Response framing a session negotiates via `HELLO framing=<f>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Framing {
    /// Line-oriented text (the default; `nc`-friendly).
    #[default]
    Text,
    /// Length-prefixed binary frames (responses only).
    Binary,
}

impl Framing {
    /// Parses the `HELLO framing=` value.
    pub fn parse(s: &str) -> Option<Framing> {
        match s {
            "text" => Some(Framing::Text),
            "binary" => Some(Framing::Binary),
            _ => None,
        }
    }

    /// The wire name (`text` / `binary`).
    pub fn label(self) -> &'static str {
        match self {
            Framing::Text => "text",
            Framing::Binary => "binary",
        }
    }
}

/// Frame kind bytes.
pub const KIND_ROUND: u8 = b'R';
pub const KIND_END: u8 = b'E';
pub const KIND_OK: u8 = b'O';
pub const KIND_ERR: u8 = b'X';
pub const KIND_STATS: u8 = b'S';
pub const KIND_CSV: u8 = b'C';
pub const KIND_METRICS: u8 = b'M';

/// Upper bound on a frame payload; a corrupt length prefix must not
/// become an allocation bomb.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// One `ROUND` record, framing-agnostic: the server encodes it as a
/// text line or a binary frame, the client decodes either back into
/// the same canonical payload string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundLine {
    /// Scenario label (`seed-<n>` unless overridden).
    pub label: String,
    /// Round index.
    pub round: u32,
    /// Endpoints sampled this round.
    pub endpoints: u64,
    /// Direct pairs planned.
    pub pairs: u64,
    /// Cases emitted.
    pub cases: u64,
    /// Pairs without a valid direct median.
    pub unresponsive: u64,
    /// Overlay links measured.
    pub links_measured: u64,
    /// Overlay links planned.
    pub links_planned: u64,
    /// Symmetry samples recorded.
    pub symmetry: u64,
}

impl RoundLine {
    /// Builds the record from a streamed [`RoundSummary`].
    pub fn from_summary(label: &str, s: &RoundSummary) -> RoundLine {
        RoundLine {
            label: label.to_string(),
            round: s.round,
            endpoints: s.endpoints as u64,
            pairs: s.pairs as u64,
            cases: s.cases as u64,
            unresponsive: s.unresponsive_pairs,
            links_measured: s.links_measured as u64,
            links_planned: s.links_planned as u64,
            symmetry: s.symmetry_samples as u64,
        }
    }

    /// The canonical text payload — everything after `ROUND ` on a
    /// text-mode line. Binary-mode clients reconstruct exactly this
    /// string, so streams compare byte-for-byte across framings.
    pub fn payload(&self) -> String {
        format!(
            "{} {} endpoints={} pairs={} cases={} unresponsive={} links={}/{} symmetry={}",
            self.label,
            self.round,
            self.endpoints,
            self.pairs,
            self.cases,
            self.unresponsive,
            self.links_measured,
            self.links_planned,
            self.symmetry,
        )
    }

    /// Appends this record as one whole `R` frame.
    fn push_frame(&self, out: &mut Vec<u8>) -> io::Result<()> {
        let label = self.label.as_bytes();
        push_header(out, KIND_ROUND, 4 + 7 * 8 + 2 + label.len())?;
        out.extend_from_slice(&self.round.to_le_bytes());
        for v in [
            self.endpoints,
            self.pairs,
            self.cases,
            self.unresponsive,
            self.links_measured,
            self.links_planned,
            self.symmetry,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(label.len() as u16).to_le_bytes());
        out.extend_from_slice(label);
        Ok(())
    }

    fn decode(payload: &[u8]) -> io::Result<RoundLine> {
        let fixed = 4 + 7 * 8 + 2;
        if payload.len() < fixed {
            return Err(bad_frame("truncated ROUND frame"));
        }
        let u32_at = |i: usize| u32::from_le_bytes(payload[i..i + 4].try_into().unwrap());
        let u64_at = |i: usize| u64::from_le_bytes(payload[i..i + 8].try_into().unwrap());
        let label_len = u16::from_le_bytes(payload[fixed - 2..fixed].try_into().unwrap()) as usize;
        if payload.len() != fixed + label_len {
            return Err(bad_frame("ROUND frame label length mismatch"));
        }
        let label = std::str::from_utf8(&payload[fixed..])
            .map_err(|_| bad_frame("ROUND frame label is not UTF-8"))?
            .to_string();
        Ok(RoundLine {
            label,
            round: u32_at(0),
            endpoints: u64_at(4),
            pairs: u64_at(12),
            cases: u64_at(20),
            unresponsive: u64_at(28),
            links_measured: u64_at(36),
            links_planned: u64_at(44),
            symmetry: u64_at(52),
        })
    }
}

/// One decoded server→client frame (either framing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A completed round.
    Round(RoundLine),
    /// An `END <payload>` scenario summary.
    End(String),
    /// An `OK <detail>` terminator.
    Ok(String),
    /// An `ERR <message>`.
    Err(String),
    /// A `STATS <payload>` line.
    Stats(String),
    /// A CSV payload.
    Csv {
        /// Server-chosen file name.
        name: String,
        /// Raw CSV bytes.
        bytes: Vec<u8>,
    },
    /// A `METRICS` exposition payload (Prometheus text format).
    Metrics(Vec<u8>),
}

fn bad_frame(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Appends a frame header: `[kind][len u32 LE]`. A payload the peer's
/// [`read_frame`] would refuse is an error here, not a corrupt stream
/// there.
fn push_header(out: &mut Vec<u8>, kind: u8, len: usize) -> io::Result<()> {
    let len = u32::try_from(len)
        .ok()
        .filter(|&len| len <= MAX_FRAME_BYTES)
        .ok_or_else(|| bad_frame("frame length exceeds the 64 MiB cap"))?;
    out.push(kind);
    out.extend_from_slice(&len.to_le_bytes());
    Ok(())
}

/// Appends everything of a `C` frame that precedes the CSV bytes: the
/// header (sized for the whole frame) and the length-prefixed name.
fn push_csv_head(out: &mut Vec<u8>, name: &str, csv_len: usize) -> io::Result<()> {
    let name = name.as_bytes();
    push_header(out, KIND_CSV, 2 + name.len() + csv_len)?;
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name);
    Ok(())
}

/// Writes one binary frame: the encoded head, then the payload straight
/// from the frame it is borrowed from.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    let mut head = Vec::new();
    let (kind, payload): (u8, &[u8]) = match frame {
        Frame::Round(r) => {
            r.push_frame(&mut head)?;
            return w.write_all(&head);
        }
        Frame::Csv { name, bytes } => {
            push_csv_head(&mut head, name, bytes.len())?;
            w.write_all(&head)?;
            return w.write_all(bytes);
        }
        Frame::End(s) => (KIND_END, s.as_bytes()),
        Frame::Ok(s) => (KIND_OK, s.as_bytes()),
        Frame::Err(s) => (KIND_ERR, s.as_bytes()),
        Frame::Stats(s) => (KIND_STATS, s.as_bytes()),
        Frame::Metrics(bytes) => (KIND_METRICS, bytes),
    };
    push_header(&mut head, kind, payload.len())?;
    w.write_all(&head)?;
    w.write_all(payload)
}

/// Reads one binary frame.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Frame> {
    let mut header = [0u8; 5];
    r.read_exact(&mut header)?;
    let kind = header[0];
    let len = u32::from_le_bytes(header[1..5].try_into().unwrap());
    if len > MAX_FRAME_BYTES {
        return Err(bad_frame("frame length exceeds the 64 MiB cap"));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let text =
        |p: Vec<u8>| String::from_utf8(p).map_err(|_| bad_frame("frame payload is not UTF-8"));
    match kind {
        KIND_ROUND => Ok(Frame::Round(RoundLine::decode(&payload)?)),
        KIND_END => Ok(Frame::End(text(payload)?)),
        KIND_OK => Ok(Frame::Ok(text(payload)?)),
        KIND_ERR => Ok(Frame::Err(text(payload)?)),
        KIND_STATS => Ok(Frame::Stats(text(payload)?)),
        KIND_CSV => {
            if payload.len() < 2 {
                return Err(bad_frame("truncated CSV frame"));
            }
            let name_len = u16::from_le_bytes(payload[..2].try_into().unwrap()) as usize;
            if payload.len() < 2 + name_len {
                return Err(bad_frame("CSV frame name length mismatch"));
            }
            let name = std::str::from_utf8(&payload[2..2 + name_len])
                .map_err(|_| bad_frame("CSV frame name is not UTF-8"))?
                .to_string();
            // The CSV bytes stay in the buffer they were read into.
            payload.drain(..2 + name_len);
            Ok(Frame::Csv {
                name,
                bytes: payload,
            })
        }
        KIND_METRICS => Ok(Frame::Metrics(payload)),
        other => Err(bad_frame(&format!("unknown frame kind {other:#04x}"))),
    }
}

/// How much of a payload rides in the same `write` as its header.
/// Anything above one segment will do; what matters is that the header
/// never travels alone.
const PAYLOAD_HEAD_BYTES: usize = 16 << 10;

/// The server side of a session's response stream: encodes into
/// whichever framing the session negotiated and hands the socket whole
/// messages.
///
/// Buffering discipline: the line/frame emitters only append to an
/// in-memory buffer, and [`ResponseWriter::flush`] hands all of it to
/// the socket in **one** `write`. Sessions flush once per round event
/// on the streaming path and once per finished response otherwise, so
/// a multi-line response (END block + `OK`, STATS block) is one
/// syscall. The payload emitters ([`ResponseWriter::csv`],
/// [`ResponseWriter::metrics`]) are whole responses and send
/// themselves.
///
/// Generic over the sink so tests can count `write` calls; sessions
/// use the default.
pub struct ResponseWriter<W: Write = TcpStream> {
    w: W,
    buf: Vec<u8>,
    framing: Framing,
}

impl<W: Write> ResponseWriter<W> {
    /// Wraps a session's stream; starts in text framing.
    pub fn new(stream: W) -> ResponseWriter<W> {
        ResponseWriter {
            w: stream,
            buf: Vec::new(),
            framing: Framing::Text,
        }
    }

    /// The currently negotiated framing.
    pub fn framing(&self) -> Framing {
        self.framing
    }

    /// Switches framing (after a successful `HELLO` handshake).
    pub fn set_framing(&mut self, framing: Framing) {
        self.framing = framing;
    }

    /// Writes a raw text line regardless of framing — the greeting and
    /// the `HELLO` reply are always text, so a client can negotiate
    /// before it has to speak frames.
    pub fn text_line(&mut self, line: &str) -> io::Result<()> {
        writeln!(self.buf, "{line}")
    }

    fn emit(&mut self, prefix: &str, kind: u8, payload: &str) -> io::Result<()> {
        match self.framing {
            Framing::Text => writeln!(self.buf, "{prefix} {payload}"),
            Framing::Binary => {
                push_header(&mut self.buf, kind, payload.len())?;
                self.buf.extend_from_slice(payload.as_bytes());
                Ok(())
            }
        }
    }

    /// An `OK <detail>` terminator.
    pub fn ok(&mut self, detail: &str) -> io::Result<()> {
        self.emit("OK", KIND_OK, detail)
    }

    /// An `ERR <message>`.
    pub fn err(&mut self, msg: &str) -> io::Result<()> {
        self.emit("ERR", KIND_ERR, msg)
    }

    /// A `STATS <payload>` line.
    pub fn stats(&mut self, payload: &str) -> io::Result<()> {
        self.emit("STATS", KIND_STATS, payload)
    }

    /// An `END <payload>` scenario summary.
    pub fn end(&mut self, payload: &str) -> io::Result<()> {
        self.emit("END", KIND_END, payload)
    }

    /// One completed round.
    pub fn round(&mut self, r: &RoundLine) -> io::Result<()> {
        match self.framing {
            Framing::Text => writeln!(self.buf, "ROUND {}", r.payload()),
            Framing::Binary => r.push_frame(&mut self.buf),
        }
    }

    /// Sends a CSV response (header line + raw bytes in text mode, one
    /// frame in binary mode).
    pub fn csv(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        match self.framing {
            Framing::Text => writeln!(self.buf, "CSV {name} {}", bytes.len())?,
            Framing::Binary => push_csv_head(&mut self.buf, name, bytes.len())?,
        }
        self.send_with_payload(bytes)
    }

    /// Sends a `METRICS` exposition (length-prefixed raw bytes in text
    /// mode — `METRICS <len>\n` then the bytes, like `CSV` — one frame
    /// in binary mode).
    pub fn metrics(&mut self, bytes: &[u8]) -> io::Result<()> {
        match self.framing {
            Framing::Text => writeln!(self.buf, "METRICS {}", bytes.len())?,
            Framing::Binary => push_header(&mut self.buf, KIND_METRICS, bytes.len())?,
        }
        self.send_with_payload(bytes)
    }

    /// Sends what is buffered (a payload's header) together with the
    /// head of `payload`, then the rest of it uncopied.
    fn send_with_payload(&mut self, payload: &[u8]) -> io::Result<()> {
        let head = PAYLOAD_HEAD_BYTES
            .saturating_sub(self.buf.len())
            .min(payload.len());
        self.buf.extend_from_slice(&payload[..head]);
        self.flush()?;
        self.w.write_all(&payload[head..])
    }

    /// Hands everything buffered to the socket in one `write`.
    pub fn flush(&mut self) -> io::Result<()> {
        let sent = self.w.write_all(&self.buf);
        self.buf.clear();
        sent
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn sample_round() -> RoundLine {
        RoundLine {
            label: "seed-2017".into(),
            round: 3,
            endpoints: 120,
            pairs: 456,
            cases: 440,
            unresponsive: 16,
            links_measured: 70,
            links_planned: 72,
            symmetry: 9,
        }
    }

    #[test]
    fn frames_roundtrip_bitwise() {
        let frames = [
            Frame::Round(sample_round()),
            Frame::End("seed-2017 seed=2017 cases=9 pings=1 unresponsive=0".into()),
            Frame::Ok("run 1".into()),
            Frame::Err("credits need=8 have=0 retry-after-ms=125".into()),
            Frame::Stats("pool worlds=1 engines=1".into()),
            Frame::Csv {
                name: "cases_seed-2017.csv".into(),
                bytes: b"a,b\n1,2\n".to_vec(),
            },
            Frame::Metrics(b"colo_pool_worlds 1\ncolo_pool_engines 1\n".to_vec()),
        ];
        for frame in frames {
            let mut buf = Vec::new();
            write_frame(&mut buf, &frame).unwrap();
            let decoded = read_frame(&mut buf.as_slice()).unwrap();
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn round_payload_matches_the_text_protocol() {
        let r = sample_round();
        assert_eq!(
            r.payload(),
            "seed-2017 3 endpoints=120 pairs=456 cases=440 unresponsive=16 \
             links=70/72 symmetry=9"
        );
    }

    #[test]
    fn corrupt_frames_error_instead_of_panicking() {
        // Unknown kind.
        let mut buf = Vec::new();
        buf.push(b'Z');
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(read_frame(&mut buf.as_slice()).is_err());
        // Oversized length prefix.
        let mut buf = Vec::new();
        buf.push(KIND_OK);
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_frame(&mut buf.as_slice()).is_err());
        // Truncated ROUND payload.
        let mut buf = Vec::new();
        buf.push(KIND_ROUND);
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&[1, 2, 3]);
        assert!(read_frame(&mut buf.as_slice()).is_err());
        // CSV with a lying name length.
        let mut buf = Vec::new();
        buf.push(KIND_CSV);
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&200u16.to_le_bytes());
        buf.push(b'x');
        assert!(read_frame(&mut buf.as_slice()).is_err());
        // Truncated stream (EOF mid-frame).
        let mut buf = Vec::new();
        buf.push(KIND_OK);
        buf.extend_from_slice(&10u32.to_le_bytes());
        buf.extend_from_slice(b"abc");
        assert!(read_frame(&mut buf.as_slice()).is_err());
    }

    /// A sink that records the size of every `write` call it is handed.
    #[derive(Default)]
    pub(crate) struct CountingWriter {
        pub(crate) writes: Vec<usize>,
        pub(crate) bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn writer(framing: Framing) -> ResponseWriter<CountingWriter> {
        let mut w = ResponseWriter::new(CountingWriter::default());
        w.set_framing(framing);
        w
    }

    /// Runs `respond` (which ends in a flush) and returns the sizes of
    /// the writes it caused plus the bytes that left.
    fn sent(
        framing: Framing,
        respond: impl FnOnce(&mut ResponseWriter<CountingWriter>) -> io::Result<()>,
    ) -> (Vec<usize>, Vec<u8>) {
        let mut w = writer(framing);
        respond(&mut w).unwrap();
        assert!(
            w.buf.is_empty(),
            "a finished response leaves nothing buffered"
        );
        (w.w.writes, w.w.bytes)
    }

    #[test]
    fn small_responses_are_one_write_in_both_framings() {
        for framing in [Framing::Text, Framing::Binary] {
            let one_write = |what: &str, writes: Vec<usize>| {
                assert_eq!(writes.len(), 1, "{what} in {framing:?}: writes {writes:?}");
            };
            let (writes, bytes) = sent(framing, |w| {
                w.text_line(crate::protocol::GREETING)?;
                w.flush()
            });
            one_write("greeting", writes);
            assert_eq!(bytes, format!("{}\n", crate::protocol::GREETING).as_bytes());
            one_write(
                "OK",
                sent(framing, |w| w.ok("bye").and_then(|()| w.flush())).0,
            );
            one_write(
                "ERR",
                sent(framing, |w| w.err("no such verb").and_then(|()| w.flush())).0,
            );
            one_write(
                "ROUND",
                sent(framing, |w| {
                    w.round(&sample_round()).and_then(|()| w.flush())
                })
                .0,
            );
            let stats_block = sent(framing, |w| {
                w.stats("world=90 policy=valley-free pair_hits=1")?;
                w.stats("pool worlds=1 engines=1")?;
                w.stats("service subscribers=0 broadcasts=1")?;
                w.ok("stats 3")?;
                w.flush()
            });
            one_write("STATS block", stats_block.0);
            let end_block = sent(framing, |w| {
                w.end("seed-7 seed=7 cases=9 pings=1 unresponsive=0")?;
                w.end("seed-8 seed=8 cases=9 pings=1 unresponsive=0")?;
                w.ok("sweep 2")?;
                w.flush()
            });
            one_write("END block with its OK", end_block.0);
            one_write(
                "a CSV that fits beside its header",
                sent(framing, |w| w.csv("sweep.csv", b"a,b\n1,2\n")).0,
            );
            one_write("METRICS", sent(framing, |w| w.metrics(&[b'm'; 6000])).0);
        }
    }

    #[test]
    fn a_megabyte_csv_never_sends_its_header_alone() {
        let csv: Vec<u8> = (0..1_048_682u32).map(|i| b'0' + (i % 10) as u8).collect();
        let name = "cases_seed-2017.csv";

        let (writes, bytes) = sent(Framing::Text, |w| w.csv(name, &csv));
        let mut expected = format!("CSV {name} {}\n", csv.len()).into_bytes();
        expected.extend_from_slice(&csv);
        assert_eq!(bytes, expected, "text wire bytes");
        assert_eq!(
            writes,
            [PAYLOAD_HEAD_BYTES, expected.len() - PAYLOAD_HEAD_BYTES]
        );

        let (writes, bytes) = sent(Framing::Binary, |w| w.csv(name, &csv));
        assert_eq!(
            writes,
            [PAYLOAD_HEAD_BYTES, bytes.len() - PAYLOAD_HEAD_BYTES]
        );
        assert_eq!(
            read_frame(&mut bytes.as_slice()).unwrap(),
            Frame::Csv {
                name: name.into(),
                bytes: csv.clone(),
            }
        );
        // The session's encoder and the public one agree byte for byte.
        let mut framed = Vec::new();
        let frame = Frame::Csv {
            name: name.into(),
            bytes: csv,
        };
        write_frame(&mut framed, &frame).unwrap();
        assert_eq!(bytes, framed);
    }

    #[test]
    fn frame_bytes_are_pinned() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Ok("run 1".into())).unwrap();
        assert_eq!(buf, b"O\x05\0\0\0run 1");
        let mut buf = Vec::new();
        let csv = Frame::Csv {
            name: "s.csv".into(),
            bytes: b"a\n".to_vec(),
        };
        write_frame(&mut buf, &csv).unwrap();
        assert_eq!(buf, b"C\x09\0\0\0\x05\0s.csva\n");
        // The session writer emits the same bytes as `write_frame`.
        for frame in [
            Frame::Round(sample_round()),
            Frame::End("seed-1 seed=1 cases=2 pings=2 unresponsive=0".into()),
            Frame::Stats("pool worlds=1".into()),
            Frame::Err("lagged".into()),
            Frame::Metrics(b"colo_pool_worlds 1\n".to_vec()),
        ] {
            let mut expected = Vec::new();
            write_frame(&mut expected, &frame).unwrap();
            let (_, bytes) = sent(Framing::Binary, |w| match &frame {
                Frame::Round(r) => w.round(r).and_then(|()| w.flush()),
                Frame::End(p) => w.end(p).and_then(|()| w.flush()),
                Frame::Stats(p) => w.stats(p).and_then(|()| w.flush()),
                Frame::Err(p) => w.err(p).and_then(|()| w.flush()),
                Frame::Metrics(b) => w.metrics(b),
                other => unreachable!("{other:?}"),
            });
            assert_eq!(bytes, expected, "{frame:?}");
        }
    }

    #[test]
    fn oversized_payloads_are_refused_before_they_corrupt_the_stream() {
        let mut buf = Vec::new();
        assert!(push_header(&mut buf, KIND_CSV, MAX_FRAME_BYTES as usize).is_ok());
        assert!(push_header(&mut buf, KIND_CSV, MAX_FRAME_BYTES as usize + 1).is_err());
        assert_eq!(buf.len(), 5, "a refused header writes nothing");
    }

    #[test]
    fn framing_parses_its_wire_names() {
        assert_eq!(Framing::parse("text"), Some(Framing::Text));
        assert_eq!(Framing::parse("binary"), Some(Framing::Binary));
        assert_eq!(Framing::parse("carrier-pigeon"), None);
        assert_eq!(Framing::Binary.label(), "binary");
    }
}
