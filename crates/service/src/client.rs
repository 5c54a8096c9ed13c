//! A minimal blocking client for the service protocol.
//!
//! Wraps one TCP connection: send a request line, stream the response
//! events, fetch CSV payloads. Speaks both framings — requests are
//! always text; after [`Client::negotiate`] the responses arrive as
//! length-prefixed binary frames ([`crate::frame`]) and are decoded
//! back into the same strings the text protocol would have produced,
//! so callers never observe the framing. Used by the
//! `colo-shortcuts client` subcommand, the end-to-end tests, the
//! perf ledger's serve workloads and the `loadgen` harness; scripts
//! can just as well speak the text protocol over `nc`.
//!
//! The socket runs with `TCP_NODELAY` and every request leaves as one
//! `write` of `line + '\n'` ([`write_request`]): a request is a single
//! small message that the server answers at once, which is exactly the
//! traffic Nagle's algorithm and delayed ACKs turn into a 40 ms stall
//! per round trip when the newline is written separately.
//!
//! Admission refusals are retryable by design: `ERR busy` (connection
//! bound) and `ERR credits` (work bound, with a `retry-after-ms`
//! hint) both leave the client a clean path to try again, and
//! [`Client::connect_with_retry`] / [`Client::run_streaming_with_retry`]
//! implement jittered exponential backoff around them.

use crate::frame::{read_frame, Frame, Framing};
use crate::protocol::GREETING;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One event streamed while a batch runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamEvent {
    /// A `ROUND <label> <round> …` progress event (raw payload —
    /// identical bytes in both framings).
    Round(String),
    /// An `END <label> …` scenario-summary event (raw payload).
    End(String),
}

/// Retry policy for `ERR busy` / `ERR credits` refusals: exponential
/// backoff (doubling from `base_delay`) with uniform jitter, capped at
/// `attempts` retries.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first failure (0 = fail immediately).
    pub attempts: u32,
    /// First backoff step; later steps double it.
    pub base_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 5,
            base_delay: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// A policy with `attempts` retries and the default base delay.
    pub fn with_attempts(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            attempts,
            ..Default::default()
        }
    }

    /// The jittered delay before retry number `attempt` (0-based).
    fn backoff(&self, attempt: u32) -> Duration {
        let step = self.base_delay.saturating_mul(1u32 << attempt.min(8));
        step + jitter(step)
    }
}

/// Cheap decorrelation jitter in `[0, cap)` — derived from the clock's
/// sub-millisecond noise, which is plenty to de-synchronize a retry
/// herd without pulling in an RNG.
fn jitter(cap: Duration) -> Duration {
    let cap_ns = cap.as_nanos().max(1) as u64;
    let noise = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64)
        .unwrap_or(0);
    Duration::from_nanos(noise.wrapping_mul(0x9E37_79B9_7F4A_7C15) % cap_ns)
}

fn protocol_err(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// True for refusals worth retrying: admission (`ERR busy`, surfaced
/// as `ConnectionRefused`) and credit denials (`ERR credits`).
pub fn is_retryable(err: &std::io::Error) -> bool {
    err.kind() == std::io::ErrorKind::ConnectionRefused
        || err.to_string().contains("ERR credits")
        || err.to_string().contains("ERR busy")
}

/// Parses the server's `retry-after-ms=<n>` hint out of an error.
pub fn retry_after(err: &std::io::Error) -> Option<Duration> {
    let msg = err.to_string();
    let rest = msg.split("retry-after-ms=").nth(1)?;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok().map(Duration::from_millis)
}

/// Writes one request line as a single `write`: the line and its
/// newline leave together, never as two segments.
pub fn write_request<W: Write>(w: &mut W, line: &str) -> std::io::Result<()> {
    let mut message = Vec::with_capacity(line.len() + 1);
    message.extend_from_slice(line.as_bytes());
    message.push(b'\n');
    w.write_all(&message)
}

/// A decoded server response, framing-agnostic.
enum Reply {
    Round(String),
    End(String),
    Ok(String),
    Err(String),
    Stats(String),
    Csv { name: String, bytes: Vec<u8> },
    Metrics(Vec<u8>),
}

/// A connected session.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    framing: Framing,
}

impl Client {
    /// Connects and consumes the greeting. A server over capacity
    /// answers `ERR busy …` instead; that surfaces as an error of kind
    /// [`std::io::ErrorKind::ConnectionRefused`].
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        let mut client = Client {
            reader: BufReader::new(stream),
            writer,
            framing: Framing::Text,
        };
        let greeting = client.read_response_line()?;
        if greeting.starts_with("ERR") {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                greeting,
            ));
        }
        if greeting != GREETING {
            return Err(protocol_err(format!("unexpected greeting {greeting:?}")));
        }
        Ok(client)
    }

    /// [`Client::connect`] with jittered exponential backoff around
    /// `ERR busy` (and plain connection-refused) refusals.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + Clone,
        policy: RetryPolicy,
    ) -> std::io::Result<Client> {
        let mut attempt = 0;
        loop {
            match Client::connect(addr.clone()) {
                Ok(c) => return Ok(c),
                Err(e) if attempt < policy.attempts && is_retryable(&e) => {
                    std::thread::sleep(policy.backoff(attempt));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The currently negotiated response framing.
    pub fn framing(&self) -> Framing {
        self.framing
    }

    /// Negotiates response framing via `HELLO framing=<f>`. The reply
    /// is always a text line; every later response uses the new
    /// framing.
    pub fn negotiate(&mut self, framing: Framing) -> std::io::Result<()> {
        self.send(&format!("HELLO framing={}", framing.label()))?;
        let line = self.read_response_line()?;
        if !line.starts_with("OK hello") {
            return Err(protocol_err(format!("HELLO rejected: {line}")));
        }
        self.framing = framing;
        Ok(())
    }

    /// Sends one request line (requests are text in both framings).
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        write_request(&mut self.writer, line)
    }

    fn read_response_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    /// Reads one response in the negotiated framing, decoding binary
    /// frames into the exact strings text mode would have produced.
    fn read_reply(&mut self) -> std::io::Result<Reply> {
        match self.framing {
            Framing::Binary => Ok(match read_frame(&mut self.reader)? {
                Frame::Round(r) => Reply::Round(r.payload()),
                Frame::End(p) => Reply::End(p),
                Frame::Ok(p) => Reply::Ok(p),
                Frame::Err(p) => Reply::Err(p),
                Frame::Stats(p) => Reply::Stats(p),
                Frame::Csv { name, bytes } => Reply::Csv { name, bytes },
                Frame::Metrics(bytes) => Reply::Metrics(bytes),
            }),
            Framing::Text => {
                let line = self.read_response_line()?;
                if let Some(rest) = line.strip_prefix("ROUND ") {
                    Ok(Reply::Round(rest.to_string()))
                } else if let Some(rest) = line.strip_prefix("END ") {
                    Ok(Reply::End(rest.to_string()))
                } else if let Some(rest) = line.strip_prefix("OK ") {
                    Ok(Reply::Ok(rest.to_string()))
                } else if let Some(rest) = line.strip_prefix("ERR ") {
                    Ok(Reply::Err(rest.to_string()))
                } else if let Some(rest) = line.strip_prefix("STATS ") {
                    Ok(Reply::Stats(rest.to_string()))
                } else if let Some(rest) = line.strip_prefix("CSV ") {
                    let mut parts = rest.split_whitespace();
                    let name = parts
                        .next()
                        .ok_or_else(|| protocol_err("CSV header missing name"))?
                        .to_string();
                    let len: usize = parts
                        .next()
                        .and_then(|l| l.parse().ok())
                        .ok_or_else(|| protocol_err("CSV header missing length"))?;
                    let mut bytes = vec![0u8; len];
                    self.reader.read_exact(&mut bytes)?;
                    Ok(Reply::Csv { name, bytes })
                } else if let Some(rest) = line.strip_prefix("METRICS ") {
                    let len: usize = rest
                        .trim()
                        .parse()
                        .map_err(|_| protocol_err("METRICS header missing length"))?;
                    let mut bytes = vec![0u8; len];
                    self.reader.read_exact(&mut bytes)?;
                    Ok(Reply::Metrics(bytes))
                } else {
                    Err(protocol_err(format!("unexpected line {line:?}")))
                }
            }
        }
    }

    /// Sends a `RUN`/`SWEEP`/`SUBSCRIBE` request and streams its
    /// `ROUND`/`END` events into `on_event` until the terminating `OK`
    /// (returned) or `ERR` (an [`std::io::ErrorKind::InvalidData`]
    /// error).
    pub fn run_streaming<F: FnMut(StreamEvent)>(
        &mut self,
        request: &str,
        mut on_event: F,
    ) -> std::io::Result<String> {
        self.send(request)?;
        loop {
            match self.read_reply()? {
                Reply::Round(p) => on_event(StreamEvent::Round(p)),
                Reply::End(p) => on_event(StreamEvent::End(p)),
                Reply::Ok(detail) => return Ok(detail),
                Reply::Err(msg) => return Err(protocol_err(format!("ERR {msg}"))),
                _ => return Err(protocol_err("unexpected reply to a streaming request")),
            }
        }
    }

    /// [`Client::run_streaming`] with jittered exponential backoff
    /// around `ERR credits` / `ERR busy` refusals, honoring the
    /// server's `retry-after-ms` hint when present. Safe to retry
    /// because refusals happen before any event is streamed.
    pub fn run_streaming_with_retry<F: FnMut(StreamEvent)>(
        &mut self,
        request: &str,
        policy: RetryPolicy,
        mut on_event: F,
    ) -> std::io::Result<String> {
        let mut attempt = 0;
        loop {
            match self.run_streaming(request, &mut on_event) {
                Ok(detail) => return Ok(detail),
                Err(e) if attempt < policy.attempts && is_retryable(&e) => {
                    let wait = retry_after(&e)
                        .map(|hint| hint + jitter(policy.base_delay))
                        .unwrap_or_else(|| policy.backoff(attempt));
                    std::thread::sleep(wait);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Fetches one CSV payload: `what` is the argument part of the
    /// `CSV` request (`"cases"`, `"cases <label>"`, `"sweep"`).
    /// Returns `(name, bytes)`.
    pub fn fetch_csv(&mut self, what: &str) -> std::io::Result<(String, Vec<u8>)> {
        self.send(&format!("CSV {what}"))?;
        match self.read_reply()? {
            Reply::Csv { name, bytes } => Ok((name, bytes)),
            Reply::Err(msg) => Err(protocol_err(format!("ERR {msg}"))),
            _ => Err(protocol_err("unexpected reply to a CSV request")),
        }
    }

    /// Fetches the `STATS` payloads: one per pooled engine stack, then
    /// the aggregate `pool …` line, the `service …` counters, and one
    /// `credits …` balance line per metered client.
    pub fn stats(&mut self) -> std::io::Result<Vec<String>> {
        self.send("STATS")?;
        let mut out = Vec::new();
        loop {
            match self.read_reply()? {
                Reply::Stats(p) => out.push(p),
                Reply::Ok(_) => return Ok(out),
                Reply::Err(msg) => return Err(protocol_err(format!("ERR {msg}"))),
                _ => return Err(protocol_err("unexpected reply to STATS")),
            }
        }
    }

    /// Fetches the `METRICS` exposition: Prometheus-style
    /// `name{label="v"} value` text covering engine, scheduler, pool,
    /// broadcast and credit metrics, including the per-stage latency
    /// histograms.
    pub fn metrics(&mut self) -> std::io::Result<String> {
        self.send("METRICS")?;
        match self.read_reply()? {
            Reply::Metrics(bytes) => {
                String::from_utf8(bytes).map_err(|_| protocol_err("METRICS payload is not UTF-8"))
            }
            Reply::Err(msg) => Err(protocol_err(format!("ERR {msg}"))),
            _ => Err(protocol_err("unexpected reply to METRICS")),
        }
    }

    /// Sends a raw request and returns the single `OK`/`ERR` response
    /// line (for protocol probing; streaming requests need
    /// [`Client::run_streaming`]). Text framing only.
    pub fn round_trip(&mut self, request: &str) -> std::io::Result<String> {
        self.send(request)?;
        match self.framing {
            Framing::Text => self.read_response_line(),
            Framing::Binary => match self.read_reply()? {
                Reply::Ok(p) => Ok(format!("OK {p}")),
                Reply::Err(p) => Ok(format!("ERR {p}")),
                _ => Err(protocol_err("unexpected reply")),
            },
        }
    }

    /// Polite goodbye (best-effort; the connection drops either way).
    pub fn quit(mut self) {
        let _ = self.send("QUIT");
        match self.framing {
            Framing::Text => {
                let _ = self.read_response_line();
            }
            Framing::Binary => {
                let _ = self.read_reply();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::tests::CountingWriter;

    #[test]
    fn a_request_is_one_write_ending_in_its_newline() {
        for line in ["STATS", "SUBSCRIBE seed=2017 rounds=2", "CSV cases seed-7"] {
            let mut w = CountingWriter::default();
            write_request(&mut w, line).unwrap();
            assert_eq!(w.writes, [line.len() + 1]);
            assert_eq!(w.bytes, format!("{line}\n").as_bytes());
        }
    }
}
