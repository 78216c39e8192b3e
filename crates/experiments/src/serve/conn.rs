//! The client side of the wire: one [`Client`] for `cosched client`, the
//! smoke tests, the benches and the integration tests.
//!
//! A client is a wire mode plus a connect-retry budget. It drives a
//! request list either **lock-step** ([`Client::exchange`]: each request
//! is written only after the previous response arrived) or **pipelined**
//! ([`Client::pipeline`]: a side thread writes every request while the
//! caller's thread collects responses, so many are in flight on one
//! connection). Both loops are written once over the codec — a JSON line
//! or a binary frame (see [`frame`]) — and the server answers in request
//! order either way.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use super::frame::{self, FrameMode};

/// Connection attempts `cosched client` makes beyond the first
/// (`--retries` overrides).
pub const DEFAULT_CLIENT_RETRIES: u32 = 3;

/// A `cosched serve` client. `Client::default()` speaks line JSON and
/// makes a single connect attempt.
///
/// Only the *connect* is retried: once any request has been written, a
/// dead connection aborts the exchange (blindly re-sending a
/// half-delivered trace would re-apply mutations).
#[derive(Debug, Clone, Copy, Default)]
pub struct Client {
    /// Wire mode: [`FrameMode::Json`] sends no hello;
    /// [`FrameMode::Binary`] negotiates `[u32 LE length][payload]`
    /// frames first. The response payloads are identical in both modes.
    pub frame: FrameMode,
    /// Connect attempts beyond the first (see [`Client::connect`]).
    pub retries: u32,
}

/// What [`Client::pipeline`] observed from the client's side of the wire:
/// the responses plus per-request latency samples and the wall time of
/// the whole exchange.
pub struct ExchangeStats {
    /// The responses, in request order.
    pub responses: Vec<String>,
    /// Client-observed latency of each request, in request order:
    /// from the moment the request was flushed toward the socket to the
    /// moment its response was read. Pipelining makes these overlap —
    /// they measure what a caller waits, not server work.
    pub latencies_ns: Vec<u64>,
    /// Wall time from first byte written to last response read.
    pub wall_ns: u64,
}

impl Client {
    /// Connects, retrying refused/reset/unreachable attempts up to
    /// [`Client::retries`] times with exponential backoff (50 ms
    /// doubling, capped at 2 s) — a just-restarting server (`--restore`
    /// replaying a long WAL) is the expected cause. Non-transient errors
    /// and exhausted retries return a structured [`std::io::Error`]
    /// naming the attempt count; callers exit with it instead of
    /// panicking mid-trace. The stream comes back with Nagle disabled:
    /// request lines are tiny, and Nagle would hold them hostage to the
    /// peer's delayed-ACK timer (~40 ms per exchange on loopback).
    pub fn connect(&self, addr: impl ToSocketAddrs + Copy) -> std::io::Result<TcpStream> {
        let mut delay = Duration::from_millis(50);
        let mut attempt = 0u32;
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(stream) => break stream,
                Err(e) if attempt < self.retries && is_transient(&e) => {
                    attempt += 1;
                    std::thread::sleep(delay);
                    delay = (delay * 2).min(Duration::from_secs(2));
                }
                Err(e) => {
                    return Err(std::io::Error::new(
                        e.kind(),
                        format!("connect failed after {} attempt(s): {e}", attempt + 1),
                    ));
                }
            }
        };
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// Sends each request **lock-step** and returns the responses, one
    /// per request, in order.
    pub fn exchange(
        &self,
        addr: impl ToSocketAddrs + Copy,
        requests: &[String],
    ) -> std::io::Result<Vec<String>> {
        let (mut writer, mut reader) = self.open(addr)?;
        let mut scratch = Vec::new();
        requests
            .iter()
            .map(|request| {
                write_request(&mut writer, self.frame, request, &mut scratch)?;
                read_response(&mut reader, self.frame)
            })
            .collect()
    }

    /// Sends every request **pipelined** and returns the responses with
    /// client-observed latencies: the sender thread flushes each request
    /// on its own and hands its timestamp through a channel to the
    /// reader, which clocks the matching response (responses return in
    /// request order, so the k-th timestamp pairs with the k-th
    /// response). Callers that need only the replies take
    /// [`ExchangeStats::responses`].
    pub fn pipeline(
        &self,
        addr: impl ToSocketAddrs + Copy,
        requests: &[String],
    ) -> std::io::Result<ExchangeStats> {
        let (mut writer, mut reader) = self.open(addr)?;
        let mode = self.frame;
        let started = Instant::now();
        std::thread::scope(|scope| {
            let (sent_tx, sent_rx) = std::sync::mpsc::channel::<Instant>();
            let sender = scope.spawn(move || -> std::io::Result<()> {
                let mut scratch = Vec::new();
                for request in requests {
                    // Each request goes out in one unbuffered write, so
                    // the timestamp marks bytes actually on their way — a
                    // buffered-but-unsent request would bill its queueing
                    // delay to the server.
                    write_request(&mut writer, mode, request, &mut scratch)?;
                    let _ = sent_tx.send(Instant::now());
                }
                Ok(())
            });
            let mut responses = Vec::with_capacity(requests.len());
            let mut latencies_ns = Vec::with_capacity(requests.len());
            for _ in 0..requests.len() {
                let response = read_response(&mut reader, mode)?;
                let sent = sent_rx
                    .recv()
                    .map_err(|_| std::io::Error::other("pipeline sender thread died"))?;
                latencies_ns.push(u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX));
                responses.push(response);
            }
            let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            // A structured error, not a panic: the sender thread dying
            // (e.g. the server vanished mid-write) is an exchange failure
            // the caller reports like any other I/O error.
            match sender.join() {
                Ok(result) => result?,
                Err(_) => return Err(std::io::Error::other("pipeline sender thread panicked")),
            }
            Ok(ExchangeStats {
                responses,
                latencies_ns,
                wall_ns,
            })
        })
    }

    /// Connects and, in binary mode, completes the hello before any
    /// request is sent (a rejecting server would misparse frames poured
    /// in early). Returns the write half and the buffered read half.
    fn open(
        &self,
        addr: impl ToSocketAddrs + Copy,
    ) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
        let stream = self.connect(addr)?;
        let reader = match self.frame {
            FrameMode::Json => BufReader::new(stream.try_clone()?),
            FrameMode::Binary => framed_handshake(&stream)?,
        };
        Ok((stream, reader))
    }
}

/// Connect errors worth retrying: the server is down or mid-restart, not
/// misaddressed.
fn is_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::TimedOut
    )
}

/// Writes one request in `mode`'s encoding as a single write: a split
/// payload/newline write would interact with Nagle + delayed ACK into a
/// ~40 ms stall each.
fn write_request(
    writer: &mut TcpStream,
    mode: FrameMode,
    request: &str,
    scratch: &mut Vec<u8>,
) -> std::io::Result<()> {
    match mode {
        FrameMode::Json => {
            scratch.clear();
            scratch.extend_from_slice(request.as_bytes());
            scratch.push(b'\n');
            writer.write_all(scratch)
        }
        FrameMode::Binary => frame::write_frame(writer, request, scratch),
    }
}

/// Reads one response in `mode`'s encoding; a close before it arrives is
/// an [`std::io::ErrorKind::UnexpectedEof`].
fn read_response(reader: &mut BufReader<TcpStream>, mode: FrameMode) -> std::io::Result<String> {
    let response = match mode {
        FrameMode::Json => {
            let mut line = String::new();
            (reader.read_line(&mut line)? > 0).then(|| line.trim_end().to_string())
        }
        FrameMode::Binary => frame::read_frame(reader)?,
    };
    response.ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection mid-exchange",
        )
    })
}

/// Sends the binary hello on a fresh connection and checks the
/// acknowledgement; returns the reader with framing active both ways.
fn framed_handshake(stream: &TcpStream) -> std::io::Result<BufReader<TcpStream>> {
    let mut writer = stream.try_clone()?;
    writer.write_all(format!("{}\n", frame::hello_line(FrameMode::Binary)).as_bytes())?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut ack = String::new();
    if reader.read_line(&mut ack)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection during the hello",
        ));
    }
    // `BufRead::lines` semantics: strip the `\n` and one `\r`.
    let ack = ack.strip_suffix('\n').unwrap_or(&ack);
    match frame::ack_mode(ack.strip_suffix('\r').unwrap_or(ack))? {
        FrameMode::Binary => Ok(reader),
        FrameMode::Json => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "server acknowledged json after a binary hello",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn zero_retries_fails_fast_with_attempt_count() {
        // Bind-then-drop yields a port with (very likely) no listener.
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let e = Client::default().connect(addr).unwrap_err();
        assert!(e.to_string().contains("after 1 attempt(s)"), "{e}");
    }

    #[test]
    fn retries_ride_out_a_late_starting_server() {
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let listener = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(80));
            let listener = TcpListener::bind(addr).expect("rebind test port");
            let _ = listener.accept();
        });
        // First attempt refused, a retry lands after the server is up.
        let client = Client {
            retries: 5,
            ..Client::default()
        };
        let stream = client.connect(addr).expect("retry until listening");
        drop(stream);
        listener.join().unwrap();
    }

    #[test]
    fn misaddressed_connects_are_not_retried() {
        let started = std::time::Instant::now();
        // An invalid address errors in resolution — no backoff sleeps.
        let client = Client {
            retries: 3,
            ..Client::default()
        };
        assert!(client.exchange("definitely-not-a-host:1", &[]).is_err());
        assert!(started.elapsed() < Duration::from_secs(10));
    }
}
