//! The load generator: closed-loop connections that time every request
//! and keep a digest of every reply for the correctness oracle.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::workload::{Class, Stream};

/// A reply reduced to what the oracle compares: its length and 64-bit
/// FNV-1a hash, plus whether it reported `"ok":true`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub len: usize,
    pub hash: u64,
    pub ok: bool,
}

impl Digest {
    pub fn of(reply: &str) -> Digest {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in reply.as_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Digest {
            len: reply.len(),
            hash,
            ok: reply.starts_with(r#"{"ok":true"#),
        }
    }
}

/// A `--trace` server appends `,"trace_id":N` to routed replies; the
/// oracle compares what is left.
fn strip_trace_id(reply: &str) -> Option<String> {
    let at = reply.rfind(r#","trace_id":"#)?;
    let digits = reply[at + 12..].strip_suffix('}')?;
    (!digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()))
        .then(|| format!("{}}}", &reply[..at]))
}

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set TCP_NODELAY: {e}"))?;
        // A stalled server must fail the run, not hang it.
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("set read timeout: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    fn send(&mut self, request: &str) -> std::io::Result<()> {
        let mut bytes = Vec::with_capacity(request.len() + 1);
        bytes.extend_from_slice(request.as_bytes());
        bytes.push(b'\n');
        self.writer.write_all(&bytes)
    }

    /// Reads one reply; `None` on EOF or error.
    fn recv(&mut self, traced: bool) -> Option<Digest> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(n) if n > 0 && self.line.ends_with('\n') => {
                let reply = self.line.trim_end_matches('\n');
                Some(match traced.then(|| strip_trace_id(reply)).flatten() {
                    Some(stripped) => Digest::of(&stripped),
                    None => Digest::of(reply),
                })
            }
            _ => None,
        }
    }

    /// One lock-step exchange returning the reply itself.
    pub fn exchange_text(&mut self, request: &str) -> Result<String, String> {
        self.send(request)
            .map_err(|e| format!("send failed: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(n) if n > 0 => Ok(self.line.trim_end().to_string()),
            _ => Err("connection closed before the reply".to_string()),
        }
    }

    /// One lock-step exchange.
    pub fn exchange(&mut self, request: &str, traced: bool) -> Result<Digest, String> {
        self.send(request)
            .map_err(|e| format!("send failed: {e}"))?;
        self.recv(traced)
            .ok_or_else(|| "connection closed before the reply".to_string())
    }
}

/// What one connection saw during the measured window.
#[derive(Default)]
pub struct Record {
    /// Requests sent.
    pub sent: usize,
    /// Reply digests, by stream position within the window.
    pub replies: Vec<Digest>,
    /// Round-trip times in nanoseconds, per class.
    pub mutate_ns: Vec<u64>,
    pub solve_ns: Vec<u64>,
    /// From the common start to this connection's last reply.
    pub elapsed: Duration,
}

/// Drives `stream` over `conn` until `deadline` with `window` requests in
/// flight (1 = lock-step), then drains what is in flight. A connection
/// failure ends the window; requests without a reply count as failed.
pub fn drive(
    conn: &mut Conn,
    stream: &mut Stream,
    start: Instant,
    deadline: Instant,
    window: usize,
    traced: bool,
) -> Record {
    let mut rec = Record::default();
    let mut in_flight: VecDeque<(Instant, Class)> = VecDeque::with_capacity(window);
    loop {
        while in_flight.len() < window && Instant::now() < deadline {
            let (class, line) = stream.next().expect("streams are endless");
            let sent_at = Instant::now();
            if conn.send(&line).is_err() {
                rec.elapsed = start.elapsed();
                return rec;
            }
            rec.sent += 1;
            in_flight.push_back((sent_at, class));
        }
        let Some((sent_at, class)) = in_flight.pop_front() else {
            break;
        };
        let Some(digest) = conn.recv(traced) else {
            break;
        };
        let rtt = sent_at.elapsed().as_nanos() as u64;
        match class {
            Class::Mutate => rec.mutate_ns.push(rtt),
            Class::Solve => rec.solve_ns.push(rtt),
        }
        rec.replies.push(digest);
    }
    rec.elapsed = start.elapsed();
    rec
}
