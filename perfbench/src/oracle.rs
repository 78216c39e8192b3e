//! The correctness oracle and the in-process layer timers.
//!
//! Each connection's stream is replayed through the protocol on a
//! single-worker `ServeState` that first replays the whole setup, so
//! instance ids and revisions match the sharded server's. The WAL is
//! attached where the server ran with one. Every server reply must equal
//! its reference byte for byte (compared by length and 64-bit hash).

use std::path::Path;
use std::time::Instant;

use experiments::serve::metrics::LatencyHistogram;
use experiments::serve::protocol::{handle_line, respond};
use experiments::serve::wal::{WalWriter, DEFAULT_SNAPSHOT_EVERY};
use experiments::serve::{Durability, ServeState};
use minijson::Json;

use crate::client::Digest;
use crate::workload::{Class, Workload};

/// Per-request times (ns) of the calls the server makes for each line,
/// timed one call at a time: the benchmark's own spans.
#[derive(Default)]
pub struct LayerTimes {
    pub parse: [Vec<u64>; 2],
    pub respond: [Vec<u64>; 2],
    pub serialise: [Vec<u64>; 2],
    pub response_bytes: Vec<u64>,
    pub wal_append: Vec<u64>,
    pub wal_commit: Vec<u64>,
    pub wal_records: u64,
    pub wal_bytes: u64,
}

impl LayerTimes {
    pub fn merge(&mut self, other: LayerTimes) {
        for k in 0..2 {
            self.parse[k].extend(&other.parse[k]);
            self.respond[k].extend(&other.respond[k]);
            self.serialise[k].extend(&other.serialise[k]);
        }
        self.response_bytes.extend(other.response_bytes);
        self.wal_append.extend(other.wal_append);
        self.wal_commit.extend(other.wal_commit);
        self.wal_records += other.wal_records;
        self.wal_bytes += other.wal_bytes;
    }
}

pub fn class_index(class: Class) -> usize {
    match class {
        Class::Mutate => 0,
        Class::Solve => 1,
    }
}

fn wal_writer(dir: &Path, state: &ServeState) -> Result<WalWriter, String> {
    WalWriter::create(
        dir,
        0,
        1,
        Durability::Log,
        DEFAULT_SNAPSHOT_EVERY,
        0,
        state.session(),
        0,
        &LatencyHistogram::default(),
        0,
    )
    .map_err(|e| format!("cannot create a WAL in {}: {e}", dir.display()))
}

/// Reference replies for the setup and for the first `count` requests of
/// connection `conn`'s stream. For a durable workload the replaying
/// state logs into `work_dir` like a `--durability log` shard. With `timed`, each line goes through
/// the server's calls one at a time — `Json::parse`, `protocol::respond`,
/// `Json::to_string` — and each call is timed; a separate `WalWriter`
/// times appending and committing each request.
pub fn replay(
    workload: &Workload,
    conn: usize,
    count: usize,
    work_dir: &Path,
    timed: bool,
) -> Result<(Vec<Digest>, Vec<Digest>, LayerTimes), String> {
    let mut state = ServeState::new();
    if workload.kind.durable() {
        let writer = wal_writer(&work_dir.join(format!("oracle-wal-{conn}")), &state)?;
        state.attach_wal(writer);
    }
    let handle = |state: &mut ServeState, line: &str| {
        let reply = handle_line(state, line);
        state.wal_commit();
        state.wal_maybe_snapshot();
        reply
    };
    let setup: Vec<Digest> = workload
        .creates
        .iter()
        .map(|line| Digest::of(&handle(&mut state, line)))
        .collect();
    let mut times = LayerTimes::default();
    let mut timing_wal = if timed {
        Some(wal_writer(
            &work_dir.join(format!("timing-wal-{conn}")),
            &state,
        )?)
    } else {
        None
    };
    let mut replies = Vec::with_capacity(count);
    for (class, line) in workload.stream(conn).take(count) {
        let Some(wal) = timing_wal.as_mut() else {
            replies.push(Digest::of(&handle(&mut state, &line)));
            continue;
        };
        let k = class_index(class);
        let t0 = Instant::now();
        let request = Json::parse(&line).map_err(|e| format!("generated bad JSON: {e}"))?;
        let t1 = Instant::now();
        let response = respond(&mut state, &request);
        let t2 = Instant::now();
        let reply = response.to_string();
        let t3 = Instant::now();
        state.wal_commit();
        state.wal_maybe_snapshot();
        // What a logging shard adds per request: the re-serialisation of
        // the parsed request, the framed append, and the group commit.
        let t4 = Instant::now();
        wal.append(&request.to_string())
            .map_err(|e| format!("WAL append: {e}"))?;
        let t5 = Instant::now();
        wal.commit().map_err(|e| format!("WAL commit: {e}"))?;
        let t6 = Instant::now();
        if wal.should_rotate() {
            wal.rotate(state.session(), 0, &LatencyHistogram::default())
                .map_err(|e| format!("WAL rotate: {e}"))?;
        }
        let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
        times.parse[k].push(ns(t0, t1));
        times.respond[k].push(ns(t1, t2));
        times.serialise[k].push(ns(t2, t3));
        times.response_bytes.push(reply.len() as u64);
        times.wal_append.push(ns(t4, t5));
        times.wal_commit.push(ns(t5, t6));
        replies.push(Digest::of(&reply));
    }
    if let Some(wal) = timing_wal {
        times.wal_records = wal.stats().records;
        times.wal_bytes = wal.stats().bytes;
    }
    Ok((setup, replies, times))
}
