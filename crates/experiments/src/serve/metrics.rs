//! Per-shard observability: one counter set per shard, rendered both as
//! the JSON `metrics` op and as the `--metrics-addr` Prometheus scrape.
//!
//! Each shard owns one [`ShardCounters`], created with its
//! [`ServeState`](super::ServeState) and shared through an `Arc` with
//! every thread that touches the shard's requests:
//!
//! * `protocol::respond` counts each shard-routed request and records
//!   its dispatch latency (the only request counter);
//! * the router adds a request to the queue gauge when it enqueues it,
//!   and the worker takes it off once answered — the instantaneous queue
//!   depth, the backpressure signal;
//! * the shard's reactor (sharded server only) counts its open
//!   connections, `epoll_wait` wakeups and payload bytes.
//!
//! A [`ShardRow`] is one shard's ordered list of named values, built by
//! [`ShardRow::new`] for both outputs. [`metrics_body`] renders every
//! value as a JSON key; [`prometheus_body`] renders the values read from
//! [`ShardCounters`] as per-shard families (one table names each one's
//! key and family), so the two outputs cannot drift apart. Solve-tier
//! counters (memo / incremental / cold), the aggregated
//! [`EvalStats`](coschedule::eval::EvalStats), tuner and WAL counters
//! live on the shard thread: only the `metrics` op reports them, from a
//! snapshot gathered through the shard queue (so the numbers reflect a
//! drained queue on a quiet server) — the scrape must stay responsive
//! while the shards are busy.
//!
//! Unlike every other op, the `metrics` response is **not** required to be
//! payload-identical across worker counts — its `shards` array has one
//! entry per worker by design.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

use coschedule::session::SessionStats;
use minijson::Json;

use super::wal::WalStats;

/// A fixed-size log2-bucket latency histogram: bucket `i` counts
/// requests whose dispatch latency `ns` satisfies `⌊log2 ns⌋ = i`
/// (bucket 0 additionally holds sub-nanosecond readings). 64 buckets
/// cover the whole `u64` nanosecond range, recording is one shift and
/// two increments, and histograms **merge exactly** — so per-shard
/// histograms sum into a cross-shard percentile without resampling.
///
/// Percentiles are nearest-rank over the buckets and report the bucket's
/// upper bound — a ≤ 2× overestimate, never an underestimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; 64],
    count: u64,
    sum_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            counts: [0; 64],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl LatencyHistogram {
    /// The log2 bucket a reading lands in (0 also holds 0 ns readings).
    pub fn bucket_index(nanos: u64) -> usize {
        if nanos == 0 {
            0
        } else {
            63 - nanos.leading_zeros() as usize
        }
    }

    /// Records one latency reading.
    pub fn record(&mut self, nanos: u64) {
        self.counts[Self::bucket_index(nanos)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(nanos);
    }

    /// Adds another histogram's counts (the cross-shard merge).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    /// Readings recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Total nanoseconds across readings (saturating; feeds the
    /// Prometheus `_sum` series).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Per-bucket counts (index = log2 bucket).
    pub fn counts(&self) -> &[u64; 64] {
        &self.counts
    }

    /// Rebuilds a histogram from raw bucket counts — the `--restore`
    /// path seeding a shard's histogram base from its snapshot.
    pub fn from_parts(counts: [u64; 64], sum_ns: u64) -> Self {
        Self {
            counts,
            count: counts.iter().sum(),
            sum_ns,
        }
    }

    /// Prometheus-style cumulative buckets: for each log2 bucket, its
    /// inclusive upper bound in nanoseconds and the count of readings
    /// **at or below** it. The final entry's bound is `u64::MAX` (the
    /// `+Inf` bucket) and its count equals [`Self::count`].
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(64);
        let mut seen = 0u64;
        for (bucket, &c) in self.counts.iter().enumerate() {
            seen += c;
            out.push((Self::upper_bound(bucket), seen));
        }
        out
    }

    /// Nearest-rank percentile in nanoseconds (0 when empty).
    pub fn percentile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (bucket, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::upper_bound(bucket);
            }
        }
        Self::upper_bound(63)
    }

    /// The largest latency bucket `i` can hold.
    fn upper_bound(bucket: usize) -> u64 {
        if bucket >= 63 {
            u64::MAX
        } else {
            (1u64 << (bucket + 1)) - 1
        }
    }
}

/// [`LatencyHistogram`] with atomic buckets: recorded from the request
/// path, readable concurrently by the Prometheus endpoint and the
/// `metrics` op without going through the shard queue. Relaxed ordering
/// throughout — scrapes see a consistent-enough point-in-time view, and
/// recording stays three `fetch_add`s.
#[derive(Debug)]
pub struct AtomicHistogram {
    counts: [AtomicU64; 64],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    /// Records one latency reading.
    pub fn record(&self, nanos: u64) {
        self.counts[LatencyHistogram::bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Adds a restored histogram's counts as this histogram's base (the
    /// `--restore` continuity seeding; called before serving starts).
    pub fn seed(&self, base: &LatencyHistogram) {
        for (cell, &c) in self.counts.iter().zip(base.counts().iter()) {
            cell.fetch_add(c, Ordering::Relaxed);
        }
        self.count.fetch_add(base.count(), Ordering::Relaxed);
        self.sum_ns.fetch_add(base.sum_ns(), Ordering::Relaxed);
    }

    /// A point-in-time plain-value copy.
    pub fn snapshot(&self) -> LatencyHistogram {
        let mut counts = [0u64; 64];
        for (out, cell) in counts.iter_mut().zip(self.counts.iter()) {
            *out = cell.load(Ordering::Relaxed);
        }
        LatencyHistogram::from_parts(counts, self.sum_ns.load(Ordering::Relaxed))
    }
}

/// One shard's lock-free counters (see the module docs for who bumps
/// what). Relaxed ordering throughout: readers want a
/// consistent-enough point-in-time view, not a synchronisation point.
#[derive(Debug, Default)]
pub struct ShardCounters {
    requests: AtomicU64,
    queued: AtomicU64,
    latency: AtomicHistogram,
    open: AtomicU64,
    wakeups: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

impl ShardCounters {
    /// Counters resuming from a restored snapshot: `requests` at the
    /// crashed server's count and the histogram seeded with its persisted
    /// bucket counts, so the totals continue seamlessly across a
    /// `--restore` (queue depth and the network counters start at 0).
    pub fn with_base(requests: u64, latency: &LatencyHistogram) -> Self {
        let counters = ShardCounters::default();
        counters.requests.store(requests, Ordering::Relaxed);
        counters.latency.seed(latency);
        counters
    }

    /// Counts one handled request and its dispatch latency.
    pub fn record_request(&self, latency_ns: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.latency.record(latency_ns);
    }

    /// The router queued one request for this shard.
    pub fn record_enqueued(&self) {
        self.queued.fetch_add(1, Ordering::Relaxed);
    }

    /// The worker finished (answered) one queued request.
    pub fn record_completed(&self) {
        self.queued.fetch_sub(1, Ordering::Relaxed);
    }

    /// The reactor adopted one accepted connection.
    pub fn record_open(&self) {
        self.open.fetch_add(1, Ordering::Relaxed);
    }

    /// The reactor closed one of its connections.
    pub fn record_close(&self) {
        self.open.fetch_sub(1, Ordering::Relaxed);
    }

    /// One `epoll_wait` return (the loop's duty-cycle signal: wakeups
    /// per request ≈ how well readiness batching amortizes).
    pub fn record_wakeup(&self) {
        self.wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Payload bytes read off sockets.
    pub fn add_bytes_in(&self, n: u64) {
        self.bytes_in.fetch_add(n, Ordering::Relaxed);
    }

    /// Payload bytes written to sockets.
    pub fn add_bytes_out(&self, n: u64) {
        self.bytes_out.fetch_add(n, Ordering::Relaxed);
    }

    /// Requests handled (mutations + solves + shard-routed reads).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the dispatch-latency histogram.
    pub fn latency(&self) -> LatencyHistogram {
        self.latency.snapshot()
    }

    /// Point-in-time values, in [`SERIES`] order.
    fn values(&self) -> [u64; 6] {
        [
            &self.requests,
            &self.queued,
            &self.open,
            &self.wakeups,
            &self.bytes_in,
            &self.bytes_out,
        ]
        .map(|c| c.load(Ordering::Relaxed))
    }
}

/// One [`ShardCounters`] value's `metrics` row key, Prometheus family,
/// family type and help text.
type Series = (&'static str, &'static str, &'static str, &'static str);

/// Every [`ShardCounters`] value a row reports, in row order and in the
/// order of [`ShardCounters::values`]. The first two lead every row; the
/// other four are the reactor's (sharded server only) and follow the
/// shard-thread values.
#[rustfmt::skip]
static SERIES: [Series; 6] = [
    ("requests", "cosched_requests_total", "counter", "Requests handled, per shard."),
    ("queue_depth", "cosched_queue_depth", "gauge", "Requests queued, not yet answered."),
    ("open_connections", "cosched_open_connections", "gauge", "Open reactor connections."),
    ("reactor_wakeups", "cosched_reactor_wakeups_total", "counter", "Reactor epoll_wait returns."),
    ("bytes_in", "cosched_bytes_in_total", "counter", "Payload bytes read off sockets."),
    ("bytes_out", "cosched_bytes_out_total", "counter", "Payload bytes written to sockets."),
];

/// The values only the shard's own thread can read, carried into the
/// `metrics` op's rows by the shard-queue snapshot.
#[derive(Debug)]
pub struct ShardLocal {
    /// Live instances owned by the shard.
    pub instances: usize,
    /// The shard session's lifetime counters.
    pub stats: SessionStats,
    /// Durability counters — `None` when the server runs `--durability
    /// none`, in which case no `wal_*` keys appear (the pre-durability
    /// payload stays byte-identical).
    pub wal: Option<WalStats>,
}

/// One named value of a [`ShardRow`]; `series` is set for the values
/// read from [`ShardCounters`].
#[derive(Debug)]
struct Field {
    key: &'static str,
    value: u64,
    series: Option<&'static Series>,
}

/// One shard's row: its ordered named values plus its latency histogram.
#[derive(Debug)]
pub struct ShardRow {
    shard: usize,
    fields: Vec<Field>,
    latency: LatencyHistogram,
}

impl ShardRow {
    /// The one row constructor behind both outputs. `reactor` adds the
    /// network values (sharded server only); `local` adds the shard
    /// thread's values (the `metrics` op only — the scrape passes
    /// `None`).
    pub fn new(
        shard: usize,
        counters: &ShardCounters,
        reactor: bool,
        local: Option<&ShardLocal>,
    ) -> ShardRow {
        let mut counted = SERIES
            .iter()
            .zip(counters.values())
            .map(|(s, value)| Field {
                key: s.0,
                value,
                series: Some(s),
            });
        let plain = |(key, value): (&'static str, u64)| Field {
            key,
            value,
            series: None,
        };
        let mut fields: Vec<Field> = counted.by_ref().take(2).collect();
        if let Some(local) = local {
            let s = &local.stats;
            fields.extend(
                [
                    ("instances", local.instances as u64),
                    ("mutations", s.mutations),
                    ("solves", s.solves),
                    ("memo_hits", s.memo_hits),
                    ("incremental_solves", s.incremental_solves),
                    ("cold_solves", s.cold_solves),
                    ("kernel_calls", s.eval.kernel_calls),
                    ("apps_evaluated", s.eval.apps_evaluated),
                    // The shard's autotuner ("auto" solves only; see
                    // coschedule::tune — each shard session learns its
                    // own table, so these do not merge across shards).
                    ("tuner_explored", s.tuner.explored),
                    ("tuner_committed", s.tuner.committed),
                    ("tuner_challenger_wins", s.tuner.challenger_wins),
                    ("tuner_member_solves", s.tuner.member_solves),
                ]
                .map(plain),
            );
            if let Some(wal) = local.wal {
                fields.extend(
                    [
                        ("wal_records", wal.records),
                        ("wal_bytes", wal.bytes),
                        ("wal_fsyncs", wal.fsyncs),
                        ("wal_snapshot_generation", wal.snapshot_generation),
                        ("wal_replayed", wal.replayed),
                    ]
                    .map(plain),
                );
            }
        }
        if reactor {
            fields.extend(counted);
        }
        ShardRow {
            shard,
            fields,
            latency: counters.latency(),
        }
    }

    /// The value reported under `key`, if the row carries it.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.fields.iter().find(|f| f.key == key).map(|f| f.value)
    }
}

fn push_seconds(ns: u64, out: &mut String) {
    // Render an integer nanosecond quantity as decimal seconds without
    // float rounding: 1023 ns → "0.000001023".
    out.push_str(&format!("{}.{:09}", ns / 1_000_000_000, ns % 1_000_000_000));
}

/// Renders the Prometheus text exposition (version 0.0.4) served by
/// `serve --metrics-addr`: uptime and worker gauges, the trace drop
/// counter, one per-shard family for every counter-backed row value (in
/// row order), and each shard's log2-ns histogram converted to
/// cumulative `le`-labelled buckets in seconds.
pub fn prometheus_body(
    uptime_s: f64,
    workers: usize,
    rows: &[ShardRow],
    trace_dropped: u64,
) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("# HELP cosched_uptime_seconds Seconds since the server started.\n");
    out.push_str("# TYPE cosched_uptime_seconds gauge\n");
    out.push_str(&format!("cosched_uptime_seconds {uptime_s:.3}\n"));
    out.push_str("# HELP cosched_workers Worker shards serving requests.\n");
    out.push_str("# TYPE cosched_workers gauge\n");
    out.push_str(&format!("cosched_workers {workers}\n"));
    out.push_str("# HELP cosched_trace_dropped_total Trace events lost to ring overwrite.\n");
    out.push_str("# TYPE cosched_trace_dropped_total counter\n");
    out.push_str(&format!("cosched_trace_dropped_total {trace_dropped}\n"));
    // Every row of one server has the same layout; the first names the
    // families (a family's samples must be contiguous).
    let families = rows.first().map_or(&[][..], |row| &row.fields[..]);
    for &(key, name, kind, help) in families.iter().filter_map(|f| f.series) {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        for row in rows {
            if let Some(value) = row.get(key) {
                out.push_str(&format!("{name}{{shard=\"{}\"}} {value}\n", row.shard));
            }
        }
    }
    out.push_str("# HELP cosched_request_latency_seconds Request dispatch latency, per shard.\n");
    out.push_str("# TYPE cosched_request_latency_seconds histogram\n");
    for row in rows {
        for (upper_ns, cum) in row.latency.cumulative() {
            out.push_str(&format!(
                "cosched_request_latency_seconds_bucket{{shard=\"{}\",le=\"",
                row.shard
            ));
            if upper_ns == u64::MAX {
                out.push_str("+Inf");
            } else {
                push_seconds(upper_ns, &mut out);
            }
            out.push_str(&format!("\"}} {cum}\n"));
        }
        out.push_str(&format!(
            "cosched_request_latency_seconds_sum{{shard=\"{}\"}} ",
            row.shard
        ));
        push_seconds(row.latency.sum_ns(), &mut out);
        out.push('\n');
        out.push_str(&format!(
            "cosched_request_latency_seconds_count{{shard=\"{}\"}} {}\n",
            row.shard,
            row.latency.count()
        ));
    }
    out
}

/// Appends the headline latency keys of `hist`: its count and its p50,
/// p95 and p99 (bucket upper bounds, ns).
fn push_latency(pairs: &mut Vec<(String, Json)>, hist: &LatencyHistogram) {
    pairs.push(("latency_count".to_string(), Json::from(hist.count())));
    for (key, q) in [
        ("latency_p50_ns", 0.50),
        ("latency_p95_ns", 0.95),
        ("latency_p99_ns", 0.99),
    ] {
        pairs.push((key.to_string(), Json::from(hist.percentile_ns(q))));
    }
}

/// Serializes the `metrics` op response: per-shard rows plus the request
/// total. The single-session server reports itself as one shard of one.
/// A shard's `latency_*` keys appear once it has answered a request
/// (a restored shard resumes from its snapshot's histogram).
pub(super) fn metrics_body(workers: usize, rows: &[ShardRow]) -> Json {
    let total: u64 = rows.iter().filter_map(|r| r.get("requests")).sum();
    // Per-shard histograms merge exactly, so the top-level percentiles
    // are computed over every recorded request, not averaged estimates.
    let mut merged = LatencyHistogram::default();
    for row in rows {
        merged.merge(&row.latency);
    }
    let shards = rows.iter().map(|r| {
        let mut pairs = vec![("shard".to_string(), Json::from(r.shard))];
        pairs.extend(
            r.fields
                .iter()
                .map(|f| (f.key.to_string(), Json::from(f.value))),
        );
        if r.latency.count() > 0 {
            push_latency(&mut pairs, &r.latency);
        }
        Json::Obj(pairs)
    });
    let mut pairs = vec![
        ("ok".to_string(), Json::from(true)),
        ("workers".to_string(), Json::from(workers)),
        ("requests".to_string(), Json::from(total)),
        ("shards".to_string(), Json::arr(shards)),
    ];
    if merged.count() > 0 {
        push_latency(&mut pairs, &merged);
    }
    Json::Obj(pairs)
}

/// One `GET /metrics` over a throwaway HTTP/1.0 connection; returns the
/// response body (everything after the blank line).
pub fn http_get(addr: std::net::SocketAddr) -> std::io::Result<String> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\nHost: cosched\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((head, body)) if head.starts_with("HTTP/1.0 200") => Ok(body.to_string()),
        Some((head, _)) => Err(std::io::Error::other(format!(
            "unexpected status line: {:?}",
            head.lines().next().unwrap_or("")
        ))),
        None => Err(std::io::Error::other("no header/body separator")),
    }
}

/// Line-lints a Prometheus text exposition: every line is a comment
/// (`# HELP` / `# TYPE`) or a `name{labels} value` sample whose name is
/// a valid metric identifier and whose value parses as a float. Returns
/// the number of sample lines, and requires the families the serve
/// exposition promises — the network families too when `cosched_workers`
/// reports a sharded server (whose shards each run a reactor).
pub fn lint_prometheus(body: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    let mut names = BTreeSet::new();
    let mut workers = None;
    for (n, line) in body.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if !comment.starts_with("HELP ") && !comment.starts_with("TYPE ") {
                return Err(format!("line {}: unknown comment form: {line:?}", n + 1));
            }
            continue;
        }
        let (metric, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value separator: {line:?}", n + 1))?;
        let name = metric.split('{').next().unwrap_or("");
        let valid_name = !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            && !name.starts_with(|c: char| c.is_ascii_digit());
        if !valid_name {
            return Err(format!("line {}: invalid metric name {name:?}", n + 1));
        }
        if metric.contains('{') && !metric.ends_with('}') {
            return Err(format!("line {}: unterminated label set: {line:?}", n + 1));
        }
        let value = value
            .parse::<f64>()
            .map_err(|_| format!("line {}: unparseable value {value:?}", n + 1))?;
        if name == "cosched_workers" {
            workers = Some(value);
        }
        names.insert(name);
        samples += 1;
    }
    let workers = workers.ok_or("missing metric family cosched_workers")?;
    let mut required = vec![
        "cosched_uptime_seconds",
        "cosched_trace_dropped_total",
        "cosched_requests_total",
        "cosched_queue_depth",
        "cosched_request_latency_seconds_bucket",
        "cosched_request_latency_seconds_sum",
        "cosched_request_latency_seconds_count",
    ];
    if workers >= 2.0 {
        required.extend([
            "cosched_open_connections",
            "cosched_reactor_wakeups_total",
            "cosched_bytes_in_total",
            "cosched_bytes_out_total",
        ]);
    }
    for family in required {
        if !names.contains(family) {
            return Err(format!("missing metric family {family}"));
        }
    }
    Ok(samples)
}

/// Parses a `--trace-out` file and checks it is a loadable Chrome trace:
/// a `traceEvents` array of well-formed events — every complete (`"X"`)
/// event carrying `ts` and `dur` (begin/end matched by construction) —
/// with the serve request spans present. Returns the event count.
pub fn validate_chrome_trace(path: &std::path::Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = Json::parse(&text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = v
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("no traceEvents array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".to_string());
    }
    let mut complete = 0usize;
    let mut names = BTreeSet::new();
    for (k, event) in events.iter().enumerate() {
        let name = event
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {k} has no name"))?;
        let ph = event
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {k} ({name}) has no ph"))?;
        if event.get("ts").is_none() {
            return Err(format!("event {k} ({name}) has no ts"));
        }
        match ph {
            "X" => {
                if event.get("dur").is_none() {
                    return Err(format!("complete event {k} ({name}) has no dur"));
                }
                complete += 1;
            }
            "i" => {}
            other => return Err(format!("event {k} ({name}) has unexpected ph {other:?}")),
        }
        names.insert(name.to_string());
    }
    if complete == 0 {
        return Err("no complete (ph=X) events".to_string());
    }
    for expected in ["op_create", "op_solve", "op_mutate"] {
        if !names.contains(expected) {
            return Err(format!(
                "expected span {expected:?} missing (saw {names:?})"
            ));
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn local(instances: usize, wal: Option<WalStats>) -> ShardLocal {
        ShardLocal {
            instances,
            stats: SessionStats::default(),
            wal,
        }
    }

    fn counters_with(requests: u64, latency: &[u64]) -> ShardCounters {
        let counters = ShardCounters::with_base(requests, &LatencyHistogram::default());
        for &ns in latency {
            counters.latency.record(ns);
        }
        counters
    }

    #[test]
    fn queue_depth_is_enqueued_minus_completed() {
        let c = ShardCounters::default();
        let depth = |c: &ShardCounters| ShardRow::new(0, c, false, None).get("queue_depth");
        assert_eq!(depth(&c), Some(0));
        c.record_enqueued();
        c.record_enqueued();
        assert_eq!(depth(&c), Some(2));
        c.record_completed();
        assert_eq!(depth(&c), Some(1));
        c.record_completed();
        assert_eq!(depth(&c), Some(0));
    }

    #[test]
    fn body_sums_requests_across_shards() {
        let (a, b) = (counters_with(3, &[]), counters_with(4, &[]));
        a.record_enqueued();
        let rows = [
            ShardRow::new(0, &a, false, Some(&local(2, None))),
            ShardRow::new(1, &b, false, Some(&local(1, None))),
        ];
        let v = metrics_body(2, &rows);
        assert_eq!(v.get("workers").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("requests").and_then(Json::as_u64), Some(7));
        let shards = v.get("shards").and_then(Json::as_array).unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[1].get("shard").and_then(Json::as_u64), Some(1));
        assert_eq!(shards[0].get("queue_depth").and_then(Json::as_u64), Some(1));
        // No durability → no wal_* columns (payload unchanged from the
        // pre-durability protocol); no reactor → no net columns.
        assert!(shards[0].get("wal_records").is_none());
        assert!(shards[0].get("open_connections").is_none());
    }

    #[test]
    fn wal_columns_appear_when_durability_is_on() {
        let wal = WalStats {
            records: 5,
            bytes: 99,
            fsyncs: 2,
            snapshot_generation: 3,
            replayed: 4,
        };
        let row = ShardRow::new(0, &counters_with(9, &[]), false, Some(&local(1, Some(wal))));
        let v = metrics_body(1, &[row]);
        let shards = v.get("shards").and_then(Json::as_array).unwrap();
        assert_eq!(shards[0].get("wal_records").and_then(Json::as_u64), Some(5));
        assert_eq!(shards[0].get("wal_bytes").and_then(Json::as_u64), Some(99));
        assert_eq!(shards[0].get("wal_fsyncs").and_then(Json::as_u64), Some(2));
        assert_eq!(
            shards[0]
                .get("wal_snapshot_generation")
                .and_then(Json::as_u64),
            Some(3)
        );
        assert_eq!(
            shards[0].get("wal_replayed").and_then(Json::as_u64),
            Some(4)
        );
    }

    #[test]
    fn net_columns_appear_when_a_reactor_reports() {
        let c = counters_with(1, &[]);
        c.record_open();
        c.record_open();
        c.record_close();
        c.record_wakeup();
        c.add_bytes_in(10);
        c.add_bytes_out(25);
        let v = metrics_body(1, &[ShardRow::new(0, &c, true, Some(&local(0, None)))]);
        let shards = v.get("shards").and_then(Json::as_array).unwrap();
        assert_eq!(
            shards[0].get("open_connections").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            shards[0].get("reactor_wakeups").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(shards[0].get("bytes_in").and_then(Json::as_u64), Some(10));
        assert_eq!(shards[0].get("bytes_out").and_then(Json::as_u64), Some(25));
    }

    /// The full key order of a durable reactor row: counters, session,
    /// tuner, WAL, network, latency — the wire layout clients parse.
    #[test]
    fn row_keys_keep_their_wire_order() {
        let wal = WalStats {
            records: 0,
            bytes: 0,
            fsyncs: 0,
            snapshot_generation: 0,
            replayed: 0,
        };
        let c = counters_with(1, &[100]);
        let v = metrics_body(2, &[ShardRow::new(0, &c, true, Some(&local(0, Some(wal))))]);
        let Some(Json::Arr(shards)) = v.get("shards") else {
            panic!("no shards array")
        };
        let Json::Obj(pairs) = &shards[0] else {
            panic!("row is not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "shard",
                "requests",
                "queue_depth",
                "instances",
                "mutations",
                "solves",
                "memo_hits",
                "incremental_solves",
                "cold_solves",
                "kernel_calls",
                "apps_evaluated",
                "tuner_explored",
                "tuner_committed",
                "tuner_challenger_wins",
                "tuner_member_solves",
                "wal_records",
                "wal_bytes",
                "wal_fsyncs",
                "wal_snapshot_generation",
                "wal_replayed",
                "open_connections",
                "reactor_wakeups",
                "bytes_in",
                "bytes_out",
                "latency_count",
                "latency_p50_ns",
                "latency_p95_ns",
                "latency_p99_ns",
            ]
        );
    }

    /// Every counter-backed value a scrape row carries is exported as a
    /// per-shard family with the same value.
    #[test]
    fn scrape_exports_every_counter_value() {
        let c = counters_with(5, &[1_000]);
        c.record_enqueued();
        c.record_open();
        c.add_bytes_out(7);
        let row = ShardRow::new(3, &c, true, None);
        let body = prometheus_body(1.0, 4, std::slice::from_ref(&row), 0);
        for &(key, name, ..) in &SERIES {
            let sample = format!("{name}{{shard=\"3\"}} {}\n", row.get(key).unwrap());
            assert!(body.contains(&sample), "missing {sample:?} in\n{body}");
        }
        lint_prometheus(&body).expect("lint");
    }

    #[test]
    fn lint_requires_the_network_families_on_a_sharded_server() {
        let c = ShardCounters::default();
        let sequential = prometheus_body(1.0, 1, &[ShardRow::new(0, &c, false, None)], 0);
        lint_prometheus(&sequential).expect("a sequential scrape has no reactor families");
        let sharded = prometheus_body(1.0, 2, &[ShardRow::new(0, &c, false, None)], 0);
        let err = lint_prometheus(&sharded).expect_err("reactor families missing");
        assert!(err.contains("cosched_open_connections"), "{err}");
    }

    #[test]
    fn histogram_buckets_by_log2_and_reports_upper_bounds() {
        let mut h = LatencyHistogram::default();
        // 0 and 1 land in bucket 0 (upper bound 1 ns).
        h.record(0);
        h.record(1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile_ns(0.50), 1);
        // 1000 ns lands in bucket 9 = [512, 1023]; as the top reading it
        // becomes every high percentile's (upper-bound) answer.
        h.record(1000);
        assert_eq!(h.percentile_ns(0.99), 1023);
        assert_eq!(h.percentile_ns(0.50), 1);
        assert_eq!(h.count(), 3);
        assert!(h.percentile_ns(0.50) <= h.percentile_ns(0.95));
        assert!(h.percentile_ns(0.95) <= h.percentile_ns(0.99));
        // u64::MAX saturates into the top bucket without panicking.
        h.record(u64::MAX);
        assert_eq!(h.percentile_ns(1.0), u64::MAX);
    }

    #[test]
    fn histograms_merge_exactly() {
        let readings = [3u64, 40, 40, 900, 7_000, 250_000, 8_000_000];
        let mut whole = LatencyHistogram::default();
        let mut left = LatencyHistogram::default();
        let mut right = LatencyHistogram::default();
        for (i, &ns) in readings.iter().enumerate() {
            whole.record(ns);
            if i % 2 == 0 {
                left.record(ns)
            } else {
                right.record(ns)
            }
        }
        let mut merged = LatencyHistogram::default();
        merged.merge(&left);
        merged.merge(&right);
        assert_eq!(merged, whole);
    }

    #[test]
    fn latency_columns_appear_per_shard_and_merged() {
        let slow = counters_with(1, &[1 << 20]);
        let fast = counters_with(1, &[100]);
        let rows = [
            ShardRow::new(0, &slow, false, Some(&local(0, None))),
            ShardRow::new(1, &fast, false, Some(&local(0, None))),
        ];
        let v = metrics_body(2, &rows);
        let shards = v.get("shards").and_then(Json::as_array).unwrap();
        assert_eq!(
            shards[0].get("latency_count").and_then(Json::as_u64),
            Some(1)
        );
        // The top-level percentiles come from the merged histogram: its
        // p99 is the slow shard's reading, its p50 the fast shard's.
        assert_eq!(v.get("latency_count").and_then(Json::as_u64), Some(2));
        assert_eq!(
            v.get("latency_p99_ns").and_then(Json::as_u64),
            Some((1u64 << 21) - 1)
        );
        assert_eq!(v.get("latency_p50_ns").and_then(Json::as_u64), Some(127));
        // Idle shards opt out: no latency columns anywhere.
        let idle_counters = counters_with(1, &[]);
        let idle = metrics_body(
            1,
            &[ShardRow::new(
                0,
                &idle_counters,
                false,
                Some(&local(0, None)),
            )],
        );
        assert!(idle.get("latency_count").is_none());
        let shards = idle.get("shards").and_then(Json::as_array).unwrap();
        assert!(shards[0].get("latency_count").is_none());
    }
}
