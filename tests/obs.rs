//! Observability integration tests: the log2-ns latency-histogram math
//! (bucket boundaries, exact cross-shard merge, cumulative conversion)
//! checked property-style against naive references, the Prometheus text
//! exposition's shape, the `trace` protocol op, the `trace_id` echo, the
//! histogram's continuity across a WAL restore, and — the golden
//! guarantee — that **enabling tracing does not perturb results**: with
//! span recording on, the smoke script still answers byte-identically
//! across worker counts.

mod common;

use common::{mask_reactor_wakeups, spawn_server_with};
use coschedule::obs;
use coschedule::session::Session;
use experiments::serve::metrics::{
    http_get, lint_prometheus, prometheus_body, LatencyHistogram, ShardCounters, ShardRow,
};
use experiments::serve::wal::{recover_shard, WalWriter};
use experiments::serve::{handle_line, smoke_script, Client, Durability, ServeState, Server};
use minijson::Json;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serializes the tests that flip the process-global tracing flag (and
/// drain the process-global ring registry).
static OBS_GATE: Mutex<()> = Mutex::new(());

/// `upper_bound` re-derived: the largest nanosecond reading bucket `b`
/// can hold.
fn naive_upper_bound(bucket: usize) -> u64 {
    if bucket >= 63 {
        u64::MAX
    } else {
        (1u64 << (bucket + 1)) - 1
    }
}

#[test]
fn bucket_boundaries_are_exact() {
    assert_eq!(
        LatencyHistogram::bucket_index(0),
        0,
        "zero lands in bucket 0"
    );
    assert_eq!(LatencyHistogram::bucket_index(1), 0);
    assert_eq!(LatencyHistogram::bucket_index(2), 1);
    assert_eq!(LatencyHistogram::bucket_index(3), 1);
    assert_eq!(LatencyHistogram::bucket_index(4), 2);
    assert_eq!(LatencyHistogram::bucket_index(u64::MAX), 63);
    for exp in 1..64u32 {
        let pow = 1u64 << exp;
        assert_eq!(LatencyHistogram::bucket_index(pow), exp as usize);
        assert_eq!(LatencyHistogram::bucket_index(pow - 1), exp as usize - 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every reading lands in a bucket that actually brackets it.
    #[test]
    fn bucket_index_brackets_every_reading(exp in 0u32..64, offset in 0u64..1024) {
        let n = (1u64 << exp).saturating_add(offset);
        let b = LatencyHistogram::bucket_index(n);
        prop_assert!(n <= naive_upper_bound(b), "{n} above bucket {b}'s bound");
        if b > 0 {
            prop_assert!(n >= 1u64 << b, "{n} below bucket {b}'s floor");
        }
    }

    /// Merging two shards' histograms is exact: identical to having
    /// recorded every reading into one histogram.
    #[test]
    fn merge_is_exact(
        a in prop::collection::vec(0u64..u64::MAX, 0..200),
        b in prop::collection::vec(0u64..u64::MAX, 0..200),
    ) {
        let mut ha = LatencyHistogram::default();
        let mut hb = LatencyHistogram::default();
        let mut reference = LatencyHistogram::default();
        for &x in &a {
            ha.record(x);
            reference.record(x);
        }
        for &x in &b {
            hb.record(x);
            reference.record(x);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.counts(), reference.counts());
        prop_assert_eq!(ha.count(), reference.count());
        prop_assert_eq!(ha.sum_ns(), reference.sum_ns());
    }

    /// The Prometheus cumulative-bucket conversion agrees with counting
    /// the samples directly.
    #[test]
    fn cumulative_matches_naive_reference(
        samples in prop::collection::vec(0u64..u64::MAX, 0..300),
    ) {
        let mut h = LatencyHistogram::default();
        for &s in &samples {
            h.record(s);
        }
        let cumulative = h.cumulative();
        prop_assert_eq!(cumulative.len(), 64);
        for (bucket, &(bound, cum)) in cumulative.iter().enumerate() {
            prop_assert_eq!(bound, naive_upper_bound(bucket));
            let naive = samples
                .iter()
                .filter(|&&s| LatencyHistogram::bucket_index(s) <= bucket)
                .count() as u64;
            prop_assert_eq!(cum, naive, "bucket {}", bucket);
        }
        // The +Inf bucket holds everything.
        prop_assert_eq!(cumulative[63].1, samples.len() as u64);
    }
}

/// Parses one `name{labels} value` exposition sample line.
fn sample_line(line: &str) -> Option<(&str, f64)> {
    let (metric, value) = line.rsplit_once(' ')?;
    Some((metric, value.parse().ok()?))
}

#[test]
fn prometheus_body_is_well_formed() {
    let mut latency = LatencyHistogram::default();
    for ns in [100, 1_000, 1_000, 50_000, 2_000_000, 40_000_000] {
        latency.record(ns);
    }
    let busy = ShardCounters::with_base(6, &latency);
    let idle = ShardCounters::default();
    let shards = [
        ShardRow::new(0, &busy, true, None),
        ShardRow::new(1, &idle, true, None),
    ];
    let body = prometheus_body(12.5, 2, &shards, 3);

    // Every line is a HELP/TYPE comment or a parseable sample, and every
    // promised family (the reactor's too, at 2 workers) is present.
    let samples = lint_prometheus(&body).unwrap_or_else(|e| panic!("{e} in\n{body}"));
    assert!(samples > 0);
    for line in body.lines().filter(|l| !l.starts_with('#')) {
        assert!(line.starts_with("cosched_"), "unprefixed metric: {line}");
    }

    // Shard 0's histogram: 64 nondecreasing `le` buckets ending at +Inf
    // with the total count, and a matching `_count` sample.
    let bucket_values: Vec<f64> = body
        .lines()
        .filter(|l| {
            l.starts_with("cosched_request_latency_seconds_bucket") && l.contains("shard=\"0\"")
        })
        .map(|l| sample_line(l).expect("bucket line").1)
        .collect();
    assert_eq!(bucket_values.len(), 64);
    for pair in bucket_values.windows(2) {
        assert!(pair[0] <= pair[1], "cumulative buckets must not decrease");
    }
    assert_eq!(*bucket_values.last().unwrap(), 6.0);
    let inf_line = body
        .lines()
        .find(|l| l.contains("le=\"+Inf\"") && l.contains("shard=\"0\""))
        .expect("+Inf bucket");
    assert_eq!(sample_line(inf_line).unwrap().1, 6.0);
    let count_line = body
        .lines()
        .find(|l| {
            l.starts_with("cosched_request_latency_seconds_count") && l.contains("shard=\"0\"")
        })
        .expect("_count sample");
    assert_eq!(sample_line(count_line).unwrap().1, 6.0);
    assert!(body.contains("cosched_trace_dropped_total 3"));
    assert!(body.contains("cosched_workers 2"));
}

/// Each counter-backed `metrics` key and the Prometheus family that
/// exports the same per-shard counter.
const SCRAPED_KEYS: [(&str, &str); 6] = [
    ("requests", "cosched_requests_total"),
    ("queue_depth", "cosched_queue_depth"),
    ("open_connections", "cosched_open_connections"),
    ("reactor_wakeups", "cosched_reactor_wakeups_total"),
    ("bytes_in", "cosched_bytes_in_total"),
    ("bytes_out", "cosched_bytes_out_total"),
];

/// The shard-row key sequence of the sequential server's `metrics` op
/// (an answered shard, durability off).
const SEQUENTIAL_ROW_KEYS: [&str; 19] = [
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
    "latency_count",
    "latency_p50_ns",
    "latency_p95_ns",
    "latency_p99_ns",
];

/// Parses an exposition into `name{labels}` → value.
fn scrape_samples(body: &str) -> HashMap<String, f64> {
    body.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| {
            let (metric, value) = sample_line(l).unwrap_or_else(|| panic!("bad sample: {l}"));
            (metric.to_string(), value)
        })
        .collect()
}

/// One registry behind both outputs: after the smoke script (minus
/// `shutdown`), every counter-backed value of each `metrics` shard row
/// equals that shard's Prometheus sample, at 1 and at 4 workers. The
/// connection carrying the `metrics` request moves its own reactor's
/// network counters between the two reads, so only that shard's
/// network values are exempt.
#[test]
fn metrics_op_and_scrape_read_one_registry() {
    let script = smoke_script();
    let body = &script[..script.len() - 1];
    for workers in [1usize, 4] {
        let mut server = Server::bind("127.0.0.1:0").expect("bind");
        server.config_mut().allow_shutdown = true;
        server.config_mut().workers = workers;
        server.config_mut().metrics_addr = Some("127.0.0.1:0".to_string());
        let addr = server.local_addr().expect("bound address");
        let probe = server.metrics_probe();
        let handle = std::thread::spawn(move || server.run());

        let responses = Client::default().exchange(addr, body).expect("smoke");
        assert!(responses.iter().all(|r| r.contains("\"ok\":true")));
        let deadline = Instant::now() + Duration::from_secs(10);
        let metrics_at = loop {
            if let Some(at) = probe.get() {
                break *at;
            }
            assert!(Instant::now() < deadline, "metrics listener never bound");
            std::thread::sleep(Duration::from_millis(10));
        };
        // Wait until the script's connection is closed on the server
        // side, so its reactor's counters are at rest.
        loop {
            let samples = scrape_samples(&http_get(metrics_at).expect("scrape"));
            let open: f64 = samples
                .iter()
                .filter(|(k, _)| k.starts_with("cosched_open_connections{"))
                .map(|(_, v)| v)
                .sum();
            if open == 0.0 {
                break;
            }
            assert!(Instant::now() < deadline, "script connection never closed");
            std::thread::sleep(Duration::from_millis(10));
        }

        let metrics = Client::default()
            .exchange(addr, &[r#"{"op":"metrics"}"#.to_string()])
            .expect("metrics")
            .remove(0);
        let scrape = http_get(metrics_at).expect("scrape");
        lint_prometheus(&scrape).unwrap_or_else(|e| panic!("{e} in\n{scrape}"));
        let samples = scrape_samples(&scrape);
        let v = Json::parse(&metrics).expect("metrics parses");
        let rows = v.get("shards").and_then(Json::as_array).expect("shards");
        assert_eq!(rows.len(), workers);

        let mut scraped_requests = 0.0;
        for (k, row) in rows.iter().enumerate() {
            let value = |key: &str| row.get(key).and_then(Json::as_u64);
            // Only the `metrics` connection is open while the row is
            // built; its reactor's network counters keep moving.
            let carries_metrics = value("open_connections") == Some(1);
            let mut compared = 0;
            for (key, family) in SCRAPED_KEYS {
                let Some(json) = value(key) else { continue };
                let sample = samples
                    .get(&format!("{family}{{shard=\"{k}\"}}"))
                    .unwrap_or_else(|| panic!("no {family} sample for shard {k}:\n{scrape}"));
                compared += 1;
                let network = !matches!(key, "requests" | "queue_depth");
                if !(network && carries_metrics) {
                    assert_eq!(
                        json as f64, *sample,
                        "workers={workers} shard {k}: {key} vs {family}"
                    );
                }
            }
            // The sequential server has no reactor: no network values.
            assert_eq!(compared, if workers == 1 { 2 } else { 6 });
            let count = samples[&format!("cosched_request_latency_seconds_count{{shard=\"{k}\"}}")];
            assert_eq!(value("latency_count").unwrap_or(0) as f64, count);
            scraped_requests += samples[&format!("cosched_requests_total{{shard=\"{k}\"}}")];
        }
        assert_eq!(
            v.get("requests").and_then(Json::as_u64).map(|n| n as f64),
            Some(scraped_requests)
        );

        // The wire layout of an answered shard's row, byte for byte.
        let Json::Obj(pairs) = &rows[0] else {
            panic!("row is not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(key, _)| key.as_str()).collect();
        let mut expected = SEQUENTIAL_ROW_KEYS.to_vec();
        if workers > 1 {
            let latency_at = expected.len() - 4;
            expected.splice(
                latency_at..latency_at,
                [
                    "open_connections",
                    "reactor_wakeups",
                    "bytes_in",
                    "bytes_out",
                ],
            );
        }
        assert_eq!(keys, expected, "workers={workers}");

        common::shutdown(addr, handle);
    }
}

/// The dispatch-latency histogram survives `--restore`: a recovered
/// shard's count continues from the pre-crash total (snapshot base plus
/// replayed tail) instead of restarting at zero.
#[test]
fn latency_histogram_survives_restore() {
    let dir = std::env::temp_dir().join(format!("cosched-obs-restore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut state = ServeState::with_session(Session::with_id_stride(0, 1));
    let writer = WalWriter::create(
        &dir,
        0,
        1,
        Durability::Log,
        2, // rotate every 2 records: the base-carry path is exercised
        0,
        state.session(),
        0,
        &LatencyHistogram::default(),
        0,
    )
    .expect("wal create");
    state.attach_wal(writer);

    let ops = [
        r#"{"op":"create","apps":[{"name":"A","work":1e10,"seq_fraction":0.1,"access_freq":0.5,"miss_rate_ref":1e-3},{"name":"B","work":2e10,"seq_fraction":0.05,"access_freq":0.6,"miss_rate_ref":2e-3}]}"#,
        r#"{"op":"solve","id":0,"seed":1}"#,
        r#"{"op":"mutate","id":0,"action":"remove_app","index":1}"#,
        r#"{"op":"solve","id":0,"seed":2}"#,
        r#"{"op":"solve","id":0,"seed":3}"#,
    ];
    for op in ops {
        let response = handle_line(&mut state, op);
        assert!(response.contains("\"ok\":true"), "{op} answered {response}");
        state.wal_commit();
        state.wal_maybe_snapshot();
    }
    let live = state.latency_snapshot().expect("live histogram");
    assert_eq!(live.count(), ops.len() as u64);
    drop(state);

    let recovered = recover_shard(&dir, 0, 1, "DominantMinRatio", 0xC05).expect("recover");
    let restored = recovered
        .state
        .latency_snapshot()
        .expect("restored histogram");
    assert_eq!(
        restored.count(),
        ops.len() as u64,
        "restored histogram must continue the pre-crash count"
    );
    assert!(restored.sum_ns() > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// With tracing ON the smoke script still answers byte-identically
/// between the single-worker and the 4-shard server (all responses but
/// the per-shard `metrics` row), and run-to-run — recording spans must
/// never perturb results.
#[test]
fn tracing_enabled_preserves_response_bytes() {
    let _gate = OBS_GATE.lock().expect("obs gate");
    obs::set_enabled(true);
    let script = smoke_script();
    let run = |workers: usize| -> Vec<String> {
        let (addr, handle) = spawn_server_with(|config| config.workers = workers);
        let responses = Client::default()
            .exchange(addr, &script)
            .expect("loopback exchange");
        handle.join().expect("server thread").expect("server run");
        responses
    };
    let single = run(1);
    let single_again = run(1);
    let sharded = run(4);
    obs::set_enabled(false);
    let _ = obs::drain();

    let masked = |lines: &[String]| -> Vec<String> {
        lines.iter().map(|l| mask_reactor_wakeups(l)).collect()
    };
    assert_eq!(
        masked(&single),
        masked(&single_again),
        "tracing on: same script, same bytes, run to run"
    );
    for (k, (a, b)) in single.iter().zip(&sharded).enumerate() {
        let is_metrics = k == 8; // per-shard rows differ by design
        if !is_metrics {
            assert_eq!(a, b, "response {k} differs between 1 and 4 workers");
        }
    }
}

/// The `trace` op: drains the addressed shard's ring buffer, returning
/// the span events recorded there — and the `--trace` echo tags every
/// shard-routed response with its connection-level request id.
#[test]
fn trace_op_drains_the_addressed_shard() {
    let _gate = OBS_GATE.lock().expect("obs gate");
    obs::set_enabled(true);
    let _ = obs::drain(); // drop spans left over from other activity

    let (addr, handle) = spawn_server_with(|config| {
        config.workers = 2;
        config.trace = true;
    });
    let script = vec![
        r#"{"op":"create","apps":[{"name":"A","work":1e10,"seq_fraction":0.1,"access_freq":0.5,"miss_rate_ref":1e-3},{"name":"B","work":2e10,"seq_fraction":0.05,"access_freq":0.6,"miss_rate_ref":2e-3}]}"#.to_string(),
        r#"{"op":"solve","id":0,"seed":7}"#.to_string(),
        r#"{"op":"trace"}"#.to_string(),
        r#"{"op":"trace","shard":1}"#.to_string(),
        r#"{"op":"shutdown"}"#.to_string(),
    ];
    let responses = Client::default()
        .exchange(addr, &script)
        .expect("loopback exchange");
    handle.join().expect("server thread").expect("server run");
    obs::set_enabled(false);
    let _ = obs::drain();

    // The first round-robin create lands on shard 0, as does its solve.
    for (k, response) in responses[..2].iter().enumerate() {
        let v = Json::parse(response).expect("parse");
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "{response}"
        );
        assert_eq!(
            v.get("trace_id").and_then(Json::as_u64),
            Some(k as u64),
            "response {k} must echo its request id: {response}"
        );
    }

    let shard0 = Json::parse(&responses[2]).expect("trace response");
    assert_eq!(shard0.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(shard0.get("shard").and_then(Json::as_u64), Some(0));
    assert_eq!(shard0.get("enabled").and_then(Json::as_bool), Some(true));
    let events = shard0
        .get("events")
        .and_then(Json::as_array)
        .expect("events array");
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    assert!(
        names.contains(&"op_create") && names.contains(&"op_solve"),
        "shard 0's ring should hold the create and solve spans, saw {names:?}"
    );
    for event in events {
        let name = event.get("name").and_then(Json::as_str).unwrap_or("");
        if name == "op_create" {
            assert_eq!(event.get("trace_id").and_then(Json::as_u64), Some(0));
        }
        if name == "op_solve" {
            assert_eq!(event.get("trace_id").and_then(Json::as_u64), Some(1));
        }
    }

    // Shard 1 served nothing: its ring is empty (but the op still
    // answers from the right worker thread).
    let shard1 = Json::parse(&responses[3]).expect("trace response");
    assert_eq!(shard1.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(shard1.get("shard").and_then(Json::as_u64), Some(1));
    let empty = shard1
        .get("events")
        .and_then(Json::as_array)
        .expect("events array");
    assert!(
        empty.is_empty(),
        "shard 1 handled no requests, saw {} events",
        empty.len()
    );
}

/// The disabled path records nothing and drops nothing — the golden
/// suites run in this state, so it must stay inert.
#[test]
fn disabled_tracing_is_inert_through_the_serve_stack() {
    let _gate = OBS_GATE.lock().expect("obs gate");
    obs::set_enabled(false);
    let _ = obs::drain();
    let mut state = ServeState::with_session(Session::new());
    let response = handle_line(
        &mut state,
        r#"{"op":"create","apps":[{"name":"A","work":1e10,"seq_fraction":0.1,"access_freq":0.5,"miss_rate_ref":1e-3},{"name":"B","work":2e10,"seq_fraction":0.05,"access_freq":0.6,"miss_rate_ref":2e-3}]}"#,
    );
    assert!(response.contains("\"ok\":true"), "{response}");
    assert!(
        !response.contains("trace_id"),
        "without --trace the wire stays untagged: {response}"
    );
    let chunk = obs::drain();
    assert!(chunk.events.is_empty(), "disabled tracing recorded spans");
    assert_eq!(chunk.dropped, 0);
}
