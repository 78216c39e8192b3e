//! End-to-end and per-layer benchmark of `cosched serve`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 \
//!           --cosched PATH/TO/cosched --work-dir DIR
//! ```
//!
//! Starts `cosched serve --workers 2` as a child process, drives it from
//! two connections (one thread each) with a seeded closed-loop stream,
//! checks every reply against an in-process replay, and prints a table
//! followed by one JSON result line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` reports the per-layer metrics and the reduced
//! server trace. `perfbench/run.py` builds everything and calls this.

mod client;
mod layers;
mod oracle;
mod pin;
mod server;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use client::{Conn, Digest, Record};
use minijson::Json;
use oracle::{class_index, LayerTimes};
use server::{Flags, Server};
use workload::{Kind, Stream, Workload, CONNECTIONS};

/// Measured windows per `--trace 0` run, each against a fresh server.
const WINDOWS: usize = 10;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    cosched: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let (mut cosched, mut work_dir) = (None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(|| bad("a workload name"))?),
            "--seed" => seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => trace = value == "1",
            "--cosched" => cosched = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        cosched: cosched.ok_or("--cosched is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        let _ = std::fs::remove_dir_all(&args.work_dir);
        std::fs::create_dir_all(&args.work_dir)
            .map_err(|e| format!("create {}: {e}", args.work_dir.display()))?;
        let out = run(&args);
        let _ = std::fs::remove_dir_all(&args.work_dir);
        out
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A started server with the setup done: instances created over
/// connection 0, both connections open and warmed up.
struct Live {
    server: Server,
    conns: Vec<Conn>,
    streams: Vec<Stream>,
    /// Replies to the creates, then each connection's warm-up replies.
    setup: Vec<Digest>,
    warmup: Vec<Vec<Digest>>,
    setup_s: f64,
    /// Which server threads were pinned where (see [`pin`]).
    pinned: String,
}

fn bring_up(args: &Args, wl: &Workload, flags: &Flags, traced: bool) -> Result<Live, String> {
    let started = Instant::now();
    let server = Server::start(&args.cosched, flags)?;
    let mut conns = vec![Conn::open(server.addr)?];
    let setup = wl
        .creates
        .iter()
        .map(|line| conns[0].exchange(line, traced))
        .collect::<Result<Vec<_>, _>>()?;
    while conns.len() < CONNECTIONS {
        conns.push(Conn::open(server.addr)?);
    }
    let mut streams: Vec<Stream> = (0..CONNECTIONS).map(|c| wl.stream(c)).collect();
    let mut warmup = Vec::new();
    for (conn, stream) in conns.iter_mut().zip(&mut streams) {
        let n = stream.warmup;
        let lines: Vec<String> = stream.by_ref().take(n).map(|(_, l)| l).collect();
        warmup.push(
            lines
                .iter()
                .map(|l| conn.exchange(l, traced))
                .collect::<Result<Vec<_>, _>>()?,
        );
    }
    let setup_s = started.elapsed().as_secs_f64();
    let pinned = pin::pin_server(server.pid())?;
    Ok(Live {
        server,
        conns,
        streams,
        setup,
        warmup,
        setup_s,
        pinned,
    })
}

/// Runs every connection on its own thread for `seconds`.
fn measure(
    live: &mut Live,
    kind: Kind,
    seconds: f64,
    traced: bool,
) -> Result<(Vec<Record>, f64), String> {
    let barrier = Barrier::new(CONNECTIONS);
    let records = std::thread::scope(|s| {
        let handles: Vec<_> = live
            .conns
            .iter_mut()
            .zip(&mut live.streams)
            .enumerate()
            .map(|(c, (conn, stream))| {
                let barrier = &barrier;
                s.spawn(move || {
                    let pinned = pin::pin_current_thread(c);
                    barrier.wait();
                    pinned?;
                    let start = Instant::now();
                    let deadline = start + Duration::from_secs_f64(seconds);
                    Ok(client::drive(
                        conn,
                        stream,
                        start,
                        deadline,
                        kind.window(),
                        traced,
                    ))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<Vec<Record>, String>>()
    })?;
    let window = records
        .iter()
        .map(|r| r.elapsed.as_secs_f64())
        .fold(0.0, f64::max);
    Ok((records, window))
}

/// Closes the client connections, then stops the server.
fn stop(live: Live) -> Result<(), String> {
    drop(live.conns);
    if live.server.stop() {
        Ok(())
    } else {
        Err("server did not shut down cleanly".into())
    }
}

/// One measured window against one server, with its setup replies.
struct Window {
    setup: Vec<Digest>,
    warmup: Vec<Vec<Digest>>,
    records: Vec<Record>,
}

/// Compares every reply of `windows` with the in-process reference.
/// Returns `(attempted, failed, layer times)`.
fn verify(
    args: &Args,
    wl: &Workload,
    windows: &[Window],
    timed: bool,
) -> Result<(usize, usize, LayerTimes), String> {
    let replays: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let count = windows
                    .iter()
                    .map(|w| w.warmup[c].len() + w.records[c].sent)
                    .max()
                    .unwrap_or(0);
                s.spawn(move || {
                    // On the CPU that served this connection's chain.
                    pin::pin_current_thread(c)?;
                    oracle::replay(wl, c, count, &args.work_dir, timed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    let mut attempted = 0;
    let mut failed = 0;
    let mut times = LayerTimes::default();
    let mut mismatch_reported = false;
    // `what` names the request: (phase, connection, position).
    let mut tally = |got: Option<&Digest>, want: &Digest, what: (&str, usize, usize)| {
        attempted += 1;
        let good = got.is_some_and(|g| g.ok && g == want);
        if !good {
            failed += 1;
            if !mismatch_reported {
                mismatch_reported = true;
                let (phase, c, i) = what;
                eprintln!(
                    "perfbench: first failed reply: {phase} #{i} on connection {c}: \
                     got {got:?}, want {want:?}"
                );
            }
        }
    };
    for (c, replay) in replays.into_iter().enumerate() {
        let (setup_ref, stream_ref, t) = replay?;
        times.merge(t);
        for w in windows {
            if c == 0 {
                for (i, want) in setup_ref.iter().enumerate() {
                    tally(w.setup.get(i), want, ("create", 0, i));
                }
            }
            let warm = w.warmup[c].len();
            for (i, want) in stream_ref.iter().take(warm).enumerate() {
                tally(w.warmup[c].get(i), want, ("warm-up", c, i));
            }
            let rec = &w.records[c];
            for i in 0..rec.sent {
                let pos = warm + i;
                tally(rec.replies.get(i), &stream_ref[pos], ("request", c, pos));
            }
        }
    }
    Ok((attempted, failed, times))
}

fn percentile(values: &[u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

fn median_f64(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn gather(records: &[Record]) -> (Vec<u64>, Vec<u64>, usize) {
    let mut mutate = Vec::new();
    let mut solve = Vec::new();
    let mut replies = 0;
    for r in records {
        mutate.extend(&r.mutate_ns);
        solve.extend(&r.solve_ns);
        replies += r.replies.len();
    }
    (mutate, solve, replies)
}

/// Metric name, value and unit, in print order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn run(args: &Args) -> Result<(), String> {
    // Also fixes the CPU set every pin picks from, before any pinning.
    let nproc = pin::allowed_cpus()?.len();
    if CONNECTIONS > nproc {
        return Err(format!(
            "the load shape needs {CONNECTIONS} client threads and connections, \
             more than the {nproc} available cores"
        ));
    }
    let wl = Workload::new(args.kind, args.seed);
    let mut flags = Flags::default();
    if args.kind.durable() {
        flags.wal_dir = Some(args.work_dir.join("wal"));
    }
    println!(
        "# workload {}  seed {}  seconds {}  trace {}  client: {CONNECTIONS} threads, \
         {CONNECTIONS} connections, window {} (nproc {nproc})",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.kind.window(),
    );
    println!("# server: cosched {}", flags.args().join(" "));
    let (attempted, failed, metrics) = if args.trace {
        run_traced(args, &wl, &flags)?
    } else {
        run_plain(args, &wl, &flags)?
    };
    println!("# {:<34} {:>16}  unit", "metric", "value");
    for (name, value, unit) in &metrics {
        println!("# {name:<34} {value:>16.4}  {unit}");
    }
    if !args.trace {
        println!(
            "# {:<34} {:>16.4}  ratio ({failed} failed of {attempted} attempted)",
            "error_ratio",
            failed as f64 / attempted.max(1) as f64
        );
    }
    let body: Vec<(String, Json)> = metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name.to_string(),
                Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
            )
        })
        .collect();
    if let Some((name, ..)) = metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("metric {name} is not a finite number"));
    }
    println!(
        "{}",
        Json::obj([
            ("correct", Json::from(failed == 0)),
            ("attempted", Json::from(attempted)),
            ("failed", Json::from(failed)),
            ("metrics", Json::Obj(body)),
        ])
    );
    Ok(())
}

fn run_plain(args: &Args, wl: &Workload, flags: &Flags) -> Result<(usize, usize, Metrics), String> {
    // Each window runs against a freshly started server, and every metric
    // is the median over the windows: a burst of interference on this
    // shared machine, or whatever state one server lifetime settles into,
    // then moves one window of ten rather than the run's result.
    const NAMES: [(&str, &str); 7] = [
        ("setup_s", "s"),
        ("throughput_rps", "1/s"),
        ("mutate_p50_us", "us"),
        ("mutate_p99_us", "us"),
        ("solve_p50_us", "us"),
        ("solve_p99_us", "us"),
        ("rss_peak_mb", "MiB"),
    ];
    let mut per_window: Vec<[f64; 7]> = Vec::new();
    let cpu_before = cpu_ticks();
    let mut windows = Vec::new();
    let mut samples = [0usize; 2];
    for w in 0..WINDOWS {
        let mut live = bring_up(args, wl, flags, false)?;
        let (records, seconds) = measure(&mut live, wl.kind, args.seconds / WINDOWS as f64, false)?;
        let (mutate, solve, replies) = gather(&records);
        samples[0] += mutate.len();
        samples[1] += solve.len();
        let values = [
            live.setup_s,
            replies as f64 / seconds,
            us(percentile(&mutate, 0.50)),
            us(percentile(&mutate, 0.99)),
            us(percentile(&solve, 0.50)),
            us(percentile(&solve, 0.99)),
            live.server.rss_peak_mb()?,
        ];
        if w == 0 {
            println!("# pinned: client c -> c-th CPU; {}", live.pinned);
            println!(
                "# window  {}",
                NAMES.map(|(n, _)| format!("{n:>15}")).join("")
            );
        }
        println!(
            "# {:>6}  {}",
            w + 1,
            values.map(|v| format!("{v:>15.4}")).join("")
        );
        per_window.push(values);
        windows.push(Window {
            setup: std::mem::take(&mut live.setup),
            warmup: std::mem::take(&mut live.warmup),
            records,
        });
        stop(live)?;
    }
    let steal = cpu_ticks().zip(cpu_before).map(|((s1, t1), (s0, t0))| {
        100.0 * s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64
    });
    let (attempted, failed, _) = verify(args, wl, &windows, false)?;
    println!(
        "# samples: {} mutate, {} solve over {WINDOWS} windows of {:.1} s; \
         each metric is the median over the windows",
        samples[0],
        samples[1],
        args.seconds / WINDOWS as f64
    );
    if let Some(steal) = steal {
        // Time the hypervisor ran other guests on this guest's CPUs: on a
        // shared host, the main source of tail-latency noise.
        println!("# steal: {steal:.2}% of CPU time during the windows");
    }
    let metrics = NAMES
        .iter()
        .enumerate()
        .map(|(k, &(name, unit))| {
            let column: Vec<f64> = per_window.iter().map(|v| v[k]).collect();
            (name, median_f64(&column), unit)
        })
        .collect();
    Ok((attempted, failed, metrics))
}

/// `(steal, total)` CPU ticks from `/proc/stat`, if the kernel reports
/// them.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Sums a numeric field over the `metrics` op's shard rows.
fn shard_sum(metrics: &Json, key: &str) -> f64 {
    metrics
        .get("shards")
        .and_then(Json::as_array)
        .map_or(0.0, |rows| {
            rows.iter()
                .filter_map(|r| r.get(key).and_then(Json::as_f64))
                .sum()
        })
}

fn server_metrics(live: &mut Live) -> Result<Json, String> {
    let text = live.conns[0].exchange_text(r#"{"op":"metrics"}"#)?;
    Json::parse(&text).map_err(|e| format!("metrics reply: {e}"))
}

fn run_traced(
    args: &Args,
    wl: &Workload,
    flags: &Flags,
) -> Result<(usize, usize, Metrics), String> {
    let half = args.seconds / 2.0;

    // Traced window: a server recording spans.
    let trace_file = args.work_dir.join("trace.json");
    let mut traced_flags = flags.clone();
    traced_flags.trace_out = Some(trace_file.clone());
    let mut live = bring_up(args, wl, &traced_flags, true)?;
    let (t_records, t_window_s) = measure(&mut live, wl.kind, half, true)?;
    let traced = Window {
        setup: std::mem::take(&mut live.setup),
        warmup: std::mem::take(&mut live.warmup),
        records: t_records,
    };
    stop(live)?;
    let (t_mutate, t_solve, t_replies) = gather(&traced.records);
    let traced_rps = t_replies as f64 / t_window_s;
    let spans = trace::reduce(&trace_file)?;

    // Untraced window: client latencies and the server's own counters.
    // It runs last, right before the in-process replay it is compared
    // with, because CPU speed on a shared host can drift by the minute.
    let mut live = bring_up(args, wl, flags, false)?;
    let before = server_metrics(&mut live)?;
    let (records, window_s) = measure(&mut live, wl.kind, half, false)?;
    let after = server_metrics(&mut live)?;
    let plain = Window {
        setup: std::mem::take(&mut live.setup),
        warmup: std::mem::take(&mut live.warmup),
        records,
    };
    stop(live)?;
    let (mutate, solve, replies) = gather(&plain.records);
    let plain_rps = replies as f64 / window_s;
    let delta = |key: &str| shard_sum(&after, key) - shard_sum(&before, key);
    let per_req = |key: &str| delta(key) / replies.max(1) as f64;

    // In-process: the same streams, one timed call at a time.
    let (attempted, failed, times) = verify(args, wl, &[plain, traced], true)?;
    let (cap, repeats) = match wl.kind {
        Kind::SolveLarge => (300, 3),
        Kind::LockstepSmall | Kind::ChurnDurable => (20_000, 20),
    };
    pin::pin_current_thread(0)?;
    let session = layers::measure(wl, cap, repeats)?;

    let p50 = |v: &[u64]| us(percentile(v, 0.5));
    let layer_p50 =
        [0, 1].map(|k| p50(&times.parse[k]) + p50(&times.respond[k]) + p50(&times.serialise[k]));
    let all = |v: &[Vec<u64>; 2]| [v[0].as_slice(), v[1].as_slice()].concat();
    let (m, s) = (
        class_index(workload::Class::Mutate),
        class_index(workload::Class::Solve),
    );

    print_span_table(&spans, &t_mutate, &t_solve);
    print_bench_spans(&[
        ("minijson.parse", &all(&times.parse)),
        ("protocol.respond (mutate)", &times.respond[m]),
        ("protocol.respond (solve)", &times.respond[s]),
        ("minijson.serialise", &all(&times.serialise)),
        ("wal.append", &times.wal_append),
        ("wal.commit", &times.wal_commit),
        ("session.mutate", &session.mutate_ns),
        ("session.resolve_incremental", &session.incremental_ns),
        ("session.resolve_cold", &session.cold_ns),
        ("solver.solve", &session.solve_ns),
    ]);
    let metrics = vec![
        ("minijson.parse_us", p50(&all(&times.parse)), "us"),
        ("minijson.serialise_us", p50(&all(&times.serialise)), "us"),
        (
            "minijson.response_bytes",
            percentile(&times.response_bytes, 0.5),
            "bytes",
        ),
        ("protocol.respond_us.mutate", p50(&times.respond[m]), "us"),
        ("protocol.respond_us.solve", p50(&times.respond[s]), "us"),
        ("wal.append_us", p50(&times.wal_append), "us"),
        ("wal.commit_us", p50(&times.wal_commit), "us"),
        (
            "wal.bytes_per_record",
            times.wal_bytes as f64 / times.wal_records.max(1) as f64,
            "bytes",
        ),
        ("wal.snapshots", delta("wal_snapshot_generation"), "count"),
        ("session.mutate_us", p50(&session.mutate_ns), "us"),
        (
            "session.resolve_incremental_us",
            p50(&session.incremental_ns),
            "us",
        ),
        ("session.resolve_cold_us", p50(&session.cold_ns), "us"),
        ("session.memo_hit_ratio", session.memo_hit_ratio, "ratio"),
        ("solver.solve_us", p50(&session.solve_ns), "us"),
        (
            "eval.kernel_calls_per_solve",
            session.kernel_calls_per_solve,
            "count",
        ),
        (
            "eval.apps_evaluated_per_solve",
            session.apps_evaluated_per_solve,
            "count",
        ),
        (
            "reactor.wakeups_per_req",
            per_req("reactor_wakeups"),
            "count",
        ),
        ("reactor.bytes_in_per_req", per_req("bytes_in"), "bytes"),
        ("reactor.bytes_out_per_req", per_req("bytes_out"), "bytes"),
        (
            "serve.unattributed_us.mutate",
            p50(&mutate) - layer_p50[0],
            "us",
        ),
        (
            "serve.unattributed_us.solve",
            p50(&solve) - layer_p50[1],
            "us",
        ),
        ("obs.trace_overhead_ratio", traced_rps / plain_rps, "ratio"),
    ];
    println!(
        "# untraced {plain_rps:.1} req/s over {window_s:.3} s, traced {traced_rps:.1} req/s \
         over {t_window_s:.3} s"
    );
    Ok((attempted, failed, metrics))
}

/// Prints the benchmark's own spans: every timed call of the in-process
/// replay, per layer.
fn print_bench_spans(spans: &[(&str, &[u64])]) {
    println!("# benchmark spans (in-process replay of the same streams)");
    println!(
        "# {:<28} {:>10} {:>14} {:>10} {:>10}",
        "span", "count", "total_ms", "p50_us", "p99_us"
    );
    for (name, ns) in spans {
        println!(
            "# {name:<28} {:>10} {:>14.3} {:>10.3} {:>10.3}",
            ns.len(),
            ns.iter().sum::<u64>() as f64 / 1e6,
            us(percentile(ns, 0.5)),
            us(percentile(ns, 0.99)),
        );
    }
}

/// Prints the server's spans per name, plus the client round-trip time
/// the root `op_*` spans do not cover.
fn print_span_table(spans: &trace::Reduced, mutate: &[u64], solve: &[u64]) {
    println!(
        "# server spans (traced window; each thread's ring keeps its newest {} events)",
        coschedule::obs::RING_CAPACITY
    );
    println!(
        "# {:<28} {:>10} {:>14} {:>14}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, row) in &spans.rows {
        println!(
            "# {name:<28} {:>10} {:>14.3} {:>14.3}",
            row.count,
            row.total_us / 1e3,
            row.self_us / 1e3
        );
    }
    let requests = mutate.len() + solve.len();
    let client_mean_us = us(
        (mutate.iter().sum::<u64>() + solve.iter().sum::<u64>()) as f64 / requests.max(1) as f64,
    );
    let roots = spans.root_ops;
    let remainder_ms = (client_mean_us * roots.count as f64 - roots.total_us) / 1e3;
    println!(
        "# {:<28} {:>10} {:>14.3} {:>14.3}",
        "(unattributed)", roots.count, remainder_ms, remainder_ms
    );
    println!(
        "#   (unattributed) = client mean round trip ({client_mean_us:.2} us) x root op spans \
         - their total; it covers reactor I/O, parse, routing, queueing and serialise"
    );
}
