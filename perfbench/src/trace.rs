//! Reduces the server's `--trace-out` Chrome trace to one row per span
//! name: count, total time and self time (total minus the time covered by
//! direct children on the same thread).

use std::collections::BTreeMap;
use std::path::Path;

use minijson::Json;

#[derive(Clone, Copy, Default)]
pub struct Row {
    pub count: u64,
    pub total_us: f64,
    pub self_us: f64,
}

pub struct Reduced {
    pub rows: BTreeMap<String, Row>,
    /// Spans no other span encloses whose name starts with `op_`, i.e.
    /// the routed requests whose spans survived the ring buffers.
    pub root_ops: Row,
}

struct Open {
    name: String,
    end: f64,
    dur: f64,
    children: f64,
}

pub fn reduce(path: &Path) -> Result<Reduced, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("trace without traceEvents")?;
    // (tid, start, duration, name) of complete spans.
    let mut spans: Vec<(u64, f64, f64, String)> = Vec::new();
    let mut rows: BTreeMap<String, Row> = BTreeMap::new();
    for ev in events {
        let name = ev.get("name").and_then(Json::as_str).unwrap_or("?");
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            rows.entry(name.to_string()).or_default().count += 1;
            continue;
        }
        let num = |k: &str| ev.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let tid = ev.get("tid").and_then(Json::as_u64).unwrap_or(0);
        spans.push((tid, num("ts"), num("dur"), name.to_string()));
    }
    // Parents sort before the children they enclose: by thread, start,
    // then longest first.
    spans.sort_by(|a, b| {
        (a.0, a.1)
            .partial_cmp(&(b.0, b.1))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal))
    });
    let mut root_ops = Row::default();
    let mut stack: Vec<Open> = Vec::new();
    let mut tid = u64::MAX;
    let close = |open: Open, rows: &mut BTreeMap<String, Row>| {
        let row = rows.entry(open.name).or_default();
        row.count += 1;
        row.total_us += open.dur;
        row.self_us += (open.dur - open.children).max(0.0);
    };
    for (t, start, dur, name) in spans {
        if t != tid {
            while let Some(open) = stack.pop() {
                close(open, &mut rows);
            }
            tid = t;
        }
        while stack.last().is_some_and(|top| top.end <= start) {
            let open = stack.pop().expect("non-empty");
            close(open, &mut rows);
        }
        match stack.last_mut() {
            Some(parent) => parent.children += dur,
            None if name.starts_with("op_") => {
                root_ops.count += 1;
                root_ops.total_us += dur;
                root_ops.self_us += dur;
            }
            None => {}
        }
        stack.push(Open {
            name,
            end: start + dur,
            dur,
            children: 0.0,
        });
    }
    while let Some(open) = stack.pop() {
        close(open, &mut rows);
    }
    Ok(Reduced { rows, root_ops })
}
