//! Direct timings of the session and solver layers, replaying the same
//! generated stream against the library's public entry points.

use std::time::Instant;

use coschedule::model::{Application, Platform};
use coschedule::session::{InstanceId, Session};
use coschedule::solver::{by_name, Instance, SolveCtx};
use experiments::serve::app_from_json;
use minijson::Json;

use crate::workload::{Workload, CONNECTIONS};

#[derive(Default)]
pub struct SessionTimes {
    pub mutate_ns: Vec<u64>,
    pub incremental_ns: Vec<u64>,
    pub cold_ns: Vec<u64>,
    pub memo_hit_ratio: f64,
    pub solve_ns: Vec<u64>,
    pub kernel_calls_per_solve: f64,
    pub apps_evaluated_per_solve: f64,
}

fn create_apps(line: &str) -> Result<Vec<Application>, String> {
    let request = Json::parse(line).map_err(|e| e.to_string())?;
    request
        .get("apps")
        .and_then(Json::as_array)
        .ok_or("create without apps")?
        .iter()
        .map(app_from_json)
        .collect()
}

fn field<'a>(request: &'a Json, key: &str) -> Result<&'a Json, String> {
    request
        .get(key)
        .ok_or_else(|| format!("request without {key:?}"))
}

fn index(request: &Json) -> Result<usize, String> {
    field(request, "index")?
        .as_usize()
        .ok_or_else(|| "bad index".to_string())
}

/// Replays the first `per_conn` requests of each connection's stream
/// through one `Session`, timing each `InstanceHandle` mutation and each
/// `Session::resolve_by_name`. Then, `repeats` times over, times a cold
/// resolve of every replayed instance and a plain `Solver::solve` of
/// every initial instance.
pub fn measure(
    workload: &Workload,
    per_conn: usize,
    repeats: usize,
) -> Result<SessionTimes, String> {
    let initial: Vec<Vec<Application>> = workload
        .creates
        .iter()
        .map(|l| create_apps(l))
        .collect::<Result<_, _>>()?;
    let platform = Platform::taihulight();
    let mut session = Session::new();
    for apps in &initial {
        session
            .create(apps.clone(), platform.clone())
            .map_err(|e| e.to_string())?;
    }
    let mut times = SessionTimes::default();
    let mut resolves = 0u64;
    let mut solver_name = String::new();
    for conn in 0..CONNECTIONS {
        for (_, line) in workload.stream(conn).take(per_conn) {
            let request = Json::parse(&line).map_err(|e| e.to_string())?;
            let op = field(&request, "op")?.as_str().unwrap_or("");
            let id = InstanceId::from_raw(field(&request, "id")?.as_u64().ok_or("bad id")?);
            if op == "solve" {
                solver_name = field(&request, "solver")?
                    .as_str()
                    .unwrap_or("")
                    .to_string();
                let seed = field(&request, "seed")?.as_u64().ok_or("bad seed")?;
                let before = session.stats();
                let t = Instant::now();
                session
                    .resolve_by_name(id, &solver_name, seed)
                    .map_err(|e| e.to_string())?;
                let ns = t.elapsed().as_nanos() as u64;
                let after = session.stats();
                resolves += 1;
                if after.incremental_solves > before.incremental_solves {
                    times.incremental_ns.push(ns);
                } else if after.cold_solves > before.cold_solves {
                    times.cold_ns.push(ns);
                }
                continue;
            }
            let app = match op {
                "remove_app" => None,
                _ => Some(app_from_json(field(&request, "app")?)?),
            };
            let t = Instant::now();
            let mut handle = session.handle(id).map_err(|e| e.to_string())?;
            match (op, app) {
                ("add_app", Some(app)) => handle.add_app(app).map(|_| ()),
                ("update_app", Some(app)) => handle.update_app(index(&request)?, app).map(|_| ()),
                ("remove_app", None) => handle.remove_app(index(&request)?).map(|_| ()),
                _ => return Err(format!("unexpected op {op:?}")),
            }
            .map_err(|e| e.to_string())?;
            times.mutate_ns.push(t.elapsed().as_nanos() as u64);
        }
    }
    times.memo_hit_ratio = session.stats().memo_hits as f64 / resolves.max(1) as f64;

    // Cold resolves: each instance, as the replay left it, in a fresh
    // session, so cold and incremental times compare the same instances.
    let replayed: Vec<Vec<Application>> = session
        .list()
        .iter()
        .map(|info| session.instance(info.id).map(|i| i.apps().to_vec()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    for _ in 0..repeats {
        for apps in &replayed {
            let mut fresh = Session::new();
            let id = fresh
                .create(apps.clone(), platform.clone())
                .map_err(|e| e.to_string())?;
            let t = Instant::now();
            fresh
                .resolve_by_name(id, &solver_name, 7)
                .map_err(|e| e.to_string())?;
            times.cold_ns.push(t.elapsed().as_nanos() as u64);
        }
    }

    // Plain solver calls on the initial instances: their eval counts are
    // a pure function of the seed.
    let solver = by_name(&solver_name).map_err(|e| e.to_string())?;
    let mut kernel_calls = 0u64;
    let mut apps_evaluated = 0u64;
    for _ in 0..repeats {
        for apps in &initial {
            let instance =
                Instance::new(apps.clone(), platform.clone()).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let outcome = solver
                .solve(&instance, &mut SolveCtx::seeded(7))
                .map_err(|e| e.to_string())?;
            times.solve_ns.push(t.elapsed().as_nanos() as u64);
            kernel_calls += outcome.eval_stats.kernel_calls;
            apps_evaluated += outcome.eval_stats.apps_evaluated;
        }
    }
    let solves = (repeats * initial.len()).max(1) as f64;
    times.kernel_calls_per_solve = kernel_calls as f64 / solves;
    times.apps_evaluated_per_solve = apps_evaluated as f64 / solves;
    Ok(times)
}
