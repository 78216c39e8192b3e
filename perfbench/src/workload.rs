//! Seeded request streams for the three workloads.
//!
//! The server only ever sees the lines generated here. Every line is a
//! pure function of `(workload, seed, connection, position)`, so a run can
//! be replayed in-process request for request by the correctness oracle
//! and by the per-layer timers.

use workloads::npb::NPB_TABLE;

/// Connections (and client threads) the benchmark drives the server with.
pub const CONNECTIONS: usize = 2;

/// Requests each `churn_durable` connection keeps in flight.
pub const CHURN_WINDOW: usize = 32;

/// The three workloads; see the benchmark README for why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    LockstepSmall,
    SolveLarge,
    ChurnDurable,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::LockstepSmall, Kind::SolveLarge, Kind::ChurnDurable];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::LockstepSmall => "lockstep_small",
            Kind::SolveLarge => "solve_large",
            Kind::ChurnDurable => "churn_durable",
        }
    }

    /// Instances each connection owns.
    fn instances_per_conn(self) -> usize {
        match self {
            Kind::LockstepSmall | Kind::SolveLarge => 4,
            Kind::ChurnDurable => 16,
        }
    }

    /// Applications per instance at creation (and, for churn, at the start
    /// of every round).
    fn apps_per_instance(self) -> usize {
        match self {
            Kind::LockstepSmall => 6,
            Kind::SolveLarge => 500,
            Kind::ChurnDurable => 16,
        }
    }

    /// Requests a connection keeps in flight: 1 is lock-step.
    pub fn window(self) -> usize {
        match self {
            Kind::LockstepSmall | Kind::SolveLarge => 1,
            Kind::ChurnDurable => CHURN_WINDOW,
        }
    }

    pub fn durable(self) -> bool {
        self == Kind::ChurnDurable
    }

    fn solve_line(self, id: u64) -> String {
        match self {
            Kind::LockstepSmall | Kind::ChurnDurable => format!(
                r#"{{"op":"solve","id":{id},"solver":"DominantMinRatio","seed":7,"schedule":false}}"#
            ),
            Kind::SolveLarge => {
                format!(
                    r#"{{"op":"solve","id":{id},"solver":"Portfolio","seed":7,"schedule":true}}"#
                )
            }
        }
    }
}

/// Request classes whose latency is reported separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Mutate,
    Solve,
}

/// SplitMix64: small, fast and fully specified, so the streams do not
/// depend on any library's random number generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One NPB-derived application with its work jittered by ±25%, as a JSON
/// object in the protocol's `app` format.
fn app_json(rng: &mut Rng, row: usize, tag: u64) -> String {
    let b = &NPB_TABLE[row % NPB_TABLE.len()];
    let work = b.work * (0.75 + 0.5 * rng.unit());
    format!(
        r#"{{"name":"{}{tag}","work":{work},"seq_fraction":0.05,"access_freq":{},"miss_rate_ref":{}}}"#,
        b.name, b.access_freq, b.miss_rate_40mb
    )
}

/// A workload instantiated for one seed.
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    /// `create` lines, sent lock-step over connection 0 during setup.
    /// Instance `i` gets id `i` and lives on shard `i % 2` (creates go
    /// round-robin over the two shards). Connection `c` owns the ids
    /// congruent to `c`, so each connection has a shard of its own and
    /// the two closed loops never queue behind each other.
    pub creates: Vec<String>,
}

impl Workload {
    pub fn new(kind: Kind, seed: u64) -> Workload {
        let mut rng = Rng::new(seed ^ 0xC0_5C4E_D000);
        let n = kind.apps_per_instance();
        let creates = (0..CONNECTIONS * kind.instances_per_conn())
            .map(|i| {
                let apps: Vec<String> = (0..n)
                    .map(|a| app_json(&mut rng, a, (i * n + a) as u64))
                    .collect();
                format!(r#"{{"op":"create","apps":[{}]}}"#, apps.join(","))
            })
            .collect();
        Workload {
            kind,
            seed,
            creates,
        }
    }

    /// Connection `conn`'s request stream.
    pub fn stream(&self, conn: usize) -> Stream {
        let ids: Vec<u64> = (0..self.kind.instances_per_conn())
            .map(|j| (j * CONNECTIONS + conn) as u64)
            .collect();
        let mut pending: Vec<(Class, String)> = ids
            .iter()
            .map(|&id| (Class::Solve, self.kind.solve_line(id)))
            .collect();
        pending.reverse();
        Stream {
            kind: self.kind,
            warmup: ids.len(),
            rng: Rng::new(self.seed.wrapping_mul(0x100_0000_01B3) ^ (conn as u64 + 1)),
            ids,
            round: 0,
            pending,
        }
    }
}

/// An endless, deterministic request stream for one connection. It opens
/// with one `solve` per owned instance (the warm-up, sent during setup),
/// then repeats the workload's round.
pub struct Stream {
    kind: Kind,
    /// Length of the warm-up prefix.
    pub warmup: usize,
    rng: Rng,
    ids: Vec<u64>,
    round: u64,
    /// The rest of the current round, last request first.
    pending: Vec<(Class, String)>,
}

impl Stream {
    fn refill(&mut self) {
        let id = self.ids[self.round as usize % self.ids.len()];
        let n = self.kind.apps_per_instance();
        let tag = 1_000_000 + self.round;
        let mut round = Vec::with_capacity(5);
        if self.kind == Kind::ChurnDurable {
            let row = self.rng.below(NPB_TABLE.len());
            let app = app_json(&mut self.rng, row, tag);
            round.push(format!(r#"{{"op":"add_app","id":{id},"app":{app}}}"#));
            let index = self.rng.below(n + 1);
            round.push(format!(
                r#"{{"op":"remove_app","id":{id},"index":{index}}}"#
            ));
        }
        let index = self.rng.below(n);
        let app = app_json(&mut self.rng, index, tag);
        round.push(format!(
            r#"{{"op":"update_app","id":{id},"index":{index},"app":{app}}}"#
        ));
        let mut lines: Vec<(Class, String)> =
            round.into_iter().map(|l| (Class::Mutate, l)).collect();
        lines.push((Class::Solve, self.kind.solve_line(id)));
        if self.kind == Kind::ChurnDurable {
            // Same revision, solver and seed: answered by the memo tier.
            lines.push((Class::Solve, self.kind.solve_line(id)));
        }
        lines.reverse();
        self.pending = lines;
        self.round += 1;
    }
}

impl Iterator for Stream {
    type Item = (Class, String);

    fn next(&mut self) -> Option<(Class, String)> {
        if self.pending.is_empty() {
            self.refill();
        }
        self.pending.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_lines() {
        for kind in Kind::ALL {
            let a = Workload::new(kind, 3);
            let b = Workload::new(kind, 3);
            assert_eq!(a.creates, b.creates);
            for conn in 0..CONNECTIONS {
                let x: Vec<_> = a.stream(conn).take(200).map(|(_, l)| l).collect();
                let y: Vec<_> = b.stream(conn).take(200).map(|(_, l)| l).collect();
                assert_eq!(x, y);
            }
            let c = Workload::new(kind, 4);
            assert_ne!(a.creates, c.creates);
        }
    }

    #[test]
    fn churn_mix_is_sixty_percent_writes() {
        let w = Workload::new(Kind::ChurnDurable, 1);
        let s = w.stream(0);
        let warmup = s.warmup;
        let lines: Vec<_> = s.skip(warmup).take(500).collect();
        let writes = lines.iter().filter(|(c, _)| *c == Class::Mutate).count();
        assert_eq!(writes * 5, lines.len() * 3);
    }
}
