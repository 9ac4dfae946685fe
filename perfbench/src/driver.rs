//! Drives a workload through Genesis the way its users do, and times
//! each layer from outside by wrapping the calls into its public
//! functions: `script_to_plan` (sql), `Compiler::compile` (compile),
//! `GenesisServer::submit` (bind) and `Ticket::wait` (serve + hw).

use crate::workload::{Job, Kind, Scale, Workload};
use genesis_core::compile::{script_to_plan, Compiler};
use genesis_core::device::DeviceConfig;
use genesis_core::perf::AccelStats;
use genesis_core::serve::{GenesisServer, Request, ServerConfig};
use genesis_sql::{LogicalPlan, Script};
use genesis_types::Table;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Simulated devices in the server's pool, for every workload.
const DEVICES: usize = 2;

/// A workload with its server started and every query compiled.
pub struct Bench {
    pub w: Workload,
    pub server: GenesisServer,
    pub compiler: Compiler,
    /// Parsed plans of the queries, reused on every submit (a prepared
    /// statement).
    pub plans: Vec<LogicalPlan>,
    pub clock_hz: f64,
    item_of: HashMap<Job, usize>,
}

impl Bench {
    /// Everything `setup_s` measures: data generation, catalog build,
    /// parsing the queries, server start, and one warm-up job per query
    /// (the server compiles on a cache miss, so this is the warm-up
    /// compile).
    pub fn setup(kind: Kind, seed: u64, scale: Scale) -> Result<Bench, String> {
        let w = Workload::build(kind, seed, scale);
        let device = DeviceConfig::default();
        let compiler = Compiler::new(device.clone());
        let plans = w
            .queries
            .iter()
            .map(|q| script_to_plan(&q.sql, compiler.registry()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("parse: {e}"))?;
        let cfg = ServerConfig::default()
            .with_devices(DEVICES, device.clone())
            .with_shards(w.shards);
        let server = GenesisServer::new(cfg);
        // Dataset 0 carries every query of every workload.
        for (query, plan) in plans.iter().enumerate() {
            server
                .submit(Request::new("warmup", plan.clone()), &w.catalogs[0])
                .and_then(|t| t.wait())
                .map_err(|e| format!("warm-up of {}: {e}", w.queries[query].label))?;
        }
        let item_of = w.items.iter().enumerate().map(|(i, j)| (*j, i)).collect();
        Ok(Bench {
            w,
            server,
            compiler,
            plans,
            clock_hz: device.clock_hz,
            item_of,
        })
    }

    /// Checks every distinct job once against the `genesis-sql` software
    /// engine (`Script::run`), row for row. Returns, per item, the
    /// oracle's digest and the job's deterministic counters; an item the
    /// device got wrong gets `None`.
    pub fn check(&self, spans: &mut Spans) -> Vec<Option<Reference>> {
        self.w
            .items
            .iter()
            .enumerate()
            .map(|(i, job)| {
                let id = CHECK_ID | i as u64;
                let t0 = Instant::now();
                let q = &self.w.queries[job.query];
                let mut cat = self.w.catalogs[job.data].clone_tables();
                let sw = Script::parse(&q.sql)
                    .map_err(|e| e.to_string())
                    .and_then(|s| s.run(&mut cat).map_err(|e| e.to_string()))
                    .map(|()| cat.table("Out").cloned());
                let t1 = Instant::now();
                let hw = self
                    .server
                    .submit(
                        Request::new("check", self.plans[job.query].clone()),
                        &self.w.catalogs[job.data],
                    )
                    .and_then(|t| t.wait())
                    .map_err(|e| e.to_string());
                let t2 = Instant::now();
                let root = spans.record("oracle.check", id, None, 0, t0, t2);
                spans.record("oracle.software", id, root, 0, t0, t1);
                spans.record("oracle.device", id, root, 0, t1, t2);
                match (sw, hw) {
                    (Ok(Some(sw)), Ok((hw, stats))) if same_table(&hw, &sw) => Some(Reference {
                        digest: digest(&sw),
                        counters: counters(&stats),
                    }),
                    (sw, hw) => {
                        let why = match (sw, hw) {
                            (Err(e), _) | (_, Err(e)) => e,
                            (Ok(None), _) => "oracle produced no Out table".to_owned(),
                            _ => "rows differ from the software engine".to_owned(),
                        };
                        eprintln!("check failed: {} on dataset {}: {why}", q.label, job.data);
                        None
                    }
                }
            })
            .collect()
    }

    /// Runs the closed loop for `dur`: each client submits its next
    /// request's jobs back to back, waits for every result, checks each
    /// by digest and counters, and only then sends the next request.
    pub fn timed(&self, refs: &[Option<Reference>], dur: Duration, traced: bool) -> Phase {
        let start = Instant::now();
        let end = start + dur;
        let per_client: Vec<Phase> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.w.clients)
                .map(|c| s.spawn(move || self.client(c, refs, start, end, traced)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut phase = Phase {
            wall: start.elapsed(),
            ..Phase::default()
        };
        for p in per_client {
            phase.absorb(p);
        }
        phase
    }

    fn client(
        &self,
        c: usize,
        refs: &[Option<Reference>],
        start: Instant,
        end: Instant,
        traced: bool,
    ) -> Phase {
        let tenant = format!("c{c}");
        let tid = c as u32 + 1;
        let mut out = Phase {
            spans: Spans::new(traced),
            ..Phase::default()
        };
        for (k, jobs) in self.w.schedule(c).enumerate() {
            if Instant::now() >= end {
                break;
            }
            let id = (c as u64) << 32 | k as u64;
            let t0 = Instant::now();
            let mut children = Vec::new();
            let mut tickets = Vec::new();
            let mut ok = true;
            for job in jobs {
                out.attempted += 1;
                let item = self.item_of[&job];
                let plan = self.plans[job.query].clone();
                let ts = Instant::now();
                let ticket = self.server.submit(
                    Request::new(tenant.as_str(), plan),
                    &self.w.catalogs[job.data],
                );
                let te = Instant::now();
                children.push(("bind.submit", ts, te));
                match ticket {
                    Ok(t) => tickets.push((item, te - ts, t)),
                    Err(e) => {
                        eprintln!("submit failed: {e}");
                        out.failed += 1;
                        ok = false;
                    }
                }
            }
            let mut results = Vec::with_capacity(tickets.len());
            for (item, submit, ticket) in tickets {
                let tw = Instant::now();
                let res = ticket.wait();
                let te = Instant::now();
                children.push(("serve.wait", tw, te));
                results.push((item, submit, te - tw, res));
            }
            let t_result = Instant::now();
            for (item, submit, wait, res) in results {
                let tc = Instant::now();
                let verdict = match (&refs[item], res) {
                    (_, Err(e)) => Err(format!("wait failed: {e}")),
                    (None, Ok(_)) => Err("item failed its oracle check".to_owned()),
                    (Some(r), Ok((table, stats))) => {
                        if digest(&table) != r.digest {
                            out.wrong += 1;
                            Err("result digest differs from the checked result".to_owned())
                        } else if counters(&stats) != r.counters {
                            out.drift += 1;
                            Err("deterministic counters differ from the checked run".to_owned())
                        } else {
                            Ok(stats)
                        }
                    }
                };
                children.push(("check.digest", tc, Instant::now()));
                match verdict {
                    Ok(stats) => {
                        out.completed += 1;
                        out.stats.absorb(stats);
                        out.submit.push(submit);
                        out.wait.push(wait);
                    }
                    Err(e) => {
                        eprintln!(
                            "{} failed: {e}",
                            self.w.queries[self.w.items[item].query].label
                        );
                        out.failed += 1;
                        ok = false;
                    }
                }
            }
            if ok {
                out.latencies.push((t_result - start, t_result - t0));
            }
            let root = out
                .spans
                .record("request", id, None, tid, t0, Instant::now());
            for (name, a, b) in children {
                out.spans.record(name, id, root, tid, a, b);
            }
        }
        out
    }

    /// Modeled device time per job: checked cycles over the device clock,
    /// mean over the distinct jobs (every schedule sends each equally
    /// often). Exact for a given seed.
    pub fn modeled_us_per_job(&self, refs: &[Option<Reference>]) -> f64 {
        let checked: Vec<u64> = refs.iter().flatten().map(|r| r.counters.cycles).collect();
        let cycles: u64 = checked.iter().sum();
        cycles as f64 / self.clock_hz * 1e6 / checked.len().max(1) as f64
    }
}

/// What the check pass pins for one item.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    pub digest: u64,
    pub counters: AccelStats,
}

/// A job's deterministic counters: its stats without the reconfiguration
/// charge, which depends on the compile cache rather than the simulator.
pub fn counters(stats: &AccelStats) -> AccelStats {
    let mut c = *stats;
    c.cycles -= c.reconfig_cycles;
    c.reconfig_cycles = 0;
    c
}

fn column_names(t: &Table) -> Vec<&str> {
    t.schema()
        .fields()
        .iter()
        .map(|f| f.name.as_str())
        .collect()
}

fn same_table(a: &Table, b: &Table) -> bool {
    column_names(a) == column_names(b)
        && a.num_rows() == b.num_rows()
        && (0..a.num_rows()).all(|r| a.row(r) == b.row(r))
}

/// Digest of a result: column names and every row's values.
pub fn digest(t: &Table) -> u64 {
    let mut h = DefaultHasher::new();
    column_names(t).hash(&mut h);
    t.num_rows().hash(&mut h);
    for r in 0..t.num_rows() {
        t.row(r).hash(&mut h);
    }
    h.finish()
}

/// The outcome of a timed phase.
#[derive(Debug, Default)]
pub struct Phase {
    pub wall: Duration,
    pub attempted: u64,
    pub failed: u64,
    /// Failed jobs whose result differed from the checked one.
    pub wrong: u64,
    /// Failed jobs whose deterministic counters differed.
    pub drift: u64,
    /// Every request whose jobs all succeeded: when its results were
    /// back (from the start of the phase), and its submit-to-result time.
    pub latencies: Vec<(Duration, Duration)>,
    /// Jobs that completed correctly, and their stats summed.
    pub completed: u64,
    pub stats: AccelStats,
    /// Per completed job: `submit` and `wait` times.
    pub submit: Vec<Duration>,
    pub wait: Vec<Duration>,
    pub spans: Spans,
}

impl Phase {
    pub fn absorb(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.drift += other.drift;
        self.latencies.extend(other.latencies);
        self.completed += other.completed;
        self.stats.absorb(other.stats);
        self.submit.extend(other.submit);
        self.wait.extend(other.wait);
        self.spans.append(other.spans);
    }

    pub fn jobs_per_s(&self) -> f64 {
        self.completed as f64 / self.wall.as_secs_f64()
    }
}

/// Span ids outside requests (which use `client << 32 | request`): the
/// check pass per item, and cold compiles and parses per query.
pub const CHECK_ID: u64 = 1 << 63;
pub const COMPILE_ID: u64 = 1 << 62;
pub const PARSE_ID: u64 = 1 << 61;

/// One recorded call: all spans of one request share its `id`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    pub tid: u32,
    pub start: Instant,
    pub end: Instant,
}

/// In-memory span list; records nothing when off.
#[derive(Debug, Default)]
pub struct Spans {
    pub on: bool,
    pub list: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            list: Vec::new(),
        }
    }

    /// Records a span and returns its index (`None` when off).
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        tid: u32,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.list.push(Span {
            name,
            id,
            parent,
            tid,
            start,
            end,
        });
        Some(self.list.len() - 1)
    }

    pub fn append(&mut self, other: Spans) {
        let base = self.list.len();
        self.on |= other.on;
        self.list.extend(other.list.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Each span's self time: its duration minus its children's (children
    /// run one after another on the span's own thread).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.list.iter().map(|s| s.end - s.start).collect();
        for s in &self.list {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }
}
