//! `serve-open`: open-loop Poisson arrivals into a `SageService`.
//!
//! One generator thread sends queries on a seeded schedule at a fixed
//! offered rate, whether or not earlier ones have returned; a collector
//! thread polls the tickets, times each query from its *scheduled* send time
//! to the moment its ticket resolves, and checks every answer. Those
//! latencies and `goodput_qps` come from this window.
//!
//! A closed-loop probe follows on the same warm service: BFS queries one at
//! a time, each timed in host (CPU) seconds. It gives the serve path's host
//! cost (`host_meps`, `query_s_p50`), which wall-clock times on a virtual
//! host cannot give steadily (see `clock`).

use crate::batch::{
    count_dirs, giant_sources, profile_delta, replay_delta, sim_metrics, STREAM_SOURCES,
};
use crate::check::{self, Tally};
use crate::clock::cpu_s;
use crate::report::Metrics;
use crate::rng::{Rng, Zipf};
use crate::stats::{mean, median, quantile, Fnv};
use crate::trace::{Tracer, ASYNC, NONE};
use crate::{Args, Outcome};
use gpu_sim::{Profiler, ReplayStats};
use sage::reference;
use sage_graph::gen::{social_graph, SocialParams};
use sage_graph::{Csr, NodeId};
use sage_serve::{
    AppKind, QueryRequest, QueryResponse, ResultValues, SageService, ServiceConfig, ServiceError,
    Ticket,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Served graph: scrambled-id social graph, 2^13 nodes.
const SERVE_SCALE: u32 = 13;
const SERVE_AVG_DEG: f64 = 16.0;
const SERVE_GRAPH_SEED: u64 = 42;
/// Offered load, queries per second: about a fifth of the pool's capacity
/// on a 2-core host, so queries seldom overlap and a transient host
/// slowdown is not amplified by queueing into the latency figures.
pub const RATE_QPS: f64 = 12.0;
/// Latency limit from scheduled send to answer, for `goodput_qps`.
pub const LIMIT_MS: f64 = 250.0;
/// Zipf exponent of the source popularity: about one in eight arrivals
/// repeats an earlier (app, source), so cache hits stay a minority and the
/// median latency falls among executed queries.
const ZIPF_S: f64 = 0.7;
/// Query mix in percent, summing to 100. Every run sends exactly this mix
/// (rounded), in a seeded order.
const MIX: [(AppKind, u32); 5] = [
    (AppKind::Bfs, 55),
    (AppKind::Sssp, 15),
    (AppKind::Walk, 20),
    (AppKind::Pr, 5),
    (AppKind::Bc, 5),
];
/// How long unanswered tickets are awaited after the last send.
const DRAIN: Duration = Duration::from_secs(60);
/// Collector poll interval while no ticket is ready.
const POLL: Duration = Duration::from_millis(1);
const STREAM_SCHEDULE: u64 = 3;
/// Set-up repetitions (`setup_s` is their median); one takes about 25 ms.
const SETUP_REPS: usize = 25;
/// BFS queries of the closed-loop probe after the open-loop window, and
/// how many make one block of its rate.
const PROBES: usize = 400;
const PROBE_BLOCK: usize = 10;
const STREAM_PROBES: u64 = 4;

const TRACK_SETUP: u32 = 1;
const TRACK_GEN: u32 = 2;
const TRACK_PROBE: u32 = 3;

struct Arrival {
    at: Duration,
    req: QueryRequest,
}

/// Expected answers for every distinct (app, source) of the schedule.
struct Expected {
    exact: HashMap<(AppKind, NodeId), u64>,
    bc: HashMap<NodeId, Vec<f64>>,
    /// `pr[k - 1]`: the reference after `k` power iterations. The service
    /// stops PageRank early once it converges, so an answer must match the
    /// reference at the iteration count it ran.
    pr: Vec<Vec<f64>>,
    component: Vec<u32>,
}

impl Expected {
    fn build(g: &Csr, schedule: &[Arrival], pr_iters: usize) -> Self {
        let mut e = Self {
            exact: HashMap::new(),
            bc: HashMap::new(),
            pr: (1..=pr_iters).map(|k| reference::pagerank(g, k)).collect(),
            component: check::components(g),
        };
        for a in schedule {
            let (app, s) = (a.req.app, a.req.source);
            match app {
                AppKind::Bfs => {
                    e.exact
                        .entry((app, s))
                        .or_insert_with(|| check::bfs_expected(g, s));
                }
                AppKind::Sssp => {
                    e.exact
                        .entry((app, s))
                        .or_insert_with(|| check::sssp_expected(g, s));
                }
                AppKind::Bc => {
                    e.bc.entry(s)
                        .or_insert_with(|| reference::bc_scores(g, s).1);
                }
                _ => {}
            }
        }
        e
    }

    fn ok(&self, resp: &QueryResponse) -> bool {
        let req = &resp.request;
        let exact = self.exact.get(&(req.app, req.source));
        match (req.app, &*resp.values) {
            (AppKind::Bfs, ResultValues::Depths(d)) => exact == Some(&check::depths_hash(d)),
            (AppKind::Sssp, ResultValues::Dists(d)) => exact == Some(&check::dists_hash(d)),
            // a cache hit does not say how many iterations produced it
            (AppKind::Pr, ResultValues::Scores(s)) if resp.cache_hit => {
                self.pr.iter().any(|want| check::pr_ok(want, s))
            }
            (AppKind::Pr, ResultValues::Scores(s)) => self
                .pr
                .get(resp.report.iterations.wrapping_sub(1))
                .is_some_and(|want| check::pr_ok(want, s)),
            (AppKind::Bc, ResultValues::Scores(s)) => {
                self.bc.get(&req.source).is_some_and(|w| check::bc_ok(w, s))
            }
            (AppKind::Walk, ResultValues::Scores(s)) => {
                check::walk_ok(&self.component, req.source, s)
            }
            _ => false,
        }
    }
}

/// The seeded arrival schedule over `seconds`.
fn schedule(args: &Args, g: &Csr, graph: u32) -> Vec<Arrival> {
    let mut candidates = giant_sources(g);
    let mut rng = Rng::new(args.seed, STREAM_SOURCES);
    // popularity rank -> node: a seeded shuffle of the candidates
    for i in (1..candidates.len()).rev() {
        candidates.swap(i, rng.below(i + 1));
    }
    let zipf = Zipf::new(candidates.len(), ZIPF_S);
    // a Poisson process conditioned on its count: exactly rate x seconds
    // arrivals at sorted uniform times, so the offered load is the same
    // for every seed
    let mut sched = Rng::new(args.seed, STREAM_SCHEDULE);
    let span = args.seconds.as_secs_f64();
    let count = (RATE_QPS * span).round().max(1.0) as usize;
    let mut times: Vec<f64> = (0..count).map(|_| sched.unit() * span).collect();
    times.sort_by(f64::total_cmp);
    // the exact mix, shuffled: BFS takes what rounding leaves over
    let mut apps: Vec<AppKind> = Vec::with_capacity(count);
    for &(app, pct) in &MIX[1..] {
        let n = (count as f64 * f64::from(pct) / 100.0).round() as usize;
        apps.extend(std::iter::repeat_n(app, n));
    }
    apps.truncate(count);
    apps.resize(count, MIX[0].0);
    for i in (1..apps.len()).rev() {
        apps.swap(i, sched.below(i + 1));
    }
    let mut arrivals = Vec::with_capacity(count);
    for (t, app) in times.into_iter().zip(apps) {
        let source = if app.uses_source() {
            candidates[zipf.sample(&mut rng)]
        } else {
            0
        };
        arrivals.push(Arrival {
            at: Duration::from_secs_f64(t),
            req: QueryRequest { app, graph, source },
        });
    }
    arrivals
}

struct InFlight {
    idx: usize,
    ticket: Ticket,
    sched: Instant,
    sent: Instant,
}

/// One resolved (or failed) query.
struct Record {
    idx: usize,
    app: AppKind,
    sched: Instant,
    sent: Instant,
    resolved: Instant,
    response: Option<QueryResponse>,
    ok: bool,
}

/// Everything the generator measured.
#[derive(Default)]
struct GenStats {
    submit_s: Vec<f64>,
    lag_s: Vec<f64>,
    overloaded: u64,
    refused: u64,
}

/// Start the pool with one worker per core. A worker with an empty queue
/// borrows up to `SAGE_HOST_THREADS` threads for its simulation; the
/// benchmark sets that to 1, so workers never outnumber the cores (with
/// two workers on two cores, borrowed threads measured the host's
/// scheduler, not the service).
fn start_service(devices: usize) -> SageService {
    std::env::set_var("SAGE_HOST_THREADS", "1");
    SageService::start(ServiceConfig {
        devices,
        ..ServiceConfig::default()
    })
}

/// Sum of per-device profiler snapshots.
fn pool_profile(service: &SageService) -> (Profiler, ReplayStats) {
    let stats = service.stats();
    let mut p = Profiler::default();
    for d in &stats.device_profiles {
        p.merge(d);
    }
    let mut r = ReplayStats::default();
    for d in &stats.device_replay {
        r.traced_kernels += d.traced_kernels;
        r.recorded_probes += d.recorded_probes;
        r.elided_probes += d.elided_probes;
        r.l2_probes += d.l2_probes;
        r.parallel_replays += d.parallel_replays;
        r.inline_replays += d.inline_replays;
        r.arena_bytes = r.arena_bytes.max(d.arena_bytes);
    }
    (p, r)
}

pub fn serve_open(args: &Args, tracer: &mut Tracer) -> Outcome {
    tracer.track(TRACK_SETUP, "setup");
    tracer.track(TRACK_GEN, "generator");
    tracer.track(TRACK_PROBE, "probe");
    let devices = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let params = SocialParams {
        nodes: 1 << SERVE_SCALE,
        avg_deg: SERVE_AVG_DEG,
        seed: SERVE_GRAPH_SEED,
        ..SocialParams::default()
    };
    let mut m = Metrics::default();

    // set-up: graph generation, service start, graph registration
    let (mut setups, mut gens) = (Vec::new(), Vec::new());
    let mut state: Option<(Csr, SageService, u32)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, s, _)) = state.take() {
            s.shutdown();
        }
        // host (CPU) seconds, as on the batch workloads
        let (t0, c0) = (Instant::now(), cpu_s());
        let csr = social_graph(&params);
        let (c1, t1) = (cpu_s(), Instant::now());
        let original = csr.clone();
        let (t2, c2) = (Instant::now(), cpu_s());
        let service = start_service(devices);
        let gid = service.register_graph("serve-open", csr);
        let (c3, t3) = (cpu_s(), Instant::now());
        tracer.span("graph.gen", TRACK_SETUP, 0, NONE, t0, t1);
        tracer.span("serve.start_register", TRACK_SETUP, 0, NONE, t2, t3);
        gens.push(c1 - c0);
        setups.push(c1 - c0 + (c3 - c2));
        state = Some((original, service, gid));
    }
    m.set("setup_s", median(&setups));
    m.set("graph.gen_s", median(&gens));
    let (csr, service, gid) = state.expect("at least one set-up");

    let arrivals = schedule(args, &csr, gid);
    let mut seen = std::collections::HashSet::new();
    let repeats = arrivals
        .iter()
        .filter(|a| !seen.insert((a.req.app, a.req.source)))
        .count();
    let mut notes = vec![
        format!(
            "graph: {} nodes, {} edges; {} arrivals at {RATE_QPS} qps, latency limit {LIMIT_MS} ms",
            csr.num_nodes(),
            csr.num_edges(),
            arrivals.len()
        ),
        format!(
            "schedule: {:.3} of arrivals repeat an earlier (app, source)",
            repeats as f64 / arrivals.len().max(1) as f64
        ),
    ];
    let expected = Expected::build(&csr, &arrivals, service.config().pr_iters);
    let mut tally = Tally::default();

    // warm-up (unmeasured): every worker builds its runtime, every app runs
    let warm: Vec<QueryRequest> = arrivals
        .iter()
        .take(4 * devices.max(1) + 8)
        .map(|a| a.req)
        .collect();
    let tickets: Vec<_> = warm.iter().map(|&r| service.submit(r)).collect();
    for t in tickets {
        match t.and_then(Ticket::wait) {
            Ok(resp) => tally.answer(expected.ok(&resp)),
            Err(_) => tally.error(),
        }
    }

    let epoch0 = service.graph_epoch(gid).unwrap_or(0);
    let (prof0, replay0) = pool_profile(&service);
    let inbox: Mutex<Vec<InFlight>> = Mutex::new(Vec::new());
    let sending = AtomicBool::new(true);
    let mut gen = GenStats::default();
    let start = Instant::now() + Duration::from_millis(5);

    let (records, queue_max) = std::thread::scope(|scope| {
        let collector = scope.spawn(|| collect(&service, &inbox, &sending, &expected, &arrivals));
        for (idx, a) in arrivals.iter().enumerate() {
            let sched = start + a.at;
            let now = Instant::now();
            if sched > now {
                std::thread::sleep(sched - now);
            }
            let sent = Instant::now();
            let submitted = service.submit(a.req);
            let done = Instant::now();
            gen.submit_s.push((done - sent).as_secs_f64());
            gen.lag_s
                .push(sent.saturating_duration_since(sched).as_secs_f64());
            tracer.span("serve.submit", TRACK_GEN, idx as u64, NONE, sent, done);
            match submitted {
                Ok(ticket) => inbox
                    .lock()
                    .expect("collector never panics holding the inbox")
                    .push(InFlight {
                        idx,
                        ticket,
                        sched,
                        sent,
                    }),
                Err(e) => {
                    if matches!(e, ServiceError::Overloaded { .. }) {
                        gen.overloaded += 1;
                    }
                    gen.refused += 1;
                }
            }
        }
        sending.store(false, Ordering::Release);
        collector.join().expect("collector thread")
    });
    let window_end = records.iter().map(|r| r.resolved).max().unwrap_or(start);
    let epoch1 = service.graph_epoch(gid).unwrap_or(0);
    let (prof1, replay1) = pool_profile(&service);
    let probes = probe(&service, gid, &csr, args, tracer, &mut tally);
    notes.push(format!(
        "probe: {PROBES} closed-loop BFS queries after the window, {} cache hits untimed",
        probes.cache_hits
    ));
    service.shutdown();

    for _ in 0..gen.refused {
        tally.error();
    }
    let mut lat_ms = Vec::new();
    let mut by_app: HashMap<AppKind, Vec<f64>> = HashMap::new();
    let (mut queue, mut batch, mut exec, mut remap, mut sizes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut good = 0u64;
    let mut hits = 0u64;
    let mut answered = 0u64;
    // executions, deduplicated: every response of one batch carries the
    // batch's report and exec time
    let mut batches: HashMap<(AppKind, u64, usize), &QueryResponse> = HashMap::new();
    let mut fp = Fnv::default();
    let mut exact: Vec<(u8, NodeId, u64)> = Vec::new();
    for r in &records {
        let Some(resp) = &r.response else {
            tally.error();
            continue;
        };
        tally.answer(r.ok);
        answered += 1;
        let ms = (r.resolved - r.sched).as_secs_f64() * 1e3;
        lat_ms.push(ms);
        by_app.entry(r.app).or_default().push(ms);
        if r.ok && ms <= LIMIT_MS {
            good += 1;
        }
        let l = resp.latency();
        if resp.cache_hit {
            hits += 1;
        } else {
            queue.push(l.queue_seconds * 1e3);
            batch.push(l.batch_seconds * 1e3);
            exec.push(l.exec_seconds * 1e3);
            remap.push(l.remap_seconds * 1e3);
            sizes.push(resp.batch_size as f64);
            batches.insert((r.app, l.exec_seconds.to_bits(), resp.batch_size), resp);
        }
        match &*resp.values {
            ResultValues::Depths(d) => exact.push((0, resp.request.source, check::depths_hash(d))),
            ResultValues::Dists(d) if r.app == AppKind::Sssp => {
                exact.push((1, resp.request.source, check::dists_hash(d)));
            }
            _ => {}
        }
        if tracer.enabled() {
            let q = r.idx as u64;
            let root = tracer.span(
                format!("serve.query.{}", r.app.name()),
                ASYNC,
                q,
                NONE,
                r.sched,
                r.resolved,
            );
            // stage spans rebuilt from the response's latency breakdown,
            // starting where the submit call returned
            let mut t = r.sent;
            let stages = if resp.cache_hit {
                vec![("serve.cache_hit", l.queue_seconds)]
            } else {
                vec![
                    ("serve.queue", l.queue_seconds),
                    ("serve.batch", l.batch_seconds),
                    ("serve.exec", l.exec_seconds),
                    ("serve.remap", l.remap_seconds),
                ]
            };
            for (name, secs) in stages {
                let end = t + Duration::from_secs_f64(secs.max(0.0));
                tracer.span(name, ASYNC, q, root, t, end);
                t = end;
            }
        }
    }
    // fingerprint: exact answers as a set (arrival order varies run to run)
    exact.sort_unstable();
    exact.dedup();
    for (app, s, h) in &exact {
        fp.u64(u64::from(*app));
        fp.u64(u64::from(*s));
        fp.u64(*h);
    }

    let (mut edges, mut host_s, mut examined, mut iters) = (0u64, 0.0, 0u64, 0u64);
    let mut dirs = [0u64; 3];
    // `sim_gteps` follows BFS executions: the other apps' executed share
    // swings with cache hits and epoch bumps
    let (mut bfs_edges, mut bfs_sim_s) = (0u64, 0.0);
    for (&(app, _, _), resp) in &batches {
        let rep = &resp.report;
        edges += rep.edges;
        examined += rep.edges_examined;
        iters += rep.iterations as u64;
        host_s += rep.latency.exec_seconds;
        count_dirs(&rep.direction_trace, &mut dirs);
        if app == AppKind::Bfs {
            bfs_edges += rep.edges;
            bfs_sim_s += rep.seconds;
        }
    }
    let window_s = (window_end - start).as_secs_f64().max(1e-9);

    // host cost of the serve path, from the closed-loop probe
    let block_meps: Vec<f64> = probes
        .cpu_s
        .chunks_exact(PROBE_BLOCK)
        .zip(probes.edges.chunks_exact(PROBE_BLOCK))
        .map(|(c, e)| e.iter().sum::<u64>() as f64 / c.iter().sum::<f64>() / 1e6)
        .collect();
    m.set("host_meps", median(&block_meps));
    m.set("query_s_p50", median(&probes.cpu_s));
    m.set("sim_gteps", bfs_edges as f64 / bfs_sim_s / 1e9);
    m.set("serve_p50_ms", median(&lat_ms));
    m.set("serve_p95_ms", quantile(&lat_ms, 0.95));
    // per second of the measured window, which stretches past the offered
    // load's span when a backlog builds up
    m.set("goodput_qps", good as f64 / window_s);
    m.set("trace.host_meps", median(&block_meps));
    m.set("serve.traversal_meps", edges as f64 / window_s / 1e6);

    sim_metrics(
        &mut m,
        &profile_delta(&prof1, &prof0),
        &replay_delta(&replay1, &replay0),
        host_s,
    );
    m.set("pipeline.iterations", iters as f64);
    m.set("pipeline.push_iters", dirs[0] as f64);
    m.set("pipeline.pull_iters", dirs[1] as f64);
    m.set("pipeline.matrix_iters", dirs[2] as f64);
    m.set(
        "pipeline.examined_ratio",
        examined as f64 / edges.max(1) as f64,
    );
    m.set("reorder.epoch", epoch1 as f64);
    m.set("serve.queue_ms_p50", median(&queue));
    m.set("serve.queue_ms_p95", quantile(&queue, 0.95));
    m.set("serve.batch_ms_p50", median(&batch));
    m.set("serve.exec_ms_p50", median(&exec));
    m.set("serve.exec_ms_p95", quantile(&exec, 0.95));
    m.set("serve.remap_ms_p50", median(&remap));
    m.set("serve.batch_size_mean", mean(&sizes));
    m.set("serve.cache_hit_rate", hits as f64 / answered.max(1) as f64);
    m.set("serve.overloaded", gen.overloaded as f64);
    m.set("serve.queue_len_max", queue_max as f64);
    m.set("serve.epoch_bumps", (epoch1 - epoch0) as f64);
    m.set("serve.submit_us_p50", median(&gen.submit_s) * 1e6);
    m.set("serve.gen_lag_ms_max", quantile(&gen.lag_s, 1.0) * 1e3);
    for (app, _) in MIX {
        m.set(
            format!("serve.{}.p50_ms", app.name()),
            by_app.get(&app).map_or(0.0, |v| median(v)),
        );
    }
    Outcome {
        metrics: m,
        tally,
        threads: format!("workers={devices} sim=1"),
        fingerprint: format!("{:016x} (bfs/sssp answers only)", fp.finish()),
        notes,
    }
}

/// What the closed-loop probe measured: per executed BFS query, host (CPU)
/// seconds and traversed edges.
struct Probes {
    cpu_s: Vec<f64>,
    edges: Vec<u64>,
    cache_hits: usize,
}

/// Send `PROBES` BFS queries from seeded sources one at a time, each after
/// the previous one answered, and time each in host (CPU) seconds of the
/// process from submit to answer. The pool has no other work then, so that
/// is the query's whole serve path (admission, queue, the worker's
/// adaptation check, execution, remap, cache insert, ticket) without the
/// time the hypervisor steals, which wall-clock latencies on this kind of
/// host are dominated by. Every answer is checked; cache hits are checked
/// but not timed.
fn probe(
    service: &SageService,
    graph: u32,
    g: &Csr,
    args: &Args,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Probes {
    let candidates = giant_sources(g);
    let mut rng = Rng::new(args.seed, STREAM_PROBES);
    let mut p = Probes {
        cpu_s: Vec::with_capacity(PROBES),
        edges: Vec::with_capacity(PROBES),
        cache_hits: 0,
    };
    for k in 0..PROBES {
        let source = candidates[rng.below(candidates.len())];
        let req = QueryRequest {
            app: AppKind::Bfs,
            graph,
            source,
        };
        let (t0, c0) = (Instant::now(), cpu_s());
        let answer = service.submit(req).and_then(Ticket::wait);
        let (c1, t1) = (cpu_s(), Instant::now());
        tracer.span("serve.probe", TRACK_PROBE, k as u64, NONE, t0, t1);
        let Ok(resp) = answer else {
            tally.error();
            continue;
        };
        let ok = matches!(&*resp.values, ResultValues::Depths(d)
            if check::depths_hash(d) == check::bfs_expected(g, source));
        tally.answer(ok);
        if resp.cache_hit {
            p.cache_hits += 1;
        } else {
            p.cpu_s.push(c1 - c0);
            p.edges.push(resp.report.edges);
        }
    }
    p
}

/// Poll in-flight tickets until the generator is done and every ticket has
/// resolved (or the drain deadline passed). Returns the records and the
/// largest admission-queue depth seen.
fn collect(
    service: &SageService,
    inbox: &Mutex<Vec<InFlight>>,
    sending: &AtomicBool,
    expected: &Expected,
    arrivals: &[Arrival],
) -> (Vec<Record>, usize) {
    let mut pending: Vec<InFlight> = Vec::new();
    let mut records = Vec::new();
    let mut queue_max = 0usize;
    let mut next_sample = Instant::now();
    let mut deadline: Option<Instant> = None;
    loop {
        let still_sending = sending.load(Ordering::Acquire);
        pending.append(
            &mut inbox
                .lock()
                .expect("generator never panics holding the inbox"),
        );
        let mut progressed = false;
        let mut i = 0;
        while i < pending.len() {
            if let Some(outcome) = pending[i].ticket.try_take() {
                let resolved = Instant::now();
                let f = pending.swap_remove(i);
                let req = &arrivals[f.idx].req;
                let (response, ok) = match outcome {
                    Ok(resp) => {
                        let ok = expected.ok(&resp);
                        (Some(resp), ok)
                    }
                    Err(_) => (None, false),
                };
                records.push(Record {
                    idx: f.idx,
                    app: req.app,
                    sched: f.sched,
                    sent: f.sent,
                    resolved,
                    response,
                    ok,
                });
                progressed = true;
            } else {
                i += 1;
            }
        }
        let now = Instant::now();
        if now >= next_sample {
            queue_max = queue_max.max(service.stats().queue_len);
            next_sample = now + Duration::from_millis(10);
        }
        if !still_sending {
            let d = *deadline.get_or_insert(now + DRAIN);
            let empty = inbox.lock().map(|v| v.is_empty()).unwrap_or(true);
            if pending.is_empty() && empty {
                break;
            }
            if now >= d {
                // unanswered: counted as failures
                for f in pending.drain(..) {
                    records.push(Record {
                        idx: f.idx,
                        app: arrivals[f.idx].req.app,
                        sched: f.sched,
                        sent: f.sent,
                        resolved: now,
                        response: None,
                        ok: false,
                    });
                }
                break;
            }
        }
        if !progressed {
            std::thread::sleep(POLL);
        }
    }
    (records, queue_max)
}
