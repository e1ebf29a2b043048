//! One measured segment: deal a fresh system, build the replicas, run
//! the schedule, drain, and collect what the probes saw.
//!
//! A run is a few segments, so set-up is measured several times per
//! run and a traced run can alternate traced and untraced segments to
//! measure tracing overhead.

use crate::check;
use crate::cpu;
use crate::load::{Arrival, Load, Req, Spec};
use crate::probe::{KvCost, Probe, Shared, Span, TimedKv};
use sintra::crypto::dealer::PublicParameters;
use sintra::net::{
    run_tcp_node_driven, RandomScheduler, ShardNetPlan, SimStats, Simulation, WireCodec,
};
use sintra::obs::global;
use sintra::rsm::{atomic_replicas_with, ReplicaConfig, StateMachine};
use sintra::setup::dealt_system;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest the mesh may take to come up before the run fails.
const MESH_DEADLINE: Duration = Duration::from_secs(30);
/// Longest the cluster may take to answer everything issued after the
/// measurement window; anything still unanswered then is an error.
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);
/// How long a replica keeps serving peers after its stop condition.
const LINGER: Duration = Duration::from_millis(50);
/// Longest a simulation segment may run before the run fails; a
/// segment normally takes 2–5 s, and a stalled one must not hold the
/// run past its time limit.
const SIM_DEADLINE: Duration = Duration::from_secs(15);
/// Simulator steps between deadline checks.
const SIM_CHUNK: u64 = 10_000;

/// Everything one segment measured.
pub struct Segment {
    pub traced: bool,
    pub setup_s: f64,
    /// Measurement window, as nanoseconds since `epoch`.
    pub win_ns: (u64, u64),
    pub epoch: Instant,
    /// Process CPU (user + system, every thread) inside the window.
    pub cpu_ns: u64,
    /// `(exp, multi_exp, batch_verify)` inside the window (traced).
    pub crypto: [u64; 3],
    /// `(apply ns, snapshot ns, snapshot bytes)` inside the window
    /// (traced).
    pub kv: [u64; 3],
    pub reqs: Vec<Req>,
    pub outstanding_max: usize,
    pub spans: Vec<Span>,
    /// Frame bytes the transport wrote over the whole segment.
    pub bytes_sent: u64,
    /// Requests answered over the whole segment.
    pub answered_total: usize,
    pub net_dropped: u64,
    pub sim: Option<SimStats>,
    /// Output-check failures; empty when every answer checked out.
    pub errors: Vec<String>,
}

impl Segment {
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn in_window(&self, at: Instant) -> bool {
        let ns = self.ns(at);
        ns >= self.win_ns.0 && ns < self.win_ns.1
    }

    pub fn window_s(&self) -> f64 {
        (self.win_ns.1 - self.win_ns.0) as f64 / 1e9
    }

    /// Requests answered inside the window.
    pub fn completed(&self) -> usize {
        self.reqs
            .iter()
            .filter(|r| r.qualified.is_some_and(|q| self.in_window(q)))
            .count()
    }
}

fn crypto_counts() -> [u64; 3] {
    let s = global::snapshot();
    [
        s.counter("crypto.exp"),
        s.counter("crypto.multi_exp"),
        s.counter("crypto.batch_verify"),
    ]
}

fn kv_counts(cost: &Option<Arc<KvCost>>) -> [u64; 3] {
    cost.as_ref().map_or([0; 3], |c| {
        [
            c.apply_ns.load(Ordering::Relaxed),
            c.snapshot_ns.load(Ordering::Relaxed),
            c.snapshot_bytes.load(Ordering::Relaxed),
        ]
    })
}

fn delta(a: [u64; 3], b: [u64; 3]) -> [u64; 3] {
    [b[0] - a[0], b[1] - a[1], b[2] - a[2]]
}

/// A window-start or window-end reading.
struct Mark {
    at: Instant,
    cpu: u64,
    crypto: [u64; 3],
    kv: [u64; 3],
}

impl Mark {
    fn take(cost: &Option<Arc<KvCost>>) -> Mark {
        Mark {
            at: Instant::now(),
            cpu: cpu::process_ns(),
            crypto: crypto_counts(),
            kv: kv_counts(cost),
        }
    }
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// A segment's system, apart from the replicas themselves.
struct Built {
    shared: Arc<Shared>,
    public: PublicParameters,
    cfg: ReplicaConfig,
    cost: Option<Arc<KvCost>>,
}

/// Deals the system and wraps each default-configured replica.
fn build(spec: Spec, seed: u64, load: Load, traced: bool) -> (Built, Vec<Probe>) {
    let shared = Arc::new(Shared::new(spec.n, spec.t, load));
    let (public, bundles) = dealt_system(spec.n, spec.t, seed).expect("valid (n, t)");
    let cfg = ReplicaConfig::new().seed(seed);
    let cost = traced.then(|| Arc::new(KvCost::default()));
    let nodes = atomic_replicas_with(&cfg, public.clone(), bundles, |_| {
        TimedKv::new(cost.clone())
    });
    let probes = nodes
        .into_iter()
        .enumerate()
        .map(|(me, node)| Probe::new(node, me, Arc::clone(&shared), traced))
        .collect();
    let built = Built {
        shared,
        public,
        cfg,
        cost,
    };
    (built, probes)
}

fn set_tracing(traced: bool) {
    if traced {
        global::enable();
    } else {
        global::disable();
    }
}

/// Runs one TCP loopback segment: `warmup` of load, then a measured
/// `window`, then a drain.
pub fn tcp(spec: Spec, seed: u64, warmup: Duration, window: Duration, traced: bool) -> Segment {
    set_tracing(traced);
    let setup0 = Instant::now();
    let load = Load::new(spec, seed, warmup + window);
    let (built, probes) = build(spec, seed, load, traced);
    let (shared, cost) = (&built.shared, &built.cost);
    let plan = ShardNetPlan::loopback(1, spec.n).expect("allocate loopback ports");
    let budget = MESH_DEADLINE + warmup + window + DRAIN_DEADLINE * 2;

    let (outcomes, setup_s, start, end) = std::thread::scope(|s| {
        let handles: Vec<_> = probes
            .into_iter()
            .enumerate()
            .map(|(me, probe)| {
                let node_cfg = plan.node_config(0, me, budget, LINGER);
                let stop_shared = Arc::clone(shared);
                s.spawn(move || {
                    run_tcp_node_driven(
                        &node_cfg,
                        probe,
                        |p, ctx, fx| p.drive(ctx, fx),
                        move |_, _| stop_shared.may_stop(),
                    )
                    .expect("bind loopback listener")
                })
            })
            .collect();

        let t0 = loop {
            if let Some(t0) = shared.ready.get() {
                break *t0;
            }
            if setup0.elapsed() > MESH_DEADLINE {
                // Release the replicas before failing the run.
                shared.expired.store(true, Ordering::SeqCst);
                shared.done.store(true, Ordering::SeqCst);
                panic!("{}: mesh never came up", spec.name);
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let setup_s = (t0 - setup0).as_secs_f64();
        sleep_until(t0 + warmup);
        let start = Mark::take(cost);
        sleep_until(start.at + window);
        let end = Mark::take(cost);
        shared.lock().issuing = false;
        loop {
            {
                let load = shared.lock();
                if load.arrivals_done() && load.all_answered() {
                    break;
                }
            }
            if end.at.elapsed() > DRAIN_DEADLINE {
                shared.expired.store(true, Ordering::SeqCst);
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        shared.done.store(true, Ordering::SeqCst);
        let outcomes: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("replica thread panicked"))
            .collect();
        (outcomes, setup_s, start, end)
    });
    global::disable();

    let (reports, probes): (Vec<_>, Vec<_>) = outcomes.into_iter().unzip();
    let mut seg = finish(spec, traced, built, probes, setup_s, (start, end));
    for r in reports {
        seg.bytes_sent += r.bytes_sent;
        seg.net_dropped += r.outbound_dropped + r.dropped + r.handshake_rejects;
    }
    seg
}

/// Runs one simulator segment: the whole backlog, on this thread,
/// until every replica applied every request. `schedule` seeds the
/// dealer, the replicas and the scheduler; `seed` seeds the requests.
pub fn sim(spec: Spec, schedule: u64, seed: u64, traced: bool) -> Segment {
    let Arrival::Backlog { requests } = spec.arrival else {
        panic!("{}: the simulator runs backlog workloads only", spec.name);
    };
    set_tracing(traced);
    let setup0 = Instant::now();
    let load = Load::new(spec, seed, Duration::ZERO);
    let (built, probes) = build(spec, schedule, load, traced);
    let builder = Simulation::builder(probes, RandomScheduler).seed(schedule);
    let mut sim = if traced {
        builder.meter(|m| m.encode().len()).build()
    } else {
        builder.build()
    };
    let setup_s = setup0.elapsed().as_secs_f64();
    if traced {
        global::reset();
    }

    let start = Mark::take(&built.cost);
    let queued: Vec<Vec<Vec<u8>>> = {
        let mut load = built.shared.lock();
        load.begin(start.at);
        (0..spec.n).map(|me| load.take_for(me, start.at)).collect()
    };
    for (me, payloads) in queued.into_iter().enumerate() {
        for p in payloads {
            sim.input(me, p);
        }
    }
    let total = requests as u64;
    let all_applied = |_: &Simulation<Probe, RandomScheduler>| {
        built
            .shared
            .applied
            .iter()
            .all(|a| a.load(Ordering::SeqCst) >= total)
    };
    let deadline = start.at + SIM_DEADLINE;
    let finished = loop {
        if sim.run_until(SIM_CHUNK, &all_applied) {
            break true;
        }
        if sim.in_flight() == 0 || Instant::now() > deadline {
            break false;
        }
    };
    let end = Mark::take(&built.cost);
    global::disable();
    let stats = sim.stats();
    let probes: Vec<Probe> = sim
        .into_nodes()
        .into_iter()
        .map(|p| p.expect("no corrupted parties"))
        .collect();
    let mut seg = finish(spec, traced, built, probes, setup_s, (start, end));
    seg.sim = Some(stats);
    if !finished {
        seg.errors.push(format!(
            "simulation quiesced or ran past {SIM_DEADLINE:?} before applying all {total} requests"
        ));
    }
    seg
}

/// Collects what the probes saw and checks the outputs.
fn finish(
    spec: Spec,
    traced: bool,
    built: Built,
    probes: Vec<Probe>,
    setup_s: f64,
    (start, end): (Mark, Mark),
) -> Segment {
    let snapshots: Vec<Vec<u8>> = probes
        .iter()
        .map(|p| p.node.machine().inner.snapshot())
        .collect();
    let mut spans = Vec::new();
    for p in probes {
        spans.extend(p.spans.unwrap_or_default());
    }
    let shared = Arc::try_unwrap(built.shared).expect("replicas released the shared state");
    let load = shared.load.into_inner().expect("load lock");
    let epoch = shared.epoch;
    let errors = check::outputs(spec, &built.public, &built.cfg.tag, &load.reqs, &snapshots);
    let ns = |at: Instant| at.saturating_duration_since(epoch).as_nanos() as u64;
    Segment {
        traced,
        setup_s,
        win_ns: (ns(start.at), ns(end.at)),
        epoch,
        cpu_ns: end.cpu - start.cpu,
        crypto: delta(start.crypto, end.crypto),
        kv: delta(start.kv, end.kv),
        answered_total: load.reqs.iter().filter(|r| r.qualified.is_some()).count(),
        outstanding_max: load.outstanding_max,
        reqs: load.reqs,
        spans,
        bytes_sent: 0,
        net_dropped: 0,
        sim: None,
        errors,
    }
}
