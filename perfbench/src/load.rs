//! Workload definitions and the in-band load generator.
//!
//! The generator owns no thread or connection: the replicas' per-tick
//! callbacks pull due requests from it and inject them through the
//! benchmark's `Probe` wrapper, and the same wrapper feeds it every
//! reply share it sees leave a replica. Everything here sits behind
//! one mutex shared by the replica threads.

use sintra::crypto::SeededRng;
use sintra::protocols::common::{digest, Digest};
use sintra::rsm::{KvMachine, Reply};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Bytes of per-request id in front of every KV operation. Atomic
/// broadcast drops a payload equal to one it delivered recently and a
/// replica answers a repeated request from its reply cache, so every
/// request must be distinct, as a real client's request id makes it.
pub const ID_LEN: usize = 8;

/// How requests arrive.
#[derive(Clone, Copy, Debug)]
pub enum Arrival {
    /// Seeded Poisson arrivals at a fixed total rate (requests/s).
    Open { rate: f64 },
    /// Virtual clients, each with one request outstanding.
    Closed { clients: usize },
    /// A fixed backlog injected before the run starts.
    Backlog { requests: usize },
}

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub n: usize,
    pub t: usize,
    /// `true`: TCP loopback mesh; `false`: deterministic simulator.
    pub tcp: bool,
    pub arrival: Arrival,
    pub value_len: usize,
    pub keys: u64,
    /// Share of `get` requests, in percent. `load_gen` sends only
    /// `set`s, and so do the workloads that copy its traffic; kv-large
    /// is specified as a 50/50 mix.
    pub get_percent: u64,
}

/// The benchmark's workloads (see `perfbench/GLOSSARY.md` for why each
/// exists).
pub const WORKLOADS: &[Spec] = &[
    Spec {
        name: "kv-open",
        n: 4,
        t: 1,
        tcp: true,
        arrival: Arrival::Open { rate: 200.0 },
        value_len: 32,
        keys: 1024,
        get_percent: 0,
    },
    Spec {
        name: "kv-closed",
        n: 4,
        t: 1,
        tcp: true,
        arrival: Arrival::Closed { clients: 256 },
        value_len: 32,
        keys: 1024,
        get_percent: 0,
    },
    Spec {
        name: "sim-n16",
        n: 16,
        t: 5,
        tcp: false,
        arrival: Arrival::Backlog { requests: 300 },
        value_len: 32,
        keys: 1024,
        get_percent: 0,
    },
    Spec {
        name: "kv-large",
        n: 4,
        t: 1,
        tcp: true,
        arrival: Arrival::Closed { clients: 32 },
        value_len: 4096,
        keys: 256,
        get_percent: 50,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// One request and its client-side timeline.
#[derive(Debug)]
pub struct Req {
    pub payload: Vec<u8>,
    pub target: usize,
    /// When the request was due (open loop, backlog) or issued (closed
    /// loop): latency runs from here.
    pub due: Instant,
    pub injected: Option<Instant>,
    pub first_share: Option<Instant>,
    /// When the (t+1)-th matching reply share arrived.
    pub qualified: Option<Instant>,
    /// The first t+1 matching reply shares (kept for the off-clock
    /// signature check).
    pub shares: Vec<Reply>,
    /// `(seq, response digest)` every reply must match.
    pub answer: Option<(u64, Digest)>,
    /// A reply disagreed with the first one.
    pub mismatch: bool,
    pub replies: usize,
    client: usize,
}

/// Per-client request stream: the same seed always yields the same
/// operations in the same order, whatever the timing.
#[derive(Debug)]
struct Stream {
    rng: SeededRng,
    issued: u64,
}

/// The shared load-generator state.
#[derive(Debug)]
pub struct Load {
    spec: Spec,
    streams: Vec<Stream>,
    /// Open-loop arrival offsets from the load start, ascending.
    arrivals: Vec<Duration>,
    next_arrival: usize,
    pub reqs: Vec<Req>,
    by_digest: HashMap<Digest, usize>,
    /// Issued requests waiting for their target replica's next tick.
    queues: Vec<VecDeque<usize>>,
    pub start: Option<Instant>,
    /// Closed loop: clients keep issuing while this holds.
    pub issuing: bool,
    outstanding: usize,
    pub outstanding_max: usize,
    pub injected_total: u64,
}

impl Load {
    /// A generator for one segment; `load_for` bounds open-loop
    /// arrivals.
    pub fn new(spec: Spec, seed: u64, load_for: Duration) -> Load {
        let clients = match spec.arrival {
            Arrival::Closed { clients } => clients,
            Arrival::Open { .. } | Arrival::Backlog { .. } => 1,
        };
        let streams = (0..clients)
            .map(|c| Stream {
                rng: SeededRng::new(mix(seed, c as u64 + 1)),
                issued: 0,
            })
            .collect();
        let mut arrivals = Vec::new();
        if let Arrival::Open { rate } = spec.arrival {
            let mut rng = SeededRng::new(mix(seed, 0));
            let mut at = 0.0f64;
            loop {
                // Exponential inter-arrival gap; 53 random bits → (0, 1].
                let u = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
                at += -u.ln() / rate;
                if at >= load_for.as_secs_f64() {
                    break;
                }
                arrivals.push(Duration::from_secs_f64(at));
            }
        }
        Load {
            spec,
            streams,
            arrivals,
            next_arrival: 0,
            reqs: Vec::new(),
            by_digest: HashMap::new(),
            queues: (0..spec.n).map(|_| VecDeque::new()).collect(),
            start: None,
            issuing: true,
            outstanding: 0,
            outstanding_max: 0,
            injected_total: 0,
        }
    }

    /// Starts the schedule at `t0`: a closed loop issues each client's
    /// first request, a backlog issues every request.
    pub fn begin(&mut self, t0: Instant) {
        self.start = Some(t0);
        match self.spec.arrival {
            Arrival::Closed { clients } => {
                for c in 0..clients {
                    self.issue(c, t0);
                }
            }
            Arrival::Backlog { requests } => {
                for _ in 0..requests {
                    self.issue(0, t0);
                }
            }
            Arrival::Open { .. } => {}
        }
    }

    /// Issues the open-loop arrivals due by `now`.
    pub fn advance(&mut self, now: Instant) {
        let Some(t0) = self.start else { return };
        while let Some(off) = self.arrivals.get(self.next_arrival) {
            let due = t0 + *off;
            if due > now {
                break;
            }
            self.next_arrival += 1;
            self.issue(0, due);
        }
    }

    /// Whether every arrival of the schedule has been issued.
    pub fn arrivals_done(&self) -> bool {
        self.next_arrival >= self.arrivals.len()
    }

    fn issue(&mut self, client: usize, due: Instant) {
        let spec = self.spec;
        let id = self.reqs.len();
        let stream = &mut self.streams[client];
        let k = stream.issued;
        stream.issued += 1;
        let key = format!("k{:05}", stream.rng.next_below(spec.keys));
        let mut payload = ((client as u64) << 32 | k).to_be_bytes().to_vec();
        if stream.rng.next_below(100) < spec.get_percent {
            payload.extend_from_slice(&KvMachine::encode_get(key.as_bytes()));
        } else {
            let mut value = Vec::with_capacity(spec.value_len + 8);
            while value.len() < spec.value_len {
                value.extend_from_slice(&stream.rng.next_u64().to_le_bytes());
            }
            value.truncate(spec.value_len);
            payload.extend_from_slice(&KvMachine::encode_set(key.as_bytes(), &value));
        }
        // Round-robin over replicas, per client, so the assignment is
        // as deterministic as the operations.
        let target = (client + k as usize) % spec.n;
        self.by_digest.insert(digest(&payload), id);
        self.reqs.push(Req {
            payload,
            target,
            due,
            injected: None,
            first_share: None,
            qualified: None,
            shares: Vec::new(),
            answer: None,
            mismatch: false,
            replies: 0,
            client,
        });
        self.queues[target].push_back(id);
        self.outstanding += 1;
        self.outstanding_max = self.outstanding_max.max(self.outstanding);
    }

    /// Hands replica `me` the payloads it must inject now.
    pub fn take_for(&mut self, me: usize, now: Instant) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(id) = self.queues[me].pop_front() {
            self.reqs[id].injected = Some(now);
            self.injected_total += 1;
            out.push(self.reqs[id].payload.clone());
        }
        out
    }

    /// Records one reply share leaving a replica at `now`.
    pub fn on_reply(&mut self, reply: &Reply, now: Instant, t: usize) {
        let Some(&id) = self.by_digest.get(&reply.request) else {
            return;
        };
        let req = &mut self.reqs[id];
        req.replies += 1;
        req.first_share.get_or_insert(now);
        let answer = (reply.seq, digest(&reply.response));
        match req.answer {
            None => req.answer = Some(answer),
            Some(a) if a != answer => {
                req.mismatch = true;
                return;
            }
            Some(_) => {}
        }
        if req.shares.len() <= t {
            req.shares.push(reply.clone());
            if req.shares.len() == t + 1 {
                req.qualified = Some(now);
                self.outstanding -= 1;
                let client = req.client;
                if self.issuing && matches!(self.spec.arrival, Arrival::Closed { .. }) {
                    self.issue(client, now);
                }
            }
        }
    }

    /// Whether every issued request has a qualified reply set.
    pub fn all_answered(&self) -> bool {
        self.outstanding == 0
    }
}

/// Mixes a seed with a stream index (splitmix64 finalizer).
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
