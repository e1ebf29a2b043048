//! Measurement from outside the stack: a `Protocol` wrapper around
//! each replica and a `StateMachine` wrapper around the KV store.
//!
//! Both forward every call unchanged. The replica wrapper hands reply
//! outputs to the load generator and, in a traced run, records one
//! span per hook call (class, wall interval, thread CPU, bytes in,
//! frames out); the machine wrapper times `apply` and `snapshot`.

use crate::cpu;
use crate::load::{Load, ID_LEN};
use sintra::adversary::party::PartyId;
use sintra::net::protocol::Context;
use sintra::net::{Effects, Protocol, WireCodec};
use sintra::protocols::abba::AbbaMessage;
use sintra::protocols::abc::{AbcMessage, AtomicBroadcast};
use sintra::protocols::mvba::MvbaMessage;
use sintra::rsm::{KvMachine, Replica, Reply, RsmMessage, StateMachine};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

pub type Node = Replica<AtomicBroadcast, TimedKv>;
pub type Msg = RsmMessage<AbcMessage>;
type Fx = Effects<Msg, Reply>;

/// What a hook call handled. Inbound messages are classed by their
/// public enum path; the order fixes the report's column order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    AbcPush,
    AbcQueued,
    Cbc,
    MvbaCoin,
    Abba,
    RsmCtl,
    Input,
    Tick,
}

impl Class {
    pub const MESSAGES: [Class; 6] = [
        Class::AbcPush,
        Class::AbcQueued,
        Class::Cbc,
        Class::MvbaCoin,
        Class::Abba,
        Class::RsmCtl,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::AbcPush => "abc.push",
            Class::AbcQueued => "abc.queued",
            Class::Cbc => "cbc",
            Class::MvbaCoin => "mvba.coin",
            Class::Abba => "abba",
            Class::RsmCtl => "rsm.ctl",
            Class::Input => "hook.input",
            Class::Tick => "hook.tick",
        }
    }
}

/// One hook call in a traced run. Times are nanoseconds since the
/// segment's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub replica: u8,
    pub class: Class,
    pub start_ns: u64,
    pub end_ns: u64,
    pub cpu_ns: u64,
    /// Encoded size of the inbound message (0 for input and tick).
    pub bytes: u32,
    /// Frames the call emitted.
    pub sends: u32,
    /// ABC round of the inbound message (0 if none).
    pub round: u64,
    /// MVBA election of a coin share or vote (0 if none).
    pub election: u64,
    /// Deciding ABBA round carried by a `Decided` message (0 if none).
    pub abba_decided: u64,
}

/// State every replica's wrapper shares with the load generator and
/// the measuring thread.
#[derive(Debug)]
pub struct Shared {
    pub n: usize,
    pub t: usize,
    pub epoch: Instant,
    pub load: Mutex<Load>,
    /// Replicas that have seen a link come up from every peer.
    linked: AtomicUsize,
    /// Set when the last replica's mesh links are all up.
    pub ready: OnceLock<Instant>,
    pub applied: Vec<AtomicU64>,
    /// The schedule is over and every request is answered, or the drain
    /// deadline passed.
    pub done: AtomicBool,
    /// The drain deadline passed with requests unanswered.
    pub expired: AtomicBool,
}

impl Shared {
    pub fn new(n: usize, t: usize, load: Load) -> Shared {
        Shared {
            n,
            t,
            epoch: Instant::now(),
            load: Mutex::new(load),
            linked: AtomicUsize::new(0),
            ready: OnceLock::new(),
            applied: (0..n).map(|_| AtomicU64::new(0)).collect(),
            done: AtomicBool::new(false),
            expired: AtomicBool::new(false),
        }
    }

    pub fn lock(&self) -> std::sync::MutexGuard<'_, Load> {
        self.load
            .lock()
            .expect("a replica thread panicked holding the load")
    }

    /// Whether a replica may stop: the schedule is drained and every
    /// replica applied every injected request (or the drain expired).
    pub fn may_stop(&self) -> bool {
        if !self.done.load(Ordering::SeqCst) {
            return false;
        }
        if self.expired.load(Ordering::SeqCst) {
            return true;
        }
        let total = self.lock().injected_total;
        self.applied
            .iter()
            .all(|a| a.load(Ordering::SeqCst) >= total)
    }
}

/// The replica wrapper.
#[derive(Debug)]
pub struct Probe {
    pub node: Node,
    me: PartyId,
    shared: Arc<Shared>,
    links: u64,
    pub spans: Option<Vec<Span>>,
}

impl Probe {
    pub fn new(node: Node, me: PartyId, shared: Arc<Shared>, traced: bool) -> Probe {
        Probe {
            node,
            me,
            shared,
            links: 0,
            spans: traced.then(Vec::new),
        }
    }

    /// Injects every request the load generator has due for this
    /// replica. Called from the runtime's per-tick callback.
    pub fn drive(&mut self, ctx: &Context, fx: &mut Fx) {
        let Some(&t0) = self.shared.ready.get() else {
            return;
        };
        let now = Instant::now();
        let due = {
            let mut load = self.shared.lock();
            if load.start.is_none() {
                load.begin(t0);
            }
            load.advance(now);
            load.take_for(self.me, now)
        };
        for payload in due {
            self.on_input_ctx(ctx, payload, fx);
        }
    }

    /// Runs one hook call, then reports its reply outputs.
    fn hook(
        &mut self,
        class: Class,
        bytes: u32,
        tags: (u64, u64, u64),
        fx: &mut Fx,
        call: impl FnOnce(&mut Node, &mut Fx),
    ) {
        let mark = fx.outputs().len();
        if let Some(spans) = &mut self.spans {
            let sends0 = fx.sends().len();
            let start = Instant::now();
            let cpu0 = cpu::thread_ns();
            call(&mut self.node, fx);
            let cpu_ns = cpu::thread_ns() - cpu0;
            let end = Instant::now();
            let epoch = self.shared.epoch;
            spans.push(Span {
                replica: self.me as u8,
                class,
                start_ns: (start - epoch).as_nanos() as u64,
                end_ns: (end - epoch).as_nanos() as u64,
                cpu_ns,
                bytes,
                sends: (fx.sends().len() - sends0) as u32,
                round: tags.0,
                election: tags.1,
                abba_decided: tags.2,
            });
        } else {
            call(&mut self.node, fx);
        }
        if fx.outputs().len() > mark {
            let now = Instant::now();
            let mut load = self.shared.lock();
            for reply in &fx.outputs()[mark..] {
                load.on_reply(reply, now, self.shared.t);
            }
        }
        self.shared.applied[self.me].store(self.node.applied(), Ordering::SeqCst);
    }
}

/// Classifies an inbound message: class, encoded bytes, and
/// `(ABC round, election, deciding ABBA round)`.
fn classify(msg: &Msg) -> (Class, u32, (u64, u64, u64)) {
    let (class, tags) = match msg {
        RsmMessage::Order(AbcMessage::Push(_)) => (Class::AbcPush, (0, 0, 0)),
        RsmMessage::Order(AbcMessage::Queued { round, .. }) => (Class::AbcQueued, (*round, 0, 0)),
        RsmMessage::Order(AbcMessage::Mvba { round, inner }) => match inner {
            MvbaMessage::Proposal { .. } => (Class::Cbc, (*round, 0, 0)),
            MvbaMessage::ElectCoin { election, .. } => (Class::MvbaCoin, (*round, *election, 0)),
            MvbaMessage::Vote { election, inner } => {
                let decided = match inner {
                    AbbaMessage::Decided { round, .. } => *round,
                    _ => 0,
                };
                (Class::Abba, (*round, *election, decided))
            }
        },
        _ => (Class::RsmCtl, (0, 0, 0)),
    };
    (class, msg.encode().len() as u32, tags)
}

impl Protocol for Probe {
    type Message = Msg;
    type Input = Vec<u8>;
    type Output = Reply;

    fn on_input(&mut self, input: Vec<u8>, fx: &mut Fx) {
        let ctx = Context::disabled(self.me, self.shared.n);
        self.on_input_ctx(&ctx, input, fx);
    }

    fn on_message(&mut self, from: PartyId, msg: Msg, fx: &mut Fx) {
        let ctx = Context::disabled(self.me, self.shared.n);
        self.on_message_ctx(&ctx, from, msg, fx);
    }

    fn on_tick(&mut self, fx: &mut Fx) {
        let ctx = Context::disabled(self.me, self.shared.n);
        self.on_tick_ctx(&ctx, fx);
    }

    fn on_input_ctx(&mut self, ctx: &Context, input: Vec<u8>, fx: &mut Fx) {
        self.hook(Class::Input, 0, (0, 0, 0), fx, |node, fx| {
            node.on_input_ctx(ctx, input, fx)
        });
    }

    fn on_message_ctx(&mut self, ctx: &Context, from: PartyId, msg: Msg, fx: &mut Fx) {
        let (class, bytes, tags) = if self.spans.is_some() {
            classify(&msg)
        } else {
            (Class::RsmCtl, 0, (0, 0, 0))
        };
        self.hook(class, bytes, tags, fx, |node, fx| {
            node.on_message_ctx(ctx, from, msg, fx)
        });
    }

    fn on_tick_ctx(&mut self, ctx: &Context, fx: &mut Fx) {
        self.hook(Class::Tick, 0, (0, 0, 0), fx, |node, fx| {
            node.on_tick_ctx(ctx, fx)
        });
    }

    fn on_link_up_ctx(&mut self, ctx: &Context, peer: PartyId, fx: &mut Fx) {
        self.node.on_link_up_ctx(ctx, peer, fx);
        let before = self.links.count_ones() as usize;
        if peer != self.me {
            self.links |= 1 << peer;
        }
        let n = self.shared.n;
        if before < n - 1 && self.links.count_ones() as usize == n - 1 {
            let linked = self.shared.linked.fetch_add(1, Ordering::SeqCst) + 1;
            if linked == n {
                let _ = self.shared.ready.set(Instant::now());
            }
        }
    }
}

/// `apply` and `snapshot` cost, summed over every replica of a run.
#[derive(Debug, Default)]
pub struct KvCost {
    pub apply_ns: AtomicU64,
    pub snapshot_ns: AtomicU64,
    pub snapshot_bytes: AtomicU64,
}

/// The KV machine wrapper: strips the request id, and in a traced run
/// times each call with the thread CPU clock.
#[derive(Debug)]
pub struct TimedKv {
    pub inner: KvMachine,
    cost: Option<Arc<KvCost>>,
}

impl TimedKv {
    pub fn new(cost: Option<Arc<KvCost>>) -> TimedKv {
        TimedKv {
            inner: KvMachine::new(),
            cost,
        }
    }
}

/// The KV operation inside a benchmark request.
pub fn op(request: &[u8]) -> &[u8] {
    request.get(ID_LEN..).unwrap_or(&[])
}

impl StateMachine for TimedKv {
    fn apply(&mut self, request: &[u8]) -> Vec<u8> {
        let Some(cost) = &self.cost else {
            return self.inner.apply(op(request));
        };
        let cpu0 = cpu::thread_ns();
        let out = self.inner.apply(op(request));
        cost.apply_ns
            .fetch_add(cpu::thread_ns() - cpu0, Ordering::Relaxed);
        out
    }

    fn snapshot(&self) -> Vec<u8> {
        let Some(cost) = &self.cost else {
            return self.inner.snapshot();
        };
        let cpu0 = cpu::thread_ns();
        let out = self.inner.snapshot();
        cost.snapshot_ns
            .fetch_add(cpu::thread_ns() - cpu0, Ordering::Relaxed);
        cost.snapshot_bytes
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }

    fn restore(&mut self, snapshot: &[u8]) -> bool {
        self.inner.restore(snapshot)
    }
}
