//! Loopback TCP runtime: the same protocol automata over real sockets.
//!
//! The paper's deployment target (§2.1) is n servers connected by an
//! *asynchronous point-to-point network* — the open Internet. The
//! deterministic simulator substitutes for that network in most tests;
//! this module closes the last gap by running the automata over genuine
//! TCP sockets with length-prefixed binary frames (see
//! [`crate::codec`]), so a message must actually survive serialization,
//! the kernel socket buffers, and a hostile peer's framing before a
//! protocol acts on it. The sockets themselves are driven by one epoll
//! event loop per node ([`crate::reactor`]); this module holds what the
//! node loop and the event loop share, and the node loops themselves.
//!
//! Two entry points:
//!
//! * [`run_tcp`] / [`run_tcp_observed`] — in-process harness: n nodes
//!   on ephemeral loopback ports, one OS thread per node plus its event
//!   loop, a stop predicate over the global outputs.
//! * [`run_tcp_node`] / [`run_tcp_node_driven`] — a *single* replica
//!   given explicit peer addresses, for true multi-process deployments
//!   (each OS process runs one replica; see `bench`'s `tcp_cluster`
//!   and `tcp_chaos` binaries). The stop predicate only sees local
//!   state, and a configurable linger keeps the replica forwarding
//!   traffic after it has decided so slower peers can finish.
//!
//! ## Mesh layout
//!
//! Links are unidirectional: party i dials one send-socket to every
//! peer j and accepts one receive-socket from each. A connection opens
//! with an 8-byte handshake (`magic ‖ sender id`, both u32 BE); frames
//! are `u32` BE length + body, capped at [`MAX_FRAME`]; a zero length
//! is an idle heartbeat, not a message. Outbound frames pass through a
//! *bounded* per-peer `Lane` (drop-oldest past a byte cap, counted as
//! `tcp_outbound_dropped`, so a crashed peer cannot grow sender memory
//! without limit) that the event loop drains in coalesced batches; it
//! connects lazily with jittered exponential backoff (peers boot — and
//! restart — at different times) and retries a batch whole after a
//! failed write. Malformed inbound traffic — bad magic, absurd lengths,
//! bodies that fail to decode — kills that connection only; the
//! counters record what was seen either way.
//!
//! ## Supervision
//!
//! Every outbound link runs a small state machine
//! (Connecting → Up ⇄ Degraded → Down): the event loop owns the
//! connectivity transitions and stamps a last-heard clock that idle
//! heartbeats keep fresh, and the node loop derives Degraded from
//! staleness, exports link gauges, and — on every completed
//! dial-plus-handshake — fires
//! [`Protocol::on_link_up_ctx`], which is how the replicated state
//! machine learns that a restarted peer is back and probes it into
//! state transfer.
//!
//! ## Chaos
//!
//! A [`ChaosConfig`](crate::chaos::ChaosConfig) in [`TcpNodeConfig`]
//! interposes seeded link faults (drop/garble/delay/reorder/throttle/
//! reset and scheduled partitions — see [`crate::chaos`]) between the
//! lane and the socket of every outbound link.
//!
//! Per-direction byte counters are plain atomics that the event loop
//! updates and the node thread folds into its [`Obs`] metrics at exit
//! (`net.tcp_bytes_sent` / `net.tcp_bytes_recv`), honoring the flight
//! recorder's single-writer contract — sockets never touch the
//! recorder directly.

use crate::chaos::ChaosConfig;
use crate::codec::{WireCodec, MAX_FRAME};
use crate::protocol::{Context, Effects, Protocol};
use crate::reactor::ReactorMesh;
use sintra_adversary::party::PartyId;
use sintra_obs::{Layer, MetricsSnapshot, Obs};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Handshake magic ("SNTR"): rejects strays that are not a sintra peer.
pub(crate) const MAGIC: u32 = 0x534E_5452;

/// Why an inbound connection's handshake was refused. The connection is
/// dropped either way; the variants exist so rejects are *countable*
/// and diagnosable rather than silently swallowed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HandshakeError {
    /// The peer closed (or stalled past the deadline) before sending
    /// the full 8-byte preamble.
    Truncated,
    /// The first word was not [`MAGIC`] — a stray or a port scanner.
    BadMagic(u32),
    /// The claimed sender id is outside `0..n`.
    BadParty {
        /// The id the peer claimed.
        claimed: u32,
        /// The mesh size it must be below.
        n: usize,
    },
}

impl core::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Truncated => write!(f, "handshake truncated"),
            Self::BadMagic(m) => write!(f, "bad handshake magic {m:#010x}"),
            Self::BadParty { claimed, n } => {
                write!(f, "claimed party {claimed} outside mesh of {n}")
            }
        }
    }
}

impl std::error::Error for HandshakeError {}

/// Parses the 8-byte preamble (`magic ‖ sender id`, both u32 BE).
pub(crate) fn parse_handshake(hs: &[u8; 8], n: usize) -> Result<PartyId, HandshakeError> {
    let (magic, peer) = hs.split_at(4);
    let magic = u32::from_be_bytes(magic.try_into().map_err(|_| HandshakeError::Truncated)?);
    let claimed = u32::from_be_bytes(peer.try_into().map_err(|_| HandshakeError::Truncated)?);
    if magic != MAGIC {
        return Err(HandshakeError::BadMagic(magic));
    }
    if claimed as usize >= n {
        return Err(HandshakeError::BadParty { claimed, n });
    }
    Ok(claimed as usize)
}

/// The event loop pulls queued frames from a lane up to this many
/// bytes at a time and coalesces them into vectored writes.
pub(crate) const COALESCE_BYTES: usize = 64 * 1024;

/// Node-loop granularity: inbox poll timeout and tick period.
/// Tick-driven logic (fdabc suspect timers, optimistic fallback
/// timeouts, ABC lookahead) counts ticks, not wall time, so the exact
/// period only scales those protocols' timeouts.
pub(crate) const TICK_EVERY: Duration = Duration::from_millis(5);

/// Default per-peer outbound queue cap. Roomy next to [`MAX_FRAME`]
/// (a single frame always fits) yet small enough that a peer that is
/// Down for minutes costs megabytes, not gigabytes.
pub const DEFAULT_QUEUE_BYTES: usize = 4 * 1024 * 1024;

/// How long the event loop waits for a dialer's 8-byte handshake
/// before dropping the connection as [`HandshakeError::Truncated`].
pub(crate) const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(2);

/// An idle outbound link sends a zero-length heartbeat frame at this
/// period so
/// the receiving side's staleness detector has something to hear.
pub(crate) const HEARTBEAT_EVERY: Duration = Duration::from_millis(200);

/// An Up link that has heard nothing (not even heartbeats) for this
/// long is marked Degraded.
const STALE_AFTER_MS: u64 = 1_000;

/// Hard deadline on a single outbound dial attempt. Without one, a
/// blackholed peer (SYN silently dropped — no RST) holds the connect
/// open for the kernel's SYN-retry schedule (minutes), during which
/// the jittered backoff never runs and the link never degrades.
pub(crate) const DIAL_TIMEOUT: Duration = Duration::from_secs(2);

/// Reconnect backoff bounds (the actual sleep is jittered ±50%).
pub(crate) const BACKOFF_MIN: Duration = Duration::from_millis(10);
pub(crate) const BACKOFF_MAX: Duration = Duration::from_millis(500);

/// Where a supervised outbound link stands. Transitions are advisory
/// timing signals (the asynchronous model admits no failure
/// detectors): Connecting/Up/Down are owned by the event loop,
/// Degraded is derived by the node loop from inbound staleness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkState {
    /// Dial in progress (or first dial not attempted yet).
    Connecting,
    /// Dial + handshake succeeded; writes are flowing.
    Up,
    /// Writes flow but the peer has been silent past the staleness
    /// horizon.
    Degraded,
    /// Last write or dial failed (or a partition window cut the link);
    /// redial pending.
    Down,
}

impl LinkState {
    fn as_u8(self) -> u8 {
        match self {
            LinkState::Connecting => 0,
            LinkState::Up => 1,
            LinkState::Degraded => 2,
            LinkState::Down => 3,
        }
    }

    fn from_u8(v: u8) -> LinkState {
        match v {
            0 => LinkState::Connecting,
            1 => LinkState::Up,
            2 => LinkState::Degraded,
            _ => LinkState::Down,
        }
    }
}

/// Shared per-peer link telemetry: the event loop publishes
/// connectivity and stamps the last-heard clock, the node loop
/// consumes both.
#[derive(Debug)]
pub(crate) struct LinkSupervisor {
    state: AtomicU8,
    /// Successful dial+handshake count; every increment is a Down→Up
    /// (or first) transition the node loop turns into an
    /// `on_link_up_ctx` callback.
    pub(crate) up_epochs: AtomicU64,
    /// Milliseconds since mesh start when the peer was last heard
    /// (frame or heartbeat), plus one; 0 means never.
    pub(crate) last_rx_ms: AtomicU64,
}

impl LinkSupervisor {
    pub(crate) fn new() -> LinkSupervisor {
        LinkSupervisor {
            state: AtomicU8::new(LinkState::Connecting.as_u8()),
            up_epochs: AtomicU64::new(0),
            last_rx_ms: AtomicU64::new(0),
        }
    }

    pub(crate) fn set(&self, s: LinkState) {
        self.state.store(s.as_u8(), Ordering::Relaxed);
    }

    pub(crate) fn get(&self) -> LinkState {
        LinkState::from_u8(self.state.load(Ordering::Relaxed))
    }

    /// Stamps the last-heard clock with `elapsed` since the mesh epoch.
    pub(crate) fn touch(&self, elapsed: Duration) {
        self.last_rx_ms
            .store(elapsed.as_millis() as u64 + 1, Ordering::Relaxed);
    }
}

/// Bounded outbound queue for one peer: drop-oldest past `cap` bytes,
/// every drop counted. Bounding here is what keeps a sender's memory
/// flat while a peer is Down — the PR-5 bounded-memory guarantee
/// extended to the wire.
///
/// Locking is *poison-tolerant*: a thread that panics while holding
/// the mutex poisons it, and propagating that would convert one dead
/// link into a panic on the protocol thread's next `push` — a
/// whole-node crash bought by a single I/O failure. Instead the guard
/// is recovered (the queue state is always consistent: byte accounting
/// happens under the same critical section as the queue mutation), the
/// recovery is counted in `lane_poisoned`, and the link merely stays
/// Down until redial.
#[derive(Debug)]
pub(crate) struct Lane {
    inner: Mutex<LaneInner>,
    cap: usize,
    dropped: Arc<AtomicU64>,
    poisoned: Arc<AtomicU64>,
}

#[derive(Debug, Default)]
struct LaneInner {
    q: VecDeque<Vec<u8>>,
    bytes: usize,
    closed: bool,
}

impl Lane {
    pub(crate) fn new(cap: usize, dropped: Arc<AtomicU64>, poisoned: Arc<AtomicU64>) -> Lane {
        Lane {
            inner: Mutex::new(LaneInner::default()),
            cap: cap.max(MAX_FRAME + 4),
            dropped,
            poisoned,
        }
    }

    /// Locks the queue, recovering (and counting) a poisoned mutex
    /// instead of propagating the dead thread's panic.
    fn lock(&self) -> std::sync::MutexGuard<'_, LaneInner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(e) => {
                self.poisoned.fetch_add(1, Ordering::Relaxed);
                e.into_inner()
            }
        }
    }

    /// Queues a frame, evicting oldest frames past the cap (the newest
    /// frame always survives). Returns `false` once closed.
    pub(crate) fn push(&self, frame: Vec<u8>) -> bool {
        let mut g = self.lock();
        if g.closed {
            return false;
        }
        g.bytes += frame.len();
        g.q.push_back(frame);
        while g.bytes > self.cap && g.q.len() > 1 {
            if let Some(old) = g.q.pop_front() {
                g.bytes -= old.len();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        true
    }

    /// Takes up to `max_bytes` of queued frames without waiting. The
    /// boolean is true once the lane is closed *and* drained.
    pub(crate) fn pop_batch(&self, max_bytes: usize) -> (Vec<Vec<u8>>, bool) {
        let mut g = self.lock();
        let mut out = Vec::new();
        let mut taken = 0usize;
        while taken < max_bytes {
            let Some(f) = g.q.pop_front() else { break };
            g.bytes -= f.len();
            taken += f.len();
            out.push(f);
        }
        let drained = g.closed && g.q.is_empty();
        (out, drained)
    }

    /// Bytes currently queued (the bounded-memory tests assert on it).
    #[cfg(test)]
    fn queued_bytes(&self) -> usize {
        self.lock().bytes
    }

    /// Whether nothing is queued (the reactor's park gate checks this
    /// before sleeping).
    pub(crate) fn is_empty(&self) -> bool {
        self.lock().q.is_empty()
    }

    pub(crate) fn close(&self) {
        self.lock().closed = true;
    }
}

/// Configuration for one replica of a TCP mesh (see [`run_tcp_node`]).
#[derive(Clone, Debug)]
pub struct TcpNodeConfig {
    /// This replica's party id (an index into `addrs`).
    pub me: PartyId,
    /// Listen/dial addresses of every party, indexed by party id.
    pub addrs: Vec<SocketAddr>,
    /// Overall wall-clock budget; the run reports `completed = false`
    /// if the stop predicate has not held by then.
    pub timeout: Duration,
    /// How long to keep processing and forwarding after the local stop
    /// predicate holds, so peers still mid-protocol can finish.
    pub linger: Duration,
    /// `Some(capacity)` enables per-node observability (flight
    /// recorder + metrics), as in [`run_tcp_observed`].
    pub recorder_capacity: Option<usize>,
    /// Seeded link-fault schedule for this node's outbound links;
    /// `None` runs a clean network.
    pub chaos: Option<ChaosConfig>,
    /// Per-peer outbound queue cap in bytes (see
    /// [`DEFAULT_QUEUE_BYTES`]); drop-oldest past it.
    pub queue_bytes: usize,
    /// Keep retrying a failed listener bind for this long — a replica
    /// restarted onto its old port races the kernel's TIME_WAIT
    /// teardown of its predecessor's sockets.
    pub bind_retry: Duration,
}

impl TcpNodeConfig {
    /// A clean-network config with default queue bound, no chaos, no
    /// bind retry, and no recorder.
    pub fn new(me: PartyId, addrs: Vec<SocketAddr>, timeout: Duration, linger: Duration) -> Self {
        TcpNodeConfig {
            me,
            addrs,
            timeout,
            linger,
            recorder_capacity: None,
            chaos: None,
            queue_bytes: DEFAULT_QUEUE_BYTES,
            bind_retry: Duration::ZERO,
        }
    }
}

/// Outcome of a [`run_tcp_node`] run.
#[derive(Debug)]
pub struct TcpNodeReport<O> {
    /// Local outputs in delivery order.
    pub outputs: Vec<O>,
    /// Whether the stop predicate held before the timeout.
    pub completed: bool,
    /// Messages this replica addressed outside `0..n` (dropped).
    pub dropped: u64,
    /// Frame bytes written to peers (handshakes excluded).
    pub bytes_sent: u64,
    /// Frame bytes read from peers (handshakes excluded).
    pub bytes_recv: u64,
    /// Inbound connections dropped for a bad handshake (see
    /// [`HandshakeError`]).
    pub handshake_rejects: u64,
    /// Frames evicted from bounded outbound queues (drop-oldest).
    pub outbound_dropped: u64,
    /// Poisoned-lane recoveries: a thread died mid-lock and the guard
    /// was recovered instead of propagating the panic. Nonzero
    /// means a link failed hard but the node kept running.
    pub lane_poisoned: u64,
    /// Chaos interposer tallies: (dropped, garbled, resets, delayed,
    /// reordered) — all zero without a [`ChaosConfig`].
    pub chaos_counts: (u64, u64, u64, u64, u64),
    /// Metrics snapshot — empty unless a recorder capacity was set.
    pub metrics: MetricsSnapshot,
}

/// Event-loop telemetry the reactor folds into its stats.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ReactorStats {
    /// High-water mark of fds registered with epoll at once.
    pub(crate) fds_peak: u64,
    /// `epoll_wait` returns (each is one batch of events or a tick).
    pub(crate) wakeups: u64,
    /// Read-buffer pool: fresh allocations vs. recycled buffers.
    pub(crate) pool_allocations: u64,
    pub(crate) pool_recycles: u64,
}

/// Counters a mesh returns at teardown.
pub(crate) struct MeshStats {
    pub(crate) bytes_sent: u64,
    pub(crate) bytes_recv: u64,
    pub(crate) handshake_rejects: u64,
    pub(crate) outbound_dropped: u64,
    pub(crate) lane_poisoned: u64,
    pub(crate) chaos: (u64, u64, u64, u64, u64),
    pub(crate) reactor: ReactorStats,
}

/// Per-node link bookkeeping for the node loops: turns event-loop
/// up-epoch increments into `on_link_up_ctx` callbacks, derives the
/// Degraded state from inbound staleness, and exports link gauges.
pub(crate) struct LinkWatch {
    seen_epochs: Vec<u64>,
}

impl LinkWatch {
    pub(crate) fn new(n: usize) -> LinkWatch {
        LinkWatch {
            seen_epochs: vec![0; n],
        }
    }

    pub(crate) fn poll<P: Protocol>(
        &mut self,
        epoch: Instant,
        supervisors: &[Option<Arc<LinkSupervisor>>],
        node: &mut P,
        ctx: &Context,
        fx: &mut Effects<P::Message, P::Output>,
    ) {
        let now_ms = epoch.elapsed().as_millis() as u64;
        let mut up = 0u64;
        for (peer, sup) in supervisors.iter().enumerate() {
            let Some(sup) = sup else { continue };
            let e = sup.up_epochs.load(Ordering::Relaxed);
            if e > self.seen_epochs[peer] {
                self.seen_epochs[peer] = e;
                ctx.obs.inc(Layer::Net, "link_up");
                node.on_link_up_ctx(ctx, peer, fx);
            }
            let last = sup.last_rx_ms.load(Ordering::Relaxed);
            let stale = last != 0 && now_ms.saturating_sub(last) > STALE_AFTER_MS;
            match sup.get() {
                LinkState::Up if stale => {
                    sup.set(LinkState::Degraded);
                    ctx.obs.inc(Layer::Net, "link_degraded");
                }
                LinkState::Degraded if !stale => sup.set(LinkState::Up),
                _ => {}
            }
            if matches!(sup.get(), LinkState::Up | LinkState::Degraded) {
                up += 1;
            }
        }
        if ctx.obs.is_enabled() {
            ctx.obs.gauge_set(Layer::Net, "links_up", up);
        }
    }
}

/// Binds the local listener, retrying for `cfg.bind_retry` — a
/// restarted replica can race TIME_WAIT teardown on its own port.
fn bind_with_retry(cfg: &TcpNodeConfig) -> io::Result<TcpListener> {
    let deadline = Instant::now() + cfg.bind_retry;
    loop {
        match TcpListener::bind(cfg.addrs[cfg.me]) {
            Ok(l) => return Ok(l),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Runs one replica of a TCP mesh to completion — the multi-process
/// entry point (one call per OS process; see `tcp_cluster` in the
/// bench crate).
///
/// Binds `cfg.addrs[cfg.me]`, connects to every peer with
/// retry/backoff, injects `inputs` locally, then drives the automaton:
/// inbox messages, periodic ticks, link-up callbacks, and outbound
/// effects over the wire. After `stop` first holds over the local
/// outputs, the replica keeps running for `cfg.linger` so its
/// shares/acks still reach slower peers, then tears the mesh down.
///
/// # Errors
///
/// Returns an error only for local socket setup failures (bind);
/// peer-level connection trouble is retried, not surfaced.
pub fn run_tcp_node<P>(
    cfg: &TcpNodeConfig,
    node: P,
    inputs: Vec<P::Input>,
    stop: impl Fn(&[P::Output]) -> bool,
) -> io::Result<TcpNodeReport<P::Output>>
where
    P: Protocol,
    P::Message: WireCodec + Send + 'static,
{
    let mut pending = Some(inputs);
    let (report, _node) = run_tcp_node_driven(
        cfg,
        node,
        move |node, ctx, fx| {
            if let Some(inputs) = pending.take() {
                for input in inputs {
                    node.on_input_ctx(ctx, input, fx);
                }
            }
        },
        |_node, outputs| stop(outputs),
    )?;
    Ok(report)
}

/// [`run_tcp_node`] with a *driver* instead of a fixed input vector:
/// the driver runs on every tick (and once at startup) with mutable
/// access to the automaton, so a campaign can pace inputs over wall
/// time; the stop predicate sees the automaton itself, so completion
/// can key off internal state (a replica's applied watermark) rather
/// than only emitted outputs — a restarted replica that caught up by
/// state transfer never re-emits the replies it missed. Returns the
/// final automaton alongside the report for post-run inspection.
///
/// # Errors
///
/// Returns an error only for local socket setup failures (bind);
/// peer-level connection trouble is retried, not surfaced.
pub fn run_tcp_node_driven<P>(
    cfg: &TcpNodeConfig,
    mut node: P,
    mut driver: impl FnMut(&mut P, &Context, &mut Effects<P::Message, P::Output>),
    stop: impl Fn(&P, &[P::Output]) -> bool,
) -> io::Result<(TcpNodeReport<P::Output>, P)>
where
    P: Protocol,
    P::Message: WireCodec + Send + 'static,
{
    let n = cfg.addrs.len();
    let listener = bind_with_retry(cfg)?;
    let mesh: ReactorMesh<P::Message> = ReactorMesh::start(
        cfg.me,
        &cfg.addrs,
        listener,
        cfg.chaos.as_ref(),
        cfg.queue_bytes,
    )?;
    let obs = match cfg.recorder_capacity {
        Some(cap) => Obs::enabled(cap),
        None => Obs::disabled(),
    };

    let started = Instant::now();
    let deadline = started + cfg.timeout;
    let mut fx: Effects<P::Message, P::Output> = Effects::for_parties(n);
    let mut outputs: Vec<P::Output> = Vec::new();
    let mut dropped = 0u64;
    let mut completed = false;
    let mut linger_until: Option<Instant> = None;
    let mut last_tick = Instant::now();
    let mut links = LinkWatch::new(n);

    let ctx_at = |started: Instant, obs: &Obs| Context {
        me: cfg.me,
        n,
        at: started.elapsed().as_nanos() as u64,
        obs: obs.clone(),
    };

    {
        let ctx = ctx_at(started, &obs);
        driver(&mut node, &ctx, &mut fx);
    }

    loop {
        let now = Instant::now();
        if now > deadline {
            break;
        }
        if let Some(until) = linger_until {
            if now >= until {
                break;
            }
        }
        let mut worked = !fx.sends().is_empty() || !fx.outputs().is_empty();
        let ctx = ctx_at(started, &obs);
        if let Some((from, msg)) = mesh.recv_timeout(TICK_EVERY) {
            let handle_started = Instant::now();
            node.on_message_ctx(&ctx, from, msg, &mut fx);
            if obs.is_enabled() {
                obs.inc(Layer::Net, "recv");
                obs.observe(
                    Layer::Net,
                    "handle_ns",
                    handle_started.elapsed().as_nanos() as u64,
                );
            }
            worked = true;
        }
        if last_tick.elapsed() >= TICK_EVERY {
            last_tick = Instant::now();
            driver(&mut node, &ctx, &mut fx);
            node.on_tick_ctx(&ctx, &mut fx);
            if obs.is_enabled() {
                obs.inc(Layer::Net, "tick");
            }
            links.poll(mesh.epoch(), mesh.supervisors(), &mut node, &ctx, &mut fx);
            worked = true;
        }
        if worked {
            outputs.extend(fx.take_outputs());
            for (to, msg) in fx.take_sends() {
                if obs.is_enabled() {
                    obs.inc(Layer::Net, "sent");
                }
                if !mesh.send(to, msg) {
                    dropped += 1;
                    if obs.is_enabled() {
                        obs.inc(Layer::Net, "dropped_route");
                    }
                }
            }
            if !completed && stop(&node, &outputs) {
                completed = true;
                linger_until = Some(Instant::now() + cfg.linger);
            }
        }
    }

    let stats = mesh.shutdown();
    record_mesh_stats(&obs, &stats);
    Ok((
        TcpNodeReport {
            outputs,
            completed,
            dropped,
            bytes_sent: stats.bytes_sent,
            bytes_recv: stats.bytes_recv,
            handshake_rejects: stats.handshake_rejects,
            outbound_dropped: stats.outbound_dropped,
            lane_poisoned: stats.lane_poisoned,
            chaos_counts: stats.chaos,
            metrics: obs.metrics_snapshot(),
        },
        node,
    ))
}

/// Folds a torn-down mesh's counters into the node's metrics.
fn record_mesh_stats(obs: &Obs, stats: &MeshStats) {
    if !obs.is_enabled() {
        return;
    }
    obs.add(Layer::Net, "tcp_bytes_sent", stats.bytes_sent);
    obs.add(Layer::Net, "tcp_bytes_recv", stats.bytes_recv);
    obs.add(Layer::Net, "handshake_rejected", stats.handshake_rejects);
    obs.add(Layer::Net, "tcp_outbound_dropped", stats.outbound_dropped);
    obs.add(Layer::Net, "lane_poisoned", stats.lane_poisoned);
    let (cd, cg, cr, cl, co) = stats.chaos;
    obs.add(Layer::Net, "chaos_dropped", cd);
    obs.add(Layer::Net, "chaos_garbled", cg);
    obs.add(Layer::Net, "chaos_resets", cr);
    obs.add(Layer::Net, "chaos_delayed", cl);
    obs.add(Layer::Net, "chaos_reordered", co);
    obs.gauge_set(Layer::Net, "reactor_fds_peak", stats.reactor.fds_peak);
    obs.add(Layer::Net, "reactor_wakeups", stats.reactor.wakeups);
    obs.add(
        Layer::Net,
        "pool_allocations",
        stats.reactor.pool_allocations,
    );
    obs.add(Layer::Net, "pool_recycles", stats.reactor.pool_recycles);
}

/// Outcome of a [`run_tcp`] run.
#[derive(Debug)]
pub struct ThreadRunReport<O> {
    /// Outputs per party, in local delivery order.
    pub outputs: Vec<Vec<O>>,
    /// Total messages delivered to the automata.
    pub delivered: u64,
    /// Messages addressed outside `0..n` and therefore not routable.
    /// Nonzero means a protocol bug (or an injected fault) is emitting
    /// bogus destinations.
    pub dropped: u64,
    /// Whether the stop predicate was satisfied (vs. timeout).
    pub completed: bool,
    /// Per-party metrics snapshots — empty unless the run was started
    /// with [`run_tcp_observed`]. Wall-clock handling latencies land
    /// in the `net.handle_ns` histogram.
    pub metrics: Vec<MetricsSnapshot>,
}

/// Runs `nodes` against each other over loopback TCP until `stop`
/// holds over the global output vectors or `timeout` elapses.
///
/// `inputs` are injected at the named parties as their threads start;
/// each node runs on its own OS thread, so integration tests see
/// genuine interleaving nondeterminism on top of real sockets.
///
/// # Errors
///
/// Returns an error if binding the loopback listeners fails.
pub fn run_tcp<P>(
    nodes: Vec<P>,
    inputs: Vec<(PartyId, P::Input)>,
    stop: impl Fn(&[Vec<P::Output>]) -> bool,
    timeout: Duration,
) -> io::Result<ThreadRunReport<P::Output>>
where
    P: Protocol + Send + 'static,
    P::Message: WireCodec + Send + 'static,
    P::Input: Send + 'static,
    P::Output: Clone + Send + 'static,
{
    run_tcp_observed(nodes, inputs, stop, timeout, None)
}

/// [`run_tcp`] with per-node instrumentation: when
/// `recorder_capacity` is `Some`, every node thread gets an enabled
/// [`Obs`] whose metrics include wall-clock message-handling latency
/// (`net.handle_ns`), per-direction message counters, and the mesh
/// byte counters (`net.tcp_bytes_sent` / `net.tcp_bytes_recv`); the
/// snapshots are taken after the node threads are joined, honoring the
/// flight-recorder single-writer contract.
///
/// # Errors
///
/// Returns an error if binding the loopback listeners fails.
pub fn run_tcp_observed<P>(
    nodes: Vec<P>,
    inputs: Vec<(PartyId, P::Input)>,
    stop: impl Fn(&[Vec<P::Output>]) -> bool,
    timeout: Duration,
    recorder_capacity: Option<usize>,
) -> io::Result<ThreadRunReport<P::Output>>
where
    P: Protocol + Send + 'static,
    P::Message: WireCodec + Send + 'static,
    P::Input: Send + 'static,
    P::Output: Clone + Send + 'static,
{
    let n = nodes.len();
    // Bind every listener first so the addresses exist before any node
    // dials out.
    let mut listeners = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        addrs.push(listener.local_addr()?);
        listeners.push(listener);
    }

    let obs: Vec<Obs> = match recorder_capacity {
        Some(cap) => (0..n).map(|_| Obs::enabled(cap)).collect(),
        None => vec![Obs::disabled(); n],
    };
    let outputs: Arc<Mutex<Vec<Vec<P::Output>>>> =
        Arc::new(Mutex::new((0..n).map(|_| Vec::new()).collect()));
    let delivered = Arc::new(AtomicU64::new(0));
    let dropped = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));

    let mut input_map: Vec<Vec<P::Input>> = (0..n).map(|_| Vec::new()).collect();
    for (party, input) in inputs {
        input_map[party].push(input);
    }

    let mut handles = Vec::with_capacity(n);
    for ((party, mut node), listener) in nodes.into_iter().enumerate().zip(listeners) {
        let addrs = addrs.clone();
        let my_inputs = std::mem::take(&mut input_map[party]);
        let outputs = Arc::clone(&outputs);
        let delivered = Arc::clone(&delivered);
        let dropped = Arc::clone(&dropped);
        let done = Arc::clone(&done);
        let my_obs = obs[party].clone();
        handles.push(std::thread::spawn(move || {
            let mesh: ReactorMesh<P::Message> =
                match ReactorMesh::start(party, &addrs, listener, None, DEFAULT_QUEUE_BYTES) {
                    Ok(mesh) => mesh,
                    Err(_) => return,
                };
            let started = Instant::now();
            let mut fx: Effects<P::Message, P::Output> = Effects::for_parties(n);
            let mut last_tick = Instant::now();
            let mut links = LinkWatch::new(n);
            {
                let ctx = Context {
                    me: party,
                    n,
                    at: 0,
                    obs: my_obs.clone(),
                };
                for input in my_inputs {
                    node.on_input_ctx(&ctx, input, &mut fx);
                }
            }
            loop {
                if done.load(Ordering::Relaxed) {
                    break;
                }
                let mut worked = !fx.sends().is_empty() || !fx.outputs().is_empty();
                let ctx = Context {
                    me: party,
                    n,
                    at: started.elapsed().as_nanos() as u64,
                    obs: my_obs.clone(),
                };
                if let Some((from, msg)) = mesh.recv_timeout(TICK_EVERY) {
                    let handle_started = Instant::now();
                    node.on_message_ctx(&ctx, from, msg, &mut fx);
                    if my_obs.is_enabled() {
                        my_obs.inc(Layer::Net, "recv");
                        my_obs.observe(
                            Layer::Net,
                            "handle_ns",
                            handle_started.elapsed().as_nanos() as u64,
                        );
                    }
                    delivered.fetch_add(1, Ordering::Relaxed);
                    worked = true;
                }
                // Fire the periodic tick whether or not messages are
                // flowing, so a busy node still observes time passing.
                if last_tick.elapsed() >= TICK_EVERY {
                    last_tick = Instant::now();
                    node.on_tick_ctx(&ctx, &mut fx);
                    if my_obs.is_enabled() {
                        my_obs.inc(Layer::Net, "tick");
                    }
                    links.poll(mesh.epoch(), mesh.supervisors(), &mut node, &ctx, &mut fx);
                    worked = true;
                }
                if worked {
                    let outs = fx.take_outputs();
                    if !outs.is_empty() {
                        lock_outputs(&outputs)[party].extend(outs);
                    }
                    for (to, msg) in fx.take_sends() {
                        if my_obs.is_enabled() {
                            my_obs.inc(Layer::Net, "sent");
                        }
                        if !mesh.send(to, msg) {
                            dropped.fetch_add(1, Ordering::Relaxed);
                            if my_obs.is_enabled() {
                                my_obs.inc(Layer::Net, "dropped_route");
                            }
                        }
                    }
                }
            }
            record_mesh_stats(&my_obs, &mesh.shutdown());
        }));
    }

    let deadline = Instant::now() + timeout;
    let mut completed = false;
    while Instant::now() < deadline {
        if stop(&lock_outputs(&outputs)) {
            completed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    done.store(true, Ordering::Relaxed);
    for h in handles {
        let _ = h.join();
    }
    let outputs = std::mem::take(&mut *lock_outputs(&outputs));
    Ok(ThreadRunReport {
        outputs,
        delivered: delivered.load(Ordering::Relaxed),
        dropped: dropped.load(Ordering::Relaxed),
        completed,
        metrics: obs.iter().map(|o| o.metrics_snapshot()).collect(),
    })
}

/// Locks the shared output vectors; a node thread that panicked
/// mid-extend leaves them consistent, so poisoning is ignored.
fn lock_outputs<O>(outputs: &Mutex<Vec<Vec<O>>>) -> std::sync::MutexGuard<'_, Vec<Vec<O>>> {
    outputs.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{LinkFaults, Partition};
    use crate::codec::{encode_frame, CodecError, Reader};
    use std::io::{Read as _, Write as _};
    use std::net::{Shutdown, TcpStream};

    /// Gossip over real sockets: each node broadcasts its input; every
    /// node outputs what it hears.
    #[derive(Debug)]
    struct Gossip;

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Word(u64);

    impl WireCodec for Word {
        fn encode_into(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.0.to_be_bytes());
        }

        fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            Ok(Word(r.u64()?))
        }
    }

    impl Protocol for Gossip {
        type Message = Word;
        type Input = u64;
        type Output = (PartyId, u64);

        fn on_input(&mut self, v: u64, fx: &mut Effects<Word, (PartyId, u64)>) {
            fx.broadcast(Word(v));
        }

        fn on_message(&mut self, from: PartyId, w: Word, fx: &mut Effects<Word, (PartyId, u64)>) {
            fx.output((from, w.0));
        }
    }

    fn honest_handshake(addr: SocketAddr, claim: u32) -> TcpStream {
        let mut s = TcpStream::connect(addr).expect("connect");
        let mut hs = [0u8; 8];
        hs[..4].copy_from_slice(&MAGIC.to_be_bytes());
        hs[4..].copy_from_slice(&claim.to_be_bytes());
        s.write_all(&hs).expect("write");
        s
    }

    /// Starts a mesh for party 0 whose only peer (party 1) sits at
    /// `peer`, which the test controls.
    fn mesh_towards(peer: SocketAddr) -> (ReactorMesh<Word>, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mesh = ReactorMesh::start(0, &[addr, peer], listener, None, DEFAULT_QUEUE_BYTES)
            .expect("mesh");
        (mesh, addr)
    }

    /// Starts a two-party `(sender, receiver)` mesh pair.
    fn mesh_pair(chaos: Option<&ChaosConfig>) -> (ReactorMesh<Word>, ReactorMesh<Word>) {
        let l0 = TcpListener::bind("127.0.0.1:0").expect("bind");
        let l1 = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addrs = vec![l0.local_addr().expect("a"), l1.local_addr().expect("a")];
        let a = ReactorMesh::start(0, &addrs, l0, chaos, DEFAULT_QUEUE_BYTES).expect("mesh");
        let b = ReactorMesh::start(1, &addrs, l1, None, DEFAULT_QUEUE_BYTES).expect("mesh");
        (a, b)
    }

    /// An address where nothing listens: connections are refused.
    fn refused_addr() -> SocketAddr {
        "127.0.0.1:1".parse().expect("addr")
    }

    /// The reactor's own bookkeeping after a case: the event loop
    /// actually ran, and it never held more fds than the listener, the
    /// doorbell and the `conns` sockets the case can have open at once
    /// (refused redials and dropped handshakes are closed, not leaked).
    fn assert_reactor_accounting(stats: &MeshStats, conns: u64) {
        assert!(stats.reactor.wakeups > 0, "the event loop actually span");
        assert!(
            stats.reactor.fds_peak <= 2 + conns,
            "fd high-water mark {} exceeds listener + doorbell + {conns}",
            stats.reactor.fds_peak
        );
    }

    /// Four-party gossip over `run_tcp_observed`; returns each party's
    /// metrics after checking delivery and the transport counters.
    fn gossip_case() -> Vec<MetricsSnapshot> {
        let n = 4;
        let nodes: Vec<Gossip> = (0..n).map(|_| Gossip).collect();
        let inputs: Vec<(PartyId, u64)> = (0..n).map(|p| (p, p as u64 * 3)).collect();
        let report = run_tcp_observed(
            nodes,
            inputs,
            move |outs: &[Vec<(PartyId, u64)>]| outs.iter().all(|o| o.len() >= n),
            Duration::from_secs(30),
            Some(128),
        )
        .expect("loopback sockets bind");
        assert!(report.completed, "all parties hear all four broadcasts");
        for (party, outs) in report.outputs.iter().enumerate() {
            for from in 0..n {
                assert!(
                    outs.contains(&(from, from as u64 * 3)),
                    "party {party} heard {from}"
                );
            }
        }
        assert_eq!(report.metrics.len(), n);
        let mut merged = MetricsSnapshot::default();
        for m in &report.metrics {
            merged.merge(m);
        }
        assert!(
            merged.counter("net.tcp_bytes_sent") > 0,
            "bytes crossed real sockets"
        );
        assert!(merged.counter("net.tcp_bytes_recv") > 0);
        assert!(
            merged.counter("net.link_up") > 0,
            "link supervisors saw connections come up"
        );
        report.metrics
    }

    #[test]
    fn tcp_gossip_delivers_everything() {
        gossip_case();
    }

    #[test]
    fn tcp_gossip_delivers_everything_on_reactor() {
        let metrics = gossip_case();
        let n = metrics.len() as u64;
        for (party, m) in metrics.iter().enumerate() {
            assert!(
                m.counter("net.reactor_wakeups") > 0,
                "party {party}'s event loop actually span"
            );
            // One outbound and at most one inbound socket per remote peer.
            let peak = m.gauges["net.reactor_fds_peak"];
            assert!(
                peak <= 2 + 2 * (n - 1),
                "party {party} peaked at {peak} fds"
            );
        }
    }

    #[test]
    fn threaded_gossip_delivers_everything() {
        let n = 4;
        let nodes: Vec<Gossip> = (0..n).map(|_| Gossip).collect();
        let inputs: Vec<(PartyId, u64)> = (0..n).map(|p| (p, p as u64 * 11)).collect();
        let report = run_tcp(
            nodes,
            inputs,
            move |outs: &[Vec<(PartyId, u64)>]| outs.iter().all(|o| o.len() >= n),
            Duration::from_secs(10),
        )
        .expect("loopback sockets bind");
        assert!(report.completed, "all parties hear all four broadcasts");
        for o in &report.outputs {
            assert!(o.len() >= n);
        }
        assert!(report.delivered >= (n * (n - 1)) as u64);
    }

    #[test]
    fn observed_run_collects_wall_clock_metrics() {
        let n = 3;
        let nodes: Vec<Gossip> = (0..n).map(|_| Gossip).collect();
        let inputs: Vec<(PartyId, u64)> = (0..n).map(|p| (p, p as u64)).collect();
        let report = run_tcp_observed(
            nodes,
            inputs,
            move |outs: &[Vec<(PartyId, u64)>]| outs.iter().all(|o| o.len() >= n),
            Duration::from_secs(10),
            Some(256),
        )
        .expect("loopback sockets bind");
        assert!(report.completed);
        assert_eq!(report.metrics.len(), n);
        let mut merged = MetricsSnapshot::default();
        for m in &report.metrics {
            merged.merge(m);
        }
        assert!(merged.counter("net.recv") > 0, "messages were counted");
        assert!(
            merged.hists["net.handle_ns"].count > 0,
            "wall-clock handling latency was observed"
        );
    }

    #[test]
    fn unobserved_run_reports_empty_metrics() {
        let nodes: Vec<Gossip> = (0..2).map(|_| Gossip).collect();
        let report = run_tcp(
            nodes,
            vec![(0, 1u64)],
            |outs: &[Vec<(PartyId, u64)>]| outs.iter().all(|o| !o.is_empty()),
            Duration::from_secs(5),
        )
        .expect("loopback sockets bind");
        assert!(report.metrics.iter().all(|m| m.is_empty()));
    }

    /// Broadcasts only from `on_tick`: silent until the runtime drives
    /// time forward, like fdabc suspect timers or optimistic fallback
    /// timeouts.
    #[derive(Debug)]
    struct TickBeacon {
        armed: bool,
        fired: bool,
    }

    impl Protocol for TickBeacon {
        type Message = Word;
        type Input = u64;
        type Output = (PartyId, u64);

        fn on_input(&mut self, _v: u64, _fx: &mut Effects<Word, (PartyId, u64)>) {
            self.armed = true;
        }

        fn on_message(&mut self, from: PartyId, w: Word, fx: &mut Effects<Word, (PartyId, u64)>) {
            fx.output((from, w.0));
        }

        fn on_tick(&mut self, fx: &mut Effects<Word, (PartyId, u64)>) {
            if self.armed && !self.fired {
                self.fired = true;
                fx.broadcast(Word(99));
            }
        }
    }

    #[test]
    fn tick_dependent_protocol_makes_progress_on_threads() {
        let n = 4;
        let nodes: Vec<TickBeacon> = (0..n)
            .map(|_| TickBeacon {
                armed: false,
                fired: false,
            })
            .collect();
        let report = run_tcp_observed(
            nodes,
            vec![(0, 1u64)],
            move |outs: &[Vec<(PartyId, u64)>]| outs.iter().all(|o| o.iter().any(|&(f, _)| f == 0)),
            Duration::from_secs(10),
            Some(64),
        )
        .expect("loopback sockets bind");
        assert!(
            report.completed,
            "on_tick must fire on every node thread (tick-starvation regression)"
        );
        let mut merged = MetricsSnapshot::default();
        for m in &report.metrics {
            merged.merge(m);
        }
        assert!(merged.counter("net.tick") > 0, "ticks were counted");
    }

    /// Sends every payload to a bogus party id; the node loop must
    /// count the drops instead of losing them silently.
    #[derive(Debug)]
    struct Misaddresser;

    impl Protocol for Misaddresser {
        type Message = Word;
        type Input = u64;
        type Output = u64;

        fn on_input(&mut self, v: u64, fx: &mut Effects<Word, u64>) {
            fx.send(usize::MAX, Word(v));
            fx.output(v);
        }

        fn on_message(&mut self, _from: PartyId, _w: Word, _fx: &mut Effects<Word, u64>) {}
    }

    #[test]
    fn out_of_range_routes_are_counted_not_silent() {
        let nodes: Vec<Misaddresser> = (0..2).map(|_| Misaddresser).collect();
        let report = run_tcp_observed(
            nodes,
            vec![(0, 7u64), (1, 8u64)],
            |outs: &[Vec<u64>]| outs.iter().all(|o| !o.is_empty()),
            Duration::from_secs(10),
            Some(64),
        )
        .expect("loopback sockets bind");
        assert!(report.completed);
        assert_eq!(report.dropped, 2, "both bogus destinations counted");
        let mut merged = MetricsSnapshot::default();
        for m in &report.metrics {
            merged.merge(m);
        }
        assert_eq!(merged.counter("net.dropped_route"), 2);
    }

    #[test]
    fn timeout_reports_incomplete() {
        // Stop predicate never satisfied; must return by timeout.
        let nodes: Vec<Gossip> = (0..2).map(|_| Gossip).collect();
        let report = run_tcp(
            nodes,
            vec![],
            |_: &[Vec<(PartyId, u64)>]| false,
            Duration::from_millis(200),
        )
        .expect("loopback sockets bind");
        assert!(!report.completed);
    }

    #[test]
    fn handshake_parse_classifies_errors() {
        let mut hs = [0u8; 8];
        hs[..4].copy_from_slice(&MAGIC.to_be_bytes());
        hs[4..].copy_from_slice(&2u32.to_be_bytes());
        assert_eq!(parse_handshake(&hs, 4), Ok(2));
        assert_eq!(
            parse_handshake(&hs, 2),
            Err(HandshakeError::BadParty { claimed: 2, n: 2 })
        );
        hs[..4].copy_from_slice(&0xDEAD_BEEFu32.to_be_bytes());
        assert_eq!(
            parse_handshake(&hs, 4),
            Err(HandshakeError::BadMagic(0xDEAD_BEEF))
        );
    }

    fn garbage_handshake_case() -> MeshStats {
        // Peer 1's address refuses: the mesh keeps redialing it in the
        // background while it screens the inbound connections below.
        let (mesh, addr) = mesh_towards(refused_addr());

        // Wrong magic: dropped, and the socket sees EOF, not a frame.
        {
            let mut s = TcpStream::connect(addr).expect("connect");
            let mut hs = [0u8; 8];
            hs[..4].copy_from_slice(&0xDEAD_BEEFu32.to_be_bytes());
            s.write_all(&hs).expect("write");
            let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
            let mut buf = [0u8; 1];
            assert_eq!(s.read(&mut buf).unwrap_or(0), 0, "connection dropped");
        }
        // Truncated handshake: close after three bytes.
        {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&MAGIC.to_be_bytes()[..3]).expect("write");
        }
        // Out-of-range sender id.
        {
            let mut s = TcpStream::connect(addr).expect("connect");
            let mut hs = [0u8; 8];
            hs[..4].copy_from_slice(&MAGIC.to_be_bytes());
            hs[4..].copy_from_slice(&7u32.to_be_bytes());
            s.write_all(&hs).expect("write");
        }
        // An honest peer still gets through afterwards.
        let mut s = honest_handshake(addr, 1);
        s.write_all(&encode_frame(&Word(7)).expect("fits"))
            .expect("write");
        let got = mesh
            .recv_timeout(Duration::from_secs(10))
            .expect("frame delivered");
        assert_eq!(got, (1, Word(7)));
        let stats = mesh.shutdown();
        assert_eq!(
            stats.handshake_rejects, 3,
            "each garbage connection counted once"
        );
        stats
    }

    #[test]
    fn garbage_handshakes_are_rejected_and_counted() {
        garbage_handshake_case();
    }

    #[test]
    fn garbage_handshakes_are_rejected_and_counted_on_reactor() {
        // Four inbound connections plus one redial socket.
        assert_reactor_accounting(&garbage_handshake_case(), 5);
    }

    fn mid_handshake_case() -> MeshStats {
        let (mesh, addr) = mesh_towards(refused_addr());

        // Connect and vanish without a single byte.
        {
            let s = TcpStream::connect(addr).expect("connect");
            drop(s);
        }
        // Half a magic word, then a close.
        {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&MAGIC.to_be_bytes()[..2]).expect("write");
            let _ = s.shutdown(Shutdown::Both);
            drop(s);
        }
        // Full magic but only half the party id.
        {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&MAGIC.to_be_bytes()).expect("write");
            s.write_all(&[0u8; 2]).expect("write");
            drop(s);
        }
        // The listener survives all three and still serves honest peers.
        let mut s = honest_handshake(addr, 1);
        s.write_all(&encode_frame(&Word(11)).expect("fits"))
            .expect("write");
        let got = mesh
            .recv_timeout(Duration::from_secs(10))
            .expect("frame delivered");
        assert_eq!(got, (1, Word(11)));
        let stats = mesh.shutdown();
        assert_eq!(
            stats.handshake_rejects, 3,
            "every aborted handshake counted"
        );
        stats
    }

    #[test]
    fn mid_handshake_disconnects_are_tolerated() {
        mid_handshake_case();
    }

    #[test]
    fn mid_handshake_disconnects_are_tolerated_on_reactor() {
        // Four inbound connections plus one redial socket.
        assert_reactor_accounting(&mid_handshake_case(), 5);
    }

    fn silent_stray_case() -> MeshStats {
        let (mesh, addr) = mesh_towards(refused_addr());

        // A stray that connects and stays silent: the handshake
        // deadline (2s) must cut it loose rather than hold its
        // connection open forever.
        let stray = TcpStream::connect(addr).expect("connect");
        // An honest peer dialing *behind* the stray is served while the
        // stray's clock runs: a silent connection never blocks others.
        let t = std::thread::spawn(move || {
            let mut s = honest_handshake(addr, 1);
            s.write_all(&encode_frame(&Word(23)).expect("fits"))
                .expect("write");
            s
        });
        let got = mesh
            .recv_timeout(Duration::from_secs(10))
            .expect("frame delivered while the stray is pending");
        assert_eq!(got, (1, Word(23)));
        // Wait out the deadline before reading the reject counter.
        std::thread::sleep(HANDSHAKE_DEADLINE + Duration::from_millis(300));
        let stats = mesh.shutdown();
        assert_eq!(stats.handshake_rejects, 1, "silent stray counted");
        drop(stray);
        drop(t.join());
        stats
    }

    #[test]
    fn handshake_timeout_rejects_silent_strays() {
        silent_stray_case();
    }

    #[test]
    fn handshake_timeout_rejects_silent_strays_on_reactor() {
        // The stray, the honest peer and one redial socket.
        assert_reactor_accounting(&silent_stray_case(), 3);
    }

    #[test]
    fn bounded_lane_drops_oldest_and_counts() {
        let dropped = Arc::new(AtomicU64::new(0));
        // Cap clamps up to one max frame; use frames big enough to
        // overflow quickly.
        let lane = Lane::new(
            MAX_FRAME + 4,
            Arc::clone(&dropped),
            Arc::new(AtomicU64::new(0)),
        );
        let frame = vec![7u8; MAX_FRAME / 4];
        for _ in 0..16 {
            assert!(lane.push(frame.clone()));
        }
        assert!(
            dropped.load(Ordering::Relaxed) >= 11,
            "oldest frames evicted past the cap"
        );
        assert!(
            lane.queued_bytes() <= MAX_FRAME + 4,
            "memory stays bounded: {} bytes queued",
            lane.queued_bytes()
        );
        // The newest writes survive.
        let (frames, _) = lane.pop_batch(usize::MAX);
        assert!(!frames.is_empty());
        lane.close();
        let (rest, drained) = lane.pop_batch(usize::MAX);
        assert!(rest.is_empty() && drained);
        assert!(!lane.push(frame), "closed lane refuses frames");
    }

    #[test]
    fn sender_memory_stays_bounded_while_peer_is_down() {
        // Peer 1 is permanently unreachable (nothing listens); the
        // sender keeps broadcasting. Without the bounded lane this
        // grows without limit — the eviction counter proves the cap
        // engaged and the queue stayed flat.
        let dead = TcpListener::bind("127.0.0.1:0").expect("bind");
        let dead_addr = dead.local_addr().expect("addr");
        drop(dead); // port now refuses connections
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addrs = vec![listener.local_addr().expect("addr"), dead_addr];
        // Caps clamp up to one max frame (MAX_FRAME + 4), so the
        // effective bound here is ~1MiB; push several times that.
        let cap = 64 * 1024;
        let effective = MAX_FRAME + 4;
        let mesh: ReactorMesh<Word> =
            ReactorMesh::start(0, &addrs, listener, None, cap).expect("mesh");
        for i in 0..300_000u64 {
            assert!(mesh.send(1, Word(i)), "sends keep being accepted");
        }
        let queued = mesh.lane(1).queued_bytes();
        assert!(
            queued <= effective + MAX_FRAME + 4,
            "queue bounded at ~{effective} bytes, got {queued}"
        );
        let stats = mesh.shutdown();
        assert!(
            stats.outbound_dropped > 0,
            "evictions were counted: {}",
            stats.outbound_dropped
        );
    }

    fn chaos_case() -> MeshStats {
        // Node 0 → node 1 under heavy budgeted loss: every frame past
        // the budgets must still arrive (garbles kill the connection,
        // so this also exercises reconnect), and the counters tally
        // what the interposer did.
        let chaos = ChaosConfig {
            seed: 42,
            default: LinkFaults {
                drop_per_mille: 200,
                drop_budget: 8,
                garble_per_mille: 200,
                garble_budget: 8,
                reset_per_mille: 50,
                ..LinkFaults::none()
            },
            ..ChaosConfig::default()
        };
        let (sender, receiver) = mesh_pair(Some(&chaos));
        let total = 400u64;
        for i in 0..total {
            assert!(sender.send(1, Word(i)));
        }
        let mut got = std::collections::BTreeSet::new();
        let deadline = Instant::now() + Duration::from_secs(30);
        // At most drop_budget + garble_budget frames may be lost (a
        // garbled frame reaches the peer but fails decode); chaos past
        // the budgets only adds latency.
        while (got.len() as u64) < total - 16 && Instant::now() < deadline {
            if let Some((from, w)) = receiver.recv_timeout(Duration::from_millis(100)) {
                assert_eq!(from, 0);
                got.insert(w.0);
            }
        }
        assert!(
            got.len() as u64 >= total - 16,
            "budgeted chaos keeps liveness: {}/{total} delivered",
            got.len()
        );
        let stats = sender.shutdown();
        let (dropped, garbled, _resets, _delayed, _reordered) = stats.chaos;
        assert!(dropped > 0, "drops happened and were counted");
        assert!(garbled > 0, "garbles happened and were counted");
        assert!(dropped <= 8 && garbled <= 8, "budgets bound the damage");
        receiver.shutdown();
        stats
    }

    #[test]
    fn chaos_faults_are_survivable_and_counted() {
        chaos_case();
    }

    #[test]
    fn chaos_faults_are_survivable_and_counted_on_reactor() {
        // Resets and garbles force redials: the sender holds at most
        // one outbound and one inbound socket at a time.
        assert_reactor_accounting(&chaos_case(), 2);
    }

    fn partition_case() -> MeshStats {
        // A 250ms window cutting 0|1: frames sent during the window
        // arrive only after it ends — blocked, not dropped.
        let chaos = ChaosConfig {
            seed: 1,
            partitions: vec![Partition {
                group: vec![0],
                start: Duration::ZERO,
                end: Duration::from_millis(250),
            }],
            ..ChaosConfig::default()
        };
        let (sender, receiver) = mesh_pair(Some(&chaos));
        let t0 = Instant::now();
        assert!(sender.send(1, Word(99)));
        let got = receiver
            .recv_timeout(Duration::from_secs(10))
            .expect("frame delivered after heal");
        let waited = t0.elapsed();
        assert_eq!(got, (0, Word(99)));
        assert!(
            waited >= Duration::from_millis(200),
            "frame held for the window, not leaked early ({waited:?})"
        );
        let stats = sender.shutdown();
        receiver.shutdown();
        stats
    }

    #[test]
    fn partition_blocks_then_heals() {
        partition_case();
    }

    #[test]
    fn partition_blocks_then_heals_on_reactor() {
        assert_reactor_accounting(&partition_case(), 2);
    }

    fn heartbeat_case() -> MeshStats {
        let (a, b) = mesh_pair(None);
        // One frame each way to establish both unidirectional links.
        assert!(a.send(1, Word(1)));
        assert!(b.send(0, Word(2)));
        assert_eq!(b.recv_timeout(Duration::from_secs(10)), Some((0, Word(1))));
        assert_eq!(a.recv_timeout(Duration::from_secs(10)), Some((1, Word(2))));
        // Now both go idle. Heartbeats (200ms cadence) must keep the
        // last-heard clocks advancing on both sides.
        let before = b.supervisors()[0]
            .as_ref()
            .expect("sup")
            .last_rx_ms
            .load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(600));
        let after = b.supervisors()[0]
            .as_ref()
            .expect("sup")
            .last_rx_ms
            .load(Ordering::Relaxed);
        assert!(
            after > before,
            "idle link stayed audible: {before} → {after}"
        );
        // And the sending side's supervisor reports the link Up.
        assert_eq!(
            a.supervisors()[1].as_ref().expect("sup").get(),
            LinkState::Up
        );
        let stats = a.shutdown();
        b.shutdown();
        stats
    }

    #[test]
    fn heartbeats_keep_an_idle_link_fresh() {
        heartbeat_case();
    }

    #[test]
    fn heartbeats_keep_an_idle_link_fresh_on_reactor() {
        assert_reactor_accounting(&heartbeat_case(), 2);
    }

    #[test]
    fn single_node_mesh_loops_back_to_itself() {
        let cfg = TcpNodeConfig::new(
            0,
            vec!["127.0.0.1:0".parse().expect("addr")],
            Duration::from_secs(10),
            Duration::from_millis(0),
        );
        let report = run_tcp_node(&cfg, Gossip, vec![42], |outs: &[(PartyId, u64)]| {
            !outs.is_empty()
        })
        .expect("bind");
        assert!(report.completed);
        assert_eq!(report.outputs, vec![(0, 42)]);
    }

    #[test]
    fn driven_node_paces_inputs_and_sees_state() {
        // The driver injects one input per tick until three are out;
        // the stop predicate keys off the automaton (via the report's
        // returned node), proving &P access works.
        let cfg = TcpNodeConfig::new(
            0,
            vec!["127.0.0.1:0".parse().expect("addr")],
            Duration::from_secs(10),
            Duration::from_millis(0),
        );
        let mut injected = 0u64;
        let (report, node) = run_tcp_node_driven(
            &cfg,
            Gossip,
            move |node, ctx, fx| {
                if injected < 3 {
                    node.on_input_ctx(ctx, injected, fx);
                    injected += 1;
                }
            },
            |_node: &Gossip, outs: &[(PartyId, u64)]| outs.len() >= 3,
        )
        .expect("bind");
        assert!(report.completed);
        assert_eq!(report.outputs.len(), 3);
        let _ = node;
    }

    // -- link-layer bug-sweep regressions ------------------------------

    /// A local blackhole: a listener that never accepts, with its
    /// accept queue wedged full, silently drops further SYNs (no RST)
    /// — the same behavior as a firewalled host or a dead VM with a
    /// live route, but reproducible on loopback. Returns the address
    /// and the sockets keeping the queue full.
    fn blackholed_addr() -> (SocketAddr, TcpListener, Vec<TcpStream>) {
        let victim = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = victim.local_addr().expect("addr");
        let mut fillers = Vec::new();
        while let Ok(s) = TcpStream::connect_timeout(&addr, Duration::from_millis(250)) {
            fillers.push(s);
            assert!(fillers.len() < 2048, "backlog never filled");
        }
        (addr, victim, fillers)
    }

    #[test]
    fn reactor_survives_blackholed_peer_and_shuts_down_promptly() {
        // The nonblocking connect carries its own deadline, so the
        // event loop keeps ticking and teardown stays bounded instead
        // of waiting on a SYN.
        let (dark, _victim, _fillers) = blackholed_addr();
        let (mesh, _) = mesh_towards(dark);
        assert!(mesh.send(1, Word(5)), "send queues while the peer is dark");
        std::thread::sleep(Duration::from_millis(300));
        let t0 = Instant::now();
        let stats = mesh.shutdown();
        assert!(
            t0.elapsed() <= Duration::from_secs(5),
            "teardown bounded despite the dark peer"
        );
        assert_eq!(stats.bytes_sent, 0, "nothing could have been delivered");
    }

    #[test]
    fn reactor_flapping_peer_keeps_fd_count_flat() {
        let (mesh, addr) = mesh_towards(refused_addr());
        // Crash-without-close flaps: every handshake supersedes the
        // previous connection, and the "crashed" sockets never FIN.
        let mut zombies = Vec::new();
        for _ in 0..30 {
            zombies.push(honest_handshake(addr, 1));
            std::thread::sleep(Duration::from_millis(20));
        }
        // The newest connection still delivers.
        let mut live = zombies.pop().expect("kept the last");
        live.write_all(&encode_frame(&Word(9)).expect("fits"))
            .expect("write");
        assert_eq!(
            mesh.recv_timeout(Duration::from_secs(10)),
            Some((1, Word(9)))
        );
        let stats = mesh.shutdown();
        // 30 flaps without reaping would peak >30 fds; with reaping
        // the loop holds listener + doorbell + a couple of transients.
        assert!(
            stats.reactor.fds_peak <= 10,
            "inbound fds reaped on reconnect (peak {})",
            stats.reactor.fds_peak
        );
    }

    #[test]
    fn poisoned_lane_degrades_link_instead_of_panicking() {
        let (mesh, _) = mesh_towards(refused_addr());
        let lane = Arc::clone(mesh.lane(1));
        // Poison the lane mutex the way a dying thread would: panic
        // while holding the guard. An `.expect("lane lock")` would turn
        // this into a panic on the protocol thread's next send — one
        // dead link crashing the whole node.
        let _ = std::thread::spawn(move || {
            let _g = lane.inner.lock().expect("first lock");
            panic!("simulated lane-holder death");
        })
        .join();
        assert!(
            mesh.send(1, Word(3)),
            "send survives and recovers the poisoned lock"
        );
        let stats = mesh.shutdown();
        assert!(
            stats.lane_poisoned >= 1,
            "poison recovery was counted ({})",
            stats.lane_poisoned
        );
    }

    // -- crash-restart rejoin ------------------------------------------

    fn late_peer_rejoin_case() -> MeshStats {
        // "Crash" = nothing listening at the peer's address; "restart"
        // = a listener appears there later. The mesh must keep
        // redialing under backoff and deliver the queued frame once
        // the peer returns.
        let park = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peer_addr = park.local_addr().expect("a");
        drop(park); // the peer is now "down"
        let (mesh, my_addr) = mesh_towards(peer_addr);
        assert!(mesh.send(1, Word(77)), "frame queues while peer is down");
        std::thread::sleep(Duration::from_millis(300)); // several failed dials
        let revived = TcpListener::bind(peer_addr).expect("rebind");
        let (mut conn, _) = revived.accept().expect("mesh redialed after restart");
        let mut hs = [0u8; 8];
        conn.read_exact(&mut hs).expect("handshake first");
        assert_eq!(parse_handshake(&hs, 2), Ok(0));
        let mut len4 = [0u8; 4];
        conn.read_exact(&mut len4).expect("frame length");
        let len = u32::from_be_bytes(len4) as usize;
        let mut body = vec![0u8; len];
        conn.read_exact(&mut body).expect("frame body");
        let mut expect = Vec::new();
        Word(77).encode_into(&mut expect);
        assert_eq!(body, expect, "the pre-crash frame arrived post-restart");
        // And the restarted peer can speak back — by dialing the
        // mesh's own listener, as a real restarted replica would.
        let mut back = honest_handshake(my_addr, 1);
        back.write_all(&encode_frame(&Word(88)).expect("fits"))
            .expect("reply");
        assert_eq!(
            mesh.recv_timeout(Duration::from_secs(10)),
            Some((1, Word(88)))
        );
        mesh.shutdown()
    }

    #[test]
    fn late_peer_rejoin_delivers_queued_frames() {
        late_peer_rejoin_case();
    }

    #[test]
    fn late_peer_rejoin_delivers_queued_frames_on_reactor() {
        // Failed redials are closed before the next one opens, so the
        // outage costs one outbound socket plus the peer's dial-back.
        assert_reactor_accounting(&late_peer_rejoin_case(), 2);
    }
}
