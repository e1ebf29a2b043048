//! Sharded multi-group throughput benchmark: `G` independent SINTRA
//! groups (n = 4 each) run side by side as real TCP loopback meshes in
//! one process, and the aggregate ordering rate is measured against
//! `G` (ISSUE tentpole: near-linear scaling in the group count).
//!
//! Every group is an ordinary single-shard RSM cluster built with
//! `shard_config` (per-shard tag `rsm/shard.g`, per-shard metrics), so
//! the wire format inside each mesh is byte-identical to an unsharded
//! deployment — sharding adds groups, not message kinds. Requests are
//! generated through `shard_of` so each key provably routes to the
//! group that executes it.
//!
//! Measurement protocol (one process, shared wall clock):
//!
//! 1. All `G × n` replica threads start and finish their mesh
//!    handshakes; nobody injects yet.
//! 2. A start flag flips; every replica bursts its whole share of the
//!    per-group budget (open loop, offered ≫ capacity).
//! 3. Each replica records the wall-clock watermark at which its
//!    applied counter reached the group budget. A group is done at its
//!    slowest replica; the sweep point is done at the slowest group.
//!
//! Aggregate req/s = `G × budget / slowest watermark`. Because every
//! group runs the same (n, t, knobs) and the host is shared, the
//! G = 1 point is the honest baseline for the scaling ratio.
//!
//! Usage:
//!
//! ```text
//! shard_cluster              # full sweep G ∈ {1,2,4}, writes BENCH_shards.json
//! shard_cluster --quick      # smaller budgets, writes BENCH_shards.json
//! shard_cluster --smoke      # CI: G ∈ {1,4} small budgets, asserts both
//!                            #   complete and G=4 >= --floor x G=1; writes nothing
//! shard_cluster --floor 1.5  # override the smoke ratio floor
//! ```

use sintra::net::{run_tcp_node_driven, ChaosConfig, LinkFaults, Protocol, ShardNetPlan};
use sintra::obs::HistogramSnapshot;
use sintra::rsm::{
    atomic_replicas_with, shard_config, shard_of, KvMachine, ReplicaConfig, RsmNode,
};
use sintra::setup::dealt_system;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Replicas per group and the corruption bound inside each group.
const N: usize = 4;
const T: usize = 1;

/// Group counts the full sweep measures.
const SWEEP: &[usize] = &[1, 2, 4];

/// Wall-clock budget per point past which a run reports failure.
const TIMEOUT: Duration = Duration::from_secs(90);

/// Flight-recorder capacity per node (metrics are what we read).
const RECORDER_CAP: usize = 4096;

struct Point {
    groups: usize,
    requests: u64,
    aggregate_rps: f64,
    per_group_rps: Vec<f64>,
    elapsed_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    completed: bool,
}

/// Per-frame link latency of the emulated WAN: the chaos interposer's
/// delay fault releases each frame this long after it was queued. The
/// link keeps carrying other frames meanwhile, so this is latency, not
/// occupancy.
const LINK_DELAY_MS: u64 = 10;

/// The SINTRA deployment the paper targets is an *Internet* one: group
/// members sit in different domains and every protocol round pays real
/// link latency, so a group's throughput is bound by its consensus
/// rounds, not by host CPU. Loopback has no such latency — a single
/// group would instead saturate the host's signing budget and hide the
/// very cost sharding parallelizes. Emulate the WAN with the chaos
/// interposer: every frame on every link carries a deterministic
/// [`LINK_DELAY_MS`] of added latency.
fn wan_links(seed: u64, group: usize, me: usize) -> ChaosConfig {
    let mut faults = LinkFaults::none();
    faults.delay_per_mille = 1000;
    faults.delay_ms = (LINK_DELAY_MS, LINK_DELAY_MS);
    ChaosConfig {
        seed: seed ^ ((group as u64) << 8 | me as u64),
        default: faults,
        links: Vec::new(),
        partitions: Vec::new(),
    }
}

/// Per-replica key budget for `(group, me)`: keys that `shard_of`
/// provably routes to `group` in a `groups`-way deployment.
fn keys_for(group: usize, me: usize, groups: usize, share: u64) -> Vec<Vec<u8>> {
    (0u64..)
        .map(|i| format!("g{group}n{me}k{i}").into_bytes())
        .filter(|k| shard_of(k, groups) == group)
        .take(share as usize)
        .collect()
}

/// Runs one sweep point: `groups` meshes of `N` replicas, each group
/// ordering `per_group` requests injected as one burst once every mesh
/// is up.
fn run_point(groups: usize, per_group: u64, seed: u64) -> Point {
    let plan = ShardNetPlan::loopback(groups, N).expect("allocate loopback plan");
    let base = ReplicaConfig::new()
        .seed(seed)
        .batch_cap(16)
        .batch_bytes(64 << 10)
        .pipeline_depth(2);

    // Shared wall clock: injection starts when `start` flips, and every
    // replica stamps its done watermark against the same `t0`.
    let t0 = Instant::now();
    let start = Arc::new(AtomicBool::new(false));
    let done_at: Arc<Vec<AtomicU64>> =
        Arc::new((0..groups * N).map(|_| AtomicU64::new(0)).collect());

    let mut handles = Vec::with_capacity(groups * N);
    for group in 0..groups {
        let (public, bundles) =
            dealt_system(N, T, seed.wrapping_add(group as u64)).expect("valid (n, t)");
        let cfg = shard_config(&base, group);
        let nodes: Vec<RsmNode> = atomic_replicas_with(&cfg, public, bundles, |_| KvMachine::new());
        for (me, node) in nodes.into_iter().enumerate() {
            let mut net_cfg = plan.node_config(group, me, TIMEOUT, Duration::from_secs(2));
            net_cfg.recorder_capacity = Some(RECORDER_CAP);
            net_cfg.chaos = Some(wan_links(seed, group, me));
            let share = per_group / N as u64 + u64::from((me as u64) < per_group % N as u64);
            let keys = keys_for(group, me, groups, share);
            let start = Arc::clone(&start);
            let done_at = Arc::clone(&done_at);
            let slot = group * N + me;
            handles.push(std::thread::spawn(move || {
                let mut injected = false;
                let (report, _node) = run_tcp_node_driven(
                    &net_cfg,
                    node,
                    move |node, ctx, fx| {
                        if !injected && start.load(Ordering::Acquire) {
                            for key in &keys {
                                node.on_input_ctx(ctx, KvMachine::encode_set(key, b"v"), fx);
                            }
                            injected = true;
                        }
                        if injected
                            && node.applied() >= per_group
                            && done_at[slot].load(Ordering::Relaxed) == 0
                        {
                            let ns = t0.elapsed().as_nanos() as u64;
                            done_at[slot].store(ns.max(1), Ordering::Relaxed);
                        }
                    },
                    move |node, _outputs| node.applied() >= per_group && !node.is_fetching(),
                )
                .expect("socket setup");
                report
            }));
        }
    }

    // Let every mesh finish its handshakes before the burst, so the
    // measurement window contains ordering work only.
    std::thread::sleep(Duration::from_millis(500));
    let inject_start_ns = t0.elapsed().as_nanos() as u64;
    start.store(true, Ordering::Release);

    let mut latency = HistogramSnapshot::default();
    let mut completed = true;
    for handle in handles {
        let report = handle.join().expect("replica thread");
        completed &= report.completed;
        if let Some(h) = report.metrics.hists.get("rsm.request_latency") {
            latency.merge(h);
        }
    }

    // A group finishes at its slowest replica; the point finishes at
    // the slowest group.
    let group_elapsed_s = |group: usize| -> f64 {
        let slowest = (0..N)
            .map(|me| done_at[group * N + me].load(Ordering::Relaxed))
            .max()
            .unwrap_or(0);
        if slowest > inject_start_ns {
            (slowest - inject_start_ns) as f64 / 1e9
        } else {
            TIMEOUT.as_secs_f64()
        }
    };
    let per_group_rps: Vec<f64> = (0..groups)
        .map(|g| per_group as f64 / group_elapsed_s(g))
        .collect();
    let elapsed_s = if completed {
        (0..groups)
            .map(group_elapsed_s)
            .fold(0.0f64, f64::max)
            .max(1e-9)
    } else {
        TIMEOUT.as_secs_f64()
    };
    let requests = groups as u64 * per_group;
    Point {
        groups,
        requests,
        aggregate_rps: requests as f64 / elapsed_s,
        per_group_rps,
        elapsed_s,
        p50_ms: latency.quantile(0.5) as f64 / 1e6,
        p99_ms: latency.quantile(0.99) as f64 / 1e6,
        completed,
    }
}

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".into()
    }
}

fn to_json(points: &[Point], speedup: f64) -> String {
    let mut s = String::from("{\n  \"bench\": \"shards\",\n");
    s.push_str(&format!(
        "  \"n\": {N},\n  \"t\": {T},\n  \"link_delay_ms\": {LINK_DELAY_MS},\n  \
         \"batch_cap\": 16,\n  \"pipeline_depth\": 2,\n  \"points\": [\n"
    ));
    for (i, p) in points.iter().enumerate() {
        let per_group = p
            .per_group_rps
            .iter()
            .map(|r| json_f(*r))
            .collect::<Vec<_>>()
            .join(", ");
        s.push_str(&format!(
            "    {{\"groups\": {}, \"requests\": {}, \"aggregate_rps\": {}, \
             \"per_group_rps\": [{}], \"elapsed_s\": {}, \"p50_ms\": {}, \
             \"p99_ms\": {}, \"completed\": {}}}{}\n",
            p.groups,
            p.requests,
            json_f(p.aggregate_rps),
            per_group,
            json_f(p.elapsed_s),
            json_f(p.p50_ms),
            json_f(p.p99_ms),
            p.completed,
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    s.push_str(&format!(
        "  ],\n  \"speedup_g4_over_g1\": {}\n}}\n",
        json_f(speedup)
    ));
    s
}

fn report(p: &Point) {
    eprintln!(
        "== G={} ({} reqs): {:.1} req/s aggregate in {:.2}s, p50 {:.2}ms, p99 {:.2}ms{}",
        p.groups,
        p.requests,
        p.aggregate_rps,
        p.elapsed_s,
        p.p50_ms,
        p.p99_ms,
        if p.completed { "" } else { ", TIMED OUT" },
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |f: &str| args.iter().any(|a| a == f);
    let value_of = |f: &str| {
        args.iter()
            .position(|a| a == f)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<f64>().ok())
    };
    let seed = 0x5eed_5eed;

    if has("--smoke") {
        // CI gate: small budgets, assert completion and a loose live
        // scaling floor (the committed BENCH_shards.json carries the
        // strict >= 2.5x bar, checked separately).
        let floor = value_of("--floor").unwrap_or(1.5);
        let g1 = run_point(1, 120, seed);
        report(&g1);
        let g4 = run_point(4, 120, seed ^ 0x5eed);
        report(&g4);
        assert!(g1.completed, "smoke: G=1 did not complete");
        assert!(g4.completed, "smoke: G=4 did not complete");
        let ratio = g4.aggregate_rps / g1.aggregate_rps;
        eprintln!("smoke: G=4 / G=1 aggregate ratio = {ratio:.2} (floor {floor:.2})");
        assert!(
            ratio >= floor,
            "smoke: aggregate scaling ratio {ratio:.2} below floor {floor:.2}"
        );
        eprintln!("smoke OK");
        return;
    }

    let per_group: u64 = if has("--quick") { 300 } else { 600 };
    let mut points = Vec::new();
    for &groups in SWEEP {
        let p = run_point(groups, per_group, seed.wrapping_add(groups as u64));
        report(&p);
        points.push(p);
    }
    let g1 = points
        .iter()
        .find(|p| p.groups == 1)
        .expect("sweep includes G=1");
    let g4 = points
        .iter()
        .find(|p| p.groups == 4)
        .expect("sweep includes G=4");
    let speedup = g4.aggregate_rps / g1.aggregate_rps;
    eprintln!("speedup G=4 over G=1: {speedup:.2}x");
    let json = to_json(&points, speedup);
    std::fs::write("BENCH_shards.json", &json).expect("write BENCH_shards.json");
    eprintln!("wrote BENCH_shards.json");
}
