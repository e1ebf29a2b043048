//! Turns segments into the benchmark's named metrics.

use crate::load::Spec;
use crate::probe::Class;
use crate::segment::Segment;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// A metric name, its unit and its value.
pub type Metric = (String, &'static str, f64);

/// Value given to an unanswered request's latency: it was still
/// unanswered when the drain gave up, so it is beyond any latency limit.
const UNANSWERED_MS: f64 = 1e9;

/// Linear-interpolated quantile of `v` (sorted in place).
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(mut v: Vec<f64>) -> f64 {
    quantile(&mut v, 0.5)
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// Requests of `seg` that were due inside its window.
fn due_in_window(seg: &Segment) -> impl Iterator<Item = &crate::load::Req> {
    seg.reqs.iter().filter(|r| seg.in_window(r.due))
}

fn cpu_ms_per_req(seg: &Segment) -> f64 {
    seg.cpu_ns as f64 / 1e6 / seg.completed().max(1) as f64
}

/// `(attempted, failed)` over the segments.
pub fn attempts(segs: &[Segment]) -> (usize, usize) {
    let attempted = segs.iter().map(|s| s.reqs.len()).sum();
    let failed = segs
        .iter()
        .flat_map(|s| &s.reqs)
        .filter(|r| r.qualified.is_none())
        .count();
    (attempted, failed)
}

/// Latency quantile `q` (ms) over the requests due inside every
/// segment's window, pooled: one sim-n16 segment has only 300 requests,
/// too few for a p99 with ten samples beyond it.
fn latency_ms(segs: &[Segment], q: f64) -> f64 {
    let mut lat: Vec<f64> = segs
        .iter()
        .flat_map(due_in_window)
        .map(|r| r.qualified.map_or(UNANSWERED_MS, |at| ms(r.due, at)))
        .collect();
    quantile(&mut lat, q)
}

/// The end-to-end metrics of an untraced run: the latency quantiles
/// over all segments' requests, the rest the median over segments of
/// each segment's value.
pub fn end_to_end(segs: &[Segment]) -> Vec<Metric> {
    let over = |f: &dyn Fn(&Segment) -> f64| median(segs.iter().map(f).collect());
    vec![
        ("latency_p50_ms".into(), "ms", latency_ms(segs, 0.50)),
        ("latency_p99_ms".into(), "ms", latency_ms(segs, 0.99)),
        (
            "throughput_rps".into(),
            "1/s",
            over(&|s| s.completed() as f64 / s.window_s()),
        ),
        ("cpu_ms_per_req".into(), "ms", over(&cpu_ms_per_req)),
        ("setup_s".into(), "s", over(&|s| s.setup_s)),
    ]
}

/// The per-layer metrics of a traced run (traced and untraced
/// segments alternate; counts come from the traced ones).
pub fn per_layer(spec: Spec, segs: &[Segment], calib: (f64, f64)) -> Vec<Metric> {
    let traced: Vec<&Segment> = segs.iter().filter(|s| s.traced).collect();
    let reqs: f64 = traced.iter().map(|s| s.completed()).sum::<usize>().max(1) as f64;
    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &str, unit: &'static str, v: f64| m.push((name.to_string(), unit, v));

    // Hook spans inside each traced window.
    let spans: Vec<_> = traced
        .iter()
        .flat_map(|s| {
            s.spans
                .iter()
                .filter(|p| p.start_ns >= s.win_ns.0 && p.start_ns < s.win_ns.1)
        })
        .collect();
    let hook_cpu: u64 = spans.iter().map(|p| p.cpu_ns).sum();
    let process_cpu: u64 = traced.iter().map(|s| s.cpu_ns).sum();
    let frames: u64 = spans.iter().map(|p| p.sends as u64).sum();
    let answered_total: usize = traced.iter().map(|s| s.answered_total).sum();
    let bytes_sent: u64 = traced.iter().map(|s| s.bytes_sent).sum();
    let dropped: u64 = segs.iter().map(|s| s.net_dropped).sum();
    if spec.tcp {
        put(
            "net.cpu_ms_per_req",
            "ms",
            process_cpu.saturating_sub(hook_cpu) as f64 / 1e6 / reqs,
        );
        put(
            "net.bytes_per_req",
            "bytes",
            bytes_sent as f64 / answered_total.max(1) as f64,
        );
        put("net.frames_per_req", "count", frames as f64 / reqs);
    } else {
        put("net.cpu_ms_per_req", "ms", 0.0);
        put("net.bytes_per_req", "bytes", 0.0);
        put("net.frames_per_req", "count", 0.0);
    }
    put("net.dropped", "count", dropped as f64);

    for class in Class::MESSAGES {
        let of: Vec<_> = spans.iter().filter(|p| p.class == class).collect();
        let cpu: u64 = of.iter().map(|p| p.cpu_ns).sum();
        let bytes: u64 = of.iter().map(|p| p.bytes as u64).sum();
        put(
            &format!("{}.cpu_us_per_req", class.name()),
            "us",
            cpu as f64 / 1e3 / reqs,
        );
        put(
            &format!("{}.msgs_per_req", class.name()),
            "count",
            of.len() as f64 / reqs,
        );
        put(
            &format!("{}.bytes_per_req", class.name()),
            "bytes",
            bytes as f64 / reqs,
        );
    }
    for class in [Class::Input, Class::Tick] {
        let cpu: u64 = spans
            .iter()
            .filter(|p| p.class == class)
            .map(|p| p.cpu_ns)
            .sum();
        put(
            &format!("{}.cpu_us_per_req", class.name()),
            "us",
            cpu as f64 / 1e3 / reqs,
        );
    }

    // Rounds, from the round and election numbers on the wire. Round
    // numbers repeat across segments, so key them by segment too.
    let mut rounds = BTreeSet::new();
    let mut elections = BTreeSet::new();
    let mut decided: BTreeMap<(usize, u64, u64), u64> = BTreeMap::new();
    for (i, s) in traced.iter().enumerate() {
        for p in s
            .spans
            .iter()
            .filter(|p| p.start_ns >= s.win_ns.0 && p.start_ns < s.win_ns.1)
        {
            if matches!(
                p.class,
                Class::AbcQueued | Class::Cbc | Class::MvbaCoin | Class::Abba
            ) {
                rounds.insert((i, p.round));
            }
            if p.class == Class::MvbaCoin {
                elections.insert((i, p.round, p.election));
            }
            if p.abba_decided > 0 {
                let d = decided.entry((i, p.round, p.election)).or_insert(u64::MAX);
                *d = (*d).min(p.abba_decided);
            }
        }
    }
    let nrounds = rounds.len().max(1) as f64;
    put("abc.reqs_per_round", "count", reqs / nrounds);
    put(
        "abba.rounds_per_decision",
        "count",
        decided.values().sum::<u64>() as f64 / decided.len().max(1) as f64,
    );
    put(
        "mvba.elections_per_round",
        "count",
        elections.len() as f64 / nrounds,
    );

    let crypto: [u64; 3] = traced.iter().fold([0; 3], |a, s| {
        [a[0] + s.crypto[0], a[1] + s.crypto[1], a[2] + s.crypto[2]]
    });
    put("crypto.exp_per_req", "count", crypto[0] as f64 / reqs);
    put("crypto.multi_exp_per_req", "count", crypto[1] as f64 / reqs);
    put(
        "crypto.batch_verify_per_req",
        "count",
        crypto[2] as f64 / reqs,
    );
    put("crypto.exp_us", "us", calib.0);
    put("crypto.multi_exp_us", "us", calib.1);

    let kv: [u64; 3] = traced.iter().fold([0; 3], |a, s| {
        [a[0] + s.kv[0], a[1] + s.kv[1], a[2] + s.kv[2]]
    });
    put("rsm.apply_us_per_req", "us", kv[0] as f64 / 1e3 / reqs);
    put("rsm.snapshot_us_per_req", "us", kv[1] as f64 / 1e3 / reqs);
    put("rsm.snapshot_bytes_per_req", "bytes", kv[2] as f64 / reqs);
    let mut spread: Vec<f64> = traced
        .iter()
        .flat_map(|s| due_in_window(s))
        .filter_map(|r| Some(ms(r.first_share?, r.qualified?)))
        .collect();
    put("rsm.reply_spread_ms", "ms", quantile(&mut spread, 0.5));

    let mut lag: Vec<f64> = traced
        .iter()
        .flat_map(|s| due_in_window(s))
        .filter_map(|r| Some(ms(r.due, r.injected?)))
        .collect();
    put("loadgen.lag_p99_ms", "ms", quantile(&mut lag, 0.99));
    put(
        "loadgen.outstanding_max",
        "count",
        traced.iter().map(|s| s.outstanding_max).max().unwrap_or(0) as f64,
    );

    let sim = traced
        .iter()
        .filter_map(|s| s.sim)
        .fold([0u64; 3], |a, st| {
            [a[0] + st.steps, a[1] + st.sent, a[2] + st.bytes_sent]
        });
    put("sim.steps_per_req", "count", sim[0] as f64 / reqs);
    put("sim.msgs_per_req", "count", sim[1] as f64 / reqs);
    put("sim.bytes_per_req", "bytes", sim[2] as f64 / reqs);

    let cpu_of = |traced: bool| {
        median(
            segs.iter()
                .filter(|s| s.traced == traced)
                .map(cpu_ms_per_req)
                .collect(),
        )
    };
    put(
        "trace.overhead_frac",
        "frac",
        cpu_of(true) / cpu_of(false) - 1.0,
    );
    let (attempted, failed) = attempts(segs);
    put(
        "error_rate",
        "frac",
        failed as f64 / attempted.max(1) as f64,
    );
    m
}

/// The exact counts a simulator segment must repeat at a fixed seed.
pub fn sim_counts(seg: &Segment) -> Vec<u64> {
    let st = seg.sim.unwrap_or_default();
    let mut v = vec![st.steps, st.sent, st.delivered, st.bytes_sent];
    v.extend(seg.crypto);
    for class in Class::MESSAGES {
        v.push(seg.spans.iter().filter(|p| p.class == class).count() as u64);
    }
    v
}
