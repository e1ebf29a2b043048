//! The SINTRA-RS benchmark: client-observed latency, closed-loop
//! capacity and CPU per ordered request of the replicated KV service,
//! with a per-layer cost account taken from outside the stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run; the last stdout line is the JSON result
//! perfbench --all [--seed <n>] [--seconds <s>]
//!     every workload, untraced then traced, as one table
//! perfbench --self-check [--seed <n>] [--seed2 <n>]
//!     sim-n16 twice at one seed (counts must match), then seed2 on
//!     another schedule (must run clean)
//! ```
//!
//! Workloads, metrics and their sources are described in
//! `perfbench/GLOSSARY.md`.

mod calib;
mod check;
mod cpu;
mod load;
mod probe;
mod report;
mod segment;

use load::{Spec, WORKLOADS};
use report::Metric;
use segment::Segment;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Load offered before each TCP segment's measurement window opens.
const WARMUP: Duration = Duration::from_millis(500);
/// Untraced TCP segments per run (set-up is measured once per segment).
const TCP_SEGMENTS: u32 = 3;
/// Traced TCP segments per run, alternating untraced and traced.
const TRACED_SEGMENTS: u32 = 4;
/// Simulator measurement per segment, roughly: one backlog at n = 16.
const SIM_SEGMENT_S: f64 = 3.0;
/// Fewest simulator segments per run.
const SIM_MIN_SEGMENTS: u64 = 3;

/// The seed of simulator schedule `i`: dealer, replica randomness and
/// message schedule. Every run replays the same schedules and `--seed`
/// picks only the requests. The cost of one schedule varies by about a
/// third with the coin and the elections it draws, which would swamp a
/// change in the program if the schedules changed from run to run. A
/// change to what or when replicas send still moves every schedule onto
/// a new path (see "Changes to the message flow" in GLOSSARY.md).
fn schedule(i: u64) -> u64 {
    load::mix(0x5c4e_d01e, i)
}

/// Runs `spec` for `seconds` of measurement, traced or not.
fn run(spec: Spec, seed: u64, seconds: f64, traced: bool) -> Vec<Segment> {
    let mut segs = Vec::new();
    if spec.tcp {
        let count = if traced {
            TRACED_SEGMENTS
        } else {
            TCP_SEGMENTS
        };
        let window = Duration::from_secs_f64(seconds / count as f64);
        for i in 0..count {
            let traced_seg = traced && i % 2 == 1;
            segs.push(segment::tcp(
                spec,
                load::mix(seed, i as u64),
                WARMUP,
                window,
                traced_seg,
            ));
        }
    } else {
        let count = ((seconds / SIM_SEGMENT_S).ceil() as u64).max(SIM_MIN_SEGMENTS);
        if traced {
            // Each traced segment is paired with an untraced one on the
            // same schedule and requests, so that `trace.overhead_frac`
            // compares like with like.
            for i in 0..count.div_ceil(2).max(2) {
                let seed = load::mix(seed, i);
                segs.push(segment::sim(spec, schedule(i), seed, false));
                segs.push(segment::sim(spec, schedule(i), seed, true));
            }
        } else {
            for i in 0..count {
                segs.push(segment::sim(spec, schedule(i), load::mix(seed, i), false));
            }
        }
    }
    segs
}

fn json_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_table(title: &str, metrics: &[Metric]) {
    eprintln!("{title}");
    for (name, unit, v) in metrics {
        eprintln!("  {name:<32} {v:>14.4} {unit}");
    }
}

/// Writes the traced run's spans: one line per hook call and one per
/// request.
fn write_spans(spec: Spec, seed: u64, segs: &[Segment]) -> std::io::Result<String> {
    use std::fmt::Write as _;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let mut hooks = String::from(
        "segment\treplica\tclass\tstart_ns\tend_ns\tcpu_ns\tbytes\tsends\tround\telection\n",
    );
    let mut reqs = String::from(
        "segment\trequest\ttarget\tdue_ns\tinjected_ns\tfirst_share_ns\tqualified_ns\n",
    );
    let opt = |s: &Segment, t: Option<Instant>| t.map_or("-".to_string(), |t| s.ns(t).to_string());
    for (i, s) in segs.iter().enumerate().filter(|(_, s)| s.traced) {
        for p in &s.spans {
            let _ = writeln!(
                hooks,
                "{i}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                p.replica,
                p.class.name(),
                p.start_ns,
                p.end_ns,
                p.cpu_ns,
                p.bytes,
                p.sends,
                p.round,
                p.election
            );
        }
        for (j, r) in s.reqs.iter().enumerate() {
            let _ = writeln!(
                reqs,
                "{i}\t{j}\t{}\t{}\t{}\t{}\t{}",
                r.target,
                s.ns(r.due),
                opt(s, r.injected),
                opt(s, r.first_share),
                opt(s, r.qualified)
            );
        }
    }
    let stem = dir.join(format!("{}-seed{seed}", spec.name));
    std::fs::write(stem.with_extension("hooks.tsv"), hooks)?;
    std::fs::write(stem.with_extension("requests.tsv"), reqs)?;
    Ok(stem.display().to_string())
}

/// One run of one workload; returns the result line and correctness.
fn single(spec: Spec, seed: u64, seconds: f64, traced: bool) -> (String, Vec<Metric>, bool) {
    let segs = run(spec, seed, seconds, traced);
    let (attempted, failed) = report::attempts(&segs);
    let metrics = if traced {
        let calib = calib::unit_costs();
        match write_spans(spec, seed, &segs) {
            Ok(stem) => eprintln!("spans written to {stem}.*.tsv"),
            Err(e) => eprintln!("could not write spans: {e}"),
        }
        report::per_layer(spec, &segs, calib)
    } else {
        report::end_to_end(&segs)
    };
    let mut correct = attempted > 0;
    for (i, s) in segs.iter().enumerate() {
        for e in &s.errors {
            eprintln!("CHECK FAILED: segment {i}: {e}");
            correct = false;
        }
    }
    (
        json_result(correct, attempted, failed, &metrics),
        metrics,
        correct,
    )
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seed2: u64,
    seconds: f64,
    trace: bool,
    all: bool,
    self_check: bool,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seed2: 2,
        seconds: 10.0,
        trace: false,
        all: false,
        self_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seed2" => a.seed2 = value()?.parse().map_err(|e| format!("--seed2: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--all" => a.all = true,
            "--self-check" => a.self_check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn self_check(seed: u64, seed2: u64) -> bool {
    let spec = load::spec("sim-n16").expect("sim-n16 exists");
    let first = segment::sim(spec, schedule(0), seed, true);
    let second = segment::sim(spec, schedule(0), seed, true);
    let (a, b) = (report::sim_counts(&first), report::sim_counts(&second));
    let mut ok = a == b;
    eprintln!(
        "seed {seed}: counts {a:?}\nseed {seed}: counts {b:?} ({})",
        if ok { "identical" } else { "DIFFER" }
    );
    let other = segment::sim(spec, schedule(1), seed2, true);
    let failed = other.reqs.iter().filter(|r| r.qualified.is_none()).count();
    for e in first
        .errors
        .iter()
        .chain(&second.errors)
        .chain(&other.errors)
    {
        eprintln!("CHECK FAILED: {e}");
        ok = false;
    }
    eprintln!(
        "seed {seed2}: {} requests, {failed} unanswered",
        other.reqs.len()
    );
    ok && failed == 0
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.self_check {
        let ok = self_check(args.seed, args.seed2);
        println!("self-check {}", if ok { "passed" } else { "FAILED" });
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if args.all {
        let mut ok = true;
        for spec in WORKLOADS {
            for traced in [false, true] {
                let (_, metrics, correct) = single(*spec, args.seed, args.seconds, traced);
                ok &= correct;
                let kind = if traced {
                    "per-layer (traced)"
                } else {
                    "end-to-end (untraced)"
                };
                println!(
                    "\n{} — {kind}, seed {}, correct: {correct}",
                    spec.name, args.seed
                );
                println!("| metric | value | unit |\n|---|---:|---|");
                for (name, unit, v) in &metrics {
                    println!("| {name} | {v:.4} | {unit} |");
                }
            }
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(spec) = args.workload.as_deref().and_then(load::spec) else {
        eprintln!(
            "perfbench: --workload must be one of {:?}",
            WORKLOADS.iter().map(|s| s.name).collect::<Vec<_>>()
        );
        return ExitCode::from(2);
    };
    let (line, metrics, correct) = single(spec, args.seed, args.seconds, args.trace);
    print_table(&format!("{} seed {}", spec.name, args.seed), &metrics);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
