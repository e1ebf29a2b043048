//! Unit costs of the crypto crate's public exponentiation functions,
//! timed in isolation, and a sanity check against the crypto profile
//! committed in `BENCH_crypto.json`.

use sintra::crypto::{GroupElement, Scalar, SeededRng};
use std::hint::black_box;
use std::time::Instant;

/// Terms in the calibrated multi-exponentiation: a quorum-sized
/// aggregate at n = 4.
const MULTI_EXP_TERMS: usize = 4;
const REPS: usize = 200;
const ROUNDS: usize = 5;

/// Median over `ROUNDS` of the mean µs per call of `f`.
fn time_us(mut f: impl FnMut()) -> f64 {
    let mut rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..REPS {
                f();
            }
            started.elapsed().as_secs_f64() * 1e6 / REPS as f64
        })
        .collect();
    crate::report::quantile(&mut rounds, 0.5)
}

/// `(exp µs, multi_exp µs)`: one arbitrary-base exponentiation, and
/// one `MULTI_EXP_TERMS`-term multi-exponentiation.
pub fn unit_costs() -> (f64, f64) {
    let mut rng = SeededRng::new(0xca1b);
    let g = GroupElement::generator();
    let base = g.exp(&rng.next_nonzero_scalar());
    let exps: Vec<Scalar> = (0..REPS).map(|_| rng.next_nonzero_scalar()).collect();
    let mut i = 0;
    let exp_us = time_us(|| {
        i = (i + 1) % exps.len();
        black_box(black_box(&base).exp(black_box(&exps[i])));
    });
    let terms: Vec<(GroupElement, Scalar)> = (0..MULTI_EXP_TERMS)
        .map(|_| (g.exp(&rng.next_nonzero_scalar()), rng.next_nonzero_scalar()))
        .collect();
    let multi_exp_us = time_us(|| {
        black_box(GroupElement::multi_exp(black_box(&terms)));
    });
    sanity_check(exp_us);
    (exp_us, multi_exp_us)
}

/// Warns when the measured exponentiation cost is far from the
/// committed single-op profile (a sign of a throttled or busy host).
fn sanity_check(exp_us: f64) {
    let Ok(text) = std::fs::read_to_string("BENCH_crypto.json") else {
        eprintln!("calibration: BENCH_crypto.json not found; exp cost not cross-checked");
        return;
    };
    let key = "\"exp_arbitrary_base_ns\":";
    let committed = text.find(key).and_then(|at| {
        let rest = text[at + key.len()..].trim_start();
        let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
        rest[..end].trim().parse::<f64>().ok()
    });
    match committed {
        Some(ns) => {
            let ratio = exp_us * 1e3 / ns;
            let verdict = if (0.5..=2.0).contains(&ratio) {
                "ok"
            } else {
                "OUTSIDE 0.5-2x"
            };
            eprintln!(
                "calibration: exp {exp_us:.2} us vs BENCH_crypto.json {:.2} us ({ratio:.2}x, {verdict})",
                ns / 1e3
            );
        }
        None => eprintln!("calibration: no exp_arbitrary_base_ns in BENCH_crypto.json"),
    }
}
