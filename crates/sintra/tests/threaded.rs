//! Integration under true concurrency: the same protocol automata on
//! real OS threads over loopback TCP (the paper's time-free design
//! means no code changes between the deterministic simulator and the
//! socket runtime).

use std::time::Duration;

use sintra::adversary::structure::TrustStructure;
use sintra::net::{run_tcp, Effects, Protocol};
use sintra::protocols::abc::{abc_nodes, AbcDeliver};
use sintra::protocols::fdabc::{fd_nodes, FdAbcNode, FdDeliver, FdMessage};
use sintra::setup::dealt_system;

#[test]
fn atomic_broadcast_on_threads() {
    let n = 4;
    let (public, bundles) = dealt_system(n, 1, 201).unwrap();
    let nodes = abc_nodes(public, bundles, 201);
    let inputs = vec![(0, b"threaded-a".to_vec()), (2, b"threaded-b".to_vec())];
    let report = run_tcp(
        nodes,
        inputs,
        move |outs: &[Vec<AbcDeliver>]| outs.iter().all(|o| o.len() >= 2),
        Duration::from_secs(120),
    )
    .expect("loopback sockets bind");
    assert!(report.completed, "both broadcasts delivered everywhere");
    let reference: Vec<(u64, Vec<u8>)> = report.outputs[0]
        .iter()
        .map(|d| (d.seq, d.payload.clone()))
        .collect();
    assert_eq!(reference.len(), 2);
    for p in 1..n {
        let got: Vec<(u64, Vec<u8>)> = report.outputs[p]
            .iter()
            .map(|d| (d.seq, d.payload.clone()))
            .collect();
        assert_eq!(got, reference, "thread {p} agrees on the order");
    }
}

/// A replica wrapper that can be crashed: once `crashed` is set it
/// ignores every event, so the group must detect the silence and move
/// on without it.
struct MaybeCrashed {
    inner: FdAbcNode,
    crashed: bool,
}

impl Protocol for MaybeCrashed {
    type Message = FdMessage;
    type Input = Vec<u8>;
    type Output = FdDeliver;

    fn on_input(&mut self, input: Vec<u8>, fx: &mut Effects<FdMessage, FdDeliver>) {
        if !self.crashed {
            self.inner.on_input(input, fx);
        }
    }

    fn on_message(&mut self, from: usize, msg: FdMessage, fx: &mut Effects<FdMessage, FdDeliver>) {
        if !self.crashed {
            self.inner.on_message(from, msg, fx);
        }
    }

    fn on_tick(&mut self, fx: &mut Effects<FdMessage, FdDeliver>) {
        if !self.crashed {
            self.inner.on_tick(fx);
        }
    }
}

/// Regression for a tick-starved node loop: the failure-detector
/// baseline's view change is driven *only* by `on_tick`, so with the
/// view-0 coordinator crashed this test deadlocks (and times out)
/// unless the runtime actually fires periodic ticks.
#[test]
fn crashed_coordinator_is_replaced_via_ticks_on_threads() {
    let n = 4;
    let structure = TrustStructure::threshold(n, 1).unwrap();
    let nodes: Vec<MaybeCrashed> = fd_nodes(&structure, 10)
        .into_iter()
        .enumerate()
        .map(|(p, inner)| MaybeCrashed {
            inner,
            // Party 0 coordinates view 0; crashing it forces the
            // remaining replicas to suspect it on timeout and elect
            // the view-1 coordinator.
            crashed: p == 0,
        })
        .collect();
    let inputs = vec![(1, b"survive-the-crash".to_vec())];
    let report = run_tcp(
        nodes,
        inputs,
        move |outs: &[Vec<FdDeliver>]| (1..4).all(|p| !outs[p].is_empty()),
        Duration::from_secs(120),
    )
    .expect("loopback sockets bind");
    assert!(
        report.completed,
        "live replicas delivered despite the crashed view-0 coordinator"
    );
    assert!(
        report.outputs[0].is_empty(),
        "the crashed replica stays silent"
    );
    let reference: Vec<(u64, Vec<u8>)> = report.outputs[1]
        .iter()
        .map(|d| (d.seq, d.payload.clone()))
        .collect();
    assert_eq!(reference, vec![(0, b"survive-the-crash".to_vec())]);
    for p in 2..4 {
        let got: Vec<(u64, Vec<u8>)> = report.outputs[p]
            .iter()
            .map(|d| (d.seq, d.payload.clone()))
            .collect();
        assert_eq!(got, reference, "replica {p} agrees with replica 1");
    }
}
