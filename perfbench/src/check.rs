//! The off-clock output check. Every answered request must carry a
//! qualified reply set whose combined service signature verifies, every
//! replica must end in a byte-identical state, and every answer must
//! equal the one a fresh KV store gives when the requests are replayed
//! in reply-sequence order.

use crate::load::{Req, Spec};
use crate::probe::op;
use sintra::crypto::dealer::PublicParameters;
use sintra::protocols::common::Tag;
use sintra::rsm::{KvMachine, ReplyCollector, StateMachine};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Returns one line per failed check (empty: all outputs correct).
pub fn outputs(
    spec: Spec,
    public: &PublicParameters,
    tag: &Tag,
    reqs: &[Req],
    snapshots: &[Vec<u8>],
) -> Vec<String> {
    let mut errors = Vec::new();
    let public_arc = Arc::new(public.clone());

    // Signed replies: combine the first t+1 matching shares.
    let mut order: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, req) in reqs.iter().enumerate() {
        if req.mismatch {
            errors.push(format!("request {i}: replicas answered differently"));
        }
        let Some((seq, _)) = req.answer else { continue };
        if let Some(other) = order.insert(seq, i) {
            errors.push(format!(
                "requests {other} and {i} both answered at seq {seq}"
            ));
        }
        if req.qualified.is_none() {
            continue;
        }
        let mut collector = ReplyCollector::new(tag.clone(), Arc::clone(&public_arc), &req.payload);
        for share in &req.shares {
            if !collector.add(share.clone()) {
                errors.push(format!(
                    "request {i}: reply share from {} rejected",
                    share.replier
                ));
            }
        }
        match collector.signed_reply() {
            Some(signed) if ReplyCollector::verify_signed(public, tag, &req.payload, &signed) => {}
            Some(_) => errors.push(format!("request {i}: service signature does not verify")),
            None => errors.push(format!("request {i}: qualified share set does not combine")),
        }
    }

    // Identical final state everywhere.
    if let Some(first) = snapshots.first() {
        for (p, s) in snapshots.iter().enumerate().skip(1) {
            if s != first {
                errors.push(format!("replica {p} final state differs from replica 0"));
            }
        }
    }

    // Replay in total order on a fresh store; the order must be gapless.
    let mut kv = KvMachine::new();
    let mut gapless = true;
    for (expect, (&seq, &i)) in order.iter().enumerate() {
        if seq != expect as u64 {
            errors.push(format!(
                "{}: total order has a gap before seq {seq}",
                spec.name
            ));
            gapless = false;
            break;
        }
        if kv.apply(op(&reqs[i].payload)) != reqs[i].shares[0].response {
            errors.push(format!("seq {seq}: answer differs from the replay"));
        }
    }
    if gapless && snapshots.first().is_some_and(|s| *s != kv.snapshot()) {
        errors.push("final replica state differs from the replayed state".into());
    }
    errors.truncate(20);
    errors
}
