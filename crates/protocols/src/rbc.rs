//! Reliable broadcast (optimized Bracha-Toueg, generalized quorums).
//!
//! The base broadcast primitive of §3: a designated sender distributes a
//! message so that
//!
//! * **consistency** — no two honest parties deliver different messages
//!   for the same instance,
//! * **totality** — if any honest party delivers, every honest party
//!   eventually delivers, and
//! * **validity** — if the sender is honest, everyone delivers its
//!   message,
//!
//! with *no ordering* across instances (that is atomic broadcast's job)
//! and no cryptography beyond hashing. The classical quorum sizes
//! `n−t` / `2t+1` / `t+1` are replaced by the structure predicates
//! `is_core` / `is_strong` / `is_qualified` per §4.2, so the same code
//! runs under generalized adversary structures.

use crate::common::{digest, Digest, Outbox, WireKind};
use sintra_adversary::party::{PartyId, PartySet};
use sintra_adversary::structure::TrustStructure;
use std::collections::HashMap;

/// Reliable-broadcast wire messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RbcMessage {
    /// Sender's initial dissemination.
    Send(Vec<u8>),
    /// Echo of the received payload.
    Echo(Vec<u8>),
    /// Ready-to-deliver vote for the payload.
    Ready(Vec<u8>),
}

impl WireKind for RbcMessage {
    fn kind(&self) -> &'static str {
        match self {
            RbcMessage::Send(_) => "send",
            RbcMessage::Echo(_) => "echo",
            RbcMessage::Ready(_) => "ready",
        }
    }
}

/// One reliable-broadcast instance at one party.
///
/// Drive it with [`broadcast`](ReliableBroadcast::broadcast) (sender
/// only) and [`on_message`](ReliableBroadcast::on_message); the latter
/// returns the delivered payload exactly once.
#[derive(Debug)]
pub struct ReliableBroadcast {
    me: PartyId,
    n: usize,
    structure: TrustStructure,
    sender: PartyId,
    /// First Send accepted from the sender.
    seen_send: bool,
    echoed: bool,
    ready_sent: bool,
    delivered: bool,
    /// Parties whose (first) echo has been counted, across all digests.
    echo_voters: PartySet,
    /// Parties whose (first) ready has been counted, across all digests.
    ready_voters: PartySet,
    /// Echo voters per payload digest.
    echoes: HashMap<Digest, (PartySet, Vec<u8>)>,
    /// Ready voters per payload digest.
    readys: HashMap<Digest, (PartySet, Vec<u8>)>,
}

impl ReliableBroadcast {
    /// Number of parties in the group.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Creates an instance for the given designated sender.
    pub fn new(me: PartyId, structure: TrustStructure, sender: PartyId) -> Self {
        let n = structure.n();
        ReliableBroadcast {
            me,
            n,
            structure,
            sender,
            seen_send: false,
            echoed: false,
            ready_sent: false,
            delivered: false,
            echo_voters: PartySet::new(),
            ready_voters: PartySet::new(),
            echoes: HashMap::new(),
            readys: HashMap::new(),
        }
    }

    /// Whether this party already delivered.
    pub fn is_delivered(&self) -> bool {
        self.delivered
    }

    /// Starts the broadcast (call at the sender only).
    ///
    /// # Panics
    ///
    /// Panics if called at a non-sender party.
    pub fn broadcast(&mut self, payload: Vec<u8>, out: &mut Outbox<RbcMessage>) {
        assert_eq!(self.me, self.sender, "only the sender may broadcast");
        out.broadcast(RbcMessage::Send(payload));
    }

    /// Handles a message; returns the delivered payload the first time
    /// the delivery condition holds.
    pub fn on_message(
        &mut self,
        from: PartyId,
        msg: RbcMessage,
        out: &mut Outbox<RbcMessage>,
    ) -> Option<Vec<u8>> {
        if from >= self.n {
            return None; // out-of-range sender
        }
        match msg {
            RbcMessage::Send(payload) => {
                if from != self.sender || self.seen_send {
                    return None; // only the designated sender, once
                }
                self.seen_send = true;
                if !self.echoed {
                    self.echoed = true;
                    out.broadcast(RbcMessage::Echo(payload));
                }
                None
            }
            RbcMessage::Echo(payload) => {
                // Only a party's first echo counts, across *all* digests:
                // this is what the quorum argument assumes, and it bounds
                // `echoes` to at most `n` entries against a Byzantine
                // party flooding distinct payloads.
                if !self.echo_voters.insert(from) {
                    return None;
                }
                let d = digest(&payload);
                let entry = self
                    .echoes
                    .entry(d)
                    .or_insert_with(|| (PartySet::new(), payload));
                entry.0.insert(from);
                let voters = entry.0;
                if self.structure.is_core(&voters) && !self.ready_sent {
                    self.ready_sent = true;
                    let payload = entry.1.clone();
                    out.broadcast(RbcMessage::Ready(payload));
                }
                None
            }
            RbcMessage::Ready(payload) => {
                // First ready per party, across all digests (see Echo).
                if !self.ready_voters.insert(from) {
                    return None;
                }
                let d = digest(&payload);
                let entry = self
                    .readys
                    .entry(d)
                    .or_insert_with(|| (PartySet::new(), payload));
                entry.0.insert(from);
                let voters = entry.0;
                let stored = entry.1.clone();
                // Amplification: a non-corruptible set of readys proves an
                // honest party is ready; join it (before the adversary can
                // partition the quorum).
                if self.structure.is_qualified(&voters) && !self.ready_sent {
                    self.ready_sent = true;
                    out.broadcast(RbcMessage::Ready(stored.clone()));
                }
                // Delivery: readys not coverable by two corruptible sets.
                if self.structure.is_strong(&voters) && !self.delivered {
                    self.delivered = true;
                    return Some(stored);
                }
                None
            }
        }
    }

    /// Number of distinct payload digests for which echo state exists
    /// (observability for tests). Bounded by `n`: only a party's first
    /// echo is counted, so each party can open at most one entry.
    pub fn echo_candidates(&self) -> usize {
        self.echoes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::contexts;
    use sintra_crypto::dealer::Dealer;
    use sintra_crypto::rng::SeededRng;
    use sintra_net::protocol::{Effects, Protocol};
    use sintra_net::sim::{Behavior, RandomScheduler, Simulation};

    /// Standalone simulator wrapper around one RBC instance.
    #[derive(Debug)]
    pub struct RbcNode {
        rbc: ReliableBroadcast,
    }

    impl Protocol for RbcNode {
        type Message = RbcMessage;
        type Input = Vec<u8>;
        type Output = Vec<u8>;

        fn on_input(&mut self, input: Vec<u8>, fx: &mut Effects<RbcMessage, Vec<u8>>) {
            let mut out = Outbox::new(self.rbc.n());
            self.rbc.broadcast(input, &mut out);
            for (to, m) in out {
                fx.send(to, m);
            }
        }

        fn on_message(
            &mut self,
            from: PartyId,
            msg: RbcMessage,
            fx: &mut Effects<RbcMessage, Vec<u8>>,
        ) {
            let mut out = Outbox::new(self.rbc.n());
            if let Some(delivered) = self.rbc.on_message(from, msg, &mut out) {
                fx.output(delivered);
            }
            for (to, m) in out {
                fx.send(to, m);
            }
        }
    }

    fn nodes(n: usize, t: usize, sender: PartyId) -> Vec<RbcNode> {
        let ts = sintra_adversary::structure::TrustStructure::threshold(n, t).unwrap();
        let mut rng = SeededRng::new(1);
        let (public, bundles) = Dealer::deal(&ts, &mut rng);
        contexts(public, bundles, 1)
            .into_iter()
            .map(|c| RbcNode {
                rbc: ReliableBroadcast::new(c.me(), c.structure().clone(), sender),
            })
            .collect()
    }

    #[test]
    fn honest_sender_delivers_everywhere() {
        let mut sim = Simulation::builder(nodes(4, 1, 0), RandomScheduler)
            .seed(2)
            .build();
        sim.input(0, b"hello".to_vec());
        sim.run_until_quiet(100_000);
        for p in 0..4 {
            assert_eq!(sim.outputs(p), &[b"hello".to_vec()], "party {p}");
        }
    }

    #[test]
    fn tolerates_crash_of_non_sender() {
        let mut sim = Simulation::builder(nodes(4, 1, 0), RandomScheduler)
            .seed(3)
            .build();
        sim.corrupt(2, Behavior::Crash);
        sim.input(0, b"m".to_vec());
        sim.run_until_quiet(100_000);
        for p in [0usize, 1, 3] {
            assert_eq!(sim.outputs(p), &[b"m".to_vec()], "party {p}");
        }
    }

    #[test]
    fn crashed_sender_delivers_nowhere_but_harms_no_one() {
        let mut sim = Simulation::builder(nodes(4, 1, 0), RandomScheduler)
            .seed(4)
            .build();
        sim.corrupt(0, Behavior::Crash);
        sim.input(0, b"m".to_vec()); // input to corrupted party: ignored
        sim.run_until_quiet(100_000);
        for p in 1..4 {
            assert!(sim.outputs(p).is_empty(), "party {p}");
        }
    }

    #[test]
    fn equivocation_safety() {
        // A Byzantine sender equivocates A/B across the honest parties;
        // they may or may not deliver, but never deliver differently.
        let mut any_delivered = false;
        for seed in 0..20u64 {
            if let Some(values) = run_equivocation(100 + seed) {
                any_delivered = true;
                let unique: std::collections::HashSet<_> = values.into_iter().collect();
                assert!(unique.len() <= 1, "honest parties split on seed {seed}");
            }
        }
        // With a 2-vs-1 split and only echo/ready traffic among three
        // honest parties, at least some schedule must reach delivery of
        // the majority value — otherwise the test lost its teeth.
        assert!(any_delivered, "no schedule delivered anything");
    }

    /// Runs the equivocation scenario with a helper protocol wrapper that
    /// lets the test inject the Byzantine sender's Sends directly.
    fn run_equivocation(seed: u64) -> Option<Vec<Vec<u8>>> {
        #[derive(Debug)]
        struct Wrapper {
            rbc: ReliableBroadcast,
        }
        impl Protocol for Wrapper {
            type Message = RbcMessage;
            // Input = a (from, msg) pair injected by the environment.
            type Input = (PartyId, RbcMessage);
            type Output = Vec<u8>;
            fn on_input(
                &mut self,
                (from, msg): (PartyId, RbcMessage),
                fx: &mut Effects<RbcMessage, Vec<u8>>,
            ) {
                self.on_message(from, msg, fx);
            }
            fn on_message(
                &mut self,
                from: PartyId,
                msg: RbcMessage,
                fx: &mut Effects<RbcMessage, Vec<u8>>,
            ) {
                let mut out = Outbox::new(self.rbc.n());
                if let Some(d) = self.rbc.on_message(from, msg, &mut out) {
                    fx.output(d);
                }
                for (to, m) in out {
                    fx.send(to, m);
                }
            }
        }
        let ts = sintra_adversary::structure::TrustStructure::threshold(4, 1).unwrap();
        let wrappers: Vec<Wrapper> = (0..4)
            .map(|me| Wrapper {
                rbc: ReliableBroadcast::new(me, ts.clone(), 0),
            })
            .collect();
        let mut sim = Simulation::builder(wrappers, RandomScheduler)
            .seed(seed)
            .build();
        sim.corrupt(0, Behavior::Crash); // sender sends nothing further
                                         // The equivocating Sends, injected as if they came from party 0,
                                         // plus the Byzantine sender's own echoes/readys pushing "B" so
                                         // that delivery is reachable (2 honest echoes + the corrupt one
                                         // form a core quorum).
        sim.input(1, (0, RbcMessage::Send(b"A".to_vec())));
        sim.input(2, (0, RbcMessage::Send(b"B".to_vec())));
        sim.input(3, (0, RbcMessage::Send(b"B".to_vec())));
        for p in 1..4 {
            sim.input(p, (0, RbcMessage::Echo(b"B".to_vec())));
            sim.input(p, (0, RbcMessage::Ready(b"B".to_vec())));
        }
        sim.run_until_quiet(100_000);
        let delivered: Vec<Vec<u8>> = (1..4)
            .flat_map(|p| sim.outputs(p).iter().cloned())
            .collect();
        if delivered.is_empty() {
            None
        } else {
            Some(delivered)
        }
    }

    #[test]
    fn duplicate_and_foreign_sends_ignored() {
        let ts = sintra_adversary::structure::TrustStructure::threshold(4, 1).unwrap();
        let mut rbc = ReliableBroadcast::new(1, ts, 0);
        let mut out = Outbox::new(rbc.n());
        // Send from the wrong party: ignored, no echo.
        assert!(rbc
            .on_message(2, RbcMessage::Send(b"x".to_vec()), &mut out)
            .is_none());
        assert!(out.is_empty());
        // First Send from the real sender: echo.
        rbc.on_message(0, RbcMessage::Send(b"x".to_vec()), &mut out);
        assert_eq!(out.len(), 4);
        out.clear();
        // Second Send (even different payload): ignored.
        rbc.on_message(0, RbcMessage::Send(b"y".to_vec()), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn delivery_needs_strong_ready_quorum() {
        let ts = sintra_adversary::structure::TrustStructure::threshold(4, 1).unwrap();
        let mut rbc = ReliableBroadcast::new(1, ts, 0);
        let mut out = Outbox::new(rbc.n());
        // Feed 2 readys (2t+1 = 3 required): no delivery.
        assert!(rbc
            .on_message(2, RbcMessage::Ready(b"m".to_vec()), &mut out)
            .is_none());
        assert!(rbc
            .on_message(3, RbcMessage::Ready(b"m".to_vec()), &mut out)
            .is_none());
        // Third ready delivers.
        let d = rbc.on_message(0, RbcMessage::Ready(b"m".to_vec()), &mut out);
        assert_eq!(d, Some(b"m".to_vec()));
        // Redelivery suppressed.
        let again = rbc.on_message(1, RbcMessage::Ready(b"m".to_vec()), &mut out);
        assert!(again.is_none());
    }

    #[test]
    fn echo_state_bounded_under_digest_flood() {
        let ts = sintra_adversary::structure::TrustStructure::threshold(4, 1).unwrap();
        let mut rbc = ReliableBroadcast::new(1, ts, 0);
        let mut out = Outbox::new(rbc.n());
        // A Byzantine party floods echoes/readys for distinct payloads;
        // only its first of each kind opens state.
        for i in 0..100u32 {
            let payload = i.to_be_bytes().to_vec();
            rbc.on_message(2, RbcMessage::Echo(payload.clone()), &mut out);
            rbc.on_message(2, RbcMessage::Ready(payload), &mut out);
        }
        assert_eq!(rbc.echo_candidates(), 1, "first echo per party counts");
        // Out-of-range senders are rejected outright.
        assert!(rbc
            .on_message(9, RbcMessage::Ready(b"x".to_vec()), &mut out)
            .is_none());
    }

    #[test]
    #[should_panic(expected = "only the sender")]
    fn non_sender_cannot_broadcast() {
        let ts = sintra_adversary::structure::TrustStructure::threshold(4, 1).unwrap();
        let mut rbc = ReliableBroadcast::new(1, ts, 0);
        rbc.broadcast(b"x".to_vec(), &mut Outbox::new(rbc.n()));
    }
}
