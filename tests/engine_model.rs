//! Model-based tests of the slab-heap event engine: random interleavings of
//! schedule / cancel / step are replayed against a naive reference model (a
//! sorted vec of `(time, seq)` pairs) and every observable — firing order,
//! `events_fired`, `pending()`, `peek_time()`, `cancel()` return values —
//! must agree exactly.
//!
//! This is the guard rail for the zero-alloc engine core: the slab arena,
//! the 4-ary heap and the tombstone cancellation are all invisible if and
//! only if these properties hold.

use cashmere_des::{EventHandle, Handler, Sim, SimTime};
use proptest::prelude::*;

/// The test world: the ids of the events fired, in firing order.
#[derive(Default)]
struct Log(Vec<u64>);

/// An event of the test world: it logs its id when it fires.
struct Fire(u64);

impl Handler for Log {
    type Event = Fire;

    fn handle(&mut self, Fire(id): Fire, _: &mut Sim<Fire>) {
        self.0.push(id);
    }
}

/// One operation of a random schedule/cancel/step interleaving.
///
/// Indices are interpreted modulo the live sets at replay time so every
/// generated sequence is valid by construction.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule an event `delta` ns past the current virtual time, tagged
    /// with a unique id the firing log records.
    Schedule { delta: u64 },
    /// Cancel the `i`-th (mod len) outstanding handle — which may already
    /// have fired, exercising the spent-handle path.
    Cancel { i: usize },
    /// Fire the next pending event, if any.
    Step,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The shimmed `prop_oneof!` picks uniformly; duplicate arms to weight
    // scheduling over cancelling (3 : 1 : 2).
    prop_oneof![
        (0u64..5_000).prop_map(|delta| Op::Schedule { delta }),
        (0u64..5_000).prop_map(|delta| Op::Schedule { delta }),
        (0u64..5_000).prop_map(|delta| Op::Schedule { delta }),
        (0usize..64).prop_map(|i| Op::Cancel { i }),
        Just(Op::Step),
        Just(Op::Step),
    ]
}

/// Naive reference: a vec of `(fire_time, id)` kept unsorted, scanned for
/// the minimum `(time, seq)` on every step — obviously correct, O(n) per
/// operation.
#[derive(Default)]
struct Model {
    /// `(fire_time_ns, seq, id)` of every still-pending event.
    pending: Vec<(u64, u64, u64)>,
    now: u64,
    next_seq: u64,
    fired: Vec<u64>,
}

impl Model {
    fn schedule(&mut self, delta: u64, id: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push((self.now + delta, seq, id));
        seq
    }

    /// Cancel by seq; false if the event already fired or was cancelled.
    fn cancel(&mut self, seq: u64) -> bool {
        match self.pending.iter().position(|&(_, s, _)| s == seq) {
            Some(i) => {
                self.pending.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Earliest pending `(time, seq)`, if any.
    fn peek(&self) -> Option<(u64, u64)> {
        self.pending.iter().map(|&(t, s, _)| (t, s)).min()
    }

    fn step(&mut self) -> bool {
        let Some((t, s)) = self.peek() else {
            return false;
        };
        let i = self
            .pending
            .iter()
            .position(|&(pt, ps, _)| (pt, ps) == (t, s))
            .unwrap();
        let (t, _, id) = self.pending.swap_remove(i);
        self.now = t;
        self.fired.push(id);
        true
    }
}

/// Replay `ops` against both the real engine and the model, checking every
/// observable after every operation.
fn check_interleaving(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut sim = Sim::new();
    let mut model = Model::default();
    // Handles of every event ever scheduled (spent or not), so Cancel can
    // target already-fired events too.
    let mut handles: Vec<(EventHandle, u64)> = Vec::new();
    let mut next_id = 0u64;
    let mut world = Log::default();

    for op in ops {
        match op {
            Op::Schedule { delta } => {
                let id = next_id;
                next_id += 1;
                let h = sim.schedule_in(SimTime::from_nanos(*delta), Fire(id));
                let seq = model.schedule(*delta, id);
                handles.push((h, seq));
            }
            Op::Cancel { i } => {
                if handles.is_empty() {
                    continue;
                }
                let (h, seq) = handles[i % handles.len()];
                let got = sim.cancel(h);
                let want = model.cancel(seq);
                prop_assert_eq!(got, want, "cancel(seq={}) disagrees", seq);
            }
            Op::Step => {
                let got = sim.step(&mut world);
                let want = model.step();
                prop_assert_eq!(got, want, "step() disagrees");
            }
        }
        // Observables agree after *every* operation, not just at the end.
        prop_assert_eq!(sim.pending(), model.pending.len());
        prop_assert_eq!(
            sim.peek_time(),
            model.peek().map(|(t, _)| SimTime::from_nanos(t))
        );
        if let Some((t, _)) = model.peek() {
            prop_assert!(sim.now().as_nanos() <= t);
        }
    }

    // Drain everything left and compare the full firing order.
    while sim.step(&mut world) {
        prop_assert!(model.step());
    }
    prop_assert!(!model.step());
    prop_assert_eq!(sim.events_fired(), model.fired.len() as u64);
    prop_assert_eq!(&world.0, &model.fired);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn engine_matches_reference_model(ops in prop::collection::vec(op_strategy(), 1..200)) {
        check_interleaving(&ops)?;
    }
}

// ---- deterministic regressions for the satellite bug fixes ----

#[test]
fn cancel_after_fire_returns_false_and_pending_stays_accurate() {
    let mut sim = Sim::new();
    let h = sim.schedule_at(SimTime::from_nanos(5), Fire(1));
    let _live = sim.schedule_at(SimTime::from_nanos(9), Fire(10));
    let mut w = Log::default();
    assert!(sim.step(&mut w));
    assert_eq!(w.0, [1]);
    // The seed engine underflowed pending() here: the spent handle's seq
    // went into the cancelled set while the queue no longer held it.
    assert!(!sim.cancel(h), "spent handle must not cancel");
    assert!(!sim.cancel(h), "idempotently false");
    assert_eq!(sim.pending(), 1);
    sim.run(&mut w);
    assert_eq!(w.0, [1, 10]);
    assert_eq!(sim.pending(), 0);
}

#[test]
fn peek_time_is_a_pure_read() {
    let mut sim = Sim::new();
    let keep = sim.schedule_at(SimTime::from_nanos(10), Fire(0));
    let kill = sim.schedule_at(SimTime::from_nanos(3), Fire(1));
    assert!(sim.cancel(kill));
    // peek_time takes &self now; repeated calls agree and report the live
    // minimum, never the tombstone.
    assert_eq!(sim.peek_time(), Some(SimTime::from_nanos(10)));
    assert_eq!(sim.peek_time(), Some(SimTime::from_nanos(10)));
    assert!(sim.cancel(keep));
    assert_eq!(sim.peek_time(), None);
}

#[test]
fn dense_same_time_events_fire_in_schedule_order() {
    let mut sim = Sim::new();
    for id in 0..100u64 {
        sim.schedule_at(SimTime::from_nanos(42), Fire(id));
    }
    let mut log = Log::default();
    sim.run(&mut log);
    assert_eq!(log.0, (0..100).collect::<Vec<_>>());
}
