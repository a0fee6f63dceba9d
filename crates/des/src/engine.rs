//! The event-driven simulation engine.
//!
//! Events are values of a world-defined type, usually a closed enum with
//! one variant per kind of event. The world implements [`Handler`]: it
//! names its event type and dispatches each fired event with one `match`,
//! scheduling follow-ups through the engine it is handed. The engine pops
//! events in `(time, sequence)` order, so two events scheduled for the same
//! instant fire in the order they were scheduled — this is what makes runs
//! deterministic.
//!
//! ## Data structures
//!
//! Reproducing the paper's figures means running hundreds of full-cluster
//! simulations, so the queue is built for throughput:
//!
//! * **Slab event arena.** Pending events live by value in `Slot`s of a
//!   `Vec` recycled through a free list, so the slab and the heap reach a
//!   high-water mark once and are reused for the rest of the run:
//!   scheduling and firing an event performs no heap allocation. A slot
//!   index is stable for the lifetime of its event, which gives O(1)
//!   cancellation without any hash map.
//! * **Index-based 4-ary min-heap.** The heap orders 24-byte entries of a
//!   packed `(time, seq)` `u128` key plus the slot index — the events never
//!   move during sift operations. A 4-ary layout halves the tree depth of a
//!   binary heap and keeps each sift's child scan inside one or two cache
//!   lines.
//! * **In-slab tombstone cancellation.** [`Sim::cancel`] drops the event
//!   immediately and empties its slot; the heap entry is discarded lazily
//!   when it surfaces. The pop path never consults a hash set. Cancelling
//!   the current heap minimum eagerly drains it, which maintains the
//!   invariant that the heap top is always live — so [`Sim::peek_time`] is
//!   a true `&self` read.

use crate::obs::prof;
use crate::time::SimTime;

/// A simulation world: the state events act on, and the one place they are
/// dispatched.
pub trait Handler {
    /// The world's events, typically a closed enum with one variant per
    /// kind of event.
    type Event;

    /// The host self-profiler frame an event's execution is charged to
    /// (e.g. `"event::steal"`, see [`crate::obs::prof`]). Events of worlds
    /// that do not name their kinds all land in `"event::other"`.
    fn kind(_event: &Self::Event) -> &'static str {
        "event::other"
    }

    /// Run `event` at its scheduled time; `sim` schedules follow-ups.
    fn handle(&mut self, event: Self::Event, sim: &mut Sim<Self::Event>);
}

/// Handle to a scheduled event, usable to cancel it before it fires.
///
/// The handle pairs the event's slab slot with its unique sequence number;
/// a reused slot no longer matches a stale handle's sequence, so cancelling
/// an already-fired (or already-cancelled) event is a safe no-op that
/// returns `false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle {
    slot: u32,
    seq: u64,
}

/// One arena slot. `event` is `Some` while the event is pending;
/// cancellation drops it (the tombstone) and firing moves it out. The
/// sequence number distinguishes the current occupant from stale handles.
struct Slot<E> {
    seq: u64,
    event: Option<E>,
}

/// Heap entry: the event's time and sequence number plus the arena slot
/// holding it. Ordering compares the `(time, seq)` pair packed into one
/// `u128` (time in the high 64 bits), a single wide integer compare; the
/// fields stay separate in memory so the entry is 24 bytes (8-aligned)
/// instead of a 32-byte 16-aligned struct.
#[derive(Clone, Copy)]
struct HeapEntry {
    time: u64,
    seq: u64,
    slot: u32,
}

impl HeapEntry {
    /// The packed `(time, seq)` ordering key.
    #[inline(always)]
    fn key(self) -> u128 {
        ((self.time as u128) << 64) | self.seq as u128
    }
}

/// The discrete-event simulation engine.
///
/// `E` is the event type; the engine stores events and hands each one back
/// to the world's [`Handler`] when it fires. It is only the event queue and
/// the clock: whatever the events record (spans, metrics) the world owns.
pub struct Sim<E> {
    now: SimTime,
    seq: u64,
    heap: Vec<HeapEntry>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// Number of tombstoned entries still sitting in the heap.
    cancelled: usize,
    events_fired: u64,
}

impl<E> Sim<E> {
    /// Create an engine with an empty queue at time zero.
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            cancelled: 0,
            events_fired: 0,
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_fired(&self) -> u64 {
        self.events_fired
    }

    /// Number of events currently pending (cancelled events excluded).
    pub fn pending(&self) -> usize {
        self.heap.len() - self.cancelled
    }

    /// Schedule `event` at absolute time `at`. Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventHandle {
        let _prof = prof::scope("des::schedule");
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={} at={}",
            self.now,
            at
        );
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(i) => {
                let s = &mut self.slots[i as usize];
                debug_assert!(s.event.is_none(), "free slot is occupied");
                s.seq = seq;
                s.event = Some(event);
                i
            }
            None => {
                debug_assert!(self.slots.len() < u32::MAX as usize, "event arena full");
                self.slots.push(Slot {
                    seq,
                    event: Some(event),
                });
                (self.slots.len() - 1) as u32
            }
        };
        self.heap_push(HeapEntry {
            time: at.as_nanos(),
            seq,
            slot,
        });
        EventHandle { slot, seq }
    }

    /// Schedule `event` after a delay from now.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) -> EventHandle {
        self.schedule_at(self.now + delay, event)
    }

    /// Schedule `event` to run at the current time, after all events already
    /// scheduled for the current time.
    pub fn schedule_now(&mut self, event: E) -> EventHandle {
        self.schedule_at(self.now, event)
    }

    /// Cancel a pending event, dropping it. Returns `true` if the event had
    /// not fired and had not already been cancelled; stale handles (fired,
    /// cancelled, or from a slot since reused) return `false` and change
    /// nothing.
    pub fn cancel(&mut self, h: EventHandle) -> bool {
        let _prof = prof::scope("des::cancel");
        let Some(slot) = self.slots.get_mut(h.slot as usize) else {
            return false;
        };
        if slot.seq != h.seq || slot.event.take().is_none() {
            return false;
        }
        // The event is dropped; the heap entry becomes a tombstone.
        self.cancelled += 1;
        self.drain_cancelled_top();
        true
    }

    /// Discard tombstoned entries sitting at the heap top. Called after
    /// every mutation that can surface a tombstone there ([`Sim::cancel`],
    /// the pop in [`Sim::step`]), which keeps the invariant that the heap
    /// minimum is always a live event — and [`Sim::peek_time`] read-only.
    fn drain_cancelled_top(&mut self) {
        while let Some(top) = self.heap.first() {
            if self.slots[top.slot as usize].event.is_some() {
                break;
            }
            let e = self.heap_pop().expect("peeked heap entry vanished");
            self.cancelled -= 1;
            self.free.push(e.slot);
        }
    }

    /// Execute the single next event, if any. Returns `false` when the queue
    /// is empty.
    pub fn step<W: Handler<Event = E>>(&mut self, world: &mut W) -> bool {
        let heap_scope = prof::scope("des::heap");
        let Some(e) = self.heap_pop() else {
            return false;
        };
        // The heap top is never a tombstone (see `drain_cancelled_top`), so
        // the popped entry is always live. Move the event out and free the
        // slot *before* handling it, so the handler may freely schedule into
        // (and reuse) it.
        let event = self.slots[e.slot as usize]
            .event
            .take()
            .expect("heap top was a tombstone");
        self.free.push(e.slot);
        if self.cancelled > 0 {
            self.drain_cancelled_top();
        }
        drop(heap_scope);
        let time = SimTime::from_nanos(e.time);
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        self.events_fired += 1;
        // Dispatch bucketed by event kind: the handler's wall time (and
        // everything it calls — kernel interpretation, balancer decisions,
        // follow-up schedules) lands under the kind's frame.
        let _prof = prof::scope(W::kind(&event));
        world.handle(event, self);
        true
    }

    /// Run until the event queue is empty.
    pub fn run<W: Handler<Event = E>>(&mut self, world: &mut W) {
        while self.step(world) {}
    }

    /// Run until the event queue is empty or virtual time would exceed
    /// `until`. Events scheduled exactly at `until` are executed.
    pub fn run_until<W: Handler<Event = E>>(&mut self, world: &mut W, until: SimTime) {
        loop {
            match self.peek_time() {
                Some(t) if t <= until => {
                    self.step(world);
                }
                _ => break,
            }
        }
    }

    /// Time of the next pending event. A pure read: cancelled events are
    /// drained from the heap top eagerly at cancellation time, so the heap
    /// minimum is always live.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| SimTime::from_nanos(e.time))
    }

    /// Sift `e` up from the bottom of the heap. Hole-based: parents shift
    /// down into the hole and `e` is written once at its final position.
    #[inline]
    fn heap_push(&mut self, e: HeapEntry) {
        self.heap.push(e); // reserve the new bottom position as the hole
        let heap = &mut self.heap[..];
        let key = e.key();
        let mut i = heap.len() - 1;
        while i > 0 {
            let p = (i - 1) / 4;
            if heap[p].key() <= key {
                break;
            }
            heap[i] = heap[p];
            i = p;
        }
        heap[i] = e;
    }

    /// Pop the minimum entry. The displaced bottom element sifts down from
    /// the root through a hole (one write per level, not a swap).
    #[inline]
    fn heap_pop(&mut self) -> Option<HeapEntry> {
        let min = *self.heap.first()?;
        let last = self.heap.pop().expect("heap is non-empty");
        let heap = &mut self.heap[..];
        let n = heap.len();
        if n > 0 {
            let key = last.key();
            let mut i = 0;
            loop {
                let c0 = 4 * i + 1;
                if c0 >= n {
                    break;
                }
                let end = (c0 + 4).min(n);
                let mut m = c0;
                let mut mk = heap[c0].key();
                for (c, e) in heap.iter().enumerate().take(end).skip(c0 + 1) {
                    let k = e.key();
                    if k < mk {
                        m = c;
                        mk = k;
                    }
                }
                if key <= mk {
                    break;
                }
                heap[i] = heap[m];
                i = m;
            }
            heap[i] = last;
        }
        Some(min)
    }
}

impl<E> Default for Sim<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    /// The test world: a firing log, a counter and a chain length.
    #[derive(Default)]
    struct World {
        log: Vec<u64>,
        count: u64,
        chain_len: u64,
    }

    enum Ev {
        /// Append the payload to the log.
        Push(u64),
        /// Add the payload to the counter.
        Add(u64),
        /// Count one link; schedule the next 1 ns later until `chain_len`.
        Chain,
        /// Mix `i` into the counter, then add `i * i` after `i` ns.
        Mix(u64),
        /// Schedule an event 5 ns in the past.
        Backwards,
        /// Do nothing.
        Nop,
        /// Carry a reference-counted payload, dropped when handled.
        Hold(Rc<()>),
    }

    impl Handler for World {
        type Event = Ev;

        fn handle(&mut self, ev: Ev, sim: &mut Sim<Ev>) {
            match ev {
                Ev::Push(v) => self.log.push(v),
                Ev::Add(v) => self.count += v,
                Ev::Chain => {
                    self.count += 1;
                    if self.count < self.chain_len {
                        sim.schedule_in(SimTime::from_nanos(1), Ev::Chain);
                    }
                }
                Ev::Mix(i) => {
                    self.count = self.count.wrapping_mul(31).wrapping_add(i);
                    sim.schedule_in(SimTime::from_nanos(i), Ev::Add(i * i));
                }
                Ev::Backwards => {
                    sim.schedule_at(SimTime::from_nanos(5), Ev::Nop);
                }
                Ev::Hold(payload) => drop(payload),
                Ev::Nop => {}
            }
        }
    }

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new();
        let mut world = World::default();
        sim.schedule_at(t(30), Ev::Push(3));
        sim.schedule_at(t(10), Ev::Push(1));
        sim.schedule_at(t(20), Ev::Push(2));
        sim.run(&mut world);
        assert_eq!(world.log, vec![1, 2, 3]);
        assert_eq!(sim.events_fired(), 3);
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        let mut sim = Sim::new();
        let mut world = World::default();
        for i in 0..100 {
            sim.schedule_at(t(5), Ev::Push(i));
        }
        sim.run(&mut world);
        assert_eq!(world.log, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Sim::new();
        // A chain of 1000 events, each scheduling the next.
        let mut world = World {
            chain_len: 1000,
            ..World::default()
        };
        sim.schedule_now(Ev::Chain);
        sim.run(&mut world);
        assert_eq!(world.count, 1000);
        assert_eq!(sim.now(), t(999));
    }

    #[test]
    fn chained_events_reuse_the_slab() {
        let mut sim = Sim::new();
        let mut world = World {
            chain_len: 10_000,
            ..World::default()
        };
        sim.schedule_now(Ev::Chain);
        sim.run(&mut world);
        assert_eq!(world.count, 10_000);
        // One event in flight at a time: the arena never grows past the
        // high-water mark of concurrently pending events.
        assert_eq!(sim.slots.len(), 1, "slab should recycle the single slot");
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim = Sim::new();
        let mut world = World::default();
        let h = sim.schedule_at(t(10), Ev::Add(1));
        sim.schedule_at(t(20), Ev::Add(10));
        assert!(sim.cancel(h));
        assert!(!sim.cancel(h), "double-cancel reports false");
        sim.run(&mut world);
        assert_eq!(world.count, 10);
    }

    #[test]
    fn cancel_unknown_handle_is_false() {
        let mut sim: Sim<Ev> = Sim::new();
        assert!(!sim.cancel(EventHandle { slot: 7, seq: 99 }));
    }

    #[test]
    fn cancel_after_fire_is_false_and_keeps_pending_accurate() {
        let mut sim = Sim::new();
        let mut world = World::default();
        let h = sim.schedule_at(t(10), Ev::Add(1));
        sim.schedule_at(t(20), Ev::Add(10));
        assert!(sim.step(&mut world), "first event fires");
        // The handle's event already ran: cancelling it must fail and must
        // not corrupt the pending count (the old HashSet design recorded the
        // spent seq and made `pending()` underflow).
        assert!(!sim.cancel(h), "cancel of a fired event reports false");
        assert_eq!(sim.pending(), 1);
        sim.run(&mut world);
        assert_eq!(world.count, 11);
        assert_eq!(sim.pending(), 0);
        assert!(!sim.cancel(h), "still false after the queue drained");
    }

    #[test]
    fn stale_handle_cannot_cancel_slot_reuser() {
        let mut sim = Sim::new();
        let mut world = World::default();
        let h1 = sim.schedule_at(t(10), Ev::Add(1));
        sim.step(&mut world);
        // The slot freed by h1's event is reused by the next schedule; the
        // stale handle must not cancel the new occupant.
        let h2 = sim.schedule_at(t(20), Ev::Add(10));
        assert_eq!(h1.slot, h2.slot, "slot is recycled");
        assert!(!sim.cancel(h1));
        sim.run(&mut world);
        assert_eq!(world.count, 11);
    }

    #[test]
    fn pending_counts_live_events_only() {
        let mut sim = Sim::new();
        let hs: Vec<_> = (0..10)
            .map(|i| sim.schedule_at(t(10 + i), Ev::Nop))
            .collect();
        assert_eq!(sim.pending(), 10);
        for h in &hs[2..5] {
            assert!(sim.cancel(*h));
        }
        assert_eq!(sim.pending(), 7);
        sim.run(&mut World::default());
        assert_eq!(sim.pending(), 0);
        assert_eq!(sim.events_fired(), 7);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim = Sim::new();
        let mut world = World::default();
        for v in [5, 10, 15, 20] {
            sim.schedule_at(t(v), Ev::Push(v));
        }
        sim.run_until(&mut world, t(15));
        assert_eq!(world.log, vec![5, 10, 15]);
        assert_eq!(sim.pending(), 1);
        sim.run(&mut world);
        assert_eq!(world.log, vec![5, 10, 15, 20]);
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut sim = Sim::new();
        let h = sim.schedule_at(t(10), Ev::Nop);
        sim.schedule_at(t(20), Ev::Nop);
        sim.cancel(h);
        assert_eq!(sim.peek_time(), Some(t(20)));
    }

    #[test]
    fn peek_time_is_live_after_step_uncovers_a_tombstone() {
        let mut sim = Sim::new();
        sim.schedule_at(t(10), Ev::Nop);
        let h = sim.schedule_at(t(20), Ev::Nop);
        sim.schedule_at(t(30), Ev::Nop);
        // Cancel the middle event while it is not the heap top …
        sim.cancel(h);
        let mut world = World::default();
        // … then fire the first; the tombstone surfaces and must be drained
        // so `peek_time` (and thus `run_until`) sees 30, not 20.
        sim.step(&mut world);
        assert_eq!(sim.peek_time(), Some(t(30)));
        sim.run_until(&mut world, t(25));
        assert_eq!(sim.events_fired(), 1, "nothing fires inside (10, 25]");
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Sim::new();
        sim.schedule_at(t(10), Ev::Backwards);
        sim.run(&mut World::default());
    }

    #[test]
    fn deterministic_across_runs() {
        fn run_once() -> (u64, SimTime) {
            let mut sim = Sim::new();
            let mut world = World::default();
            for i in 0..50 {
                sim.schedule_at(t(i % 7), Ev::Mix(i));
            }
            sim.run(&mut world);
            (world.count, sim.now())
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn heap_orders_many_random_keys() {
        // Deterministic pseudo-random schedule exercising deep sifts.
        let mut sim = Sim::new();
        let mut world = World::default();
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = x % 1_000_000;
            sim.schedule_at(t(v), Ev::Push(v));
        }
        sim.run(&mut world);
        assert_eq!(world.log.len(), 5000);
        assert!(world.log.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn cancelled_and_abandoned_payloads_drop_exactly_once() {
        let payload = Rc::new(());
        let mut sim = Sim::new();
        let hs: Vec<_> = (0..6)
            .map(|i| sim.schedule_at(t(10 + i), Ev::Hold(Rc::clone(&payload))))
            .collect();
        assert_eq!(Rc::strong_count(&payload), 7);
        // A cancelled event's payload is dropped at cancellation, once:
        // cancelling the heap top (which drains it) and a buried event.
        assert!(sim.cancel(hs[0]));
        assert!(sim.cancel(hs[2]));
        assert_eq!(Rc::strong_count(&payload), 5);
        assert!(!sim.cancel(hs[2]), "double-cancel reports false");
        assert_eq!(Rc::strong_count(&payload), 5);
        // A fired event's payload is consumed by its handler.
        assert!(sim.step(&mut World::default()));
        assert_eq!(Rc::strong_count(&payload), 4);
        // Events still pending when the engine is dropped are dropped with
        // it, and the tombstoned slots are not dropped a second time.
        assert_eq!(sim.pending(), 3);
        drop(sim);
        assert_eq!(Rc::strong_count(&payload), 1);
    }
}
