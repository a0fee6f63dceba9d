//! The event-driven simulation engine.
//!
//! Events are boxed `FnOnce(&mut W, &mut Sim<W>)` closures over a user-defined
//! world type `W`. The engine pops events in `(time, sequence)` order, so two
//! events scheduled for the same instant fire in the order they were
//! scheduled — this is what makes runs deterministic.
//!
//! ## Data structures
//!
//! Reproducing the paper's figures means running hundreds of full-cluster
//! simulations, so the queue is built for throughput:
//!
//! * **Slab-backed event arena with inline closures.** Event closures live
//!   in [`Slot`]s of a `Vec` recycled through a free list, so the slab and
//!   the heap reach a high-water mark once and are reused for the rest of
//!   the run. Closures up to 48 bytes (all of the simulator's hot-path
//!   events) are stored *inline* in the slot — scheduling and firing an
//!   event performs no heap allocation at all; larger ones fall back to a
//!   transparent `Box`. A slot index is stable for the lifetime of its
//!   event, which gives O(1) cancellation without any hash map.
//! * **Index-based 4-ary min-heap.** The heap orders 24-byte entries of a
//!   packed `(time, seq)` `u128` key plus the slot index — the boxed
//!   closures never move during sift operations. A 4-ary layout halves the
//!   tree depth of a binary heap and keeps each sift's child scan inside one
//!   or two cache lines.
//! * **In-slab tombstone cancellation.** [`Sim::cancel`] drops the closure
//!   immediately and marks the slot; the heap entry is discarded lazily when
//!   it surfaces. The pop path never consults a hash set (the previous
//!   design paid a `HashSet` lookup per pop). Cancelling the current heap
//!   minimum eagerly drains it, which maintains the invariant that the heap
//!   top is always live — so [`Sim::peek_time`] is a true `&self` read.

use crate::obs::{prof, MetricsRegistry};
use crate::time::SimTime;
use crate::trace::Trace;

/// An event callback: runs at its scheduled time with access to the world and
/// the engine (to schedule follow-ups).
pub type Event<W> = Box<dyn FnOnce(&mut W, &mut Sim<W>)>;

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

/// Closure payloads up to this many bytes (and alignment ≤ 8) are stored
/// inline in the arena slot — no heap allocation at all. Larger or
/// over-aligned closures fall back to a `Box<dyn FnOnce>` whose fat pointer
/// is stored in the same buffer. Sized to fit the work-stealing engine's
/// largest hot-path captures (a `Vec` of children plus a few indices).
const INLINE_EVENT_WORDS: usize = 6;

/// 8-aligned inline storage for an event closure (or the boxed fallback).
#[derive(Clone, Copy)]
struct EventData([std::mem::MaybeUninit<u64>; INLINE_EVENT_WORDS]);

impl EventData {
    const EMPTY: EventData = EventData([std::mem::MaybeUninit::uninit(); INLINE_EVENT_WORDS]);

    #[inline(always)]
    fn as_mut_ptr(&mut self) -> *mut u8 {
        self.0.as_mut_ptr() as *mut u8
    }
}

/// Reads the closure of concrete type `F` out of `p` and invokes it.
///
/// Safety: `p` must hold a valid, initialized `F` which is logically moved
/// out by this call (the caller must not drop or reuse it afterwards).
unsafe fn call_inline<W, F: FnOnce(&mut W, &mut Sim<W>)>(p: *mut u8, w: &mut W, sim: &mut Sim<W>) {
    (p as *mut F).read()(w, sim)
}

/// Boxed-fallback twin of [`call_inline`]: `p` holds an `Event<W>` fat
/// pointer; the box is moved out, invoked, and freed.
unsafe fn call_boxed<W>(p: *mut u8, w: &mut W, sim: &mut Sim<W>) {
    (p as *mut Event<W>).read()(w, sim)
}

/// Drops a still-stored payload of type `T` in place (cancellation and
/// engine drop; fired events are consumed by their `call` instead).
unsafe fn drop_payload<T>(p: *mut u8) {
    std::ptr::drop_in_place(p as *mut T)
}

/// One arena slot. `call` is `Some` while the event is pending; cancellation
/// drops the payload in place (the tombstone) and firing moves it out. The
/// sequence number distinguishes the current occupant from stale handles.
struct Slot<W> {
    seq: u64,
    call: Option<unsafe fn(*mut u8, &mut W, &mut Sim<W>)>,
    /// Valid whenever `call` is `Some`; drops the payload without running it.
    drop_fn: unsafe fn(*mut u8),
    /// Event kind for the host self-profiler's dispatch bucketing (see
    /// [`crate::obs::prof`]); assigned at schedule time, `'static` so the
    /// hot path stores a pointer, never a string.
    kind: &'static str,
    data: EventData,
}

impl<W> Slot<W> {
    /// Store `f` in the slot: inline when it fits, boxed otherwise. The
    /// size/alignment test is a monomorphized constant, so each call site
    /// compiles to exactly one of the two paths.
    #[inline]
    fn store<F>(&mut self, seq: u64, f: F)
    where
        F: FnOnce(&mut W, &mut Sim<W>) + 'static,
    {
        debug_assert!(self.call.is_none(), "storing into an occupied slot");
        self.seq = seq;
        if std::mem::size_of::<F>() <= INLINE_EVENT_WORDS * 8 && std::mem::align_of::<F>() <= 8 {
            unsafe { (self.data.as_mut_ptr() as *mut F).write(f) };
            self.call = Some(call_inline::<W, F>);
            self.drop_fn = drop_payload::<F>;
        } else {
            let boxed: Event<W> = Box::new(f);
            unsafe { (self.data.as_mut_ptr() as *mut Event<W>).write(boxed) };
            self.call = Some(call_boxed::<W>);
            self.drop_fn = drop_payload::<Event<W>>;
        }
    }

    /// Drop the pending payload without running it. No-op on empty slots.
    #[inline]
    fn clear(&mut self) -> bool {
        match self.call.take() {
            Some(_) => {
                unsafe { (self.drop_fn)(self.data.as_mut_ptr()) };
                true
            }
            None => false,
        }
    }
}

/// Heap entry: the event's time and sequence number plus the arena slot
/// holding its closure. Ordering compares the `(time, seq)` pair packed
/// into one `u128` (time in the high 64 bits), a single wide integer
/// compare; the fields stay separate in memory so the entry is 24 bytes
/// (8-aligned) instead of a 32-byte 16-aligned struct.
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
/// `W` is the user-defined world; the engine never inspects it, it only
/// threads `&mut W` through event callbacks. The engine also carries the
/// activity [`Trace`] so that event code anywhere in the stack can record
/// Gantt spans without extra plumbing.
pub struct Sim<W> {
    now: SimTime,
    seq: u64,
    heap: Vec<HeapEntry>,
    slots: Vec<Slot<W>>,
    free: Vec<u32>,
    /// Number of tombstoned entries still sitting in the heap.
    cancelled: usize,
    events_fired: u64,
    /// Activity trace (Gantt spans, see [`crate::trace`]).
    pub trace: Trace,
    /// Metrics registry (counters, gauges, histograms; see [`crate::obs`]).
    pub metrics: MetricsRegistry,
    seed: u64,
}

impl<W> Sim<W> {
    /// Create an engine. `seed` is the master seed from which all component
    /// RNG streams are derived (see [`crate::rng::StreamRng`]).
    pub fn new(seed: u64) -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            cancelled: 0,
            events_fired: 0,
            trace: Trace::new(),
            metrics: MetricsRegistry::new(),
            seed,
        }
    }

    /// The master seed this simulation was created with.
    pub fn seed(&self) -> u64 {
        self.seed
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

    /// Schedule `f` at absolute time `at`. Panics if `at` is in the past.
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F) -> EventHandle
    where
        F: FnOnce(&mut W, &mut Sim<W>) + 'static,
    {
        self.schedule_at_as("event::other", at, f)
    }

    /// [`Sim::schedule_at`] with an event kind for the self-profiler's
    /// dispatch bucketing. `kind` names the frame the event's execution is
    /// charged to (e.g. `"event::steal"`); unnamed schedules all land in
    /// `"event::other"`.
    pub fn schedule_at_as<F>(&mut self, kind: &'static str, at: SimTime, f: F) -> EventHandle
    where
        F: FnOnce(&mut W, &mut Sim<W>) + 'static,
    {
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
            Some(i) => i,
            None => {
                debug_assert!(self.slots.len() < u32::MAX as usize, "event arena full");
                self.slots.push(Slot {
                    seq,
                    call: None,
                    drop_fn: drop_payload::<()>,
                    kind,
                    data: EventData::EMPTY,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let s = &mut self.slots[slot as usize];
        s.kind = kind;
        s.store(seq, f);
        self.heap_push(HeapEntry {
            time: at.as_nanos(),
            seq,
            slot,
        });
        EventHandle { slot, seq }
    }

    /// Schedule `f` after a delay from now.
    pub fn schedule_in<F>(&mut self, delay: SimTime, f: F) -> EventHandle
    where
        F: FnOnce(&mut W, &mut Sim<W>) + 'static,
    {
        self.schedule_at(self.now + delay, f)
    }

    /// [`Sim::schedule_in`] with an event kind (see [`Sim::schedule_at_as`]).
    pub fn schedule_in_as<F>(&mut self, kind: &'static str, delay: SimTime, f: F) -> EventHandle
    where
        F: FnOnce(&mut W, &mut Sim<W>) + 'static,
    {
        self.schedule_at_as(kind, self.now + delay, f)
    }

    /// Schedule `f` to run at the current time, after all events already
    /// scheduled for the current time.
    pub fn schedule_now<F>(&mut self, f: F) -> EventHandle
    where
        F: FnOnce(&mut W, &mut Sim<W>) + 'static,
    {
        self.schedule_at(self.now, f)
    }

    /// [`Sim::schedule_now`] with an event kind (see [`Sim::schedule_at_as`]).
    pub fn schedule_now_as<F>(&mut self, kind: &'static str, f: F) -> EventHandle
    where
        F: FnOnce(&mut W, &mut Sim<W>) + 'static,
    {
        self.schedule_at_as(kind, self.now, f)
    }

    /// Cancel a pending event. Returns `true` if the event had not fired and
    /// had not already been cancelled; stale handles (fired, cancelled, or
    /// from a slot since reused) return `false` and change nothing.
    pub fn cancel(&mut self, h: EventHandle) -> bool {
        let _prof = prof::scope("des::cancel");
        let Some(slot) = self.slots.get_mut(h.slot as usize) else {
            return false;
        };
        if slot.seq != h.seq || !slot.clear() {
            return false;
        }
        // The closure is dropped; the heap entry becomes a tombstone.
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
            if self.slots[top.slot as usize].call.is_some() {
                break;
            }
            let e = self.heap_pop().expect("peeked heap entry vanished");
            self.cancelled -= 1;
            self.free.push(e.slot);
        }
    }

    /// Execute the single next event, if any. Returns `false` when the queue
    /// is empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        let heap_scope = prof::scope("des::heap");
        let Some(e) = self.heap_pop() else {
            return false;
        };
        // The heap top is never a tombstone (see `drain_cancelled_top`), so
        // the popped entry is always live. Move the payload bits out to the
        // stack and free the slot *before* invoking, so the callback may
        // freely schedule into (and reuse) it.
        let slot = &mut self.slots[e.slot as usize];
        let call = slot.call.take().expect("heap top was a tombstone");
        let kind = slot.kind;
        let mut data = slot.data;
        self.free.push(e.slot);
        if self.cancelled > 0 {
            self.drain_cancelled_top();
        }
        drop(heap_scope);
        let time = SimTime::from_nanos(e.time);
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        self.events_fired += 1;
        // Dispatch bucketed by event kind: the callback's wall time (and
        // everything it calls — kernel interpretation, balancer decisions,
        // follow-up schedules) lands under the kind's frame.
        let _prof = prof::scope(kind);
        unsafe { call(data.as_mut_ptr(), world, self) };
        true
    }

    /// Run until the event queue is empty.
    pub fn run(&mut self, world: &mut W) {
        while self.step(world) {}
    }

    /// Run until the event queue is empty or virtual time would exceed
    /// `until`. Events scheduled exactly at `until` are executed.
    pub fn run_until(&mut self, world: &mut W, until: SimTime) {
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

impl<W> Drop for Sim<W> {
    /// Drop payloads still pending in the arena (a simulation abandoned
    /// mid-run, e.g. after `run_until`). Fired and cancelled events were
    /// already consumed; `clear` skips their empty slots.
    fn drop(&mut self) {
        for s in &mut self.slots {
            s.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim: Sim<Vec<u32>> = Sim::new(1);
        let mut world = Vec::new();
        sim.schedule_at(SimTime::from_nanos(30), |w: &mut Vec<u32>, _| w.push(3));
        sim.schedule_at(SimTime::from_nanos(10), |w: &mut Vec<u32>, _| w.push(1));
        sim.schedule_at(SimTime::from_nanos(20), |w: &mut Vec<u32>, _| w.push(2));
        sim.run(&mut world);
        assert_eq!(world, vec![1, 2, 3]);
        assert_eq!(sim.events_fired(), 3);
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        let mut sim: Sim<Vec<u32>> = Sim::new(1);
        let mut world = Vec::new();
        for i in 0..100u32 {
            sim.schedule_at(SimTime::from_nanos(5), move |w: &mut Vec<u32>, _| w.push(i));
        }
        sim.run(&mut world);
        assert_eq!(world, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim: Sim<u64> = Sim::new(1);
        let mut world = 0u64;
        // A chain of 1000 events, each scheduling the next.
        fn chain(w: &mut u64, sim: &mut Sim<u64>) {
            *w += 1;
            if *w < 1000 {
                sim.schedule_in(SimTime::from_nanos(1), chain);
            }
        }
        sim.schedule_now(chain);
        sim.run(&mut world);
        assert_eq!(world, 1000);
        assert_eq!(sim.now(), SimTime::from_nanos(999));
    }

    #[test]
    fn chained_events_reuse_the_slab() {
        let mut sim: Sim<u64> = Sim::new(1);
        let mut world = 0u64;
        fn chain(w: &mut u64, sim: &mut Sim<u64>) {
            *w += 1;
            if *w < 10_000 {
                sim.schedule_in(SimTime::from_nanos(1), chain);
            }
        }
        sim.schedule_now(chain);
        sim.run(&mut world);
        assert_eq!(world, 10_000);
        // One event in flight at a time: the arena never grows past the
        // high-water mark of concurrently pending events.
        assert_eq!(sim.slots.len(), 1, "slab should recycle the single slot");
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim: Sim<u32> = Sim::new(1);
        let mut world = 0;
        let h = sim.schedule_at(SimTime::from_nanos(10), |w: &mut u32, _| *w += 1);
        sim.schedule_at(SimTime::from_nanos(20), |w: &mut u32, _| *w += 10);
        assert!(sim.cancel(h));
        assert!(!sim.cancel(h), "double-cancel reports false");
        sim.run(&mut world);
        assert_eq!(world, 10);
    }

    #[test]
    fn cancel_unknown_handle_is_false() {
        let mut sim: Sim<u32> = Sim::new(1);
        assert!(!sim.cancel(EventHandle { slot: 7, seq: 99 }));
    }

    #[test]
    fn cancel_after_fire_is_false_and_keeps_pending_accurate() {
        let mut sim: Sim<u32> = Sim::new(1);
        let mut world = 0;
        let h = sim.schedule_at(SimTime::from_nanos(10), |w: &mut u32, _| *w += 1);
        sim.schedule_at(SimTime::from_nanos(20), |w: &mut u32, _| *w += 10);
        assert!(sim.step(&mut world), "first event fires");
        // The handle's event already ran: cancelling it must fail and must
        // not corrupt the pending count (the old HashSet design recorded the
        // spent seq and made `pending()` underflow).
        assert!(!sim.cancel(h), "cancel of a fired event reports false");
        assert_eq!(sim.pending(), 1);
        sim.run(&mut world);
        assert_eq!(world, 11);
        assert_eq!(sim.pending(), 0);
        assert!(!sim.cancel(h), "still false after the queue drained");
    }

    #[test]
    fn stale_handle_cannot_cancel_slot_reuser() {
        let mut sim: Sim<u32> = Sim::new(1);
        let mut world = 0;
        let h1 = sim.schedule_at(SimTime::from_nanos(10), |w: &mut u32, _| *w += 1);
        sim.step(&mut world);
        // The slot freed by h1's event is reused by the next schedule; the
        // stale handle must not cancel the new occupant.
        let h2 = sim.schedule_at(SimTime::from_nanos(20), |w: &mut u32, _| *w += 10);
        assert_eq!(h1.slot, h2.slot, "slot is recycled");
        assert!(!sim.cancel(h1));
        sim.run(&mut world);
        assert_eq!(world, 11);
    }

    #[test]
    fn pending_counts_live_events_only() {
        let mut sim: Sim<u32> = Sim::new(1);
        let hs: Vec<_> = (0..10)
            .map(|i| sim.schedule_at(SimTime::from_nanos(10 + i), |_, _| {}))
            .collect();
        assert_eq!(sim.pending(), 10);
        for h in &hs[2..5] {
            assert!(sim.cancel(*h));
        }
        assert_eq!(sim.pending(), 7);
        let mut world = 0u32;
        sim.run(&mut world);
        assert_eq!(sim.pending(), 0);
        assert_eq!(sim.events_fired(), 7);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim: Sim<Vec<u64>> = Sim::new(1);
        let mut world = Vec::new();
        for t in [5u64, 10, 15, 20] {
            sim.schedule_at(SimTime::from_nanos(t), move |w: &mut Vec<u64>, _| w.push(t));
        }
        sim.run_until(&mut world, SimTime::from_nanos(15));
        assert_eq!(world, vec![5, 10, 15]);
        assert_eq!(sim.pending(), 1);
        sim.run(&mut world);
        assert_eq!(world, vec![5, 10, 15, 20]);
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut sim: Sim<u32> = Sim::new(1);
        let h = sim.schedule_at(SimTime::from_nanos(10), |_, _| {});
        sim.schedule_at(SimTime::from_nanos(20), |_, _| {});
        sim.cancel(h);
        assert_eq!(sim.peek_time(), Some(SimTime::from_nanos(20)));
    }

    #[test]
    fn peek_time_is_live_after_step_uncovers_a_tombstone() {
        let mut sim: Sim<u32> = Sim::new(1);
        sim.schedule_at(SimTime::from_nanos(10), |_, _| {});
        let h = sim.schedule_at(SimTime::from_nanos(20), |_, _| {});
        sim.schedule_at(SimTime::from_nanos(30), |_, _| {});
        // Cancel the middle event while it is not the heap top …
        sim.cancel(h);
        let mut world = 0u32;
        // … then fire the first; the tombstone surfaces and must be drained
        // so `peek_time` (and thus `run_until`) sees 30, not 20.
        sim.step(&mut world);
        assert_eq!(sim.peek_time(), Some(SimTime::from_nanos(30)));
        sim.run_until(&mut world, SimTime::from_nanos(25));
        assert_eq!(sim.events_fired(), 1, "nothing fires inside (10, 25]");
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim: Sim<u32> = Sim::new(1);
        let mut world = 0;
        sim.schedule_at(SimTime::from_nanos(10), |_, sim: &mut Sim<u32>| {
            sim.schedule_at(SimTime::from_nanos(5), |_, _| {});
        });
        sim.run(&mut world);
    }

    #[test]
    fn deterministic_across_runs() {
        fn run_once() -> (u64, SimTime) {
            let mut sim: Sim<u64> = Sim::new(7);
            let mut world = 0u64;
            for i in 0..50u64 {
                sim.schedule_at(
                    SimTime::from_nanos(i % 7),
                    move |w: &mut u64, s: &mut Sim<u64>| {
                        *w = w.wrapping_mul(31).wrapping_add(i);
                        s.schedule_in(SimTime::from_nanos(i), move |w: &mut u64, _| {
                            *w = w.wrapping_add(i * i);
                        });
                    },
                );
            }
            sim.run(&mut world);
            (world, sim.now())
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn heap_orders_many_random_keys() {
        // Deterministic pseudo-random schedule exercising deep sifts.
        let mut sim: Sim<Vec<u64>> = Sim::new(1);
        let mut world = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = x % 1_000_000;
            sim.schedule_at(SimTime::from_nanos(t), move |w: &mut Vec<u64>, _| w.push(t));
        }
        sim.run(&mut world);
        assert_eq!(world.len(), 5000);
        assert!(world.windows(2).all(|w| w[0] <= w[1]));
    }
}
