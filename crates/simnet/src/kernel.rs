//! Discrete-event kernel.
//!
//! A deliberately small core: the simulation *engine* (in `sagrid-simgrid`)
//! owns all world state and encodes behaviour in an event enum; this module
//! only guarantees a total, deterministic execution order.
//!
//! Ordering is `(time, seq)` where `seq` is a monotonically increasing
//! sequence number assigned at push time. Two events scheduled for the same
//! instant therefore execute in scheduling order, which (a) is deterministic
//! and (b) preserves intuitive causality: an event scheduled as a consequence
//! of another never runs before it.
//!
//! # Queue backends
//!
//! Two implementations share the `(time, seq)` contract and pop *identical*
//! sequences for identical push sequences:
//!
//! * [`QueueBackend::Wheel`] — the production queue: a two-tier timer wheel
//!   with 1 µs ticks. Level 0 is 4,096 (`L0_SLOTS`) one-µs slots, wide
//!   enough that an event one LAN hop ahead is filed once and popped where
//!   it was filed; its first occupied slot is found through a two-level
//!   bitmap (64 words and one summary word, two `trailing_zeros`). Above it,
//!   four (`UPPER_LEVELS`) levels of 64 slots each carry the horizon to
//!   2^36 µs. Every slot is an intrusive FIFO list (`head`, `tail`) over
//!   one slab of entries with a free list, so a cascade relinks indices
//!   instead of moving payloads and a run reuses one allocation. Slots are
//!   indexed by the bits of the event's absolute timestamp, and the level is
//!   the position of the highest bit in `at XOR cursor` (the wheel's
//!   internal clock), so slot order within a level *is* time order and no
//!   modulo wrap-around ambiguity exists. Events beyond the wheel horizon
//!   (`at - now >= 2^36` µs, ≈ 19 hours) go to a spill-over binary heap
//!   ordered by `(at, seq)` and re-enter the wheel when the cursor reaches
//!   their 2^36 µs block.
//! * [`QueueBackend::Heap`] — a `BinaryHeap` ordered by `(at, seq)`;
//!   O(log n), kept as the oracle the wheel is tested against.
//!
//! Why the pop order is identical: an event's `(level, slot)` is a pure
//! function of `at` and the cursor `C`, and it does not change while the
//! event waits — popping at level 0 moves only `C`'s low twelve bits, which
//! no placement depends on, and a cascade of level `k` happens only when
//! every lower level is empty and changes `C` only at level `k` and below.
//! So all events with one timestamp sit in one list in push (= seq) order;
//! a cascade walks a list head to tail and appends, which keeps that order.
//! All level-0 entries share `at >> 12` with the cursor, so a level-0 slot
//! holds exactly one timestamp and slot order is time order. All events on
//! one level are strictly earlier than all events on the next, and occupied
//! slot order within a level is time order, so "first slot of the lowest
//! non-empty level" always yields the global minimum.

use sagrid_core::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Slot-index bits of level 0: 4,096 one-µs slots, one LAN hop of future.
const L0_BITS: u32 = 12;
/// Slots on level 0.
const L0_SLOTS: usize = 1 << L0_BITS;
/// Words in level 0's occupancy bitmap (one summary word covers them).
const L0_WORDS: usize = L0_SLOTS / 64;
/// Slot-index bits per upper level (64 slots, one bitmap word).
const UPPER_BITS: u32 = 6;
/// Slots per upper level.
const UPPER_SLOTS: usize = 1 << UPPER_BITS;
/// Upper levels. Upper level `k` spans `2^(12 + 6(k+1))` µs of future.
const UPPER_LEVELS: usize = 4;
/// Events further than `2^HORIZON_BITS` µs ahead spill to the overflow heap.
const HORIZON_BITS: u32 = L0_BITS + UPPER_BITS * UPPER_LEVELS as u32;
/// "No entry": ends a slot's list and the free list.
const NIL: u32 = u32::MAX;

/// Which future-event-list implementation an [`EventQueue`] uses.
///
/// Both backends implement the same `(time, seq)` total order and are
/// observationally identical; `Wheel` is the production queue, `Heap` is the
/// reference implementation kept for equivalence testing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueueBackend {
    /// Two-tier timer wheel, O(1) amortized (default).
    #[default]
    Wheel,
    /// Binary min-heap oracle, O(log n).
    Heap,
}

/// An event ordered by `(at, seq)`: an element of the heap oracle and of
/// the wheel's spill-over heap.
///
/// The spill-over heap needs `seq` so that draining a 2^36 µs block back
/// into the wheel re-inserts equal-timestamp events in push order (the
/// wheel's FIFO lists then preserve it).
#[derive(Debug)]
struct Scheduled<E> {
    at: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse to pop the earliest event first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// One slab cell: a pending event linked into its slot's list, or a free
/// cell (`event` is `None`) linked into the free list.
#[derive(Debug)]
struct Entry<E> {
    at: u64,
    next: u32,
    event: Option<E>,
}

/// A slot's FIFO list of slab indices; both [`NIL`] when empty.
#[derive(Clone, Copy, Debug)]
struct Slot {
    head: u32,
    tail: u32,
}

const EMPTY_SLOT: Slot = Slot {
    head: NIL,
    tail: NIL,
};

/// Two-tier timer wheel state (see module docs for the invariants).
#[derive(Debug)]
struct Wheel<E> {
    /// Every pending within-horizon event, plus the cells on the free list.
    entries: Vec<Entry<E>>,
    /// Head of the free list through `Entry::next`.
    free: u32,
    /// Level 0's slots, then each upper level's.
    slots: Box<[Slot]>,
    /// Level-0 occupancy (bit `s % 64` of word `s / 64` set ⇔ slot `s`
    /// non-empty) and its summary (bit `w` set ⇔ word `w` non-zero).
    l0_words: [u64; L0_WORDS],
    l0_summary: u64,
    /// Per-upper-level slot occupancy.
    upper: [u64; UPPER_LEVELS],
    /// Internal wheel clock; equals the queue's `now` between pops (cascades
    /// advance it to slot starts mid-pop, never past the next event).
    cursor: u64,
    /// Beyond-horizon events, earliest `(at, seq)` first.
    overflow: BinaryHeap<Scheduled<E>>,
}

impl<E> Wheel<E> {
    fn new() -> Self {
        Self {
            entries: Vec::new(),
            free: NIL,
            slots: vec![EMPTY_SLOT; L0_SLOTS + UPPER_LEVELS * UPPER_SLOTS].into(),
            l0_words: [0; L0_WORDS],
            l0_summary: 0,
            upper: [0; UPPER_LEVELS],
            cursor: 0,
            overflow: BinaryHeap::new(),
        }
    }

    /// Stores a within-horizon event in a slab cell (a free one if there
    /// is any) and files it.
    #[inline]
    fn insert(&mut self, at: u64, event: E) {
        let mut idx = self.free;
        if idx != NIL {
            let e = &mut self.entries[idx as usize];
            self.free = e.next;
            e.at = at;
            e.event = Some(event);
        } else {
            idx = u32::try_from(self.entries.len())
                .ok()
                .filter(|&idx| idx != NIL)
                .expect("fewer than 2^32 - 1 pending events");
            self.entries.push(Entry {
                at,
                next: NIL,
                event: Some(event),
            });
        }
        self.file(idx);
    }

    /// Appends cell `idx` to the list of the `(level, slot)` its timestamp
    /// maps to under the current cursor.
    #[inline]
    fn file(&mut self, idx: u32) {
        let e = &mut self.entries[idx as usize];
        e.next = NIL;
        let at = e.at;
        debug_assert!(at >= self.cursor);
        let x = at ^ self.cursor;
        debug_assert!(x >> HORIZON_BITS == 0);
        let slot = if x >> L0_BITS == 0 {
            let slot = (at & (L0_SLOTS as u64 - 1)) as usize;
            self.l0_words[slot / 64] |= 1u64 << (slot % 64);
            self.l0_summary |= 1u64 << (slot / 64);
            slot
        } else {
            let level = ((63 - x.leading_zeros() - L0_BITS) / UPPER_BITS) as usize;
            let shift = L0_BITS + UPPER_BITS * level as u32;
            let slot = ((at >> shift) & (UPPER_SLOTS as u64 - 1)) as usize;
            self.upper[level] |= 1u64 << slot;
            L0_SLOTS + level * UPPER_SLOTS + slot
        };
        let tail = std::mem::replace(&mut self.slots[slot].tail, idx);
        if tail == NIL {
            self.slots[slot].head = idx;
        } else {
            self.entries[tail as usize].next = idx;
        }
    }

    fn push(&mut self, at: u64, seq: u64, event: E) {
        if (at ^ self.cursor) >> HORIZON_BITS != 0 {
            self.overflow.push(Scheduled { at, seq, event });
        } else {
            self.insert(at, event);
        }
    }

    /// First occupied level-0 slot, if any.
    #[inline]
    fn first_l0_slot(&self) -> Option<usize> {
        if self.l0_summary == 0 {
            return None;
        }
        let word = self.l0_summary.trailing_zeros() as usize;
        Some(word * 64 + self.l0_words[word].trailing_zeros() as usize)
    }

    /// Lowest non-empty upper level and its first occupied slot.
    #[inline]
    fn first_upper_slot(&self) -> Option<(usize, usize)> {
        let level = self.upper.iter().position(|&m| m != 0)?;
        Some((level, self.upper[level].trailing_zeros() as usize))
    }

    fn pop(&mut self) -> Option<(u64, E)> {
        loop {
            if let Some(slot) = self.first_l0_slot() {
                let idx = self.slots[slot].head;
                let e = &mut self.entries[idx as usize];
                let at = e.at;
                let event = e.event.take().expect("a filed cell holds its event");
                let next = std::mem::replace(&mut e.next, self.free);
                self.free = idx;
                self.slots[slot].head = next;
                if next == NIL {
                    self.slots[slot].tail = NIL;
                    self.l0_words[slot / 64] &= !(1u64 << (slot % 64));
                    if self.l0_words[slot / 64] == 0 {
                        self.l0_summary &= !(1u64 << (slot / 64));
                    }
                }
                self.cursor = at;
                return Some((at, event));
            }
            if let Some((level, slot)) = self.first_upper_slot() {
                // Cascade: advance the cursor to the slot's start time
                // (still ≤ every event in the slot) and re-file the list one
                // or more levels down.
                let shift = L0_BITS + UPPER_BITS * level as u32;
                let upper = self.cursor >> (shift + UPPER_BITS) << (shift + UPPER_BITS);
                self.cursor = upper | ((slot as u64) << shift);
                self.upper[level] &= !(1u64 << slot);
                let list = &mut self.slots[L0_SLOTS + level * UPPER_SLOTS + slot];
                let mut idx = std::mem::replace(list, EMPTY_SLOT).head;
                while idx != NIL {
                    let next = self.entries[idx as usize].next;
                    self.file(idx);
                    idx = next;
                }
                continue;
            }
            // Wheel empty: pull the next 2^36 µs block from overflow. All
            // overflow events are in later blocks than everything the wheel
            // held, so this never reorders.
            let block = self.overflow.peek()?.at >> HORIZON_BITS;
            self.cursor = block << HORIZON_BITS;
            while self
                .overflow
                .peek()
                .is_some_and(|s| s.at >> HORIZON_BITS == block)
            {
                let s = self.overflow.pop().expect("peeked");
                // Heap order is (at, seq), so equal-`at` spills re-enter
                // their list in push order.
                self.insert(s.at, s.event);
            }
        }
    }

    fn peek_time(&self) -> Option<u64> {
        if let Some(slot) = self.first_l0_slot() {
            // A level-0 slot holds exactly one timestamp.
            return Some(self.entries[self.slots[slot].head as usize].at);
        }
        let Some((level, slot)) = self.first_upper_slot() else {
            return self.overflow.peek().map(|s| s.at);
        };
        // Upper-level lists mix timestamps; scan for the minimum. Not on
        // the simulation hot path (the engine never peeks between events).
        let mut idx = self.slots[L0_SLOTS + level * UPPER_SLOTS + slot].head;
        let mut min = u64::MAX;
        while idx != NIL {
            let e = &self.entries[idx as usize];
            min = min.min(e.at);
            idx = e.next;
        }
        Some(min)
    }
}

/// The future-event list behind an [`EventQueue`].
// A simulation owns one queue and production ones are always `Wheel`, so the
// variants' size gap wastes nothing; boxing the wheel would put a pointer
// chase in front of every push and pop.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Backend<E> {
    Wheel(Wheel<E>),
    Heap(BinaryHeap<Scheduled<E>>),
}

/// A deterministic future-event list with a virtual clock.
///
/// The clock only moves forward: popping an event advances `now()` to the
/// event's timestamp. Scheduling into the past is a logic error: it trips a
/// `debug_assert!` in debug builds, and in release builds the timestamp is
/// clamped to `now()` (the event still runs, at the earliest legal time, and
/// both backends agree on the resulting order — see [`EventQueue::push`]).
#[derive(Debug)]
pub struct EventQueue<E> {
    backend: Backend<E>,
    now: SimTime,
    next_seq: u64,
    processed: u64,
    len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at time zero (timer-wheel backend).
    pub fn new() -> Self {
        Self::with_backend(QueueBackend::Wheel)
    }

    /// An empty queue using the given backend.
    pub fn with_backend(backend: QueueBackend) -> Self {
        Self {
            backend: match backend {
                QueueBackend::Wheel => Backend::Wheel(Wheel::new()),
                QueueBackend::Heap => Backend::Heap(BinaryHeap::new()),
            },
            now: SimTime::ZERO,
            next_seq: 0,
            processed: 0,
            len: 0,
        }
    }

    /// Which backend this queue runs on.
    pub fn backend(&self) -> QueueBackend {
        match self.backend {
            Backend::Wheel(_) => QueueBackend::Wheel,
            Backend::Heap(_) => QueueBackend::Heap,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far (for throughput benches).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// `at` must not be before `now()`: scheduling into the past violates
    /// causality. Debug builds assert; release builds clamp `at` to `now()`,
    /// so the event fires immediately after the current one (and, like any
    /// same-time tie, in push order). The clamp is part of the contract —
    /// both queue backends apply it before ordering, so they stay
    /// pop-for-pop identical even on this edge.
    pub fn push(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "cannot schedule into the past: at={at:?} < now={:?}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        match &mut self.backend {
            Backend::Wheel(w) => w.push(at.0, seq, event),
            Backend::Heap(h) => h.push(Scheduled {
                at: at.0,
                seq,
                event,
            }),
        }
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty (simulation end).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, event) = match &mut self.backend {
            Backend::Wheel(w) => w.pop()?,
            Backend::Heap(h) => {
                let s = h.pop()?;
                (s.at, s.event)
            }
        };
        let at = SimTime(at);
        debug_assert!(at >= self.now);
        self.now = at;
        self.processed += 1;
        self.len -= 1;
        Some((at, event))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.backend {
            Backend::Wheel(w) => w.peek_time(),
            Backend::Heap(h) => h.peek().map(|s| s.at),
        }
        .map(SimTime)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sagrid_core::rng::{Rng64, Xoshiro256StarStar};
    use sagrid_core::time::SimDuration;

    fn both() -> [EventQueue<u64>; 2] {
        [
            EventQueue::with_backend(QueueBackend::Wheel),
            EventQueue::with_backend(QueueBackend::Heap),
        ]
    }

    /// The wheel and the heap oracle driven in lock-step: every push goes to
    /// both (tagged with its push number) and every pop asserts that all
    /// observables agree.
    struct Pair {
        wheel: EventQueue<u64>,
        heap: EventQueue<u64>,
        pushed: u64,
    }

    impl Pair {
        fn new() -> Self {
            let [wheel, heap] = both();
            Self {
                wheel,
                heap,
                pushed: 0,
            }
        }

        /// Pushes at absolute time `at` µs; returns the event's tag.
        fn push(&mut self, at: u64) -> u64 {
            let tag = self.pushed;
            self.pushed += 1;
            self.wheel.push(SimTime(at), tag);
            self.heap.push(SimTime(at), tag);
            tag
        }

        fn pop(&mut self) -> Option<(u64, u64)> {
            assert_eq!(self.wheel.peek_time(), self.heap.peek_time());
            let popped = self.wheel.pop();
            assert_eq!(popped, self.heap.pop(), "after {} pushes", self.pushed);
            assert_eq!(self.wheel.len(), self.heap.len());
            assert_eq!(self.wheel.is_empty(), self.heap.is_empty());
            assert_eq!(self.wheel.processed(), self.heap.processed());
            assert_eq!(self.wheel.now(), self.heap.now());
            popped.map(|(t, tag)| (t.0, tag))
        }

        fn drain(&mut self) -> Vec<(u64, u64)> {
            std::iter::from_fn(|| self.pop()).collect()
        }

        fn wheel(&self) -> &Wheel<u64> {
            match &self.wheel.backend {
                Backend::Wheel(w) => w,
                Backend::Heap(_) => unreachable!("first of `both()` is the wheel"),
            }
        }
    }

    /// Every boundary of the geometry: the level-0 block, each upper level's
    /// span, and the horizon.
    fn level_boundaries() -> impl Iterator<Item = u64> {
        (0..=UPPER_LEVELS as u32).map(|k| 1u64 << (L0_BITS + UPPER_BITS * k))
    }

    #[test]
    fn pops_in_time_order() {
        for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
            let mut q = EventQueue::with_backend(backend);
            q.push(SimTime::from_secs(3), "c");
            q.push(SimTime::from_secs(1), "a");
            q.push(SimTime::from_secs(2), "b");
            let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, vec!["a", "b", "c"], "{backend:?}");
        }
    }

    #[test]
    fn ties_break_in_push_order() {
        for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
            let mut q = EventQueue::with_backend(backend);
            let t = SimTime::from_secs(5);
            for i in 0..100 {
                q.push(t, i);
            }
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>(), "{backend:?}");
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
            let mut q = EventQueue::with_backend(backend);
            q.push(SimTime::from_secs(2), ());
            q.push(SimTime::from_secs(1), ());
            assert_eq!(q.now(), SimTime::ZERO);
            q.pop();
            assert_eq!(q.now(), SimTime::from_secs(1));
            q.pop();
            assert_eq!(q.now(), SimTime::from_secs(2));
            assert_eq!(q.processed(), 2);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_asserts_in_debug() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), ());
        q.pop();
        q.push(SimTime::from_secs(5), ());
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn scheduling_into_the_past_clamps_in_release() {
        for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
            let mut q = EventQueue::with_backend(backend);
            q.push(SimTime::from_secs(10), "first");
            q.pop();
            q.push(SimTime::from_secs(5), "late-a"); // clamped to now = 10s
            q.push(SimTime::from_secs(3), "late-b"); // ditto, after late-a
            let (t, e) = q.pop().unwrap();
            assert_eq!((t, e), (SimTime::from_secs(10), "late-a"), "{backend:?}");
            let (t, e) = q.pop().unwrap();
            assert_eq!((t, e), (SimTime::from_secs(10), "late-b"), "{backend:?}");
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
            let mut q = EventQueue::with_backend(backend);
            q.push(SimTime::from_secs(1), 1u32);
            let (t, e) = q.pop().unwrap();
            assert_eq!((t, e), (SimTime::from_secs(1), 1));
            // Schedule relative to now.
            q.push(q.now() + SimDuration::from_secs(1), 2);
            q.push(q.now() + SimDuration::from_millis(500), 3);
            assert_eq!(q.pop().unwrap().1, 3);
            assert_eq!(q.pop().unwrap().1, 2);
            assert!(q.is_empty());
        }
    }

    #[test]
    fn peek_time_matches_next_pop() {
        for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
            let mut q = EventQueue::with_backend(backend);
            assert_eq!(q.peek_time(), None);
            q.push(SimTime::from_secs(4), ());
            q.push(SimTime::from_secs(2), ());
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)), "{backend:?}");
        }
    }

    /// Far-future events (beyond the 2^36 µs wheel horizon) take the
    /// overflow path and still pop in exact `(time, seq)` order.
    #[test]
    fn overflow_events_keep_total_order() {
        let horizon = SimDuration::from_micros(1 << HORIZON_BITS);
        for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
            let mut q = EventQueue::with_backend(backend);
            let far = SimTime::ZERO + horizon + SimDuration::from_secs(7);
            q.push(far, "far-a");
            q.push(SimTime::from_secs(1), "near");
            q.push(far, "far-b"); // same instant: push order must hold
            q.push(far + SimDuration::from_micros(1), "far-c");
            let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(
                order,
                vec!["near", "far-a", "far-b", "far-c"],
                "{backend:?}"
            );
            assert_eq!(q.now(), far + SimDuration::from_micros(1));
        }
    }

    /// Pushing while popping across several wheel blocks: overflow events
    /// re-enter the wheel and interleave correctly with near events.
    #[test]
    fn overflow_interleaves_with_near_events() {
        let mut wheel = EventQueue::with_backend(QueueBackend::Wheel);
        let mut heap = EventQueue::with_backend(QueueBackend::Heap);
        let mut rng = Xoshiro256StarStar::seeded(0xB10C);
        let mut pushes: Vec<(SimTime, u64)> = Vec::new();
        for i in 0..2_000u64 {
            // Mix of near (µs..s) and far (multi-day) offsets.
            let offset = if rng.gen_index(4) == 0 {
                (1u64 << HORIZON_BITS) * (1 + rng.gen_range(3))
            } else {
                1 + rng.gen_range(1_000_000)
            };
            pushes.push((SimTime(offset), i));
        }
        for &(t, i) in &pushes {
            wheel.push(t, i);
            heap.push(t, i);
        }
        let mut popped = 0u64;
        while let Some((wt, wi)) = wheel.pop() {
            let (ht, hi) = heap.pop().expect("heap ran dry first");
            assert_eq!((wt, wi), (ht, hi), "divergence after {popped} pops");
            popped += 1;
            // Keep some churn going mid-drain.
            if popped.is_multiple_of(7) && popped < 1_000 {
                let t = wheel.now() + SimDuration::from_micros(1 + rng.gen_range(1u64 << 37));
                let tag = 1_000_000 + popped;
                wheel.push(t, tag);
                heap.push(t, tag);
            }
        }
        assert!(heap.pop().is_none());
        assert_eq!(wheel.len(), 0);
    }

    /// Steady-state churn with realistic inter-event gaps: the wheel and
    /// the heap pop byte-identical `(time, payload)` sequences.
    #[test]
    fn wheel_matches_heap_under_churn() {
        let mut rng = Xoshiro256StarStar::seeded(0x5EED_0001);
        let [mut wheel, mut heap] = both();
        for i in 0..200u64 {
            let t = SimTime(rng.gen_range(2_000_000));
            wheel.push(t, i);
            heap.push(t, i);
        }
        for step in 0..20_000u64 {
            let (wt, wi) = wheel.pop().expect("wheel empty");
            let (ht, hi) = heap.pop().expect("heap empty");
            assert_eq!((wt, wi), (ht, hi), "divergence at step {step}");
            // 1-in-8 chance of a same-time push (tie churn), otherwise a
            // spread of near-future gaps like the grid engine produces.
            let gap = match rng.gen_index(8) {
                0 => 0,
                1..=4 => 100 + rng.gen_range(10_000),
                5 | 6 => 1 + rng.gen_range(1_000_000),
                _ => 1 + rng.gen_range(100_000_000),
            };
            let t = wheel.now() + SimDuration::from_micros(gap);
            wheel.push(t, step);
            heap.push(t, step);
            assert_eq!(wheel.len(), heap.len());
            assert_eq!(wheel.now(), heap.now());
        }
    }

    /// A same-time tie whose first event waited on an upper level and whose
    /// second was filed straight into level 0 still pops in push order.
    #[test]
    fn tie_across_upper_level_and_level0_keeps_push_order() {
        let mut p = Pair::new();
        let a = p.push(5_000); // cursor 0: one block ahead, so an upper level
        let b = p.push(4_100); // same upper slot, earlier
        assert_eq!(p.wheel().l0_summary, 0);
        assert_ne!(p.wheel().upper[0], 0);
        assert_eq!(p.pop(), Some((4_100, b))); // cascades `a` down to level 0
        assert_eq!(p.wheel().upper, [0; UPPER_LEVELS]);
        let c = p.push(5_000); // cursor 4,100: same block, straight to level 0
        let d = p.push(4_100); // already due: fires before the 5,000 µs tie
        assert_eq!(p.drain(), vec![(4_100, d), (5_000, a), (5_000, c)]);
    }

    /// Events on both sides of every level boundary, ties included, pushed
    /// from a cursor far below the boundary and from one step below it.
    #[test]
    fn pushes_straddling_level_boundaries_match_the_heap() {
        for boundary in level_boundaries() {
            for start in [0, boundary - 3] {
                let mut p = Pair::new();
                if start > 0 {
                    p.push(start);
                    p.pop();
                }
                for offset in [2i64, -2, 0, -1, 1, 0, 2, -2, 1, -1] {
                    p.push(boundary.wrapping_add_signed(offset));
                }
                // Pop up to the boundary's edge, then push the same spread
                // again: the late ones tie with events already cascaded.
                for _ in 0..4 {
                    p.pop();
                }
                for offset in [1i64, 0, -1, 2] {
                    p.push(boundary.wrapping_add_signed(offset));
                }
                let rest = p.drain();
                assert_eq!(rest.len(), 10, "boundary {boundary} start {start}");
                assert!(rest.windows(2).all(|w| w[0] <= w[1]), "{rest:?}");
            }
        }
    }

    #[test]
    fn peek_time_reads_level0_upper_levels_and_overflow() {
        let mut p = Pair::new();
        p.push((1 << HORIZON_BITS) + 5); // overflow
        assert_eq!(p.wheel.peek_time(), Some(SimTime((1 << HORIZON_BITS) + 5)));
        p.push(10_000); // an upper-level list holding two timestamps,
        p.push(9_000); // the later one first
        assert_eq!(p.wheel().l0_summary, 0);
        assert_eq!(p.wheel.peek_time(), Some(SimTime(9_000)));
        p.push(100); // level 0
        assert_eq!(p.wheel.peek_time(), Some(SimTime(100)));
        // `Pair::pop` compares `peek_time` with the heap before every pop.
        assert_eq!(p.drain().len(), 4);
        assert_eq!(p.wheel.peek_time(), None);
    }

    #[test]
    fn len_and_processed_count_every_tier() {
        let mut p = Pair::new();
        let times = [0, 7, 7, 4_095, 4_096, 1 << 20, 1 << 35, 1 << 36, 3 << 36];
        for (i, &t) in times.iter().enumerate() {
            assert_eq!(p.wheel.len(), i);
            p.push(t);
        }
        assert_eq!(p.wheel.processed(), 0);
        for i in 1..=times.len() {
            assert!(!p.wheel.is_empty());
            p.pop();
            assert_eq!(p.wheel.len(), times.len() - i);
            assert_eq!(p.wheel.processed(), i as u64);
        }
        assert!(p.wheel.is_empty());
        assert_eq!(p.pop(), None);
        assert_eq!(p.wheel.processed(), times.len() as u64);
    }

    /// Popped cells go back on the free list: after a hundred times the
    /// pending count in push/pop churn the slab has grown no longer than the
    /// most events that were ever pending at once.
    #[test]
    fn slab_is_no_longer_than_the_peak_pending_count() {
        const PENDING: u64 = 500;
        let mut rng = Xoshiro256StarStar::seeded(0x51AB);
        let mut p = Pair::new();
        let mut peak = 0;
        for _ in 0..PENDING {
            p.push(rng.gen_range(1_000_000));
        }
        for step in 0..100 * PENDING {
            peak = peak.max(p.wheel.len());
            let (now, _) = p.pop().expect("hold model never drains");
            // One push per pop, and now and then a burst that is popped
            // straight back, so the free list is used at several depths.
            let burst = if step % 97 == 0 { 20 } else { 0 };
            for _ in 0..=burst {
                let span = 1u64 << rng.gen_range(30);
                p.push(now + 1 + rng.gen_range(span));
            }
            peak = peak.max(p.wheel.len());
            for _ in 0..burst {
                p.pop();
            }
        }
        assert!(peak >= PENDING as usize + 20);
        assert!(
            p.wheel().entries.len() <= peak,
            "slab {} > peak pending {peak}",
            p.wheel().entries.len()
        );
        p.drain();
    }
}
