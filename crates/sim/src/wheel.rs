//! Bucketed event wheel (calendar queue) for the discrete-event engine.
//!
//! Classic event-driven network simulators get their scale from cheap
//! scheduling: most events land a few ten to a few thousand nanoseconds in
//! the future (pipeline hops, DMA completions, line-rate serialization),
//! so a calendar of fixed-width time buckets turns the O(log n) heap
//! push/pop into O(1) bucket appends plus an occupancy-bitmap scan. The
//! rare far-future timers (retransmission timeouts, millisecond pacing)
//! overflow into a small binary heap and migrate into the wheel when their
//! window arrives.
//!
//! # Ordering contract
//!
//! Every pop yields the minimum queued `(time, seq)` key — byte-identical
//! to the `BinaryHeap` reference scheduler, including the banded-seq
//! tie-break at equal timestamps. The integration suite proves this
//! differentially.
//!
//! # Windowing
//!
//! The wheel covers the fixed window `[base, base + N·W)`; `cursor` walks
//! its buckets in time order. Events inside the window go to bucket
//! `(t - base) / W`; later events go to the overflow heap (which is
//! therefore always strictly after every wheeled event). When the wheel
//! and its staging area drain, the window rotates: `base` jumps to the
//! earliest overflow timestamp and due overflow events migrate in.
//!
//! Because a bucket spans `W` picoseconds, its events are staged into a
//! sorted `ready` run when the cursor reaches it (an O(1) buffer swap; the
//! 4 ns bucket width makes multi-event buckets rare, so the sort usually
//! short-circuits).
//!
//! # Same-slot direct drain
//!
//! A handler that schedules new work due inside the *current* bucket — a
//! zero-delay hop, a doorbell, an `FsUpdate`, a same-cycle stage handoff —
//! takes the **hot deque** instead of the wheel proper: no bucket hashing,
//! no occupancy-bitmap update, no staging sort. Seq keys are banded per
//! source node (engine docs), so they are not globally monotone; the deque
//! is kept `(time, seq)`-sorted by full-key insertion, where zero-delay
//! self-sends — the common case — still append in O(1) (one source's keys
//! are monotone within one timestamp). Popping merges the deque with the
//! staged `ready` run by comparing fronts — two sorted runs, so every pop
//! yields the minimum queued key: exactly the reference heap's greedy
//! order. The deque is always empty by the time the cursor advances past
//! its bucket, so hot events can never be overtaken by later buckets or
//! the overflow heap.
//!
//! Pushes below `base` cannot happen — `base` never passes the sim clock
//! (rotation happens only while delivering an event at the new base), and
//! every push (including cross-shard imports, which a conservative
//! synchronizer admits strictly after the shard's clock) is at or after
//! the clock. `bucket_of` debug-asserts this.

use std::collections::{BinaryHeap, VecDeque};

use crate::engine::{Ev, Msg};
use crate::time::Time;

/// log2 of the bucket width in picoseconds (4096 ps ≈ 4 ns).
const SHIFT: u32 = 12;
/// Number of buckets (must be a power of two). 16384 × 4 ns ≈ 67 µs of
/// horizon — wide enough for every data-path latency; RTO-scale timers
/// take the overflow path.
const NBUCKETS: usize = 16384;
const SPAN: u64 = (NBUCKETS as u64) << SHIFT;

/// Placeholder written over a popped slot of the staging run.
fn dummy_ev() -> Ev {
    Ev {
        time: Time(0),
        seq: 0,
        to: 0,
        msg: Msg::FreeDesc,
    }
}

pub(crate) struct EventWheel {
    /// Unsorted per-bucket event lists for the current window.
    buckets: Vec<Vec<Ev>>,
    /// One occupancy bit per bucket, for fast next-bucket scans.
    occ: Vec<u64>,
    /// Absolute time (ps) of bucket 0 of the current window.
    base: u64,
    /// Bucket currently staged in `ready`.
    cursor: usize,
    /// True once bucket `cursor` has been drained into `ready`; new events
    /// due in that bucket must then merge into `ready`, not the bucket.
    ready_active: bool,
    /// The staged (sorted) events of bucket `cursor`; `ready_pos` is the
    /// next undelivered index.
    ready: Vec<Ev>,
    ready_pos: usize,
    /// Same-slot direct-drain lane: events pushed into bucket `cursor`
    /// *while it is being drained*, kept `(time, seq)`-sorted (append-only
    /// in the common zero-delay case). Merged with `ready` on pop; always
    /// empty when the cursor moves on.
    hot: VecDeque<Ev>,
    /// Far-future events (time >= base + SPAN). `Ev`'s reversed `Ord`
    /// makes this max-heap pop earliest-first.
    overflow: BinaryHeap<Ev>,
    len: usize,
}

impl EventWheel {
    pub(crate) fn new() -> EventWheel {
        EventWheel {
            buckets: (0..NBUCKETS).map(|_| Vec::new()).collect(),
            occ: vec![0; NBUCKETS / 64],
            base: 0,
            cursor: 0,
            ready_active: false,
            ready: Vec::new(),
            ready_pos: 0,
            hot: VecDeque::new(),
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn bucket_of(&self, t: u64) -> usize {
        debug_assert!(t >= self.base && t - self.base < SPAN);
        ((t - self.base) >> SHIFT) as usize
    }

    #[inline]
    fn mark(&mut self, idx: usize) {
        self.occ[idx >> 6] |= 1 << (idx & 63);
    }

    #[inline]
    fn unmark(&mut self, idx: usize) {
        self.occ[idx >> 6] &= !(1 << (idx & 63));
    }

    #[inline]
    pub(crate) fn push(&mut self, ev: Ev) {
        let t = ev.time.ps();
        self.len += 1;
        if t >= self.base + SPAN {
            self.overflow.push(ev);
            return;
        }
        let idx = self.bucket_of(t);
        if idx == self.cursor && self.ready_active {
            // Same-slot direct drain: the cursor bucket is already staged,
            // so the event joins the hot deque instead of the wheel. Seq
            // keys are banded per source (not globally monotone), so the
            // deque is kept `(time, seq)`-sorted by full-key comparison;
            // zero-delay self-sends — the common case — still append,
            // since one source's keys are monotone at one timestamp.
            let key = (ev.time, ev.seq);
            if self.hot.back().is_none_or(|b| (b.time, b.seq) <= key) {
                self.hot.push_back(ev);
            } else {
                let pos = self.hot.partition_point(|e| (e.time, e.seq) <= key);
                self.hot.insert(pos, ev);
            }
        } else {
            self.buckets[idx].push(ev);
            self.mark(idx);
        }
    }

    /// Find the next occupied bucket at or after `from` (bitmap scan).
    fn next_occupied(&self, from: usize) -> Option<usize> {
        if from >= NBUCKETS {
            return None;
        }
        let mut word_i = from >> 6;
        let mut word = self.occ[word_i] & (!0u64 << (from & 63));
        loop {
            if word != 0 {
                return Some((word_i << 6) + word.trailing_zeros() as usize);
            }
            word_i += 1;
            if word_i >= self.occ.len() {
                return None;
            }
            word = self.occ[word_i];
        }
    }

    /// Make the staged front (`ready[ready_pos]` merged with the hot
    /// deque) the globally earliest event (staging / rotating as needed).
    /// Returns false iff the queue is empty. Split so the staged-run hit —
    /// the per-pop common case — inlines into the engine's step loop.
    #[inline(always)]
    fn ensure_front(&mut self) -> bool {
        if self.ready_pos < self.ready.len() || !self.hot.is_empty() {
            return true;
        }
        self.ensure_front_slow()
    }

    /// Stage the next bucket / rotate the window (out-of-line).
    fn ensure_front_slow(&mut self) -> bool {
        loop {
            if self.ready_pos < self.ready.len() || !self.hot.is_empty() {
                return true;
            }
            if self.len == 0 {
                return false;
            }
            let from = if self.ready_active {
                self.cursor + 1
            } else {
                self.cursor
            };
            if let Some(idx) = self.next_occupied(from) {
                self.cursor = idx;
                self.ready_active = true;
                self.unmark(idx);
                // O(1) staging: swap the bucket's contents in, handing the
                // bucket the retired run's capacity for reuse.
                self.ready.clear();
                self.ready_pos = 0;
                std::mem::swap(&mut self.ready, &mut self.buckets[idx]);
                if self.ready.len() > 1 {
                    self.ready.sort_unstable_by_key(|e| (e.time, e.seq));
                }
                return true;
            }
            // wheel empty: rotate the window to the earliest overflow event
            debug_assert!(!self.overflow.is_empty(), "len > 0 but nothing queued");
            self.base = self.overflow.peek().expect("overflow non-empty").time.ps();
            self.cursor = 0;
            self.ready_active = false;
            while let Some(ev) = self.overflow.peek() {
                if ev.time.ps() >= self.base + SPAN {
                    break;
                }
                let ev = self.overflow.pop().expect("peeked");
                let idx = self.bucket_of(ev.time.ps());
                self.buckets[idx].push(ev);
                self.mark(idx);
            }
        }
    }

    /// After `ensure_front`: does the hot deque hold the earliest event?
    /// Both runs are `(time, seq)`-sorted, so comparing fronts suffices.
    #[inline]
    fn hot_first(&self) -> bool {
        match (self.ready.get(self.ready_pos), self.hot.front()) {
            (Some(r), Some(h)) => (h.time, h.seq) < (r.time, r.seq),
            (None, _) => true,
            (_, None) => false,
        }
    }

    /// Remove and return the front event. Caller must have established it
    /// exists via `ensure_front`. The hot deque is empty in the vastly
    /// common case, so that test guards the merge logic.
    #[inline(always)]
    fn take_front(&mut self) -> Ev {
        self.len -= 1;
        if !self.hot.is_empty() && self.hot_first() {
            self.hot.pop_front().expect("hot_first implies non-empty")
        } else {
            let pos = self.ready_pos;
            self.ready_pos += 1;
            std::mem::replace(&mut self.ready[pos], dummy_ev())
        }
    }

    #[inline(always)]
    pub(crate) fn pop(&mut self) -> Option<Ev> {
        if !self.ensure_front() {
            return None;
        }
        Some(self.take_front())
    }

    /// Earliest queued timestamp without mutating the wheel (public
    /// `next_event_time` API; the hot path uses `ensure_front`).
    pub(crate) fn next_time(&self) -> Option<Time> {
        let staged = match (self.ready.get(self.ready_pos), self.hot.front()) {
            (Some(r), Some(h)) => Some(if (h.time, h.seq) < (r.time, r.seq) {
                h.time
            } else {
                r.time
            }),
            (Some(r), None) => Some(r.time),
            (None, Some(h)) => Some(h.time),
            (None, None) => None,
        };
        if staged.is_some() {
            return staged;
        }
        let from = if self.ready_active {
            self.cursor + 1
        } else {
            self.cursor
        };
        if let Some(idx) = self.next_occupied(from) {
            let t = self.buckets[idx]
                .iter()
                .map(|e| (e.time.ps(), e.seq))
                .min()
                .expect("occupied bucket is non-empty");
            return Some(Time(t.0));
        }
        self.overflow.peek().map(|e| e.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, seq: u64) -> Ev {
        Ev {
            time: Time(t),
            seq,
            to: 0,
            msg: Msg::Tick,
        }
    }

    /// Differential test against a sorted reference, with pushes
    /// interleaved into pops the way a running simulation does it.
    #[test]
    fn matches_sorted_reference_under_interleaving() {
        let mut rng = crate::rng::Rng::new(0xCAFE);
        for _case in 0..50 {
            let mut wheel = EventWheel::new();
            let mut reference: Vec<(u64, u64)> = Vec::new();
            let mut seq = 0u64;
            let mut out = Vec::new();
            // seed a few initial events
            for _ in 0..10 {
                let t = rng.below(1000) * 100;
                wheel.push(ev(t, seq));
                reference.push((t, seq));
                seq += 1;
            }
            while let Some(e) = wheel.pop() {
                let now = e.time.ps();
                out.push((now, e.seq));
                // occasionally schedule follow-ups relative to now,
                // spanning zero-delay, in-window and overflow distances
                if out.len() < 400 && rng.chance(0.7) {
                    let n = rng.below(3) + 1;
                    for _ in 0..n {
                        let d = match rng.below(4) {
                            0 => 0,
                            1 => rng.below(1 << SHIFT),
                            2 => rng.below(SPAN),
                            _ => SPAN + rng.below(SPAN * 4),
                        };
                        wheel.push(ev(now + d, seq));
                        reference.push((now + d, seq));
                        seq += 1;
                    }
                }
            }
            reference.sort_unstable();
            assert_eq!(out, reference);
            assert_eq!(wheel.len(), 0);
        }
    }

    #[test]
    fn next_time_is_nondestructive_and_correct() {
        let mut wheel = EventWheel::new();
        assert_eq!(wheel.next_time(), None);
        wheel.push(ev(SPAN * 3 + 17, 0)); // overflow
        assert_eq!(wheel.next_time(), Some(Time(SPAN * 3 + 17)));
        wheel.push(ev(500, 1));
        wheel.push(ev(300, 2));
        assert_eq!(wheel.next_time(), Some(Time(300)));
        assert_eq!(wheel.pop().map(|e| e.seq), Some(2));
        assert_eq!(wheel.next_time(), Some(Time(500)));
        assert_eq!(wheel.pop().map(|e| e.seq), Some(1));
        assert_eq!(wheel.next_time(), Some(Time(SPAN * 3 + 17)));
        assert_eq!(wheel.pop().map(|e| e.seq), Some(0));
        assert_eq!(wheel.next_time(), None);
    }

    #[test]
    fn same_bucket_different_times_sort() {
        let mut wheel = EventWheel::new();
        // all land in bucket 0 (width 4096 ps), pushed out of order
        wheel.push(ev(4000, 0));
        wheel.push(ev(100, 1));
        wheel.push(ev(100, 2));
        wheel.push(ev(2000, 3));
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| wheel.pop().map(|e| (e.time.ps(), e.seq))).collect();
        assert_eq!(order, vec![(100, 1), (100, 2), (2000, 3), (4000, 0)]);
    }

    #[test]
    fn zero_delay_insert_into_staged_bucket() {
        let mut wheel = EventWheel::new();
        wheel.push(ev(100, 0));
        wheel.push(ev(120, 1));
        assert_eq!(wheel.pop().map(|e| e.seq), Some(0));
        // bucket 0 is staged now; a zero-delay follow-up at t=100 must
        // still come before the t=120 event (hot-deque direct drain)
        wheel.push(ev(100, 2));
        assert_eq!(wheel.pop().map(|e| (e.time.ps(), e.seq)), Some((100, 2)));
        assert_eq!(wheel.pop().map(|e| (e.time.ps(), e.seq)), Some((120, 1)));
    }

    /// The hot deque merges with the staged run in exact `(time, seq)`
    /// order, including the rare out-of-time-order same-slot insert.
    #[test]
    fn hot_deque_merges_with_staged_run() {
        let mut wheel = EventWheel::new();
        for (t, q) in [(100u64, 0u64), (200, 1), (300, 2)] {
            wheel.push(ev(t, q));
        }
        assert_eq!(wheel.pop().map(|e| e.seq), Some(0));
        // same-slot sends while draining: monotone appends...
        wheel.push(ev(150, 3));
        wheel.push(ev(250, 4));
        // ...and one earlier-time insert that must sort into the deque
        wheel.push(ev(120, 5));
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| wheel.pop().map(|e| (e.time.ps(), e.seq))).collect();
        assert_eq!(
            order,
            vec![(120, 5), (150, 3), (200, 1), (250, 4), (300, 2)]
        );
        assert_eq!(wheel.len(), 0);
    }

    /// Banded seq keys are not globally monotone: a same-slot send from a
    /// low-band source must insert before staged higher-band events at
    /// the same timestamp, and the hot deque must order same-time pushes
    /// by full key, not arrival.
    #[test]
    fn hot_deque_orders_banded_seqs_at_equal_time() {
        const BAND: u64 = 1 << 40;
        let mut wheel = EventWheel::new();
        wheel.push(ev(100, 9 * BAND));
        wheel.push(ev(100, 7 * BAND));
        assert_eq!(wheel.pop().map(|e| e.seq), Some(7 * BAND));
        // while bucket 0 is staged, same-time sends arrive from sources
        // whose bands straddle the staged front's band
        wheel.push(ev(100, 8 * BAND));
        wheel.push(ev(100, 2 * BAND));
        wheel.push(ev(100, 2 * BAND + 1));
        let order: Vec<u64> = std::iter::from_fn(|| wheel.pop().map(|e| e.seq)).collect();
        assert_eq!(order, vec![2 * BAND, 2 * BAND + 1, 8 * BAND, 9 * BAND]);
    }

    /// Greedy differential against the reference heap under banded keys:
    /// follow-up events carry `(random source band | per-band counter)`
    /// seqs, so the final key multiset is *not* delivered in sorted order
    /// (a later send can key below an already-delivered event). Wheel and
    /// heap must still realize the identical greedy order.
    #[test]
    fn matches_reference_heap_under_banded_seqs() {
        const BAND: u64 = 1 << 40;
        let mut rng = crate::rng::Rng::new(0xBA2D);
        for _case in 0..50 {
            let run = |heap: bool, rng: &mut crate::rng::Rng| {
                let mut wheel = EventWheel::new();
                let mut heapq: BinaryHeap<Ev> = BinaryHeap::new();
                let push = |e: Ev, w: &mut EventWheel, h: &mut BinaryHeap<Ev>| {
                    if heap {
                        h.push(e)
                    } else {
                        w.push(e)
                    }
                };
                let mut counters = [0u64; 8];
                let mut out = Vec::new();
                for i in 0..10u64 {
                    let t = rng.below(1000) * 100;
                    push(ev(t, i), &mut wheel, &mut heapq);
                }
                loop {
                    let e = if heap { heapq.pop() } else { wheel.pop() };
                    let Some(e) = e else { break };
                    let now = e.time.ps();
                    out.push((now, e.seq));
                    if out.len() < 400 && rng.chance(0.7) {
                        for _ in 0..rng.below(3) + 1 {
                            let d = match rng.below(4) {
                                0 => 0,
                                1 => rng.below(1 << SHIFT),
                                2 => rng.below(SPAN),
                                _ => SPAN + rng.below(SPAN * 4),
                            };
                            let band = rng.below(8) as usize;
                            let seq = (band as u64 + 1) * BAND + counters[band];
                            counters[band] += 1;
                            push(ev(now + d, seq), &mut wheel, &mut heapq);
                        }
                    }
                }
                out
            };
            // identical rng streams drive both runs
            let mut r1 = rng.fork();
            let mut r2 = r1.clone();
            assert_eq!(run(false, &mut r1), run(true, &mut r2));
        }
    }
}
