//! A bucketed calendar queue for simulation events.
//!
//! The engine pops events in `(time, kind-order, seq)` order. A binary heap
//! gives `O(log n)` per operation; simulation workloads are far friendlier
//! than arbitrary priority queues — events are overwhelmingly pushed for the
//! near future and popped in almost-sorted order — which is exactly the case
//! a *calendar queue* (Brown 1988) turns into `O(1)` amortized.
//!
//! Time is divided into equal-width *days*. A power-of-two ring of buckets
//! covers the `N` days starting at the current scan day `cur`; each queued
//! item lives in the bucket of its day, or in an unordered overflow list when
//! its day lies beyond the window. Every bucket is kept **sorted ascending
//! by the item's full `Ord`** behind a consumed-prefix `head` index: the
//! minimum is `items[head]`, pop is a single index bump, and — because
//! events pushed into one bucket overwhelmingly arrive in increasing order —
//! push is almost always a plain append (one compare against the bucket
//! maximum), falling back to a binary-searched insert only for out-of-order
//! arrivals. The engine's same-timestamp kind-order/FIFO tiebreak is the
//! tail of the item `Ord`, so it is preserved exactly.
//!
//! # Why pops come out in exact global order
//!
//! * `day(t) = ⌊(t − origin)/width⌋` is a monotone function of `t` (clamps
//!   included), so distinct days order times correctly and *equal times
//!   always share a day*.
//! * An item may be placed *later* than its day (it is clamped to `cur` when
//!   pushed for a day the scan already passed), never earlier. `cur` is
//!   non-decreasing between rebuilds and never advances past a non-empty
//!   bucket, so every bucket strictly before the first non-empty one is and
//!   stays empty, and any item in a strictly later bucket is unclamped —
//!   hence has a strictly later time than everything in the first non-empty
//!   bucket. Ties therefore only meet inside one bucket, where the sorted
//!   order (full `Ord`, ascending, min first) resolves them.
//! * Overflow items are folded back into the window before the scan ever
//!   accepts a bucket (`pull_overflow`), so no in-window pop can overtake an
//!   overflow item.
//!
//! Resizing (grow at `len > 2N`, shrink at `len < N/8`) rebuilds the
//! calendar with a fresh `origin`/`width` estimated from the queued items;
//! rebuilds re-place every item unclamped, so the invariants restart
//! cleanly. Pathological distributions only degrade speed, never order.

use crate::time::Time;

/// An item a [`CalendarQueue`] can schedule: carries its timestamp, and its
/// total `Ord` decides ties (the engine uses `(time, kind-order, seq)`).
pub(crate) trait CalendarEvent: Copy + Ord {
    /// The timestamp used for bucketing. Must agree with the leading key of
    /// the item's `Ord` (items with smaller `time()` compare smaller).
    fn time(&self) -> Time;
}

/// Days at or beyond this value are clamped (keeps `cur + N` far from
/// `u64` overflow while still being astronomically beyond any real day).
const DAY_CAP: u64 = u64::MAX / 2;

/// Smallest bucket count (power of two). Kept tiny so short runs — the
/// conformance decks and exhaustive sweeps are dominated by 2–8 job
/// instances — pay for a few cache lines of ring, not kilobytes; the queue
/// grows itself within a handful of pushes when a run turns out large.
const MIN_BUCKETS: usize = 4;

/// One calendar day: `items[head..]` is the live, ascending-sorted content;
/// `items[..head]` is the already-popped prefix, reclaimed in one `clear`
/// when the bucket drains. Keeping the prefix around makes pop a bare index
/// bump and keeps push on the append fast path.
struct Bucket<T> {
    items: Vec<T>,
    head: usize,
}

impl<T: CalendarEvent> Bucket<T> {
    fn new() -> Self {
        Bucket {
            items: Vec::new(),
            head: 0,
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.head == self.items.len()
    }

    /// The bucket minimum; callers guarantee non-emptiness.
    #[inline]
    fn min(&self) -> &T {
        &self.items[self.head]
    }

    /// Removes and returns the bucket minimum; callers guarantee
    /// non-emptiness.
    #[inline]
    fn pop_min(&mut self) -> T {
        let item = self.items[self.head];
        self.head += 1;
        if self.head == self.items.len() {
            self.items.clear();
            self.head = 0;
        }
        item
    }

    /// Inserts at the sorted (ascending) position within the live suffix.
    /// Item `Ord` is total and `seq` makes every engine event distinct, so
    /// the position is unambiguous and FIFO falls out of the seq key. The
    /// common case — the new item is `>=` the current bucket maximum — is a
    /// single compare and a push.
    fn insert(&mut self, item: T) {
        match self.items.last() {
            Some(max) if item < *max => {
                let live = &self.items[self.head..];
                let pos = self.head + live.partition_point(|x| *x < item);
                self.items.insert(pos, item);
            }
            _ => self.items.push(item),
        }
    }

    /// Copies the live items (ascending order) into `out` and empties the
    /// bucket.
    fn take_live_into(&mut self, out: &mut Vec<T>) {
        out.extend_from_slice(&self.items[self.head..]);
        self.items.clear();
        self.head = 0;
    }
}

/// A monotone priority queue over [`CalendarEvent`]s with `O(1)` amortized
/// push/pop on simulation-shaped workloads. "Monotone" is the engine's
/// contract: every push carries a timestamp `>=` the time of the last pop.
pub(crate) struct CalendarQueue<T> {
    /// `buckets[d & mask]` holds the items whose *effective* day is `d`,
    /// for the `N` days starting at `cur`.
    buckets: Vec<Bucket<T>>,
    /// `buckets.len() - 1`; the length is a power of two, so masking
    /// replaces the modulo in every ring lookup.
    mask: u64,
    /// Day zero starts at this time.
    origin: f64,
    /// Reciprocal of the day width (> 0, finite); days are computed by
    /// multiplication, which is monotone in `t` just like the division.
    inv_width: f64,
    /// Current scan day; buckets cover days `[cur, cur + N)`.
    cur: u64,
    /// Items whose day lies at or beyond `cur + N` (unordered).
    overflow: Vec<T>,
    /// Smallest day among `overflow` items; `u64::MAX` when empty, so the
    /// scan's single pull test needs no separate emptiness branch.
    overflow_min_day: u64,
    /// Items currently stored in `buckets`.
    in_window: usize,
    /// Total queued items.
    len: usize,
}

impl<T: CalendarEvent> CalendarQueue<T> {
    /// An empty queue that allocates its ring (of the minimum size) on the
    /// first push, so a long-lived owner that may never queue anything —
    /// a freshly opened session — pays no allocation up front.
    pub(crate) fn new() -> Self {
        CalendarQueue {
            buckets: Vec::new(),
            mask: 0,
            origin: 0.0,
            inv_width: 1.0,
            cur: 0,
            overflow: Vec::new(),
            overflow_min_day: u64::MAX,
            in_window: 0,
            len: 0,
        }
    }

    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let mut queue = CalendarQueue::new();
        queue.reset(capacity);
        queue
    }

    /// Restores the pristine `with_capacity` state while keeping the ring
    /// and every bucket's item allocation. The ring grows to cover
    /// `capacity` if it is currently smaller, and is kept as-is when
    /// larger — pop order is independent of the bucket count (the module
    /// docs' argument holds for any power-of-two ring), so a recycled
    /// queue is observably identical to a fresh one.
    pub(crate) fn reset(&mut self, capacity: usize) {
        let n = capacity.next_power_of_two().clamp(MIN_BUCKETS, 1 << 20);
        if n > self.buckets.len() {
            self.buckets.resize_with(n, Bucket::new);
            self.mask = n as u64 - 1;
        }
        for b in &mut self.buckets {
            b.items.clear();
            b.head = 0;
        }
        self.origin = 0.0;
        self.inv_width = 1.0;
        self.cur = 0;
        self.overflow.clear();
        self.overflow_min_day = u64::MAX;
        self.in_window = 0;
        self.len = 0;
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The day of a timestamp under the current `origin`/`inv_width`,
    /// clamped to `[0, DAY_CAP]`. Monotone in `t`.
    fn day_of(&self, t: Time) -> u64 {
        let d = (t.get() - self.origin) * self.inv_width;
        if d <= 0.0 {
            0
        } else if d >= DAY_CAP as f64 {
            DAY_CAP
        } else {
            d as u64 // truncation == floor for non-negative values
        }
    }

    /// Places an item into its bucket (clamped to the current scan day) or
    /// into overflow. Does not touch `len`.
    fn place(&mut self, item: T) {
        let day = self.day_of(item.time()).max(self.cur);
        if day - self.cur <= self.mask {
            self.buckets[(day & self.mask) as usize].insert(item);
            self.in_window += 1;
        } else {
            self.overflow_min_day = self.overflow_min_day.min(day);
            self.overflow.push(item);
        }
    }

    pub(crate) fn push(&mut self, item: T) {
        if self.buckets.is_empty() {
            // First push into a queue built by `new`: allocate the ring.
            self.reset(MIN_BUCKETS);
        }
        self.place(item);
        self.len += 1;
        if self.len > 2 * self.buckets.len() {
            self.rebuild(self.buckets.len() * 2);
        }
    }

    /// Moves every overflow item whose day has entered the window (or been
    /// passed by the scan) into its bucket, recomputing the overflow
    /// minimum for what remains. Works in place: the overflow is unordered
    /// and buckets sort on insert, so the order of the moves is free.
    fn pull_overflow(&mut self) {
        let mut kept_min = u64::MAX;
        let mut i = 0;
        while i < self.overflow.len() {
            let item = self.overflow[i];
            let day = self.day_of(item.time()).max(self.cur);
            if day - self.cur <= self.mask {
                self.overflow.swap_remove(i);
                self.buckets[(day & self.mask) as usize].insert(item);
                self.in_window += 1;
            } else {
                kept_min = kept_min.min(day);
                i += 1;
            }
        }
        self.overflow_min_day = kept_min;
    }

    /// Advances `cur` to the first non-empty bucket (folding overflow in as
    /// the window slides) and returns its ring index; the bucket's `min()`
    /// is the queue minimum. `None` iff the queue is empty.
    fn find_min_bucket(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        // Fast path: the scan day's bucket is already non-empty and nothing
        // in overflow has entered the window.
        let idx = (self.cur & self.mask) as usize;
        if !self.buckets[idx].is_empty()
            && self.overflow_min_day.saturating_sub(self.cur) > self.mask
        {
            return Some(idx);
        }
        loop {
            // `overflow_min_day` is `u64::MAX` when the overflow is empty,
            // and days are clamped to `DAY_CAP`, so the sentinel can never
            // satisfy this test — one compare covers both conditions.
            if self.overflow_min_day.saturating_sub(self.cur) <= self.mask {
                self.pull_overflow();
            }
            if self.in_window == 0 {
                // Everything lives beyond the window: jump the scan to the
                // earliest overflow day and fold it in on the next pass.
                self.cur = self.overflow_min_day;
                continue;
            }
            let idx = (self.cur & self.mask) as usize;
            if self.buckets[idx].is_empty() {
                self.cur += 1;
                continue;
            }
            return Some(idx);
        }
    }

    /// The minimum item, without removing it. Locating it may slide the
    /// window forward; a following [`CalendarQueue::pop`] finds the bucket
    /// already under the scan day, so the pair costs one scan.
    pub(crate) fn peek(&mut self) -> Option<&T> {
        let idx = self.find_min_bucket()?;
        Some(self.buckets[idx].min())
    }

    pub(crate) fn pop(&mut self) -> Option<T> {
        let idx = self.find_min_bucket()?;
        let item = Some(self.buckets[idx].pop_min());
        self.in_window -= 1;
        self.len -= 1;
        if self.len == 0 {
            // Fresh incarnation: nothing queued, so the scan may rewind to
            // keep future day numbers small.
            self.cur = 0;
        } else if self.len < self.buckets.len() / 8 && self.buckets.len() > MIN_BUCKETS {
            self.rebuild(self.buckets.len() / 2);
        }
        item
    }

    /// Rebuilds with `n` buckets, re-estimating `origin` and `width` from
    /// the queued items and re-placing everything unclamped.
    fn rebuild(&mut self, n: usize) {
        let mut items: Vec<T> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            b.take_live_into(&mut items);
        }
        items.append(&mut self.overflow);
        // Every bucket is empty now, so resizing in place is as good as a
        // fresh ring and keeps the surviving buckets' allocations.
        self.buckets.truncate(n);
        self.buckets.resize_with(n, Bucket::new);
        self.mask = n as u64 - 1;
        self.in_window = 0;
        self.overflow_min_day = u64::MAX;
        if items.is_empty() {
            self.cur = 0;
            return;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for item in &items {
            let t = item.time().get();
            lo = lo.min(t);
            hi = hi.max(t);
        }
        let width = (hi - lo) / items.len() as f64;
        // Both the width and its reciprocal must stay finite and positive
        // (a subnormal width would turn the reciprocal infinite).
        self.inv_width = if width.is_finite() && width > 0.0 && (1.0 / width).is_finite() {
            1.0 / width
        } else {
            1.0
        };
        self.origin = lo;
        self.cur = 0; // day_of(lo) == 0 under the new origin
        for item in items {
            self.place(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::t;
    use fjs_prng::check::forall_seeded;
    use fjs_prng::SmallRng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// A stand-in for the engine's event: `(time, kind-order, seq)` with the
    /// engine's exact `Ord`.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    struct Ev {
        time: Time,
        order: u8,
        seq: u64,
    }

    impl Ord for Ev {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (self.time, self.order, self.seq).cmp(&(other.time, other.order, other.seq))
        }
    }

    impl PartialOrd for Ev {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl CalendarEvent for Ev {
        fn time(&self) -> Time {
            self.time
        }
    }

    /// Drives the calendar queue and a `BinaryHeap` reference through an
    /// identical monotone push/pop schedule and asserts every popped item
    /// matches. `spread` scales how far ahead pushes land (large values
    /// exercise the overflow list); `burst` controls push-run lengths
    /// (large values cross grow boundaries, draining crosses shrink
    /// boundaries).
    fn differential_run(rng: &mut SmallRng, spread: f64, burst: usize, grid: Option<f64>) {
        differential_run_on(CalendarQueue::with_capacity(4), rng, spread, burst, grid);
    }

    fn differential_run_on(
        mut cal: CalendarQueue<Ev>,
        rng: &mut SmallRng,
        spread: f64,
        burst: usize,
        grid: Option<f64>,
    ) {
        let mut heap: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0.0f64;
        for _ in 0..rng.usize_range(4, 40) {
            for _ in 0..rng.usize_range(1, burst) {
                let mut dt = rng.f64_unit() * spread;
                if let Some(g) = grid {
                    dt = (dt / g).round() * g; // land many pushes on shared instants
                }
                let ev = Ev {
                    time: t(now + dt),
                    order: rng.u64_below(6) as u8,
                    seq,
                };
                seq += 1;
                cal.push(ev);
                heap.push(Reverse(ev));
            }
            for _ in 0..rng.usize_range(0, burst) {
                assert_eq!(cal.peek().copied(), heap.peek().map(|Reverse(e)| *e));
                let (a, b) = (cal.pop(), heap.pop().map(|Reverse(e)| e));
                assert_eq!(a, b, "pop order diverged from the heap reference");
                assert_eq!(cal.len(), heap.len());
                if let Some(e) = a {
                    now = e.time.get(); // monotone contract: pushes are >= last pop
                }
            }
        }
        // Drain both completely: the tail (shrink boundaries included) must
        // also agree.
        while let Some(Reverse(want)) = heap.pop() {
            assert_eq!(cal.pop(), Some(want));
        }
        assert!(cal.is_empty());
        assert_eq!(cal.pop(), None);
        assert_eq!(cal.peek(), None);
    }

    #[test]
    fn prop_pop_order_matches_heap_dense() {
        forall_seeded(0xca1e_0001, 64, |rng| {
            differential_run(rng, 8.0, 12, None);
        });
    }

    #[test]
    fn prop_pop_order_matches_heap_tied_timestamps() {
        // A coarse grid forces many exact timestamp collisions, so the pop
        // order is decided by the (order, seq) kind/FIFO tiebreak.
        forall_seeded(0xca1e_0002, 64, |rng| {
            differential_run(rng, 4.0, 10, Some(1.0));
        });
    }

    #[test]
    fn prop_pop_order_matches_heap_far_future_overflow() {
        // Pushes land up to 1e9 time units ahead while width starts at 1.0:
        // nearly everything routes through the overflow list and is folded
        // back in as the window slides.
        forall_seeded(0xca1e_0003, 48, |rng| {
            differential_run(rng, 1.0e9, 8, None);
        });
    }

    #[test]
    fn prop_pop_order_matches_heap_resize_boundaries() {
        // Bursts far larger than MIN_BUCKETS force repeated grows; the full
        // drains at the end walk back down through the shrink threshold.
        forall_seeded(0xca1e_0004, 32, |rng| {
            differential_run(rng, 16.0, 200, Some(0.25));
        });
    }

    #[test]
    fn prop_pop_order_matches_heap_from_a_lazy_ring() {
        // A queue created without a ring allocates it on the first push and
        // then behaves like any other.
        forall_seeded(0xca1e_0005, 32, |rng| {
            differential_run_on(CalendarQueue::new(), rng, 8.0, 12, None);
        });
        let mut empty: CalendarQueue<Ev> = CalendarQueue::new();
        assert_eq!(empty.peek(), None);
        assert_eq!(empty.pop(), None);
    }

    #[test]
    fn fifo_among_equal_events() {
        let mut cal = CalendarQueue::with_capacity(4);
        for seq in 0..10 {
            cal.push(Ev {
                time: t(5.0),
                order: 3,
                seq,
            });
        }
        for seq in 0..10 {
            assert_eq!(cal.pop().unwrap().seq, seq);
        }
    }

    #[test]
    fn kind_order_beats_sequence_at_equal_times() {
        let mut cal = CalendarQueue::with_capacity(4);
        cal.push(Ev {
            time: t(1.0),
            order: 5,
            seq: 0,
        });
        cal.push(Ev {
            time: t(1.0),
            order: 0,
            seq: 1,
        });
        assert_eq!(cal.pop().unwrap().order, 0, "kind order wins the tie");
        assert_eq!(cal.pop().unwrap().order, 5);
    }

    #[test]
    fn peek_then_push_then_pop_stays_correct() {
        // A push that introduces a new minimum into the bucket the last peek
        // located must be observed by the following pop.
        let mut cal = CalendarQueue::with_capacity(4);
        cal.push(Ev {
            time: t(2.0),
            order: 4,
            seq: 0,
        });
        assert_eq!(cal.peek().unwrap().seq, 0);
        cal.push(Ev {
            time: t(2.0),
            order: 0,
            seq: 1,
        });
        assert_eq!(cal.pop().unwrap().seq, 1);
        assert_eq!(cal.pop().unwrap().seq, 0);
    }

    #[test]
    fn zero_width_time_span_falls_back_to_unit_width() {
        // All items at one instant: the rebuild width estimate is 0 and must
        // fall back without dividing the world into zero-width days.
        let mut cal = CalendarQueue::with_capacity(4);
        for seq in 0..200 {
            cal.push(Ev {
                time: t(7.0),
                order: 2,
                seq,
            });
        }
        for seq in 0..200 {
            assert_eq!(cal.pop().unwrap().seq, seq);
        }
    }
}
