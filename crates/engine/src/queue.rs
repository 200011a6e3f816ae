//! The pending-event queue: a tick-batched calendar queue, tested against
//! a `BinaryHeap` oracle.
//!
//! # Ordering contract
//!
//! The engine pops pending phase events in ascending `(time, seq)` order —
//! earliest timestamp first, FIFO (sequence number) within a timestamp.
//! Every RNG draw in the simulation happens in pop order, so this contract
//! *is* the determinism contract: any queue that violates it shifts the
//! random streams and every downstream report hash.
//!
//! # Why a calendar queue
//!
//! A binary heap pays `O(log n)` per operation and scatters its comparisons
//! across the arena. The engine's workloads have much more structure:
//!
//! * synchronous schedulers (FSync/SSync) emit **bursts of identical
//!   timestamps** — a whole round's MoveStarts land at one instant;
//! * asynchronous schedulers keep a **small, sliding window** of pending
//!   events whose times advance with the simulation clock.
//!
//! [`CalendarQueue`] exploits both: events sharing a timestamp are batched
//! into one *tick* holding a FIFO of events. Pushes happen in globally
//! ascending `seq` order (the engine increments `seq` before every push), so
//! within a tick the FIFO *is* the `(time, seq)` order and a same-timestamp
//! burst costs `O(1)` per event — no comparisons at all. Ticks hash into a
//! power-of-two bucket array by their *day* (`⌊time / width⌋`, the classic
//! calendar-queue bucketing) and a cursor walks the days in order, so pops
//! are `O(1)` amortized while the queue's time window stays within a lap of
//! the calendar; a direct scan catches the rare far-future outlier, and the
//! calendar resizes (bucket count and width from the median inter-tick gap)
//! as the tick population drifts.
//!
//! The historical `BinaryHeap` survives as a test oracle only: the
//! property test `calendar_matches_heap_pop_order` pins the calendar's pop
//! order against a plain `BinaryHeap<Pending>` on randomized streams, and
//! the session equivalence suite pins frozen report hashes.

use cohesion_model::RobotId;
use std::collections::VecDeque;

use crate::engine::EngineEventKind;

/// A pending phase event (min-order by time, stable by sequence number).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Pending {
    pub(crate) time: f64,
    pub(crate) seq: u64,
    pub(crate) robot: RobotId,
    pub(crate) kind: EngineEventKind,
}

/// Min-heap order for the test oracle: a `BinaryHeap<Pending>` pops in
/// `(time, seq)` order.
#[cfg(test)]
impl Eq for Pending {}

#[cfg(test)]
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for a min-heap; tie-break on sequence for determinism.
        other
            .time
            .partial_cmp(&self.time)
            .expect("finite event times")
            .then(other.seq.cmp(&self.seq))
    }
}

#[cfg(test)]
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// All pending events sharing one exact timestamp, in arrival (= ascending
/// `seq`) order.
#[derive(Debug)]
struct Tick {
    time: f64,
    /// `⌊time / width⌋` under the current calendar width, cached for the
    /// cursor's day test.
    day: i64,
    events: TickEvents,
}

/// A tick's FIFO, with the asynchronous regime's overwhelmingly common case
/// — exactly one event per timestamp — stored inline so it never touches a
/// `VecDeque` or the recycling pool.
#[derive(Debug)]
enum TickEvents {
    One(Pending),
    Many(VecDeque<Pending>),
}

/// The tick-batched calendar queue (see the module docs for the design).
#[derive(Debug)]
pub(crate) struct CalendarQueue {
    /// Power-of-two array of day buckets; a tick lives in bucket
    /// `day & mask`.
    buckets: Vec<Vec<Tick>>,
    /// `buckets.len() - 1`.
    mask: u64,
    /// Bucket width in simulation time.
    width: f64,
    /// `1 / width` (a multiply in `day()` instead of a divide).
    inv_width: f64,
    /// Lower bound on the day of the earliest pending tick.
    cursor_day: i64,
    /// Pending events.
    len: usize,
    /// Live ticks (distinct pending timestamps).
    ticks: usize,
    /// Memoized `(bucket, slot, time)` of the earliest tick, when known.
    /// The engine peeks before every pop (to order queue events against the
    /// staged activation), so without this the min search would run twice
    /// per event; with it, a peek/pop pair — and every further pop off the
    /// same tick — reuses one search. The time rides along so pushes can
    /// compare against the front without chasing the indices.
    front: Option<(usize, usize, f64)>,
    /// Recycled tick FIFOs, so steady-state operation allocates nothing.
    pool: Vec<VecDeque<Pending>>,
}

/// Initial (and minimum) bucket count.
const MIN_BUCKETS: usize = 16;

impl CalendarQueue {
    pub(crate) fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            mask: (MIN_BUCKETS - 1) as u64,
            width: 1.0,
            inv_width: 1.0,
            cursor_day: 0,
            len: 0,
            ticks: 0,
            front: None,
            pool: Vec::new(),
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn day(&self, time: f64) -> i64 {
        (time * self.inv_width).floor() as i64
    }

    #[inline]
    fn bucket_of(&self, day: i64) -> usize {
        (day as u64 & self.mask) as usize
    }

    /// Enqueues an event. Events pushed with equal timestamps must arrive in
    /// ascending `seq` order (the engine's global counter guarantees it);
    /// arbitrary time order across timestamps is fine.
    pub(crate) fn push(&mut self, p: Pending) {
        assert!(!p.time.is_nan(), "finite event times");
        let day = self.day(p.time);
        if self.len == 0 || day < self.cursor_day {
            self.cursor_day = day;
        }
        let time = p.time;
        let b = self.bucket_of(day);
        let slot = self.buckets[b].iter().position(|t| t.time == time);
        let slot = match slot {
            Some(i) => {
                if matches!(self.buckets[b][i].events, TickEvents::One(_)) {
                    // Second event on this timestamp: promote to a FIFO.
                    let mut dq = self.pool.pop().unwrap_or_default();
                    if let TickEvents::One(first) = &self.buckets[b][i].events {
                        dq.push_back(*first);
                    }
                    dq.push_back(p);
                    self.buckets[b][i].events = TickEvents::Many(dq);
                } else if let TickEvents::Many(dq) = &mut self.buckets[b][i].events {
                    dq.push_back(p);
                }
                self.len += 1;
                Some(i)
            }
            None => {
                self.buckets[b].push(Tick {
                    time,
                    day,
                    events: TickEvents::One(p),
                });
                self.ticks += 1;
                self.len += 1;
                if self.ticks > 2 * self.buckets.len() {
                    let target = (2 * self.ticks).next_power_of_two().max(MIN_BUCKETS);
                    self.rebuild(target); // clears the memoized front
                    None
                } else {
                    Some(self.buckets[b].len() - 1)
                }
            }
        };
        // Keep the memoized front current: an earlier push displaces it (a
        // tick is unique per exact timestamp, so an equal time is the front
        // tick itself and its indices are untouched by the append).
        if let (Some(i), Some(&(_, _, front_time))) = (slot, self.front.as_ref()) {
            if time < front_time {
                self.front = Some((b, i, time));
            }
        }
    }

    /// Dequeues the earliest event (FIFO within its timestamp).
    pub(crate) fn pop(&mut self) -> Option<Pending> {
        if self.len == 0 {
            return None;
        }
        let (b, i) = match self.front {
            Some((b, i, _)) => (b, i),
            None => self.find_min_tick(),
        };
        let tick = &mut self.buckets[b][i];
        let (p, emptied) = match &mut tick.events {
            TickEvents::One(p) => (*p, true),
            TickEvents::Many(dq) => {
                let p = dq.pop_front().expect("live tick has events");
                (p, dq.is_empty())
            }
        };
        self.len -= 1;
        if emptied {
            self.front = None;
            let tick = self.buckets[b].swap_remove(i);
            if let TickEvents::Many(dq) = tick.events {
                self.pool.push(dq);
            }
            self.ticks -= 1;
            if self.ticks * 8 < self.buckets.len() && self.buckets.len() > MIN_BUCKETS {
                let target = (2 * self.ticks).next_power_of_two().max(MIN_BUCKETS);
                if target < self.buckets.len() {
                    self.rebuild(target);
                }
            }
        }
        Some(p)
    }

    /// Timestamp of the earliest pending event (advances the day cursor —
    /// never the event order — so peek-then-pop equals pop).
    pub(crate) fn peek_time(&mut self) -> Option<f64> {
        if self.len == 0 {
            return None;
        }
        if let Some((_, _, time)) = self.front {
            return Some(time);
        }
        let (b, i) = self.find_min_tick();
        Some(self.buckets[b][i].time)
    }

    /// Locates the earliest tick: walk the days from the cursor (amortized
    /// `O(1)` while the pending window spans less than a calendar lap), or a
    /// direct scan when a whole lap comes up empty (the far-future outlier
    /// case — e.g. one stretched Move pending long after everything else
    /// drained).
    fn find_min_tick(&mut self) -> (usize, usize) {
        debug_assert!(self.len > 0);
        let laps = self.buckets.len() as i64;
        for day in self.cursor_day..self.cursor_day + laps {
            let b = self.bucket_of(day);
            let mut best: Option<(usize, f64)> = None;
            for (i, tick) in self.buckets[b].iter().enumerate() {
                if tick.day == day && best.map_or(true, |(_, t)| tick.time < t) {
                    best = Some((i, tick.time));
                }
            }
            if let Some((i, time)) = best {
                self.cursor_day = day;
                self.front = Some((b, i, time));
                return (b, i);
            }
        }
        let mut best: Option<(usize, usize, f64)> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            for (i, tick) in bucket.iter().enumerate() {
                if best.map_or(true, |(_, _, t)| tick.time < t) {
                    best = Some((b, i, tick.time));
                }
            }
        }
        let (b, i, time) = best.expect("non-empty queue has a tick");
        self.cursor_day = self.buckets[b][i].day;
        self.front = Some((b, i, time));
        (b, i)
    }

    /// Re-celled calendar: `target` buckets, width from the median positive
    /// inter-tick gap (so a day covers a couple of ticks and the cursor
    /// rarely walks empty days).
    fn rebuild(&mut self, target: usize) {
        self.front = None;
        let mut ticks: Vec<Tick> = Vec::with_capacity(self.ticks);
        for bucket in &mut self.buckets {
            ticks.append(bucket);
        }
        let mut times: Vec<f64> = ticks.iter().map(|t| t.time).collect();
        times.sort_unstable_by(f64::total_cmp);
        let mut gaps: Vec<f64> = times
            .windows(2)
            .map(|w| w[1] - w[0])
            .filter(|g| *g > 0.0)
            .collect();
        if !gaps.is_empty() {
            let mid = gaps.len() / 2;
            let (_, median, _) = gaps.select_nth_unstable_by(mid, f64::total_cmp);
            self.width = (2.0 * *median).clamp(1e-12, 1e12);
            self.inv_width = 1.0 / self.width;
        }
        if target != self.buckets.len() {
            self.buckets.resize_with(target, Vec::new);
            self.mask = (target - 1) as u64;
        }
        self.cursor_day = i64::MAX;
        for mut tick in ticks {
            tick.day = self.day(tick.time);
            self.cursor_day = self.cursor_day.min(tick.day);
            let b = self.bucket_of(tick.day);
            self.buckets[b].push(tick);
        }
        if self.ticks == 0 {
            self.cursor_day = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BinaryHeap;

    fn pending(time: f64, seq: u64) -> Pending {
        Pending {
            time,
            seq,
            robot: RobotId::from(seq as usize % 7),
            kind: EngineEventKind::MoveStart,
        }
    }

    #[test]
    fn same_timestamp_burst_pops_fifo() {
        let mut q = CalendarQueue::new();
        for seq in 0..100 {
            q.push(pending(3.25, seq));
        }
        assert_eq!(q.len(), 100);
        for seq in 0..100 {
            assert_eq!(q.pop().expect("pending").seq, seq);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn far_future_outlier_is_found_after_a_lap() {
        // One stretched-Move event a thousand laps ahead: the cursor's lap
        // scan misses it and the direct-scan fallback must take over.
        let mut q = CalendarQueue::new();
        q.push(pending(0.0, 0));
        q.push(pending(1.0e9, 1));
        assert_eq!(q.pop().expect("pending").seq, 0);
        assert_eq!(q.peek_time(), Some(1.0e9));
        assert_eq!(q.pop().expect("pending").seq, 1);
        assert!(q.pop().is_none());
    }

    #[test]
    fn grow_and_shrink_preserve_order() {
        // Push far past the grow threshold, drain halfway (shrink), refill.
        let mut q = CalendarQueue::new();
        let mut seq = 0;
        for i in 0..500 {
            q.push(pending(i as f64 * 0.013, seq));
            seq += 1;
        }
        assert!(q.buckets.len() > MIN_BUCKETS, "calendar grew");
        let mut last = f64::NEG_INFINITY;
        for _ in 0..450 {
            let p = q.pop().expect("pending");
            assert!(p.time >= last);
            last = p.time;
        }
        for i in 0..40 {
            q.push(pending(500.0 + i as f64, seq));
            seq += 1;
        }
        let mut prev: Option<Pending> = None;
        while let Some(p) = q.pop() {
            if let Some(prev) = prev {
                assert!((p.time, p.seq) > (prev.time, prev.seq));
            }
            prev = Some(p);
        }
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn pushes_earlier_than_the_cursor_are_honoured() {
        let mut q = CalendarQueue::new();
        q.push(pending(50.0, 0));
        assert_eq!(q.peek_time(), Some(50.0));
        // The cursor has advanced to day(50); an earlier push must rewind it.
        q.push(pending(2.0, 1));
        assert_eq!(q.peek_time(), Some(2.0));
        assert_eq!(q.pop().expect("pending").seq, 1);
        assert_eq!(q.pop().expect("pending").seq, 0);
    }

    /// One queue operation of the randomized differential stream.
    #[derive(Debug, Clone)]
    enum Op {
        /// Push at `slot * quantum` — coarse slots force dense
        /// same-timestamp bursts.
        Push {
            slot: u8,
        },
        Pop,
        Peek,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        (0u8..6, 0u8..12).prop_map(|(sel, slot)| match sel {
            0..=2 => Op::Push { slot },
            3..=4 => Op::Pop,
            _ => Op::Peek,
        })
    }

    proptest! {
        /// The calendar queue and the `BinaryHeap` agree on every pop and
        /// every peek across randomized interleaved streams — including
        /// same-timestamp bursts (coarse slots) and peeks between pushes
        /// (the engine's staged/`peek_time` pattern).
        #[test]
        fn calendar_matches_heap_pop_order(
            quantum in (0usize..3).prop_map(|i| [0.25, 1.0e-7, 3.75e4][i]),
            ops in proptest::collection::vec(op_strategy(), 1..200),
        ) {
            let mut calendar = CalendarQueue::new();
            let mut heap = BinaryHeap::new();
            let mut seq = 0u64;
            for op in ops {
                match op {
                    Op::Push { slot } => {
                        seq += 1;
                        let p = pending(f64::from(slot) * quantum, seq);
                        calendar.push(p);
                        heap.push(p);
                    }
                    Op::Pop => {
                        prop_assert_eq!(calendar.pop(), heap.pop());
                    }
                    Op::Peek => {
                        prop_assert_eq!(calendar.peek_time(), heap.peek().map(|p: &Pending| p.time));
                    }
                }
                prop_assert_eq!(calendar.len(), heap.len());
            }
            // Drain both to the end: full order agreement.
            loop {
                let (c, h) = (calendar.pop(), heap.pop());
                prop_assert_eq!(c, h);
                if c.is_none() {
                    break;
                }
            }
        }
    }
}
