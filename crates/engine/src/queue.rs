//! The pending-event order: the engine keeps its pending phase events in a
//! `std::collections::BinaryHeap<Pending>`, and this module gives `Pending`
//! the min-order the heap pops by.
//!
//! # Ordering contract
//!
//! The engine pops pending phase events in ascending `(time, seq)` order —
//! earliest timestamp first, FIFO (sequence number) within a timestamp.
//! Every RNG draw in the simulation happens in pop order, so this contract
//! *is* the determinism contract: any order that violates it shifts the
//! random streams and every downstream report hash.
//!
//! Times compare with `partial_cmp`, not `total_cmp`: the two disagree on
//! `-0.0` versus `+0.0`, and `total_cmp` would move a pop. NaN is excluded
//! by an assertion at each of the engine's push sites.
//!
//! The property test `heap_matches_sorted_pop_order` pins the heap's pop
//! order against an independent oracle (the pushed events stable-sorted by
//! `(time, seq)`) on randomized streams, and the session equivalence suite
//! pins frozen report hashes.

use cohesion_model::RobotId;

use crate::engine::EngineEventKind;

/// A pending phase event (min-order by time, stable by sequence number).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Pending {
    pub(crate) time: f64,
    pub(crate) seq: u64,
    pub(crate) robot: RobotId,
    pub(crate) kind: EngineEventKind,
}

/// Min-heap order: a `BinaryHeap<Pending>` pops in `(time, seq)` order.
impl Eq for Pending {}

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

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
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
        let mut q = BinaryHeap::new();
        for seq in 0..100 {
            q.push(pending(3.25, seq));
        }
        assert_eq!(q.len(), 100);
        for seq in 0..100 {
            assert_eq!(q.pop().expect("pending").seq, seq);
        }
        assert!(q.pop().is_none());
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

    /// The oracle: the pending events stable-sorted by time (a stable sort
    /// keeps push order, which is ascending `seq`, within a timestamp), so
    /// the front is the next event due.
    fn sorted(pending: &mut [Pending]) {
        pending.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("finite event times"));
    }

    proptest! {
        /// The heap and the sorted oracle agree on every pop and every peek
        /// across randomized interleaved streams — including same-timestamp
        /// bursts (coarse slots), a signed zero (slot 0 pushes `±0.0`), and
        /// peeks between pushes (the engine's staged-activation pattern).
        #[test]
        fn heap_matches_sorted_pop_order(
            quantum in (0usize..3).prop_map(|i| [0.25, 1.0e-7, 3.75e4][i]),
            ops in proptest::collection::vec(op_strategy(), 1..200),
        ) {
            let mut heap = BinaryHeap::new();
            let mut oracle: Vec<Pending> = Vec::new();
            let mut seq = 0u64;
            for op in ops {
                match op {
                    Op::Push { slot } => {
                        seq += 1;
                        let time = if slot == 0 && seq % 2 == 0 {
                            -0.0
                        } else {
                            f64::from(slot) * quantum
                        };
                        let p = pending(time, seq);
                        heap.push(p);
                        oracle.push(p);
                        sorted(&mut oracle);
                    }
                    Op::Pop => {
                        let expected = (!oracle.is_empty()).then(|| oracle.remove(0));
                        prop_assert_eq!(heap.pop(), expected);
                    }
                    Op::Peek => {
                        prop_assert_eq!(heap.peek().map(|p: &Pending| p.time), oracle.first().map(|p| p.time));
                    }
                }
                prop_assert_eq!(heap.len(), oracle.len());
            }
            // Drain to the end: full order agreement.
            for expected in oracle {
                prop_assert_eq!(heap.pop(), Some(expected));
            }
            prop_assert!(heap.pop().is_none());
        }
    }
}
