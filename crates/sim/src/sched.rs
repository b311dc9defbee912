//! The kernel's pending-event set: a `BinaryHeap` of 32-byte keys.
//!
//! The kernel pops events in strict `(time, seq)` order — time first, then
//! insertion sequence so equal-time events replay in schedule order. That
//! total order *is* the determinism contract, pinned bit-for-bit by trace
//! digests in the tn-audit divergence corpus.
//!
//! A queued event is a 32-byte key, not a frame: [`EventKind::Frame`]
//! carries a `slot` into the kernel-owned [`FrameSlab`], where the
//! 64-byte [`Frame`] stays parked from push to dispatch. The heap
//! therefore sifts 32-byte entries, timers and frames alike; a
//! compile-time assert keeps `size_of::<QueuedEvent>() <= 32`.
//!
//! `std::collections::BinaryHeap` is a max-heap; [`QueuedEvent`]'s
//! reversed `Ord` turns it into the `O(log n)` min-heap the kernel uses
//! as its only event queue (DESIGN.md §8 has the measurements behind
//! that choice).

use std::cmp::Ordering;

use crate::context::TimerToken;
use crate::frame::Frame;
use crate::node::{NodeId, PortId};
use crate::time::SimTime;

/// What a queued event does when it fires.
pub(crate) enum EventKind {
    /// Deliver the frame parked at `slot` of the kernel's [`FrameSlab`]
    /// to `(node, port)`.
    Frame {
        node: NodeId,
        port: PortId,
        slot: u32,
    },
    /// Fire `token` on `node`.
    Timer { node: NodeId, token: TimerToken },
}

/// One pending event. Ordered by `(at, seq)`; `seq` is the kernel's global
/// insertion counter, so ordering is total and deterministic.
pub(crate) struct QueuedEvent {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) kind: EventKind,
}

// Heap sifts move whole entries; the frame itself stays in the slab.
const _: () = assert!(std::mem::size_of::<QueuedEvent>() <= 32);

/// Frames whose delivery event is pending, indexed by the `slot` of
/// their [`EventKind::Frame`]. A frame is parked when its event is pushed
/// and unparked when it is popped; freed slots are reused LIFO, so the
/// slab never grows past the peak number of pending frame events.
#[derive(Default)]
pub(crate) struct FrameSlab {
    slots: Vec<Option<Frame>>,
    free: Vec<u32>,
}

impl FrameSlab {
    /// Park `frame` and return its slot.
    #[inline]
    pub(crate) fn park(&mut self, frame: Frame) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(frame);
                slot
            }
            None => {
                self.slots.push(Some(frame));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Take the frame parked at `slot` and free the slot.
    #[inline]
    pub(crate) fn unpark(&mut self, slot: u32) -> Frame {
        let Some(frame) = self.slots[slot as usize].take() else {
            unreachable!("frame event points at an empty slab slot")
        };
        self.free.push(slot);
        frame
    }

    /// Number of slots, occupied or free.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }
}

impl QueuedEvent {
    /// `(time, seq)` sort key.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }

    /// Node the event will dispatch to (flight-recorder attribution).
    #[inline]
    pub(crate) fn target_node(&self) -> NodeId {
        match &self.kind {
            EventKind::Frame { node, .. } | EventKind::Timer { node, .. } => *node,
        }
    }
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    /// Reverse ordering so a `BinaryHeap` becomes a min-heap on
    /// `(time, seq)`; the `seq` tiebreak keeps equal-time events in
    /// schedule order, which is what makes runs reproducible.
    fn cmp(&self, other: &Self) -> Ordering {
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    fn timer(at: SimTime, seq: u64) -> QueuedEvent {
        QueuedEvent {
            at,
            seq,
            kind: EventKind::Timer {
                node: NodeId(0),
                token: TimerToken(0),
            },
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = BinaryHeap::new();
        q.push(timer(SimTime::from_ns(30), 0));
        q.push(timer(SimTime::from_ns(10), 1));
        q.push(timer(SimTime::from_ns(10), 2));
        q.push(timer(SimTime::from_ns(20), 3));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.at.as_ps(), e.seq))
            .collect();
        assert_eq!(
            order,
            vec![(10_000, 1), (10_000, 2), (20_000, 3), (30_000, 0)],
            "heap broke (time, seq) order"
        );
    }

    #[test]
    fn equal_time_bursts_stay_in_schedule_order() {
        let mut q = BinaryHeap::new();
        for seq in 0..100 {
            q.push(timer(SimTime::from_us(1), seq));
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(seqs, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn next_at_matches_pop_without_consuming() {
        let next_at = |q: &BinaryHeap<QueuedEvent>| q.peek().map(|e| e.at);
        let mut q = BinaryHeap::new();
        assert_eq!(next_at(&q), None);
        q.push(timer(SimTime::from_ns(40), 0));
        q.push(timer(SimTime::from_ns(15), 1));
        assert_eq!(next_at(&q), Some(SimTime::from_ns(15)));
        assert_eq!(q.len(), 2);
        // A smaller push must displace the minimum.
        q.push(timer(SimTime::from_ns(5), 2));
        assert_eq!(next_at(&q), Some(SimTime::from_ns(5)));
        assert_eq!(q.pop().map(|e| e.seq), Some(2));
    }
}
