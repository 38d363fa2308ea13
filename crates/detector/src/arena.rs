//! Slab arena backing escalated (full-history) location states.
//!
//! Most locations live their whole life as two inline epochs (see
//! [`frontier`](crate::frontier)); the few that escalate to a real access
//! antichain get a slot here. Slots are addressed by dense `u32` index and
//! recycled through a free list **without dropping their vectors**, so a
//! location that escalates, de-escalates, and escalates again never pays
//! allocator churn — the recycled slot still owns its buffers.

use crate::epoch::Access;

/// Escalated per-location state: the same read/write access antichains the
/// pre-epoch frontier kept for every location.
#[derive(Debug, Default)]
pub(crate) struct LocHistory {
    /// Remembered writes, oldest first.
    pub writes: Vec<Access>,
    /// Remembered reads, oldest first.
    pub reads: Vec<Access>,
}

/// The slot store. One per frontier — no sharing, no locks.
#[derive(Debug, Default)]
pub(crate) struct Arena {
    slots: Vec<LocHistory>,
    free: Vec<u32>,
    live: usize,
    live_hwm: usize,
}

impl Arena {
    /// Hands out an empty slot, recycling a freed one when available.
    /// Recycled slots keep their vector capacity.
    pub fn alloc(&mut self) -> u32 {
        self.live += 1;
        self.live_hwm = self.live_hwm.max(self.live);
        match self.free.pop() {
            Some(idx) => idx,
            None => {
                let idx = self.slots.len();
                assert!(idx < u32::MAX as usize, "arena exhausted");
                self.slots.push(LocHistory::default());
                idx as u32
            }
        }
    }

    /// Returns a slot to the free list. The vectors are cleared here (not
    /// at alloc) so a dead slot holds no stale accesses.
    pub fn free(&mut self, idx: u32) {
        let h = &mut self.slots[idx as usize];
        h.writes.clear();
        h.reads.clear();
        self.free.push(idx);
        self.live -= 1;
    }

    /// The slot's history. Indices come only from [`alloc`](Arena::alloc).
    #[inline]
    pub fn get_mut(&mut self, idx: u32) -> &mut LocHistory {
        &mut self.slots[idx as usize]
    }

    /// Read-only view of a slot, for state snapshots.
    #[inline]
    pub fn get(&self, idx: u32) -> &LocHistory {
        &self.slots[idx as usize]
    }

    /// Currently escalated locations.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Most simultaneously escalated locations ever (the
    /// `detector.epoch.resident_shared` gauge).
    pub fn live_hwm(&self) -> usize {
        self.live_hwm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use literace_sim::{Pc, ThreadId};

    fn a(epoch: u64) -> Access {
        Access {
            tid: ThreadId::from_index(0),
            epoch,
            pc: Pc(1),
        }
    }

    #[test]
    fn alloc_free_recycles_slots_and_tracks_hwm() {
        let mut arena = Arena::default();
        let s0 = arena.alloc();
        let s1 = arena.alloc();
        assert_ne!(s0, s1);
        assert_eq!(arena.live(), 2);
        assert_eq!(arena.live_hwm(), 2);

        arena.get_mut(s1).writes.push(a(5));
        let cap_before = arena.get_mut(s1).writes.capacity();
        arena.free(s1);
        assert_eq!(arena.live(), 1);

        let s2 = arena.alloc();
        assert_eq!(s2, s1, "freed slot is recycled");
        assert!(arena.get_mut(s2).writes.is_empty(), "recycled slot is clean");
        assert_eq!(
            arena.get_mut(s2).writes.capacity(),
            cap_before,
            "recycling keeps the buffer"
        );
        assert_eq!(arena.live_hwm(), 2, "hwm survives frees");
    }
}
