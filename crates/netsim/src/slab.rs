//! The flow slab: per-flow state in recycled slots, found by flow id in
//! O(1) (DESIGN.md §10).
//!
//! Flow ids are dense and never reused, so a flat id → slot table finds
//! a flow with one bounds check and two indexed loads — no hashing and
//! no ordered map. Slots freed by departed flows are handed out again
//! last-in first-out, so the resident per-flow state is bounded by the
//! *concurrent* flow population; the table itself costs four bytes per
//! flow id ever seen. Nothing iterates the table, so the order in which
//! flows were seen cannot leak into results. The packet [`World`] keeps
//! its transport endpoints here, and the regional engine's packet region
//! keeps its per-flow window loops here.
//!
//! [`World`]: crate::World

use std::ops::{Index, IndexMut};

/// Table entry of a flow that never had a slot.
const SLOT_NONE: u32 = u32::MAX;
/// Table entry of a flow whose slot was freed.
const SLOT_RETIRED: u32 = u32::MAX - 1;

/// Where a flow id currently points in a [`FlowSlab`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotRef {
    /// The flow's slot index.
    Live(usize),
    /// The flow had a slot and freed it.
    Retired,
    /// The flow never had a slot.
    Absent,
}

/// Per-flow values of type `T` in recycled slots, keyed by flow id.
pub(crate) struct FlowSlab<T> {
    slots: Vec<T>,
    /// Freed slot indices, reused last-in first-out.
    free: Vec<u32>,
    /// Flow id → slot index, or [`SLOT_NONE`]/[`SLOT_RETIRED`].
    slot_of: Vec<u32>,
    /// Slots currently bound to a flow, and the peak of that count.
    live: usize,
    high_water: usize,
}

impl<T> FlowSlab<T> {
    pub(crate) fn new() -> Self {
        FlowSlab {
            slots: Vec::new(),
            free: Vec::new(),
            slot_of: Vec::new(),
            live: 0,
            high_water: 0,
        }
    }

    /// Where `id` currently points.
    #[inline]
    pub(crate) fn slot_ref(&self, id: u64) -> SlotRef {
        match self.slot_of.get(id as usize) {
            Some(&SLOT_RETIRED) => SlotRef::Retired,
            Some(&SLOT_NONE) | None => SlotRef::Absent,
            Some(&s) => SlotRef::Live(s as usize),
        }
    }

    /// The live value of `id`; `None` when retired or never seen.
    #[inline]
    pub(crate) fn get(&self, id: u64) -> Option<&T> {
        match self.slot_ref(id) {
            SlotRef::Live(s) => Some(&self.slots[s]),
            _ => None,
        }
    }

    /// The live value of `id`, mutably.
    #[inline]
    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        match self.slot_ref(id) {
            SlotRef::Live(s) => Some(&mut self.slots[s]),
            _ => None,
        }
    }

    /// Binds `id`, which must not have had a slot, to a slot holding
    /// `value`: the most recently freed slot, else a new one. Returns
    /// the slot index. Inserting ids `0..n` into an empty slab gives
    /// slot index == id.
    pub(crate) fn insert(&mut self, id: u64, value: T) -> usize {
        let fid = id as usize;
        if self.slot_of.len() <= fid {
            self.slot_of.resize(fid + 1, SLOT_NONE);
        }
        debug_assert_eq!(self.slot_of[fid], SLOT_NONE, "flow {id} already slotted");
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = value;
                s as usize
            }
            None => {
                self.slots.push(value);
                self.slots.len() - 1
            }
        };
        self.slot_of[fid] = slot as u32;
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        slot
    }

    /// Frees the slot of live `id` for reuse and returns its value, which
    /// stays in the slot until the slot is reused. `None` (and no change)
    /// when `id` is not live.
    pub(crate) fn remove(&mut self, id: u64) -> Option<&T> {
        let SlotRef::Live(s) = self.slot_ref(id) else {
            return None;
        };
        self.free.push(s as u32);
        self.slot_of[id as usize] = SLOT_RETIRED;
        self.live -= 1;
        Some(&self.slots[s])
    }

    /// The most slots ever bound at once.
    pub(crate) fn high_water(&self) -> usize {
        self.high_water
    }

    /// Every slot's value in slot order, freed slots included.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter()
    }
}

impl<T> Index<usize> for FlowSlab<T> {
    type Output = T;

    /// The value in slot `slot`, as returned by [`FlowSlab::insert`] or
    /// [`SlotRef::Live`].
    #[inline]
    fn index(&self, slot: usize) -> &T {
        &self.slots[slot]
    }
}

impl<T> IndexMut<usize> for FlowSlab<T> {
    #[inline]
    fn index_mut(&mut self, slot: usize) -> &mut T {
        &mut self.slots[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_inserted_in_order_into_an_empty_slab_get_their_own_index() {
        let mut slab = FlowSlab::new();
        for id in 0..100u64 {
            assert_eq!(slab.insert(id, id * 10), id as usize);
        }
        for id in 0..100u64 {
            assert_eq!(slab.slot_ref(id), SlotRef::Live(id as usize));
            assert_eq!(slab[id as usize], id * 10);
        }
        assert_eq!(slab.high_water(), 100);
    }

    #[test]
    fn freed_slots_are_reused_last_in_first_out() {
        let mut slab = FlowSlab::new();
        for id in 0..4u64 {
            slab.insert(id, id);
        }
        assert_eq!(slab.remove(1), Some(&1));
        assert_eq!(slab.remove(3), Some(&3));
        // Slot 3 was freed last, so it is handed out first.
        assert_eq!(slab.insert(10, 10), 3);
        assert_eq!(slab.insert(11, 11), 1);
        assert_eq!(slab.insert(12, 12), 4, "no free slot left: a new one");
        assert_eq!(slab.get(10), Some(&10));
        assert_eq!(slab.get(11), Some(&11));
        assert_eq!(slab.get(1), None);
        assert_eq!(slab.get(3), None);
    }

    #[test]
    fn a_retired_id_differs_from_a_never_seen_id() {
        let mut slab = FlowSlab::new();
        slab.insert(2, 'a');
        assert_eq!(slab.slot_ref(0), SlotRef::Absent, "below the highest id");
        assert_eq!(slab.slot_ref(9), SlotRef::Absent, "beyond the table");
        assert_eq!(slab.remove(2), Some(&'a'));
        assert_eq!(slab.slot_ref(2), SlotRef::Retired);
        assert_eq!(slab.get(2), None);
        assert_eq!(slab.remove(2), None, "a second remove changes nothing");
        assert_eq!(slab.remove(0), None);
        // The retired id's slot serves the next flow.
        assert_eq!(slab.insert(5, 'b'), 0);
        assert_eq!(slab.slot_ref(2), SlotRef::Retired);
    }

    #[test]
    fn the_high_water_mark_is_the_peak_live_count() {
        let mut slab = FlowSlab::new();
        slab.insert(0, ());
        slab.insert(1, ());
        slab.insert(2, ());
        slab.remove(0);
        slab.remove(1);
        slab.insert(3, ());
        assert_eq!(slab.high_water(), 3);
        slab.insert(4, ());
        slab.insert(5, ());
        assert_eq!(slab.high_water(), 4);
        assert_eq!(slab.values().count(), 4, "freed slots were reused");
    }
}
