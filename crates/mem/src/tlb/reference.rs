//! The linear-scan TLBs that the indexed ones replaced, kept verbatim as
//! the differential oracle for [`Tlb`](super::Tlb) and
//! [`MicroTlb`](super::MicroTlb).
//!
//! Every lookup, insert and reverse lookup walks the slot array. With the
//! production TLBs they share only the entry types and the replacement
//! policies, so identical call streams must give identical slots, victims,
//! evictions and statistics.

use malec_types::addr::{PPageId, VPageId};

use super::{TlbEntry, TlbEvent};
use crate::replacement::{SecondChance, SeededRandom};

/// The main TLB: fully associative with seeded-random replacement (Sec. V).
#[derive(Clone, Debug)]
pub struct Tlb {
    entries: Vec<Option<TlbEntry>>,
    policy: SeededRandom,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates an empty TLB with `entries` slots and a deterministic
    /// replacement seed.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize, seed: u64) -> Self {
        assert!(entries > 0, "TLB needs entries");
        Self {
            entries: vec![None; entries],
            policy: SeededRandom::new(seed),
            hits: 0,
            misses: 0,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Looks up a virtual page; returns `(slot, entry)` on a hit.
    pub fn lookup(&mut self, vpage: VPageId) -> Option<(usize, TlbEntry)> {
        let found = self
            .entries
            .iter()
            .enumerate()
            .find_map(|(i, e)| e.filter(|e| e.vpage == vpage).map(|e| (i, e)));
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    /// Reverse lookup by physical page (used on line fills/evictions);
    /// does not perturb statistics — it is a different tag array.
    pub fn lookup_by_ppage(&self, ppage: PPageId) -> Option<(usize, TlbEntry)> {
        self.entries
            .iter()
            .enumerate()
            .find_map(|(i, e)| e.filter(|e| e.ppage == ppage).map(|e| (i, e)))
    }

    /// Installs a translation, preferring a free slot, else evicting a
    /// random victim.
    pub fn insert(&mut self, vpage: VPageId, ppage: PPageId) -> TlbEvent {
        if let Some((slot, _)) = self
            .entries
            .iter()
            .enumerate()
            .find_map(|(i, e)| e.filter(|e| e.vpage == vpage).map(|e| (i, e)))
        {
            // Refresh of an existing translation.
            self.entries[slot] = Some(TlbEntry { vpage, ppage });
            return TlbEvent {
                slot,
                evicted: None,
            };
        }
        let slot = match self.entries.iter().position(Option::is_none) {
            Some(free) => free,
            None => self.policy.victim(self.entries.len()),
        };
        let evicted = self.entries[slot];
        self.entries[slot] = Some(TlbEntry { vpage, ppage });
        TlbEvent { slot, evicted }
    }

    /// Entry currently in `slot`.
    pub fn entry(&self, slot: usize) -> Option<TlbEntry> {
        self.entries.get(slot).copied().flatten()
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// The micro-TLB: fully associative with second-chance replacement, sized at
/// 16 entries in Table II. Second chance minimizes uWT evictions and
/// therefore uWT→WT full-entry synchronization transfers (Sec. V).
#[derive(Clone, Debug)]
pub struct MicroTlb {
    entries: Vec<Option<TlbEntry>>,
    policy: SecondChance,
    hits: u64,
    misses: u64,
}

impl MicroTlb {
    /// Creates an empty micro-TLB with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "uTLB needs entries");
        Self {
            entries: vec![None; entries],
            policy: SecondChance::new(entries),
            hits: 0,
            misses: 0,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Looks up a virtual page; a hit marks the slot referenced.
    pub fn lookup(&mut self, vpage: VPageId) -> Option<(usize, TlbEntry)> {
        let found = self
            .entries
            .iter()
            .enumerate()
            .find_map(|(i, e)| e.filter(|e| e.vpage == vpage).map(|e| (i, e)));
        if let Some((slot, _)) = found {
            self.hits += 1;
            self.policy.touch(slot);
        } else {
            self.misses += 1;
        }
        found
    }

    /// Reverse lookup by physical page.
    pub fn lookup_by_ppage(&self, ppage: PPageId) -> Option<(usize, TlbEntry)> {
        self.entries
            .iter()
            .enumerate()
            .find_map(|(i, e)| e.filter(|e| e.ppage == ppage).map(|e| (i, e)))
    }

    /// Installs a translation, preferring a free slot, else the
    /// second-chance victim. The evicted entry (if any) must be synced to
    /// the WT by the caller.
    pub fn insert(&mut self, vpage: VPageId, ppage: PPageId) -> TlbEvent {
        if let Some((slot, _)) = self
            .entries
            .iter()
            .enumerate()
            .find_map(|(i, e)| e.filter(|e| e.vpage == vpage).map(|e| (i, e)))
        {
            self.entries[slot] = Some(TlbEntry { vpage, ppage });
            self.policy.touch(slot);
            return TlbEvent {
                slot,
                evicted: None,
            };
        }
        let slot = match self.entries.iter().position(Option::is_none) {
            Some(free) => free,
            None => self.policy.victim(),
        };
        let evicted = self.entries[slot];
        self.entries[slot] = Some(TlbEntry { vpage, ppage });
        // The reference bit stays clear on insertion: only a subsequent hit
        // marks the page hot. This is what lets the clock distinguish
        // streaming pages (touched once) from re-used ones.
        TlbEvent { slot, evicted }
    }

    /// Removes the translation in `slot` (e.g. when the main TLB evicted the
    /// page), returning it.
    pub fn invalidate_slot(&mut self, slot: usize) -> Option<TlbEntry> {
        self.entries.get_mut(slot).and_then(Option::take)
    }

    /// Finds the slot holding `vpage` without statistics side effects.
    pub fn slot_of(&self, vpage: VPageId) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.map(|e| e.vpage) == Some(vpage))
    }

    /// Entry currently in `slot`.
    pub fn entry(&self, slot: usize) -> Option<TlbEntry> {
        self.entries.get(slot).copied().flatten()
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}
