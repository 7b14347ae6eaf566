//! Page table, TLB and micro-TLB.
//!
//! The paper's way tables are *indexed by TLB entry*: the WT has exactly as
//! many entries as the TLB, and a TLB hit returns the matching WT entry "for
//! free". Both TLBs therefore expose their slot indices, report evictions
//! (the uWT must sync to the WT, the WT entry must be invalidated), and
//! support **reverse lookups by physical page** — cache line fills and
//! evictions carry physical tags only (Sec. V).
//!
//! Every L1 access translates, so both TLBs find a virtual page through a
//! hashed vpage → slot index (open addressing over a power-of-two bucket
//! array) instead of scanning their slots. Virtual pages are unique within
//! a TLB, so the index is exact: one page, one slot. The main TLB never
//! frees a slot, so its next free slot is a fill counter. Reverse lookups
//! scan a packed array of physical tags.
//!
//! **Synonyms.** [`PageTable::translate`] is not injective (vpages 70 and
//! 432 both map to ppage `0x6768`), so two resident pages can share a
//! physical page. A reverse lookup then answers with the **lowest**
//! matching slot, and every way-table update keyed by that ppage lands in
//! that slot's entry.
//!
//! The scanning TLBs the index replaced live on as a test-only oracle
//! (`tlb/reference.rs`).

use malec_types::addr::{PPageId, VPageId};

use crate::replacement::{SecondChance, SeededRandom};

#[cfg(test)]
mod reference;

/// A deterministic virtual→physical mapping standing in for the OS page
/// table. The mapping is a fixed bijective-ish hash, so identical traces
/// always see identical physical placements.
///
/// # Example
///
/// ```
/// use malec_mem::tlb::PageTable;
/// use malec_types::addr::VPageId;
///
/// let pt = PageTable::new(16); // 2^16 physical pages (256 MiB of 4 KiB pages)
/// let p1 = pt.translate(VPageId::new(5));
/// assert_eq!(p1, pt.translate(VPageId::new(5)));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct PageTable {
    ppage_bits: u32,
}

impl PageTable {
    /// Creates a page table with `2^ppage_bits` physical pages
    /// (16 bits ⇒ 256 MiB of 4 KiB pages, the paper's DRAM size).
    pub fn new(ppage_bits: u32) -> Self {
        Self { ppage_bits }
    }

    /// Translates a virtual page to its (deterministic) physical page.
    pub fn translate(self, vpage: VPageId) -> PPageId {
        // Fibonacci-hash style mix keeps consecutive virtual pages from
        // colliding in the physical space while staying deterministic.
        let mixed = vpage
            .raw()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_right(17)
            ^ vpage.raw();
        PPageId::new(mixed & ((1 << self.ppage_bits) - 1))
    }
}

impl Default for PageTable {
    /// 256 MiB of physical memory (Table II DRAM size).
    fn default() -> Self {
        Self::new(16)
    }
}

/// One TLB entry: a virtual→physical pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TlbEntry {
    /// Virtual page tag.
    pub vpage: VPageId,
    /// Physical page tag (also searchable — reverse lookups).
    pub ppage: PPageId,
}

/// What happened during a TLB insert.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TlbEvent {
    /// Slot the new translation was installed into.
    pub slot: usize,
    /// The translation that was evicted, if the slot was occupied.
    pub evicted: Option<TlbEntry>,
}

/// Empty-bucket marker in [`SlotIndex`].
const VACANT: u32 = u32::MAX;

/// Exact virtual page → slot map: open addressing with linear probing over
/// a power-of-two bucket array at most a quarter full, and backward-shift
/// deletion, so no tombstones build up and a probe always meets a vacant
/// bucket. A bucket is a packed `u64` page tag plus its slot (`VACANT`
/// when empty), kept in two parallel arrays.
#[derive(Clone, Debug)]
struct SlotIndex {
    tags: Vec<u64>,
    slots: Vec<u32>,
    mask: usize,
    shift: u32,
}

impl SlotIndex {
    fn new(capacity: usize) -> Self {
        assert!(capacity < VACANT as usize, "TLB too large to index");
        let buckets = (capacity * 4).next_power_of_two();
        Self {
            tags: vec![0; buckets],
            slots: vec![VACANT; buckets],
            mask: buckets - 1,
            shift: u64::BITS - buckets.trailing_zeros(),
        }
    }

    /// Multiplicative (Fibonacci) hash: the top bits of `tag * 2^64/phi`.
    fn home(&self, tag: u64) -> usize {
        (tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The bucket holding `tag`, or the vacant bucket that ends its probe.
    fn probe(&self, tag: u64) -> usize {
        let mut b = self.home(tag);
        while self.slots[b] != VACANT && self.tags[b] != tag {
            b = (b + 1) & self.mask;
        }
        b
    }

    fn get(&self, vpage: VPageId) -> Option<usize> {
        let slot = self.slots[self.probe(vpage.raw())];
        (slot != VACANT).then_some(slot as usize)
    }

    /// Maps an absent `vpage` to `slot`.
    fn insert(&mut self, vpage: VPageId, slot: usize) {
        let b = self.probe(vpage.raw());
        debug_assert_eq!(self.slots[b], VACANT, "vpage already indexed");
        self.tags[b] = vpage.raw();
        self.slots[b] = slot as u32;
    }

    /// Unmaps `vpage`, returning its slot, and shifts later members of
    /// its cluster back so every remaining probe chain stays unbroken.
    fn remove(&mut self, vpage: VPageId) -> Option<usize> {
        let mut hole = self.probe(vpage.raw());
        let slot = self.slots[hole];
        if slot == VACANT {
            return None;
        }
        let mut b = hole;
        loop {
            b = (b + 1) & self.mask;
            if self.slots[b] == VACANT {
                break;
            }
            // The member at `b` may fill the hole unless its home lies
            // cyclically in (hole, b].
            let from_home = b.wrapping_sub(self.home(self.tags[b])) & self.mask;
            if from_home >= (b.wrapping_sub(hole) & self.mask) {
                self.tags[hole] = self.tags[b];
                self.slots[hole] = self.slots[b];
                hole = b;
            }
        }
        self.slots[hole] = VACANT;
        Some(slot as usize)
    }
}

/// The slot array both TLBs share: entries, their physical tags packed for
/// the reverse scan, and the vpage index, kept in step by [`Self::set`]
/// and [`Self::take`].
#[derive(Clone, Debug)]
struct Slots {
    entries: Vec<Option<TlbEntry>>,
    /// Physical tag of each slot's entry; stale in free slots.
    ppages: Vec<u64>,
    index: SlotIndex,
    /// Occupied slots.
    len: usize,
}

impl Slots {
    fn new(capacity: usize) -> Self {
        Self {
            entries: vec![None; capacity],
            ppages: vec![0; capacity],
            index: SlotIndex::new(capacity),
            len: 0,
        }
    }

    fn capacity(&self) -> usize {
        self.entries.len()
    }

    fn is_full(&self) -> bool {
        self.len == self.entries.len()
    }

    fn entry(&self, slot: usize) -> Option<TlbEntry> {
        self.entries.get(slot).copied().flatten()
    }

    fn find(&self, vpage: VPageId) -> Option<(usize, TlbEntry)> {
        let slot = self.index.get(vpage)?;
        Some((slot, self.entries[slot].expect("indexed slot is occupied")))
    }

    /// The lowest occupied slot holding `ppage`: synonyms resolve to it.
    /// Scans the packed tags; a free slot's stale tag is skipped on match.
    fn find_ppage(&self, ppage: PPageId) -> Option<(usize, TlbEntry)> {
        self.ppages
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p == ppage.raw())
            .find_map(|(slot, _)| self.entries[slot].map(|e| (slot, e)))
    }

    /// Installs `entry` in `slot`, returning the entry it replaces.
    fn set(&mut self, slot: usize, entry: TlbEntry) -> Option<TlbEntry> {
        let old = self.entries[slot].replace(entry);
        match old {
            Some(old) => {
                self.index.remove(old.vpage);
            }
            None => self.len += 1,
        }
        self.index.insert(entry.vpage, slot);
        self.ppages[slot] = entry.ppage.raw();
        old
    }

    /// Frees the slot holding `vpage`, returning it and its entry.
    fn take(&mut self, vpage: VPageId) -> Option<(usize, TlbEntry)> {
        let slot = self.index.remove(vpage)?;
        self.len -= 1;
        Some((
            slot,
            self.entries[slot].take().expect("indexed slot is occupied"),
        ))
    }
}

/// The main TLB: fully associative with seeded-random replacement (Sec. V).
///
/// # Example
///
/// ```
/// use malec_mem::tlb::{PageTable, Tlb};
/// use malec_types::addr::VPageId;
///
/// let pt = PageTable::default();
/// let mut tlb = Tlb::new(64, 1);
/// let v = VPageId::new(3);
/// assert!(tlb.lookup(v).is_none());
/// tlb.insert(v, pt.translate(v));
/// assert!(tlb.lookup(v).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    slots: Slots,
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
            slots: Slots::new(entries),
            policy: SeededRandom::new(seed),
            hits: 0,
            misses: 0,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Looks up a virtual page; returns `(slot, entry)` on a hit.
    pub fn lookup(&mut self, vpage: VPageId) -> Option<(usize, TlbEntry)> {
        let found = self.slots.find(vpage);
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    /// Reverse lookup by physical page (used on line fills/evictions);
    /// does not perturb statistics — it is a different tag array. Of
    /// several synonyms, the lowest slot answers.
    pub fn lookup_by_ppage(&self, ppage: PPageId) -> Option<(usize, TlbEntry)> {
        self.slots.find_ppage(ppage)
    }

    /// Installs a translation, preferring a free slot, else evicting a
    /// random victim.
    pub fn insert(&mut self, vpage: VPageId, ppage: PPageId) -> TlbEvent {
        let entry = TlbEntry { vpage, ppage };
        if let Some((slot, _)) = self.slots.find(vpage) {
            // Refresh of an existing translation.
            self.slots.set(slot, entry);
            return TlbEvent {
                slot,
                evicted: None,
            };
        }
        // The TLB never frees a slot, so the free ones are the tail and
        // the lowest is the fill count.
        let slot = if self.slots.is_full() {
            self.policy.victim(self.slots.capacity())
        } else {
            self.slots.len
        };
        let evicted = self.slots.set(slot, entry);
        TlbEvent { slot, evicted }
    }

    /// Entry currently in `slot`.
    pub fn entry(&self, slot: usize) -> Option<TlbEntry> {
        self.slots.entry(slot)
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
    slots: Slots,
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
            slots: Slots::new(entries),
            policy: SecondChance::new(entries),
            hits: 0,
            misses: 0,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Looks up a virtual page; a hit marks the slot referenced.
    pub fn lookup(&mut self, vpage: VPageId) -> Option<(usize, TlbEntry)> {
        let found = self.slots.find(vpage);
        if let Some((slot, _)) = found {
            self.hits += 1;
            self.policy.touch(slot);
        } else {
            self.misses += 1;
        }
        found
    }

    /// Reverse lookup by physical page. Of several synonyms, the lowest
    /// slot answers.
    pub fn lookup_by_ppage(&self, ppage: PPageId) -> Option<(usize, TlbEntry)> {
        self.slots.find_ppage(ppage)
    }

    /// Installs a translation, preferring a free slot, else the
    /// second-chance victim. The evicted entry (if any) must be synced to
    /// the WT by the caller.
    pub fn insert(&mut self, vpage: VPageId, ppage: PPageId) -> TlbEvent {
        let entry = TlbEntry { vpage, ppage };
        if let Some((slot, _)) = self.slots.find(vpage) {
            self.slots.set(slot, entry);
            self.policy.touch(slot);
            return TlbEvent {
                slot,
                evicted: None,
            };
        }
        let slot = if self.slots.is_full() {
            self.policy.victim()
        } else {
            self.slots
                .entries
                .iter()
                .position(Option::is_none)
                .expect("a slot is free below capacity")
        };
        let evicted = self.slots.set(slot, entry);
        // The reference bit stays clear on insertion: only a subsequent hit
        // marks the page hot. This is what lets the clock distinguish
        // streaming pages (touched once) from re-used ones.
        TlbEvent { slot, evicted }
    }

    /// Removes the translation of `vpage` (e.g. when the main TLB evicted
    /// the page) without statistics side effects, returning the slot it
    /// held and the entry.
    pub fn invalidate(&mut self, vpage: VPageId) -> Option<(usize, TlbEntry)> {
        self.slots.take(vpage)
    }

    /// Entry currently in `slot`.
    pub fn entry(&self, slot: usize) -> Option<TlbEntry> {
        self.slots.entry(slot)
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::rng::TestRng;

    #[test]
    fn page_table_is_deterministic_and_in_range() {
        let pt = PageTable::default();
        for v in 0..1000u64 {
            let p = pt.translate(VPageId::new(v));
            assert_eq!(p, pt.translate(VPageId::new(v)));
            assert!(p.raw() < (1 << 16));
        }
    }

    #[test]
    fn page_table_spreads_consecutive_pages() {
        let pt = PageTable::default();
        let mut seen = std::collections::HashSet::new();
        for v in 0..256u64 {
            seen.insert(pt.translate(VPageId::new(v)).raw());
        }
        assert!(seen.len() > 250, "near-bijective for small ranges");
    }

    #[test]
    fn tlb_miss_insert_hit() {
        let pt = PageTable::default();
        let mut tlb = Tlb::new(4, 7);
        let v = VPageId::new(9);
        assert!(tlb.lookup(v).is_none());
        let ev = tlb.insert(v, pt.translate(v));
        assert_eq!(ev.evicted, None);
        let (slot, entry) = tlb.lookup(v).expect("hit after insert");
        assert_eq!(slot, ev.slot);
        assert_eq!(entry.ppage, pt.translate(v));
        assert_eq!(tlb.hits(), 1);
        assert_eq!(tlb.misses(), 1);
    }

    #[test]
    fn tlb_reverse_lookup() {
        let pt = PageTable::default();
        let mut tlb = Tlb::new(8, 1);
        let v = VPageId::new(33);
        let p = pt.translate(v);
        tlb.insert(v, p);
        let (_, e) = tlb.lookup_by_ppage(p).expect("reverse hit");
        assert_eq!(e.vpage, v);
        assert!(tlb.lookup_by_ppage(PPageId::new(p.raw() ^ 1)).is_none());
    }

    #[test]
    fn tlb_evicts_when_full() {
        let mut tlb = Tlb::new(2, 3);
        tlb.insert(VPageId::new(1), PPageId::new(1));
        tlb.insert(VPageId::new(2), PPageId::new(2));
        let ev = tlb.insert(VPageId::new(3), PPageId::new(3));
        assert!(ev.evicted.is_some());
        assert!(tlb.lookup(VPageId::new(3)).is_some());
    }

    #[test]
    fn tlb_refresh_does_not_evict() {
        let mut tlb = Tlb::new(2, 3);
        let first = tlb.insert(VPageId::new(1), PPageId::new(1));
        tlb.insert(VPageId::new(2), PPageId::new(2));
        let again = tlb.insert(VPageId::new(1), PPageId::new(1));
        assert_eq!(again.slot, first.slot);
        assert_eq!(again.evicted, None);
    }

    #[test]
    fn utlb_second_chance_protects_hot_entry() {
        let mut utlb = MicroTlb::new(2);
        utlb.insert(VPageId::new(1), PPageId::new(1));
        utlb.insert(VPageId::new(2), PPageId::new(2));
        // Keep page 1 hot.
        utlb.lookup(VPageId::new(1));
        let ev = utlb.insert(VPageId::new(3), PPageId::new(3));
        let evicted = ev.evicted.expect("full uTLB must evict");
        assert_eq!(evicted.vpage, VPageId::new(2), "hot page must survive");
        assert!(utlb.lookup(VPageId::new(1)).is_some());
    }

    #[test]
    fn utlb_invalidate_slot() {
        let mut utlb = MicroTlb::new(4);
        let ev = utlb.insert(VPageId::new(5), PPageId::new(50));
        let (slot, removed) = utlb.invalidate(VPageId::new(5)).expect("entry present");
        assert_eq!(slot, ev.slot);
        assert_eq!(removed.vpage, VPageId::new(5));
        assert_eq!(utlb.entry(slot), None);
        assert!(utlb.lookup(VPageId::new(5)).is_none());
        assert!(utlb.invalidate(VPageId::new(5)).is_none());
        assert!(utlb.invalidate(VPageId::new(9)).is_none());
        // The freed slot is the next one filled.
        assert_eq!(utlb.insert(VPageId::new(6), PPageId::new(60)).slot, slot);
    }

    /// One call on a TLB under test and on its scanning reference.
    #[derive(Clone, Copy, Debug)]
    enum TlbOp {
        Insert(u64, u64),
        Lookup(u64),
        Reverse(u64),
        /// uTLB only; the main TLB treats it as a lookup.
        Invalidate(u64),
    }

    /// A capacity in 1..=64, a replacement seed, and up to 400 calls over
    /// 2·cap+2 virtual pages but only cap/2+1 physical pages, so refreshes,
    /// evictions and synonyms are all common.
    struct TlbCases;

    impl Strategy for TlbCases {
        type Value = (usize, u64, Vec<TlbOp>);

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let cap = (1usize..65).generate(rng);
            let seed = rng.next_u64();
            let (vpages, ppages) = (2 * cap as u64 + 2, cap as u64 / 2 + 1);
            let len = (0usize..400).generate(rng);
            let ops = (0..len)
                .map(|_| {
                    let v = (0..vpages).generate(rng);
                    let p = (0..ppages).generate(rng);
                    match (0u8..9).generate(rng) {
                        0..=2 => TlbOp::Insert(v, p),
                        3..=5 => TlbOp::Lookup(v),
                        6..=7 => TlbOp::Reverse(p),
                        _ => TlbOp::Invalidate(v),
                    }
                })
                .collect();
            (cap, seed, ops)
        }
    }

    proptest! {
        #[test]
        fn prop_indexed_tlb_matches_the_scanning_reference(case in TlbCases) {
            let (cap, seed, ops) = case;
            let mut tlb = Tlb::new(cap, seed);
            let mut oracle = reference::Tlb::new(cap, seed);
            prop_assert_eq!(tlb.capacity(), oracle.capacity());
            for op in ops {
                match op {
                    TlbOp::Insert(v, p) => {
                        let (v, p) = (VPageId::new(v), PPageId::new(p));
                        prop_assert_eq!(tlb.insert(v, p), oracle.insert(v, p), "{:?}", op);
                    }
                    TlbOp::Lookup(v) | TlbOp::Invalidate(v) => {
                        let v = VPageId::new(v);
                        prop_assert_eq!(tlb.lookup(v), oracle.lookup(v), "{:?}", op);
                    }
                    TlbOp::Reverse(p) => {
                        let p = PPageId::new(p);
                        prop_assert_eq!(
                            tlb.lookup_by_ppage(p), oracle.lookup_by_ppage(p), "{:?}", op
                        );
                    }
                }
                prop_assert_eq!((tlb.hits(), tlb.misses()), (oracle.hits(), oracle.misses()));
            }
            for slot in 0..=cap {
                prop_assert_eq!(tlb.entry(slot), oracle.entry(slot));
            }
        }

        #[test]
        fn prop_indexed_utlb_matches_the_scanning_reference(case in TlbCases) {
            let (cap, _, ops) = case;
            let mut utlb = MicroTlb::new(cap);
            let mut oracle = reference::MicroTlb::new(cap);
            prop_assert_eq!(utlb.capacity(), oracle.capacity());
            for op in ops {
                match op {
                    TlbOp::Insert(v, p) => {
                        let (v, p) = (VPageId::new(v), PPageId::new(p));
                        prop_assert_eq!(utlb.insert(v, p), oracle.insert(v, p), "{:?}", op);
                    }
                    TlbOp::Lookup(v) => {
                        let v = VPageId::new(v);
                        prop_assert_eq!(utlb.lookup(v), oracle.lookup(v), "{:?}", op);
                    }
                    TlbOp::Reverse(p) => {
                        let p = PPageId::new(p);
                        prop_assert_eq!(
                            utlb.lookup_by_ppage(p), oracle.lookup_by_ppage(p), "{:?}", op
                        );
                    }
                    TlbOp::Invalidate(v) => {
                        let v = VPageId::new(v);
                        let expected = oracle.slot_of(v).map(|slot| {
                            (slot, oracle.invalidate_slot(slot).expect("slot_of found it"))
                        });
                        prop_assert_eq!(utlb.invalidate(v), expected, "{:?}", op);
                    }
                }
                prop_assert_eq!((utlb.hits(), utlb.misses()), (oracle.hits(), oracle.misses()));
            }
            for slot in 0..=cap {
                prop_assert_eq!(utlb.entry(slot), oracle.entry(slot));
            }
        }

        #[test]
        fn prop_slot_index_matches_a_map(
            ops in proptest::collection::vec((0u64..40, 0u8..2), 0..300)
        ) {
            // Capacity 8 (32 buckets) over 40 keys: long clusters, and
            // removals from their middles.
            let mut index = SlotIndex::new(8);
            let mut model = std::collections::BTreeMap::new();
            for (k, add) in ops {
                let v = VPageId::new(k);
                if add == 1 && model.len() < 8 && !model.contains_key(&k) {
                    let slot = model.len();
                    index.insert(v, slot);
                    model.insert(k, slot);
                } else {
                    prop_assert_eq!(index.remove(v), model.remove(&k));
                }
                for key in 0..40u64 {
                    prop_assert_eq!(index.get(VPageId::new(key)), model.get(&key).copied());
                }
            }
        }

        #[test]
        fn prop_tlb_never_holds_duplicate_vpages(
            inserts in proptest::collection::vec(0u64..32, 0..128)
        ) {
            let pt = PageTable::default();
            let mut tlb = Tlb::new(8, 11);
            for v in inserts {
                let vp = VPageId::new(v);
                tlb.insert(vp, pt.translate(vp));
            }
            for v in 0..32u64 {
                let vp = VPageId::new(v);
                let count = (0..tlb.capacity())
                    .filter(|&s| tlb.entry(s).map(|e| e.vpage) == Some(vp))
                    .count();
                prop_assert!(count <= 1, "vpage {v} duplicated");
            }
        }

        #[test]
        fn prop_utlb_hit_after_insert(v in 0u64..(1 << 20)) {
            let pt = PageTable::default();
            let mut utlb = MicroTlb::new(16);
            let vp = VPageId::new(v);
            utlb.insert(vp, pt.translate(vp));
            prop_assert!(utlb.lookup(vp).is_some());
        }

        #[test]
        fn prop_utlb_capacity_respected(
            inserts in proptest::collection::vec(0u64..1024, 0..256)
        ) {
            let pt = PageTable::default();
            let mut utlb = MicroTlb::new(16);
            for v in inserts {
                let vp = VPageId::new(v);
                utlb.insert(vp, pt.translate(vp));
            }
            let occupied = (0..utlb.capacity()).filter(|&s| utlb.entry(s).is_some()).count();
            prop_assert!(occupied <= 16);
        }
    }
}
