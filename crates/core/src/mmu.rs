//! The translation front end shared by every interface: page table, TLB,
//! micro-TLB, and the bookkeeping the way tables need (slot indices and
//! eviction events).

use malec_mem::tlb::{MicroTlb, PageTable, Tlb, TlbEntry};
use malec_types::addr::{PPageId, VPageId};

/// Extra cycles a translation adds on top of the (pipelined) uTLB hit path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TranslationPath {
    /// uTLB hit: fully overlapped, no extra latency.
    MicroHit,
    /// uTLB miss, TLB hit: one extra cycle.
    TlbHit,
    /// Both missed: a page-table walk.
    Walk,
}

impl TranslationPath {
    /// Extra latency in cycles for this path.
    pub const fn extra_latency(self) -> u32 {
        match self {
            TranslationPath::MicroHit => 0,
            TranslationPath::TlbHit => 1,
            TranslationPath::Walk => 20,
        }
    }
}

/// Result of translating one virtual page.
///
/// `tlb_slot` is `Some` exactly on the [`TranslationPath::TlbHit`] and
/// [`TranslationPath::Walk`] paths, the ones that touch the TLB and so its
/// WT entry. A uTLB hit leaves it `None`: finding the TLB slot would take a
/// reverse lookup that nothing on that path needs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Translation {
    /// The physical page.
    pub ppage: PPageId,
    /// Which path the translation took (drives latency and energy).
    pub path: TranslationPath,
    /// uTLB slot now holding the translation (way tables mirror slots).
    pub utlb_slot: usize,
    /// TLB slot now holding the translation, on the paths that touched the
    /// TLB (`None` on a uTLB hit).
    pub tlb_slot: Option<usize>,
    /// uTLB entry evicted to make room (its uWT entry must sync to the WT).
    pub utlb_evicted: Option<(usize, TlbEntry)>,
    /// TLB entry evicted (its WT entry is lost; any uTLB copy dies too).
    pub tlb_evicted: Option<(usize, TlbEntry)>,
}

/// Page table + TLB + uTLB with the synchronization rules of Sec. V.
#[derive(Clone, Debug)]
pub struct Mmu {
    page_table: PageTable,
    utlb: MicroTlb,
    tlb: Tlb,
}

impl Mmu {
    /// Creates the MMU with `utlb_entries`/`tlb_entries` slots and a
    /// deterministic TLB replacement seed.
    pub fn new(utlb_entries: usize, tlb_entries: usize, seed: u64) -> Self {
        Self {
            page_table: PageTable::default(),
            utlb: MicroTlb::new(utlb_entries),
            tlb: Tlb::new(tlb_entries, seed),
        }
    }

    /// Translates `vpage`, updating uTLB/TLB state and reporting every event
    /// the way tables need.
    pub fn translate(&mut self, vpage: VPageId) -> Translation {
        if let Some((slot, entry)) = self.utlb.lookup(vpage) {
            return Translation {
                ppage: entry.ppage,
                path: TranslationPath::MicroHit,
                utlb_slot: slot,
                tlb_slot: None,
                utlb_evicted: None,
                tlb_evicted: None,
            };
        }

        // uTLB miss: consult the TLB.
        if let Some((tlb_slot, entry)) = self.tlb.lookup(vpage) {
            let ev = self.utlb.insert(vpage, entry.ppage);
            return Translation {
                ppage: entry.ppage,
                path: TranslationPath::TlbHit,
                utlb_slot: ev.slot,
                tlb_slot: Some(tlb_slot),
                utlb_evicted: ev.evicted.map(|e| (ev.slot, e)),
                tlb_evicted: None,
            };
        }

        // Page-table walk.
        let ppage = self.page_table.translate(vpage);
        let tlb_ev = self.tlb.insert(vpage, ppage);
        // A TLB eviction kills any uTLB copy of the evicted page.
        let mut tlb_evicted = None;
        if let Some(evicted) = tlb_ev.evicted {
            self.utlb.invalidate(evicted.vpage);
            tlb_evicted = Some((tlb_ev.slot, evicted));
        }
        let u_ev = self.utlb.insert(vpage, ppage);
        Translation {
            ppage,
            path: TranslationPath::Walk,
            utlb_slot: u_ev.slot,
            tlb_slot: Some(tlb_ev.slot),
            utlb_evicted: u_ev.evicted.map(|e| (u_ev.slot, e)),
            tlb_evicted,
        }
    }

    /// The physical page the page table maps `vpage` to, without touching
    /// either TLB or their statistics.
    pub fn physical_page(&self, vpage: VPageId) -> PPageId {
        self.page_table.translate(vpage)
    }

    /// Reverse lookup by physical page in the uTLB (for way-table validity
    /// maintenance on line fills/evictions). Of several synonyms, the
    /// lowest slot answers.
    pub fn utlb_slot_of_ppage(&self, ppage: PPageId) -> Option<usize> {
        self.utlb.lookup_by_ppage(ppage).map(|(s, _)| s)
    }

    /// Reverse lookup by physical page in the TLB; of several synonyms,
    /// the lowest slot answers.
    pub fn tlb_slot_of_ppage(&self, ppage: PPageId) -> Option<usize> {
        self.tlb.lookup_by_ppage(ppage).map(|(s, _)| s)
    }

    /// uTLB hit/miss statistics.
    pub fn utlb_stats(&self) -> (u64, u64) {
        (self.utlb.hits(), self.utlb.misses())
    }

    /// TLB hit/miss statistics.
    pub fn tlb_stats(&self) -> (u64, u64) {
        (self.tlb.hits(), self.tlb.misses())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mmu() -> Mmu {
        Mmu::new(4, 16, 7)
    }

    #[test]
    fn first_touch_walks_then_hits() {
        let mut m = mmu();
        let v = VPageId::new(0x100);
        let t1 = m.translate(v);
        assert_eq!(t1.path, TranslationPath::Walk);
        let t2 = m.translate(v);
        assert_eq!(t2.path, TranslationPath::MicroHit);
        assert_eq!(t1.ppage, t2.ppage);
        assert_eq!(t1.utlb_slot, t2.utlb_slot);
    }

    #[test]
    fn utlb_eviction_reported_for_wt_sync() {
        let mut m = mmu();
        // Fill the 4-entry uTLB, then add a fifth page.
        for v in 0..5u64 {
            m.translate(VPageId::new(v));
        }
        // The fifth translation must have evicted one of the first four.
        // (All were walks; the last one's utlb_evicted should be set.)
        let t = m.translate(VPageId::new(9));
        assert!(
            t.utlb_evicted.is_some(),
            "full uTLB must report an eviction for uWT sync"
        );
    }

    #[test]
    fn tlb_hit_after_utlb_eviction() {
        let mut m = mmu();
        let v0 = VPageId::new(50);
        m.translate(v0);
        // Push v0 out of the 4-entry uTLB (but it stays in the 16-entry TLB).
        for v in 60..65u64 {
            m.translate(VPageId::new(v));
        }
        let t = m.translate(v0);
        assert_eq!(t.path, TranslationPath::TlbHit);
    }

    #[test]
    fn tlb_eviction_invalidates_utlb_copy() {
        let mut m = Mmu::new(4, 4, 3);
        // Fill the 4-entry TLB.
        for v in 0..4u64 {
            m.translate(VPageId::new(v));
        }
        // Insert a fifth page: some page is evicted from the TLB.
        let t = m.translate(VPageId::new(4));
        let (_, evicted) = t.tlb_evicted.expect("TLB eviction expected");
        // Page v sat in uTLB slot v: the new page takes that freed slot
        // instead of evicting a live uTLB entry.
        assert_eq!(t.utlb_evicted, None);
        assert_eq!(t.utlb_slot as u64, evicted.vpage.raw());
        // The evicted page must no longer hit the uTLB either.
        let again = m.translate(evicted.vpage);
        assert_ne!(again.path, TranslationPath::MicroHit);
    }

    #[test]
    fn reverse_lookups_find_pages() {
        let mut m = mmu();
        let v = VPageId::new(0x77);
        let t = m.translate(v);
        assert_eq!(m.utlb_slot_of_ppage(t.ppage), Some(t.utlb_slot));
        assert_eq!(m.tlb_slot_of_ppage(t.ppage), t.tlb_slot);
        assert_eq!(m.utlb_slot_of_ppage(PPageId::new(0xffff_1234)), None);
    }

    /// vpages 70 and 432 share ppage 0x6768 under the default page table.
    const SYNONYMS: [u64; 2] = [70, 432];
    const SYNONYM_PPAGE: u64 = 0x6768;

    #[test]
    fn synonym_reverse_lookups_resolve_to_the_lowest_slot() {
        let pt = PageTable::default();
        for v in SYNONYMS {
            assert_eq!(pt.translate(VPageId::new(v)).raw(), SYNONYM_PPAGE);
        }
        let shared = PPageId::new(SYNONYM_PPAGE);
        let mut m = mmu();
        // Fill order: 70 takes the lower uTLB and TLB slots.
        let a = m.translate(VPageId::new(SYNONYMS[0]));
        let b = m.translate(VPageId::new(SYNONYMS[1]));
        assert!(a.utlb_slot < b.utlb_slot);
        assert_eq!(m.utlb_slot_of_ppage(shared), Some(a.utlb_slot));
        assert_eq!(m.tlb_slot_of_ppage(shared), a.tlb_slot);
        // Now move 70 above 432 in the uTLB: fill it, keep 432 hot, push
        // 70 out (the clock hand starts at slot 0), then bring it back into
        // the slot the clock frees next.
        m.translate(VPageId::new(1));
        m.translate(VPageId::new(2));
        assert_eq!(
            m.translate(VPageId::new(SYNONYMS[1])).path,
            TranslationPath::MicroHit
        );
        let pushed = m.translate(VPageId::new(3));
        assert_eq!(
            pushed.utlb_evicted.map(|(_, e)| e.vpage.raw()),
            Some(SYNONYMS[0])
        );
        let back = m.translate(VPageId::new(SYNONYMS[0]));
        assert_eq!(back.path, TranslationPath::TlbHit);
        assert!(
            back.utlb_slot > b.utlb_slot,
            "most recent fill is the higher slot"
        );
        assert_eq!(m.utlb_slot_of_ppage(shared), Some(b.utlb_slot));
        assert_eq!(m.tlb_slot_of_ppage(shared), a.tlb_slot);
    }

    #[test]
    fn translation_paths_have_increasing_latency() {
        assert!(
            TranslationPath::MicroHit.extra_latency() < TranslationPath::TlbHit.extra_latency()
        );
        assert!(TranslationPath::TlbHit.extra_latency() < TranslationPath::Walk.extra_latency());
    }
}
