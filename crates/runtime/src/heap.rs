//! The two-generation heap: segments, allocation, containment tests.
//!
//! Paper §5.2: "Objects are originally allocated in the younger generation
//! and if they pass a garbage collection, they are promoted to the elder
//! generation. ... the younger generation is collected often, while the
//! elder generation is collected less frequently. When a set of objects are
//! promoted to the elder generation, they are copied to the elder
//! generation, with compaction to reduce fragmentation. Once in the elder
//! generation, objects are collected if abandoned, but are no longer
//! compacted."
//!
//! Layout of the heap:
//!
//! * **Young generation** — a single bump-allocated segment. Exhaustion
//!   triggers a minor collection.
//! * **Elder generation** — a list of segments. Allocation first bumps the
//!   most recent segment, then searches the free list rebuilt by each
//!   mark-sweep, then grows a new segment. Elder objects never move, which
//!   is what makes the Motor pinning policy's "already promoted ⇒ no pin
//!   needed" check sound (paper §7.4).
//! * **Large objects** (bigger than half the young capacity) allocate
//!   directly in the elder generation, as in production CLRs; the young
//!   segment could never hold them. This also means very large message
//!   buffers are never moved — the pinning policy then skips them, which is
//!   the behaviour the paper relies on for its large ping-pong buffers.
//!
//! Addresses handed out by the heap are raw `usize` pointers into segment
//! memory. They are only stable while the GC is excluded (cooperative
//! non-polling code) or while the object is pinned / in the elder
//! generation — exactly the discipline the paper's FCalls follow.

use crate::layout::{obj_flags, ObjHeader, ALIGN, HEADER_SIZE};

/// A contiguous memory region backing one generation (or part of one).
pub struct Segment {
    /// Backing store; `u64` guarantees 8-byte alignment of the base.
    mem: Box<[u64]>,
    /// Bump offset in bytes from the base.
    bump: usize,
}

impl Segment {
    /// Allocate a zeroed segment of at least `bytes` capacity.
    pub fn new(bytes: usize) -> Self {
        let words = bytes.div_ceil(8);
        Segment {
            mem: vec![0u64; words.max(8)].into_boxed_slice(),
            bump: 0,
        }
    }

    /// Base address of the segment memory.
    #[inline]
    pub fn base(&self) -> usize {
        self.mem.as_ptr() as usize
    }

    /// One-past-the-end address of the segment capacity.
    #[inline]
    pub fn end(&self) -> usize {
        self.base() + self.capacity()
    }

    /// Capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.mem.len() * 8
    }

    /// Bytes currently bump-allocated.
    #[inline]
    pub fn used(&self) -> usize {
        self.bump
    }

    /// Whether `addr` lies within the *allocated* part of this segment.
    #[inline]
    pub fn contains(&self, addr: usize) -> bool {
        addr >= self.base() && addr < self.base() + self.bump
    }

    /// Try to bump-allocate `size` bytes (already aligned); returns the
    /// address or `None` if the segment is full.
    pub fn try_bump(&mut self, size: usize) -> Option<usize> {
        debug_assert!(size.is_multiple_of(ALIGN));
        if self.bump + size > self.capacity() {
            return None;
        }
        let addr = self.base() + self.bump;
        self.bump += size;
        Some(addr)
    }

    /// Reset the bump pointer, logically freeing every object (used after a
    /// minor collection has evacuated the young generation).
    pub fn reset(&mut self) {
        self.bump = 0;
    }

    /// Iterate over the headers of all allocations in this segment,
    /// including `FREE` filler blocks.
    pub fn walk(&self) -> SegmentWalker<'_> {
        SegmentWalker {
            seg: self,
            offset: 0,
        }
    }
}

/// Iterator over object addresses within a segment.
pub struct SegmentWalker<'s> {
    seg: &'s Segment,
    offset: usize,
}

impl Iterator for SegmentWalker<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.offset >= self.seg.bump {
            return None;
        }
        let addr = self.seg.base() + self.offset;
        // SAFETY: every allocation writes a header before the bump pointer
        // moves past it, so the allocated prefix is always parseable.
        let size = unsafe { (*(addr as *const ObjHeader)).size } as usize;
        debug_assert!(size >= HEADER_SIZE && size.is_multiple_of(ALIGN));
        self.offset += size;
        Some(addr)
    }
}

/// A free block in the elder generation (rebuilt by each sweep).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreeBlock {
    /// Address of the block (a `FREE`-flagged header lives here).
    pub addr: usize,
    /// Size of the block in bytes.
    pub size: usize,
}

/// Heap configuration.
#[derive(Debug, Clone)]
pub struct HeapConfig {
    /// Capacity of the young generation in bytes.
    pub young_bytes: usize,
    /// Size of each elder-generation segment in bytes.
    pub old_segment_bytes: usize,
    /// Soft cap on total elder bytes before a full collection is forced.
    pub old_soft_limit: usize,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            young_bytes: 256 * 1024,
            old_segment_bytes: 1024 * 1024,
            old_soft_limit: 64 * 1024 * 1024,
        }
    }
}

/// The two-generation heap.
pub struct Heap {
    config: HeapConfig,
    young: Segment,
    old: Vec<Segment>,
    free_list: Vec<FreeBlock>,
    old_bytes_used: usize,
}

/// Why an allocation could not be satisfied right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocPressure {
    /// The young generation is full: run a minor collection.
    NeedsMinor,
    /// The elder generation crossed its soft limit: run a full collection.
    NeedsFull,
}

/// A zeroed run of one generation reserved by [`Heap::alloc_extent`], handed
/// out front to back as objects. It borrows the heap, so nothing else
/// allocates and no collection runs while it is carved; every object it
/// hands out is in the same generation, so references among them need no
/// write barrier.
pub struct Extent<'h> {
    next: usize,
    end: usize,
    /// `IN_OLD` for an elder-resident run, 0 for a young one.
    generation: u32,
    heap: std::marker::PhantomData<&'h mut Heap>,
}

impl Extent<'_> {
    /// Address the next [`Extent::carve`] returns.
    pub fn next(&self) -> usize {
        self.next
    }

    /// Bytes not yet carved.
    pub fn remaining(&self) -> usize {
        self.end - self.next
    }

    /// Hand out the next `size` bytes (aligned, payload zeroed) as an
    /// object with the given header. What is left stays one filler block; a
    /// tail too small to hold a header goes to this object, as in
    /// [`Heap::alloc_old`].
    ///
    /// # Safety
    /// `header` names a registered type, and an object of that type with
    /// that `extra` occupies at most `size` bytes: the collector will scan
    /// the object by what its header says.
    pub unsafe fn carve(&mut self, size: usize, mut header: ObjHeader) -> usize {
        debug_assert!(size >= HEADER_SIZE && size.is_multiple_of(ALIGN));
        assert!(size <= self.remaining(), "extent overrun");
        let addr = self.next;
        let mut rest = self.remaining() - size;
        if rest < HEADER_SIZE {
            rest = 0;
        }
        self.next = self.end - rest;
        header.size = (self.next - addr) as u32;
        header.flags |= self.generation;
        if rest > 0 {
            Heap::stamp_free(self.next, rest);
        }
        // SAFETY: `addr..self.next` lies inside the run `alloc_extent`
        // reserved, which this extent owns while it borrows the heap.
        unsafe { std::ptr::write(addr as *mut ObjHeader, header) };
        addr
    }
}

/// Header of a block no object lives in ([`Heap::stamp`] sets the size).
const FILLER: ObjHeader = ObjHeader {
    mt: u32::MAX,
    flags: obj_flags::FREE,
    size: 0,
    extra: 0,
};

impl Heap {
    /// Create a heap with the given configuration.
    pub fn new(config: HeapConfig) -> Self {
        let young = Segment::new(config.young_bytes);
        Heap {
            config,
            young,
            old: Vec::new(),
            free_list: Vec::new(),
            old_bytes_used: 0,
        }
    }

    /// Heap configuration.
    pub fn config(&self) -> &HeapConfig {
        &self.config
    }

    /// Whether `addr` lies in the young generation — the containment test
    /// the Motor pinning policy performs: "Motor checks the object's
    /// internal memory address against the boundaries of the younger
    /// generation" (paper §7.4).
    #[inline]
    pub fn is_young(&self, addr: usize) -> bool {
        self.young.contains(addr)
    }

    /// Whether `addr` is anywhere in this heap.
    pub fn contains(&self, addr: usize) -> bool {
        self.young.contains(addr) || self.old.iter().any(|s| s.contains(addr))
    }

    /// Threshold above which allocations go straight to the elder
    /// generation.
    pub fn large_object_threshold(&self) -> usize {
        self.config.young_bytes / 2
    }

    /// Allocate `size` bytes (aligned) and stamp the given header. The
    /// payload beyond the header is zeroed. Returns the address, or the
    /// collection the caller must run before retrying.
    pub fn alloc(&mut self, size: usize, header: ObjHeader) -> Result<usize, AllocPressure> {
        debug_assert!(size >= HEADER_SIZE && size.is_multiple_of(ALIGN));
        if size > self.large_object_threshold() {
            let mut header = header;
            header.flags |= obj_flags::IN_OLD;
            return self.alloc_old(size, header);
        }
        match self.young.try_bump(size) {
            Some(addr) => {
                Self::stamp(addr, size, header);
                Ok(addr)
            }
            None => Err(AllocPressure::NeedsMinor),
        }
    }

    /// Reserve one contiguous run of `total` bytes for a client that carves
    /// it into objects itself (the serializer's materializer). The rule is
    /// [`Heap::alloc`]'s applied to the total: a run above the large-object
    /// threshold is elder-resident, and every header carved from it says
    /// so. The run is stamped as one `FREE` filler block, so the segment
    /// stays parseable whatever the client does with the extent.
    pub fn alloc_extent(&mut self, total: usize) -> Result<Extent<'_>, AllocPressure> {
        let next = self.alloc(total, FILLER)?;
        Ok(self.extent_at(next))
    }

    /// [`Heap::alloc_extent`] in the elder generation with the soft limit
    /// ignored, as [`Heap::alloc_old_unchecked`] does for promotion: where
    /// a graph goes that a full collection could not make room for. The
    /// next allocation above the threshold re-checks the limit.
    pub fn alloc_extent_unchecked(&mut self, total: usize) -> Extent<'_> {
        let next = self
            .alloc_old_unchecked(total, FILLER)
            .expect("without a limit the elder generation grows");
        self.extent_at(next)
    }

    /// The extent over the filler block just stamped at `next`.
    fn extent_at(&mut self, next: usize) -> Extent<'_> {
        let stamped = self.header(next);
        debug_assert_eq!(self.is_young(next), stamped.flags & obj_flags::IN_OLD == 0);
        Extent {
            next,
            // The elder free list may hand out a little more than asked.
            end: next + stamped.size as usize,
            generation: stamped.flags & obj_flags::IN_OLD,
            heap: std::marker::PhantomData,
        }
    }

    /// Allocate directly in the elder generation (promotions and large
    /// objects).
    pub fn alloc_old(
        &mut self,
        size: usize,
        mut header: ObjHeader,
    ) -> Result<usize, AllocPressure> {
        header.flags |= obj_flags::IN_OLD;
        if self.old_bytes_used + size > self.config.old_soft_limit {
            return Err(AllocPressure::NeedsFull);
        }
        // 1. Bump the most recent segment.
        if let Some(seg) = self.old.last_mut() {
            if let Some(addr) = seg.try_bump(size) {
                Self::stamp(addr, size, header);
                self.old_bytes_used += size;
                return Ok(addr);
            }
        }
        // 2. First-fit from the free list (elder gen is never compacted, so
        //    freed holes are the only reusable space — paper §5.2).
        if let Some(pos) = self.free_list.iter().position(|b| b.size >= size) {
            let block = self.free_list[pos];
            let remainder = block.size - size;
            if remainder >= HEADER_SIZE {
                // Split: keep the tail as a smaller free block.
                let tail = FreeBlock {
                    addr: block.addr + size,
                    size: remainder,
                };
                Self::stamp_free(tail.addr, tail.size);
                self.free_list[pos] = tail;
            } else {
                // Too small to split; hand out the whole block.
                self.free_list.swap_remove(pos);
            }
            let got = if remainder >= HEADER_SIZE {
                size
            } else {
                block.size
            };
            Self::stamp(
                block.addr,
                got,
                ObjHeader {
                    size: got as u32,
                    ..header
                },
            );
            self.old_bytes_used += got;
            return Ok(block.addr);
        }
        // 3. Grow a new segment.
        let seg_bytes = self.config.old_segment_bytes.max(size);
        let mut seg = Segment::new(seg_bytes);
        let addr = seg.try_bump(size).expect("fresh segment fits request");
        self.old.push(seg);
        Self::stamp(addr, size, header);
        self.old_bytes_used += size;
        Ok(addr)
    }

    /// Allocate in the elder generation ignoring the soft limit — used by
    /// the collector itself during promotion, which must not fail (the
    /// limit is re-checked by the next mutator allocation).
    pub fn alloc_old_unchecked(&mut self, size: usize, header: ObjHeader) -> Option<usize> {
        let saved = self.config.old_soft_limit;
        self.config.old_soft_limit = usize::MAX;
        let r = self.alloc_old(size, header);
        self.config.old_soft_limit = saved;
        r.ok()
    }

    /// Append free blocks discovered outside a sweep (pinned-block
    /// promotion) and subtract their bytes from elder usage accounting.
    pub fn add_free_blocks(&mut self, blocks: Vec<FreeBlock>, freed: usize) {
        self.free_list.extend(blocks);
        self.old_bytes_used = self.old_bytes_used.saturating_sub(freed);
    }

    fn stamp(addr: usize, size: usize, mut header: ObjHeader) {
        header.size = size as u32;
        // SAFETY: addr..addr+size was just carved out of a segment we own.
        unsafe {
            std::ptr::write_bytes((addr + HEADER_SIZE) as *mut u8, 0, size - HEADER_SIZE);
            std::ptr::write(addr as *mut ObjHeader, header);
        }
    }

    /// Write a `FREE` filler header over a dead block so segment walks stay
    /// parseable.
    pub fn stamp_free(addr: usize, size: usize) {
        debug_assert!(size >= HEADER_SIZE);
        // SAFETY: caller owns the block.
        unsafe {
            std::ptr::write(
                addr as *mut ObjHeader,
                ObjHeader {
                    size: size as u32,
                    ..FILLER
                },
            );
        }
    }

    /// Read an object header.
    #[inline]
    pub fn header(&self, addr: usize) -> ObjHeader {
        debug_assert!(self.contains(addr), "header read outside heap");
        // SAFETY: addr points at a live allocation within this heap.
        unsafe { std::ptr::read(addr as *const ObjHeader) }
    }

    /// Overwrite an object header.
    #[inline]
    pub fn set_header(&mut self, addr: usize, header: ObjHeader) {
        debug_assert!(self.contains(addr));
        // SAFETY: as above.
        unsafe { std::ptr::write(addr as *mut ObjHeader, header) }
    }

    /// Update just the flag bits of a header.
    #[inline]
    pub fn update_flags(&mut self, addr: usize, set: u32, clear: u32) {
        let mut h = self.header(addr);
        h.flags = (h.flags & !clear) | set;
        self.set_header(addr, h);
    }

    /// The young segment (for collection).
    pub fn young(&self) -> &Segment {
        &self.young
    }

    /// Mutable young segment.
    pub fn young_mut(&mut self) -> &mut Segment {
        &mut self.young
    }

    /// Elder segments (for sweeps).
    pub fn old_segments(&self) -> &[Segment] {
        &self.old
    }

    /// Live occupancy `(used_bytes, capacity_bytes)` across the young
    /// segment and every elder segment (the telemetry heap gauges).
    pub fn usage(&self) -> (u64, u64) {
        let mut used = self.young.used() as u64;
        let mut capacity = self.young.capacity() as u64;
        for s in &self.old {
            used += s.used() as u64;
            capacity += s.capacity() as u64;
        }
        (used, capacity)
    }

    /// Replace the young segment with a fresh one and move the current one
    /// into the elder generation — the SSCLI pinned-promotion behaviour:
    /// "the entire block of younger generational memory is assigned to the
    /// elder generation thereby promoting pinned objects" (paper §5.2).
    pub fn promote_young_block(&mut self) {
        let fresh = Segment::new(self.config.young_bytes);
        let block = std::mem::replace(&mut self.young, fresh);
        self.old_bytes_used += block.used();
        // Mark every object in the transferred block as elder-resident.
        let addrs: Vec<usize> = block.walk().collect();
        for addr in addrs {
            // SAFETY: walking our own block.
            unsafe {
                let h = &mut *(addr as *mut ObjHeader);
                h.flags |= obj_flags::IN_OLD;
            }
        }
        self.old.push(block);
    }

    /// Total bytes used by the elder generation (live + unreclaimed).
    pub fn old_bytes_used(&self) -> usize {
        self.old_bytes_used
    }

    /// Rebuild the elder free list after a sweep. `freed` is subtracted
    /// from the elder usage accounting.
    pub fn set_free_list(&mut self, list: Vec<FreeBlock>, freed: usize) {
        self.free_list = list;
        self.old_bytes_used = self.old_bytes_used.saturating_sub(freed);
    }

    /// Current elder free list (test/diagnostic access).
    pub fn free_list(&self) -> &[FreeBlock] {
        &self.free_list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr(mt: u32) -> ObjHeader {
        ObjHeader {
            mt,
            flags: 0,
            size: 0,
            extra: 0,
        }
    }

    #[test]
    fn segment_bump_and_walk() {
        let mut seg = Segment::new(256);
        let a = seg.try_bump(32).unwrap();
        let b = seg.try_bump(64).unwrap();
        assert_eq!(b, a + 32);
        // Stamp minimal headers so the walk is parseable.
        Heap::stamp_free(a, 32);
        Heap::stamp_free(b, 64);
        let addrs: Vec<usize> = seg.walk().collect();
        assert_eq!(addrs, vec![a, b]);
        assert!(seg.contains(a) && seg.contains(b));
        assert!(!seg.contains(seg.base() + seg.capacity()));
    }

    #[test]
    fn segment_exhaustion() {
        let mut seg = Segment::new(64);
        assert!(seg.try_bump(64).is_some());
        assert!(seg.try_bump(8).is_none());
        seg.reset();
        assert!(seg.try_bump(8).is_some());
    }

    #[test]
    fn young_alloc_and_pressure() {
        let mut heap = Heap::new(HeapConfig {
            young_bytes: 1024,
            old_segment_bytes: 4096,
            old_soft_limit: 1 << 20,
        });
        let a = heap.alloc(64, hdr(1)).unwrap();
        assert!(heap.is_young(a));
        assert_eq!(heap.header(a).mt, 1);
        assert_eq!(heap.header(a).size, 64);
        // Fill the young generation.
        let mut last = a;
        loop {
            match heap.alloc(64, hdr(2)) {
                Ok(x) => last = x,
                Err(p) => {
                    assert_eq!(p, AllocPressure::NeedsMinor);
                    break;
                }
            }
        }
        assert!(heap.is_young(last));
    }

    #[test]
    fn large_objects_go_to_elder() {
        let mut heap = Heap::new(HeapConfig {
            young_bytes: 1024,
            old_segment_bytes: 8192,
            old_soft_limit: 1 << 20,
        });
        let big = heap.alloc(600, hdr(3)).unwrap();
        assert!(!heap.is_young(big));
        assert!(heap.contains(big));
        assert_ne!(heap.header(big).flags & obj_flags::IN_OLD, 0);
    }

    #[test]
    fn payload_is_zeroed() {
        let mut heap = Heap::new(HeapConfig::default());
        let a = heap.alloc(64, hdr(1)).unwrap();
        // SAFETY: freshly allocated object of 64 bytes.
        let payload =
            unsafe { std::slice::from_raw_parts((a + HEADER_SIZE) as *const u8, 64 - HEADER_SIZE) };
        assert!(payload.iter().all(|&b| b == 0));
    }

    #[test]
    fn free_list_first_fit_and_split() {
        let mut heap = Heap::new(HeapConfig {
            young_bytes: 128,
            old_segment_bytes: 1024,
            old_soft_limit: 1 << 20,
        });
        // Two elder allocations fill a bump region.
        let a = heap.alloc_old(128, hdr(1)).unwrap();
        let _b = heap.alloc_old(896, hdr(2)).unwrap();
        // Simulate a sweep freeing `a`.
        Heap::stamp_free(a, 128);
        heap.set_free_list(vec![FreeBlock { addr: a, size: 128 }], 128);
        // A smaller allocation reuses the hole and splits it.
        let c = heap.alloc_old(64, hdr(3)).unwrap();
        assert_eq!(c, a);
        assert_eq!(heap.free_list().len(), 1);
        assert_eq!(
            heap.free_list()[0],
            FreeBlock {
                addr: a + 64,
                size: 64
            }
        );
        // The remainder is handed out whole when it can't be split.
        let d = heap.alloc_old(56, hdr(4)).unwrap();
        assert_eq!(d, a + 64);
        assert_eq!(
            heap.header(d).size,
            64,
            "unsplittable remainder handed out whole"
        );
        assert!(heap.free_list().is_empty());
    }

    #[test]
    fn old_soft_limit_reports_full_pressure() {
        let mut heap = Heap::new(HeapConfig {
            young_bytes: 128,
            old_segment_bytes: 1024,
            old_soft_limit: 2048,
        });
        assert!(heap.alloc_old(1024, hdr(1)).is_ok());
        assert!(heap.alloc_old(1024, hdr(1)).is_ok());
        assert_eq!(heap.alloc_old(64, hdr(1)), Err(AllocPressure::NeedsFull));
    }

    #[test]
    fn promote_young_block_transfers_objects() {
        let mut heap = Heap::new(HeapConfig {
            young_bytes: 1024,
            old_segment_bytes: 4096,
            old_soft_limit: 1 << 20,
        });
        let a = heap.alloc(64, hdr(7)).unwrap();
        assert!(heap.is_young(a));
        heap.promote_young_block();
        // Address unchanged, but now elder-resident.
        assert!(!heap.is_young(a));
        assert!(heap.contains(a));
        assert_ne!(heap.header(a).flags & obj_flags::IN_OLD, 0);
        assert_eq!(heap.header(a).mt, 7);
        // New young segment is empty and usable.
        let b = heap.alloc(64, hdr(8)).unwrap();
        assert!(heap.is_young(b));
    }

    /// Carve `extent` into 24-, 40- and 64-byte objects in turn until it
    /// is used up; returns their addresses.
    fn carve_all(mut extent: Extent<'_>) -> Vec<usize> {
        let mut carved = Vec::new();
        while extent.remaining() > 0 {
            let size = [24, 40, 64][carved.len() % 3].min(extent.remaining());
            // SAFETY: the walks below read headers only, never by type.
            carved.push(unsafe { extent.carve(size, hdr(carved.len() as u32)) });
        }
        carved
    }

    #[test]
    fn a_carved_extent_walks_as_its_records_young_and_elder() {
        let mut heap = Heap::new(HeapConfig {
            young_bytes: 4096,
            old_segment_bytes: 8192,
            old_soft_limit: 1 << 20,
        });
        let before = heap.alloc(32, hdr(99)).unwrap();
        // 1024 = 8 * (24 + 40 + 64): below the threshold, young.
        heap.alloc_extent(1024).unwrap();
        // Whole, it is one filler block behind the object before it.
        assert_eq!(heap.young().walk().count(), 2);
        let young = carve_all(heap.alloc_extent(1024).unwrap());
        assert_eq!(young.len(), 24);
        let after = heap.alloc(32, hdr(99)).unwrap();
        let walked: Vec<usize> = heap.young().walk().collect();
        assert_eq!(walked[0], before);
        assert_eq!(
            heap.header(walked[1]).flags,
            obj_flags::FREE,
            "the uncarved one"
        );
        assert_eq!(walked[2..26], young[..]);
        assert_eq!(walked[26..], [after]);
        for (i, &addr) in young.iter().enumerate() {
            let h = heap.header(addr);
            assert_eq!((h.mt, h.flags, h.size), (i as u32, 0, [24, 40, 64][i % 3]));
            assert!(heap.is_young(addr));
        }

        // 3072 is above the threshold: elder, and every header says so.
        let elder = carve_all(heap.alloc_extent(3072).unwrap());
        assert_eq!(elder.len(), 72);
        assert_eq!(heap.old_segments()[0].walk().collect::<Vec<_>>(), elder);
        assert!(elder
            .iter()
            .all(|&a| heap.header(a).flags == obj_flags::IN_OLD && !heap.is_young(a)));
        assert_eq!(heap.old_bytes_used(), 3072);
    }

    #[test]
    fn a_half_carved_extent_stays_parseable() {
        let mut heap = Heap::new(HeapConfig::default());
        let mut extent = heap.alloc_extent(256).unwrap();
        // SAFETY: only headers are read back.
        let a = unsafe { extent.carve(64, hdr(1)) };
        assert_eq!((extent.next(), extent.remaining()), (a + 64, 192));
        let walked: Vec<usize> = heap.young().walk().collect();
        assert_eq!(walked, [a, a + 64]);
        assert_eq!(heap.header(a + 64).flags, obj_flags::FREE);
        assert_eq!(heap.header(a + 64).size, 192);
    }

    #[test]
    fn the_last_record_takes_a_tail_no_header_fits_in() {
        let mut heap = Heap::new(HeapConfig {
            young_bytes: 128,
            old_segment_bytes: 1024,
            old_soft_limit: 1 << 20,
        });
        // A 136-byte hole for a 128-byte extent: the free list hands out
        // all of it, as it does for an object.
        let hole = heap.alloc_old(136, hdr(1)).unwrap();
        let _rest = heap.alloc_old(888, hdr(2)).unwrap();
        Heap::stamp_free(hole, 136);
        heap.set_free_list(
            vec![FreeBlock {
                addr: hole,
                size: 136,
            }],
            136,
        );
        let mut extent = heap.alloc_extent(128).unwrap();
        assert_eq!((extent.next(), extent.remaining()), (hole, 136));
        // SAFETY: only headers are read back.
        let (a, b) = unsafe { (extent.carve(64, hdr(3)), extent.carve(64, hdr(4))) };
        assert_eq!(extent.remaining(), 0);
        assert_eq!((heap.header(a).size, heap.header(b).size), (64, 72));
        let walked: Vec<usize> = heap.old_segments()[0].walk().collect();
        assert_eq!(walked, [a, b, hole + 136]);
    }

    #[test]
    fn an_extent_that_does_not_fit_reports_the_pressure_alloc_would() {
        let mut heap = Heap::new(HeapConfig {
            young_bytes: 1024,
            old_segment_bytes: 4096,
            old_soft_limit: 2048,
        });
        // 768 of 1024 young bytes used: a run at the threshold is young
        // and does not fit.
        heap.alloc(512, hdr(1)).unwrap();
        heap.alloc(256, hdr(1)).unwrap();
        assert_eq!(heap.alloc(512, hdr(2)), Err(AllocPressure::NeedsMinor));
        assert_eq!(
            heap.alloc_extent(512).err(),
            Some(AllocPressure::NeedsMinor)
        );
        assert!(heap.alloc_extent(256).is_ok(), "what is left");
        // 1536 of the elder generation's 2048 used: a run above the
        // threshold is elder and would cross the soft limit.
        heap.alloc(1536, hdr(3)).unwrap();
        assert_eq!(heap.alloc(1024, hdr(4)), Err(AllocPressure::NeedsFull));
        assert_eq!(
            heap.alloc_extent(1024).err(),
            Some(AllocPressure::NeedsFull)
        );
        assert_eq!(heap.old_bytes_used(), 1536, "a refusal reserves nothing");
        // Past the limit on request, like a promotion: elder all the same.
        let elder = carve_all(heap.alloc_extent_unchecked(1024));
        assert!(elder
            .iter()
            .all(|&a| heap.header(a).flags == obj_flags::IN_OLD && !heap.is_young(a)));
        assert_eq!(heap.old_bytes_used(), 2560);
        assert_eq!(
            heap.alloc_extent(1024).err(),
            Some(AllocPressure::NeedsFull),
            "the limit is back for the next one"
        );
    }
}
