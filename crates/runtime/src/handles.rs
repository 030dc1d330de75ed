//! GC-protected handles — the analog of the SSCLI `GCPROTECT` discipline.
//!
//! "Unlike in managed code, the runtime cannot and does not keep track of
//! object pointers in an FCall. Therefore, it is the programmer's
//! responsibility to protect object pointers by declaring them using a set
//! of provided macros. Programmer-declared object pointers within FCalls
//! are updated during garbage collection." (paper §5.1)
//!
//! In this reproduction the handle tables *are* the root set: code above
//! the runtime never holds raw addresses across a safepoint; it holds
//! [`Handle`]s, whose slots the collector rewrites when it moves objects.
//! The root set is per thread: every attached
//! [`crate::thread::MotorThread`] owns one [`HandleTable`], reads and
//! writes it without a lock, and shares it with the collector through a
//! `SharedTable` that the safepoint coordinator lists.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, Ordering};

/// A slot in one thread's handle table. The null object is representable:
/// a handle whose slot holds address 0. A handle names the table that
/// made it, and every table refuses a handle it did not make.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Handle {
    slot: u32,
    table: u32,
}

impl Handle {
    /// Raw slot index (diagnostics).
    pub fn slot(&self) -> u32 {
        self.slot
    }
}

/// Table ids, unique across every VM of the process.
static NEXT_TABLE_ID: AtomicU32 = AtomicU32::new(0);

/// The handle table of one thread: slots hold current object addresses
/// (0 = null) and are updated by the collector.
#[derive(Debug)]
pub struct HandleTable {
    id: u32,
    slots: Vec<usize>,
    free: Vec<u32>,
}

impl Default for HandleTable {
    fn default() -> Self {
        Self::new()
    }
}

impl HandleTable {
    /// Create an empty table with an id of its own.
    pub fn new() -> Self {
        HandleTable {
            id: NEXT_TABLE_ID.fetch_add(1, Ordering::Relaxed),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Allocate a handle rooted at `addr` (0 for null).
    pub fn create(&mut self, addr: usize) -> Handle {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = addr;
                slot
            }
            None => {
                self.slots.push(addr);
                self.slots.len() as u32 - 1
            }
        };
        Handle {
            slot,
            table: self.id,
        }
    }

    /// The slot index of `h`; panics on a handle another table made.
    #[inline]
    fn index(&self, h: Handle) -> usize {
        assert!(
            h.table == self.id,
            "handle of table {} used on table {}: handles are thread-affine",
            h.table,
            self.id
        );
        h.slot as usize
    }

    /// Release a handle; its slot is recycled.
    pub fn release(&mut self, h: Handle) {
        let i = self.index(h);
        self.slots[i] = 0;
        self.free.push(h.slot);
    }

    /// Current address held by a handle (0 = null).
    #[inline]
    pub fn get(&self, h: Handle) -> usize {
        self.slots[self.index(h)]
    }

    /// Point a handle at a new address.
    #[inline]
    pub fn set(&mut self, h: Handle, addr: usize) {
        let i = self.index(h);
        self.slots[i] = addr;
    }

    /// Number of live (non-recycled) slots — diagnostics only.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Iterate over all root addresses (non-null slots).
    pub fn roots(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots.iter().copied().filter(|&a| a != 0)
    }

    /// Visit every slot mutably so the collector can rewrite moved
    /// addresses.
    pub fn for_each_slot_mut(&mut self, mut f: impl FnMut(&mut usize)) {
        for slot in self.slots.iter_mut() {
            if *slot != 0 {
                f(slot);
            }
        }
    }
}

/// One thread's handle table as its owner and the collector share it.
///
/// The protocol: the owner reads and writes the table with plain loads and
/// stores while it is cooperative. The collector (the thread holding the
/// role from `Safepoint::try_begin_gc`, or [`crate::verify_heap`] once
/// every other thread has stopped) reads and rewrites it only while the
/// owner is parked at a poll, inside a native region, or detached — and
/// an owner never touches its table in a native region (each accessor
/// asserts it). Every change between those states goes
/// through the safepoint mutex, whose release and acquire order the two
/// sides' accesses. The table is listed with the safepoint coordinator
/// on attach and unlisted on detach, under the same mutex.
#[derive(Debug, Default)]
pub(crate) struct SharedTable(UnsafeCell<HandleTable>);

// SAFETY: the table is reached from two threads only under the protocol
// above — the owner while cooperative, the collector while the owner
// cannot be — so no access ever races another; the safepoint mutex
// carries the happens-before edge each hand-over needs.
unsafe impl Sync for SharedTable {}

impl SharedTable {
    /// The table, for the owner or the collector to dereference under the
    /// protocol above.
    pub(crate) fn get(&self) -> *mut HandleTable {
        self.0.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_get_set_release() {
        let mut t = HandleTable::new();
        let h = t.create(0xABC0);
        assert_eq!(t.get(h), 0xABC0);
        t.set(h, 0xDEF0);
        assert_eq!(t.get(h), 0xDEF0);
        t.release(h);
        assert_eq!(t.live(), 0);
    }

    #[test]
    fn slots_are_recycled() {
        let mut t = HandleTable::new();
        let a = t.create(0x10);
        t.release(a);
        let b = t.create(0x20);
        assert_eq!(a.slot, b.slot, "released slot is reused");
        assert_eq!(t.get(b), 0x20);
    }

    #[test]
    fn roots_skip_null_and_freed() {
        let mut t = HandleTable::new();
        let _a = t.create(0x10);
        let b = t.create(0);
        let c = t.create(0x30);
        t.release(c);
        let roots: Vec<usize> = t.roots().collect();
        assert_eq!(roots, vec![0x10]);
        assert_eq!(t.get(b), 0);
    }

    #[test]
    fn rewrite_visits_only_live_roots() {
        let mut t = HandleTable::new();
        let a = t.create(0x10);
        let _n = t.create(0);
        t.for_each_slot_mut(|s| *s += 8);
        assert_eq!(t.get(a), 0x18);
    }

    #[test]
    #[should_panic(expected = "thread-affine")]
    fn a_table_refuses_a_handle_it_did_not_make() {
        let (mut a, mut b) = (HandleTable::new(), HandleTable::new());
        a.create(0x10);
        let foreign = b.create(0x20);
        a.get(foreign);
    }
}
