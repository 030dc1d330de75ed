//! The pin table: hard pins and conditional pin requests.
//!
//! "Pinning is a request to the garbage collector to temporarily not move
//! or unallocate the requested object, until it is unpinned" (paper §2.3,
//! fn. 3). Motor adds *conditional* pinning for non-blocking operations:
//! "augment the garbage collector so that it understands pinning operations
//! which are dependent on the status of an operation. During the mark phase
//! of collection, the garbage collector iterates through a list of pinning
//! requests ... check the status of an operation and selectively mark the
//! object as pinned, depending on that status" (§4.3).
//!
//! Hard pins are reference counted (an object may be the buffer of several
//! concurrent operations). A pinned object is never moved; while any pin —
//! hard or a still-in-flight conditional request — exists on a young
//! object at collection time, the collector promotes the whole young block
//! instead of copying (see `gc`).
//!
//! An active pin (of either kind) also acts as a GC *root*: the underlying
//! transport is reading or writing the object's memory, so it must stay
//! live even if the mutator dropped every reference to it — the same
//! guarantee the real runtime gets from the request object referencing the
//! buffer.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use motor_pal::PinCondition;

/// Token proving a hard pin; pass back to `unpin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinToken {
    pub(crate) addr: usize,
}

impl PinToken {
    /// Address of the pinned object (stable while the pin is held).
    pub fn addr(&self) -> usize {
        self.addr
    }
}

/// A registered conditional pin request.
pub struct ConditionalPin {
    /// Current address of the buffer object.
    pub addr: usize,
    /// The transport-status oracle.
    pub condition: Arc<dyn PinCondition>,
}

/// The pin table of one VM.
#[derive(Default)]
pub struct PinTable {
    /// Hard pin reference counts by object address.
    hard: HashMap<usize, u32>,
    /// When each address first became hard-pinned (cleared on last unpin).
    /// A pin that stays here long after its operation should have finished
    /// is a pin leak; the doctor watchdog reads the oldest age.
    hard_since: HashMap<usize, Instant>,
    /// Outstanding conditional pin requests.
    conditional: Vec<ConditionalPin>,
}

impl PinTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a hard pin on `addr`; returns the token.
    pub fn pin(&mut self, addr: usize) -> PinToken {
        let n = self.hard.entry(addr).or_insert(0);
        if *n == 0 {
            self.hard_since.insert(addr, Instant::now());
        }
        *n += 1;
        PinToken { addr }
    }

    /// Release a hard pin. Returns `true` if that was the last pin on the
    /// object.
    pub fn unpin(&mut self, token: PinToken) -> bool {
        match self.hard.get_mut(&token.addr) {
            Some(n) if *n > 1 => {
                *n -= 1;
                false
            }
            Some(_) => {
                self.hard.remove(&token.addr);
                self.hard_since.remove(&token.addr);
                true
            }
            None => {
                debug_assert!(false, "unpin without matching pin");
                true
            }
        }
    }

    /// Whether `addr` carries any hard pin.
    pub fn is_hard_pinned(&self, addr: usize) -> bool {
        self.hard.contains_key(&addr)
    }

    /// Register a conditional pin request for a non-blocking operation.
    pub fn pin_conditional(&mut self, addr: usize, condition: Arc<dyn PinCondition>) {
        self.conditional.push(ConditionalPin { addr, condition });
    }

    /// Resolve conditional requests the way the Motor collector does during
    /// the mark phase: requests whose operation finished are discarded;
    /// requests still in flight are kept and their addresses returned so
    /// the collector treats them as pinned roots. Returns
    /// `(held_addrs, released_count)`.
    pub fn resolve_conditionals(&mut self) -> (Vec<usize>, u64) {
        let before = self.conditional.len();
        self.conditional.retain(|p| p.condition.in_flight());
        let held: Vec<usize> = self.conditional.iter().map(|p| p.addr).collect();
        (held, (before - self.conditional.len()) as u64)
    }

    /// Addresses of all hard-pinned objects.
    pub fn hard_pinned_addrs(&self) -> Vec<usize> {
        self.hard.keys().copied().collect()
    }

    /// Number of outstanding conditional requests (diagnostics).
    pub fn conditional_len(&self) -> usize {
        self.conditional.len()
    }

    /// Number of distinct hard-pinned addresses (diagnostics).
    pub fn hard_len(&self) -> usize {
        self.hard.len()
    }

    /// Age of the longest-held hard pin, if any (diagnostics; the doctor
    /// watchdog compares this against its pin-leak deadline).
    pub fn oldest_hard_pin_age(&self) -> Option<Duration> {
        self.hard_since.values().map(Instant::elapsed).max()
    }

    /// Whether any pin (hard, or conditional whose state is unknown until
    /// mark) exists. Used by the collector to decide the cheap path.
    pub fn is_empty(&self) -> bool {
        self.hard.is_empty() && self.conditional.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn hard_pin_refcounts() {
        let mut t = PinTable::new();
        let a = t.pin(0x1000);
        let b = t.pin(0x1000);
        assert!(t.is_hard_pinned(0x1000));
        assert!(!t.unpin(a), "still one pin left");
        assert!(t.is_hard_pinned(0x1000));
        assert!(t.unpin(b), "last pin released");
        assert!(!t.is_hard_pinned(0x1000));
    }

    #[test]
    fn conditional_resolution_mirrors_request_status() {
        let mut t = PinTable::new();
        let flying = Arc::new(AtomicBool::new(true));
        let f2 = Arc::clone(&flying);
        t.pin_conditional(0x2000, Arc::new(move || f2.load(Ordering::Relaxed)));
        t.pin_conditional(0x3000, Arc::new(|| false));
        let (held, released) = t.resolve_conditionals();
        assert_eq!(held, vec![0x2000]);
        assert_eq!(released, 1);
        assert_eq!(t.conditional_len(), 1);
        // Operation completes; the next collection discards the request.
        flying.store(false, Ordering::Relaxed);
        let (held, released) = t.resolve_conditionals();
        assert!(held.is_empty());
        assert_eq!(released, 1);
        assert!(t.is_empty());
    }

    #[test]
    fn pin_age_tracks_first_pin_and_clears_on_last_unpin() {
        let mut t = PinTable::new();
        assert_eq!(t.hard_len(), 0);
        assert!(t.oldest_hard_pin_age().is_none());
        let a = t.pin(0x40);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = t.pin(0x40); // refcount bump must not reset the clock
        let age = t.oldest_hard_pin_age().expect("pinned");
        assert!(age >= std::time::Duration::from_millis(2));
        assert_eq!(t.hard_len(), 1);
        t.unpin(a);
        assert!(t.oldest_hard_pin_age().is_some(), "still one pin left");
        t.unpin(b);
        assert!(t.oldest_hard_pin_age().is_none());
        assert_eq!(t.hard_len(), 0);
    }

    #[test]
    fn emptiness_considers_both_kinds() {
        let mut t = PinTable::new();
        assert!(t.is_empty());
        let tok = t.pin(0x10);
        assert!(!t.is_empty());
        t.unpin(tok);
        assert!(t.is_empty());
        t.pin_conditional(0x20, Arc::new(|| true));
        assert!(!t.is_empty());
    }
}
