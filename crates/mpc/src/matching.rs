//! Keyed match queues: the posted-receive queue and the unexpected-message
//! queue of the device, each found by key instead of by scan.
//!
//! MPI matching pairs an *envelope* — a concrete `(context, source, tag)`
//! — with a *pattern*, the same triple in which source and tag may be the
//! wildcard. Among several candidates the earliest wins: the first receive
//! posted that accepts an arriving message, the first message arrived that
//! a new receive accepts (non-overtaking). A [`KeyedQueue`] keeps its
//! entries in that order — every entry carries a sequence number and sits
//! on one arrival-ordered list — and, beside it, on a list of the entries
//! filed under the same [`Key`], found through a hash map:
//!
//! * The **posted queue** files a receive under its pattern, wildcards and
//!   all. An arriving envelope can only be accepted by four patterns —
//!   itself, any-source, any-tag, both — so the match is the earliest of
//!   at most four bucket heads ([`KeyedQueue::first_accepting`]), and of
//!   one while no wildcard receive is posted.
//! * The **unexpected queue** files a message under its envelope. A
//!   directed receive looks up one bucket; a wildcard receive walks the
//!   arrival-ordered list to the first envelope it accepts
//!   ([`KeyedQueue::first_accepted_by`]) — linear in what sits before its
//!   match, as the scan this replaces was for every receive.
//!
//! Either way the match is the head of its bucket (a bucket's entries
//! share the key, so they are accepted alike and the earliest leads), which
//! is all [`KeyedQueue::remove`] needs to support. The tag is part of the
//! key: 256 receives from one source with 256 tags are 256 buckets of one.
//!
//! Entries live in a slab and the lists are threaded through it, so a
//! push and a remove allocate nothing once the slab and the map have grown
//! to the depth in use.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The wildcard value of a pattern's source or tag.
pub(crate) const ANY: i32 = -1;

/// What an entry is filed under: an envelope, or a pattern (`src` and
/// `tag` may be [`ANY`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Key {
    pub context: u32,
    pub src: i32,
    pub tag: i32,
}

impl Key {
    fn is_pattern(&self) -> bool {
        self.src == ANY || self.tag == ANY
    }

    /// Whether this pattern accepts the envelope `env`.
    fn accepts(&self, env: &Key) -> bool {
        self.context == env.context
            && (self.src == ANY || self.src == env.src)
            && (self.tag == ANY || self.tag == env.tag)
    }
}

/// Multiply-rotate hasher for [`Key`]'s three words (the default SipHash
/// costs more than the rest of a match).
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(b as u32);
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.0 = (self.0.rotate_left(5) ^ word as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_i32(&mut self, word: i32) {
        self.write_u32(word as u32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

const NIL: u32 = u32::MAX;

struct Node<T> {
    seq: u64,
    key: Key,
    /// `None` while the node is on the free list.
    value: Option<T>,
    /// Arrival order over all keys.
    prev: u32,
    next: u32,
    /// The next entry under the same key; the free-list link when vacant.
    after: u32,
}

/// First and last entry filed under one key.
struct Bucket {
    head: u32,
    tail: u32,
}

/// Position of an entry, as returned by the lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Found(u32);

/// See the module docs.
pub(crate) struct KeyedQueue<T> {
    nodes: Vec<Node<T>>,
    free: u32,
    buckets: HashMap<Key, Bucket, BuildHasherDefault<KeyHasher>>,
    head: u32,
    tail: u32,
    next_seq: u64,
    len: usize,
    /// Entries filed under a pattern with a wildcard in it.
    patterns: usize,
}

impl<T> Default for KeyedQueue<T> {
    fn default() -> Self {
        KeyedQueue {
            nodes: Vec::new(),
            free: NIL,
            buckets: HashMap::default(),
            head: NIL,
            tail: NIL,
            next_seq: 0,
            len: 0,
            patterns: 0,
        }
    }
}

impl<T> KeyedQueue<T> {
    pub fn len(&self) -> usize {
        self.len
    }

    /// File `value` under `key`, behind everything already queued.
    pub fn push(&mut self, key: Key, value: T) {
        let node = Node {
            seq: self.next_seq,
            key,
            value: Some(value),
            prev: self.tail,
            next: NIL,
            after: NIL,
        };
        self.next_seq += 1;
        let at = match self.free {
            NIL => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
            at => {
                self.free = self.nodes[at as usize].after;
                self.nodes[at as usize] = node;
                at
            }
        };
        match self.tail {
            NIL => self.head = at,
            tail => self.nodes[tail as usize].next = at,
        }
        self.tail = at;
        match self.buckets.get_mut(&key) {
            Some(bucket) => {
                self.nodes[bucket.tail as usize].after = at;
                bucket.tail = at;
            }
            None => {
                self.buckets.insert(key, Bucket { head: at, tail: at });
            }
        }
        self.len += 1;
        self.patterns += key.is_pattern() as usize;
    }

    /// Posted side: the earliest entry whose pattern accepts the envelope
    /// `env`, and how many buckets were looked up for it.
    pub fn first_accepting(&self, env: Key) -> (Option<Found>, u64) {
        if self.len == 0 {
            return (None, 0);
        }
        if self.patterns == 0 {
            return (self.buckets.get(&env).map(|b| Found(b.head)), 1);
        }
        let (any_src, any_tag) = (Key { src: ANY, ..env }, Key { tag: ANY, ..env });
        let any_both = Key {
            src: ANY,
            ..any_tag
        };
        let found = [env, any_src, any_tag, any_both]
            .iter()
            .filter_map(|k| self.buckets.get(k))
            .map(|b| b.head)
            .min_by_key(|&at| self.nodes[at as usize].seq);
        (found.map(Found), 4)
    }

    /// Unexpected side: the earliest entry whose envelope the pattern
    /// `pattern` accepts, and how many entries or buckets were looked at
    /// for it.
    pub fn first_accepted_by(&self, pattern: Key) -> (Option<Found>, u64) {
        if self.len == 0 {
            return (None, 0);
        }
        if !pattern.is_pattern() {
            return (self.buckets.get(&pattern).map(|b| Found(b.head)), 1);
        }
        let (mut at, mut looked) = (self.head, 0);
        while at != NIL {
            looked += 1;
            let node = &self.nodes[at as usize];
            if pattern.accepts(&node.key) {
                return (Some(Found(at)), looked);
            }
            at = node.next;
        }
        (None, looked)
    }

    pub fn get(&self, at: Found) -> &T {
        self.nodes[at.0 as usize]
            .value
            .as_ref()
            .expect("a found entry is occupied")
    }

    /// Take out an entry a lookup found: the head of its bucket.
    pub fn remove(&mut self, at: Found) -> T {
        let at = at.0;
        let node = &self.nodes[at as usize];
        let (key, prev, next, after) = (node.key, node.prev, node.next, node.after);
        match after {
            NIL => drop(self.buckets.remove(&key)),
            after => {
                let bucket = self.buckets.get_mut(&key).expect("filed under its key");
                debug_assert_eq!(bucket.head, at, "only a bucket's head is removed");
                bucket.head = after;
            }
        }
        match prev {
            NIL => self.head = next,
            prev => self.nodes[prev as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => self.nodes[next as usize].prev = prev,
        }
        let node = &mut self.nodes[at as usize];
        node.after = self.free;
        self.free = at;
        self.len -= 1;
        self.patterns -= key.is_pattern() as usize;
        node.value.take().expect("a found entry is occupied")
    }

    /// Keep the entries `keep` accepts, in order; hand the others to
    /// `dropped`. Rebuilds the queue: for the rare sweep (a peer died),
    /// not for matching.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool, mut dropped: impl FnMut(T)) {
        let mut old = std::mem::take(self);
        let mut at = old.head;
        while at != NIL {
            let node = &mut old.nodes[at as usize];
            at = node.next;
            let value = node.value.take().expect("a listed entry is occupied");
            if keep(&value) {
                self.push(node.key, value);
            } else {
                dropped(value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(context: u32, src: i32, tag: i32) -> Key {
        Key { context, src, tag }
    }

    /// The scan the queue replaces, as the oracle: entries in arrival
    /// order, first hit wins.
    #[derive(Default)]
    struct Linear(Vec<(Key, u32)>);

    impl Linear {
        fn take(&mut self, hit: impl Fn(&Key) -> bool) -> Option<u32> {
            let pos = self.0.iter().position(|(k, _)| hit(k))?;
            Some(self.0.remove(pos).1)
        }
    }

    #[test]
    fn directed_lookups_cost_one_whatever_the_depth() {
        for depth in [16, 256, 4096] {
            let mut posted = KeyedQueue::default();
            let mut unexpected = KeyedQueue::default();
            for tag in 0..depth {
                posted.push(key(0, 1, tag), tag);
                unexpected.push(key(0, 1, tag), tag);
            }
            for tag in (0..depth).rev() {
                let (found, looked) = posted.first_accepting(key(0, 1, tag));
                assert_eq!((posted.remove(found.unwrap()), looked), (tag, 1));
                let (found, looked) = unexpected.first_accepted_by(key(0, 1, tag));
                assert_eq!((unexpected.remove(found.unwrap()), looked), (tag, 1));
            }
            assert_eq!((posted.len(), unexpected.len()), (0, 0));
            assert!(posted.buckets.is_empty() && unexpected.buckets.is_empty());
        }
    }

    #[test]
    fn the_earliest_of_the_accepting_patterns_wins() {
        let mut posted = KeyedQueue::default();
        posted.push(key(0, ANY, 5), "any source");
        posted.push(key(0, 2, 5), "exact");
        posted.push(key(0, 2, ANY), "any tag");
        posted.push(key(1, ANY, ANY), "other context");
        posted.push(key(0, ANY, ANY), "any");
        let mut order = Vec::new();
        while let (Some(at), looked) = posted.first_accepting(key(0, 2, 5)) {
            assert_eq!(looked, 4);
            order.push(posted.remove(at));
        }
        assert_eq!(order, ["any source", "exact", "any tag", "any"]);
        assert_eq!(posted.len(), 1);
        assert_eq!(posted.patterns, 1);
    }

    #[test]
    fn a_wildcard_receive_takes_the_earliest_arrival_it_accepts() {
        let mut unexpected = KeyedQueue::default();
        for (i, (src, tag)) in [(1, 7), (2, 7), (1, 8), (1, 7)].into_iter().enumerate() {
            unexpected.push(key(0, src, tag), i);
        }
        let take = |q: &mut KeyedQueue<usize>, pattern| {
            let (found, looked) = q.first_accepted_by(pattern);
            (found.map(|at| q.remove(at)), looked)
        };
        assert_eq!(take(&mut unexpected, key(0, 2, ANY)), (Some(1), 2));
        assert_eq!(take(&mut unexpected, key(0, ANY, 8)), (Some(2), 2));
        assert_eq!(take(&mut unexpected, key(0, 1, 7)), (Some(0), 1));
        assert_eq!(take(&mut unexpected, key(0, ANY, ANY)), (Some(3), 1));
        assert_eq!(take(&mut unexpected, key(0, ANY, ANY)), (None, 0));
    }

    #[test]
    fn retain_keeps_order_and_slots_are_reused() {
        let mut q = KeyedQueue::default();
        for i in 0..6 {
            q.push(key(0, i % 2, 3), i);
        }
        let mut gone = Vec::new();
        q.retain(|v| v % 3 != 0, |v| gone.push(v));
        assert_eq!(gone, [0, 3]);
        let mut left = Vec::new();
        while let (Some(at), _) = q.first_accepted_by(key(0, ANY, ANY)) {
            left.push(q.remove(at));
        }
        assert_eq!(left, [1, 2, 4, 5]);
        let slab = q.nodes.len();
        for round in 0..100 {
            q.push(key(0, 0, round), round);
            let (at, _) = q.first_accepting(key(0, 0, round));
            q.remove(at.unwrap());
        }
        assert_eq!(q.nodes.len(), slab, "a vacated slot is filled first");
    }

    proptest! {
        /// Both lookups against the linear scan, over random pushes and
        /// takes with wildcards on 2 contexts, 3 sources, 3 tags.
        #[test]
        fn agrees_with_the_linear_scan(
            ops in proptest::collection::vec((any::<bool>(), 0u32..2, -1i32..3, -1i32..3), 1..200),
        ) {
            // Patterns queued, envelopes looking (the posted queue) ...
            let (mut posted, mut posted_model) = (KeyedQueue::default(), Linear::default());
            // ... and envelopes queued, patterns looking (the unexpected).
            let (mut unexp, mut unexp_model) = (KeyedQueue::default(), Linear::default());
            for (id, (push, context, src, tag)) in ops.into_iter().enumerate() {
                let id = id as u32;
                let k = key(context, src, tag);
                let env = key(context, src.max(0), tag.max(0));
                if push {
                    posted.push(k, id);
                    posted_model.0.push((k, id));
                    unexp.push(env, id);
                    unexp_model.0.push((env, id));
                } else {
                    let (found, _) = posted.first_accepting(env);
                    let got = found.map(|at| posted.remove(at));
                    prop_assert_eq!(got, posted_model.take(|p| p.accepts(&env)));
                    let (found, _) = unexp.first_accepted_by(k);
                    let got = found.map(|at| unexp.remove(at));
                    prop_assert_eq!(got, unexp_model.take(|e| k.accepts(e)));
                }
                prop_assert_eq!(posted.len(), posted_model.0.len());
                prop_assert_eq!(unexp.len(), unexp_model.0.len());
            }
        }
    }
}
