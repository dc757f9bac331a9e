//! A recycling buffer arena for tape and kernel scratch memory.
//!
//! One training step builds a forward tape, runs backward, and drops
//! everything — historically one heap allocation per op per step. A
//! [`ScratchArena`] keeps the freed `Vec<f32>` backing stores and hands
//! them back out, so a steady-state training loop (same graph shape
//! every step) stops allocating entirely after the first step. Values
//! are bit-identical either way: the arena only changes *where* buffers
//! come from, never what is written into them.

/// A size-aware free list of `f32` buffers.
///
/// A request is served by the smallest held buffer that fits it, and
/// only if that buffer is at most twice the request;
/// otherwise a fresh buffer of the requested size is allocated and the
/// held ones wait for requests they fit. Buffers are never grown to
/// serve a request, so each keeps the size it was allocated for and a
/// repeated graph converges to one buffer per live tensor size — no
/// buffer ratchets up to the largest tensor. The list is bounded so a
/// one-off giant graph cannot pin its peak memory forever.
#[derive(Debug, Default)]
pub struct ScratchArena {
    free: Vec<Vec<f32>>,
}

/// Retained buffer cap: generous for any model in this workspace (a
/// graph recycles one buffer per node) while bounding worst-case
/// retention.
const MAX_FREE: usize = 512;

/// Largest capacity-to-request ratio a recycled buffer may have.
const MAX_WASTE: usize = 2;

impl ScratchArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cleared buffer with capacity for at least `cap` elements
    /// (length 0). Fill it with `extend`-style writes.
    pub fn take_empty(&mut self, cap: usize) -> Vec<f32> {
        let best = self
            .free
            .iter()
            .enumerate()
            .filter(|(_, v)| v.capacity() >= cap && v.capacity() <= cap.saturating_mul(MAX_WASTE))
            .min_by_key(|(_, v)| v.capacity())
            .map(|(i, _)| i);
        match best {
            Some(i) => {
                let mut v = self.free.swap_remove(i);
                v.clear();
                v
            }
            None => Vec::with_capacity(cap),
        }
    }

    /// A buffer of exactly `len` zeros.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut v = self.take_empty(len);
        v.resize(len, 0.0);
        v
    }

    /// Returns a buffer to the free list for reuse.
    pub fn give(&mut self, v: Vec<f32>) {
        if self.free.len() < MAX_FREE && v.capacity() > 0 {
            self.free.push(v);
        }
    }

    /// Number of buffers currently held for reuse.
    pub fn held(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_recycled() {
        let mut arena = ScratchArena::new();
        let mut v = arena.take_empty(100);
        v.extend((0..100).map(|i| i as f32));
        let ptr = v.as_ptr();
        arena.give(v);
        assert_eq!(arena.held(), 1);
        let v2 = arena.take_zeroed(64);
        assert_eq!(v2.as_ptr(), ptr, "the recycled allocation is reused");
        assert_eq!(v2.len(), 64);
        assert!(v2.iter().all(|&x| x == 0.0), "recycled buffers are reset");
    }

    #[test]
    fn take_grows_capacity_when_needed() {
        let mut arena = ScratchArena::new();
        arena.give(vec![1.0; 4]);
        let v = arena.take_zeroed(1000);
        assert_eq!(v.len(), 1000);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn alternating_sizes_keep_their_own_buffers() {
        let (small, large) = (16usize, 1000usize);
        let mut arena = ScratchArena::new();
        for _ in 0..10 {
            for len in [small, large] {
                let v = arena.take_zeroed(len);
                assert!(
                    len == large || v.capacity() < large,
                    "a {len}-element request was served from a {}-element buffer",
                    v.capacity()
                );
                arena.give(v);
                let held: usize = arena.free.iter().map(Vec::capacity).sum();
                assert!(held <= small + large, "arena holds {held} elements");
            }
        }
        assert_eq!(arena.held(), 2);
    }

    #[test]
    fn free_list_is_bounded() {
        let mut arena = ScratchArena::new();
        for _ in 0..(MAX_FREE + 50) {
            arena.give(vec![0.0; 8]);
        }
        assert_eq!(arena.held(), MAX_FREE);
    }
}
