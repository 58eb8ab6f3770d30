// Self-test fixture: a file that exercises every rule's *passing* shape
// — annotated relaxed atomics, SAFETY-commented unsafe, checked wire
// arithmetic, clock reads outside loops — and must produce only
// allowable, annotated findings. Never compiled.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub fn bump(counter: &AtomicU64) {
    // audit: monotone telemetry counter; per-location coherence suffices
    counter.fetch_add(1, Ordering::Relaxed);
}

pub fn read_raw(ptr: *const u64) -> u64 {
    // SAFETY: caller guarantees ptr is valid and aligned for u64
    unsafe { *ptr }
}

pub fn frame_size(payload: &[u8]) -> Option<usize> {
    payload.len().checked_add(4)
}

pub fn batch(edges: &[(u32, u32)]) {
    let stamped = Instant::now();
    for (src, dst) in edges {
        touch(*src, *dst, stamped);
    }
}

impl Stamp for Clock {
    fn stamp(&self) -> Instant {
        Instant::now()
    }
}
