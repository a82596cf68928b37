//! A latency probe for the kernels, whose runners report only their
//! total wall time: the service time of each chunk of `CHUNK` pointer
//! stores issued by one thread.
//!
//! Every thread counts its `register_ptr` calls down from `CHUNK`; when
//! the count runs out it reads the clock and records the time since its
//! previous reading. Between readings a call costs one thread-local
//! decrement, so the probe rides along in the end-to-end arms (baseline
//! and dangsan alike, so `added_ns_per_op` pays it on both sides). The
//! first reading of a thread opens its first chunk; a thread's last,
//! partial chunk is not recorded.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use dangsan::telemetry::{Histogram, HistogramSnapshot};
use dangsan::{Detector, InvalidationReport, StatsSnapshot};
use dangsan_heap::{AllocError, Allocation, Heap};
use dangsan_vmem::Addr;

/// Pointer stores per chunk.
pub const CHUNK: u32 = 512;

thread_local! {
    /// Stores left in the thread's current chunk.
    static LEFT: Cell<u32> = const { Cell::new(0) };
    /// When the thread's current chunk started.
    static START: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Wraps a detector and records chunk service times.
pub struct Probe<D: ?Sized> {
    inner: Arc<D>,
    chunks: Histogram,
}

impl<D: Detector + ?Sized> Probe<D> {
    /// Probes the stores that reach `inner`. One probe per process: the
    /// per-thread chunk state is not keyed by probe.
    pub fn new(inner: Arc<D>) -> Probe<D> {
        Probe {
            inner,
            chunks: Histogram::new(),
        }
    }

    /// Chunk service times in ns.
    pub fn chunks(&self) -> HistogramSnapshot {
        self.chunks.snapshot()
    }

    #[cold]
    fn stamp(&self) {
        let now = Instant::now();
        if let Some(start) = START.with(|s| s.replace(Some(now))) {
            self.chunks
                .record(now.duration_since(start).as_nanos() as u64);
        }
        LEFT.with(|l| l.set(CHUNK - 1));
    }
}

impl<D: Detector + ?Sized> Detector for Probe<D> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_alloc(&self, alloc: &Allocation) {
        self.inner.on_alloc(alloc);
    }

    fn on_free(&self, base: Addr) -> InvalidationReport {
        self.inner.on_free(base)
    }

    fn on_realloc_in_place(&self, base: Addr, new_size: u64) {
        self.inner.on_realloc_in_place(base, new_size);
    }

    #[inline]
    fn register_ptr(&self, loc: Addr, value: u64) {
        let left = LEFT.with(|l| {
            let v = l.get();
            l.set(v.wrapping_sub(1));
            v
        });
        if left == 0 {
            self.stamp();
        }
        self.inner.register_ptr(loc, value);
    }

    #[inline]
    fn encode_ptr(&self, base: Addr) -> Addr {
        self.inner.encode_ptr(base)
    }

    #[inline]
    fn check_deref(&self, addr: Addr) -> Addr {
        self.inner.check_deref(addr)
    }

    #[inline]
    fn decode_free(&self, addr: Addr) -> Result<Addr, AllocError> {
        self.inner.decode_free(addr)
    }

    fn probe_stale(&self, value: u64) -> bool {
        self.inner.probe_stale(value)
    }

    fn on_memcpy(&self, dst: Addr, len: u64) {
        self.inner.on_memcpy(dst, len);
    }

    fn defers_free(&self) -> bool {
        self.inner.defers_free()
    }

    fn drain(&self) {
        self.inner.drain();
    }

    fn bind_heap(&self, heap: &Arc<Heap>) {
        self.inner.bind_heap(heap);
    }

    fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }

    fn metadata_bytes(&self) -> u64 {
        self.inner.metadata_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dangsan::NullDetector;

    #[test]
    fn records_one_sample_per_full_chunk() {
        let probe = Probe::new(Arc::new(NullDetector));
        // The first store opens the first chunk; a partial chunk is dropped.
        for i in 0..3 * CHUNK as u64 + 1 + CHUNK as u64 / 2 {
            probe.register_ptr(i * 8, 0);
        }
        assert_eq!(probe.chunks().count(), 3);
    }
}
