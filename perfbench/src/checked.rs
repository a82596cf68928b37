//! An oracle [`Detector`] wrapper for single-threaded output checks:
//! counts the stores that reach `register_ptr` and, independently of the
//! detector's shadow mapping, how many of them carried a value outside
//! every live allocation (asked of the allocator, not the detector).
//! DangSan must register every other store, and beyond those only stores
//! into objects still in its sweep quarantine.

use std::cell::Cell;
use std::sync::Arc;

use dangsan::{Detector, InvalidationReport, StatsSnapshot};
use dangsan_heap::{Allocation, Heap};
use dangsan_vmem::Addr;

/// Wraps a detector and counts stores; not `Sync`, so it only runs
/// single-threaded workloads.
pub struct Checked<D: ?Sized> {
    inner: Arc<D>,
    heap: Arc<Heap>,
    stores: Cell<u64>,
    unresolved: Cell<u64>,
}

impl<D: Detector + ?Sized> Checked<D> {
    pub fn new(inner: Arc<D>, heap: Arc<Heap>) -> Checked<D> {
        Checked {
            inner,
            heap,
            stores: Cell::new(0),
            unresolved: Cell::new(0),
        }
    }

    /// Stores that reached `register_ptr`.
    pub fn stores(&self) -> u64 {
        self.stores.get()
    }

    /// Stores whose value pointed into no live allocation.
    pub fn unresolved(&self) -> u64 {
        self.unresolved.get()
    }
}

impl<D: Detector + ?Sized> Detector for Checked<D> {
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

    fn register_ptr(&self, loc: Addr, value: u64) {
        self.stores.set(self.stores.get() + 1);
        if self.heap.object_of(value).is_none() {
            self.unresolved.set(self.unresolved.get() + 1);
        }
        self.inner.register_ptr(loc, value);
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
