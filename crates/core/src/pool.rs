//! Type-stable object pools for detector metadata.
//!
//! Paper §7 notes that DangSan "requires careful reuse of per-object
//! metadata structures" because the lock-free design lets a registering
//! thread hold a reference to metadata that a freeing thread is recycling
//! concurrently. The reproduction makes that discipline memory-safe by
//! construction: metadata records are allocated once, parked on a locked
//! free list between lifetimes, and only returned to the host allocator
//! when the whole detector is dropped (at which point no workload thread
//! can hold a reference). A late-arriving registration can therefore write
//! into a *recycled* record — a benign race the free-time value check
//! filters out, exactly as in the paper — but never into freed memory.
//!
//! Each pool is a mutex-guarded free list, not a lock-free stack: an
//! untagged lock-free stack can hand one record to two owners through
//! ABA. The lock is taken once per malloc and once per new thread log,
//! but not on the store path's log append. A retiring batch of sweeps
//! parks all of its records and logs through [`Pool::recycle_all`], one
//! lock per pool per batch.

use core::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A free list of `T` records with type-stable backing memory.
///
/// Cache-line aligned: every thread's malloc and free writes the lock,
/// and a pool sharing a line with the detector's read-mostly fields (the
/// store path reads its id, config and shadow map on every store) made
/// each of those writes evict that line from the other threads' caches.
#[repr(align(64))]
pub struct Pool<T> {
    /// Records parked by `recycle`, ready for `take`.
    free: Mutex<Vec<*mut T>>,
    /// Every record ever created, so `Drop` can reclaim host memory.
    all: Mutex<Vec<*mut T>>,
    /// Host bytes allocated for records (for memory accounting).
    bytes: AtomicU64,
}

// SAFETY: `free` and `all` are lock-protected, `bytes` is atomic, and the
// records behind the raw pointers are freed only in `Drop` under exclusive
// access. Records move between threads through `recycle`/`take` and are
// dropped wherever the pool drops (`T: Send`); every thread holding the
// pool may hold `&T` to the same record (`T: Sync`).
unsafe impl<T: Send> Send for Pool<T> {}
// SAFETY: as above.
unsafe impl<T: Send + Sync> Sync for Pool<T> {}

impl<T: Default> Default for Pool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Default> Pool<T> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Pool {
            free: Mutex::new(Vec::new()),
            all: Mutex::new(Vec::new()),
            bytes: AtomicU64::new(0),
        }
    }

    /// Takes a recycled record, or allocates a fresh one.
    ///
    /// The returned reference stays valid until the pool is dropped, even
    /// if the record is recycled in the meantime (type-stability).
    pub fn take(&self) -> &T {
        let parked = self.free.lock().expect("not poisoned").pop();
        let raw = parked.unwrap_or_else(|| {
            let fresh = Box::into_raw(Box::<T>::default());
            self.bytes
                .fetch_add(core::mem::size_of::<T>() as u64, Ordering::Relaxed);
            self.all.lock().expect("not poisoned").push(fresh);
            fresh
        });
        // SAFETY: every record is owned by the pool and never freed until
        // the pool drops.
        unsafe { &*raw }
    }

    /// Parks a record for reuse. The caller must have reset it and must
    /// not use the reference afterwards (late racy writes are tolerated
    /// but lost).
    pub fn recycle(&self, item: &T) {
        let raw = item as *const T as *mut T;
        self.free.lock().expect("not poisoned").push(raw);
    }

    /// Parks a batch of records under one lock acquisition: the batched
    /// twin of [`Pool::recycle`], with the same contract for each record.
    pub fn recycle_all<'a>(&self, items: impl IntoIterator<Item = &'a T>)
    where
        T: 'a,
    {
        let mut free = self.free.lock().expect("not poisoned");
        free.extend(items.into_iter().map(|item| item as *const T as *mut T));
    }

    /// Host bytes backing all records ever allocated from this pool.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Total records ever allocated.
    pub fn allocated(&self) -> usize {
        self.all.lock().expect("not poisoned").len()
    }
}

/// A pool of reusable scratch records, moved out by value and back.
///
/// The free path's retire record (`crate::sweep::RetireBatch`: the walk's
/// location buffer plus the batch's pending teardown) lives here between
/// uses. Allocating it per free would put the host allocator on the free
/// path, which is exactly what the detector's own pools exist to avoid;
/// records keep their buffers' capacity across round trips, so a
/// steady-state workload reaches its high-water mark once and never
/// allocates again. Like [`Pool`], it is a mutex-guarded `Vec`: the lock is
/// taken once per batch of sweeps (or per inline free), and the critical
/// section is a `Vec::pop`/`push`. Cache-line aligned like [`Pool`].
#[repr(align(64))]
pub struct ScratchPool<T> {
    parked: Mutex<Vec<T>>,
}

impl<T: Default> Default for ScratchPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Default> ScratchPool<T> {
    /// Creates an empty scratch pool.
    pub fn new() -> Self {
        ScratchPool {
            parked: Mutex::new(Vec::new()),
        }
    }

    /// Takes a parked record, or a fresh default one when none is parked.
    pub fn take(&self) -> T {
        self.parked
            .lock()
            .expect("not poisoned")
            .pop()
            .unwrap_or_default()
    }

    /// Parks a record for reuse. The caller empties it first; whatever
    /// capacity it holds is kept for the next `take`.
    pub fn recycle(&self, record: T) {
        self.parked.lock().expect("not poisoned").push(record);
    }
}

impl<T> Drop for Pool<T> {
    fn drop(&mut self) {
        for raw in self.all.get_mut().expect("not poisoned").drain(..) {
            // SAFETY: every record was created by `Box::into_raw` in
            // `take`, appears in `all` exactly once, and no references
            // outlive the pool (callers' lifetimes are tied to the
            // detector that owns the pool).
            unsafe { drop(Box::from_raw(raw)) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Rec {
        value: AtomicU64,
    }

    #[test]
    fn take_recycle_take_reuses_memory() {
        let pool: Pool<Rec> = Pool::new();
        let a = pool.take();
        let a_ptr = a as *const Rec;
        a.value.store(7, Ordering::Relaxed);
        pool.recycle(a);
        let b = pool.take();
        assert_eq!(b as *const Rec, a_ptr);
        assert_eq!(pool.allocated(), 1);
    }

    #[test]
    fn fresh_allocation_when_empty() {
        let pool: Pool<Rec> = Pool::new();
        let a = pool.take() as *const Rec;
        let b = pool.take() as *const Rec;
        assert_ne!(a, b);
        assert_eq!(pool.allocated(), 2);
        assert_eq!(pool.bytes(), 2 * core::mem::size_of::<Rec>() as u64);
    }

    #[test]
    fn recycle_all_parks_records_for_reuse() {
        let pool: Pool<Rec> = Pool::new();
        let taken: Vec<&Rec> = (0..3).map(|_| pool.take()).collect();
        let mut ptrs: Vec<*const Rec> = taken.iter().map(|r| *r as *const Rec).collect();
        let bytes = pool.bytes();
        pool.recycle_all(taken);
        let mut back: Vec<*const Rec> = (0..3).map(|_| pool.take() as *const Rec).collect();
        ptrs.sort();
        back.sort();
        assert_eq!(back, ptrs, "every parked record comes back");
        assert_eq!(pool.allocated(), 3, "no record was boxed afresh");
        assert_eq!(pool.bytes(), bytes);
        pool.recycle_all(std::iter::empty());
        assert_eq!(pool.allocated(), 3);
    }

    #[test]
    fn scratch_pool_reuses_capacity() {
        let pool: ScratchPool<Vec<u64>> = ScratchPool::new();
        let mut a = pool.take();
        assert!(a.is_empty());
        a.extend(0..1000);
        let cap = a.capacity();
        a.clear();
        pool.recycle(a);
        let b = pool.take();
        assert!(b.is_empty(), "recycled records come back as parked");
        assert_eq!(b.capacity(), cap, "capacity survives the round trip");
        assert_eq!(
            pool.take().capacity(),
            0,
            "an empty pool hands out defaults"
        );
    }

    /// Rounds per thread in the ABA stress below: bounded for the default
    /// test pass, long under `heavy-tests`.
    #[cfg(not(feature = "heavy-tests"))]
    const ABA_ROUNDS: usize = 200_000;
    #[cfg(feature = "heavy-tests")]
    const ABA_ROUNDS: usize = 2_000_000;

    #[test]
    fn concurrent_take_recycle_is_linearizable() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;

        #[derive(Default)]
        struct Owned {
            owned: AtomicBool,
        }

        // Seed four records, so two takes per thread across four threads
        // oversubscribe the pool and every round races on reuse.
        let pool: Pool<Owned> = Pool::new();
        let seeds: Vec<&Owned> = (0..4).map(|_| pool.take()).collect();
        for r in seeds {
            pool.recycle(r);
        }
        let start = Barrier::new(4);
        let doubles: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let mut doubles = 0u64;
                        for _ in 0..ABA_ROUNDS {
                            let a = pool.take();
                            doubles += a.owned.swap(true, Ordering::AcqRel) as u64;
                            let b = pool.take();
                            doubles += b.owned.swap(true, Ordering::AcqRel) as u64;
                            a.owned.store(false, Ordering::Release);
                            pool.recycle(a);
                            b.owned.store(false, Ordering::Release);
                            pool.recycle(b);
                        }
                        doubles
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        // A take that returns a record another thread still owns is the
        // free-list ABA: two live objects sharing one metadata record.
        assert_eq!(doubles, 0, "records handed to two owners at once");
        assert!(pool.allocated() <= 8, "at most eight records are ever out");
    }
}
