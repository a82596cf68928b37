//! A FreeSentry-style detector (Younan, "FreeSentry: Protecting Against
//! Use-After-Free Vulnerabilities Due to Dangling Pointers", NDSS 2015).
//!
//! Faithful cost/coverage properties:
//!
//! * **No thread safety.** FreeSentry's label tables are unsynchronised;
//!   the paper stresses that this is where much of its performance comes
//!   from and why it "cannot support multithreaded programs". We encode
//!   that in the type system: the struct uses `RefCell` and is therefore
//!   `!Sync` — a multithreaded runner demanding `Detector + Send + Sync`
//!   simply does not compile with FreeSentry, the Rust equivalent of the
//!   crashes/corruption one would get in C.
//! * **Tracks pointers anywhere** (stack, globals, heap), like DangSan.
//! * **Per-location shadow entry.** FreeSentry keeps a shadow map from
//!   location to its registered object so that overwriting a location
//!   unregisters the old edge — more hot-path work than DangSan's
//!   append-only log, less than DangNULL's global lock.
//! * **O(1) exact pointee resolution.** FreeSentry's label memory maps any
//!   interior pointer to its object in constant time; we model it with the
//!   allocator's span registry, which has the same exactness and cost
//!   class (a couple of dependent loads).
//! * **Bit-setting invalidation.** Like DangSan it flips a high bit rather
//!   than nullifying.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use dangsan::{Detector, Hot, InvalidationReport, Stats, StatsSnapshot};
use dangsan_heap::{Allocation, Heap};
use dangsan_vmem::{Addr, AddressSpace, INVALID_BIT};

struct ObjRec {
    size: u64,
    /// Append-only list of locations that at some point held a pointer to
    /// this object. FreeSentry marks superseded entries rather than
    /// unlinking them; `loc_to_obj` is the authoritative current edge.
    incoming: Vec<Addr>,
}

#[derive(Default)]
struct State {
    objects: HashMap<Addr, ObjRec>,
    loc_to_obj: HashMap<Addr, Addr>,
    meta_bytes: u64,
}

/// The FreeSentry-style detector. Deliberately `!Sync` (single-threaded
/// only); see module docs.
pub struct FreeSentry {
    mem: Arc<AddressSpace>,
    /// Stands in for FreeSentry's label memory (exact O(1) pointee
    /// lookup); see module docs.
    heap: Arc<Heap>,
    state: RefCell<State>,
    stats: Stats,
}

impl FreeSentry {
    /// Creates a detector over `mem`, resolving pointees through `heap`'s
    /// span registry (the stand-in for FreeSentry's label memory).
    #[allow(clippy::arc_with_non_send_sync)] // single-threaded baseline, Arc only for API parity
    pub fn new(mem: Arc<AddressSpace>, heap: Arc<Heap>) -> Arc<FreeSentry> {
        Arc::new(FreeSentry {
            mem,
            heap,
            state: RefCell::new(State::default()),
            stats: Stats::default(),
        })
    }
}

const OBJ_COST: u64 = 88;
const EDGE_COST: u64 = 56;

impl Detector for FreeSentry {
    fn name(&self) -> &'static str {
        "freesentry"
    }

    fn on_alloc(&self, alloc: &Allocation) {
        let mut st = self.state.borrow_mut();
        st.objects.insert(
            alloc.base,
            ObjRec {
                size: alloc.requested,
                incoming: Vec::new(),
            },
        );
        st.meta_bytes += OBJ_COST + (alloc.requested / 64) * 2; // label memory
        self.stats.bump_hot(Hot::ObjectsAllocated);
    }

    fn on_free(&self, base: Addr) -> InvalidationReport {
        let mut report = InvalidationReport::default();
        let mut st = self.state.borrow_mut();
        let Some(rec) = st.objects.remove(&base) else {
            return report;
        };
        let end = base + rec.size;
        for loc in rec.incoming.iter() {
            // Skip entries superseded by a later store elsewhere.
            if st.loc_to_obj.get(loc) != Some(&base) {
                continue;
            }
            st.loc_to_obj.remove(loc);
            match self.mem.read_word(*loc) {
                Err(_) => {
                    report.skipped_unmapped += 1;
                    Stats::bump(&self.stats.sigsegv_skips);
                }
                Ok(value) if value >= base && value <= end => {
                    // Set a high bit, preserving the address bits.
                    if self.mem.write_word(*loc, value | INVALID_BIT).is_ok() {
                        report.invalidated += 1;
                        Stats::bump(&self.stats.ptrs_invalidated);
                    }
                }
                Ok(_) => {
                    report.stale += 1;
                    Stats::bump(&self.stats.stale_ptrs);
                }
            }
        }
        st.meta_bytes = st
            .meta_bytes
            .saturating_sub(OBJ_COST + rec.incoming.len() as u64 * EDGE_COST);
        self.stats.bump_hot(Hot::ObjectsFreed);
        report
    }

    fn on_realloc_in_place(&self, base: Addr, new_size: u64) {
        let mut st = self.state.borrow_mut();
        if let Some(rec) = st.objects.get_mut(&base) {
            rec.size = new_size;
        }
    }

    fn register_ptr(&self, loc: Addr, value: u64) {
        // O(1) exact label lookup for the pointee.
        let Some((target, _)) = self.heap.object_of(value) else {
            let mut st = self.state.borrow_mut();
            // The location no longer holds a tracked pointer.
            st.loc_to_obj.remove(&loc);
            return;
        };
        let mut st = self.state.borrow_mut();
        if !st.objects.contains_key(&target) {
            st.loc_to_obj.remove(&loc);
            return;
        }
        // Update the authoritative edge; the old object's list entry is
        // left in place and skipped at free time (superseded).
        let prev = st.loc_to_obj.insert(loc, target);
        if prev != Some(target) {
            st.objects
                .get_mut(&target)
                .expect("checked above")
                .incoming
                .push(loc);
            st.meta_bytes += EDGE_COST;
        }
        self.stats.bump_hot(Hot::PtrsRegistered);
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn metadata_bytes(&self) -> u64 {
        self.state.borrow().meta_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dangsan::HookedHeap;
    use dangsan_vmem::{FaultKind, PAGE_SIZE, STACKS_BASE};

    fn setup() -> (Arc<AddressSpace>, HookedHeap<FreeSentry>) {
        let mem = Arc::new(AddressSpace::new());
        let heap = Heap::new(Arc::clone(&mem));
        let det = FreeSentry::new(Arc::clone(&mem), Arc::clone(&heap));
        (Arc::clone(&mem), HookedHeap::new(heap, det))
    }

    #[test]
    fn detects_use_after_free_like_dangsan() {
        let (_, hh) = setup();
        let obj = hh.malloc(48).unwrap();
        let holder = hh.malloc(8).unwrap();
        hh.store_ptr(holder.base, obj.base).unwrap();
        let r = hh.free(obj.base).unwrap();
        assert_eq!(r.invalidated, 1);
        let v = hh.load(holder.base).unwrap();
        assert_eq!(v, obj.base | INVALID_BIT, "bits preserved");
        assert_eq!(hh.load(v).unwrap_err().kind, FaultKind::NonCanonical);
    }

    #[test]
    fn tracks_stack_locations_unlike_dangnull() {
        let (mem, hh) = setup();
        mem.map(STACKS_BASE, PAGE_SIZE).unwrap();
        let obj = hh.malloc(48).unwrap();
        hh.store_ptr(STACKS_BASE + 8, obj.base).unwrap();
        let r = hh.free(obj.base).unwrap();
        assert_eq!(r.invalidated, 1);
    }

    #[test]
    fn is_not_sync() {
        // The compile-time encoding of "cannot support multithreaded
        // programs": FreeSentry must never satisfy `Sync`.
        fn assert_not_sync<T>()
        where
            T: ?Sized + NotSyncProbe,
        {
        }
        trait NotSyncProbe {}
        impl<T: ?Sized> NotSyncProbe for T {}
        assert_not_sync::<FreeSentry>();
        // Static assertion via trait resolution trick:
        const fn requires_sync<T: Sync>() {}
        // If the next line ever compiles, the model has lost its defining
        // limitation. (Uncommenting it must be a compile error.)
        // requires_sync::<FreeSentry>();
        let _ = requires_sync::<u8>;
    }

    #[test]
    fn overwrite_unregisters_location() {
        let (_, hh) = setup();
        let a = hh.malloc(48).unwrap();
        let b = hh.malloc(48).unwrap();
        let holder = hh.malloc(8).unwrap();
        hh.store_ptr(holder.base, a.base).unwrap();
        hh.store_ptr(holder.base, b.base).unwrap();
        let r = hh.free(a.base).unwrap();
        assert_eq!(r.invalidated + r.stale, 0, "edge was replaced");
        let r = hh.free(b.base).unwrap();
        assert_eq!(r.invalidated, 1);
    }
}
