//! A timing [`Detector`] wrapper: times every call the hooked heap makes
//! into `core` (`on_alloc`, `register_ptr`, `on_free`, `drain`) from
//! outside the program, and forwards everything else untouched.
//!
//! Each recording thread owns one slab of counters that only it writes
//! (plain load + store, no read-modify-write), registered once with the
//! wrapper; [`Timed::totals`] sums the slabs. Totals are exact for any
//! reader ordered after the recording threads (a `join`, or
//! `thread::scope` returning).
//!
//! `register_ptr` costs about as much as two clock reads, so timing every
//! call would roughly double its apparent cost. It is sampled 1-in-N with
//! a per-thread countdown instead, while its calls are counted exactly.
//! Every span has the timer's own read cost (an empty span, measured by
//! [`timer_read_ns`]) subtracted.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dangsan::telemetry::{Histogram, HistogramSnapshot};
use dangsan::{Detector, InvalidationReport, StatsSnapshot};
use dangsan_heap::{AllocError, Allocation, Heap};
use dangsan_vmem::Addr;

/// One thread's counters; written only by that thread.
#[derive(Default)]
struct Slab {
    alloc_calls: AtomicU64,
    alloc_ns: AtomicU64,
    reg_calls: AtomicU64,
    reg_samples: AtomicU64,
    reg_ns: AtomicU64,
    free_calls: AtomicU64,
    free_ns: AtomicU64,
    drain_calls: AtomicU64,
    drain_ns: AtomicU64,
}

/// Single-writer add: the owning thread is the only writer.
#[inline]
fn add(c: &AtomicU64, v: u64) {
    c.store(c.load(Ordering::Relaxed) + v, Ordering::Relaxed);
}

/// The calling thread's binding: which wrapper it records for, its slab,
/// and the calls left until the next sampled `register_ptr`.
struct Local {
    owner: u64,
    slab: Arc<Slab>,
    countdown: u32,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Summed counters of every recording thread.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub alloc_calls: u64,
    pub alloc_ns: u64,
    pub reg_calls: u64,
    pub reg_samples: u64,
    pub reg_ns: u64,
    pub free_calls: u64,
    pub free_ns: u64,
    pub drain_calls: u64,
    pub drain_ns: u64,
}

impl Totals {
    /// Timed spans (each paid two clock reads).
    pub fn spans(&self) -> u64 {
        self.alloc_calls + self.reg_samples + self.free_calls + self.drain_calls
    }
}

/// Wraps a detector and times its calls.
pub struct Timed<D: ?Sized> {
    inner: Arc<D>,
    id: u64,
    slabs: Mutex<Vec<Arc<Slab>>>,
    free_hist: Histogram,
    timer_ns: u64,
    every: u32,
}

impl<D: Detector + ?Sized> Timed<D> {
    /// Times calls into `inner`, sampling one `register_ptr` in `every`
    /// and subtracting `timer_ns` (the empty-span reading) from each span.
    pub fn new(inner: Arc<D>, every: u32, timer_ns: u64) -> Timed<D> {
        Timed {
            inner,
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            slabs: Mutex::new(Vec::new()),
            free_hist: Histogram::new(),
            timer_ns,
            every: every.max(1),
        }
    }

    /// The wrapped detector.
    pub fn inner(&self) -> &Arc<D> {
        &self.inner
    }

    /// Sums every thread's slab.
    pub fn totals(&self) -> Totals {
        let slabs = self.slabs.lock().expect("slab registry lock poisoned");
        let mut t = Totals::default();
        for s in slabs.iter() {
            let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
            t.alloc_calls += get(&s.alloc_calls);
            t.alloc_ns += get(&s.alloc_ns);
            t.reg_calls += get(&s.reg_calls);
            t.reg_samples += get(&s.reg_samples);
            t.reg_ns += get(&s.reg_ns);
            t.free_calls += get(&s.free_calls);
            t.free_ns += get(&s.free_ns);
            t.drain_calls += get(&s.drain_calls);
            t.drain_ns += get(&s.drain_ns);
        }
        t
    }

    /// Per-call `on_free` durations (net of the timer).
    pub fn free_hist(&self) -> HistogramSnapshot {
        self.free_hist.snapshot()
    }

    /// Runs `f` on the calling thread's binding, binding a fresh slab on
    /// the thread's first call for this wrapper.
    #[inline]
    fn with_local<R>(&self, f: impl FnOnce(&mut Local) -> R) -> R {
        LOCAL.with(|cell| {
            let mut local = cell.borrow_mut();
            if local.as_ref().map(|l| l.owner) != Some(self.id) {
                let slab = Arc::new(Slab::default());
                self.slabs
                    .lock()
                    .expect("slab registry lock poisoned")
                    .push(Arc::clone(&slab));
                *local = Some(Local {
                    owner: self.id,
                    slab,
                    countdown: 0,
                });
            }
            f(local.as_mut().expect("bound above"))
        })
    }

    #[inline]
    fn net(&self, start: Instant) -> u64 {
        (start.elapsed().as_nanos() as u64).saturating_sub(self.timer_ns)
    }
}

impl<D: Detector + ?Sized> Detector for Timed<D> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_alloc(&self, alloc: &Allocation) {
        let start = Instant::now();
        self.inner.on_alloc(alloc);
        let ns = self.net(start);
        self.with_local(|l| {
            add(&l.slab.alloc_calls, 1);
            add(&l.slab.alloc_ns, ns);
        });
    }

    fn on_free(&self, base: Addr) -> InvalidationReport {
        let start = Instant::now();
        let report = self.inner.on_free(base);
        let ns = self.net(start);
        self.free_hist.record(ns);
        self.with_local(|l| {
            add(&l.slab.free_calls, 1);
            add(&l.slab.free_ns, ns);
        });
        report
    }

    fn on_realloc_in_place(&self, base: Addr, new_size: u64) {
        self.inner.on_realloc_in_place(base, new_size);
    }

    #[inline]
    fn register_ptr(&self, loc: Addr, value: u64) {
        let sample = self.with_local(|l| {
            add(&l.slab.reg_calls, 1);
            if l.countdown == 0 {
                l.countdown = self.every - 1;
                true
            } else {
                l.countdown -= 1;
                false
            }
        });
        if !sample {
            self.inner.register_ptr(loc, value);
            return;
        }
        let start = Instant::now();
        self.inner.register_ptr(loc, value);
        let ns = self.net(start);
        self.with_local(|l| {
            add(&l.slab.reg_samples, 1);
            add(&l.slab.reg_ns, ns);
        });
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
        let start = Instant::now();
        self.inner.drain();
        let ns = self.net(start);
        self.with_local(|l| {
            add(&l.slab.drain_calls, 1);
            add(&l.slab.drain_ns, ns);
        });
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

/// Median reading of an empty span (two back-to-back clock reads): what
/// each timed span over-reports, subtracted from every span.
pub fn timer_read_ns() -> u64 {
    let mut reads: Vec<u64> = (0..20_001)
        .map(|_| {
            let start = Instant::now();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    reads.sort_unstable();
    reads[reads.len() / 2]
}

/// Wall-clock cost of one empty span, clock reads and all: what each
/// timed span adds to the traced run's wall time.
pub fn timer_cost_ns() -> f64 {
    const N: u32 = 200_000;
    let start = Instant::now();
    let mut acc = 0u64;
    for _ in 0..N {
        let t = Instant::now();
        acc = acc.wrapping_add(t.elapsed().as_nanos() as u64);
    }
    std::hint::black_box(acc);
    start.elapsed().as_nanos() as f64 / N as f64
}
