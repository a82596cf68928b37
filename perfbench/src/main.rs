//! One benchmark job: builds a fresh detector environment, runs one
//! workload on it once, checks the outputs and prints one JSON line.
//!
//! ```text
//! perfbench-job <workload> <arm> <seed>
//!   workload: server-2w | spec-omnetpp-1t | parsec-canneal-2t
//!   arm:      baseline (NullDetector) | dangsan | traced (timed dangsan)
//!             | checked (dangsan behind a store oracle; spec-omnetpp-1t)
//! ```
//!
//! Before the workload starts the job prints `{"planned_ops": N}`, so a
//! harness that has to kill a hung job still knows how many operations
//! it attempted. `run.py` in this directory is the harness.

mod checked;
mod probe;
mod timed;

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use dangsan::telemetry::{bucket_high, bucket_index, bucket_low, HistogramSnapshot};
use dangsan::{Config, DangSan, Detector, HookedHeap, NullDetector, StatsSnapshot};
use dangsan_heap::Heap;
use dangsan_vmem::{AddressSpace, FaultKind, INVALID_BIT};
use dangsan_workloads::parsec::{run_parsec, WORK_UNITS};
use dangsan_workloads::profiles::{ParsecProfile, SpecProfile, PARSEC, SPEC};
use dangsan_workloads::{run_server_opts, run_spec, RunResult, ServerOptions, ServerProfile};

use checked::Checked;
use probe::Probe;
use timed::Timed;

/// Requests per `server-2w` job.
const SERVER_REQUESTS: u64 = 60_000;
/// Table 1 divisor for `spec-omnetpp-1t`.
const SPEC_SCALE: u64 = 20_000;
/// `parsec-canneal-2t` runs at the kernel's largest size.
const PARSEC_SCALE: u64 = 1;
/// Worker threads of the two-thread workloads.
const THREADS: usize = 2;
/// One `register_ptr` in this many is timed in the traced arm.
const REGISTER_SAMPLE_EVERY: u32 = 64;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Server,
    Spec,
    Parsec,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "server-2w" => Some(Workload::Server),
            "spec-omnetpp-1t" => Some(Workload::Spec),
            "parsec-canneal-2t" => Some(Workload::Parsec),
            _ => None,
        }
    }

    fn threads(self) -> usize {
        match self {
            Workload::Spec => 1,
            Workload::Server | Workload::Parsec => THREADS,
        }
    }

    /// Objects each runner leaves allocated on purpose: the server's
    /// per-worker slot slabs and the SPEC runner's slot slab.
    fn leftover_objects(self) -> u64 {
        match self {
            Workload::Server => THREADS as u64,
            Workload::Spec => 1,
            Workload::Parsec => 0,
        }
    }

    fn planned_ops(self) -> u64 {
        match self {
            Workload::Server => SERVER_REQUESTS,
            Workload::Spec => spec_profile().scaled(SPEC_SCALE).stores,
            Workload::Parsec => {
                let total = (parsec_profile().stores_per_thread * WORK_UNITS / PARSEC_SCALE)
                    .max(THREADS as u64);
                total / THREADS as u64 * THREADS as u64
            }
        }
    }
}

/// The request mix `BENCH_server.json` measures: 12 allocations and 64
/// pointer stores per dynamic request, 5% retained, 1 MiB static content.
fn server_profile() -> ServerProfile {
    ServerProfile {
        name: "production",
        workers: THREADS,
        allocs_per_request: 12,
        stores_per_request: 64,
        retained_frac: 0.05,
        static_bytes: 1 << 20,
        paper_slowdown: 1.0,
        paper_mem: 1.0,
    }
}

fn spec_profile() -> &'static SpecProfile {
    SPEC.iter()
        .find(|p| p.name == "471.omnetpp")
        .expect("omnetpp profile exists")
}

fn parsec_profile() -> &'static ParsecProfile {
    PARSEC
        .iter()
        .find(|p| p.name == "canneal")
        .expect("canneal profile exists")
}

/// The shipping detector configuration, built explicitly so no
/// environment knob can change it.
fn shipping_config() -> Config {
    Config::default()
        .with_deferred_sweep(true)
        .with_sweep_threads(0)
        .with_quarantine_caps(256 << 10, 256)
}

/// What one workload run produced.
struct Outcome {
    ops: u64,
    elapsed_ns: f64,
    p50_ns: f64,
    p99_ns: f64,
    mem_bytes: u64,
    heap_resident: u64,
    /// Detector statistics as the runner left them (before any drain).
    stats: StatsSnapshot,
    /// Runner-specific output checks that failed.
    errors: Vec<String>,
}

fn run_workload<D>(w: Workload, hh: &HookedHeap<D>, seed: u64) -> Outcome
where
    D: Detector + Send + Sync + ?Sized,
{
    match w {
        Workload::Server => {
            let mut errors = Vec::new();
            let r = run_server_opts(
                &server_profile(),
                SERVER_REQUESTS,
                0,
                hh,
                seed,
                &ServerOptions::default(),
            );
            let served: u64 = r.classes.iter().map(|c| c.count).sum();
            if served != r.requests {
                errors.push(format!(
                    "class histograms hold {served} of {} requests",
                    r.requests
                ));
            }
            let latency = r.latency_hists[0].1.snapshot();
            Outcome {
                ops: r.requests,
                elapsed_ns: r.requests as f64 / r.rps * 1e9,
                p50_ns: percentile(&latency, 0.50),
                p99_ns: percentile(&latency, 0.99),
                mem_bytes: r.total_memory(),
                heap_resident: r.heap_resident,
                stats: hh.detector().stats(),
                errors,
            }
        }
        Workload::Spec => kernel_outcome(run_spec(spec_profile(), SPEC_SCALE, 0, hh, seed)),
        Workload::Parsec => kernel_outcome(run_parsec(
            parsec_profile(),
            THREADS,
            PARSEC_SCALE,
            0,
            hh,
            seed,
        )),
    }
}

/// A kernel run's outcome. Its p50/p99 read the job's wall time until
/// the chunk probe's percentiles replace them (see [`run_job`]).
fn kernel_outcome(r: RunResult) -> Outcome {
    let ns = r.elapsed.as_nanos() as f64;
    Outcome {
        ops: r.stores,
        elapsed_ns: ns,
        p50_ns: ns,
        p99_ns: ns,
        mem_bytes: r.total_memory(),
        heap_resident: r.heap_resident,
        stats: r.stats,
        errors: Vec::new(),
    }
}

/// Percentile `q` (0..=1) of a log-bucketed histogram, interpolated
/// linearly inside the bucket that holds the ranked value; nearest rank
/// alone only ever returns bucket bounds.
fn percentile(s: &HistogramSnapshot, q: f64) -> f64 {
    let n = s.count();
    if n == 0 {
        return 0.0;
    }
    // The value of rank `r` (1-based), as the snapshot's nearest rank.
    let at = |r: u64| s.percentile((r as f64 - 0.5) / n as f64 * 100.0);
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let bucket = bucket_index(at(rank));
    let (lo, hi) = (bucket_low(bucket), bucket_high(bucket));
    // First rank at or above the bucket, and first rank past it.
    let first_at = |pred: &dyn Fn(u64) -> bool| {
        let (mut a, mut b) = (1u64, n + 1);
        while a < b {
            let m = a + (b - a) / 2;
            if pred(m) {
                b = m;
            } else {
                a = m + 1;
            }
        }
        a
    };
    let first = first_at(&|r| at(r) >= lo);
    let past = first_at(&|r| at(r) > hi);
    let in_bucket = (past - first).max(1) as f64;
    // The top bucket is filled only up to the exact maximum.
    let width = (hi.min(s.max()) - lo + 1) as f64;
    let v = lo as f64 + width * ((rank - first) as f64 + 0.5) / in_bucket;
    v.min(s.max() as f64)
}

/// The use-after-free canary: store a pointer, free its object, drain,
/// then load it back. The loaded word must be non-canonical and
/// dereferencing it must fault as non-canonical.
fn canary<D: Detector + ?Sized>(hh: &HookedHeap<D>, errors: &mut Vec<String>) {
    let holder = hh.malloc(64).expect("canary holder");
    let obj = hh.malloc(48).expect("canary object");
    hh.store_ptr(holder.base, obj.base + 8)
        .expect("canary store");
    hh.free(obj.base).expect("canary free");
    hh.detector().drain();
    let loaded = hh.load(holder.base).expect("holder is live");
    if loaded & INVALID_BIT == 0 {
        errors.push(format!(
            "canary: dangling pointer {loaded:#x} still canonical"
        ));
    }
    match hh.load(loaded) {
        Err(f) if f.kind == FaultKind::NonCanonical => {}
        other => errors.push(format!("canary: dereference gave {other:?}, not a trap")),
    }
    hh.free(holder.base).expect("canary holder free");
    hh.detector().drain();
}

/// Objects freed = objects allocated − objects still live.
fn check_counters(w: Workload, s: &StatsSnapshot, errors: &mut Vec<String>) {
    let live = s.objects_allocated.wrapping_sub(s.objects_freed);
    if s.objects_freed > s.objects_allocated || live != w.leftover_objects() {
        errors.push(format!(
            "objects freed {} != allocated {} - live {}",
            s.objects_freed,
            s.objects_allocated,
            w.leftover_objects()
        ));
    }
}

/// The canary, the counter check and the behavioural counters of a
/// dangsan job, after its workload ran.
fn dangsan_checks<D: Detector + ?Sized>(
    w: Workload,
    hh: &HookedHeap<D>,
    line: &mut Line,
    errors: &mut Vec<String>,
) {
    canary(hh, errors);
    let s = hh.detector().stats();
    check_counters(w, &s, errors);
    line.str("behaviour", &format!("{:?}", s.behavioural()));
}

/// Builds the job's hooked heap on `det` behind the chunk probe and runs
/// `w` once. The server times each request itself; a kernel's p50/p99
/// are percentiles of the probe's chunk service times.
fn run_job<D>(
    w: Workload,
    heap: &Arc<Heap>,
    det: Arc<D>,
    seed: u64,
    setup: Instant,
    line: &mut Line,
) -> (Outcome, HookedHeap<Probe<D>>)
where
    D: Detector + Send + Sync,
{
    let probe = Arc::new(Probe::new(det));
    let hh = HookedHeap::new(Arc::clone(heap), Arc::clone(&probe));
    line.num("setup_ns", setup.elapsed().as_nanos() as f64);
    let mut out = run_workload(w, &hh, seed);
    if w != Workload::Server {
        let chunks = probe.chunks();
        out.p50_ns = percentile(&chunks, 0.50);
        out.p99_ns = percentile(&chunks, 0.99);
        line.int("chunks", chunks.count());
    }
    (out, hh)
}

/// Small JSON object writer for the one-line result.
struct Line(Vec<String>);

impl Line {
    fn num(&mut self, k: &str, v: f64) -> &mut Self {
        let v = if v.is_finite() { v } else { 0.0 };
        self.0.push(format!("\"{k}\": {v}"));
        self
    }
    fn int(&mut self, k: &str, v: u64) -> &mut Self {
        self.0.push(format!("\"{k}\": {v}"));
        self
    }
    fn str(&mut self, k: &str, v: &str) -> &mut Self {
        let v = v.replace('\\', "\\\\").replace('"', "\\\"");
        self.0.push(format!("\"{k}\": \"{v}\""));
        self
    }
    fn strs(&mut self, k: &str, vs: &[String]) -> &mut Self {
        let items: Vec<String> = vs
            .iter()
            .map(|v| format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        self.0.push(format!("\"{k}\": [{}]", items.join(", ")));
        self
    }
    fn print(&self) {
        println!("{{{}}}", self.0.join(", "));
    }
}

fn fresh_env() -> (Arc<AddressSpace>, Arc<Heap>) {
    let mem = Arc::new(AddressSpace::new());
    let heap = Heap::new(Arc::clone(&mem));
    heap.set_thread_cached(true);
    (mem, heap)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: perfbench-job <server-2w|spec-omnetpp-1t|parsec-canneal-2t> \
                 <baseline|dangsan|traced|checked> <seed>";
    let (Some(w), Some(arm), Some(seed)) = (
        args.first().and_then(|s| Workload::parse(s)),
        args.get(1).cloned(),
        args.get(2).and_then(|s| s.parse::<u64>().ok()),
    ) else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let known = match arm.as_str() {
        "baseline" | "dangsan" | "traced" => true,
        // The store oracle is not `Sync`: single-threaded workloads only.
        "checked" => w == Workload::Spec,
        _ => false,
    };
    if !known {
        eprintln!("{usage}");
        std::process::exit(2);
    }
    // The traced arm measures its clock before anything else runs.
    let timer = (arm == "traced").then(|| (timed::timer_read_ns(), timed::timer_cost_ns()));

    println!("{{\"planned_ops\": {}}}", w.planned_ops());
    std::io::stdout().flush().expect("stdout");

    let mut line = Line(Vec::new());
    line.str("arm", &arm).int("threads", w.threads() as u64);
    let mut errors = Vec::new();
    let setup = Instant::now();
    let (mem, heap) = fresh_env();
    let out = match arm.as_str() {
        "baseline" => {
            let (out, _) = run_job(w, &heap, Arc::new(NullDetector), seed, setup, &mut line);
            line.int("magazine_blocks", heap.magazine_blocks());
            out
        }
        "dangsan" => {
            let det = DangSan::new(Arc::clone(&mem), shipping_config());
            let (out, hh) = run_job(w, &heap, det, seed, setup, &mut line);
            dangsan_checks(w, &hh, &mut line, &mut errors);
            out
        }
        "checked" => {
            let det = DangSan::new(Arc::clone(&mem), shipping_config());
            // `HookedHeap` takes an `Arc`; this arm never leaves the thread.
            #[allow(clippy::arc_with_non_send_sync)]
            let oracle = Arc::new(Checked::new(det, Arc::clone(&heap)));
            let hh = HookedHeap::new(Arc::clone(&heap), Arc::clone(&oracle));
            line.num("setup_ns", setup.elapsed().as_nanos() as f64);
            let r = run_spec(spec_profile(), SPEC_SCALE, 0, &hh, seed);
            // Every store reaches the hook, and every store whose value
            // points into a live allocation registers. A value in no live
            // allocation registers only while its object sits in the sweep
            // quarantine, so the allocator's count bounds the rest.
            let live_stores = oracle.stores() - oracle.unresolved();
            if oracle.stores() != r.stores
                || r.stats.ptrs_registered < live_stores
                || r.stats.ptrs_registered > r.stores
            {
                errors.push(format!(
                    "stores issued {}, seen {}, unresolved {}, ptrs_registered {}",
                    r.stores,
                    oracle.stores(),
                    oracle.unresolved(),
                    r.stats.ptrs_registered
                ));
            }
            dangsan_checks(w, &hh, &mut line, &mut errors);
            line.int("unresolved_stores", oracle.unresolved());
            kernel_outcome(r)
        }
        _ => {
            let (read_ns, cost_ns) = timer.expect("measured for the traced arm");
            let det = DangSan::new(Arc::clone(&mem), shipping_config());
            let timed = Arc::new(Timed::new(det, REGISTER_SAMPLE_EVERY, read_ns));
            let (out, hh) = run_job(w, &heap, Arc::clone(&timed), seed, setup, &mut line);
            let pool_bytes = timed.inner().pool_bytes();
            let metadata_bytes = timed.metadata_bytes();
            // The end-of-run drain, timed through the wrapper.
            timed.drain();
            let t = timed.totals();
            let free_hist = timed.free_hist();
            let tlb = mem.tlb_stats();
            canary(&hh, &mut errors);
            let s = hh.detector().stats();
            check_counters(w, &s, &mut errors);
            let after = timed.totals();
            if after.alloc_calls != s.objects_allocated || after.free_calls != s.objects_freed {
                errors.push(format!(
                    "wrapper saw {} allocs / {} frees, stats {} / {}",
                    after.alloc_calls, after.free_calls, s.objects_allocated, s.objects_freed
                ));
            }
            line.str("behaviour", &format!("{:?}", s.behavioural()))
                .int("timer_read_ns", read_ns)
                .num("timer_cost_ns", cost_ns)
                .int("register_sample_every", REGISTER_SAMPLE_EVERY as u64)
                .int("alloc_calls", t.alloc_calls)
                .int("alloc_ns", t.alloc_ns)
                .int("reg_calls", t.reg_calls)
                .int("reg_samples", t.reg_samples)
                .int("reg_ns", t.reg_ns)
                .int("free_calls", t.free_calls)
                .int("free_ns", t.free_ns)
                .num("free_ns_p50", percentile(&free_hist, 0.50))
                .num("free_ns_p99", percentile(&free_hist, 0.99))
                .int("drain_calls", t.drain_calls)
                .int("drain_ns", t.drain_ns)
                .int("spans", t.spans())
                .int("pool_bytes", pool_bytes)
                .int("metadata_bytes", metadata_bytes)
                .int("tlb_hits", tlb.hits)
                .int("tlb_misses", tlb.misses);
            // Registration counters as the runner left them; free-side
            // counters after the drain, once every deferred sweep retired.
            let r = &out.stats;
            line.int("ptrs_registered", r.ptrs_registered)
                .int("dup_ptrs", r.dup_ptrs)
                .int("log_cache_hits", r.log_cache_hits)
                .int("log_cache_misses", r.log_cache_misses)
                .int("hashtables", r.hashtables)
                .int("indirect_blocks", r.indirect_blocks)
                .int("compressed_merges", r.compressed_merges)
                .int("p2o_hits", r.ptr2obj_cache_hits)
                .int("p2o_misses", r.ptr2obj_cache_misses)
                .int("objects_freed", s.objects_freed)
                .int("free_locs_walked", s.free_locs_walked)
                .int("frees_deferred", s.frees_deferred)
                .int("sweeps_backpressure", s.sweeps_backpressure)
                .int("sweep_steals", s.sweep_steals)
                .int("sweep_splits", s.sweep_splits);
            out
        }
    };
    errors.extend(out.errors.iter().cloned());
    if out.ops != w.planned_ops() {
        errors.push(format!(
            "ran {} of {} planned ops",
            out.ops,
            w.planned_ops()
        ));
    }
    line.int("ops", out.ops)
        .num("elapsed_ns", out.elapsed_ns)
        .num("p50_ns", out.p50_ns)
        .num("p99_ns", out.p99_ns)
        .int("mem_bytes", out.mem_bytes)
        .int("heap_resident", out.heap_resident)
        .strs("errors", &errors);
    line.print();
}

#[cfg(test)]
mod tests {
    use super::*;
    use dangsan::telemetry::Histogram;

    #[test]
    fn interpolated_percentiles_track_exact_ranks() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        for (q, exact) in [(0.5, 5_000.0), (0.99, 9_900.0)] {
            let got = percentile(&s, q);
            assert!((got - exact).abs() / exact < 0.01, "p{q}: {got} vs {exact}");
            // Never outside the nearest-rank value's bucket.
            let nearest = s.percentile(q * 100.0);
            let b = bucket_index(nearest);
            assert!(got >= bucket_low(b) as f64 && got <= bucket_high(b) as f64 + 1.0);
        }
        assert_eq!(percentile(&Histogram::new().snapshot(), 0.5), 0.0);
    }
}
