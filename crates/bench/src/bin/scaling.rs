//! Multicore scaling benchmark: the paper's Figure 9/10 *shape*.
//!
//! Drives the mixed malloc/registerptr/free server workload
//! (`dangsan_workloads::run_server`, nginx-like profile) across 1/2/4/N
//! worker threads, *fixed total work per cell* (strong scaling, the
//! paper's SPEC-style methodology): every thread count serves the same
//! number of requests, so `speedup_vs_1t` is a textbook speedup. Scaling
//! requests with the worker count instead (weak scaling) quadruples the
//! retained connection-pool live set at 4 threads and the "speedup"
//! mostly measures the bigger working set, not the detector. Three arms:
//!
//! * `baseline` — detector off (NullDetector), allocator thread-cached;
//! * `dangsan` — detector on, allocator thread-cached (the shipping
//!   configuration);
//! * `locked` — detector on, `Config::thread_cached_heap = false`: every
//!   malloc/free takes a central-list lock, the allocator this repo had
//!   before the TLS magazines and the ablation the tentpole is measured
//!   against.
//!
//! Emits `BENCH_scaling.json` with per-thread-count throughput, parallel
//! efficiency, and the recorded core count — the gates in
//! `scripts/verify.sh` / `scripts/check_baselines.sh` key their floors on
//! `cores`, because a 1-core container cannot show a real 4-thread
//! speedup no matter how scalable the allocator is. (A time-sliced ratio
//! slightly above 1.0 is possible even so: with the work split four
//! ways, each worker touches a quarter of the connection pool, so each
//! scheduler slice runs against a smaller working set.)
//!
//! A second section, `defenses`, is the cross-defense comparison the
//! tagging arms join (EXPERIMENTS.md "Cross-defense comparison"):
//! single-threaded smoke cells for every defense class — invalidation
//! (dangsan), nulling (dangnull), and the three dereference-time
//! tagging arms — each recording throughput, overhead vs the
//! uninstrumented baseline, metadata bytes, and the arm's detection
//! guarantee. `TAG_BITS` / `TAG_KEY` override the tagging widths for
//! matrix runs; `--defenses-only` skips the thread sweep and emits just
//! this section (the CI arm-comparison step).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dangsan-bench --bin scaling [-- --quick] [--out PATH]
//!     [--defenses-only]
//! ```

use dangsan::Config;
use dangsan_baselines::{TagScheme, DEFAULT_TAG_BITS, DEFAULT_TAG_KEY};
use dangsan_bench::report::Json;
use dangsan_workloads::{
    process_env, run_server, site_policy_env_overrides, sweep_env_overrides, tagging_env_overrides,
    DetectorKind, ServerProfile,
};

/// Worker-count sweep: the paper's 1/2/4 plus the machine's full core
/// count when it is larger.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, 4];
    let cores = cores();
    if cores > 4 {
        counts.push(cores);
    }
    counts
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Sweep configuration shared by both detector arms: deferred, zero
/// helper threads, caps tight enough that backpressure drains run inside
/// the measured region and keep the block-recycling loop closed. Zero
/// helpers because frees stay O(1) until the cap trips and the drain
/// then runs in bounded batches on the freeing thread — the scalable
/// shape without handing a small machine's scheduler the bill. The caps
/// are fixed (not scaled by worker count): measured head-to-head, a
/// small fixed quarantine beats a per-thread budget at every thread
/// count, because draining soon after the free walks log chains and
/// shadow lines while they are still cache-hot — freshness is worth
/// more than rarer backpressure trips. `SWEEP_THREADS` /
/// `DEFERRED_SWEEP` override the mode for matrix runs.
fn detector_config(_workers: usize) -> Config {
    let cfg = Config::default()
        .with_deferred_sweep(true)
        .with_sweep_threads(0)
        .with_quarantine_caps(256 << 10, 256);
    site_policy_env_overrides(sweep_env_overrides(cfg, process_env), process_env)
}

/// The three measured arms. The detector arms differ ONLY in the
/// allocator (`thread_cached_heap`), so `cached_over_locked_1t` isolates
/// the TLS magazines; the sweep knobs come from [`detector_config`] for
/// both.
type Arm = fn(usize) -> DetectorKind;
const ARMS: &[(&str, Arm)] = &[
    ("baseline", |_| DetectorKind::Baseline),
    ("dangsan", |w| DetectorKind::DangSan(detector_config(w))),
    ("locked", |w| {
        DetectorKind::DangSan(detector_config(w).with_thread_cached_heap(false))
    }),
];

/// The cross-defense comparison arms: one representative per defense
/// class, all run single-threaded so the numbers isolate per-operation
/// cost, not scalability (the thread sweep above covers that). Each
/// entry is `(name, kind, guarantee)` where the guarantee string is the
/// detection contract the fuzz relation enforces analytically.
fn defense_arms() -> Vec<(&'static str, DetectorKind, &'static str)> {
    let tag = |s| DetectorKind::Tagging(tagging_env_overrides(s, process_env));
    vec![
        ("baseline", DetectorKind::Baseline, "none (uninstrumented)"),
        (
            "dangsan",
            DetectorKind::DangSan(detector_config(1)),
            "masks tracked copies at free; copies made after free escape",
        ),
        (
            "dangnull",
            DetectorKind::DangNull,
            "nulls heap-stored copies at free; stack/global copies escape",
        ),
        (
            "xtag",
            tag(TagScheme::XTag {
                bits: DEFAULT_TAG_BITS,
            }),
            "deref-time generation check; misses after 2^bits block reuses",
        ),
        (
            "implicit-id",
            tag(TagScheme::ImplicitId {
                bits: DEFAULT_TAG_BITS,
                key: DEFAULT_TAG_KEY,
            }),
            "deref-time identifier check; 2^-bits collision odds per stale access",
        ),
        (
            "pa-mac",
            tag(TagScheme::PaMac {
                bits: DEFAULT_TAG_BITS,
                key: DEFAULT_TAG_KEY,
            }),
            "deref-time truncated MAC; 2^-bits forgery/collision odds",
        ),
    ]
}

/// One cell's measured figures: throughput, the request-latency tail, and
/// the sweep-queue placement counters (how often an idle shard stole work
/// and how deep each shard's backlog peaked).
#[derive(Clone, Copy, Default)]
struct Cell {
    rps: f64,
    p50_ns: u64,
    p99_ns: u64,
    meta_bytes: u64,
    sweep_steals: u64,
    sweep_shard_peaks: [u64; 4],
}

/// One run: a fresh environment, `workers` threads, `requests` total
/// requests of nginx-shaped traffic.
fn run_once(kind: DetectorKind, workers: usize, requests: u64, seed: u64) -> Cell {
    let profile = ServerProfile {
        name: "scaling",
        workers,
        allocs_per_request: 12,
        stores_per_request: 64,
        retained_frac: 0.05,
        static_bytes: 1 << 20,
        paper_slowdown: 1.0,
        paper_mem: 1.0,
    };
    let hh = dangsan_workloads::shared_env(kind);
    let r = run_server(&profile, requests, 0, &hh, seed);
    hh.detector().drain();
    let s = hh.detector().stats();
    Cell {
        rps: r.rps,
        p50_ns: r.p50_ns,
        p99_ns: r.p99_ns,
        meta_bytes: hh.detector().metadata_bytes(),
        sweep_steals: s.sweep_steals,
        sweep_shard_peaks: s.sweep_shard_peaks,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let defenses_only = args.iter().any(|a| a == "--defenses-only");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_scaling.json".to_string());

    // Full mode takes 7 interleaved passes: the per-cell figure is a
    // best-of, and on a shared box the max of a noisy sample needs more
    // draws to sit near the distribution's right edge than a mean would.
    // `req_total` is the fixed per-cell work (see the module docs).
    let (reps, req_total) = if quick {
        (3, 24_000u64)
    } else {
        (7, 80_000u64)
    };
    let counts = thread_counts();
    let cores = cores();
    eprintln!(
        "[scaling] {} mode, {reps} reps, {} cores, threads {:?}",
        if quick { "quick" } else { "full" },
        cores,
        counts
    );
    let mut doc = Json::obj();
    doc.set("schema", Json::Str("dangsan-scaling-v1".into()));
    doc.set("quick", Json::Bool(quick));
    doc.set("cores", Json::Num(cores as f64));

    if !defenses_only {
        println!(
            "{:<10} {:>4} {:>14} {:>9} {:>11}",
            "arm", "thr", "req/s", "speedup", "efficiency"
        );
        let mut arms_json = Json::obj();
        // rps[arm][thread-count], best of `reps` interleaved passes. Arms
        // alternate per cell (rep -> count -> arm, the hotpath pairing): the
        // arms a ratio divides run back to back under the same load, so a
        // drifting box skews a cell's absolute numbers but barely its ratios.
        let mut best = vec![vec![Cell::default(); counts.len()]; ARMS.len()];
        for rep in 0..reps {
            for (c, &workers) in counts.iter().enumerate() {
                for (a, (_, kind)) in ARMS.iter().enumerate() {
                    let r = run_once(kind(workers), workers, req_total, 0x5ca1e ^ rep as u64);
                    if r.rps > best[a][c].rps {
                        best[a][c] = r;
                    }
                }
            }
        }
        for (a, (name, _)) in ARMS.iter().enumerate() {
            let one = best[a][0].rps;
            let mut arm_json = Json::obj();
            for (c, &workers) in counts.iter().enumerate() {
                let cell_data = best[a][c];
                let speedup = cell_data.rps / one;
                let efficiency = speedup / workers as f64;
                println!(
                    "{name:<10} {workers:>4} {:>14.0} {speedup:>8.2}x {efficiency:>11.2}",
                    cell_data.rps
                );
                let mut cell = Json::obj();
                cell.set("threads", Json::Num(workers as f64));
                cell.set("ops_per_sec", Json::Num(cell_data.rps));
                cell.set("speedup_vs_1t", Json::Num(speedup));
                cell.set("parallel_efficiency", Json::Num(efficiency));
                cell.set("p50_ns", Json::Num(cell_data.p50_ns as f64));
                cell.set("p99_ns", Json::Num(cell_data.p99_ns as f64));
                cell.set("sweep_steals", Json::Num(cell_data.sweep_steals as f64));
                for (i, &peak) in cell_data.sweep_shard_peaks.iter().enumerate() {
                    cell.set(&format!("sweep_shard_peak_{i}"), Json::Num(peak as f64));
                }
                arm_json.set(&format!("t{workers}"), cell);
            }
            arms_json.set(name, arm_json);
        }
        doc.set("arms", arms_json);

        // The derived figures the verify gates read (flat keys, one line each,
        // so the shell-side awk extraction stays trivial).
        let idx4 = counts.iter().position(|&c| c == 4).expect("4 is swept");
        let dangsan = ARMS.iter().position(|(n, _)| *n == "dangsan").expect("arm");
        let locked = ARMS.iter().position(|(n, _)| *n == "locked").expect("arm");
        let mut derived = Json::obj();
        derived.set(
            "dangsan_speedup_4t_over_1t",
            Json::Num(best[dangsan][idx4].rps / best[dangsan][0].rps),
        );
        derived.set(
            "dangsan_parallel_efficiency_4t",
            Json::Num(best[dangsan][idx4].rps / best[dangsan][0].rps / 4.0),
        );
        derived.set(
            "cached_over_locked_1t",
            Json::Num(best[dangsan][0].rps / best[locked][0].rps),
        );
        doc.set("derived", derived);
    }

    // --- cross-defense comparison (single-threaded smoke cells) --------
    let darms = defense_arms();
    println!(
        "{:<12} {:>14} {:>9} {:>12}",
        "defense", "req/s", "overhead", "meta bytes"
    );
    // Same best-of-reps discipline; every defense runs under the same
    // interleaved load as the baseline its overhead divides by.
    let mut dbest = vec![Cell::default(); darms.len()];
    for rep in 0..reps {
        for (i, (_, kind, _)) in darms.iter().enumerate() {
            let r = run_once(*kind, 1, req_total, 0xdefe ^ rep as u64);
            if r.rps > dbest[i].rps {
                dbest[i] = r;
            }
        }
    }
    let base_rps = dbest[0].rps;
    let mut defenses_json = Json::obj();
    for (i, (name, kind, guarantee)) in darms.iter().enumerate() {
        let cell_data = dbest[i];
        let overhead = base_rps / cell_data.rps;
        println!(
            "{name:<12} {:>14.0} {overhead:>8.2}x {:>12}",
            cell_data.rps, cell_data.meta_bytes
        );
        let mut cell = Json::obj();
        cell.set("ops_per_sec", Json::Num(cell_data.rps));
        cell.set("overhead_vs_baseline", Json::Num(overhead));
        cell.set("metadata_bytes", Json::Num(cell_data.meta_bytes as f64));
        cell.set("p99_ns", Json::Num(cell_data.p99_ns as f64));
        cell.set("guarantee", Json::Str((*guarantee).into()));
        if let DetectorKind::Tagging(scheme) = kind {
            cell.set("tag_bits", Json::Num(scheme.bits() as f64));
        }
        defenses_json.set(name, cell);
    }
    doc.set("defenses", defenses_json);

    std::fs::write(&out_path, doc.render_pretty()).expect("write json");
    eprintln!("[scaling] wrote {out_path}");
}
