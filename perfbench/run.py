#!/usr/bin/env python3
"""Repository benchmark: DangSan end to end and layer by layer.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload server-2w --seed 1 --seconds 20 --trace 0

Builds `perfbench/` (a Cargo package of its own that depends on the
repository's crates by path), then runs workload jobs for `--seconds`
seconds. Each job is one run of the workload on a fresh detector
environment, in its own child process with a deadline. A job that hangs,
crashes or fails an output check counts all of its operations as failed.

`--trace 0` alternates baseline (NullDetector) and dangsan jobs and reports
the end-to-end metrics. `--trace 1` adds a traced dangsan job (a timing
wrapper around every call into `core`) to each cycle and reports the
per-layer metrics and the decomposition table. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Operation unit and worker threads of each workload.
WORKLOADS = {
    "server-2w": {"unit": "request", "threads": 2},
    "spec-omnetpp-1t": {"unit": "store", "threads": 1},
    "parsec-canneal-2t": {"unit": "store", "threads": 2},
}
# A job normally takes under 2 s; one that runs this long is hung.
JOB_DEADLINE_S = 30.0
MIB = float(1 << 20)

END_TO_END_UNITS = {
    "throughput": "op/s",
    "p50_us": "us",
    "p99_us": "us",
    "added_ns_per_op": "ns",
    "mem_mb": "MiB",
    "setup_s": "s",
    "ok_frac": "fraction",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the job binary; returns its path, or None if the build fails."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if r.returncode != 0:
        log(f"build failed with exit code {r.returncode}")
        return None
    exe = os.path.join(ROOT, target, "release", "perfbench-job")
    return exe if os.path.isfile(exe) else None


def fingerprint():
    """nproc, rustc version, CPU model and clocksource of this machine."""
    def read(path, key=None):
        try:
            with open(path) as f:
                for line in f:
                    if key is None:
                        return line.strip()
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True,
                               timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rustc = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": rustc or "unknown",
        "cpu": read("/proc/cpuinfo", "model name"),
        "clocksource": read(
            "/sys/devices/system/clocksource/clocksource0/current_clocksource"),
    }


class Job:
    """One child-process run of one arm of a workload."""

    def __init__(self, exe, workload, arm, seed):
        self.arm = arm
        self.planned = 0
        self.result = None
        self.failure = None
        p = subprocess.Popen([exe, workload, arm, str(seed)], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
        try:
            out, err = p.communicate(timeout=JOB_DEADLINE_S)
        except subprocess.TimeoutExpired:
            p.kill()
            out, err = p.communicate()
            self.failure = f"hung: killed after {JOB_DEADLINE_S:.0f} s"
        except BaseException:
            # Interrupted (SIGTERM, Ctrl-C): leave no job behind.
            p.kill()
            p.wait()
            raise
        lines = []
        for line in out.splitlines():
            try:
                lines.append(json.loads(line))
            except ValueError:
                pass
        if lines and "planned_ops" in lines[0]:
            self.planned = int(lines[0]["planned_ops"])
        if self.failure is None and p.returncode != 0:
            # A panic's location and message, else the last stderr line.
            errs = err.strip().splitlines() or ["no stderr"]
            at = [i for i, e in enumerate(errs) if " panicked at " in e]
            why = " ".join(errs[at[0]:at[0] + 2]) if at else errs[-1]
            self.failure = f"exit code {p.returncode}: {why}"
        if self.failure is None:
            if len(lines) < 2 or "arm" not in lines[-1]:
                self.failure = "no result line"
            else:
                self.result = lines[-1]
                if self.result["errors"]:
                    self.failure = "check failed: " + "; ".join(self.result["errors"])

    @property
    def ok(self):
        return self.failure is None

    def __getitem__(self, key):
        return self.result[key]


def ratio(num, den):
    return num / den if den else 0.0


def thread_ns(job, threads):
    return job["elapsed_ns"] * threads


def run_cycles(exe, workload, seed, seconds, arms):
    """Runs cycles of `arms`, rotating their order, until `seconds` pass.

    Returns the list of cycles (each a dict arm -> Job).
    """
    cycles = []
    start = time.monotonic()
    while not cycles or time.monotonic() - start < seconds:
        k = len(cycles) % len(arms)
        cycles.append({arm: Job(exe, workload, arm, seed) for arm in arms[k:] + arms[:k]})
    return cycles


def end_to_end(cycles):
    pairs = [(c["dangsan"], c["baseline"]) for c in cycles
             if c["dangsan"].ok and c["baseline"].ok]
    dangsan = [c["dangsan"] for c in cycles if c["dangsan"].ok]
    if not pairs:
        return None
    ops = dangsan[0]["ops"]

    def of(value):
        return statistics.median(value(j) for j in dangsan)

    # Per job: a server request's service time, or a kernel thread's for
    # one chunk of pointer stores; medians over jobs.
    return {
        "throughput": of(lambda j: j["ops"] / j["elapsed_ns"] * 1e9),
        "p50_us": of(lambda j: j["p50_ns"] / 1e3),
        "p99_us": of(lambda j: j["p99_ns"] / 1e3),
        "added_ns_per_op": statistics.median(
            (d["elapsed_ns"] - b["elapsed_ns"]) / ops for d, b in pairs),
        "mem_mb": of(lambda j: j["mem_bytes"] / MIB),
        "setup_s": of(lambda j: j["setup_ns"] / 1e9),
    }


def decompose(workload, cycle):
    """Per-layer thread-time of one traced cycle.

    The layers' summed span time, the timer's cost outside the spans and
    the baseline arm's thread-time are subtracted from the traced run's
    thread-time; what is left is the residual. Returns (table rows,
    measured thread-time, per-layer metrics).
    """
    threads = WORKLOADS[workload]["threads"]
    t, d, b = cycle["traced"], cycle["dangsan"], cycle["baseline"]
    ops = d["ops"]
    reg_ns = ratio(t["reg_ns"], t["reg_samples"])
    alloc_ns = ratio(t["alloc_ns"], t["alloc_calls"])
    layers = [
        ("core.on_alloc", t["alloc_calls"], alloc_ns),
        ("core.register_ptr", t["reg_calls"], reg_ns),
        ("core.on_free", t["free_calls"], ratio(t["free_ns"], t["free_calls"])),
    ]
    base_ns = thread_ns(b, threads)
    measured = thread_ns(t, threads)
    timer_per_span = max(t["timer_cost_ns"] - t["timer_read_ns"], 0.0)
    timer_ns = t["spans"] * timer_per_span
    layer_total = sum(calls * ns for _, calls, ns in layers)
    added = measured - base_ns - timer_ns
    residual = added - layer_total
    rows = [("heap+workload (baseline arm)", ops, base_ns / ops, base_ns)]
    rows += [(name, calls, ns, calls * ns) for name, calls, ns in layers]
    rows.append(("timer outside spans", t["spans"], timer_per_span, timer_ns))
    rows.append(("residual (contention)", ops, residual / ops, residual))
    m = {
        "core.register_ptr.calls": t["reg_calls"],
        "core.register_ptr.ns": reg_ns,
        "core.register_ptr.share": ratio(t["reg_calls"] * reg_ns, added),
        "core.log.dup_ratio": ratio(t["dup_ptrs"], t["ptrs_registered"]),
        "core.log.cache_hit_ratio": ratio(
            t["log_cache_hits"], t["log_cache_hits"] + t["log_cache_misses"]),
        "core.log.hashtables": t["hashtables"],
        "core.log.indirect_blocks": t["indirect_blocks"],
        "core.log.compressed_merges": t["compressed_merges"],
        "shadow.p2o_hit_ratio": ratio(t["p2o_hits"], t["p2o_hits"] + t["p2o_misses"]),
        "vmem.tlb_hit_ratio": ratio(t["tlb_hits"], t["tlb_hits"] + t["tlb_misses"]),
        "core.on_alloc.calls": t["alloc_calls"],
        "core.on_alloc.ns": alloc_ns,
        "core.pool.bytes": t["pool_bytes"],
        "core.on_free.calls": t["free_calls"],
        "core.on_free.ns_p50": t["free_ns_p50"],
        "core.on_free.ns_p99": t["free_ns_p99"],
        "core.on_free.locs_per_free": ratio(t["free_locs_walked"], t["objects_freed"]),
        "core.sweep.backpressure_per_free": ratio(
            t["sweeps_backpressure"], t["frees_deferred"]),
        "core.sweep.steals": t["sweep_steals"],
        "core.sweep.splits": t["sweep_splits"],
        "core.drain.ns": ratio(t["drain_ns"], t["drain_calls"]),
        "core.metadata_mb": t["metadata_bytes"] / MIB,
        "heap.baseline_ns_per_op": b["elapsed_ns"] / ops,
        "heap.resident_mb": b["heap_resident"] / MIB,
        "heap.magazine_blocks": b["magazine_blocks"],
        "residual_ns_per_op": residual / ops,
        "trace.overhead_pct": (t["elapsed_ns"] / d["elapsed_ns"] - 1.0) * 100.0,
    }
    return rows, measured, m


PER_LAYER_UNITS = {
    "core.register_ptr.calls": "count",
    "core.register_ptr.ns": "ns",
    "core.register_ptr.share": "fraction",
    "core.log.dup_ratio": "fraction",
    "core.log.cache_hit_ratio": "fraction",
    "core.log.hashtables": "count",
    "core.log.indirect_blocks": "count",
    "core.log.compressed_merges": "count",
    "shadow.p2o_hit_ratio": "fraction",
    "vmem.tlb_hit_ratio": "fraction",
    "core.on_alloc.calls": "count",
    "core.on_alloc.ns": "ns",
    "core.pool.bytes": "bytes",
    "core.on_free.calls": "count",
    "core.on_free.ns_p50": "ns",
    "core.on_free.ns_p99": "ns",
    "core.on_free.locs_per_free": "count",
    "core.sweep.backpressure_per_free": "fraction",
    "core.sweep.steals": "count",
    "core.sweep.splits": "count",
    "core.drain.ns": "ns",
    "core.metadata_mb": "MiB",
    "heap.baseline_ns_per_op": "ns",
    "heap.resident_mb": "MiB",
    "heap.magazine_blocks": "count",
    "residual_ns_per_op": "ns",
    "trace.overhead_pct": "%",
}


def print_table(workload, rows, measured, traced):
    unit = WORKLOADS[workload]["unit"]
    print(f"# decomposition, {workload} (median traced cycle; thread-time per run)")
    print(f"# {'layer':<30} {'calls':>10} {'ns/call':>10} {'total ms':>10} {'share':>7}")
    for name, calls, ns, total in rows:
        print(f"# {name:<30} {calls:>10.0f} {ns:>10.1f} {total / 1e6:>10.2f} "
              f"{total / measured:>7.1%}")
    print(f"# {'measured traced thread-time':<30} {'':>10} {'':>10} "
          f"{measured / 1e6:>10.2f} {1:>7.1%}")
    print(f"# timer: empty span reads {traced['timer_read_ns']} ns (subtracted per span), "
          f"costs {traced['timer_cost_ns']:.1f} ns; register_ptr sampled 1 in "
          f"{traced['register_sample_every']}; end-of-run drain "
          f"{traced['drain_ns'] / 1e6:.2f} ms outside the run; ops are {unit}s")


def show(metrics, prefix=""):
    for name, m in metrics.items():
        print(f"# {prefix + name:<45} {m['value']:>16.6g} {m['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM unwinds like Ctrl-C, so a running job is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    exe = build()
    if exe is None:
        sys.exit(1)
    fp = fingerprint()
    print(f"# machine: nproc={fp['nproc']} rustc=\"{fp['rustc']}\" cpu=\"{fp['cpu']}\" "
          f"clocksource={fp['clocksource']}")
    # The seed fixes the generated inputs; every job of the run replays them.
    seed = args.seed
    arms = ["baseline", "dangsan"] + (["traced"] if args.trace else [])
    checked = []
    if args.workload == "spec-omnetpp-1t":
        checked.append(Job(exe, args.workload, "checked", seed))
    cycles = run_cycles(exe, args.workload, seed, args.seconds, arms)

    jobs = checked + [j for c in cycles for j in c.values()]
    attempted = sum(j.planned for j in jobs)
    failed = sum(j.planned for j in jobs if not j.ok)
    errors = [f"{j.arm}: {j.failure}" for j in jobs if j.failure]
    correct = not any(j.failure.startswith("check failed") for j in jobs if j.failure)
    if args.workload == "spec-omnetpp-1t":
        # Single-threaded and seeded: detector behaviour must repeat exactly,
        # traced or not.
        seen = {j["behaviour"] for j in jobs if j.ok and "behaviour" in j.result}
        if len(seen) > 1:
            correct = False
            errors.append(f"behavioural counters differ across {len(seen)} variants")
    for e in errors[:10]:
        log(f"[{args.workload}] {e}")

    ok = {arm: sum(c[arm].ok for c in cycles) for arm in arms}
    print(f"# {args.workload} seed={seed} cycles={len(cycles)} completed jobs "
          f"{ok} attempted={attempted} failed={failed} "
          f"failed_frac={ratio(failed, attempted):.6f}")
    values = end_to_end(cycles)
    if values is None:
        log("no complete baseline/dangsan pair")
        sys.exit(1)
    values["ok_frac"] = 1.0 - ratio(failed, attempted)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    if args.trace == 1:
        # End-to-end figures come from the untraced jobs alone; a traced run
        # shows them beside the layers but reports the layers.
        show(metrics, "end-to-end ")
        done = [c for c in cycles if all(j.ok for j in c.values())]
        if not done:
            log("no complete traced cycle")
            sys.exit(1)
        per = [decompose(args.workload, c) for c in done]
        metrics = {name: {"value": statistics.median(m[name] for _, _, m in per), "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
        # The table shows the cycle whose residual is the median one.
        per_sorted = sorted(zip(per, done), key=lambda p: p[0][2]["residual_ns_per_op"])
        (rows, measured, _), cycle = per_sorted[len(per_sorted) // 2]
        print_table(args.workload, rows, measured, cycle["traced"].result)
    show(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
