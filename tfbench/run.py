#!/usr/bin/env python3
"""tfbench: the tfsim benchmark.

Usage, from the root of a tfsim checkout:

    python3 tfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the harness (tfbench/CMakeLists.txt, an optimized build of the
library sources under src/) into .bench_build/, runs the named workload for
--seconds of timed iterations in processes of its own (five that split the
time, or one when traced), checks its outputs and prints, as the last line
of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (host throughput, set-up time, CPU
time, peak RSS); --trace 1 reports the per-layer metrics of a traced run and
writes its spans to .bench_build/traces/.  The line before it is the run's
manifest.  BENCHMARK.json names the workloads and metrics and says why each
workload exists.

stream_remote (STREAM on remote memory at PERIOD 100) runs the same way but
is not among the scored workloads: its host time is bound by random lookups
into the 24 MB simulated-L3 tag array, so on a shared host its run-to-run
spread (IQR/median 0.22-0.30 over 5 runs) is wider than any usable bound.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading

WORKLOADS = ("stream_remote", "graph500_remote", "serving_rack", "serving_rack_pdes")
# serving_rack and serving_rack_pdes run identical traffic serially and on
# 2 PDES workers: their simulated results must be byte-identical.
SAME_TRAFFIC = {"serving_rack": "serving_rack_pdes", "serving_rack_pdes": "serving_rack"}
# Untraced runs split --seconds over this many harness processes and report
# the median over processes: on a shared host the speed of one process
# varies with where its memory and CPU land, not only with the code.
UNTRACED_PROCESSES = 5
HARNESS_TIMEOUT_S = 150
BUILD_DIR = os.path.join(".bench_build", "tfbench")
REQUIRED = ("src/core/session.hpp", "scenarios/paper_twonode.json",
            "scenarios/serving_diurnal.json", "tfbench/CMakeLists.txt")


def log(msg):
    print(f"tfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


def source_hash():
    """sha256 over every file the benchmark builds or reads."""
    h = hashlib.sha256()
    for top in ("src", "scenarios", "tfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=False)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build():
    """Configure (once) and build the harness; progress goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "tfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr, check=False).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "tfbench_harness")


def run_harness(cmd, timeout_s):
    """Run the harness in its own process; returns (rc, result, peak RSS MB).
    Reaped with wait4 so the rusage is the harness's own, not the build's."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TFSIM_")}
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    timer = threading.Timer(timeout_s, proc.send_signal, (signal.SIGKILL,))
    timer.start()
    out = proc.stdout.read()
    _, status, rusage = os.wait4(proc.pid, 0)
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode == -signal.SIGKILL:
        fail(f"harness exceeded {timeout_s:.0f} s", 1)
    lines = [l for l in out.splitlines() if l.strip()]
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"harness exited {proc.returncode} without a result", 1)
    # ru_maxrss is in KiB on Linux.
    return proc.returncode, res, rusage.ru_maxrss / 1024.0


def check_digest(store_path, src_hash, workload, seed, digest):
    """Record this run's sim_digest; False when it contradicts an earlier
    run of the same sources: the same workload and seed, or the same seed of
    the workload that runs identical traffic."""
    try:
        with open(store_path) as f:
            store = json.load(f)
    except (OSError, ValueError):
        store = {}
    runs = store.setdefault(src_hash, {})
    ok = True
    for other in (workload, SAME_TRAFFIC.get(workload)):
        prev = runs.get(f"{other}/{seed}") if other else None
        if prev is not None and prev != digest:
            log(f"sim_digest {digest} differs from {other} seed {seed}: {prev}")
            ok = False
    runs[f"{workload}/{seed}"] = digest
    with open(store_path, "w") as f:
        json.dump(store, f, indent=1, sort_keys=True)
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        fail(f"not a tfsim checkout (missing {', '.join(missing)}); "
             "run from the repository root")

    harness = build()
    src_hash = source_hash()
    os.makedirs(os.path.join(".bench_build", "traces"), exist_ok=True)
    spans = os.path.join(".bench_build", "traces", f"{args.workload}-seed{args.seed}.json")
    # The Kronecker and open-loop arrival seeds both derive from --seed;
    # the library sees only the inputs they generate.
    processes = 1 if args.trace else UNTRACED_PROCESSES
    cmd = [harness, "--workload", args.workload, "--repo", ".",
           "--seconds", str(args.seconds / processes), "--trace", str(args.trace),
           "--kron-seed", str(args.seed), "--arrival-seed", str(args.seed),
           "--spans-out", spans]
    results, rss = [], []
    attempted = failed = 0
    for _ in range(processes):
        rc, res, peak_rss_mb = run_harness(cmd, HARNESS_TIMEOUT_S / processes)
        results.append(res)
        rss.append(peak_rss_mb)
        attempted += int(res["attempted"])
        failed += int(res["failed"]) or (int(res["attempted"]) if rc != 0 else 0)
        if res.get("error"):
            log(f"gate failed: {res['error']}")
    attempted = max(1, attempted)
    digests = {r.get("sim_digest", "") for r in results}
    digest = results[0].get("sim_digest", "")
    if len(digests) > 1:
        log(f"sim_digest differs between processes of one run: {sorted(digests)}")
        failed = attempted
    if failed == 0 and not check_digest(os.path.join(".bench_build", "digests.json"),
                                        src_hash, args.workload, args.seed, digest):
        failed = attempted

    manifest = dict(results[0].get("manifest", {}))
    manifest.update({"workload": args.workload, "seed": args.seed,
                     "seconds": args.seconds, "trace": args.trace,
                     "processes": processes,
                     "iterations": [r.get("manifest", {}).get("iterations") for r in results],
                     "git_rev": git_rev(), "source_sha256": src_hash,
                     "nproc": os.cpu_count(), "sim_digest": digest})
    print(json.dumps({"manifest": manifest}, sort_keys=True))

    metrics = {}
    if failed == 0:
        # Per metric, the median over processes (one process when traced).
        for name, m in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            metrics[name] = {"value": statistics.median(values), "unit": m["unit"]}
        if args.trace == 0:
            metrics["peak_rss_mb"] = {"value": statistics.median(rss), "unit": "MB"}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
