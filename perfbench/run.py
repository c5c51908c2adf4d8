#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --selftest [--seed N] [--seconds S]

The first form prints the workload's figures and, as its last stdout line,
{"correct", "attempted", "failed", "metrics"}; it exits non-zero when an
output check failed. --all runs every workload untraced and then traced.
--selftest runs the attribution and fairness self-tests (README.md). Run
from the root of a source checkout; the build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["rt_blast", "rt_paced_1m", "rt_overload", "sim_tandem"]
MAX_SECONDS = 600  # the measuring program's own limit


def run_timeout_s(seconds):
    """How long one workload run may take: its measured repetitions plus
    set-up trials, replays and the traced run's alternating repetitions."""
    return max(170.0, 2.0 * seconds + 60.0)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no sfq sources under {ROOT}/src; run from a source checkout")
        return None
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bdir = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    binary = os.path.join(bdir, "perfbench")
    return binary if os.access(binary, os.X_OK) else None


def source_stamp():
    """Git sha when the checkout is a repository, plus a digest of src/."""
    sha = None
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
        if res.returncode == 0:
            sha = res.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def run_workload(binary, workload, seed, seconds, trace, extra=(), echo=True):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    timeout = run_timeout_s(seconds)
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{workload} exceeded {timeout:.0f} s")
        return 1, None
    lines = res.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(res.stdout)
        log(f"{workload}: no result line (exit {res.returncode})")
        return res.returncode or 1, None
    if echo:
        for line in lines[:-1]:
            print(line)
    return res.returncode, result


def print_result(result, stamp):
    print("# stamp " + json.dumps(stamp))
    print(json.dumps(result))


def value(result, name):
    return result["metrics"][name]["value"]


def selftest(binary, seed, seconds, pairs=3):
    """Self-tests. Attribution: a fixed busy-wait inside the forwarding
    scheduler's enqueue must raise core.sched.enqueue_ns, lower max_pps on
    rt_blast, and leave rt.engine.residual_ns and sim_pps within bounds;
    arms alternate base/inject/inject/base... and compare medians, so slow
    drift of a shared machine cancels. Fairness: an injected dispatcher
    stall must fail rt_overload's per-window check."""
    inject_ns = 300.0
    runs = {}  # (arm, workload, trace) -> [result]
    for p in range(pairs):
        order = ("base", "inject") if p % 2 == 0 else ("inject", "base")
        for arm in order:
            extra = ["--inject-enqueue-ns", "0" if arm == "base" else str(inject_ns)]
            for wl, trace in (("rt_blast", 0), ("rt_blast", 1), ("sim_tandem", 0)):
                code, res = run_workload(binary, wl, seed + p, seconds, trace,
                                         extra, echo=False)
                if res is None or code != 0:
                    log(f"selftest: {wl} trace {trace} ({arm}) failed")
                    return 1
                runs.setdefault((arm, wl, trace), []).append(res)

    def med(arm, wl, trace, name):
        return statistics.median(value(r, name) for r in runs[(arm, wl, trace)])

    enq_rise = (med("inject", "rt_blast", 1, "core.sched.enqueue_ns") -
                med("base", "rt_blast", 1, "core.sched.enqueue_ns"))
    resid_shift = (med("inject", "rt_blast", 1, "rt.engine.residual_ns") -
                   med("base", "rt_blast", 1, "rt.engine.residual_ns"))
    pps_b = med("base", "rt_blast", 0, "max_pps")
    pps_i = med("inject", "rt_blast", 0, "max_pps")
    sim_b = med("base", "sim_tandem", 0, "sim_pps")
    sim_i = med("inject", "sim_tandem", 0, "sim_pps")
    # Fairness self-test: shard 0's dispatcher blocks 5 ms every 50 ms, a
    # stall of the engine's own making, so rt_overload's eq.-65 check must
    # breach windows and fail; the same seed without the stall must pass.
    stall = {}
    for arm, ms in (("base", "0"), ("stall", "5")):
        code, res = run_workload(binary, "rt_overload", seed, seconds, 0,
                                 ["--inject-stall-ms", ms], echo=False)
        if res is None:
            log(f"selftest: rt_overload ({arm}) printed no result")
            return 1
        stall[arm] = (code, res)

    checks = [
        ("core.sched.enqueue_ns rises by >= 80% of the busy-wait",
         enq_rise >= 0.8 * inject_ns, f"+{enq_rise:.1f} ns"),
        ("max_pps on rt_blast drops by more than its bound (25%)",
         pps_i < 0.75 * pps_b, f"{pps_b:.0f} -> {pps_i:.0f} pkt/s"),
        ("rt.engine.residual_ns moves by less than 25% of the busy-wait",
         abs(resid_shift) < 0.25 * inject_ns, f"{resid_shift:+.1f} ns"),
        ("sim_pps stays within its bound (25%)",
         abs(sim_i - sim_b) <= 0.25 * sim_b, f"{sim_b:.0f} -> {sim_i:.0f} pkt/s"),
        ("rt_overload passes its fairness check without the stall",
         stall["base"][0] == 0 and stall["base"][1]["correct"],
         f"exit {stall['base'][0]}, {stall['base'][1]['failed']} failed"),
        ("a 5 ms dispatcher stall every 50 ms breaches rt_overload's eq.-65 check",
         stall["stall"][0] != 0 and stall["stall"][1]["failed"] > 0,
         f"exit {stall['stall'][0]}, {stall['stall'][1]['failed']} failed"),
    ]
    ok = True
    for what, passed, got in checks:
        print(f"selftest {'PASS' if passed else 'FAIL'}: {what} ({got})")
        ok = ok and passed
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not (args.all or args.selftest or args.workload):
        ap.error("give --workload, --all or --selftest")
    if not 0 < args.seconds <= MAX_SECONDS:
        ap.error(f"--seconds must be in (0, {MAX_SECONDS}]")

    binary = build()
    if binary is None:
        return 2
    stamp = source_stamp()
    if args.selftest:
        return selftest(binary, args.seed, args.seconds)
    if args.all:
        print("# stamp " + json.dumps(stamp))
        status = 0
        for wl in WORKLOADS:
            for trace in (0, 1):
                print(f"== {wl} ({'per-layer, traced' if trace else 'end-to-end'})")
                code, res = run_workload(binary, wl, args.seed, args.seconds, trace)
                if res is not None:
                    print(json.dumps(res))
                status = status or code or (res is None)
        return 1 if status else 0

    code, res = run_workload(binary, args.workload, args.seed, args.seconds,
                             args.trace)
    if res is None:
        return code or 1
    stamp.update(workload=args.workload, seed=args.seed)
    print_result(res, stamp)
    return code


if __name__ == "__main__":
    sys.exit(main())
