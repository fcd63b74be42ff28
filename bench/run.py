"""Benchmark of the grwalk library on four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One single-threaded process drives the public ``grwalk`` API as a closed
loop with one caller: the next item starts only when the previous one has
finished.  Items run in whole rounds (see ``workloads.py``) until ``S``
seconds have passed; each item's output is checked after the loop, outside
its timed span.  An item fails if it raises or fails its check.

``--trace 0`` prints the end-to-end metrics.  Set-up (importing grwalk and
building the inputs) is timed in this process and in four more fresh
interpreters, and the median is reported.

``--trace 1`` prints the per-layer metrics.  It runs a fixed number of
rounds untraced here and then the same rounds in a fresh interpreter with
spans around every call into the library's modules (``tracer.py``), so the
call counts repeat exactly.  The traced outputs must equal the untraced
ones, and every layer the workload exercises must record calls.

The last line of standard output is the result as one JSON object; the
lines before it give the environment and every metric in readable form.
"""
import os

# One process with one thread: pin the BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# The workloads' names, in workloads.WORKLOADS order; listed here so that
# argument parsing need not import the library.
WORKLOADS = ("catalog-sweep", "rank-table", "analyze-large", "simulate-fixed")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150


def import_library():
    """Import grwalk from this checkout's ``src`` and the workloads."""
    sys.path.insert(0, str(ROOT / "src"))
    import grwalk
    if Path(grwalk.__file__).resolve().parent != ROOT / "src" / "grwalk":
        raise SystemExit(f"grwalk imported from {grwalk.__file__}, "
                         f"not from {ROOT / 'src'}")
    import workloads
    return grwalk, workloads


def measure(wl, seconds=None, rounds=None, verify=True):
    """Run whole rounds until the items' own time reaches ``seconds``, or
    until ``rounds`` have run.

    Each output is checked (when ``verify``) and digested right after its
    item, outside the item's timed span, and then dropped, so that outputs
    do not pile up in memory.  Returns (latencies in s, digests, failed
    items, work units done, for workloads that count work).
    """
    latencies, digests = [], []
    failed = work = 0
    busy = 0.0
    for count, batch in enumerate(wl.rounds()):
        if rounds is not None and count >= rounds:
            break
        if seconds is not None and busy >= seconds:
            break
        for item in batch:
            start = perf_counter()
            try:
                out = wl.run(item)
            except Exception as exc:  # a raising item is a failed item
                out = exc
            latency = perf_counter() - start
            busy += latency
            latencies.append(latency)
            if isinstance(out, Exception):
                print(f"item raised: {item!r}", file=sys.stderr)
                traceback.print_exception(out)
                failed += 1
                digests.append(f"raised {type(out).__name__}")
                continue
            if verify and not passes(wl, item, out):
                print(f"check failed: {item!r}", file=sys.stderr)
                failed += 1
            digests.append(wl.digest(out))
            if hasattr(wl, "work"):
                work += wl.work(out)
    return latencies, digests, failed, work


def passes(wl, item, out):
    try:
        return wl.check(item, out)
    except Exception:  # a check that cannot complete fails the item
        traceback.print_exc()
        return False


def tail(latencies):
    """(value, percentile) at the highest of the percentiles 50, 90, 99,
    99.9 and 99.99 that has at least ten samples beyond it (nearest rank).
    With fewer than twenty samples none qualifies, and the maximum is
    given at 100."""
    ranked = sorted(latencies)
    n = len(ranked)
    for pct in (99.99, 99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            return ranked[math.ceil(pct / 100.0 * n) - 1], pct
    return ranked[-1], 100.0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def git_commit():
    """The checked-out commit, read from ``.git``; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(grwalk, seed):
    import numpy
    backend = type(grwalk.rat(1))
    return {"python": platform.python_version(),
            "backend": f"{backend.__module__}.{backend.__qualname__}",
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(),
            "seed": seed,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def child(args, *flags):
    """Run this script in a fresh interpreter; return its last stdout line
    parsed as JSON."""
    cmd = [sys.executable, __file__, "--workload", args.workload,
           "--seed", str(args.seed), *flags]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def set_up(args, tracer=None):
    """Import the library and build the workload; returns (grwalk, the
    workload, seconds taken).  A tracer is installed between the steps."""
    start = perf_counter()
    grwalk, workloads = import_library()
    if tracer is not None:
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    return grwalk, wl, perf_counter() - start


def run_setup_only(args):
    _, _, seconds = set_up(args)
    print(json.dumps({"setup_s": seconds}))


def run_trace_child(args):
    from tracer import Tracer
    tracer = Tracer()
    _, wl, _ = set_up(args, tracer)
    latencies, digests, _, _ = measure(wl, rounds=wl.trace_rounds,
                                       verify=False)
    tracer.uninstall()
    print(json.dumps({"busy_s": sum(latencies), "digests": digests,
                      "metrics": tracer.metrics()}))


def report(lines, detail, correct, attempted, failed, metrics):
    for line in lines:
        print(line)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


def run_untraced(args):
    grwalk, wl, setup_first = set_up(args)
    latencies, _, failed, work = measure(wl, seconds=args.seconds)
    rss = peak_rss_mb()
    run_ok = wl.run_check() if hasattr(wl, "run_check") else True
    setups = [setup_first] + [child(args, "--setup-only")["setup_s"]
                              for _ in range(SETUP_SAMPLES - 1)]
    attempted = len(latencies)
    busy = sum(latencies)
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "throughput_items_per_s": (attempted / busy, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_value * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    detail = {"workload": wl.name, "mode": "untraced",
              "env": environment(grwalk, args.seed),
              "seconds": args.seconds, "busy_s": busy, "items": attempted,
              "latency_tail_percentile": tail_pct,
              "latency_samples": attempted, "setup_samples_s": setups,
              "error_rate": failed / attempted, "run_check": run_ok}
    lines = [f"workload {wl.name}  seed {args.seed}  untraced, "
             f"{attempted} items in {busy:.2f} s",
             "env " + " ".join(f"{k}={v}" for k, v in detail["env"].items())]
    lines += [f"  {k:<24} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append(f"  {'latency_tail':<24} at p{tail_pct:g} of "
                 f"{attempted} samples")
    lines.append(f"  {'error_rate':<24} {failed / attempted:.6g} "
                 f"({failed} of {attempted} items failed)")
    if hasattr(wl, "work"):
        detail["work_per_s"] = work / busy
        lines.append(f"  {wl.work_unit + '_per_s':<24} {work / busy:.6g} 1/s")
    report(lines, detail, failed == 0 and run_ok, attempted, failed, metrics)


def run_traced(args):
    grwalk, wl, _ = set_up(args)
    latencies, digests, failed, _ = measure(wl, rounds=wl.trace_rounds)
    busy = sum(latencies)
    traced = child(args, "--trace-child")
    same = traced["digests"] == digests
    metrics = {k: tuple(v) for k, v in traced["metrics"].items()}
    idle = [name for name in wl.layers if metrics[f"{name}.calls"][0] == 0]
    metrics["trace.throughput_ratio"] = (busy / traced["busy_s"], "ratio")
    attempted = len(latencies)
    detail = {"workload": wl.name, "mode": "traced",
              "env": environment(grwalk, args.seed),
              "rounds": wl.trace_rounds, "items": attempted,
              "untraced_busy_s": busy, "traced_busy_s": traced["busy_s"],
              "outputs_match": same, "idle_layers": idle,
              "error_rate": failed / attempted}
    lines = [f"workload {wl.name}  seed {args.seed}  traced, {attempted} "
             f"items: untraced {busy:.2f} s, traced {traced['busy_s']:.2f} s",
             "env " + " ".join(f"{k}={v}" for k, v in detail["env"].items()),
             f"  traced outputs equal untraced: {same}",
             f"  layers of this workload with no calls: {idle or 'none'}"]
    lines += [f"  {k:<44} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    report(lines, detail, failed == 0 and same and not idle, attempted,
           failed, metrics)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--trace-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.setup_only:
        run_setup_only(args)
    elif args.trace_child:
        run_trace_child(args)
    elif args.trace:
        run_traced(args)
    else:
        run_untraced(args)


if __name__ == "__main__":
    main()
