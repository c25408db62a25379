#!/usr/bin/env python3
"""The jrl benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload reduction --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload reduction --seed 1 --seconds 22 --trace 1
    python3 perfbench/run.py --compare PARENT_RESULTS CHANGE_RESULTS
    python3 perfbench/run.py --regenerate

Run from the root of a checkout; the program is imported from its src/.
The last line of a run is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1).  A full
record, with the environment and any failing inputs, goes to --out.
See perfbench/README.md.
"""

import os

# single-threaded BLAS and OpenMP here and in every child process; set
# before anything can import numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib.metadata
import itertools
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5  # fresh interpreters for cli.import_s
SETUP_PROBES = 3  # set-up measurements before and again after the timed loop
RSS_BLOCKS = 8  # peak RSS is read after this many blocks of operations
TRACE_SHARE = 0.25  # traced run replays this share of a --seconds run
CLI_PROCESS_OPS = 4
LIBRARY_WORKLOADS = ("direct_trace", "reduction", "coboundary")


def environment() -> dict:
    model = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg": list(os.getloadavg()),
        "threads": os.environ["OMP_NUM_THREADS"],
    }


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def probe(argv: list[str]) -> float:
    """Run a child that prints one float as its last line, and return it."""
    out = subprocess.run(argv, capture_output=True, text=True, env=child_env(), timeout=120, check=True)
    return float(out.stdout.split()[-1])


def setup_probe(workload: str) -> int:
    """Child side of the set-up measurement: import jrl, build the modules."""
    t0 = time.perf_counter()
    import jrl  # noqa: F401
    import workloads

    workloads.make(workload, 0, HERE / "out" / "tmp").build()
    print(time.perf_counter() - t0)
    return 0


def setup_times(workload: str, repeats: int) -> list[float]:
    """Set-up seconds of `repeats` fresh processes."""
    if workload in LIBRARY_WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload]
        return [probe(argv) for _ in range(repeats)]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "jrl", "eval", "--fn", "B", "--k", "2"],
                       capture_output=True, env=child_env(), timeout=120, check=True)
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mb(wl) -> float:
    """Peak RSS of this process, or of its largest child for cli_eval."""
    usage = resource.RUSAGE_CHILDREN if wl.name == "cli_eval" else resource.RUSAGE_SELF
    return resource.getrusage(usage).ru_maxrss / 1024.0


def execute(fn) -> tuple:
    """(result, error, seconds) of one prepared operation."""
    t0 = time.perf_counter()
    try:
        result, error = fn(), None
    except Exception as exc:  # a raising operation is a failed operation
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, error, time.perf_counter() - t0


def check_all(wl, records) -> list[dict]:
    """Failing operations, as {op, reason}, checked outside any timed region."""
    failures = []
    for op, result, error in records:
        reason = error
        if reason is None:
            try:
                reason = wl.check(op, result)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append({"op": op, "reason": reason})
    return failures


def timed_run(wl, seed: int, seconds: float) -> tuple[list, list[tuple], float, float]:
    """Closed loop, one client: the next op starts when the last one ends.

    The timeline holds (class, start, latency) of every op timed before the
    deadline.  Peak RSS is read after the first RSS_BLOCKS blocks, a fixed
    amount of work: the caches grow with every new input, so a reading at
    the deadline would move with the machine's speed.  A run that has not
    done that much by the deadline goes on, untimed, until it has."""
    stream = wl.stream(seed)
    rss_ops = RSS_BLOCKS * len(wl.classes)
    records, timeline, rss, timing = [], [], None, True
    start = time.perf_counter()
    deadline = start + seconds
    while timing or rss is None:
        op = next(stream)
        fn = wl.prepare(op)
        t0 = time.perf_counter()
        result, error, dt = execute(fn)
        records.append((op, result, error))
        if timing:
            timeline.append((op["cls"], t0 - start, dt))
            timing = time.perf_counter() < deadline
            elapsed = time.perf_counter() - start
        if len(records) == rss_ops:
            rss = peak_rss_mb(wl)
    return records, timeline, elapsed, rss


def end_to_end(wl, args, out_dir: Path) -> tuple[dict, list, dict]:
    import stats

    # set-up is timed before and after the loop, so that its median spans
    # the same stretch of the machine's speed as the loop does
    setups = setup_times(wl.name, SETUP_PROBES)
    records, timeline, elapsed, rss = timed_run(wl, args.seed, args.seconds)
    setups += setup_times(wl.name, SETUP_PROBES)
    latencies = [dt for _, _, dt in timeline]
    tail, pct = stats.tail_latency(latencies)
    metrics = {
        "latency_tail_ms": (1e3 * tail, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    # printed and recorded, but too dependent on the shared machine's speed
    # to gate a change on (see README.md)
    informational = {
        "ops_per_s": (len(latencies) / elapsed, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
    }
    info = {"timed_ops": len(latencies), "tail_percentile": pct, "setup_times": setups,
            "informational": {k: {"value": v, "unit": u} for k, (v, u) in informational.items()},
            "timeline": timeline}
    return metrics, records, info


def per_layer(wl, args, out_dir: Path) -> tuple[dict, list, dict]:
    """Replay a fixed prefix of the op stream untraced, then traced."""
    import spans

    n_ops = max(len(wl.classes), round(wl.trace_rate * args.seconds * TRACE_SHARE))
    ops = list(itertools.islice(wl.stream(args.seed), n_ops))
    records, extra = [], {}
    cli = wl.name == "cli_eval"
    if cli:
        extra["cli.import_s"] = statistics.median(
            probe([sys.executable, "-c", "import time; t = time.perf_counter(); import jrl.cli; "
                   "print(time.perf_counter() - t)"]) for _ in range(SETUP_REPEATS))
        walls, cpus = [], []
        for op in ops[:CLI_PROCESS_OPS]:
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            result, error, dt = execute(wl.prepare(op))
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            records.append((op, result, error))
            walls.append(dt)
            cpus.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
        extra["cli.process.wall_s"] = statistics.mean(walls)
        extra["cli.process.cpu_s"] = statistics.mean(cpus)
    prepare = wl.prepare_in_process if cli else wl.prepare

    t0 = time.perf_counter()
    untraced = [execute(prepare(op)) for op in ops]
    untraced_s = time.perf_counter() - t0

    tracer = spans.Tracer()
    traced = []
    tracer.install()
    try:
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            fn = prepare(op)
            tracer.begin_op(i)
            traced.append(execute(fn))
            tracer.end_op()
        traced_s = time.perf_counter() - t0
    finally:
        tracer.remove()

    for op, (ru, eu, _), (rt, et, _) in zip(ops, untraced, traced):
        same = eu == et and ru == rt
        records.append((op, rt, et if same else "traced result differs from the untraced run"))
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    for name in ("cli.import_s", "cli.process.wall_s", "cli.process.cpu_s"):
        metrics[name] = extra.get(name, 0.0)
    spans_path = out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    info = {"traced_ops": len(ops), "untraced_s": untraced_s, "traced_s": traced_s,
            "spans": str(spans_path), "spans_dropped": tracer.dropped}
    return {k: (v, unit_of(k)) for k, v in metrics.items()}, records, info


def unit_of(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def run(args) -> int:
    import workloads

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    env = environment()
    wl = workloads.make(args.workload, args.seed, out_dir / "tmp")
    try:
        if args.trace:
            import spans

            setup_tracer = spans.Tracer()
            setup_tracer.install()
            try:
                wl.build()
            finally:
                setup_tracer.remove()
        else:
            wl.build()
        records = [(op, *execute(wl.prepare(op))[:2]) for op in wl.warmup_ops(args.seed)]
        measure = per_layer if args.trace else end_to_end
        metrics, measured, info = measure(wl, args, out_dir)
        if args.trace:
            # enumeration happens at set-up; count it with the traced run
            at_setup = setup_tracer.metrics()
            for key in ("calls", "self_s", "states"):
                name = f"voa.enumerate_basis.{key}"
                metrics[name] = (metrics[name][0] + at_setup[name], metrics[name][1])
        records += measured
        failures = check_all(wl, records)
    finally:
        wl.close()

    attempted, failed = len(records), len(failures)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "started": started, "environment": env, **info,
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(started))
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:13s} {name:40s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"{args.workload:13s} {'latency_tail_ms percentile':40s} {info['tail_percentile']:14.2f} "
              f"(of {info['timed_ops']} timed ops)")
        for name, m in info["informational"].items():
            print(f"{args.workload:13s} {name:40s} {m['value']:14.6g} {m['unit']} (not gated)")
    print(f"{args.workload:13s} {'fail_ratio':40s} {failed / attempted:14.6g} ratio ({failed} of {attempted})")
    for f in failures[:20]:
        print(f"FAILED {json.dumps(f['op'])}: {f['reason']}")
    if failed > 20:
        print(f"... and {failed - 20} more failing inputs in the record")
    print(f"record: {path}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

COMPARABLE = ("python", "numpy", "nproc", "affinity", "cpu_model", "threads")
# the tail percentile moves with the number of timed ops; beyond this many
# points the two sides no longer report the same percentile
TAIL_PERCENTILE_SLACK = 1.0


def load_records(directory: str) -> list[dict]:
    out = []
    for path in sorted(Path(directory).glob("*-trace0-*.json")):
        out.append(json.loads(path.read_text(encoding="utf-8")))
    return out


def compare(parent_dir: str, change_dir: str) -> int:
    import stats

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load_records(parent_dir), load_records(change_dir)
    if not parent or not change:
        print("error: no --trace 0 records in one of the directories", file=sys.stderr)
        return 2
    machines = {tuple(r["environment"][k] for k in COMPARABLE) for r in parent + change}
    if len(machines) != 1:
        print("error: the runs come from different environments; not comparing:", file=sys.stderr)
        for m in sorted(machines, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(COMPARABLE, m)), file=sys.stderr)
        return 2
    print(f"{'workload':13s} {'metric':16s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}  verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        p_by_seed = {r["seed"]: r for r in parent if r["workload"] == workload}
        c_by_seed = {r["seed"]: r for r in change if r["workload"] == workload}
        seeds = sorted(set(p_by_seed) & set(c_by_seed))
        if not seeds:
            continue
        pairs = [(p_by_seed[s], c_by_seed[s]) for s in seeds]
        parent_first = sum(p["started"] < c["started"] for p, c in pairs)
        if abs(2 * parent_first - len(pairs)) > 1:
            print(f"warning: {workload}: the parent ran first in {parent_first} of {len(pairs)} pairs; "
                  "alternate the order")
        p_fail = sum(p["failed"] for p, _ in pairs) / sum(p["attempted"] for p, _ in pairs)
        c_fail = sum(c["failed"] for _, c in pairs) / sum(c["attempted"] for _, c in pairs)
        for m in bench["end_to_end"]:
            pv = [p["metrics"][m["name"]]["value"] for p, _ in pairs]
            cv = [c["metrics"][m["name"]]["value"] for _, c in pairs]
            v = stats.verdict(pv, cv, m["better"], m["bound"])
            if m["name"] == "latency_tail_ms":
                p_pct = statistics.median(p["tail_percentile"] for p, _ in pairs)
                c_pct = statistics.median(c["tail_percentile"] for _, c in pairs)
                if abs(c_pct - p_pct) > TAIL_PERCENTILE_SLACK:
                    v = f"unresolved (tail at p{c_pct:.1f} against p{p_pct:.1f})"
            if v == "improved" and c_fail > p_fail:
                v = "unresolved (more operations fail)"
            print(f"{workload:13s} {m['name']:16s} {describe(pv):>34s} {describe(cv):>34s}  {v}")
        fail_v = "worse" if c_fail > p_fail else "unchanged"
        print(f"{workload:13s} {'fail_ratio':16s} {p_fail:>34.3g} {c_fail:>34.3g}  {fail_v}")
    return 0


def describe(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("direct_trace", "reduction", "coboundary", "cli_eval"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(HERE / "out"), help="directory for run records and spans")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    parser.add_argument("--regenerate", action="store_true", help="recompute data/pools.json")
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "jrl" / "__init__.py").is_file():
        print(f"error: no jrl package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.setup_probe)
    if args.regenerate:
        import workloads

        workloads.regenerate_pools()
        return 0
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
