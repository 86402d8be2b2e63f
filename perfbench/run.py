"""Path-lifecycle benchmark of iterreg: store and sweep, kernel and Monte-Carlo gate.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Workloads (see bench_workloads.py for
why each exists): store-sweep, kernel-mc.

A run makes its inputs from --seed three times (the median is the input
part of setup_s), runs one warm-up op at the tiny test sizes (also
counted in setup_s), then repeats the op, one at a time in this one
process, until the ops have taken --seconds.  Every op's outputs are checked between ops, outside
the timed regions.  With
--trace 0 the last stdout line carries the end-to-end metrics:

    op_s         one op, median: store + load + sweep / kernel path + variance-mc
    item_ms      one item, median: lambda / lambda-hat
    setup_s      imports + median input generation + the warm-up op
    peak_rss_mb  peak resident set of the process

With --trace 1 it alternates untraced and traced ops and carries the
per-layer metrics of the traced ones instead (bench_workloads.layer_metrics).
The figures of each part (store_s, lambda_ms, seeds_per_s, ...) and op_cpu_s,
the process CPU time of one op (all threads), with their sample counts,
the run metadata and the error rate are printed on the
lines before it and written, with the spans of a traced run, under
.perfbench-out/.  Check failures count in "failed"; the error rate is
failed / attempted.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-tmp")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_REPS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_info(numpy) -> dict:
    info = {var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        info.update(name="unknown", version="unknown")
    info["threads"] = _openblas_threads()
    return info


def _openblas_threads():
    """Thread count of the OpenBLAS loaded in this process, if it says."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_metadata(seed: int) -> dict:
    import numpy
    import scipy

    src_lines = 0
    for root, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "blas": _blas_info(numpy),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_lines,
        "seed": seed,
    }


def measure(workload, seconds: float, trace: bool, import_s: float):
    """Set up, warm up and repeat ops for ``seconds``; returns the pieces
    of the result (see the module docstring)."""
    import bench_workloads as bw
    from bench_trace import Tracer

    now = time.perf_counter
    tally = bw.Tally()
    gen = []
    for _ in range(SETUP_REPS):
        t = now()
        workload.setup()
        gen.append(now() - t)
    # The warm-up runs every code path of the op once.  It runs at the tiny
    # test sizes because iterreg keeps no state between ops that a full-size
    # op would fill, and a full-size one would take a third of a run.
    tiny = type(workload)(bw.TINY, workload.seed, workload.workdir)
    tiny.setup()
    t = now()
    warm = tiny.op()
    warm_s = now() - t
    tiny.check(warm, tally)
    setup_s = import_s + statistics.median(gen) + warm_s

    ops, walls, traced_walls, cpus = [], [], [], []
    tracer = Tracer(bw.trace_hooks()) if trace else None
    while True:
        if trace and len(walls) > len(traced_walls):
            tracer.install()
            try:
                t = now()
                with tracer.span("bench.op"):
                    op = workload.op()
                traced_walls.append(now() - t)
            finally:
                tracer.uninstall()
        else:
            t, c = now(), time.process_time()
            op = workload.op()
            walls.append(now() - t)
            cpus.append(time.process_time() - c)
            ops.append(op)
        workload.check(op, tally)
        op.outputs = None   # keep timings only, so peak RSS does not grow with the op count
        # Only op time counts towards --seconds, so the number of ops in a
        # run does not depend on how long the checks between them take.
        if sum(walls) + sum(traced_walls) >= seconds and (traced_walls or not trace):
            break

    items = [x for op in ops for x in op.items]
    samples = {"setup_s": len(gen), "op_s": len(ops), "item_ms": len(items),
               "peak_rss_mb": 1}
    if trace:
        metrics = bw.layer_metrics(tracer, traced_walls, walls, workload.stats)
        samples = {"traced_ops": len(traced_walls), "untraced_ops": len(walls)}
    else:
        metrics = {
            "op_s": (statistics.median(op.op_s for op in ops), "s"),
            "item_ms": (statistics.median(items) * 1e3, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    named = workload.named(ops)
    named["op_cpu_s"] = (statistics.median(cpus), "s", len(cpus))
    return metrics, samples, named, tally, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # One BLAS thread.  On a host of two shared cores a multi-threaded
    # GEMM meets a barrier every optimizer step: one busy process on the
    # other core made a 500-step MNIST-size GD run three times slower with
    # the default of a thread per core, and left it unchanged with one.
    # Must be set before numpy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "iterreg", "__init__.py")):
        print(f"perfbench: no iterreg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import iterreg

    if os.path.dirname(os.path.realpath(iterreg.__file__)) != \
            os.path.realpath(os.path.join(SRC, "iterreg")):
        print(f"perfbench: imported iterreg from {iterreg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import bench_workloads as bw

    if args.workload not in bw.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(bw.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        workload = bw.WORKLOADS[args.workload](bw.FULL, args.seed, workdir)
        metrics, samples, named, tally, tracer = measure(
            workload, args.seconds, bool(args.trace), import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = run_metadata(args.seed)
    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    for name, (value, unit, n) in named.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={n})")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} error_rate = {error_rate:.6g} "
          f"({tally.failed} of {tally.attempted} checks failed)")
    report = {
        "workload": args.workload, "item": workload.item, "trace": args.trace, "meta": meta,
        "samples": samples, "error_rate": error_rate, "failures": tally.failures[:20],
        "named": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in named.items()},
    }
    print(json.dumps(report))
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="ascii") as fh:
        json.dump(dict(report, metrics=values), fh, indent=1)
    if tracer is not None:
        t0 = min((s.start for s in tracer.spans), default=0.0)
        threads = {}
        with open(stem + "-spans.json", "w", encoding="ascii") as fh:
            json.dump({"wrapped": tracer.wrapped,
                       "spans": [[s.name, s.start - t0, s.end - t0, s.parent,
                                  threads.setdefault(s.thread, len(threads))]
                                 for s in tracer.spans]}, fh)
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
