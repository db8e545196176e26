"""Benchmark of ptcontrol: one workload per process, timed end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload solve-l7 --seed 1 --seconds 40 --trace 0

The program is imported from ``src/`` of the checkout and is not changed.  With
``--trace 0`` the operation is timed with tracing off and the run prints the
end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` the run alternates
traced and untraced operations and prints the per-layer metrics, the tracing
overhead among them; the spans are written to ``perfbench/out/`` when the run
ends.  Every operation's output is checked outside the timed
region; a failed check counts the operation as failed.  The last line of
standard output is one JSON object: correct, attempted, failed and metrics.
"""

import os
import sys

# one process with one BLAS thread: steady on a shared two-core machine
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 8
MIN_UNTRACED_OPS = 2
MIN_TRACED_RUN_OPS = 3  # traced, untraced, traced: counts compared across two
PROBE_TIMEOUT_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import ptcontrol from this checkout's src/ and the benchmark's modules."""
    sys.path.insert(0, SRC)
    try:
        import ptcontrol
    except ImportError as exc:
        fail(f"cannot import ptcontrol from {SRC}: {exc}")
    if not os.path.abspath(ptcontrol.__file__).startswith(SRC + os.sep):
        fail(f"ptcontrol was imported from {ptcontrol.__file__}, not from {SRC}")
    import spans
    import workloads
    return spans, workloads


def load_json(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path}: {exc}")


def git_commit():
    """The checkout's commit, read from .git without starting git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment():
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(),
    }


def setup_samples(args, count):
    """Set-up time of ``count`` fresh processes: start through import and warm-up.

    CLOCK_MONOTONIC is system-wide, so the probe's ready time and this
    process's spawn time share one clock.
    """
    samples = []
    for _ in range(count):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        probe = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if probe.returncode != 0:
            fail(f"set-up probe failed: {probe.stderr.strip()}")
        samples.append(float(probe.stdout.split()[-1]) - start)
    return samples


def measure(workload, seconds, tracer):
    """Run operations until ``seconds`` have passed and the minimum is met.

    With a tracer, operations alternate traced and untraced, traced first.
    """
    ops = []
    minimum = MIN_UNTRACED_OPS if tracer is None else MIN_TRACED_RUN_OPS
    start = time.perf_counter()
    while len(ops) < minimum or time.perf_counter() - start < seconds:
        index = len(ops)
        traced = tracer is not None and index % 2 == 0
        output, failures = None, []
        gc.collect()
        began = time.perf_counter()
        try:
            if traced:
                with tracer.installed(index):
                    output = workload.run()
            else:
                output = workload.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            failures.append(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - began
        if not failures:
            try:
                failures = workload.check(output)
            except Exception as exc:
                failures.append(f"check raised {type(exc).__name__}: {exc}")
        del output
        op = {"op": index, "traced": traced, "wall_s": wall, "failures": failures}
        if traced:
            op["layers"] = tracer.layer_metrics(index)
        ops.append(op)
    return ops


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="recorded only: both workloads run fixed inputs")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spans, workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(workloads.WORKLOADS)}")
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    reference = load_json(os.path.join(HERE, "reference.json"))

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](workdir, reference)
        if args.setup_probe:
            workload.warmup()
            print(time.clock_gettime(time.CLOCK_MONOTONIC))
            return 0
        # probes before and after the timed operations, so that one slow
        # spell of a shared host does not set the whole median
        samples = setup_samples(args, SETUP_PROBES // 2) if args.trace == 0 else []
        workload.warmup()
        tracer = spans.Tracer() if args.trace else None
        origin = time.perf_counter()
        ops = measure(workload, args.seconds, tracer)
        if args.trace == 0:
            samples += setup_samples(args, SETUP_PROBES - SETUP_PROBES // 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(ops)
    failed = sum(1 for op in ops if op["failures"])
    notes = [f"op {op['op']}: {f}" for op in ops for f in op["failures"]]
    walls = [op["wall_s"] for op in ops if not op["traced"]]
    if args.trace == 0:
        declared = spec["end_to_end"]
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "passed_frac": (attempted - failed) / attempted,
        }
    else:
        declared = spec["per_layer"]
        traced = [op for op in ops if op["traced"]]
        values = {name: statistics.median(op["layers"][name] for op in traced)
                  for name in traced[0]["layers"]}
        # the first operation after the level-2 warm-up can run slower, so it
        # is left out of the comparison with the untraced operations
        values["trace.overhead_s"] = (statistics.median(op["wall_s"] for op in traced[1:])
                                      - statistics.median(walls))
        for name in (m["name"] for m in declared if m["unit"] == "count"):
            seen = {op["layers"][name] for op in traced}
            if len(seen) == 1:
                values[name] = seen.pop()
            else:
                notes.append(f"count {name} differs between operations: {sorted(seen)}")
        tracer.write(os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.jsonl"),
                     origin)
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        fail(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {"correct": not notes, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    env = environment()
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": env, "setup_samples_s": samples,
                   "operations": ops, "notes": notes, "result": result}, handle, indent=1)

    print("environment " + json.dumps(env))
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {attempted} operations "
          f"({len(walls)} untraced), {failed} failed")
    for note in notes:
        print(f"  FAIL {note}")
    for name, metric in metrics.items():
        label = " (computed)" if name in spans.COMPUTED else ""
        print(f"  {name:24s} {metric['value']!r} {metric['unit']}{label}")
    if args.trace == 0:
        print(f"  wall_s is the median of {len(walls)} operations; "
              f"setup_s the median of {len(samples)} fresh processes")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
