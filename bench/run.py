"""memstrata lifecycle benchmark.

    python3 bench/run.py --workload {stream,recall,procedures} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the engine is imported from
``src/``. One process, one closed-loop caller, BLAS pinned to one thread.
Timings are CPU time of the process, so that time the machine gave to
other processes does not count.
The inputs are a pure function of (workload, seed). Every run checks its
outputs (invariant sweep, save -> load -> save byte identity, a numpy
brute-force retrieval oracle, a CLI ranking cross-check) and a determinism
digest, and fails with exit code 1 when one of them fails.

``failed`` counts the engine calls that raised a ``MemoryEngineError``,
except refusals: a ``PathExplosion`` on a DAG that an independent path count
finds over ``max_paths`` or ``max_path_len`` is the engine's specified
answer, so it is counted by type under ``refused`` (and in
``failed_op_ratio``) instead. A ``PathExplosion`` on a DAG within the limits
fails the run.

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
BENCHMARK.json's end-to-end metrics; with ``--trace 1`` they are its
per-layer metrics, taken from spans around the engine's layer functions.
A traced run first repeats the workload untraced, so that it can report
its own overhead and check that tracing changed no output. Results, the
span file and the digests go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "bench", "out")
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def _git_commit() -> str:
    # The ceiling keeps git from taking the commit of an enclosing repository
    # when the checkout is not one itself.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _reference_loop_s() -> float:
    """CPU seconds of a fixed pure-Python loop, best of five.

    It does not touch the engine, so it gauges the machine's speed at the
    time: timings of two runs compare only when their gauges agree.
    """
    best = float("inf")
    for _ in range(5):
        t0 = time.process_time()
        total = 0
        for i in range(200_000):
            total += i * i
        best = min(best, time.process_time() - t0)
    return best


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(args, code: str) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # the build report's form varies by numpy version
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": _git_commit(),
        "code_sha256": code,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="memstrata lifecycle benchmark")
    parser.add_argument("--workload", required=True, choices=("stream", "recall", "procedures"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_table(title: str, values: dict, units: dict) -> None:
    print(f"# {title}")
    for name, value in values.items():
        print(f"  {name:<44} {value:>16.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    # Pin BLAS before numpy loads, so the numbers measure the program and
    # not the thread scheduler.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "memstrata", "__init__.py")):
        print(f"error: no memstrata sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, os.path.dirname(os.path.abspath(__file__))]

    import checks
    import workloads
    from tracing import Tracer

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-{args.seed}"
    workspace = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    # The digest of a (workload, seed) is compared only between runs of the
    # same engine and benchmark code, uncommitted edits included.
    code = checks.tree_sha256(os.path.join(src, "memstrata"), os.path.dirname(os.path.abspath(__file__)))
    env = _environment(args, code)
    env["reference_loop_s"] = [_reference_loop_s()]
    try:
        run = workloads.run_workload(args.workload, args.seed, args.seconds, workspace)
        result = {"environment": env, "end_to_end": run.end_to_end(),
                  "calls": dict(sorted(run.calls.items())),
                  "failures": dict(run.failures), "refusals": dict(run.refusals),
                  "loops": run.loops}
        digest = checks.digest(run.digest_parts())
        if args.trace:
            untraced_s = run.op_seconds
            tracer = Tracer()
            tracer.install()
            try:
                run = workloads.run_workload(args.workload, args.seed, args.seconds,
                                             workspace, tracer, run.loops)
            finally:
                tracer.uninstall()
            traced_digest = checks.digest(run.digest_parts())
            if traced_digest != digest:
                raise checks.CheckFailed("tracing changed the outputs: digests differ")
            layers = tracer.layer_metrics()
            layers["store.snapshot_bytes"] = run.snapshot_bytes
            layers["trace.overhead"] = run.op_seconds / untraced_s - 1.0
            result["per_layer"] = layers
            tracer.write(os.path.join(OUT, f"spans-{tag}.npz"))
        checks.check_digest(os.path.join(OUT, "digests.json"), f"{tag}-{code[:16]}", digest)
    except checks.CheckFailed as exc:
        print(f"error: check failed: {exc}", file=sys.stderr)
        return 1
    env["reference_loop_s"].append(_reference_loop_s())
    result["digest"] = digest
    result["attempted"] = run.attempted
    result["failed"] = sum(run.failures.values())

    with open(os.path.join(OUT, f"result-{tag}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    print(f"# {args.workload} seed={args.seed} digest={digest}")
    print("# environment: " + json.dumps(env, sort_keys=True))
    print(f"# operations: attempted={result['attempted']} failed={result['failed']} "
          f"by type={json.dumps(result['failures'], sort_keys=True)} "
          f"refused={json.dumps(result['refusals'], sort_keys=True)}")
    print("# timed calls: " + json.dumps(result["calls"], sort_keys=True))
    _print_table("end-to-end", result["end_to_end"], workloads.UNITS)
    if args.trace:
        _print_table("per-layer (traced)", result["per_layer"], layer_units)
        print(f"# tracing overhead on timed operations: {result['per_layer']['trace.overhead']:.1%}")
        units, source = layer_units, result["per_layer"]
    else:
        units, source = e2e_units, result["end_to_end"]
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": source[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
