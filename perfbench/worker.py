"""One workload process: set up, run timed rounds, report as JSON.

Usage: python3 perfbench/worker.py JOB.json RESULT.json

The job names the workload, the generated config files, the seed, the
number of timed rounds (0 for set-up only) and whether to trace. Set-up is the import of mtlopt
plus loading the configs (which builds the task suites); it ends at the
`ready` timestamp, taken on the system-wide monotonic clock so the parent can
subtract its own spawn time. Every operation's outcome is reported; the
parent checks the outputs.
"""

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads


def _environment(np) -> dict:
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "openblas": blas,
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _gradcheck_inputs(suite, base, seed, round_index):
    """Points of one round, each checking the next task head at a perturbed
    start under a fresh minibatch; all draws come from the benchmark seed."""
    import numpy as np

    gen = np.random.default_rng([seed, round_index])
    points = []
    for k in range(workloads.GRADCHECK_POINTS_PER_ROUND):
        task = suite.tasks[(round_index * workloads.GRADCHECK_POINTS_PER_ROUND + k) % suite.n_tasks]
        xi = suite.sample_minibatch(gen)
        points.append((task, base + 0.2 * gen.normal(size=suite.dim), xi))
    return points


def _call(fn):
    """Run one operation; an exception counts as a failed operation."""
    try:
        return fn(), None
    except Exception:  # noqa: BLE001 - the outcome is reported, not raised
        return None, traceback.format_exc(limit=5)


def main(job_path, result_path):
    job = json.loads(Path(job_path).read_text())
    workload, seed = job["workload"], job["seed"]
    tracer = None
    if job["trace"]:
        import mtlopt  # noqa: F401 - every layer must be loaded before patching
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer_mod.install(tracer)

    import numpy as np
    from mtlopt import cli, config, mlp, objectives

    loaded = {label: config.load_config(path) for label, path in job["configs"].items()}
    base = None
    if workload == "mlp_gradcheck":
        suite = loaded["op"].suite
        base = mlp.init_mlp_params(suite, np.random.default_rng(seed))
    ready = time.perf_counter()
    result = {"ready": ready, "rounds": []}

    out_root = Path(job["out"])
    # the traced process goes unprobed, so that no probe lands in a span
    probe = None
    if job["rounds"] and not job["trace"]:
        import hostspeed

        probe = hostspeed.Probe()

    def timed(op, fn):
        if probe is None:
            s0 = time.perf_counter()
            outcome, op["error"] = _call(fn)
            op["seconds"] = op["ref_seconds"] = time.perf_counter() - s0
        else:
            (outcome, op["error"]), op["seconds"], op["ref_seconds"] = probe.measure(lambda: _call(fn))
        return outcome, op

    for index in range(job["rounds"]):
        round_dir = out_root / f"round{index}"
        ops = []
        if workload == "mlp_gradcheck":
            for task, w, xi in _gradcheck_inputs(suite, base, seed, index):
                err, op = timed({"label": f"task{task.index}"}, lambda: objectives.finite_difference_check(
                    task, w, xi, h=workloads.GRADCHECK_H))
                ops.append(dict(op, fd_error=err))
        else:
            for label, path in job["configs"].items():
                argv = workloads.cli_argv(workload, label, path, str(round_dir / label), seed)
                rc, op = timed({"label": label}, lambda: cli.main(argv))
                ops.append(dict(op, rc=rc))
        seconds = sum(op["seconds"] for op in ops)
        result["rounds"].append({"seconds": seconds, "ops": ops, "dir": str(round_dir)})

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = _environment(np)
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(job["spans"])
    result["tracer_imported"] = tracer is None and "tracer" in sys.modules
    import tracer as tracer_mod  # the scan below only reads attributes

    result["wrappers"] = tracer_mod.find_wrappers()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
