"""The benchmark's traced contract: perfbench/tracer.py wraps mtlopt names from
outside and perfbench/run.py checks the counts it reads against the configs.
A name that it wraps going missing, or work moving out from under a wrapper it
counts, fails a traced benchmark run; this test finds both in tier-1.

The tracer patches classes and modules for good, so it runs in a fresh
interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import mtlopt

ROOT = Path(__file__).resolve().parents[1]

VERIFY = {
    "objective": {"family": "quadratic", "preset": "five_task"},
    "seeds": [1],
    "verify": {"T_list": [2, 20, 200], "replicates": 3, "lemma_steps": 5, "lemma_replicates": 3},
}
RUN = {
    "objective": {"family": "mlp", "n_tasks": 2, "input_dim": 2, "hidden": [4], "batch_size": 4, "val_size": 4},
    "scheme": {"kind": "ius", "optimizer": {"kind": "adam"}, "lr": {"kind": "constant", "eta": 0.01}},
    "steps": 3,
    "seeds": [0],
    "validation_every": 1,
}

_TRACED = """
import json, sys
sys.path.insert(0, sys.argv[1])
import mtlopt
import tracer
t = tracer.Tracer()
tracer.install(t)
import numpy as np
from mtlopt import cli, mlp, objectives
rcs = [cli.main(["verify", sys.argv[2], "--out", sys.argv[4]]), cli.main(["run", sys.argv[3], "--out", sys.argv[5]])]
suite = mlp.synthetic_mlp_suite(n_tasks=2, input_dim=2, hidden=(4,), batch_size=4, val_size=4)
gen = np.random.default_rng(0)
xi = suite.sample_minibatch(gen)
w = mlp.init_mlp_params(suite, gen)
err = objectives.finite_difference_check(suite.tasks[1], w, xi, h=1e-5)
summary = t.summary()
print(json.dumps({"rcs": rcs, "fd_error": err, "dim": suite.dim, "counts": summary["counts"], "calls": summary["calls"]}))
"""


def test_traced_verify_run_and_gradient_check_keep_the_benchmark_counts(tmp_path):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    paths = []
    for name, cfg in (("verify", VERIFY), ("run", RUN)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=str(Path(mtlopt.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _TRACED, str(ROOT / "perfbench"), *map(str, paths),
         str(tmp_path / "v"), str(tmp_path / "r")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr  # tracer.install found every name it wraps
    out = json.loads(proc.stdout.splitlines()[-1])
    counts = {name: out["counts"].get(name, 0) for name in ("verify.steps", "schemes.updates", "mlp.value.fdcheck")}
    assert out["rcs"] == [0, 0]
    # one sample_minibatch call per replicate-step of the bound's check, the
    # count the tracer reads as verify.steps
    v = VERIFY["verify"]
    assert counts["verify.steps"] == v["replicates"] * max(v["T_list"]) == 600, counts
    assert counts["schemes.updates"] == workloads.updates_per_run(RUN) == 6
    # one optimizers.apply call and one params.axpy call per update
    calls = {name: out["calls"].get(name, 0) for name in ("optimizers.apply", "params.axpy")}
    assert calls["optimizers.apply"] == calls["params.axpy"] == workloads.updates_per_run(RUN), calls
    assert out["dim"] == workloads.mlp_dim(RUN) == 22
    assert counts["mlp.value.fdcheck"] == 2 * out["dim"]
    assert out["fd_error"] <= 1e-5
