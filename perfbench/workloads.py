"""The four benchmark workloads: generated configs, the operations of one timed
round, and the counts a round must produce, worked out from the configs alone.

A round is one pass over a workload's operations; `wall_s` sums each
operation's median time over the rounds, at the host's quiet speed. An
operation is one CLI invocation or one finite-difference check point;
`attempted` and `failed` count them.
"""

import copy

WORKLOADS = ("mlp_sweep", "quad_verify", "quad_run", "mlp_gradcheck")

# Mirrors configs/mlp_four_task.json and configs/verify_five_task.json. The
# benchmark keeps its own copy so that a change to a shipped config shows up
# as a change to the benchmark, not as a silent change of workload.
#
# mlp_sweep and quad_verify run these configs cut down to operations of about
# a second, so that a run repeats each operation several times; see NOTES.md.
# The cuts keep the code paths and the per-step cost: the MLP and its
# dimension, the three schemes, the learning rates and T_list are the shipped
# ones.
MLP_FOUR_TASK = {
    "objective": {"family": "mlp", "n_tasks": 4, "input_dim": 2, "hidden": [32, 32],
                  "batch_size": 32, "dataset_seed": 7, "target_terms": 3, "val_size": 128},
    "schemes": [
        {"kind": "sus", "optimizer": {"kind": "adam"}, "lr": {"kind": "constant", "eta": 0.01}},
        {"kind": "ius", "optimizer": {"kind": "adam"}, "lr": {"kind": "constant", "eta": 0.01}},
        {"kind": "io", "optimizer": {"kind": "adam"}, "lr": {"kind": "constant", "eta": 0.01}},
    ],
    "steps": 250,
    "seeds": [0, 1, 2],
    "validation_every": 5,
}
SWEEP_ETAS = [0.003, 0.01, 0.03]
# one `sweep` invocation per learning rate, seed 0 only, 100 steps per cell
SWEEP_STEPS = 100
SWEEP_SEEDS = [0]

VERIFY_FIVE_TASK = {
    "objective": {"family": "quadratic", "preset": "five_task"},
    "seeds": [1],
    "verify": {"T_list": [10, 100, 1000], "replicates": 200, "lemma_steps": 50, "lemma_replicates": 500},
}
# a tenth of the theorem replicates and a twenty-fifth of the lemma ones;
# fewer theorem replicates make the fitted O(1/T) rate fail on some seeds
VERIFY_REPLICATES = 20
VERIFY_LEMMA_REPLICATES = 20

# quad_run: the scheme/optimizer pairs of interest on 3-dimensional vectors,
# validating every step, long enough that the loop and not start-up dominates.
QUAD_RUN_STEPS = 4000
QUAD_RUN_SCHEMES = {
    "sus": {"kind": "sus", "optimizer": {"kind": "adam"}, "lr": {"kind": "constant", "eta": 0.01}},
    "ius": {"kind": "ius", "n_groups": 2, "optimizer": {"kind": "momentum", "beta": 0.9},
            "lr": {"kind": "constant", "eta": 0.01}},
    "io": {"kind": "io", "optimizer": {"kind": "adam"}, "lr": {"kind": "constant", "eta": 0.01}},
}

# mlp_gradcheck: one point per round, cycling over the task heads, mirroring
# acceptance criterion 6 (perturbed initial weights, a fresh minibatch per
# point).
GRADCHECK_POINTS_PER_ROUND = 1
GRADCHECK_H = 1e-5
GRADCHECK_TOL = 1e-5

# Seconds of --seconds budgeted per round, about one round's time at the
# commit that added the benchmark. The round count follows from the budget
# alone, never from how fast the code runs, so every commit gets the same
# statistic (the median of the same number of repeats).
BUDGET_PER_ROUND_S = {"mlp_sweep": 2.0, "quad_verify": 2.0, "quad_run": 2.0, "mlp_gradcheck": 0.35}


def rounds(workload: str, seconds: float) -> int:
    """Timed rounds for a budget of `seconds`."""
    return max(1, int(seconds / BUDGET_PER_ROUND_S[workload]))


def configs(workload: str, tiny: bool = False) -> dict:
    """Label -> config dict for one workload. `tiny` shrinks every size for
    the smoke test; references are recorded only for the full size."""
    if workload == "mlp_gradcheck":
        return {"op": copy.deepcopy(MLP_FOUR_TASK)}
    if workload == "mlp_sweep":
        cfg = copy.deepcopy(MLP_FOUR_TASK)
        cfg["steps"], cfg["seeds"] = (5 if tiny else SWEEP_STEPS), SWEEP_SEEDS
        etas = SWEEP_ETAS[1:2] if tiny else SWEEP_ETAS
        return {f"eta{eta!r}": cfg for eta in etas}
    if workload == "quad_verify":
        cfg = copy.deepcopy(VERIFY_FIVE_TASK)
        cfg["verify"].update(replicates=VERIFY_REPLICATES, lemma_replicates=VERIFY_LEMMA_REPLICATES)
        if tiny:
            cfg["verify"] = {"T_list": [2, 20, 200], "replicates": 30, "lemma_steps": 5, "lemma_replicates": 40}
        return {"op": cfg}
    if workload == "quad_run":
        return {
            label: {
                "objective": {"family": "quadratic", "preset": "five_task"},
                "scheme": copy.deepcopy(scheme),
                "steps": 20 if tiny else QUAD_RUN_STEPS,
                "seeds": [0],
                "validation_every": 1,
            }
            for label, scheme in QUAD_RUN_SCHEMES.items()
        }
    raise ValueError(f"unknown workload {workload!r}")


def cli_argv(workload: str, label: str, cfg_path: str, out_dir: str, seed: int) -> list:
    """Arguments of the CLI invocation that runs operation `label` on
    `cfg_path`; the benchmark seed becomes the seed offset."""
    command = {"mlp_sweep": "sweep", "quad_verify": "verify", "quad_run": "run"}[workload]
    argv = [command, cfg_path, "--out", out_dir, "--seed-offset", str(seed)]
    if workload == "mlp_sweep":
        argv[2:2] = ["--etas", label.removeprefix("eta")]  # labels are eta<learning rate>
    return argv


def _units(scheme: dict, n_tasks: int) -> int:
    if scheme["kind"] == "sus":
        return 1
    return scheme.get("n_groups") or n_tasks


def _n_tasks(cfg: dict) -> int:
    obj = cfg["objective"]
    if obj["family"] == "mlp":
        return obj["n_tasks"]
    return {"five_task": 5, "two_task": 2}[obj["preset"]]


def updates_per_run(cfg: dict) -> int:
    """Individual optimizer updates one `run` of a single-scheme config makes."""
    return cfg["steps"] * _units(cfg["scheme"], _n_tasks(cfg)) * len(cfg["seeds"])


def mlp_dim(cfg: dict) -> int:
    obj = cfg["objective"]
    fan_in, dim = obj["input_dim"], 0
    for width in obj["hidden"]:
        dim += fan_in * width + width
        fan_in = width
    return dim + obj["n_tasks"] * (fan_in + 1)


def verify_steps(cfg: dict) -> dict:
    """Replicate-steps a verify config demands and the fewest that serve it.

    The theorem check follows `replicates` trajectories for max(T_list) steps;
    the two lemma checks follow `lemma_replicates` trajectories for
    `lemma_steps` steps. Lemma replicates below `replicates` are prefixes of
    theorem trajectories (same seed, stream labels and start point), so only
    the rest need simulating.
    """
    v = cfg["verify"]
    t_max = max(v["T_list"])
    theorem = v["replicates"] * t_max
    lemma = v["lemma_replicates"] * v["lemma_steps"]
    shared = min(v["replicates"], v["lemma_replicates"]) * min(v["lemma_steps"], t_max)
    # today's engine runs each trajectory twice for the theorem (gradient-bound
    # pre-run, then the check) and three times for the lemmas (lemma 1, the
    # lemma 2 pre-run, lemma 2)
    return {"demanded": theorem + lemma, "needed": theorem + lemma - shared, "simulated": 2 * theorem + 3 * lemma}


def expected(workload: str, cfgs: dict) -> dict:
    """Counts one round must produce, from the generated configs alone.

    work: what `work_per_s` counts, per round, in `work_unit`; updates:
    individual optimizer updates; trace_rows: CSV rows per trace file, by
    label; sweep_rows: rows of each sweep.csv; steps_needed: replicate-steps a verify run needs;
    steps_simulated: replicate-steps today's verify engine simulates, the most
    a correct count can read; fd_probes: finite-difference value calls.
    """
    out = {"updates": 0, "trace_rows": {}, "sweep_rows": 0, "steps_needed": 0, "steps_simulated": 0,
           "fd_probes": 0}
    if workload == "mlp_sweep":
        cfg = next(iter(cfgs.values()))  # one per learning rate, all alike
        per_eta = sum(cfg["steps"] * _units(s, _n_tasks(cfg)) for s in cfg["schemes"]) * len(cfg["seeds"])
        out["updates"] = per_eta * len(cfgs)
        out["sweep_rows"] = len(cfg["schemes"]) * len(cfg["seeds"])
        out["work"], out["work_unit"] = out["updates"], "updates"
    elif workload == "quad_verify":
        steps = verify_steps(cfgs["op"])
        out["steps_needed"], out["steps_simulated"] = steps["needed"], steps["simulated"]
        out["work"], out["work_unit"] = steps["demanded"], "replicate_steps"
    elif workload == "quad_run":
        out["trace_rows"] = {label: cfg["steps"] * _units(cfg["scheme"], _n_tasks(cfg))
                             for label, cfg in cfgs.items()}
        out["updates"] = sum(updates_per_run(cfg) for cfg in cfgs.values())
        out["work"], out["work_unit"] = out["updates"], "updates"
    elif workload == "mlp_gradcheck":
        out["fd_probes"] = 2 * mlp_dim(cfgs["op"]) * GRADCHECK_POINTS_PER_ROUND
        out["work"], out["work_unit"] = out["fd_probes"], "fd_probes"
    return out
