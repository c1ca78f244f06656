"""mtlopt benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a source checkout; mtlopt is imported from ./src. The
inputs are generated from --seed (it becomes the CLI --seed-offset and seeds
the gradient-check points); the program sees only the generated configs.

--trace 0 measures the end-to-end metrics with no wrapper installed: several
set-up-only processes for `setup_s`, and one workload process that runs a
fixed number of rounds for the budget --seconds. Both times are stated at the
host's quiet speed, measured by a reference kernel beside every set-up and
inside every operation (hostspeed.py). --trace 1 runs an untraced process for
half the budget and a traced process for one round, and reports the
per-layer metrics plus the tracing overhead. Every process gets
OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1. The last line of stdout is the
JSON result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 13  # set-up-only processes per run
SPEED_SAMPLES = 15  # reference kernel runs on each side of a set-up-only process
DEADLINE_S = 170.0  # the whole run must end within 180 s

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
}

# Per-layer metrics: name -> unit. Counts and times are for set-up plus one
# traced round.
PER_LAYER = {
    "mlp.gradient.calls": "count",
    "mlp.gradient.self_s": "s",
    "mlp.value.calls": "count",
    "mlp.value.self_s": "s",
    "mlp.minibatch.self_s": "s",
    "mlp.validation.self_s": "s",
    "mlp.forwards_per_update": "ratio",
    "objectives.quad_gradient.calls": "count",
    "objectives.quad_gradient.self_s": "s",
    "objectives.quad_value.calls": "count",
    "objectives.quad_value.self_s": "s",
    "objectives.quad_minibatch.calls": "count",
    "objectives.quad_minibatch.self_s": "s",
    "objectives.fdcheck.self_s": "s",
    "objectives.fdcheck.value_calls_per_point": "count",
    "optimizers.apply.calls": "count",
    "optimizers.apply.self_s": "s",
    "params.l2_norm.calls": "count",
    "params.l2_norm.self_s": "s",
    "params.axpy.calls": "count",
    "params.axpy.self_s": "s",
    "params.rngstream.calls": "count",
    "schemes.run.calls": "count",
    "schemes.run.self_s": "s",
    "schemes.updates": "count",
    "tracing.add_row.self_s": "s",
    "tracing.write_csv.self_s": "s",
    "tracing.write_csv.bytes": "bytes",
    "tracing.write_meta.self_s": "s",
    "tracing.write_meta.bytes": "bytes",
    "tracing.covered_distances.self_s": "s",
    "verify.theorem.self_s": "s",
    "verify.lemma1.self_s": "s",
    "verify.lemma2.self_s": "s",
    "verify.grad_bound.self_s": "s",
    "verify.fit_rate.self_s": "s",
    "verify.steps_simulated": "count",
    "verify.steps_needed": "count",
    "verify.useful_step_ratio": "ratio",
    "config.load.self_s": "s",
    "config.runconfig.calls": "count",
    "cli.main.self_s": "s",
    "cli.json_bytes": "bytes",
    "bench.trace_overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run or a cross-check failed."""


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Runner:
    """Spawns worker processes under one deadline and collects their results."""

    def __init__(self, args, work: Path, config_paths: dict):
        self.args = args
        self.work = work
        self.config_paths = config_paths
        self.deadline = time.monotonic() + DEADLINE_S
        self.jobs = 0
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
        )

    def setup_sample(self) -> float:
        """Set-up time of one set-up-only process at the host's quiet speed,
        scaled by the host's speed sampled just before and just after it."""
        import hostspeed

        before = [hostspeed.kernel() for _ in range(SPEED_SAMPLES)]
        setup = self.spawn()["setup_s"]
        after = [hostspeed.kernel() for _ in range(SPEED_SAMPLES)]
        return setup * hostspeed.speed(before + after)

    def spawn(self, *, rounds=0, trace=False) -> dict:
        """Run one worker process: set-up, then `rounds` timed rounds."""
        n = self.jobs
        self.jobs += 1
        job = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "configs": self.config_paths,
            "rounds": rounds,
            "trace": trace,
            "out": str(self.work / f"job{n}"),
            "spans": str(ROOT / ".perfbench_work" / f"spans_{self.args.workload}_seed{self.args.seed}.csv"),
        }
        job_path, result_path = self.work / f"job{n}.json", self.work / f"result{n}.json"
        job_path.write_text(json.dumps(job))
        with open(self.work / f"job{n}.log", "w") as log:
            spawned = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
                                    cwd=self.work, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchError(f"worker job{n} overran the {DEADLINE_S:.0f} s deadline") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0 or not result_path.exists():
            tail = (self.work / f"job{n}.log").read_text()[-2000:]
            raise BenchError(f"worker job{n} exited with {proc.returncode}:\n{tail}")
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["ready"] - spawned
        return result


def _check_rounds(args, result, exp, refs):
    """(attempted, failed, reasons) over every operation of a worker result."""
    attempted, failed, reasons = 0, 0, []
    first_digests = {}
    for r in result["rounds"]:
        round_dir = Path(r["dir"])
        for op in r["ops"]:
            attempted += 1
            op_dir = round_dir / op["label"]
            problems = checks.check_op(args.workload, op, op_dir, exp, refs, args.seed, args.tiny)
            if not problems and args.workload != "mlp_gradcheck":
                # every round of one run repeats the same computation
                got = checks.digests(op_dir)
                if first_digests.setdefault(op["label"], got) != got:
                    problems.append("outputs differ from the first round of this run")
            if problems:
                failed += 1
                reasons.append(f"{op['label']}: {'; '.join(problems)}")
    return attempted, failed, reasons


def _layer_metrics(summary, exp, json_bytes, overhead_s) -> dict:
    calls, self_s, counts = summary["calls"], summary["self_s"], summary["counts"]
    out = {}
    for name in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls.get(layer, 0) + counts.get(layer, 0)
        elif kind == "self_s":
            out[name] = self_s.get(layer, 0.0)
        elif kind == "bytes":
            out[name] = summary["bytes"].get(layer, 0)
    training_grads = counts.get("mlp.gradient.training", 0)
    fd_points = calls.get("objectives.fdcheck", 0)
    simulated = counts.get("verify.steps", 0)
    out.update({
        "mlp.forwards_per_update": counts.get("mlp.forward.training", 0) / training_grads if training_grads else 0.0,
        "objectives.fdcheck.value_calls_per_point":
            counts.get("mlp.value.fdcheck", 0) / fd_points if fd_points else 0.0,
        "schemes.updates": counts.get("schemes.updates", 0),
        "verify.steps_simulated": simulated,
        "verify.steps_needed": exp["steps_needed"],
        "verify.useful_step_ratio": exp["steps_needed"] / simulated if simulated else 0.0,
        "cli.json_bytes": json_bytes,
        "bench.trace_overhead_s": overhead_s,
    })
    return out


def _cross_check(workload, metrics, summary, exp):
    """Counted calls against counts worked out from the configs, and the calls
    each workload must never make."""
    problems = []
    if metrics["schemes.updates"] != exp["updates"]:
        problems.append(f"schemes.updates counted {metrics['schemes.updates']}, configs demand {exp['updates']}")
    probes = summary["counts"].get("mlp.value.fdcheck", 0)
    if probes != exp["fd_probes"]:
        problems.append(f"finite-difference value probes counted {probes}, expected {exp['fd_probes']}")
    # a faster verify engine may simulate fewer steps, down to those needed
    simulated = metrics["verify.steps_simulated"]
    if not exp["steps_needed"] <= simulated <= exp["steps_simulated"]:
        problems.append(f"verify simulated {simulated} replicate-steps, outside "
                        f"[{exp['steps_needed']}, {exp['steps_simulated']}]")
    if workload.startswith("quad_") and metrics["mlp.value.calls"] + metrics["mlp.gradient.calls"]:
        problems.append("a quadratic workload called the mlp oracle")
    verify_s = sum(v for n, v in metrics.items() if n.startswith("verify.") and n.endswith(".self_s"))
    if workload != "quad_verify" and (simulated or verify_s):
        problems.append("a workload other than quad_verify ran verify")
    if problems:
        raise BenchError("cross-check failed: " + "; ".join(problems))


def _scaled_wall(rounds) -> float:
    """One round's time at the quiet speed of the host: the median over the
    rounds of each operation's reference seconds, summed over a round's
    operations. Every round makes the same operations in the same order."""
    per_op = zip(*([op["ref_seconds"] for op in r["ops"]] for r in rounds))
    return sum(statistics.median(seconds) for seconds in per_op)


def _json_bytes(result) -> int:
    """Bytes of the JSON documents the CLI commands wrote (not trace sidecars)."""
    return sum(p.stat().st_size for r in result["rounds"] for p in Path(r["dir"]).rglob("*.json")
               if not p.name.endswith(".meta.json"))


def measure(args, work: Path) -> dict:
    cfgs = workloads.configs(args.workload, args.tiny)
    config_paths = {}
    for label, cfg in cfgs.items():
        path = work / f"{label}.json"
        path.write_text(json.dumps(cfg, indent=1))
        config_paths[label] = str(path)
    exp = workloads.expected(args.workload, cfgs)
    refs = None if args.tiny else checks.load_refs(args.workload)
    runner = Runner(args, work, config_paths)

    if not args.trace:
        # set-up samples on both sides of the workload process, so that they
        # span the run as the rounds do
        setups = [runner.setup_sample() for _ in range(SETUP_SAMPLES // 2)]
        main = runner.spawn(rounds=workloads.rounds(args.workload, args.seconds))
        setups += [runner.setup_sample() for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
        results = [main]
    else:
        main = runner.spawn(rounds=workloads.rounds(args.workload, args.seconds / 2))
        traced = runner.spawn(rounds=1, trace=True)
        results = [main, traced]

    attempted = failed = 0
    reasons = []
    for result in results:
        a, f, why = _check_rounds(args, result, exp, refs)
        attempted, failed, reasons = attempted + a, failed + f, reasons + why
    leaks = main["wrappers"] + (["tracer module imported"] if main["tracer_imported"] else [])

    walls = [r["seconds"] for r in main["rounds"]]
    wall = _scaled_wall(main["rounds"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(walls),
        "round_s": {"median": statistics.median(walls), "min": min(walls), "max": max(walls), "n": len(walls)},
        "work_unit": exp["work_unit"],
        "work_per_round": exp["work"],
        "env": dict(main["env"], git_commit=_git_commit()),
        "failures": reasons,
        "wrapper_leak": leaks,
    }
    if not args.trace:
        metrics = {
            "wall_s": wall,
            "setup_s": min(setups),  # the least disturbed set-up, as for wall_s
            "peak_rss_mb": main["peak_rss_mb"],
            "work_per_s": exp["work"] / wall,
        }
        units = END_TO_END
        report["setup_samples_s"] = setups
    else:
        overhead = traced["rounds"][0]["seconds"] - statistics.median(walls)
        metrics = _layer_metrics(traced["trace"], exp, _json_bytes(traced), overhead)
        _cross_check(args.workload, metrics, traced["trace"], exp)
        units = PER_LAYER
        report["traced_round_s"] = traced["rounds"][0]["seconds"]
        report["spans"] = traced["trace"]["n_spans"]
    report["op_fail_ratio"] = failed / attempted
    return {
        "report": report,
        "result": {
            "correct": failed == 0 and not leaks,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        },
    }


def _print_report(report, result):
    print(f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"rounds={report['rounds']} attempted={result['attempted']} failed={result['failed']} "
          f"op_fail_ratio={report['op_fail_ratio']:.4f}")
    rs = report["round_s"]
    print(f"  round time on the wall clock: median {rs['median']:.4f} s, min {rs['min']:.4f} s, "
          f"max {rs['max']:.4f} s, n={rs['n']}; {report['work_per_round']} {report['work_unit']} per round")
    for name, m in result["metrics"].items():
        alias = f" ({report['work_unit']}_per_s)" if name == "work_per_s" else ""
        print(f"  {name}{alias} = {m['value']:.6g} {m['unit']}")
    for reason in report["failures"][:10]:
        print(f"  FAILED {reason}")
    if report["wrapper_leak"]:
        print(f"  FAILED untraced process carried wrappers: {report['wrapper_leak']}")
    print(f"  env: {json.dumps(report['env'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="shrink every workload (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "mtlopt" / "__init__.py").is_file():
        print(f"perfbench: no mtlopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        out = measure(args, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _print_report(out["report"], out["result"])
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
