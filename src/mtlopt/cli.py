"""Command-line entry point: single runs, learning-rate sweeps, and
convergence verification, with reproducible seeds and structured outputs.

Exit codes: 0 success, 1 config error, 2 numerical abort, 3 verification
failure beyond statistical slack, 4 a sweep cell raised an error.
"""

import argparse
import functools
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import schemes
from .config import ConfigError, RunConfig, load_config
from .objectives import QuadraticSuite, suite_constants
from .tracing import config_comment, covered_distances, write_json, write_trace_csv, write_trace_meta

RATE_SLOPE_RANGE = (-1.3, -0.7)

SWEEP_COLUMNS = ["eta", "scheme", "groups", "seed", "best_val_loss", "total_dist", "shortest_dist", "ratio"]


def _mean_std(values):
    arr = np.asarray(values, dtype=np.float64)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return {"mean": float(arr.mean()), "std": std}


def _execute(cfg: RunConfig, scheme_cfg, seed: int):
    """One run; returns (trace, metrics dict)."""
    trace = schemes.run(
        scheme_cfg,
        cfg.suite,
        cfg.initial_point(seed),
        cfg.steps,
        seed,
        validation_every=cfg.validation_every,
        extra_meta={"config": cfg.raw},  # outputs must suffice to re-run
    )
    dist = covered_distances(trace, shared_mask=cfg.suite.shared_mask)
    metrics = {
        "seed": seed,
        "best_val_loss": trace.best_val_loss,
        "best_val_step": trace.best_val_step,
        "total": dist.total,
        "shortest": dist.shortest,
        "ratio": dist.ratio,
        "degenerate": dist.degenerate,
        "aborted": trace.aborted,
    }
    if trace.val_task_losses:
        metrics["per_task_best_val"] = trace.best_val_task_losses
    return trace, metrics


def cmd_run(cfg: RunConfig, out_dir: Path, seed_offset: int = 0) -> int:
    if len(cfg.schemes) != 1:
        raise ConfigError("config: 'run' needs exactly one scheme")
    seeds = cfg.run_seeds(seed_offset)
    out_dir.mkdir(parents=True, exist_ok=True)
    per_seed = []
    aborted = False
    for seed in seeds:
        trace, metrics = _execute(cfg, cfg.schemes[0], seed)
        write_trace_csv(trace, out_dir / f"trace_seed{seed}.csv")
        write_trace_meta(trace, out_dir / f"trace_seed{seed}.meta.json")
        per_seed.append(metrics)
        aborted = aborted or trace.aborted
        if trace.aborted:
            print(f"seed {seed}: aborted ({trace.abort_reason})", file=sys.stderr)
    summary = {
        "config": cfg.raw,
        "seed_offset": seed_offset,
        "per_seed": per_seed,
        "best_val_loss": _mean_std([m["best_val_loss"] for m in per_seed]),
        "total_dist": _mean_std([m["total"] for m in per_seed]),
        "shortest_dist": _mean_std([m["shortest"] for m in per_seed]),
    }
    write_json(summary, out_dir / "summary.json")
    print(f"wrote {len(per_seed)} trace(s) and summary.json to {out_dir}")
    return 2 if aborted else 0


def _sweep_cell(cfg: RunConfig, scheme_index: int, eta: float, seed: int) -> dict:
    """One sweep cell on the loaded `cfg`, which a worker process gets pickled.
    Results depend only on (config, eta, seed)."""
    scheme = cfg.schemes[scheme_index]
    trace, metrics = _execute(cfg, replace(scheme, lr=schemes.ConstantLR(eta)), seed)
    return dict(metrics, scheme_index=scheme_index, eta=eta, scheme=scheme.scheme, groups=trace.meta["n_units"],
                total_dist=metrics["total"], shortest_dist=metrics["shortest"])


def _cell_name(cfg: RunConfig, cell) -> str:
    i, eta, seed = cell
    return f"schemes[{i}] ({cfg.schemes[i].scheme}), eta {eta!r}, seed {seed}"


def _cell_rows(cfg: RunConfig, cells, results):
    """Yield each cell's row, in cell order, from the iterator `results`. At
    the first cell that raises, report the failure on stderr with its
    traceback and stop."""
    for n, cell in enumerate(cells):
        try:
            row = next(results)
        except Exception as exc:
            import traceback  # here, not at the top: only a failed cell prints one
            traceback.print_exc()
            # A dead worker's BrokenProcessPool fails every pending cell, whichever
            # one it ran. Its base BrokenExecutor is tested: the sequential path
            # never loads concurrent.futures.process, which defines it, and
            # loads concurrent.futures itself only here, on its failure path.
            import concurrent.futures
            if isinstance(exc, concurrent.futures.BrokenExecutor):
                missing = "; ".join(_cell_name(cfg, c) for c in cells[n:])
                print(f"a sweep worker process died; cells without a row: {missing}", file=sys.stderr)
            else:
                print(f"sweep cell {_cell_name(cfg, cell)} failed", file=sys.stderr)
            return
        yield row


def _write_sweep_csv(path: Path, header_meta: dict, rows) -> list:
    """Write `rows` under the config header, flushing each one as it arrives so
    that partial results survive an interruption; returns the rows written."""
    import csv  # here, not at the top: only a sweep writes through it

    written = []
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(config_comment(header_meta))
        writer = csv.writer(f)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([row[c] for c in SWEEP_COLUMNS])
            f.flush()
            written.append(row)
    return written


def _ordinal_ranks(values):
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    ranks[order] = np.arange(1, len(values) + 1)
    return ranks


def _sweep_summary(cfg: RunConfig, rows) -> dict:
    entries = []
    for i, scheme_cfg in enumerate(cfg.schemes):
        by_eta = {}
        for r in rows:
            if r["scheme_index"] == i:
                by_eta.setdefault(r["eta"], []).append(r)
        best_eta = min(sorted(by_eta), key=lambda e: _mean_std([r["best_val_loss"] for r in by_eta[e]])["mean"])
        best = by_eta[best_eta]
        entry = {"scheme": scheme_cfg.scheme, "groups": best[0]["groups"], "best_eta": best_eta}
        for key in ("best_val_loss", "total_dist", "shortest_dist", "ratio"):
            entry[key] = _mean_std([r[key] for r in best])
        if best[0].get("per_task_best_val") is not None:
            entry["per_task_best_val"] = np.mean(
                [r["per_task_best_val"] for r in best], axis=0
            ).tolist()
        entries.append(entry)
    # average rank over loss metrics (lower is better), mirroring summary tables
    if len(entries) > 1:
        metric_vectors = [[e["best_val_loss"]["mean"] for e in entries]]
        if all("per_task_best_val" in e for e in entries):
            n_tasks = len(entries[0]["per_task_best_val"])
            for k in range(n_tasks):
                metric_vectors.append([e["per_task_best_val"][k] for e in entries])
        rank_sum = np.zeros(len(entries))
        for vec in metric_vectors:
            rank_sum += _ordinal_ranks(vec)
        for e, r in zip(entries, rank_sum / len(metric_vectors)):
            e["avg_rank"] = float(r)
    return {"schemes": entries}


def cmd_sweep(cfg: RunConfig, etas, out_dir: Path, seed_offset: int = 0, workers: int = 1) -> int:
    if not cfg.schemes:
        raise ConfigError("config: 'sweep' needs 'scheme' or 'schemes'")
    if not etas:
        raise ConfigError("--etas: grid must be nonempty")
    if workers < 1:
        raise ConfigError(f"--workers: must be at least 1, got {workers}")
    # cells in the order of their rows: scheme, then ascending eta and seed
    cells = [(i, eta, seed) for i in range(len(cfg.schemes)) for eta in sorted(etas)
             for seed in sorted(cfg.run_seeds(seed_offset))]
    out_dir.mkdir(parents=True, exist_ok=True)
    header_meta = {"config": cfg.raw, "etas": etas, "seed_offset": seed_offset}
    csv_path = out_dir / "sweep.csv"

    # a process pool forks all of its workers at once
    workers = min(workers, len(cells), os.cpu_count() or 1)
    pool = None
    if workers > 1:
        import concurrent.futures  # here, not at the top: 6-7 ms of every command's start-up
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
    try:
        results = (map if pool is None else pool.map)(functools.partial(_sweep_cell, cfg), *zip(*cells))
        rows = _write_sweep_csv(csv_path, header_meta, _cell_rows(cfg, cells, results))
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)  # after a failed cell, start no other
    if len(rows) < len(cells):  # a cell failed; sweep.csv keeps the rows before it
        return 4

    summary = _sweep_summary(cfg, rows)
    summary["config"] = cfg.raw
    summary["etas"] = etas
    summary["seed_offset"] = seed_offset
    write_json(summary, out_dir / "sweep_summary.json")
    print(f"wrote {len(rows)} sweep rows to {csv_path}")
    if any(r["aborted"] for r in rows):
        print("some cells aborted on non-finite losses", file=sys.stderr)
        return 2
    return 0


def cmd_verify(cfg: RunConfig, out_dir: Path, seed_offset: int = 0) -> int:
    from . import verify  # here, not at the top: 4-6 ms of the other commands' start-up

    if not isinstance(cfg.suite, QuadraticSuite):
        raise ConfigError("config.objective.family: verification requires the quadratic family")
    seed = cfg.run_seeds(seed_offset)[0]
    w0 = cfg.initial_point(seed)
    v = cfg.verify

    check = "convergence bound"
    try:  # an overflow anywhere in a check aborts it instead of reporting inf or NaN
        with np.errstate(over="raise", invalid="raise"):
            try:  # the bound needs every task strongly convex
                suite_constants(cfg.suite)
            except ValueError as exc:
                raise ConfigError(f"config.objective.tasks: {exc}") from exc
            theorem = verify.verify_theorem(cfg.suite, v["T_list"], v["replicates"], seed, w0)
            check = "per-step inequalities"
            lemma1, lemma2 = verify.verify_lemmas(cfg.suite, v["lemma_steps"], v["lemma_replicates"], seed, w0)
    except ArithmeticError as exc:  # overflow, or a division by a square that underflowed
        print(f"numerical abort in the {check} check: {exc}", file=sys.stderr)
        return 2

    # Rate gate: stochastic suites must show the ~1/T decay; noise-free suites
    # contract at least that fast (or converge exactly), which also passes.
    lo, hi = RATE_SLOPE_RANGE
    stochastic = any(s > 0 for s in theorem["constants"]["sigmas"])
    estimates = [r["estimate"] for r in theorem["rows"]]
    if all(e <= 0.0 for e in estimates):
        slope = None
        rate_pass = True
        rate_note = "exact convergence (all gap estimates are zero)"
    else:
        slope = verify.fit_rate(theorem)
        if stochastic:
            rate_pass = lo <= slope <= hi
            rate_note = f"slope {slope:.4f} in [{lo}, {hi}]"
        else:
            rate_pass = slope <= hi
            rate_note = f"slope {slope:.4f} <= {hi} (noise-free contraction regime)"

    for row in theorem["rows"]:
        status = "pass" if row["pass"] else "FAIL"
        print(
            f"bound T={row['T']:<5d} estimate={row['estimate']:.6g} "
            f"bound={row['bound']:.6g}  {status}"
        )
    n1 = sum(r["pass"] for r in lemma1["rows"])
    n2 = sum(r["pass"] for r in lemma2["rows"])
    print(f"contraction inequality: {n1}/{len(lemma1['rows'])} steps pass")
    print(f"selection-variance inequality: {n2}/{len(lemma2['rows'])} steps pass")
    print(f"rate: {rate_note}: {'pass' if rate_pass else 'FAIL'}")

    all_pass = theorem["all_pass"] and lemma1["all_pass"] and lemma2["all_pass"] and rate_pass
    report = {
        "config": cfg.raw,
        "seed": seed,
        "theorem": theorem,
        "lemma1": lemma1,
        "lemma2": lemma2,
        "rate_slope": slope,
        "rate_slope_range": list(RATE_SLOPE_RANGE),
        "rate_note": rate_note,
        "rate_pass": rate_pass,
        "all_pass": all_pass,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(report, out_dir / "verification.json")
    print(f"wrote {out_dir / 'verification.json'}")
    return 0 if all_pass else 3


def _parse_etas(text: str):
    try:
        etas = [float(x) for x in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"--etas: {exc}") from exc
    if not all(0.0 < e < float("inf") for e in etas):  # NaN fails both comparisons
        raise ConfigError("--etas: learning rates must be positive and finite")
    if len(set(etas)) < len(etas):  # a repeated rate would run its cells twice
        raise ConfigError(f"--etas: values must be distinct, got {etas}")
    return etas


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtlopt",
        description="Multi-task optimization schemes: runs, learning-rate sweeps, and convergence verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="path to a JSON run config")
    common.add_argument("--out", default="mtlopt_out", help="output directory (default: mtlopt_out)")
    common.add_argument("--seed-offset", type=int, default=0, help="added to every configured seed")

    sub.add_parser("run", parents=[common], help="execute one run per seed")
    p_sweep = sub.add_parser("sweep", parents=[common], help="grid over learning rates x seeds x schemes")
    p_sweep.add_argument("--etas", required=True, help="comma- or space-separated learning rates")
    p_sweep.add_argument("--workers", type=int, default=1, help="parallel sweep cells, at least 1 (default 1)")
    sub.add_parser("verify", parents=[common], help="check the convergence bound and per-step inequalities")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out_dir = Path(args.out)
        if args.command == "run":
            return cmd_run(cfg, out_dir, args.seed_offset)
        if args.command == "sweep":
            return cmd_sweep(cfg, _parse_etas(args.etas), out_dir, args.seed_offset, args.workers)
        return cmd_verify(cfg, out_dir, args.seed_offset)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
