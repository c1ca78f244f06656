"""Output checks that decide whether an operation failed.

An operation fails on a nonzero exit or an exception; on a JSON output that
is not strict JSON (NaN or Infinity); on an invariant that needs no reference
(trace rows against configured updates, sweep rows against cells, all_pass,
the finite-difference tolerance); and, at the reference seed, on outputs that
differ from the ones recorded in refs/. CSV bodies and run/sweep JSON must be
byte-identical there; verification.json numbers may differ by 1e-12 relative,
so an engine that reorders arithmetic is not scored as a failure.
"""

import hashlib
import json
import math
from pathlib import Path

import workloads

REFS_DIR = Path(__file__).resolve().parent / "refs"
REFERENCE_SEED = 0
VERIFY_RTOL = 1e-12


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def csv_body(path: Path) -> bytes:
    """File contents minus '#' comment lines."""
    return b"".join(line for line in path.read_bytes().splitlines(keepends=True) if not line.startswith(b"#"))


def digests(op_dir: Path) -> dict:
    """Relative path -> sha256 of each CSV body and each JSON file."""
    out = {}
    for path in sorted(op_dir.rglob("*")):
        if path.suffix == ".csv":
            data = csv_body(path)
        elif path.suffix == ".json":
            data = path.read_bytes()
        else:
            continue
        out[path.relative_to(op_dir).as_posix()] = hashlib.sha256(data).hexdigest()
    return out


def close(a, b, rtol=VERIFY_RTOL, where="$") -> list:
    """Differences between two JSON values: numbers within rtol relative,
    everything else (pass flags, strings, shapes) exactly equal."""
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None or isinstance(a, str):
        return [] if a == b and type(a) is type(b) else [f"{where}: {a!r} != {b!r}"]
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if a == b or abs(a - b) <= rtol * max(abs(a), abs(b)):
            return []
        return [f"{where}: {a!r} != {b!r}"]
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            return [f"{where}: keys {sorted(set(a) ^ set(b))} differ"]
        return [d for k in sorted(a) for d in close(a[k], b[k], rtol, f"{where}.{k}")]
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{where}: length {len(a)} != {len(b)}"]
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in close(x, y, rtol, f"{where}[{i}]")]
    return [f"{where}: {type(a).__name__} != {type(b).__name__}"]


def load_refs(workload: str):
    path = REFS_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else None


def reference_of(workload: str, op_dir: Path):
    """What refs/ records for one operation's outputs."""
    if workload == "quad_verify":
        return strict_json((op_dir / "verification.json").read_text())
    return digests(op_dir)


def _csv_rows(path: Path) -> int:
    return max(0, len(csv_body(path).splitlines()) - 1)  # minus the column header


def check_op(workload, op, op_dir: Path, exp: dict, refs, seed: int, tiny: bool) -> list:
    """Reasons this operation failed; empty when it passed."""
    if op.get("error"):
        return [op["error"].strip().splitlines()[-1]]
    if workload == "mlp_gradcheck":
        err = op["fd_error"]
        if not (isinstance(err, float) and math.isfinite(err) and err <= workloads.GRADCHECK_TOL):
            return [f"finite-difference error {err!r} above {workloads.GRADCHECK_TOL}"]
        return []
    problems = []
    if op["rc"] != 0:
        problems.append(f"exit code {op['rc']}")
    parsed = {}
    for path in sorted(op_dir.rglob("*.json")):
        try:
            parsed[path.name] = strict_json(path.read_text())
        except ValueError as exc:
            problems.append(f"{path.name}: {exc}")
    if workload == "quad_run":
        traces = sorted(op_dir.glob("trace_seed*.csv"))
        if not traces:
            problems.append("no trace written")
        want = exp["trace_rows"][op["label"]]
        for path in traces:
            rows = _csv_rows(path)
            if rows != want:
                problems.append(f"{path.name}: {rows} rows, expected {want}")
    elif workload == "mlp_sweep":
        path = op_dir / "sweep.csv"
        rows = _csv_rows(path) if path.exists() else 0
        if rows != exp["sweep_rows"]:
            problems.append(f"sweep.csv: {rows} rows, expected {exp['sweep_rows']}")
    elif workload == "quad_verify":
        if parsed.get("verification.json", {}).get("all_pass") is not True:
            problems.append("verification.json: all_pass is not true")
    if problems or tiny or seed != REFERENCE_SEED:
        return problems
    if refs is None:
        return [f"no reference recorded for {workload}"]
    want = refs.get(op["label"])
    got = reference_of(workload, op_dir)
    if workload == "quad_verify":
        diffs = close(got, want)
        return [f"verification.json differs from reference at {d}" for d in diffs[:3]]
    return [f"{name} differs from reference" for name in sorted(set(got) | set(want or {}))
            if got.get(name) != (want or {}).get(name)]
