"""Record the reference outputs the benchmark compares against.

    python3 perfbench/record_refs.py

Runs each CLI workload once at full size and the reference seed, and writes
refs/<workload>.json: sha256 digests of the CSV bodies and JSON outputs, or,
for quad_verify, verification.json itself. Re-record only when a change is
meant to alter outputs, and say so with the size of the change.
"""

import contextlib
import json
import shutil
import sys
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from mtlopt import cli

    work = ROOT / ".perfbench_work" / "record_refs"
    shutil.rmtree(work, ignore_errors=True)
    checks.REFS_DIR.mkdir(exist_ok=True)
    try:
        for workload in ("mlp_sweep", "quad_verify", "quad_run"):
            refs = {}
            for label, cfg in workloads.configs(workload).items():
                cfg_path, out = work / f"{workload}-{label}.json", work / workload / label
                cfg_path.parent.mkdir(parents=True, exist_ok=True)
                cfg_path.write_text(json.dumps(cfg))
                argv = workloads.cli_argv(workload, label, str(cfg_path), str(out), checks.REFERENCE_SEED)
                with contextlib.redirect_stdout(sys.stderr):
                    rc = cli.main(argv)
                if rc != 0:
                    print(f"{workload}/{label}: exit code {rc}", file=sys.stderr)
                    return 1
                refs[label] = checks.reference_of(workload, out)
            path = checks.REFS_DIR / f"{workload}.json"
            path.write_text(json.dumps(refs, sort_keys=True, indent=1) + "\n")
            print(f"wrote {path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
