"""Regenerate reference.json, the outputs every workload must reproduce.

    python3 perfbench/make_reference.py

Runs one pass of each workload for seeds 0 .. REFERENCE_SEEDS-1 with the
current sources and stores its output fingerprint. run.py compares every pass
with the entry for its seed. Regenerate only for a change that is meant
to alter results, and state in that change how far they moved.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

REFERENCE_SEEDS = 32


def main() -> int:
    error = run.prepare()
    if error:
        print(error, file=sys.stderr)
        return 2
    import workloads

    reference: dict[str, dict] = {}
    run.WORK.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        entries = reference[name] = {}
        for seed in range(REFERENCE_SEEDS):
            workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=run.WORK))
            workload = workloads.WORKLOADS[name](seed, workdir)
            try:
                workload.setup()
                result = workload.run_pass()
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if result.problems:
                print(f"{name} seed {seed}: {result.problems}", file=sys.stderr)
                return 1
            entries[str(seed)] = result.fingerprint
            print(f"{name} seed {seed}: {result.wall_s:.2f} s", flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
