"""Record the summary figures that the output checks compare against.

Usage (from the root of a graphdiag checkout):

    python3 bench/record_reference.py SEED [SEED ...]

Runs every workload once per seed on this checkout, validates the output's
structure, and merges the summaries into bench/reference.json. Recording
is done once, at the commit whose results are the reference.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import WORK, run_once
from check import REFERENCE_PATH, summarize
from workloads import WORKLOADS, write_workload


def main(seeds: list[int]) -> int:
    reference = (json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
                 if REFERENCE_PATH.is_file() else {})
    for workload in WORKLOADS.values():
        recorded = reference.setdefault(workload.name, {})
        for seed in seeds:
            work = WORK / f"reference-{workload.name}-seed{seed}"
            shutil.rmtree(work, ignore_errors=True)
            write_workload(workload, seed, work / "input")
            run = run_once(workload, work / "input", work / "run", "run",
                           jobs=workload.jobs, timeout=600.0)
            if "error" in run:
                raise SystemExit(f"{workload.name} seed {seed}: {run['error']}")
            recorded[str(seed)] = summarize(workload, work / "run")
            print(f"{workload.name} seed {seed}: {run['wall_s']:.1f} s", flush=True)
            shutil.rmtree(work)
        reference[workload.name] = dict(sorted(recorded.items(), key=lambda kv: int(kv[0])))
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
