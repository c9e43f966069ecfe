"""Self-test of the output checks: damaged outputs must fail their run.

Usage (from the root of a graphdiag checkout):

    python3 bench/selftest.py [SEED]

For each workload, one real run goes through ``run.measure`` with its
output damaged before the check (``accuracies.csv`` truncated for
``ablate-cora``); that run must count as failed. An undamaged copy of the
same output must pass the check, and every other damage listed below,
applied to its own copy, must fail it. Exits non-zero on any miss.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import WORK, measure
from check import CheckError, check_run, load_reference
from workloads import WORKLOADS


def _drop_last_lines(name: str, count: int):
    def damage(out: Path) -> None:
        path = out / name
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:-count]), encoding="utf-8")
    return damage


def _truncate_bytes(name: str):
    def damage(out: Path) -> None:
        path = out / name
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    return damage


def _delete(name: str):
    return lambda out: (out / name).unlink()


def _edit_csv(name: str, row: int, column: int, value: str):
    def damage(out: Path) -> None:
        path = out / name
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[row].split(",")
        cells[column] = value
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return damage


def _edit_json(name: str, edit):
    def damage(out: Path) -> None:
        path = out / name
        data = json.loads(path.read_text(encoding="utf-8"))
        edit(data)
        path.write_text(json.dumps(data), encoding="utf-8")
    return damage


def _shift_u_original(report: dict) -> None:
    report["uncertainty"]["original"]["mean"] += 0.1
    report["verdict"]["u_original"] = report["uncertainty"]["original"]["mean"]


def _scale_accuracies(out: Path) -> None:
    """Every accuracy halved: structurally valid, numerically wrong."""
    path = out / "accuracies.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [lines[0]] + [",".join(r.split(",")[:-1] + [repr(float(r.split(",")[-1]) / 2)])
                         for r in lines[1:]]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


# the first damage of each list is the one run through measure()
DAMAGES = {
    "ablate": [
        ("truncated accuracies.csv", _drop_last_lines("accuracies.csv", 5)),
        ("accuracy above 1", _edit_csv("accuracies.csv", 3, 5, "1.5")),
        ("accuracies halved", _scale_accuracies),
        ("report.json cut in half", _truncate_bytes("report.json")),
        ("report.json missing", _delete("report.json")),
        ("U(original) moved by 0.1", _edit_json("report.json", _shift_u_original)),
    ],
    "perturb": [
        ("sweep.csv missing its last row", _drop_last_lines("sweep.csv", 1)),
        ("U mean at 0.3 moved", _edit_csv("sweep.csv", 4, 1, "0.9")),
        ("negative accuracy", _edit_csv("sweep.csv", 2, 3, "-0.1")),
    ],
    "analyze": [
        ("truncated partition.tsv", _drop_last_lines("partition.tsv", 100)),
        ("modularity moved by 0.05",
         _edit_json("analyze.json", lambda d: d.update(modularity=d["modularity"] + 0.05))),
        ("U value above 1", _edit_json("analyze.json", lambda d: d["u_values"].__setitem__(0, 1.2))),
        ("analyze.json missing", _delete("analyze.json")),
    ],
}


def main(seed: int) -> int:
    reference = load_reference()
    misses = []
    for workload in WORKLOADS.values():
        damages = DAMAGES[workload.command]
        clean = WORK / f"selftest-{workload.name}"

        def keep_then_damage(out: Path) -> None:
            shutil.rmtree(clean, ignore_errors=True)
            shutil.copytree(out, clean)
            damages[0][1](out)

        runs = measure(workload, seed, 0, False, corrupt=keep_then_damage)["runs"]
        if not all("output check failed" in r.get("error", "") for r in runs):
            misses.append(f"{workload.name}: run with {damages[0][0]} was not failed")
        try:
            check_run(workload, clean, seed, reference)
        except CheckError as exc:
            misses.append(f"{workload.name}: clean output rejected: {exc}")
        for label, damage in damages:
            copy = WORK / f"selftest-{workload.name}-damaged"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(clean, copy)
            damage(copy)
            try:
                check_run(workload, copy, seed, reference)
                misses.append(f"{workload.name}: {label} passed the check")
            except CheckError as exc:
                print(f"{workload.name}: {label} -> rejected ({exc})")
            shutil.rmtree(copy)
        shutil.rmtree(clean)
        shutil.rmtree(WORK / f"{workload.name}-seed{seed}-trace0", ignore_errors=True)
    for miss in misses:
        print(f"MISS {miss}")
    print("selftest " + ("failed" if misses else "passed"))
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 0))
