"""graphdiag benchmark: run one workload for a fixed time and report metrics.

Usage (from the root of a graphdiag checkout):

    python3 bench/run.py --workload ablate-cora --seed 0 --seconds 30 --trace 0

The workload's inputs are generated from ``--seed`` (see workloads.py).
Each run is one fresh ``graphdiag`` process over those inputs, started
only after the previous one has exited (a closed loop with one client).
Runs repeat while another one is expected to fit in ``--seconds``; at
least one always runs. Every run's output is checked (check.py); a
non-zero exit, a timeout or a failed check counts the run as failed.

With ``--trace 0`` the end-to-end metrics are medians over the runs that
passed. Before them come ``SETUP_SAMPLES`` launches that stop once the
dataset is loaded, so ``setup_s`` is a median over several set-ups. With ``--trace 1`` traced runs (tracing.py) alternate with
untraced ones, all at ``--jobs 1`` so every span stays in one process;
the per-layer metrics come from the traced runs, and the traced-over-
untraced wall time gives the tracing overhead. The last line of standard
output is one JSON object with the result. Details of every run, the host
and the spans of the last traced run go to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

STARTED = time.monotonic()
# one BLAS thread per process, set before numpy loads here or in any run
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path.cwd()
SRC = ROOT / "src"
if not (SRC / "graphdiag" / "__init__.py").is_file():
    sys.exit(f"{SRC / 'graphdiag'} not found: run from the root of a graphdiag checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from check import CheckError, check_run, load_reference, output_digest, records_in_output  # noqa: E402
from tracing import metric_units  # noqa: E402
from workloads import WORKLOADS, write_workload  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
# the whole benchmark must exit within 180 s; a run still going then is killed
HARD_LIMIT_S = 170.0
# set-up-only launches per untraced run, so setup_s is a median of several
SETUP_SAMPLES = 3
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "records_per_s": "1/s"}


def host_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "loadavg_1m": os.getloadavg()[0],
    }


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_once(workload, input_dir: Path, out: Path, mode: str, jobs: int,
             timeout: float) -> dict:
    """Start one graphdiag process, wait for it, and measure it.

    ``mode`` is ``run`` (untraced), ``trace`` or ``setup`` (stop once the
    dataset is loaded); see launch.py.

    CPU time and peak RSS come from wait4, so they cover the process and
    every pool worker it reaped. Its process group is killed afterwards,
    which stops anything left behind, and on timeout.
    """
    sidecar = out.with_suffix(".json")
    spans = out.with_suffix(".spans.jsonl")
    argv = [sys.executable, str(BENCH_DIR / "launch.py"), str(sidecar),
            mode, str(spans), "--", workload.command, "config.json",
            "--out", str(out), "--jobs", str(jobs)]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    timed_out = threading.Event()
    with open(out.with_suffix(".log"), "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=input_dir, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)

        def expire():
            timed_out.set()
            _kill_group(proc.pid)

        timer = threading.Timer(max(timeout, 1.0), expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            _kill_group(proc.pid)
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = {"mode": mode, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
           "peak_rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode,
           "spans": str(spans) if mode == "trace" else None}
    if timed_out.is_set():
        run["error"] = f"timed out after {timeout:.0f} s"
    elif proc.returncode != 0:
        tail = out.with_suffix(".log").read_text(errors="replace").splitlines()[-5:]
        run["error"] = f"exit code {proc.returncode}: " + " | ".join(tail)
    else:
        report = json.loads(sidecar.read_text(encoding="utf-8"))
        run["setup_s"] = report["setup_end"] - start
        run["layers"] = report.get("layers")
    return run


def measure(workload, seed: int, seconds: float, trace: bool, corrupt=None) -> dict:
    """Generate the inputs, loop runs for ``seconds``, check each output.

    ``corrupt``, when given, is applied to each output before it is checked,
    so a test can confirm that a damaged output fails its run.
    """
    work = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    input_dir = work / "input"
    write_workload(workload, seed, input_dir)
    reference = load_reference()
    jobs = 1 if trace else workload.jobs
    modes = ("trace", "run") if trace else ("run",)
    began = time.monotonic()
    setups = [] if trace else [
        run_once(workload, input_dir, work / f"setup{i}", "setup", jobs, HARD_LIMIT_S)
        for i in range(SETUP_SAMPLES)]
    runs = []
    for i in itertools.count():
        out = work / f"run{i}"
        remaining = HARD_LIMIT_S - (time.monotonic() - STARTED)
        run = run_once(workload, input_dir, out, modes[i % len(modes)], jobs, remaining)
        if "error" not in run:
            try:
                if corrupt is not None:
                    corrupt(out)
                run["summary"] = check_run(workload, out, seed, reference)
                run["records"] = records_in_output(workload, out)
                run["sha256"] = output_digest(workload, out)
            except (CheckError, OSError) as exc:
                run["error"] = f"output check failed: {exc}"
        runs.append(run)
        typical = statistics.median(r["wall_s"] for r in runs)
        now = time.monotonic()
        fits_limit = now - STARTED + typical < HARD_LIMIT_S
        wanted = len(runs) < len(modes) or now - began + typical <= seconds
        if not (fits_limit and wanted):
            break
    return {"work": work, "setups": setups, "runs": runs}


def _median(values) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end_metrics(runs: list[dict], setups: list[dict]) -> dict[str, float]:
    """Medians over ``runs``; ``setup_s`` also over the set-up-only launches
    (a failed launch has no ``setup_s`` and drops out)."""
    return {
        "wall_s": _median(r["wall_s"] for r in runs),
        "setup_s": _median(r.get("setup_s") for r in setups + runs),
        "cpu_s": _median(r["cpu_s"] for r in runs),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in runs),
        "records_per_s": _median(r["records"] / r["wall_s"] for r in runs if "records" in r),
    }


def layer_metrics(runs: list[dict]) -> dict[str, float]:
    traced = [r for r in runs if r["mode"] == "trace" and r.get("layers")]
    untraced = [r for r in runs if r["mode"] == "run"]
    out = {name: _median(r["layers"].get(name) for r in traced) for name in metric_units()}
    if traced and untraced:
        out["trace.overhead_frac"] = (statistics.median(r["wall_s"] for r in traced)
                                      / statistics.median(r["wall_s"] for r in untraced) - 1.0)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    host = host_info()
    result = measure(workload, args.seed, args.seconds, bool(args.trace))
    runs = result["setups"] + result["runs"]
    failed = sum("error" in r for r in runs)
    failed_frac = failed / len(runs)
    passed = [r for r in result["runs"] if "error" not in r] or result["runs"]
    if args.trace:
        values, units = layer_metrics(passed), metric_units()
    else:
        values, units = end_to_end_metrics(passed, result["setups"]), END_TO_END_UNITS

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    traced = [r for r in runs if r["spans"] and Path(r["spans"]).is_file()]
    if traced:
        shutil.copyfile(traced[-1]["spans"], results / f"{stem}.spans.jsonl")
    for r in runs:
        r.pop("spans")
    (results / f"{stem}.json").write_text(json.dumps(
        {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
         "host": host, "runs": runs, "failed_frac": failed_frac, "metrics": values},
        indent=2) + "\n", encoding="utf-8")
    shutil.rmtree(result["work"], ignore_errors=True)

    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    for r in runs:
        if "error" in r:
            print(f"run failed: {r['error']}")
    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    print(f"failed_frac {failed_frac} ratio ({failed} of {len(runs)} runs)")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(runs), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
