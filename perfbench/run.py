#!/usr/bin/env python3
"""Benchmark of ``bsc-estim run`` on four fixed sweep workloads.

Run from the repository root:

    python3 perfbench/run.py --workload snr_full --seed 1 --seconds 20 --trace 0

``--trace 0`` drives the CLI as a closed loop with one client: one study at
a time, each in a fresh process, the next started only after the previous
one exited.  It reports end-to-end metrics.  ``--trace 1`` runs the same
study in-process under ``perfbench/tracer.py`` and reports per-layer
metrics.  ``--workload all`` measures every workload in turn.

Every run's CSV is checked against ``perfbench/reference/<workload>.csv.gz``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  NOTES.md explains
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

# Every workload config carries this seed; the reference CSVs were taken at it.
DEFAULT_SEED = 1
# Closed loop: at least this many studies per measurement, even when one
# study outlasts --seconds (lmmse_n40 takes about 15 s).
MIN_RUNS = 2
SETUP_REPEATS = 9
# Any single child is killed after this long; the benchmark must end in 180 s.
CHILD_TIMEOUT_S = 170.0

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "GOTO_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    workers: int
    blas_threads: str | None     # OPENBLAS_NUM_THREADS; None keeps the default
    passes: int                  # vector-estimate passes per trial and flavor


WORKLOADS = {
    # SNR_SWEEP, N = K = 20, BOTH: the K = N eigenpath plus draw and
    # backscatter; every trial is drawn once per flavor.
    "snr_full": Workload(workers=1, blas_threads=None, passes=1),
    # K_SWEEP over K = 1, 10, 20 at 0 dB training SNR: mid-K reduction plus
    # Newton refinement, two passes over the same trials, no LMMSE.
    "k_sweep_mid": Workload(workers=1, blas_threads=None, passes=2),
    # SNR_SWEEP, N = K = 40, LMMSE: the dense NK x NK gain build and apply,
    # and the only workload that uses the process pool.
    "lmmse_n40": Workload(workers=2, blas_threads="1", passes=1),
    # COMPARE over 5000 ranges: closed forms, optimizer bisection and CSV
    # output; no Monte Carlo trials.
    "design_sweep": Workload(workers=1, blas_threads=None, passes=0),
}

END_TO_END_UNITS = {
    "run_s": "s",
    "units_per_s": "1/s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}

_SETUP_CODE = ("import sys, bsc_estim\n"
               "from bsc_estim.experiments import load_config\n"
               "load_config(sys.argv[1])\n")

_WARMUP_CODE = "import bsc_estim.cli, bsc_estim.experiments\n"

_PROBE_CODE = r"""
import ctypes, glob, json, os, platform, sys
import numpy as np
import bsc_estim
blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
for path in glob.glob(os.path.join(libdir, "*openblas*")):
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        if hasattr(lib, sym):
            fn = getattr(lib, sym)
            fn.restype = ctypes.c_int
            threads = fn()
            break
print(json.dumps({
    "python": platform.python_version(),
    "numpy": np.__version__,
    "blas": blas.get("name"),
    "blas_version": blas.get("version"),
    "blas_threads_runtime": threads,
    "bsc_estim": os.path.realpath(bsc_estim.__file__),
}))
"""


@dataclass(frozen=True)
class ChildResult:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def child_env(w: Workload) -> dict[str, str]:
    """Environment of every child: the checkout's sources and the workload's BLAS setting."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    if w.blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = w.blas_threads
    return env


def run_child(cmd: list[str], env: dict[str, str], stderr_path: Path) -> ChildResult:
    """Run one process to completion and read its own resource usage.

    ``os.wait4`` returns the usage of that child plus every descendant it
    reaped (the pool workers), so the peak RSS is this run's alone and no
    high-water mark carries over from an earlier run.
    """
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0)


def _tail(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def reference_csv(name: str) -> str:
    """The workload's CSV at the default seed, stored gzipped."""
    with gzip.open(HERE / "reference" / f"{name}.csv.gz", "rt", encoding="utf-8",
                   newline="") as fh:
        return fh.read()


def check_csv(path: Path, want_text: str, seed: int) -> str | None:
    """Why the CSV at ``path`` is wrong, or None when it passes.

    At the default seed the bytes must equal the reference.  At any other
    seed the rows must come in the reference's order with the same sweep
    value, metric and trial count; closed-form rows (trials = 0) must match
    the reference exactly, and every value must be finite.
    """
    try:
        text = path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return f"cannot read {path.name}: {exc}"
    if seed == DEFAULT_SEED:
        return None if text == want_text else "differs from the reference CSV"
    got, want = text.splitlines(), want_text.splitlines()
    if got[:1] != want[:1]:
        return "header differs from the reference"
    if len(got) != len(want):
        return f"{len(got) - 1} rows, reference has {len(want) - 1}"
    for line, ref_line in zip(got[1:], want[1:]):
        cols, ref_cols = line.split(","), ref_line.split(",")
        if len(cols) != 5 or [cols[i] for i in (0, 1, 4)] != [ref_cols[i] for i in (0, 1, 4)]:
            return f"row {line!r} where the reference has {ref_line!r}"
        if ref_cols[4] == "0" and line != ref_line:
            return f"closed-form row {line!r} differs from {ref_line!r}"
        try:
            value, std_error = float(cols[2]), float(cols[3])
        except ValueError:
            return f"unparsable row {line!r}"
        if not (math.isfinite(value) and math.isfinite(std_error) and std_error >= 0):
            return f"non-finite value in {line!r}"
    return None


def work_units(ref_text: str) -> int:
    """Requested trials (grid points x flavors x trials), or sweep points without trials."""
    rows = [line.split(",") for line in ref_text.splitlines()[1:]]
    trials = sum(int(r[4]) for r in rows if r[1].startswith("snr_mc_"))
    return trials or len({r[0] for r in rows})


def commit_id() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the package sources, which identifies the code outside git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "bsc_estim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(name: str, w: Workload, seed: int, env: dict[str, str]) -> dict:
    probe = subprocess.run([sys.executable, "-c", _PROBE_CODE], env=env, cwd=ROOT,
                           capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if probe.returncode != 0:
        raise SystemExit(f"environment probe failed: {probe.stderr.strip()}")
    info = json.loads(probe.stdout.splitlines()[-1])
    if not Path(info["bsc_estim"]).is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported bsc_estim from {info['bsc_estim']}, not from {SRC}")
    return {
        "workload": name,
        "seed": seed,
        "commit": commit_id(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **info,
        "blas_threads_setting": w.blas_threads or "default",
        "workers": w.workers,
    }


def cli_command(name: str, seed: int, workers: int, out: Path) -> list[str]:
    return [sys.executable, "-m", "bsc_estim.cli", "run",
            "--config", str(HERE / "workloads" / f"{name}.cfg"),
            "--seed", str(seed), "--workers", str(workers), "--out", str(out)]


def measure_end_to_end(name: str, seed: int, seconds: float) -> dict:
    """Closed-loop timing of whole CLI runs, tracing off."""
    w = WORKLOADS[name]
    env = child_env(w)
    cfg = str(HERE / "workloads" / f"{name}.cfg")
    ref = reference_csv(name)
    log = OUT / f"{name}.stderr"

    # Writes the bytecode caches once; a user pays that only at install.
    warm = run_child([sys.executable, "-c", _WARMUP_CODE], env, log)
    if warm.returncode != 0:
        raise SystemExit(f"cannot import bsc_estim from {SRC}: {_tail(log)}")
    setups = []
    for _ in range(SETUP_REPEATS):
        res = run_child([sys.executable, "-c", _SETUP_CODE, cfg], env, log)
        if res.returncode != 0:
            raise SystemExit(f"loading {cfg} failed: {_tail(log)}")
        setups.append(res.wall_s)
    env_info = environment(name, w, seed, env)

    units = work_units(ref)
    csv = OUT / f"{name}.csv"
    runs: list[ChildResult] = []
    problems: list[str] = []
    t0 = time.perf_counter()
    while len(runs) + len(problems) < MIN_RUNS or time.perf_counter() - t0 < seconds:
        csv.unlink(missing_ok=True)
        res = run_child(cli_command(name, seed, w.workers, csv), env, log)
        problem = (f"exit code {res.returncode}: {_tail(log)}" if res.returncode
                   else check_csv(csv, ref, seed))
        print(f"[{name}] run {len(runs) + len(problems) + 1}: {res.wall_s:.3f} s wall, "
              f"{res.cpu_s:.3f} s cpu, {res.peak_rss_mb:.1f} MiB"
              + (f", FAILED: {problem}" if problem else ""), file=sys.stderr)
        if problem:
            problems.append(problem)
        else:
            runs.append(res)

    # Means, not medians, over the window's runs: the host's speed drifts for
    # tens of seconds at a time, and the mean spread less across windows
    # (NOTES.md, Steadiness).  Set-up keeps the median of its samples.
    metrics = {}
    if runs:
        metrics = {
            "run_s": statistics.fmean(r.wall_s for r in runs),
            "units_per_s": units * len(runs) / sum(r.wall_s for r in runs),
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.fmean(r.cpu_s for r in runs),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        }
    return {
        "env": env_info,
        "units_per_run": units,
        "runs": [vars(r) for r in runs],
        "setup_samples_s": setups,
        "attempted": len(runs) + len(problems),
        "failed": len(problems),
        "problems": problems,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


def _count_problems(name: str, counts: list[dict[str, int]]) -> list[str]:
    """Cross-check the traced call counts against each other and the workload."""
    problems = []
    if any(c != counts[0] for c in counts[1:]):
        problems.append("call counts differ between traced runs")
    c = counts[0]
    expected = work_units(reference_csv(name)) * WORKLOADS[name].passes
    chain = {k: c.get(k, 0) for k in ("channel.draw_channel", "channel.backscatter",
                                       "estimators.ls_matrix")}
    if len(set(chain.values())) != 1:
        problems.append(f"draw, backscatter and ls_matrix calls differ: {chain}")
    if c.get("estimators.vector_estimate", 0) != expected:
        problems.append(f"{c.get('estimators.vector_estimate', 0)} vector_estimate calls, "
                        f"expected trials x points x flavors x passes = {expected}")
    return problems


def measure_layers(name: str, seed: int, seconds: float) -> dict:
    """Traced in-process runs, one worker, with untraced runs for the overhead."""
    w = WORKLOADS[name]
    env = child_env(w)
    env_info = environment(name, w, seed, env)
    csv = OUT / f"{name}-trace.csv"
    csv.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "tracer.py"),
           "--config", str(HERE / "workloads" / f"{name}.cfg"), "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(csv),
           "--spans", str(OUT / f"{name}-spans.json")]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"env": env_info, "attempted": 1, "failed": 1,
                "problems": ["traced study timed out"], "metrics": {}}
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return {"env": env_info, "attempted": 1, "failed": 1,
                "problems": [f"tracer exit code {proc.returncode}"], "metrics": {}}
    report = json.loads(proc.stdout.splitlines()[-1])
    runs = report["runs"]
    # The CSV on disk is the last run's; every other run must match its bytes.
    bad = check_csv(csv, reference_csv(name), seed)
    problems = [f"run {i + 1}: " + (f"exit code {r['returncode']}" if r["returncode"]
                                    else bad or "CSV bytes differ from the last run")
                for i, r in enumerate(runs)
                if r["returncode"] or bad or r["csv_sha256"] != runs[-1]["csv_sha256"]]
    failed = len(problems)
    problems += _count_problems(name, report["counts"])
    return {
        "env": env_info,
        "runs": runs,
        "not_applicable": report["not_applicable"],
        "attempted": len(runs),
        "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
    }


def _print_table(name: str, result: dict) -> None:
    print(f"== {name}: {result['attempted']} runs attempted, {result['failed']} failed, "
          f"fail_frac {result['failed'] / max(result['attempted'], 1):g}")
    for key, m in result["metrics"].items():
        print(f"   {key:<44} {m['value']:>14.6g} {m['unit']}")
    if result.get("not_applicable"):
        print(f"   not applicable on {name}: {', '.join(result['not_applicable'])}")
    for problem in result["problems"]:
        print(f"   FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bsc_estim" / "__init__.py").is_file():
        print(f"no program sources at {SRC / 'bsc_estim'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    measure = measure_layers if args.trace else measure_end_to_end
    results = {name: measure(name, args.seed, args.seconds) for name in names}
    for name, result in results.items():
        print(json.dumps({"env": result["env"]}))
        _print_table(name, result)
        (OUT / f"result-{name}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1) + "\n")

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    measured = all(r["metrics"] for r in results.values())
    correct = measured and not any(r["problems"] for r in results.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if measured else 1


if __name__ == "__main__":
    sys.exit(main())
