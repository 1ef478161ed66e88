"""Command-line front end: run sweeps, print the joint design, self-test.

numpy is imported inside the commands, not here, so that :func:`main` can
choose OpenBLAS's thread count before numpy loads it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import KERNEL_BLAS_THREADS

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

# The variables OpenBLAS reads its thread count from when it loads
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsc-estim",
        description="Backscatter reader channel-estimation and resource-allocation studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the configured sweep and write CSV")
    run.add_argument("--config", required=True, help="key = value config file")
    run.add_argument("--seed", type=int, default=None, help="override config seed")
    run.add_argument("--trials", type=int, default=None, help="override trial count")
    run.add_argument("--workers", type=int, default=None,
                     help="worker processes (default: the config's workers; "
                          "0 means the CPUs this process may use)")
    run.add_argument("--out", default=None, help="override output CSV path")

    opt = sub.add_parser("optimize", help="print the jointly optimal design")
    opt.add_argument("--config", required=True)

    sub.add_parser("selftest", help="run quick analytic consistency checks")
    return parser


def _default_blas_threads() -> None:
    """Start OpenBLAS at :data:`~bsc_estim.KERNEL_BLAS_THREADS` threads.

    OpenBLAS reads its thread count once, when numpy loads it, and its idle
    helper threads busy-wait from then on; pinning the count later does not
    stop that.  So the default goes into the environment before numpy is
    imported.  Nothing changes when the user set any of OpenBLAS's variables,
    or when numpy is loaded already (an in-process caller), where the
    variable could no longer act and would only leak into the process.
    """
    if "numpy" in sys.modules or any(v in os.environ for v in _BLAS_THREAD_VARS):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = str(KERNEL_BLAS_THREADS)


def _run_header(workers: int) -> str:
    """One line on what a run runs with: workers, BLAS build, BLAS threads."""
    import numpy as np

    from .snr import blas_threads

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        build = "unknown"
    start = blas_threads()
    threads = ("blas_threads=unpinned (no OpenBLAS loaded in this process)"
               if start is None else
               f"blas_threads_at_start={start}, kernel_blas_threads={KERNEL_BLAS_THREADS}")
    return f"bsc-estim run: workers={workers}, blas={build}, {threads}"


def _cmd_run(args) -> int:
    from dataclasses import replace

    from .experiments import (
        ConfigError,
        ResultTable,
        iter_experiment,
        load_config,
        resolve_workers,
        write_csv,
    )

    overrides = {"seed": args.seed, "trials": args.trials,
                 "workers": args.workers, "output_path": args.out}
    try:
        # replace() re-checks each override against the config's own rule
        cfg = replace(load_config(args.config),
                      **{k: v for k, v in overrides.items() if v is not None})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    # checked before the sweep runs, not when its rows are written
    if not cfg.output_path:
        print("config error: output path is empty", file=sys.stderr)
        return EXIT_VALIDATION
    directory = os.path.dirname(cfg.output_path) or "."
    if not os.path.isdir(directory):
        print(f"config error: output directory does not exist: {directory!r}",
              file=sys.stderr)
        return EXIT_VALIDATION
    if os.path.isdir(cfg.output_path):
        print(f"config error: output path is a directory: {cfg.output_path!r}",
              file=sys.stderr)
        return EXIT_VALIDATION

    cfg = replace(cfg, workers=resolve_workers(cfg.workers))
    print(_run_header(cfg.workers), file=sys.stderr)
    tables = []
    try:
        for table in iter_experiment(cfg):
            tables.append(table)
    except Exception as exc:  # noqa: BLE001 - flush what we have, then report
        if tables:
            # never at the output path, where it would pass for a whole run
            partial = f"{cfg.output_path}.partial"
            try:
                rows = ResultTable.concat(tables)
                write_csv(rows, partial)
                print(f"wrote {len(rows)} partial rows to {partial}",
                      file=sys.stderr)
            except Exception as write_exc:  # noqa: BLE001 - say what was lost
                print(f"could not write partial rows to {partial}: {write_exc}",
                      file=sys.stderr)
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    try:
        rows = ResultTable.concat(tables)
        write_csv(rows, cfg.output_path)
    except Exception as exc:  # noqa: BLE001
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {len(rows)} rows to {cfg.output_path}")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    import numpy as np

    from .experiments import ConfigError, load_config
    from .optimizer import decide

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        outcome = decide(cfg.params, cfg.has_prior_stats)
    except Exception as exc:  # noqa: BLE001
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(json.dumps({
        "tau_c_opt": outcome.tau_c_opt,
        "k_opt": outcome.k_opt,
        "predicted_snr": outcome.predicted_snr,
        "predicted_snr_db": 10.0 * np.log10(outcome.predicted_snr),
        "decision_path": outcome.decision_path,
        "estimator_choice": outcome.estimator_choice,
    }, indent=2))
    return EXIT_OK


def _selftest_checks():
    import numpy as np

    from .channel import PilotConfig, SystemParams, backscatter, build_pilots, draw_channel
    from .estimators import ls_matrix, vector_estimate
    from .optimizer import optimal_ta, snr_threshold
    from .snr import snr_approx, snr_isotropic, snr_perfect_csi

    params = SystemParams()     # the reference setup
    n, p_t, a0, tau_c = (params.n_antennas, params.tx_power, params.tag_amp_ce,
                         PilotConfig.ce_time)

    yield "path loss gain at reference point", abs(params.beta / 6.807389387418555e-9 - 1) < 1e-12

    s = build_pilots(4, tau_c, p_t)
    gram = s @ s.conj().T
    yield "pilot orthogonality", np.allclose(gram, (p_t * tau_c / 4) * np.eye(4),
                                             rtol=1e-12, atol=0)

    for k in (1, n):   # both pilot-count corners
        chan = draw_channel(params, 7, pilot_count=k)
        rx = backscatter(chan, build_pilots(k, tau_c, p_t), a0, 0.0, 8)
        vest = vector_estimate(ls_matrix(rx))
        err = min(np.linalg.norm(vest.h_hat - chan.h), np.linalg.norm(vest.h_hat + chan.h))
        yield f"noiseless recovery at K = {k}", err <= 1e-8 * np.linalg.norm(chan.h)

    yield "pilot-count threshold at N=20", abs(snr_threshold(n) - 361.0 / 168.0) < 1e-12

    ratio = snr_isotropic(params) / snr_perfect_csi(params)
    yield "isotropic normalization", abs(ratio - 2.0 / 420.0) < 1e-15

    tau_opt = optimal_ta(n, params)
    grid = np.linspace(1e-9, params.coherence_time * (1 - 1e-9), 2001)
    vals = [snr_approx(t, n, params) for t in grid]
    best = grid[int(np.argmax(vals))]
    yield "optimal time allocation vs grid", abs(tau_opt - best) <= grid[1] - grid[0]


def _cmd_selftest() -> int:
    failures = 0
    for name, ok in _selftest_checks():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} self-test check(s) failed", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    _default_blas_threads()
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "optimize":
        return _cmd_optimize(args)
    return _cmd_selftest()


if __name__ == "__main__":
    sys.exit(main())
