"""Command-line front end: run sweeps, print the joint design, self-test."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


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
                     help="worker processes (default: config value or CPU count)")
    run.add_argument("--out", default=None, help="override output CSV path")

    opt = sub.add_parser("optimize", help="print the jointly optimal design")
    opt.add_argument("--config", required=True)

    sub.add_parser("selftest", help="run quick analytic consistency checks")
    return parser


def _cmd_run(args) -> int:
    from dataclasses import replace

    from .experiments import ConfigError, iter_experiment, load_config, write_csv

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.trials is not None:
            if args.trials < 1:
                raise ConfigError(f"trials must be >= 1, got {args.trials}")
            cfg = replace(cfg, trials=args.trials)
        if args.workers is not None:
            if args.workers < 1:
                raise ConfigError(f"workers must be >= 1, got {args.workers}")
            cfg = replace(cfg, workers=args.workers)
        elif cfg.workers == 0:
            cfg = replace(cfg, workers=max(1, os.cpu_count() or 1))
        if args.out is not None:
            cfg = replace(cfg, output_path=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    rows = []
    try:
        for row in iter_experiment(cfg):
            rows.append(row)
    except Exception as exc:  # noqa: BLE001 - flush what we have, then report
        if rows:
            # never at the output path, where it would pass for a whole run
            partial = f"{cfg.output_path}.partial"
            try:
                write_csv(rows, partial)
                print(f"wrote {len(rows)} partial rows to {partial}",
                      file=sys.stderr)
            except Exception:
                pass
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    try:
        write_csv(rows, cfg.output_path)
    except Exception as exc:  # noqa: BLE001
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {len(rows)} rows to {cfg.output_path}")
    return EXIT_OK


def _cmd_optimize(args) -> int:
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
    from .channel import PilotConfig, SystemParams, backscatter, build_pilots, draw_channel, path_loss_beta
    from .estimators import ls_matrix, vector_estimate
    from .optimizer import optimal_ta, snr_threshold
    from .snr import snr_approx, snr_isotropic, snr_perfect_csi

    params = SystemParams(
        n_antennas=20, coherence_time=1e-3, sample_len=5e-6, tx_power=1.0,
        tag_amp_ce=0.78, tag_amp_id=0.3162, noise_var=1e-20,
        carrier_freq=915e6, distance=100.0, pathloss_exp=2.5,
    )

    beta = path_loss_beta(915e6, 100.0, 2.5)
    yield "path loss gain at reference point", abs(beta / 6.807389387418555e-9 - 1) < 1e-12

    s = build_pilots(4, 1e-4, 1.0)
    gram = s @ s.conj().T
    yield "pilot orthogonality", np.allclose(gram, (1e-4 / 4) * np.eye(4), rtol=1e-12, atol=0)

    chan = draw_channel(params, 7, pilot_count=20)
    rx = backscatter(chan, build_pilots(20, 1e-4, 1.0), 0.78, 0.0, 8)
    vest = vector_estimate(ls_matrix(rx, PilotConfig(20, 1e-4)))
    err = min(np.linalg.norm(vest.h_hat - chan.h), np.linalg.norm(vest.h_hat + chan.h))
    yield "noiseless recovery", err <= 1e-8 * np.linalg.norm(chan.h)

    yield "pilot-count threshold at N=20", abs(snr_threshold(20) - 361.0 / 168.0) < 1e-12

    ratio = snr_isotropic(params) / snr_perfect_csi(params)
    yield "isotropic normalization", abs(ratio - 2.0 / 420.0) < 1e-15

    tau_opt = optimal_ta(20, params)
    grid = np.linspace(1e-9, params.coherence_time * (1 - 1e-9), 2001)
    vals = [snr_approx(t, 20, params) for t in grid]
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
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "optimize":
        return _cmd_optimize(args)
    return _cmd_selftest()


if __name__ == "__main__":
    sys.exit(main())
