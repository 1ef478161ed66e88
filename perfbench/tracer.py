#!/usr/bin/env python3
"""Per-layer trace of one ``bsc-estim run`` study, in-process with one worker.

The tracer wraps package functions from the outside: each target is
replaced at every module binding through which the package calls it, and
restored afterwards, so no program code changes.  Every call becomes a span
(name, start, end, parent, run id) kept in memory and written out once at
the end.  Traced and untraced runs alternate until ``--seconds`` have
passed, at least two of each; the untraced ones give the tracing overhead.

Normally started by ``perfbench/run.py --trace 1``, which checks the output.
Standalone, from the repository root:

    PYTHONPATH=src python3 perfbench/tracer.py \\
        --config perfbench/workloads/k_sweep_mid.cfg --seed 1 --seconds 5 \\
        --out perfbench/.out/trace.csv --spans perfbench/.out/spans.json

The last line of standard output is a JSON report; a per-sweep-point stage
table goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import bsc_estim.cli
from bsc_estim import channel, estimators, experiments, optimizer, snr, transforms

MODULES = (channel, estimators, transforms, snr, optimizer, experiments, bsc_estim.cli)

# (defining module, function).  snr._mc_samples is private, but it is the one
# entry every Monte Carlo sweep point goes through, so it is the sweep-point span.
TARGETS = (
    (channel, "draw_channel"),
    (channel, "backscatter"),
    (estimators, "ls_matrix"),
    (estimators, "lmmse_gain"),
    (estimators, "prior_covariance"),
    (estimators, "lmmse_matrix"),
    (estimators, "vector_estimate"),
    (transforms, "build_realified"),
    (snr, "_mc_samples"),
    (snr, "snr_approx"),
    (snr, "snr_isotropic"),
    (snr, "snr_perfect_csi"),
    (optimizer, "optimal_ta"),
    (optimizer, "joint_optimize"),
    (experiments, "load_config"),
    (experiments, "write_csv"),
)

CLOSED_FORMS = ("snr.snr_approx", "snr.snr_isotropic", "snr.snr_perfect_csi")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _vector_path(args, kwargs, result):
    n, k = _arg(args, kwargs, 0, "est").h_hat_matrix.shape
    path = "k1" if k == 1 else "kN" if k == n else "kmid"
    return path, bool(result.degenerate)


def _draw_key(args, kwargs, result):
    seed = _arg(args, kwargs, 1, "seed")
    return repr(seed), _arg(args, kwargs, 0, "params").noise_var, result.pilot_count


def _gain_bytes(args, kwargs, result):
    gain = kwargs.get("gain", args[4] if len(args) > 4 else None)
    return 0 if gain is None else gain.nbytes


def _point_label(args, kwargs, result):
    params, cfg, flavor, trials = args[:4]
    return params.n_antennas, cfg.pilot_count, flavor, trials


# Per-call facts read from arguments and results after the span has ended.
LABELS = {
    "estimators.vector_estimate": _vector_path,
    "channel.draw_channel": _draw_key,
    "estimators.lmmse_matrix": _gain_bytes,
    "snr._mc_samples": _point_label,
    "experiments.load_config": lambda a, kw, r: len(r.sweep_grid),
    "experiments.write_csv": lambda a, kw, r: (len(_arg(a, kw, 0, "rows")),
                                               os.path.getsize(_arg(a, kw, 1, "path"))),
}


class Tracer:
    """Wraps the targets while active and records one span per call."""

    def __init__(self) -> None:
        # [name, start_ns, end_ns, parent index or -1, run id, label]
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, label = self.spans, self._stack, LABELS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1,
                    self.run_id, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if label is not None:
                span[5] = label(args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        self.run_id += 1
        for home, attr in TARGETS:
            original = getattr(home, attr)
            wrapped = self.wrap(f"{home.__name__.rsplit('.', 1)[-1]}.{attr}", original)
            for module in MODULES:
                if module.__dict__.get(attr) is original:
                    setattr(module, attr, wrapped)
                    self._saved.append((module, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        leftover = [f"{m.__name__}.{a}" for m in MODULES for a in dir(m)
                    if getattr(getattr(m, a), "__name__", None) == "traced"]
        if leftover:
            raise RuntimeError(f"wrappers left in place: {leftover}")


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _pct(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _key(span: list) -> str:
    """Span name, split by recovery path for vector_estimate."""
    if span[0] == "estimators.vector_estimate":
        return f"{span[0]}.{span[5][0]}"
    return span[0]


def summarize(spans: list[list], selfs: list[int], walls_traced: list[float],
              walls_untraced: list[float]) -> tuple[dict, list[dict], list[str]]:
    """Per-layer metrics, per-run call counts, and the metrics that do not apply."""
    runs = sorted({s[4] for s in spans})
    counts = []
    for r in runs:
        c: dict[str, int] = defaultdict(int)
        seen = set()
        for s in (s for s in spans if s[4] == r):
            c[s[0]] += 1
            if s[0] == "estimators.vector_estimate":
                c[_key(s)] += 1
                c["estimators.vector_estimate.degenerate"] += s[5][1]
            elif s[0] == "channel.draw_channel":
                c["channel.draw_channel.redraws"] += s[5] in seen
                seen.add(s[5])
            elif s[0] == "experiments.load_config":
                c["experiments.points"] = s[5]
            elif s[0] == "experiments.write_csv":
                c["experiments.rows"], c["experiments.csv_bytes"] = s[5]
        counts.append(dict(c))
    first = counts[0]

    durations_us: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        durations_us[_key(s)].append((s[2] - s[1]) / 1e3)

    run_totals: dict[tuple[int, str], float] = defaultdict(float)
    run_selfs: dict[tuple[int, str], float] = defaultdict(float)
    for s, own in zip(spans, selfs):
        run_totals[s[4], s[0]] += (s[2] - s[1]) / 1e9
        run_selfs[s[4], s[0]] += own / 1e9

    def per_run_total_s(names, use_self=False) -> float:
        table = run_selfs if use_self else run_totals
        return statistics.median(sum(table[r, n] for n in names) for r in runs)

    metrics: dict[str, tuple[float, str]] = {}
    not_applicable: list[str] = []

    def ratio(name: str, num: int, base: int) -> None:
        metrics[name] = (num / base if base else 0.0, "frac")
        if not base:
            not_applicable.append(name)

    def timing(name: str, quantiles=(50, 90)) -> None:
        metrics[f"{name}.calls"] = (first.get(name, 0), "count")
        vals = durations_us.get(name)
        for q in quantiles:
            metrics[f"{name}.p{q}_us"] = (_pct(vals, q) if vals else 0.0, "us")
            if not vals:
                not_applicable.append(f"{name}.p{q}_us")

    def total(prefix: str, names) -> None:
        metrics[f"{prefix}.calls"] = (sum(first.get(n, 0) for n in names), "count")
        metrics[f"{prefix}.total_s"] = (per_run_total_s(names), "s")

    timing("channel.draw_channel")
    timing("channel.backscatter")
    ratio("channel.redraw_frac", first.get("channel.draw_channel.redraws", 0),
          first.get("channel.draw_channel", 0))
    for path in ("k1", "kmid", "kN"):
        timing(f"estimators.vector_estimate.{path}")
    ratio("estimators.vector_estimate.degenerate_frac",
          first.get("estimators.vector_estimate.degenerate", 0),
          first.get("estimators.vector_estimate", 0))
    timing("estimators.ls_matrix")
    total("estimators.lmmse_gain", ("estimators.lmmse_gain",))
    total("estimators.prior_covariance", ("estimators.prior_covariance",))
    timing("estimators.lmmse_matrix")
    gains = [s[5] for s in spans if s[0] == "estimators.lmmse_matrix"]
    metrics["estimators.lmmse_matrix.gain_mb"] = (max(gains) / 1e6 if gains else 0.0,
                                                  "MB-computed")
    if not gains:
        not_applicable.append("estimators.lmmse_matrix.gain_mb")
    timing("transforms.build_realified", quantiles=(50,))
    metrics["snr.mc_self_s"] = (per_run_total_s(("snr._mc_samples",), use_self=True), "s")
    if not first.get("snr._mc_samples"):
        not_applicable.append("snr.mc_self_s")
    total("snr.closed_form", CLOSED_FORMS)
    timing("optimizer.optimal_ta")
    timing("optimizer.joint_optimize")
    metrics["experiments.points"] = (first.get("experiments.points", 0), "count")
    metrics["experiments.rows"] = (first.get("experiments.rows", 0), "count")
    metrics["experiments.write_csv_s"] = (per_run_total_s(("experiments.write_csv",)), "s")
    metrics["experiments.csv_bytes"] = (first.get("experiments.csv_bytes", 0), "B")
    metrics["experiments.load_config_s"] = (per_run_total_s(("experiments.load_config",)), "s")
    traced, untraced = statistics.median(walls_traced), statistics.median(walls_untraced)
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "frac")
    return metrics, counts, not_applicable


def stage_table(spans: list[list], selfs: list[int]) -> list[str]:
    """Per-trial microseconds of each stage under every sweep point of the first run."""
    first = min(s[4] for s in spans)
    lines = []
    for i, s in enumerate(spans):
        if s[0] != "snr._mc_samples" or s[4] != first:
            continue
        n, k, flavor, trials = s[5]
        stage: dict[str, float] = defaultdict(float)
        for c in spans[i + 1:]:
            if c[1] >= s[2]:
                break
            if c[3] == i:
                stage[c[0].split(".", 1)[1]] += (c[2] - c[1]) / 1e3 / trials
        stage["mc_self"] = selfs[i] / 1e3 / trials
        cells = "  ".join(f"{k_}={v:.1f}" for k_, v in stage.items())
        lines.append(f"N={n} K={k} {flavor}: {(s[2] - s[1]) / 1e3 / trials:.1f} us/trial; "
                     f"{cells}")
    return lines


def _run_cli(argv: list[str], out: Path) -> dict:
    out.unlink(missing_ok=True)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = bsc_estim.cli.main(argv)
    wall = time.perf_counter() - t0
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    return {"returncode": rc, "wall_s": wall, "csv_sha256": digest}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True, help="CSV path for every run")
    parser.add_argument("--spans", type=Path, required=True, help="span dump, JSON")
    args = parser.parse_args(argv)

    cli_argv = ["run", "--config", args.config, "--seed", str(args.seed),
                "--workers", "1", "--out", str(args.out)]
    tracer = Tracer()
    runs: list[dict] = []
    t0 = time.perf_counter()
    pairs = 0
    while pairs < 2 or time.perf_counter() - t0 < args.seconds:
        # alternate which side goes first, so warm-up does not favour one
        for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            if traced:
                with tracer:
                    result = _run_cli(cli_argv, args.out)
            else:
                result = _run_cli(cli_argv, args.out)
            result["traced"] = traced
            runs.append(result)
        pairs += 1

    spans = tracer.spans
    selfs = self_times(spans)
    metrics, counts, not_applicable = summarize(
        spans, selfs, [r["wall_s"] for r in runs if r["traced"]],
        [r["wall_s"] for r in runs if not r["traced"]])
    for line in stage_table(spans, selfs):
        print(f"stage  {line}", file=sys.stderr)
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    t0_ns = spans[0][1]
    args.spans.write_text(json.dumps({
        "names": names,
        "columns": ["name index", "start_ns", "end_ns", "parent", "run"],
        "t0_ns": t0_ns,
        "spans": [[index[s[0]], s[1] - t0_ns, s[2] - t0_ns, s[3], s[4]] for s in spans],
    }, separators=(",", ":")))
    print(json.dumps({"runs": runs, "counts": counts, "metrics": metrics,
                      "not_applicable": not_applicable}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
