"""Diff a merged bench-trajectory artifact against the committed baseline.

``benchmarks/baseline.json`` records the expected value of each tracked
benchmark metric as a dotted path into the trajectory artifact, e.g.
``cluster_scaling.scaling`` resolves to
``trajectory["benchmarks"]["cluster_scaling"]["scaling"]``.

Policy (the ISSUE 9 bench-trajectory contract):

* a **gated** metric that regresses by more than the tolerance (default 25%)
  against its baseline value **fails the job** (exit 1);
* every other regression — a gated metric inside tolerance, or any non-gated
  metric — emits a ``::warning::`` annotation but keeps the job green;
* metrics missing from the trajectory (their benchmark job failed and the
  partial artifact shipped anyway) warn rather than fail — the benchmark
  job's own red status already covers the loss;
* a per-metric delta table is appended to ``$GITHUB_STEP_SUMMARY`` when set,
  and always printed to stdout.

Baseline values for gated metrics are deliberately chosen so that the 25%
regression floor coincides with the benchmark's own hard assert gate — the
trajectory job therefore fails only for drift the benchmark itself would
reject, while the delta table surfaces slower erosion early.

Usage::

    python benchmarks/check_trajectory.py \
        --baseline benchmarks/baseline.json \
        --trajectory bench-trajectory.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

# Regressions smaller than this are treated as run-to-run noise: no warning,
# just a table row.  Gated failure always uses the baseline's tolerance.
NOISE_BAND = 0.05

DIRECTIONS = ("higher_is_better", "lower_is_better")


def load_json(path: Path, label: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"check_trajectory: cannot read {label} {path}: {exc}")
    if not isinstance(payload, dict):
        raise SystemExit(f"check_trajectory: {label} {path} is not a JSON object")
    return payload


def resolve(trajectory: dict, dotted: str) -> Optional[float]:
    """Walk ``benchmarks.<experiment>.<nested...>`` by the dotted path."""
    node: object = trajectory.get("benchmarks", {})
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def regression_fraction(baseline: float, current: float, direction: str) -> float:
    """How far *current* regressed past *baseline*, as a fraction (>= 0)."""
    if baseline == 0:
        return 0.0
    if direction == "lower_is_better":
        return max(0.0, (current - baseline) / abs(baseline))
    return max(0.0, (baseline - current) / abs(baseline))


def check(baseline: dict, trajectory: dict) -> tuple[list[str], list[str], int]:
    """Return (table rows, warning annotations, gated failure count)."""
    tolerance = float(baseline.get("tolerance", 0.25))
    metrics = baseline.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        raise SystemExit("check_trajectory: baseline has no metrics")

    rows: list[str] = []
    warnings: list[str] = []
    failures = 0
    for dotted in sorted(metrics):
        spec = metrics[dotted]
        base_value = float(spec["value"])
        gated = bool(spec.get("gate", False))
        direction = spec.get("direction", "higher_is_better")
        if direction not in DIRECTIONS:
            raise SystemExit(
                f"check_trajectory: {dotted}: unknown direction {direction!r}"
            )
        gate_label = "gated" if gated else "tracked"

        current = resolve(trajectory, dotted)
        if current is None:
            warnings.append(
                f"{dotted}: missing from trajectory (benchmark job failed?)"
            )
            rows.append(f"| `{dotted}` | {base_value:g} | — | — | {gate_label} | missing |")
            continue

        delta_pct = (
            (current - base_value) / abs(base_value) * 100 if base_value else 0.0
        )
        regressed = regression_fraction(base_value, current, direction)
        if gated and regressed > tolerance:
            failures += 1
            status = f"FAIL (>{tolerance:.0%} regression)"
        elif regressed > NOISE_BAND:
            warnings.append(
                f"{dotted}: regressed {regressed:.1%} vs baseline "
                f"{base_value:g} (now {current:g}, {direction})"
            )
            status = "regressed (warning)"
        else:
            status = "ok"
        rows.append(
            f"| `{dotted}` | {base_value:g} | {current:g} | "
            f"{delta_pct:+.1f}% | {gate_label} | {status} |"
        )
    return rows, warnings, failures


def emit_summary(rows: list[str], trajectory: dict) -> None:
    sha = trajectory.get("git_sha", "unknown")
    lines = [
        "## Benchmark trajectory vs. baseline",
        "",
        f"Commit: `{sha}`",
        "",
        "| metric | baseline | current | delta | kind | status |",
        "| --- | --- | --- | --- | --- | --- |",
        *rows,
        "",
    ]
    text = "\n".join(lines)
    print(text)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as handle:
            handle.write(text + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail CI on gated benchmark regressions vs. baseline.json"
    )
    parser.add_argument(
        "--baseline",
        default="benchmarks/baseline.json",
        help="committed baseline metric file",
    )
    parser.add_argument(
        "--trajectory",
        default="bench-trajectory.json",
        help="merged trajectory artifact from collect_results.py",
    )
    args = parser.parse_args(argv)

    baseline = load_json(Path(args.baseline), "baseline")
    trajectory = load_json(Path(args.trajectory), "trajectory")

    rows, warnings, failures = check(baseline, trajectory)
    emit_summary(rows, trajectory)
    for warning in warnings:
        print(f"::warning::check_trajectory: {warning}")
    if failures:
        print(
            f"check_trajectory: {failures} gated metric(s) regressed beyond "
            f"tolerance",
            file=sys.stderr,
        )
        return 1
    print("check_trajectory: all gated metrics within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
