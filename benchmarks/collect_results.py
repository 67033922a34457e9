"""Merge the per-job benchmark JSON dumps into one trajectory artifact.

Each benchmark job in CI writes its raw numbers to a standalone JSON file
(``bench_batch_submit.json``, ``bench_matching_policies.json``,
``bench_remote_transport.json``, ``bench_cluster_scaling.json``,
``bench_durability.json``, ``bench_tiered_pool.json``,
``bench_scalability.json``, ``bench_figure1.json``).  This script folds them into a single
``bench-trajectory.json`` so one artifact tracks the performance trajectory
of the whole system per commit::

    python benchmarks/collect_results.py --out bench-trajectory.json \
        artifacts/**/*.json

Every input is validated against a minimal schema (a JSON object carrying a
non-empty ``"experiment"`` string — the merge key).  Files that are missing,
unreadable, or malformed are reported and skipped — a benchmark job that
failed must not take the trajectory artifact down with it.  Exits non-zero
only when *no* input could be collected.

The merged artifact is stamped with the commit SHA (``GITHUB_SHA`` in CI,
``git rev-parse HEAD`` locally) and an ISO-8601 UTC timestamp, so trajectory
files from different runs are directly comparable by provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Optional


def validate_payload(payload: object) -> Optional[str]:
    """Return a schema complaint for *payload*, or ``None`` when it is valid.

    The minimal schema every benchmark dump must satisfy: a JSON object whose
    ``"experiment"`` key is a non-empty string (it becomes the merge key in
    the trajectory artifact).
    """
    if not isinstance(payload, dict):
        return "not a JSON object"
    experiment = payload.get("experiment")
    if not isinstance(experiment, str) or not experiment:
        return 'missing or empty "experiment" key'
    return None


def git_sha() -> str:
    """The commit being benchmarked: CI env var first, local git second."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def collect(paths: Iterable[Path]) -> tuple[dict[str, dict], list[str]]:
    merged: dict[str, dict] = {}
    problems: list[str] = []
    for path in paths:
        if not path.exists():
            problems.append(f"missing: {path}")
            continue
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"unreadable {path}: {exc}")
            continue
        complaint = validate_payload(payload)
        if complaint is not None:
            problems.append(f"schema violation in {path}: {complaint}")
            continue
        merged[payload["experiment"]] = payload
    return merged, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="merge per-benchmark JSON dumps into one trajectory file"
    )
    parser.add_argument("inputs", nargs="+", help="benchmark JSON files to merge")
    parser.add_argument(
        "--out", default="bench-trajectory.json", help="merged output path"
    )
    args = parser.parse_args(argv)

    merged, problems = collect(Path(p) for p in args.inputs)
    for problem in problems:
        print(f"collect_results: warning: {problem}", file=sys.stderr)
    if not merged:
        print("collect_results: no benchmark results collected", file=sys.stderr)
        return 1

    trajectory = {
        "benchmarks": merged,
        "collected": sorted(merged),
        "skipped": problems,
        "git_sha": git_sha(),
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    out = Path(args.out)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2, sort_keys=True)
    print(f"collect_results: wrote {out} ({len(merged)} experiment(s))")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
