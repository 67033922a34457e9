"""The performance ledger's one command.

    python3 ledger/run.py --seed N [--workload NAME]... [--seconds S]
                          [--trace 0|1|both] [--out FILE]

Per workload it starts a real ``serve`` subprocess and drives it open loop (or
closed loop on ``spill-batch``) for ``--seconds``, checks every answer, and
prints each end-to-end metric by name with its unit (``--trace 0``); and/or
replays the same ops against an in-process server with spans around every
layer and prints the per-layer time budget (``--trace 1``).  The last line of
standard output is one JSON object ``{correct, attempted, failed, metrics}``;
with several workloads the metric names are prefixed ``<workload>/``.  The
exit code is non-zero when any operation failed or any answer check did.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
# the script directory holds trace.py, which must not shadow the standard
# library's; import this directory as the package ``ledger`` instead
sys.path[0] = str(ROOT)
sys.path.insert(0, str(ROOT / "src"))

from ledger import endtoend, replay  # noqa: E402
from ledger.workloads import BY_NAME, WORKLOADS, build_plan  # noqa: E402

DEFAULT_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
WORKDIR = ROOT / ".ledger_tmp"


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument(
        "--workload",
        action="append",
        choices=sorted(BY_NAME),
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=DEFAULT_SECONDS,
        help="length of the measured phase (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace",
        choices=["0", "1", "both"],
        default="both",
        help="0: end-to-end run; 1: traced replay; both (default)",
    )
    parser.add_argument("--out", type=Path, help="also write the ledger entry to this file")
    return parser.parse_args(argv)


def _git_sha() -> str:
    """``HEAD``, marked ``-dirty`` when the measured tree has uncommitted changes."""
    try:
        described = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True, check=True,
        )  # fmt: skip
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # e.g. an exported checkout without .git
    return described.stdout.strip()


def _print_metrics(workload: str, metrics: dict, samples: Optional[dict] = None) -> None:
    for name, (value, unit) in metrics.items():
        note = f"  ({samples[name]})" if samples and name in samples else ""
        print(f"{workload}  {name} = {value:.6g} {unit}{note}")


async def _run(args: argparse.Namespace) -> int:
    names = args.workload or [workload.name for workload in WORKLOADS]
    WORKDIR.mkdir(exist_ok=True)
    entry: dict = {
        "seed": args.seed,
        "seconds": args.seconds,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workloads": {},
    }
    attempted = 0
    failures: list[str] = []
    metrics: dict[str, dict] = {}
    try:
        for name in names:
            plan = build_plan(BY_NAME[name], args.seed, args.seconds)
            prefix = f"{name}/" if len(names) > 1 else ""
            record: dict = {}
            produced: dict = {}
            if args.trace in ("0", "both"):
                outcome = await endtoend.run(plan, WORKDIR)
                _print_metrics(name, outcome.metrics, outcome.samples)
                _print_metrics(name, outcome.supplementary, outcome.samples)
                for reason in outcome.invalid:
                    print(f"{name}  INVALID: {reason}")
                attempted += outcome.attempted
                failures += [f"{name}: {failure}" for failure in outcome.failures]
                produced.update(outcome.metrics)
                record["end_to_end"] = {**outcome.metrics, **outcome.supplementary}
                record["samples"] = outcome.samples
                record["invalid"] = outcome.invalid
            if args.trace in ("1", "both"):
                traced = await replay.run(plan, WORKDIR)
                _print_metrics(name, traced.metrics)
                attempted += traced.attempted
                failures += [f"{name} (traced): {failure}" for failure in traced.failures]
                produced.update(traced.metrics)
                record["per_layer"] = traced.metrics
            entry["workloads"][name] = record
            for metric, (value, unit) in produced.items():
                metrics[prefix + metric] = {"value": value, "unit": unit}
    finally:
        if WORKDIR.exists() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()

    for failure in failures[:20]:
        print(f"FAILED  {failure}", file=sys.stderr)
    entry["failed"] = len(failures)
    entry["attempted"] = attempted
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    # SIGTERM must unwind like Ctrl-C so the server subprocess is always killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return asyncio.run(_run(_parse(argv)))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
