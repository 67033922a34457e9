"""Shared helpers for the benchmark scripts.

The scripts here are the paper's scalability sweep (E10,
``bench_scalability.py``), the match-policy overhead gate and the cluster
scaling gate; end-to-end latency and throughput are measured by the ledger
(``ledger/run.py``).  The helpers build fresh systems and workloads so each
measured round starts from a clean pending pool.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.workloads import (  # noqa: E402
    WorkloadConfig,
    WorkloadGenerator,
    build_loaded_system,
)


def pair_workload(num_pairs: int, seed: int = 0, num_unmatchable: int = 0):
    """A loaded system plus a generated pair workload, ready to submit."""
    system, service, _friends = build_loaded_system(
        num_flights=120, num_hotels=40, num_users=4, seed=seed
    )
    generator = WorkloadGenerator(
        service,
        WorkloadConfig(
            num_pairs=num_pairs,
            num_unmatchable=num_unmatchable,
            shuffle_arrivals=True,
            seed=seed,
        ),
    )
    return system, generator.generate()


def group_workload(num_groups: int, group_size: int, seed: int = 0):
    system, service, _friends = build_loaded_system(
        num_flights=120, num_hotels=40, num_users=4, seed=seed
    )
    generator = WorkloadGenerator(service, WorkloadConfig(seed=seed))
    return system, generator.group_items(num_groups, group_size)


@pytest.fixture
def report(request, capsys):
    """Print a labelled result line that survives pytest's output capture.

    Benchmarks use this to emit the 'table row' each experiment reports
    (throughput, pool sizes, match counts) alongside pytest-benchmark's timing
    table.
    """

    def _report(**fields):
        with capsys.disabled():
            rendered = ", ".join(f"{key}={value}" for key, value in fields.items())
            print(f"\n[{request.node.name}] {rendered}")

    return _report
