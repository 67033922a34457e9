"""E15 — cluster scaling: matched-queries/sec, 1 node vs. 4 nodes.

The cluster's scaling claim: entangled workloads whose relations spread
across member nodes coordinate in parallel *and* in smaller matching
universes.  Each member node is a separate ``youtopia-cli serve`` process
(no shared GIL), and — just as important on any core count — partitioning
shrinks each node's pending pool, which several coordination paths touch
linearly per submission (the pending-row bookkeeping scan dominates once
the pool is non-trivial, so per-universe work is superlinear in pool size).

The experiment models the paper's steady state, where most entangled
queries wait a long time for a partner: an (untimed) standing pool of
``GHOSTS_PER_RELATION`` never-matching queries per relation is submitted
first, then the timed phase pushes ``PAIRS_PER_RELATION`` cross-referencing
pairs per relation through the router as single-frame-per-node batches.
Aggregate matched-queries/sec is gated at ``BENCH_CLUSTER_MIN_SCALING``
(default **2.5×**) going from a 1-node to a 4-node cluster; perfect would
be ~4× minus the CRC32 relation→node skew.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from pathlib import Path

from repro.service import SubmitRequest
from repro.service.remote import RemoteService
from repro.cluster import BackgroundClusterRouter, NodeSpec, PlacementMap

REPO_ROOT = Path(__file__).resolve().parent.parent

NUM_RELATIONS = 32
PAIRS_PER_RELATION = 5
GHOSTS_PER_RELATION = 100

SETUP = (
    "CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT);"
    + "INSERT INTO Flights VALUES "
    + ", ".join(f"({100 + index}, 'Paris')" for index in range(60))
    + ";"
)


class NodeProcess:
    """One ``youtopia-cli serve`` member-node subprocess on an ephemeral port."""

    def __init__(self, index: int, node_count: int) -> None:
        argv = [
            sys.executable,
            "-m",
            "repro.apps.cli",
            "serve",
            "--port",
            "0",
            "--seed",
            "0",
            "--cluster-node",
            f"{index}/{node_count}",
        ]
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env
        )
        self.port = self._read_port()

    def _read_port(self, timeout: float = 30.0) -> int:
        deadline = time.monotonic() + timeout
        assert self.process.stdout is not None
        fd = self.process.stdout.fileno()
        buffer = ""
        while True:
            while "\n" in buffer:
                line, buffer = buffer.split("\n", 1)
                if "listening on" in line:
                    return int(line.rsplit(":", 1)[1])
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"node did not report a port within {timeout}s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                raise RuntimeError(f"node did not report a port within {timeout}s")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(
                    f"node exited (code {self.process.poll()}) before listening"
                )
            buffer += chunk.decode("utf-8", errors="replace")

    def terminate(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)


def entangled(owner: str, partner: str, relation: str) -> SubmitRequest:
    return SubmitRequest(
        owner=owner,
        sql=(
            f"SELECT '{owner}', fno INTO ANSWER {relation} "
            "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
            f"AND ('{partner}', fno) IN ANSWER {relation} CHOOSE 1"
        ),
    )


def ghost_workload() -> list[SubmitRequest]:
    """The standing pool: queries whose partner never arrives."""
    return [
        entangled(f"g{relation_index}_{ghost_index}", f"never_{ghost_index}", f"Booking{relation_index}")
        for ghost_index in range(GHOSTS_PER_RELATION)
        for relation_index in range(NUM_RELATIONS)
    ]


def pair_workload() -> list[SubmitRequest]:
    """Cross-referencing pairs over every relation, pair-interleaved."""
    requests: list[SubmitRequest] = []
    for pair_index in range(PAIRS_PER_RELATION):
        for relation_index in range(NUM_RELATIONS):
            relation = f"Booking{relation_index}"
            left = f"a{relation_index}_{pair_index}"
            right = f"b{relation_index}_{pair_index}"
            requests.append(entangled(left, right, relation))
            requests.append(entangled(right, left, relation))
    return requests


def run_cluster(node_count: int) -> dict:
    """Start the cluster, push the workload through the router, measure."""
    nodes = [NodeProcess(index, node_count) for index in range(node_count)]
    router = None
    client = None
    try:
        placement = PlacementMap(
            [NodeSpec(index, "127.0.0.1", node.port) for index, node in enumerate(nodes)]
        )
        router = BackgroundClusterRouter(placement)
        router.start()
        client = RemoteService.connect(*router.address)
        client.execute_script(SETUP)
        for index in range(NUM_RELATIONS):
            client.declare_answer_relation(
                f"Booking{index}", ["traveler", "fno"], ["TEXT", "INTEGER"]
            )
        ghosts = client.submit_many(ghost_workload())  # untimed standing pool
        assert not any(handle.is_answered for handle in ghosts)
        requests = pair_workload()

        started = time.perf_counter()
        handles = client.submit_many(requests)
        elapsed = time.perf_counter() - started

        answered = sum(1 for handle in handles if handle.is_answered)
        stats = client.stats()
        distribution = [
            placement.node_for_relation(f"booking{index}")
            for index in range(NUM_RELATIONS)
        ]
        # Where WOULD cross-node signatures take up residence on this map?
        # (The workload itself is single-relation by design; this publishes
        # the per-signature residence spread the router would use.)
        residence_nodes = sorted(
            {
                placement.residence_node_for(signature)
                for first in range(NUM_RELATIONS)
                for second in range(first + 1, NUM_RELATIONS)
                for signature in [frozenset({f"booking{first}", f"booking{second}"})]
                if placement.node_for_signature(signature) is None
            }
        )
        return {
            "queries": len(requests),
            "answered": answered,
            "matched_qps": answered / elapsed,
            "relations_per_node": [
                distribution.count(node) for node in range(node_count)
            ],
            "cross_node_submits": stats.cluster["cross_node_submits"],
            "relocations": stats.cluster["relocations"],
            "residence_nodes": residence_nodes,
        }
    finally:
        if client is not None:
            client.close()
        if router is not None:
            router.stop()
        for node in nodes:
            node.terminate()


def test_matched_throughput_scales_from_one_to_four_nodes(report):
    """The acceptance experiment: >= 2.5x matched-qps going 1 -> 4 nodes."""
    min_scaling = float(os.environ.get("BENCH_CLUSTER_MIN_SCALING", "2.5"))
    single = run_cluster(1)
    quad = run_cluster(4)

    total = single["queries"]
    assert single["answered"] == quad["answered"] == total
    # single-relation signatures never leave their home node
    assert quad["cross_node_submits"] == 0
    assert quad["relocations"] == 0

    # per-signature residence spreads cross-node load over >= 2 of 4 nodes
    assert len(quad["residence_nodes"]) >= 2

    scaling = quad["matched_qps"] / single["matched_qps"]
    report(
        queries=total,
        qps_1_node=round(single["matched_qps"], 1),
        qps_4_nodes=round(quad["matched_qps"], 1),
        scaling=round(scaling, 2),
        relations_per_node=quad["relations_per_node"],
        residence_nodes=quad["residence_nodes"],
    )
    assert scaling >= min_scaling, (
        f"matched-qps scaled only {scaling:.2f}x from 1 to 4 nodes "
        f"(gate: {min_scaling}x)"
    )
