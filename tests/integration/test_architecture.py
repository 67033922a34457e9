"""Integration test for experiment E2: the architecture of Figure 2.

A query flows front end → query compiler → coordination component →
execution engine → database; the coordination component's internal
pending-query table is visible to plain SQL; and the administrative interface
can inspect every stage.
"""

from __future__ import annotations

import pytest

from repro.apps.admin import AdminInterface
from repro.core import ir
from repro.core.coordinator import PENDING_TABLE, QueryStatus
from repro.core.events import EventType
from repro.core.system import YoutopiaSystem


class TestComponentFlow:
    def test_compiler_coordination_execution_pipeline(self, figure1_system, kramer_sql, jerry_sql):
        system = figure1_system

        # 1. Query compiler: SQL text becomes the internal representation.
        compiled = system.compile(kramer_sql, owner="Kramer")
        assert isinstance(compiled, ir.EntangledQuery)
        assert compiled.heads[0].relation == "Reservation"
        assert compiled.domains[0].variables == ("fno",)

        # 2. Coordination component: registration populates the internal
        #    pending-query table that the paper says stores pending queries.
        kramer = system.submit_entangled(kramer_sql, owner="Kramer")
        pending_rows = system.query(
            f"SELECT query_id, owner, status FROM {PENDING_TABLE}"
        ).as_dicts()
        assert pending_rows == [
            {"query_id": kramer.query_id, "owner": "Kramer", "status": "pending"}
        ]
        assert system.coordinator.provider_index_size() == 1

        # 3. Execution engine + database: once the partner arrives the answers
        #    are written to the answer relation inside one transaction.
        committed_before = system.transactions.commits
        system.submit_entangled(jerry_sql, owner="Jerry")
        assert system.transactions.commits == committed_before + 1
        assert len(system.answers("Reservation")) == 2

        # 4. The pending table now reflects the answered status.
        statuses = dict(system.query(f"SELECT query_id, status FROM {PENDING_TABLE}").rows)
        assert set(statuses.values()) == {"answered"}

    def test_event_sequence_matches_lifecycle(self, figure1_system, kramer_sql, jerry_sql):
        system = figure1_system
        system.submit_entangled(kramer_sql, owner="Kramer")
        system.submit_entangled(jerry_sql, owner="Jerry")
        types = [event.type for event in system.events.history()]
        first_registered = types.index(EventType.QUERY_REGISTERED)
        first_matched = types.index(EventType.GROUP_MATCHED)
        first_answered = types.index(EventType.QUERY_ANSWERED)
        assert first_registered < first_matched < first_answered
        assert types.count(EventType.QUERY_REGISTERED) == 2
        assert types.count(EventType.QUERY_ANSWERED) == 2
        assert types.count(EventType.GROUP_MATCHED) == 1

    def test_admin_interface_sees_every_component(self, figure1_system, kramer_sql):
        system = figure1_system
        request = system.submit_entangled(kramer_sql, owner="Kramer")
        admin = AdminInterface(system)

        description = admin.describe_query(request.query_id)
        assert "Reservation('Kramer', fno)" in description

        state = admin.render_state()
        assert "Flights: 4 rows" in state
        assert "pending entangled queries" in state
        assert request.query_id in state

        assert admin.statistics()["queries_registered"] == 1
        assert "Scan" in admin.explain("SELECT fno FROM Flights") or "IndexLookup" in admin.explain(
            "SELECT fno FROM Flights"
        )


class TestIsolationAndAtomicity:
    def test_failed_joint_execution_leaves_no_partial_state(self, figure1_system,
                                                            kramer_sql, jerry_sql):
        system = figure1_system

        calls = []

        def exploding_hook(_relation, values, _engine):
            calls.append(values)
            if len(calls) == 2:
                raise RuntimeError("simulated crash during joint execution")

        system.register_side_effect(exploding_hook, relation="Reservation")
        kramer = system.submit_entangled(kramer_sql, owner="Kramer")
        jerry = system.submit_entangled(jerry_sql, owner="Jerry")

        # Execution failed: nothing was written and both queries wait again.
        assert system.answers("Reservation") == []
        assert kramer.status is QueryStatus.PENDING
        assert jerry.status is QueryStatus.PENDING
        assert system.statistics()["executions_failed"] >= 1
        assert system.statistics()["transactions_rolled_back"] >= 1
