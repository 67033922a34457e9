"""Unit tests for the transport-agnostic coordination service layer.

The behavioural scenarios live in ``tests/service_conformance.py`` and run
here against :class:`~repro.service.InProcessService`;
``tests/integration/test_remote_conformance.py`` runs the same classes
against a live network transport.  This module keeps only what is specific
to the in-process implementation: DTO validation and the protocol /
constructor surface.
"""

from __future__ import annotations

import pytest

from service_conformance import (
    SETUP,
    BatchConformance,
    ConcurrencyConformance,
    IntrospectionConformance,
    PlainQueryConformance,
    PolicyConformance,
    SubmissionConformance,
)
from repro.core.system import YoutopiaSystem
from repro.service import (
    CoordinationService,
    InProcessService,
    IntrospectionService,
    RelationResult,
    RequestHandle,
    SubmitRequest,
    SystemConfig,
)


@pytest.fixture
def service() -> InProcessService:
    service = InProcessService(config=SystemConfig(seed=0))
    service.execute_script(SETUP)
    service.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])
    return service


class TestDTOs:
    def test_submit_request_needs_exactly_one_payload(self):
        with pytest.raises(ValueError):
            SubmitRequest()
        with pytest.raises(ValueError):
            SubmitRequest(sql="x", query=object())  # type: ignore[arg-type]
        assert SubmitRequest(sql="SELECT 1").payload() == "SELECT 1"

    def test_relation_result_type(self, service):
        assert isinstance(service.query("SELECT COUNT(*) FROM Flights"), RelationResult)


class TestProtocols:
    def test_inprocess_satisfies_both_protocols(self, service):
        assert isinstance(service, CoordinationService)
        assert isinstance(service, IntrospectionService)

    def test_service_builds_own_system_when_not_given_one(self):
        fresh = InProcessService()
        assert isinstance(fresh.system, YoutopiaSystem)
        assert fresh.stats().pending == 0

    def test_system_service_accessor_round_trips(self):
        system = YoutopiaSystem(config=SystemConfig(seed=0))
        service = system.service()
        assert service.system is system

    def test_submit_returns_request_handle(self, service):
        from service_conformance import KRAMER_SQL

        handle = service.submit(SubmitRequest(sql=KRAMER_SQL, owner="Kramer"))
        assert isinstance(handle, RequestHandle)


# -- transport-agnostic conformance, in-process flavour -------------------------------------


class TestSubmission(SubmissionConformance):
    pass


class TestBatchSubmission(BatchConformance):
    pass


class TestPlainQueries(PlainQueryConformance):
    pass


class TestIntrospection(IntrospectionConformance):
    pass


class TestConcurrency(ConcurrencyConformance):
    pass


class TestPolicy(PolicyConformance):
    pass
