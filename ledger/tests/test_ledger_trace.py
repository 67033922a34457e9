"""Span arithmetic on a hand-built tree, and that patching is undone."""

import pytest

from ledger.trace import LAYERS, Span, Tracer, covered, layer_table, ratios, self_seconds


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 4), (6, 7)], 0, 10) == pytest.approx(4)
    assert covered([(-5, 2), (9, 20)], 0, 10) == pytest.approx(3)
    assert covered([], 0, 10) == 0


# op 0, one thread:  submit [0,10] -> compile [1,3] -> parse [1.5,2.5]
#                                  -> find_group [4,8] -> probe [5,6], probe [6,7]
# and on another thread a root encode_frame [10.5,11]; the op window is [-1, 12]
TREE = [
    Span(0, 0, "core.coordinator", "Coordinator.submit", 0.0, 10.0, None),
    Span(1, 0, "core.compiler", "compile_entangled", 1.0, 3.0, 0),
    Span(2, 0, "sqlparser", "parse_statement", 1.5, 2.5, 1),
    Span(3, 0, "core.matching", "Matcher.find_group", 4.0, 8.0, 0, 1),
    Span(4, 0, "core.matchplan", "GridProviderIndex.candidates_compiled", 5.0, 6.0, 3, 3),
    Span(5, 0, "core.matchplan", "GridProviderIndex.candidates_compiled", 6.0, 7.0, 3, 1),
    Span(6, 0, "service.remote.codec", "encode_frame", 10.5, 11.0, None, 120),
]


def test_self_time_is_the_span_minus_what_children_cover():
    own = self_seconds(TREE)
    assert own[0] == pytest.approx(10 - 2 - 4)
    assert own[1] == pytest.approx(1)
    assert own[2] == pytest.approx(1)
    assert own[3] == pytest.approx(2)
    assert own[4] == own[5] == pytest.approx(1)


def test_layer_table_charges_the_uncovered_time_to_the_request_plane():
    table = layer_table(TREE, [(0, -1.0, 12.0)], round_trips=1)
    assert set(table) == set(LAYERS) and len(LAYERS) == 13
    assert table["core.matchplan"] == {"calls_per_op": 2, "self_ms_per_op": pytest.approx(2000)}
    assert table["core.durability"] == {"calls_per_op": 0, "self_ms_per_op": 0}
    # 13 s observed, roots cover [0,10] and [10.5,11]
    assert table["service.aio"]["self_ms_per_op"] == pytest.approx(2500)
    total = sum(row["self_ms_per_op"] for row in table.values())
    assert total == pytest.approx(13_000)  # every observed millisecond is in exactly one layer


def test_ratios_are_measured_at_the_boundaries():
    found = ratios(TREE, ops=1, answered=2)
    assert found["matchplan.candidates_per_probe"] == (2.0, "ratio")
    assert found["matching.groups_per_attempt"] == (1.0, "ratio")
    assert found["codec.bytes_per_op"] == (120.0, "bytes/op")
    assert found["durability.wal_bytes_per_op"][0] == 0


def test_install_wraps_what_callers_resolve_and_uninstall_restores_it():
    from repro.core import compiler, coordinator
    from repro.storage.table import Table

    before = (coordinator.compile_entangled, compiler.parse_statement, Table.__dict__["insert"])
    tracer = Tracer()
    tracer.install()
    try:
        assert coordinator.compile_entangled is compiler.compile_entangled is not before[0]
        tracer.begin_op(7)
        compiler.compile_entangled(
            "SELECT 'a', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM F) "
            "AND ('b', fno) IN ANSWER R CHOOSE 1"
        )
    finally:
        tracer.uninstall()
    after = (coordinator.compile_entangled, compiler.parse_statement, Table.__dict__["insert"])
    assert after == before
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["parse_statement"].parent == by_name["compile_entangled"].sid
    assert by_name["compile_entangled"].op == 7 and by_name["compile_entangled"].parent is None
