"""The parser's shape cache is invisible: a cached parse equals a fresh one.

``parse_statement`` keys each text by its parts outside single-quoted string
literals and, from a shape's second sighting on, rebuilds the statement from a
template instead of parsing.  These tests hold it to the uncached parser
(``_parse_text``) on hostile literal values, on texts that must bypass it, on
parse errors, on its capacity and under concurrent use.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compiler import compile_entangled
from repro.errors import ParseError
from repro.sqlparser import parse_statement, parser

ENTANGLED_SHAPES = [
    "SELECT {0}, fno INTO ANSWER Reservation "
    "WHERE fno IN (SELECT fno FROM Flights WHERE dest = {1}) "
    "AND ({2}, fno) IN ANSWER Reservation CHOOSE 1",
    "SELECT {0}, fno INTO ANSWER R, {0}, hid INTO ANSWER H "
    "WHERE fno IN (SELECT fno FROM F WHERE dest = {1} OR dest LIKE {2}) "
    "AND hid IN (SELECT hid FROM Hotels WHERE city IN ({1}, {2}, 'Oslo')) "
    "AND ({2}, fno) IN ANSWER R AND ({1}, hid) IN ANSWER H CHOOSE 1",
    "SELECT {0},\n  fno INTO ANSWER R\nWHERE fno IN (SELECT fno FROM F WHERE price > 0.5)\n"
    "  AND ({1}, fno) IN ANSWER R AND ({2}, fno) IN ANSWER R CHOOSE 1",
]

PLAIN_SHAPES = [
    "SELECT name, COUNT(*) AS n FROM T WHERE name BETWEEN {0} AND {1} "
    "GROUP BY name HAVING MAX(name) != {2} ORDER BY name DESC LIMIT 5",
    "SELECT {0} AS label, -{1}, t.* FROM T AS t JOIN U ON t.k = U.k WHERE LOWER(t.name) = {2}",
    "INSERT INTO T (a, b) VALUES ({0}, 1), ({1}, -2.5), ({2}, NULL);",
    "UPDATE T SET name = {0} || {1} WHERE name = {2} AND k > 0.5",
    "DELETE FROM T WHERE name NOT LIKE {0} OR name IN ({1}, {2}) OR name IS NULL",
    "SELECT 1 WHERE {0} = {1} AND {1} = {2} AND {2} = {0}",
]

# pieces a literal's body is made of: quotes, comment starts, a double quote,
# newlines, private-use characters, NUL, and plain text
LITERAL_PIECES = [
    "a", "Z", " ", "'", "''", "--", "/*", "*/", '"', "\n", "", "\U000f0000", "\x00",
    "0", "\\", "Paris",
]  # fmt: skip
literal_values = st.lists(st.sampled_from(LITERAL_PIECES), max_size=5).map("".join)


def quote(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def shape_of(text: str) -> tuple[str, ...]:
    return tuple(parser._STRING_LITERAL.split(text)[0::2])


@pytest.fixture(autouse=True)
def empty_cache():
    parser._shapes.clear()
    yield
    parser._shapes.clear()


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(ENTANGLED_SHAPES + PLAIN_SHAPES),
    st.one_of(
        st.lists(literal_values, min_size=3, max_size=3),
        literal_values.map(lambda value: [value] * 3),  # one value in every slot
    ),
)
def test_cached_parse_equals_a_fresh_parse(shape: str, values: list[str]):
    text = shape.format(*map(quote, values))
    expected = parser._parse_text(text)
    for _ in range(3):  # first sighting, templating, hit
        assert parse_statement(text) == expected
    assert isinstance(parser._shapes.get(shape_of(text)), parser._Template)
    if shape in ENTANGLED_SHAPES:
        assert compile_entangled(text).sql == compile_entangled(expected).sql


def test_a_hit_rebuilds_only_the_spines_to_the_literals():
    first = parse_statement(ENTANGLED_SHAPES[0].format("'Jerry'", "'Paris'", "'Kramer'"))
    parse_statement(ENTANGLED_SHAPES[0].format("'Elaine'", "'Rome'", "'George'"))
    hit = parse_statement(ENTANGLED_SHAPES[0].format("'Newman'", "'Oslo'", "'Jerry'"))
    assert hit.heads[0].items[0].value == "Newman"
    assert hit.heads[0].items[1] is not first.heads[0].items[1]  # first was a full parse
    again = parse_statement(ENTANGLED_SHAPES[0].format("'Kramer'", "'Oslo'", "'Elaine'"))
    assert again.heads[0].items[1] is hit.heads[0].items[1]  # ColumnRef('fno'): shared
    assert again.where is not hit.where  # a spine: rebuilt


def test_a_shape_is_templated_on_its_second_sighting():
    text = "INSERT INTO T VALUES (1000, 'Oslo', 17)"
    parse_statement(text)
    assert parser._shapes.get(shape_of(text)) is parser._SEEN
    parse_statement(text.replace("Oslo", "Rome"))
    assert isinstance(parser._shapes.get(shape_of(text)), parser._Template)


@pytest.mark.parametrize(
    "text",
    [
        'SELECT "order" FROM F WHERE dest = \'Paris\'',
        "SELECT \"it's\" FROM F",
        'SELECT "Res""v" FROM F WHERE dest = \'Paris\'',
        "SELECT fno FROM F -- it's a comment\nWHERE dest = 'Paris'",
        "SELECT fno FROM F /* 'x' */ WHERE dest = 'Paris'",
        "SELECT fno FROM F WHERE dest = 'Paris' -- trailing",
        "SELECT 'unterminated FROM F",
        "SELECT 'a'' FROM F",
    ],
)
def test_bypass_texts_are_never_cached(text: str):
    for _ in range(3):
        try:
            assert parse_statement(text) == parser._parse_text(text)
        except ParseError:
            pass
    assert len(parser._shapes) == 0


def error_of(parse, text: str) -> tuple[str, int | None, int | None]:
    with pytest.raises(ParseError) as caught:
        parse(text)
    return str(caught.value), caught.value.line, caught.value.column


@pytest.mark.parametrize(
    "shape",
    [
        "SELECT {0}, fno INTO ANSWER R WHERE fno IN (SELECT fno FROM F WHERE d = {1}) AND AND",
        "SELECT {0} FROM F WHERE x = {1} GARBAGE GARBAGE",
        "INSERT INTO T VALUES ({0}, {1}",
        "SELECT {0} FROM F WHERE x = {1} AND y = ?",
    ],
)
def test_a_parse_error_does_not_depend_on_the_cache(shape: str):
    """The error's position follows this text's own literals (one holds a
    newline), however often its shape was seen, and nothing is cached."""
    texts = [shape.format("'a'", "'b'"), shape.format("'line\nbreak'", "'c'")]
    fresh = [error_of(parser._parse_text, text) for text in texts]
    assert fresh[0] != fresh[1]
    for _ in range(3):
        assert [error_of(parse_statement, text) for text in texts] == fresh
    assert len(parser._shapes) == 0
    # a cached shape that is a prefix of the failing one changes nothing
    good = shape.split(" AND AND")[0].split(" GARBAGE")[0].split(" AND y")[0]
    if good != shape:
        for _ in range(2):
            parse_statement(good.format("'a'", "'b'"))
        assert [error_of(parse_statement, text) for text in texts] == fresh


def test_the_lru_never_exceeds_its_capacity():
    capacity = parser.SHAPE_CACHE_CAPACITY
    texts = [f"SELECT 'x', {index} FROM T WHERE name = 'y'" for index in range(capacity + 40)]
    for text in texts:
        for value in ("'p'", "'q'"):
            parse_statement(text.replace("'x'", value))
            assert len(parser._shapes) <= capacity
    assert len(parser._shapes) == capacity
    assert parser._shapes.get(shape_of(texts[0])) is None  # least recently used: evicted
    assert isinstance(parser._shapes.get(shape_of(texts[-1])), parser._Template)


def test_eight_threads_parse_mixed_shapes_concurrently():
    texts = [
        shape.format(quote(f"t{index}'"), quote(f"d{index % 3}\n"), quote("--/*"))
        for shape in ENTANGLED_SHAPES + PLAIN_SHAPES
        for index in range(6)
    ]
    expected = {text: parser._parse_text(text) for text in texts}
    start = threading.Barrier(8)
    failures: list[str] = []

    def worker(offset: int) -> None:
        start.wait()
        for round_ in range(20):
            for index in range(len(texts)):
                text = texts[(index * (offset + 1) + round_) % len(texts)]
                if parse_statement(text) != expected[text]:
                    failures.append(text)

    threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the cache's critical sections
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    shapes = {shape_of(text) for text in texts}
    assert len(parser._shapes) == len(shapes)
    assert all(isinstance(parser._shapes.get(shape), parser._Template) for shape in shapes)
