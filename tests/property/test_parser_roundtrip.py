"""Property-based tests: the SQL pretty-printer round-trips through the parser."""

from __future__ import annotations

import string

from hypothesis import given, settings, strategies as st

from repro.sqlparser import ast, format_statement, parse_statement
from repro.sqlparser.tokens import KEYWORDS

# -- strategies -----------------------------------------------------------------

# Bare words, keywords (which the printer must quote) and names only a quoted
# identifier can spell: leading digits, spaces, quotes, punctuation.
identifiers = st.one_of(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8),
    st.sampled_from(sorted(KEYWORDS)).flatmap(
        lambda word: st.sampled_from([word, word.lower(), word.capitalize()])
    ),
    st.text(alphabet=string.ascii_letters + string.digits + " '_-.;", min_size=1, max_size=8),
)

string_literals = st.text(
    alphabet=string.ascii_letters + string.digits + " '.,-", max_size=12
)

positive_floats = st.floats(min_value=1e-7, max_value=1e300, allow_nan=False, allow_infinity=False)

literals = st.one_of(
    st.integers(min_value=-10_000, max_value=10_000).map(ast.Literal),
    st.booleans().map(ast.Literal),
    st.just(ast.Literal(None)),
    string_literals.map(ast.Literal),
    st.one_of(positive_floats, positive_floats.map(lambda value: -value)).map(ast.Literal),
)

column_refs = st.builds(
    ast.ColumnRef,
    name=identifiers,
    table=st.one_of(st.none(), identifiers),
)


def expressions(max_depth: int = 3):
    base = st.one_of(literals, column_refs)
    if max_depth == 0:
        return base
    sub = expressions(max_depth - 1)
    return st.one_of(
        base,
        st.builds(
            ast.BinaryOp,
            operator=st.sampled_from(["+", "-", "*", "=", "!=", "<", "<=", ">", ">=", "AND", "OR"]),
            left=sub,
            right=sub,
        ),
        st.builds(ast.UnaryOp, operator=st.just("NOT"), operand=sub),
        st.builds(ast.IsNull, operand=sub, negated=st.booleans()),
        st.builds(
            ast.InList,
            operand=sub,
            items=st.lists(literals, min_size=1, max_size=3).map(tuple),
            negated=st.booleans(),
        ),
        st.builds(
            ast.Between,
            operand=sub,
            low=literals,
            high=literals,
            negated=st.booleans(),
        ),
        st.builds(
            ast.AnswerMembership,
            items=st.lists(st.one_of(literals, column_refs), min_size=1, max_size=3).map(tuple),
            relation=identifiers,
            negated=st.just(False),
        ),
    )


select_statements = st.builds(
    ast.Select,
    items=st.lists(
        st.builds(ast.SelectItem, expression=expressions(2), alias=st.one_of(st.none(), identifiers)),
        min_size=1,
        max_size=4,
    ).map(tuple),
    from_table=st.one_of(st.none(), st.builds(ast.TableRef, name=identifiers, alias=st.none())),
    where=st.one_of(st.none(), expressions(2)),
    limit=st.one_of(st.none(), st.integers(min_value=0, max_value=100)),
    distinct=st.booleans(),
)


entangled_statements = st.builds(
    ast.EntangledSelect,
    heads=st.lists(
        st.builds(
            ast.AnswerHead,
            items=st.lists(st.one_of(literals.filter(lambda l: l.value is not None), column_refs),
                           min_size=1, max_size=3).map(tuple),
            relation=identifiers,
        ),
        min_size=1,
        max_size=2,
    ).map(tuple),
    where=st.one_of(st.none(), expressions(2)),
    choose=st.integers(min_value=1, max_value=5),
)


@settings(max_examples=150, deadline=None)
@given(select_statements)
def test_select_round_trip(statement: ast.Select):
    """parse(format(ast)) == ast and formatting is idempotent for SELECTs."""
    formatted = format_statement(statement)
    reparsed = parse_statement(formatted)
    # Aliases that the generator left as None may legitimately differ in how
    # bare columns pick up implicit aliases, so compare the formatted text,
    # which is the canonical form.
    assert format_statement(reparsed) == formatted


@settings(max_examples=150, deadline=None)
@given(entangled_statements)
def test_entangled_round_trip(statement: ast.EntangledSelect):
    formatted = format_statement(statement)
    reparsed = parse_statement(formatted)
    assert isinstance(reparsed, ast.EntangledSelect)
    assert format_statement(reparsed) == formatted
    assert reparsed.choose == statement.choose
    assert len(reparsed.heads) == len(statement.heads)


@settings(max_examples=100, deadline=None)
@given(st.lists(literals, min_size=1, max_size=5))
def test_insert_round_trip(values):
    statement = ast.Insert(table="t", columns=(), rows=(tuple(values),))
    formatted = format_statement(statement)
    reparsed = parse_statement(formatted)
    assert reparsed == statement
    assert format_statement(reparsed) == formatted


@settings(max_examples=100, deadline=None)
@given(st.lists(identifiers, min_size=1, max_size=4), identifiers)
def test_create_and_insert_identifiers_round_trip(columns, table):
    """Every identifier the dialect can spell survives print-then-parse."""
    create = ast.CreateTable(
        table, tuple(ast.ColumnDefinition(name, "INT") for name in columns), (columns[0],)
    )
    assert parse_statement(format_statement(create)) == create
    insert = ast.Insert(table, tuple(columns), (tuple(ast.Literal(1.5e-7) for _ in columns),))
    assert parse_statement(format_statement(insert)) == insert
