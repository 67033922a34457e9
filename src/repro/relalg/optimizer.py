"""A small rule-based plan optimizer.

Three rewrites, applied bottom-up until a fixpoint:

1. **Constant folding** in filter predicates (``1 + 1 = 2`` → ``TRUE``),
   including removal of always-true filters.
2. **Predicate pushdown**: conjuncts of a filter that reference only one side
   of a join are pushed below the join.
3. **Index lookups**: a filter of the form ``binding.column = constant`` (or a
   conjunction containing such terms) directly above a scan is converted into
   an :class:`~repro.relalg.plan.IndexLookupNode` probe, with the residual
   predicate kept as a filter.

These are exactly the rewrites the coordination component benefits from when
grounding entangled queries against the flight/hotel tables.  All three always
apply; a predicate written as ``(p) OR FALSE`` has no top-level equality
conjunct, which is how tests get a scanning plan to compare against.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.relalg import plan as planops
from repro.relalg.expressions import ExpressionEvaluator
from repro.relalg.rows import RowEnv
from repro.sqlparser import ast
from repro.storage.database import Database
from repro.storage.schema import TableSchema


def split_conjuncts(expression: ast.Expression) -> list[ast.Expression]:
    """Split an expression on top-level ANDs."""
    if isinstance(expression, ast.BinaryOp) and expression.operator == "AND":
        return split_conjuncts(expression.left) + split_conjuncts(expression.right)
    return [expression]


def join_conjuncts(conjuncts: list[ast.Expression]) -> Optional[ast.Expression]:
    """Rebuild a conjunction from a list of conjuncts (None when empty)."""
    if not conjuncts:
        return None
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = ast.BinaryOp("AND", result, conjunct)
    return result


def _referenced_bindings(expression: ast.Expression) -> set[str]:
    """Binding names referenced by qualified column refs (bare refs → '?')."""
    bindings: set[str] = set()
    for ref in ast.expression_column_refs(expression):
        bindings.add(ref.table.lower() if ref.table else "?")
    for node in ast.walk_expression(expression):
        if isinstance(node, ast.InSubquery):
            # Correlated subqueries may reference anything; be conservative.
            bindings.add("?")
    return bindings


def _is_constant(expression: ast.Expression) -> bool:
    """Whether an expression references no columns and no subqueries."""
    for node in ast.walk_expression(expression):
        if isinstance(node, (ast.ColumnRef, ast.Star, ast.InSubquery, ast.AnswerMembership)):
            return False
    return True


_FOLD_EVALUATOR = ExpressionEvaluator()


def fold_constants(expression: ast.Expression) -> ast.Expression:
    """Replace constant subexpressions by literals where safe."""
    if _is_constant(expression):
        try:
            return ast.Literal(_FOLD_EVALUATOR.evaluate(expression, RowEnv({})))
        except Exception:  # noqa: BLE001 - fall back to the original expression
            return expression
    if isinstance(expression, ast.BinaryOp):
        return ast.BinaryOp(
            expression.operator,
            fold_constants(expression.left),
            fold_constants(expression.right),
        )
    if isinstance(expression, ast.UnaryOp):
        return ast.UnaryOp(expression.operator, fold_constants(expression.operand))
    return expression


def _scan_bindings(node: planops.PlanNode) -> set[str]:
    """All binding names produced by scans underneath ``node``."""
    if isinstance(node, (planops.ScanNode, planops.IndexLookupNode)):
        return {node.binding.lower()}
    result: set[str] = set()
    for child in node.children():
        result |= _scan_bindings(child)
    return result


def _push_filter_into_join(filter_node: planops.FilterNode) -> planops.PlanNode:
    join = filter_node.child
    assert isinstance(join, planops.JoinNode)
    left_bindings = _scan_bindings(join.left)
    right_bindings = _scan_bindings(join.right)

    left_conjuncts: list[ast.Expression] = []
    right_conjuncts: list[ast.Expression] = []
    residual: list[ast.Expression] = []
    for conjunct in split_conjuncts(filter_node.predicate):
        referenced = _referenced_bindings(conjunct)
        if "?" in referenced:
            residual.append(conjunct)
        elif referenced and referenced <= left_bindings:
            left_conjuncts.append(conjunct)
        elif referenced and referenced <= right_bindings and join.kind != "left":
            right_conjuncts.append(conjunct)
        else:
            residual.append(conjunct)

    if not left_conjuncts and not right_conjuncts:
        # Nothing can be pushed; return the original node unchanged so the
        # caller does not loop re-optimizing an identical tree.
        return filter_node

    new_left = join.left
    if left_conjuncts:
        new_left = planops.FilterNode(new_left, join_conjuncts(left_conjuncts))
    new_right = join.right
    if right_conjuncts:
        new_right = planops.FilterNode(new_right, join_conjuncts(right_conjuncts))
    new_join = replace(join, left=new_left, right=new_right)
    residual_predicate = join_conjuncts(residual)
    if residual_predicate is None:
        return new_join
    return planops.FilterNode(new_join, residual_predicate)


def split_equalities(
    predicate: ast.Expression, schema: TableSchema, binding: str
) -> tuple[dict[str, ast.Expression], list[ast.Expression]]:
    """Split ``predicate`` into ``column = constant`` probes and the rest.

    Returns ``(equality, residual)``: ``equality`` maps each column of the
    table bound as ``binding`` to the constant expression its top-level
    conjunct equates it with, ``residual`` holds every other conjunct.  Used
    by index lookups under SELECT and by keyed UPDATE / DELETE alike.
    """
    binding = binding.lower()
    equality: dict[str, ast.Expression] = {}
    residual: list[ast.Expression] = []
    for conjunct in split_conjuncts(predicate):
        matched = False
        if isinstance(conjunct, ast.BinaryOp) and conjunct.operator == "=":
            sides = [(conjunct.left, conjunct.right), (conjunct.right, conjunct.left)]
            for column_side, value_side in sides:
                if (
                    isinstance(column_side, ast.ColumnRef)
                    and (column_side.table is None or column_side.table.lower() == binding)
                    and schema.has_column(column_side.name)
                    and _is_constant(value_side)
                ):
                    column_name = schema.column(column_side.name).name
                    if column_name in equality:
                        # A second equality on the same column (possibly
                        # contradictory) must stay as a residual filter.
                        break
                    equality[column_name] = value_side
                    matched = True
                    break
        if not matched:
            residual.append(conjunct)
    return equality, residual


def _try_index_lookup(
    filter_node: planops.FilterNode, database: Database
) -> planops.PlanNode | None:
    scan = filter_node.child
    if not isinstance(scan, planops.ScanNode):
        return None
    equality, residual = split_equalities(
        filter_node.predicate, database.schema(scan.table_name), scan.binding
    )
    if not equality:
        return None
    lookup = planops.IndexLookupNode(scan.table_name, scan.binding, equality)
    residual_predicate = join_conjuncts(residual)
    if residual_predicate is None:
        return lookup
    return planops.FilterNode(lookup, residual_predicate)


def optimize(node: planops.PlanNode, database: Database) -> planops.PlanNode:
    """Apply the rewrite rules bottom-up."""
    # Recurse into children first.
    if isinstance(node, planops.FilterNode):
        child = optimize(node.child, database)
        predicate = fold_constants(node.predicate)
        if isinstance(predicate, ast.Literal):
            if predicate.value:
                return child
            # Always-false filter: keep it (it still types the output) but on
            # the optimized child.
            return planops.FilterNode(child, predicate)
        rewritten = planops.FilterNode(child, predicate)
        if isinstance(child, planops.JoinNode):
            pushed = _push_filter_into_join(rewritten)
            if not isinstance(pushed, planops.FilterNode) or pushed.child is not child:
                return optimize(pushed, database)
            rewritten = pushed
        as_lookup = _try_index_lookup(rewritten, database)
        if as_lookup is not None:
            return as_lookup
        return rewritten

    if isinstance(node, planops.JoinNode):
        return replace(
            node,
            left=optimize(node.left, database),
            right=optimize(node.right, database),
        )
    if isinstance(node, planops.ProjectNode):
        return replace(node, child=optimize(node.child, database))
    if isinstance(node, planops.AggregateNode):
        return replace(node, child=optimize(node.child, database))
    if isinstance(node, planops.SortNode):
        return replace(node, child=optimize(node.child, database))
    if isinstance(node, planops.LimitNode):
        return replace(node, child=optimize(node.child, database))
    if isinstance(node, planops.DistinctNode):
        return replace(node, child=optimize(node.child, database))
    return node
