"""The query engine facade: execute SQL statements against a Database.

This is the "execution engine" of the Youtopia architecture (Figure 2).  It
evaluates plain SQL — DDL, DML and SELECT — and is also used internally by the
coordination component to ground entangled queries against the database.
Entangled SELECTs are *not* handled here; they are routed to the coordination
component by the system facade (:class:`repro.core.system.YoutopiaSystem`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.errors import EvaluationError, PlanError
from repro.relalg.expressions import ExpressionEvaluator
from repro.relalg.optimizer import join_conjuncts, optimize, split_equalities
from repro.relalg.plan import PlanContext, PlanNode
from repro.relalg.planner import build_plan, output_columns
from repro.relalg.rows import RowEnv, bind_row
from repro.sqlparser import ast, parse_statement
from repro.storage.database import Database
from repro.storage.schema import Column, ColumnType, TableSchema


@dataclass
class QueryResult:
    """Result of executing a statement.

    ``columns``/``rows`` are filled for SELECTs; ``affected`` for DML; DDL
    statements produce an empty result with ``command`` describing the action.
    """

    command: str
    columns: list[str] = field(default_factory=list)
    rows: list[tuple[Any, ...]] = field(default_factory=list)
    affected: int = 0

    def as_dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def scalar(self) -> Any:
        """The single value of a 1x1 result (convenience for tests/CLI)."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise EvaluationError("result is not a single scalar")
        return self.rows[0][0]

    def __len__(self) -> int:
        return len(self.rows)


class QueryEngine:
    """Plans and executes statements against a :class:`Database`."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._evaluator = ExpressionEvaluator(subquery_callback=self._run_subquery)

    @property
    def evaluator(self) -> ExpressionEvaluator:
        """The engine's expression evaluator (subquery-aware).

        Exposed for the coordination component, which evaluates residual
        predicates of entangled queries against candidate valuations.
        """
        return self._evaluator

    # -- public API ------------------------------------------------------------------

    def execute(self, statement: ast.Statement | str) -> QueryResult:
        """Execute one statement (SQL text or a parsed AST node)."""
        if isinstance(statement, str):
            statement = parse_statement(statement)
        if isinstance(statement, ast.Select):
            return self._execute_select(statement)
        if isinstance(statement, ast.EntangledSelect):
            raise PlanError(
                "entangled queries must be submitted to the Youtopia system, "
                "not the plain query engine"
            )
        if isinstance(statement, ast.CreateTable):
            return self._execute_create_table(statement)
        if isinstance(statement, ast.DropTable):
            self.database.drop_table(statement.name, if_exists=statement.if_exists)
            return QueryResult(command="DROP TABLE")
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement)
        if isinstance(statement, ast.Update):
            return self._execute_update(statement)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(statement)
        raise PlanError(f"unsupported statement: {statement!r}")

    def query(self, sql: str) -> QueryResult:
        """Execute a SELECT given as text (convenience wrapper)."""
        return self.execute(sql)

    def explain(self, statement: ast.Select | str) -> str:
        """Return the optimized plan of a SELECT as indented text."""
        if isinstance(statement, str):
            statement = parse_statement(statement)  # type: ignore[assignment]
        if not isinstance(statement, ast.Select):
            raise PlanError("EXPLAIN is only supported for plain SELECT statements")
        plan = optimize(build_plan(statement, self.database), self.database)
        return plan.explain()

    # -- SELECT ----------------------------------------------------------------------

    def _execute_select(
        self, select: ast.Select, outer_env: Optional[RowEnv] = None
    ) -> QueryResult:
        plan = optimize(build_plan(select, self.database), self.database)
        columns = output_columns(select, self.database)
        context = PlanContext(self.database, self._evaluator, outer_env)
        rows: list[tuple[Any, ...]] = []
        for row in plan.rows(context):
            if any(isinstance(item.expression, ast.Star) for item in select.items):
                # Star output: keep the order computed by output_columns.
                rows.append(tuple(row.get(column) for column in columns))
            else:
                rows.append(tuple(row.get(column) for column in columns))
        return QueryResult(command="SELECT", columns=columns, rows=rows)

    def _run_subquery(
        self, select: ast.Select, outer_env: Optional[RowEnv]
    ) -> list[tuple[Any, ...]]:
        return self._execute_select(select, outer_env).rows

    def run_plan(self, plan: PlanNode, outer_env: Optional[RowEnv] = None) -> list[dict[str, Any]]:
        """Execute an already-built plan (used by the coordination grounding)."""
        context = PlanContext(self.database, self._evaluator, outer_env)
        return list(plan.rows(context))

    # -- DDL --------------------------------------------------------------------------

    def _execute_create_table(self, statement: ast.CreateTable) -> QueryResult:
        columns = tuple(
            Column(definition.name, ColumnType.from_name(definition.type_name), definition.nullable)
            for definition in statement.columns
        )
        schema = TableSchema(statement.name, columns, tuple(statement.primary_key))
        self.database.create_table(schema, if_not_exists=statement.if_not_exists)
        return QueryResult(command="CREATE TABLE")

    # -- DML --------------------------------------------------------------------------

    def _execute_insert(self, statement: ast.Insert) -> QueryResult:
        schema = self.database.schema(statement.table)
        rows: list[Sequence[Any]] = []
        for row_exprs in statement.rows:
            values = [self._evaluator.evaluate(expr, RowEnv({})) for expr in row_exprs]
            if statement.columns:
                if len(values) != len(statement.columns):
                    raise EvaluationError(
                        f"INSERT specifies {len(statement.columns)} columns "
                        f"but {len(values)} values"
                    )
                rows.append(schema.row_from_mapping(dict(zip(statement.columns, values))))
            else:
                if len(values) != schema.arity:
                    raise EvaluationError(
                        f"INSERT into {schema.name!r} expects {schema.arity} values, "
                        f"got {len(values)}"
                    )
                rows.append(values)
        # one all-or-nothing batch: a row that fails leaves none of the others
        self.database.insert_many(statement.table, rows)
        return QueryResult(command="INSERT", affected=len(rows))

    def _target_rows(
        self, table_name: str, where: Optional[ast.Expression]
    ) -> tuple[dict[str, Any], Optional[Callable[[dict[str, Any]], bool]]]:
        """The key probe and residual predicate selecting an UPDATE/DELETE's rows.

        ``column = constant`` conjuncts of ``where`` become the probe, which
        storage answers from an index exactly covering those columns (scanning
        without one); the other conjuncts are evaluated on the probed rows only.
        """
        probe: dict[str, Any] = {}
        if where is not None:
            equality, residual = split_equalities(
                where, self.database.schema(table_name), table_name
            )
            probe = {column: self._evaluator.evaluate(value) for column, value in equality.items()}
            where = join_conjuncts(residual)
        if where is None:
            return probe, None
        return probe, lambda row: self._evaluator.evaluate_predicate(
            where, _row_env(table_name, row)
        )

    def _execute_update(self, statement: ast.Update) -> QueryResult:
        assignments = statement.assignments

        def updater(row: dict[str, Any]) -> dict[str, Any]:
            env = _row_env(statement.table, row)
            return {
                column: self._evaluator.evaluate(expression, env)
                for column, expression in assignments
            }

        probe, predicate = self._target_rows(statement.table, statement.where)
        affected = self.database.update_by_key(statement.table, probe, updater, predicate)
        return QueryResult(command="UPDATE", affected=affected)

    def _execute_delete(self, statement: ast.Delete) -> QueryResult:
        probe, predicate = self._target_rows(statement.table, statement.where)
        affected = self.database.delete_by_key(statement.table, probe, predicate)
        return QueryResult(command="DELETE", affected=affected)


def _row_env(table_name: str, row: dict[str, Any]) -> RowEnv:
    """A DML row's scope: its columns by bare name and qualified by the table."""
    values = bind_row(table_name, row)
    values.update((column.lower(), value) for column, value in row.items())
    return RowEnv(values)


def run_script(engine: QueryEngine, sql: str) -> list[QueryResult]:
    """Execute a ``;``-separated script, returning one result per statement."""
    from repro.sqlparser import parse_script

    return [engine.execute(statement) for statement in parse_script(sql)]
