"""The matching algorithm of the coordination component.

Given a newly arrived (or retried) entangled query — the *trigger* — and the
pool of pending queries, the matcher looks for a group of queries that can be
answered jointly:

1. **Structural phase.**  Every answer-constraint atom of every query in the
   group must be *provided by* a head atom of some query in the group
   (possibly the same query).  Providers are found through the grid index
   over the pool's head atoms (:class:`~repro.core.matchplan.GridProviderIndex`)
   and the pairing is checked by unification: constants must agree
   positionally and variables across queries are merged into equivalence
   classes.

2. **Grounding phase.**  Once a structurally consistent group is found, the
   matcher grounds it against the database: for each query it enumerates the
   valuations allowed by its ``x IN (SELECT ...)`` domain constraints and
   residual predicates, and searches for a joint assignment that respects the
   variable equivalence classes established during unification.  ``CHOOSE 1``
   means one valuation per query.

   Each domain subquery's result is kept across attempts, keyed by its
   printed text and stamped with the write stamps of the tables it reads
   (see :mod:`repro.storage.table`): a domain is re-executed only when one
   of those tables changed since its result was stored, and a domain that
   reads a view or an unknown table is executed on every attempt.

The search is backtracking over both phases, so a group that unifies but has
no consistent grounding is abandoned and alternative providers are explored.
The answer relation produced by a successful match contains exactly the
instantiated head atoms of the group — the *minimality* requirement of the
semantics — and every answer constraint is satisfied by construction because
it was unified with one of those heads.
"""

from __future__ import annotations

import random
from collections import OrderedDict, defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Optional

from repro.core import ir
from repro.core.matchplan import (
    DomainPlan,
    GridProviderIndex,
    MatchPlanCache,
    Provider,
    QueryPlan,
    apply_pair,
)
from repro.errors import EntanglementError
from repro.relalg.engine import QueryEngine
from repro.relalg.rows import RowEnv

# A variable is identified globally by (query_id, variable_name).
VarNode = tuple[str, str]

_UNBOUND = object()

# How many domain results the matcher keeps across attempts (least recently
# used first out).  A travel site grounds a few destinations; the bound only
# stops a stream of one-off domains from growing the map without limit.
DOMAIN_RESULT_CAPACITY = 256

__all__ = [
    "GridProviderIndex",
    "MatchPlanCache",
    "MatchStatistics",
    "MatchedGroup",
    "Matcher",
    "Provider",
    "Unifier",
    "VarNode",
]


class Unifier:
    """Union-find over query-scoped variables with constant binding and undo.

    The structural phase needs cheap backtracking, so every mutating operation
    appends an undo record to a trail; :meth:`mark` / :meth:`undo_to` restore
    any earlier state.  Path compression is deliberately not used — classes are
    tiny (a handful of variables per coordination group) and skipping it keeps
    the trail trivially correct.
    """

    def __init__(self) -> None:
        self._parent: dict[VarNode, VarNode] = {}
        self._value: dict[VarNode, Any] = {}
        self._trail: list[tuple[str, VarNode, Any]] = []

    # -- bookkeeping ---------------------------------------------------------------

    def mark(self) -> int:
        return len(self._trail)

    def undo_to(self, mark: int) -> None:
        while len(self._trail) > mark:
            kind, node, previous = self._trail.pop()
            if kind == "parent":
                if previous is None:
                    del self._parent[node]
                else:
                    self._parent[node] = previous
            else:  # value
                if previous is _UNBOUND:
                    self._value.pop(node, None)
                else:
                    self._value[node] = previous

    # -- core operations --------------------------------------------------------------

    def find(self, node: VarNode) -> VarNode:
        while node in self._parent:
            node = self._parent[node]
        return node

    def value_of(self, node: VarNode) -> Any:
        """The constant bound to the node's class, or ``_UNBOUND``."""
        return self._value.get(self.find(node), _UNBOUND)

    def bind(self, node: VarNode, value: Any) -> bool:
        root = self.find(node)
        current = self._value.get(root, _UNBOUND)
        if current is not _UNBOUND:
            return current == value
        self._trail.append(("value", root, _UNBOUND))
        self._value[root] = value
        return True

    def union(self, left: VarNode, right: VarNode) -> bool:
        root_left = self.find(left)
        root_right = self.find(right)
        if root_left == root_right:
            return True
        value_left = self._value.get(root_left, _UNBOUND)
        value_right = self._value.get(root_right, _UNBOUND)
        if value_left is not _UNBOUND and value_right is not _UNBOUND and value_left != value_right:
            return False
        self._trail.append(("parent", root_left, None))
        self._parent[root_left] = root_right
        if value_left is not _UNBOUND and value_right is _UNBOUND:
            self._trail.append(("value", root_right, _UNBOUND))
            self._value[root_right] = value_left
        return True


# ---------------------------------------------------------------------------
# Match results and statistics
# ---------------------------------------------------------------------------


@dataclass
class MatchStatistics:
    """Counters describing the work one ``find_group`` call performed.

    ``domain_queries`` counts domain subqueries actually executed: a result
    reused from an earlier attempt is not counted.
    """

    structural_nodes: int = 0
    unification_attempts: int = 0
    grounding_attempts: int = 0
    domain_queries: int = 0
    candidate_providers: int = 0


@dataclass
class MatchedGroup:
    """A successfully matched and grounded group of entangled queries."""

    queries: list[ir.EntangledQuery]
    bindings: dict[str, list[dict[str, Any]]]
    providers: dict[tuple[str, int], Provider]
    statistics: MatchStatistics = field(default_factory=MatchStatistics)

    @property
    def query_ids(self) -> list[str]:
        return [query.query_id for query in self.queries]

    def answers(self) -> list[ir.GroundAnswer]:
        """Per-query ground answers (head tuples under the chosen valuations)."""
        results: list[ir.GroundAnswer] = []
        for query in self.queries:
            tuples: dict[str, list[tuple[Any, ...]]] = defaultdict(list)
            for valuation in self.bindings[query.query_id]:
                for atom in query.heads:
                    tuples[atom.relation].append(atom.substitute(valuation))
            primary = self.bindings[query.query_id][0] if self.bindings[query.query_id] else {}
            results.append(
                ir.GroundAnswer(
                    query_id=query.query_id,
                    binding=dict(primary),
                    tuples={relation: tuple(rows) for relation, rows in tuples.items()},
                )
            )
        return results

    def answer_relation_contents(self) -> dict[str, list[tuple[Any, ...]]]:
        """The tuples the whole group contributes, per answer relation."""
        contents: dict[str, list[tuple[Any, ...]]] = defaultdict(list)
        for answer in self.answers():
            for relation, values in answer.all_tuples():
                contents[relation].append(values)
        return dict(contents)


def _group_signature(group: MatchedGroup) -> tuple[Any, ...]:
    """A hashable identity for a candidate group: members + induced head tuples.

    Two structural search paths that reach the same member set with the same
    grounded answer tuples are the same candidate for policy purposes, so
    enumeration de-duplicates on this key.
    """
    parts = []
    for answer in group.answers():
        relations = tuple(
            (relation, rows)
            for relation, rows in sorted(answer.tuples.items(), key=lambda item: item[0])
        )
        parts.append((answer.query_id, relations))
    parts.sort(key=lambda part: part[0])
    return tuple(parts)


# ---------------------------------------------------------------------------
# The matcher
# ---------------------------------------------------------------------------


class Matcher:
    """Implements the two-phase (unification + grounding) matching algorithm.

    Both phases run over precompiled :class:`~repro.core.matchplan.QueryPlan`
    objects: candidate probes use the precomputed relation key and constant
    positions, each (probe atom, provider atom) unification executes a
    memoized :class:`~repro.core.matchplan.PairOps` program, and grounding
    iterates the plan's precomputed variable nodes.

    ``_domain_results`` maps a domain's printed text to the write stamps of
    the tables it read and the rows it returned.  Like the plans it is
    derived state: touched only under the coordinator's lock, never
    journaled or shipped, and empty in a new process.
    """

    def __init__(
        self,
        engine: QueryEngine,
        rng: Optional[random.Random] = None,
        max_group_size: int = 32,
        max_structural_nodes: int = 200_000,
    ) -> None:
        self.engine = engine
        self.rng = rng or random.Random()
        self.max_group_size = max_group_size
        self.max_structural_nodes = max_structural_nodes
        self.plan_cache = MatchPlanCache()
        self._domain_results: OrderedDict[
            str, tuple[tuple[int, ...], list[tuple[Any, ...]]]
        ] = OrderedDict()

    # -- public API --------------------------------------------------------------------

    def find_group(
        self,
        trigger: ir.EntangledQuery,
        pool: Mapping[str, ir.EntangledQuery],
        index: GridProviderIndex,
    ) -> Optional[MatchedGroup]:
        """Search for a matchable group containing ``trigger``.

        ``pool`` must already contain the trigger (keyed by its query id) and
        ``index`` must cover exactly the queries in ``pool``.  Returns ``None``
        when no group can currently be formed — the trigger then stays pending.

        This is the first element of :meth:`enumerate_groups`: the enumeration
        is lazy, so taking only the first candidate performs exactly the work
        the pre-enumeration search did (same node order, same rng draws, same
        early exit on the first grounded group).
        """
        for matched in self.enumerate_groups(trigger, pool, index, limit=1):
            return matched
        return None

    def enumerate_groups(
        self,
        trigger: ir.EntangledQuery,
        pool: Mapping[str, ir.EntangledQuery],
        index: GridProviderIndex,
        limit: Optional[int] = None,
    ) -> Iterator[MatchedGroup]:
        """Lazily yield distinct candidate match groups containing ``trigger``.

        Groups are produced in search order (the order the backtracking search
        discovers them) and de-duplicated on their induced answer tuples: two
        structural paths that ground to the same members and the same head
        tuples count once.  ``limit`` bounds how many groups are yielded — the
        search stops as soon as the limit is reached, so enumeration cost is
        proportional to the number of candidates actually requested.  All
        yielded groups share one :class:`MatchStatistics` object describing
        the whole enumeration.
        """
        if trigger.query_id not in pool:
            raise EntanglementError("the trigger query must be part of the pending pool")
        if limit is not None and limit <= 0:
            return
        statistics = MatchStatistics()
        domain_cache: dict[str, list[tuple[Any, ...]]] = {}
        unifier = Unifier()
        group: dict[str, ir.EntangledQuery] = {trigger.query_id: trigger}
        obligations = [
            (trigger.query_id, atom_index)
            for atom_index in range(len(trigger.answer_atoms))
        ]
        providers: dict[tuple[str, int], Provider] = {}
        produced = 0
        seen: set[tuple[Any, ...]] = set()
        for matched in self._search(
            group, obligations, providers, unifier, pool, index, statistics, domain_cache
        ):
            key = _group_signature(matched)
            if key in seen:
                continue
            seen.add(key)
            yield matched
            produced += 1
            if limit is not None and produced >= limit:
                return

    # -- structural phase -----------------------------------------------------------------

    def _search(
        self,
        group: dict[str, ir.EntangledQuery],
        obligations: list[tuple[str, int]],
        providers: dict[tuple[str, int], Provider],
        unifier: Unifier,
        pool: Mapping[str, ir.EntangledQuery],
        index: GridProviderIndex,
        statistics: MatchStatistics,
        domain_cache: dict[str, list[tuple[Any, ...]]],
    ) -> Iterator[MatchedGroup]:
        statistics.structural_nodes += 1
        if statistics.structural_nodes > self.max_structural_nodes:
            return

        if not obligations:
            for bindings in self._ground(list(group.values()), unifier, statistics, domain_cache):
                yield MatchedGroup(
                    queries=list(group.values()),
                    bindings=bindings,
                    providers=dict(providers),
                    statistics=statistics,
                )
            return

        query_id, atom_index = obligations[-1]
        cache = self.plan_cache
        probe = cache.plan_for(group[query_id]).answer_atoms[atom_index]
        candidates = index.candidates_compiled(probe)
        statistics.candidate_providers += len(candidates)

        in_group = [candidate for candidate in candidates if candidate.query_id in group]
        outside = [candidate for candidate in candidates if candidate.query_id not in group]
        self.rng.shuffle(in_group)
        self.rng.shuffle(outside)

        for candidate in in_group + outside:
            provider_query = pool.get(candidate.query_id)
            if provider_query is None:
                continue
            added = False
            if candidate.query_id not in group:
                if len(group) >= self.max_group_size:
                    continue
                added = True

            mark = unifier.mark()
            statistics.unification_attempts += 1
            head = cache.plan_for(provider_query).heads[candidate.head_index]
            if not apply_pair(unifier, cache.pair_ops(probe, head)):
                unifier.undo_to(mark)
                continue

            new_group = group
            new_obligations = obligations[:-1]
            if added:
                new_group = dict(group)
                new_group[candidate.query_id] = provider_query
                new_obligations = new_obligations + [
                    (candidate.query_id, new_index)
                    for new_index in range(len(provider_query.answer_atoms))
                ]

            providers[(query_id, atom_index)] = candidate
            yield from self._search(
                new_group,
                new_obligations,
                providers,
                unifier,
                pool,
                index,
                statistics,
                domain_cache,
            )
            del providers[(query_id, atom_index)]
            unifier.undo_to(mark)

    # -- grounding phase -------------------------------------------------------------------

    def _ground(
        self,
        queries: list[ir.EntangledQuery],
        unifier: Unifier,
        statistics: MatchStatistics,
        domain_cache: dict[str, list[tuple[Any, ...]]],
    ) -> Iterator[dict[str, list[dict[str, Any]]]]:
        statistics.grounding_attempts += 1
        plans = [self.plan_cache.plan_for(query) for query in queries]
        yield from self._assign_query(
            0, queries, plans, unifier, {}, {}, statistics, domain_cache
        )

    def _assign_query(
        self,
        position: int,
        queries: list[ir.EntangledQuery],
        plans: list[QueryPlan],
        unifier: Unifier,
        class_values: dict[VarNode, Any],
        assignments: dict[str, list[dict[str, Any]]],
        statistics: MatchStatistics,
        domain_cache: dict[str, list[tuple[Any, ...]]],
    ) -> Iterator[dict[str, list[dict[str, Any]]]]:
        if position == len(queries):
            # Snapshot: parent frames keep mutating ``assignments`` as the
            # enumeration backtracks past this yield.
            yield {
                query_id: [dict(valuation) for valuation in chosen]
                for query_id, chosen in assignments.items()
            }
            return
        query = queries[position]
        plan = plans[position]

        pre_bound: dict[str, Any] = {}
        for name, node in plan.var_items:
            constant = unifier.value_of(node)
            if constant is not _UNBOUND:
                pre_bound[name] = constant
                continue
            root = unifier.find(node)
            if root in class_values:
                pre_bound[name] = class_values[root]

        domains = plan.domains()
        valuations = self._enumerate_valuations(
            query, domains, pre_bound, statistics, domain_cache
        )
        self.rng.shuffle(valuations)

        node_map = plan.node_map
        for valuation in valuations:
            extended = dict(class_values)
            consistent = True
            for name, value in valuation.items():
                node = node_map[name]
                constant = unifier.value_of(node)
                if constant is not _UNBOUND and constant != value:
                    consistent = False
                    break
                root = unifier.find(node)
                if root in extended and extended[root] != value:
                    consistent = False
                    break
                extended[root] = value
            if not consistent:
                continue

            chosen = [valuation]
            if query.choose > 1:
                extra = self._extra_choices(
                    query, domains, valuation, pre_bound, statistics, domain_cache
                )
                if len(extra) + 1 < query.choose:
                    continue
                chosen = [valuation] + extra[: query.choose - 1]

            assignments[query.query_id] = chosen
            yield from self._assign_query(
                position + 1,
                queries,
                plans,
                unifier,
                extended,
                assignments,
                statistics,
                domain_cache,
            )
            del assignments[query.query_id]

    def _extra_choices(
        self,
        query: ir.EntangledQuery,
        domains: tuple[DomainPlan, ...],
        first: dict[str, Any],
        pre_bound: dict[str, Any],
        statistics: MatchStatistics,
        domain_cache: dict[str, list[tuple[Any, ...]]],
    ) -> list[dict[str, Any]]:
        """Additional distinct valuations for ``CHOOSE k`` (k > 1) queries.

        Such queries have no coordination constraints (the compiler enforces
        this), so the extra valuations only need to respect the query's own
        domains and predicates, plus any values fixed by unification.
        """
        others = [
            valuation
            for valuation in self._enumerate_valuations(
                query, domains, pre_bound, statistics, domain_cache
            )
            if valuation != first
        ]
        self.rng.shuffle(others)
        # De-duplicate on the induced head tuples, not the raw valuations.
        seen: set[tuple[tuple[Any, ...], ...]] = {
            tuple(atom.substitute(first) for atom in query.heads)
        }
        distinct: list[dict[str, Any]] = []
        for valuation in others:
            signature = tuple(atom.substitute(valuation) for atom in query.heads)
            if signature in seen:
                continue
            seen.add(signature)
            distinct.append(valuation)
        return distinct

    # -- valuation enumeration ------------------------------------------------------------------

    def _enumerate_valuations(
        self,
        query: ir.EntangledQuery,
        domains: tuple[DomainPlan, ...],
        pre_bound: dict[str, Any],
        statistics: MatchStatistics,
        domain_cache: dict[str, list[tuple[Any, ...]]],
    ) -> list[dict[str, Any]]:
        """All valuations of ``query``'s variables allowed by its own body.

        ``domains`` are the query's domain constraints as compiled
        :class:`~repro.core.matchplan.DomainPlan` objects.
        """
        valuations: list[dict[str, Any]] = [dict(pre_bound)]
        for domain in domains:
            rows = self._domain_rows(domain, statistics, domain_cache)
            variables = domain.constraint.variables
            extended: list[dict[str, Any]] = []
            for partial in valuations:
                for row in rows:
                    if len(row) != len(variables):
                        raise EntanglementError(
                            f"domain constraint {domain.constraint} produced rows "
                            f"of width {len(row)}"
                        )
                    candidate = dict(partial)
                    compatible = True
                    for name, value in zip(variables, row):
                        if name in candidate and candidate[name] != value:
                            compatible = False
                            break
                        candidate[name] = value
                    if compatible:
                        extended.append(candidate)
            valuations = extended
            if not valuations:
                return []

        if query.predicates:
            evaluator = self.engine.evaluator
            filtered: list[dict[str, Any]] = []
            for valuation in valuations:
                env = RowEnv({name.lower(): value for name, value in valuation.items()})
                if all(
                    evaluator.evaluate_predicate(predicate.expression, env)
                    for predicate in query.predicates
                ):
                    filtered.append(valuation)
            valuations = filtered

        return valuations

    def _domain_rows(
        self,
        domain: DomainPlan,
        statistics: MatchStatistics,
        domain_cache: dict[str, list[tuple[Any, ...]]],
    ) -> list[tuple[Any, ...]]:
        """The domain subquery's rows, executed at most once per attempt.

        Across attempts a stored result is reused while every table the
        subquery reads still carries the stamp it had when the result was
        stored.  The stamps are read *before* executing, so a write that races
        the execution leaves an entry whose stamps never match again.  Rows
        keep the order a fresh execution returns, so the grounding consumes
        the match RNG exactly as it would without the cache.
        """
        key = domain.key
        rows = domain_cache.get(key)
        if rows is not None:
            return rows
        results = self._domain_results
        stamps = self.engine.database.stamps(domain.tables)
        stored = results.get(key) if stamps is not None else None
        if stored is not None and stored[0] == stamps:
            results.move_to_end(key)
            rows = stored[1]
        else:
            statistics.domain_queries += 1
            rows = self.engine.execute(domain.constraint.subquery).rows
            if stamps is not None:
                results[key] = (stamps, rows)
                results.move_to_end(key)
                if len(results) > DOMAIN_RESULT_CAPACITY:
                    results.popitem(last=False)
        domain_cache[key] = rows
        return rows
