"""Reference implementations of the matcher, kept as test oracles.

Production has one matcher: compiled match plans over the grid provider index
(:class:`repro.core.matching.Matcher` probing a
:class:`repro.core.matchplan.GridProviderIndex`).  This module holds the
simpler implementations that matcher replaced, so the differential tests can
hold it to them:

* :class:`ReferenceProviderIndex` — the single-key provider index: refine the
  (relation, arity) bucket one bound column at a time with fresh ``set``
  intersections, then rescan the whole bucket to restore arrival order.
* :class:`InterpretedMatcher` — a :class:`~repro.core.matching.Matcher` whose
  structural and grounding steps interpret IR terms on every attempt instead
  of running compiled plans.  It probes the index with the raw atom, unifies
  term by term and addresses variables as ``(query_id, name)``, and draws
  from the RNG exactly where the production matcher does, so both commit the
  same groups with the same tuples.  It keeps no domain result across
  attempts: every attempt executes each domain subquery afresh, so it is
  also the oracle for the production matcher's stamped domain-result cache.
* :class:`ExhaustiveEvaluator` — the declarative semantics by brute force:
  every subset of the pool × every valuation, exponential in both.
* :func:`unify_terms` / :func:`unify_atoms` — term-by-term unification
  against a :class:`~repro.core.matching.Unifier`.

Tests import this module by name (``from matching_reference import ...``);
``tests/conftest.py`` puts ``tests/`` on ``sys.path``.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from typing import Any, Iterator, Mapping, Optional

from repro.core import ir
from repro.core.matching import (
    _UNBOUND,
    MatchedGroup,
    Matcher,
    MatchStatistics,
    Unifier,
    VarNode,
)
from repro.core.matchplan import CompiledAtom, DomainPlan, Provider
from repro.relalg.engine import QueryEngine
from repro.relalg.rows import RowEnv
from repro.sqlparser.pretty import format_statement

__all__ = [
    "ExhaustiveEvaluator",
    "InterpretedMatcher",
    "ReferenceProviderIndex",
    "unify_atoms",
    "unify_terms",
]


# ---------------------------------------------------------------------------
# Term-by-term unification
# ---------------------------------------------------------------------------


def unify_terms(
    unifier: Unifier, query_left: str, term_left: ir.Term, query_right: str, term_right: ir.Term
) -> bool:
    """Unify two terms belonging to (possibly different) queries."""
    left_is_const = isinstance(term_left, ir.Constant)
    right_is_const = isinstance(term_right, ir.Constant)
    if left_is_const and right_is_const:
        return term_left.value == term_right.value
    if left_is_const:
        return unifier.bind((query_right, term_right.name), term_left.value)
    if right_is_const:
        return unifier.bind((query_left, term_left.name), term_right.value)
    return unifier.union((query_left, term_left.name), (query_right, term_right.name))


def unify_atoms(
    unifier: Unifier, query_left: str, atom_left: ir.Atom, query_right: str, atom_right: ir.Atom
) -> bool:
    """Unify two atoms position by position (the caller marks and undoes)."""
    if atom_left.relation.lower() != atom_right.relation.lower():
        return False
    if atom_left.arity != atom_right.arity:
        return False
    for term_left, term_right in zip(atom_left.terms, atom_right.terms):
        if not unify_terms(unifier, query_left, term_left, query_right, term_right):
            return False
    return True


# ---------------------------------------------------------------------------
# The single-key provider index
# ---------------------------------------------------------------------------


class ReferenceProviderIndex:
    """Index over the head atoms of pending queries, one column at a time.

    ``candidates(atom)`` returns the providers whose head could possibly unify
    with ``atom``: same relation and arity, and for every constant position of
    ``atom`` the provider has either the same constant or a variable there.
    The result follows the (relation, arity) bucket's insertion order — query
    arrival order — which is the order the grid index must reproduce.
    """

    def __init__(self) -> None:
        self._by_relation: dict[tuple[str, int], dict[Provider, None]] = defaultdict(dict)
        self._by_constant: dict[tuple[str, int, int, Any], dict[Provider, None]] = defaultdict(
            dict
        )
        self._by_variable_position: dict[tuple[str, int, int], dict[Provider, None]] = defaultdict(
            dict
        )
        self._atoms: dict[Provider, ir.Atom] = {}

    def add_query(self, query: ir.EntangledQuery) -> None:
        for head_index, atom in enumerate(query.heads):
            provider = Provider(query.query_id, head_index)
            key = (atom.relation.lower(), atom.arity)
            self._by_relation[key][provider] = None
            self._atoms[provider] = atom
            for position, term in enumerate(atom.terms):
                if isinstance(term, ir.Constant):
                    self._by_constant[(*key, position, term.value)][provider] = None
                else:
                    self._by_variable_position[(*key, position)][provider] = None

    def remove_query(self, query: ir.EntangledQuery) -> None:
        for head_index, atom in enumerate(query.heads):
            provider = Provider(query.query_id, head_index)
            key = (atom.relation.lower(), atom.arity)
            self._by_relation[key].pop(provider, None)
            self._atoms.pop(provider, None)
            for position, term in enumerate(atom.terms):
                if isinstance(term, ir.Constant):
                    self._by_constant[(*key, position, term.value)].pop(provider, None)
                else:
                    self._by_variable_position[(*key, position)].pop(provider, None)

    def __len__(self) -> int:
        return len(self._atoms)

    def atom_of(self, provider: Provider) -> ir.Atom:
        return self._atoms[provider]

    def candidates(self, atom: ir.Atom) -> list[Provider]:
        return self._candidates((atom.relation.lower(), atom.arity), atom.constants())

    def candidates_compiled(self, probe: CompiledAtom) -> list[Provider]:
        """The probe surface the production matcher calls."""
        return self._candidates(probe.key, probe.const_items)

    def _candidates(self, key: tuple[str, int], const_items: Any) -> list[Provider]:
        bucket = self._by_relation.get(key)
        if not bucket:
            return []
        allowed: Optional[set[Provider]] = None
        for position, value in const_items:
            compatible = set(self._by_constant.get((*key, position, value), ()))
            compatible.update(self._by_variable_position.get((*key, position), ()))
            allowed = compatible if allowed is None else (allowed & compatible)
            if not allowed:
                return []
        if allowed is None:
            return list(bucket)
        return [provider for provider in bucket if provider in allowed]


# ---------------------------------------------------------------------------
# The interpreted matcher
# ---------------------------------------------------------------------------


class InterpretedMatcher(Matcher):
    """The two-phase matcher with every step interpreted from the IR.

    Overrides the structural search and the grounding assignment; valuation
    enumeration, ``CHOOSE k`` extras, enumeration and de-duplication are the
    inherited production code.  Works over any index exposing
    ``candidates(atom)``.
    """

    def _search(
        self,
        group: dict[str, ir.EntangledQuery],
        obligations: list[tuple[str, int]],
        providers: dict[tuple[str, int], Provider],
        unifier: Unifier,
        pool: Mapping[str, ir.EntangledQuery],
        index: Any,
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
        atom = group[query_id].answer_atoms[atom_index]
        candidates = index.candidates(atom)
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
            head_atom = provider_query.heads[candidate.head_index]
            if not unify_atoms(unifier, query_id, atom, candidate.query_id, head_atom):
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

    def _ground(
        self,
        queries: list[ir.EntangledQuery],
        unifier: Unifier,
        statistics: MatchStatistics,
        domain_cache: dict[str, list[tuple[Any, ...]]],
    ) -> Iterator[dict[str, list[dict[str, Any]]]]:
        statistics.grounding_attempts += 1
        yield from self._assign_interpreted(0, queries, unifier, {}, {}, statistics, domain_cache)

    def _assign_interpreted(
        self,
        position: int,
        queries: list[ir.EntangledQuery],
        unifier: Unifier,
        class_values: dict[VarNode, Any],
        assignments: dict[str, list[dict[str, Any]]],
        statistics: MatchStatistics,
        domain_cache: dict[str, list[tuple[Any, ...]]],
    ) -> Iterator[dict[str, list[dict[str, Any]]]]:
        if position == len(queries):
            yield {
                query_id: [dict(valuation) for valuation in chosen]
                for query_id, chosen in assignments.items()
            }
            return
        query = queries[position]

        pre_bound: dict[str, Any] = {}
        for name in query.variables():
            node = (query.query_id, name)
            constant = unifier.value_of(node)
            if constant is not _UNBOUND:
                pre_bound[name] = constant
                continue
            root = unifier.find(node)
            if root in class_values:
                pre_bound[name] = class_values[root]

        domains = tuple(DomainPlan(domain) for domain in query.domains)
        valuations = self._enumerate_valuations(
            query, domains, pre_bound, statistics, domain_cache
        )
        self.rng.shuffle(valuations)

        for valuation in valuations:
            extended = dict(class_values)
            consistent = True
            for name, value in valuation.items():
                node = (query.query_id, name)
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
            yield from self._assign_interpreted(
                position + 1, queries, unifier, extended, assignments, statistics, domain_cache
            )
            del assignments[query.query_id]

    def _domain_rows(
        self,
        domain: DomainPlan,
        statistics: MatchStatistics,
        domain_cache: dict[str, list[tuple[Any, ...]]],
    ) -> list[tuple[Any, ...]]:
        """Execute the domain subquery once per attempt, never reusing a result."""
        key = format_statement(domain.constraint.subquery)
        if key not in domain_cache:
            statistics.domain_queries += 1
            domain_cache[key] = self.engine.execute(domain.constraint.subquery).rows
        return domain_cache[key]


# ---------------------------------------------------------------------------
# The exhaustive evaluator
# ---------------------------------------------------------------------------


class ExhaustiveEvaluator:
    """Direct implementation of the joint-answering semantics.

    Enumerate candidate subsets of the pending pool (containing the trigger),
    enumerate a valuation for every query in the subset, build the would-be
    answer relation from the instantiated heads, and check every constraint
    of every query against it.  On small pools it is the correctness oracle
    for the unification-based matcher.
    """

    def __init__(
        self,
        engine: QueryEngine,
        rng: Optional[random.Random] = None,
        max_group_size: int = 4,
        max_valuations_per_query: int = 200,
    ) -> None:
        self.engine = engine
        self.rng = rng or random.Random()
        self.max_group_size = max_group_size
        self.max_valuations_per_query = max_valuations_per_query

    def find_group(
        self,
        trigger: ir.EntangledQuery,
        pool: Mapping[str, ir.EntangledQuery],
        index: object = None,  # accepted for interface parity with Matcher
    ) -> Optional[MatchedGroup]:
        """Search for an answerable subset containing ``trigger``."""
        del index
        statistics = MatchStatistics()
        domain_cache: dict[str, list[tuple[Any, ...]]] = {}
        others = [query for query in pool.values() if query.query_id != trigger.query_id]

        for size in range(0, min(self.max_group_size, len(others) + 1)):
            for combination in itertools.combinations(others, size):
                group = [trigger, *combination]
                statistics.structural_nodes += 1
                result = self._try_group(group, statistics, domain_cache)
                if result is not None:
                    result.statistics = statistics
                    return result
        return None

    def _try_group(
        self,
        group: list[ir.EntangledQuery],
        statistics: MatchStatistics,
        domain_cache: dict[str, list[tuple[Any, ...]]],
    ) -> Optional[MatchedGroup]:
        per_query_valuations: list[list[dict[str, Any]]] = []
        for query in group:
            valuations = self._valuations(query, statistics, domain_cache)
            if not valuations:
                return None
            if len(valuations) > self.max_valuations_per_query:
                valuations = valuations[: self.max_valuations_per_query]
            per_query_valuations.append(valuations)

        for chosen in itertools.product(*per_query_valuations):
            statistics.grounding_attempts += 1
            answer_relation: dict[str, set[tuple[Any, ...]]] = {}
            for query, valuation in zip(group, chosen):
                for atom in query.heads:
                    answer_relation.setdefault(atom.relation.lower(), set()).add(
                        atom.substitute(valuation)
                    )
            satisfied = all(
                atom.substitute(valuation) in answer_relation.get(atom.relation.lower(), set())
                for query, valuation in zip(group, chosen)
                for atom in query.answer_atoms
            )
            if satisfied:
                bindings = {
                    query.query_id: [dict(valuation)]
                    for query, valuation in zip(group, chosen)
                }
                return MatchedGroup(
                    queries=list(group),
                    bindings=bindings,
                    providers={},
                    statistics=statistics,
                )
        return None

    def _valuations(
        self,
        query: ir.EntangledQuery,
        statistics: MatchStatistics,
        domain_cache: dict[str, list[tuple[Any, ...]]],
    ) -> list[dict[str, Any]]:
        valuations: list[dict[str, Any]] = [{}]
        for domain in query.domains:
            key = format_statement(domain.subquery)
            if key not in domain_cache:
                statistics.domain_queries += 1
                domain_cache[key] = self.engine.execute(domain.subquery).rows
            rows = domain_cache[key]
            extended: list[dict[str, Any]] = []
            for partial in valuations:
                for row in rows:
                    candidate = dict(partial)
                    compatible = True
                    for name, value in zip(domain.variables, row):
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
            valuations = [
                valuation
                for valuation in valuations
                if all(
                    evaluator.evaluate_predicate(
                        predicate.expression,
                        RowEnv({name: value for name, value in valuation.items()}),
                    )
                    for predicate in query.predicates
                )
            ]
        return valuations
