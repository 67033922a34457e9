"""Compiled match plans and the grid-style multi-attribute provider index.

Unifying atoms by interpreting their terms pays a per-attempt tax: it
re-derives each atom's constant positions, allocates a ``(query_id, name)``
tuple per variable touched, and dispatches on term types position by
position.  This module precompiles all of that once per query:

* :class:`CompiledAtom` — one atom of one query, lowered to positional slot
  arrays: a constant mask, interned constant values and precomputed variable
  nodes, all computed once when the query's plan is built.
* :class:`QueryPlan` — the compiled form of a whole query (heads, answer
  atoms, the variable list the grounding phase iterates, and — built on the
  query's first grounding — its :class:`DomainPlan` list).
* :class:`DomainPlan` — one ``x IN (SELECT ...)`` domain with its printed
  text and the stored tables its subquery reads, so the matcher can key and
  validate its cached result without re-printing or re-walking the AST.
* :class:`PairOps` — the unification of one (probe atom, provider atom) pair
  reduced to a short list of ``bind`` / ``union`` operations against the
  union-find, with constant/constant agreement folded into a single
  precomputed ``compatible`` flag.  Pair programs are memoized on the probe
  atom, so a pool that is re-probed every sweep (the steady state of a
  pending pool) executes straight-line slot operations instead of
  re-interpreting terms.
* :class:`MatchPlanCache` — the per-coordinator plan store, keyed by query
  id.  Plans are *derived* state: they are built lazily on first use, evicted
  when their query leaves the pool, rebuilt transparently after WAL recovery
  (the identity check in :meth:`MatchPlanCache.plan_for` notices the
  recompiled query object), and never journaled.
* :class:`GridProviderIndex` — the grid-file-style provider index over the
  pool's head atoms (see *Using Grid Files for a Relational DBMS*): every
  column of every relation signature keeps its own ordered buckets, a probe
  intersects the candidate sets of *all* its bound columns, and the
  intersection is seeded from the most selective column instead of scanning
  the whole (relation, arity) bucket.

Determinism contract: for any pool state, :meth:`GridProviderIndex.candidates`
returns the compatible providers in query arrival order.  The differential
fuzz harness (``tests/integration/test_matching_fuzz.py``) holds this module
to the interpreted matcher and single-key index of
``tests/matching_reference.py``: both return the same candidate lists and
consume the match RNG identically, so they commit byte-identical answers.

Concurrency: plan compilation, execution and eviction are all performed while
the coordinator holds the lock that already serialises matching, so the
cache needs no locking of its own.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import count
from typing import Any, Optional

from repro.core import ir
from repro.sqlparser.ast import tables_read
from repro.sqlparser.pretty import format_statement

# A variable is identified globally by (query_id, variable_name) — the same
# node representation repro.core.matching.Unifier uses.
VarNode = tuple[str, str]


@dataclass(frozen=True)
class Provider:
    """A head atom that can satisfy answer constraints: (query, head position)."""

    query_id: str
    head_index: int


def _intern(value: Any) -> Any:
    """Intern string constants so hot-path equality is pointer-fast."""
    if type(value) is str:
        return sys.intern(value)
    return value


def _discard(buckets: dict[Any, dict[Provider, int]], key: Any, provider: Provider) -> None:
    """Remove ``provider`` from ``buckets[key]`` and drop the bucket once empty:
    a bucket keyed by a query's own constant (a traveler's name) would
    otherwise outlive the query for the life of the server."""
    bucket = buckets.get(key)
    if bucket is not None:
        bucket.pop(provider, None)
        if not bucket:
            del buckets[key]


class CompiledAtom:
    """One atom lowered to positional slot arrays.

    ``const_mask[i]`` says whether position ``i`` is a constant; ``slots[i]``
    holds the interned constant value for constant positions and the
    precomputed :data:`VarNode` for variable positions.  ``uid`` is unique per
    compiled atom instance and keys the pair-program memo of *other* atoms
    probing this one; uids are never reused, so a stale memo entry can never
    alias a newly compiled atom.
    """

    __slots__ = ("uid", "query_id", "atom", "key", "const_mask", "slots", "const_items", "pair_cache")

    def __init__(self, uid: int, query_id: str, atom: ir.Atom) -> None:
        self.uid = uid
        self.query_id = query_id
        self.atom = atom
        self.key = (sys.intern(atom.relation.lower()), atom.arity)
        const_mask = []
        slots: list[Any] = []
        const_items = []
        for position, term in enumerate(atom.terms):
            if isinstance(term, ir.Constant):
                value = _intern(term.value)
                const_mask.append(True)
                slots.append(value)
                const_items.append((position, value))
            else:
                const_mask.append(False)
                slots.append((query_id, term.name))
        self.const_mask = tuple(const_mask)
        self.slots = tuple(slots)
        self.const_items = tuple(const_items)
        # Pair programs against provider atoms this atom has probed, keyed by
        # the provider atom's uid.  Lives on the probe side so evicting a
        # query's plan also frees every pair program it accumulated.
        self.pair_cache: dict[int, PairOps] = {}


class PairOps:
    """The unification of one (probe, provider) atom pair, precompiled.

    ``compatible`` folds relation/arity agreement and every constant/constant
    comparison; ``binds`` are (variable node, constant) bindings and
    ``unions`` are (node, node) class merges.  Executing the program against a
    :class:`~repro.core.matching.Unifier` is equivalent to unifying the
    original atoms term by term — unification is a conjunction of equality
    constraints, so applying binds before unions cannot change
    satisfiability.
    """

    __slots__ = ("compatible", "binds", "unions")

    def __init__(
        self,
        compatible: bool,
        binds: tuple[tuple[VarNode, Any], ...] = (),
        unions: tuple[tuple[VarNode, VarNode], ...] = (),
    ) -> None:
        self.compatible = compatible
        self.binds = binds
        self.unions = unions


_INCOMPATIBLE = PairOps(False)


def compile_pair(probe: CompiledAtom, provider: CompiledAtom) -> PairOps:
    """Precompile the unification of ``probe`` against ``provider``'s head."""
    if probe.key != provider.key:
        return _INCOMPATIBLE
    binds: list[tuple[VarNode, Any]] = []
    unions: list[tuple[VarNode, VarNode]] = []
    probe_mask = probe.const_mask
    provider_mask = provider.const_mask
    for position in range(len(probe_mask)):
        probe_slot = probe.slots[position]
        provider_slot = provider.slots[position]
        if probe_mask[position]:
            if provider_mask[position]:
                if probe_slot != provider_slot:
                    return _INCOMPATIBLE
            else:
                binds.append((provider_slot, probe_slot))
        elif provider_mask[position]:
            binds.append((probe_slot, provider_slot))
        else:
            unions.append((probe_slot, provider_slot))
    return PairOps(True, tuple(binds), tuple(unions))


def apply_pair(unifier: Any, ops: PairOps) -> bool:
    """Run a pair program against a live unifier (caller marks/undoes)."""
    if not ops.compatible:
        return False
    for node, value in ops.binds:
        if not unifier.bind(node, value):
            return False
    for left, right in ops.unions:
        if not unifier.union(left, right):
            return False
    return True


class DomainPlan:
    """One domain constraint of a query, compiled for the grounding phase.

    ``key`` is the subquery's printed text, which keys the matcher's domain
    result cache; ``tables`` are the sorted lowercase names of every table
    the subquery reads (FROM, JOINs and nested ``IN (SELECT ...)``), whose
    write stamps tell whether a cached result is still current.
    """

    __slots__ = ("constraint", "key", "tables")

    def __init__(self, constraint: ir.DomainConstraint) -> None:
        self.constraint = constraint
        self.key = format_statement(constraint.subquery)
        self.tables = tables_read(constraint.subquery)


class QueryPlan:
    """The compiled form of one entangled query."""

    __slots__ = (
        "query", "query_id", "heads", "answer_atoms", "var_items", "node_map", "_domains"
    )

    def __init__(self, query: ir.EntangledQuery, uids: "count[int]") -> None:
        self.query = query
        self.query_id = query.query_id
        self.heads = tuple(
            CompiledAtom(next(uids), query.query_id, atom) for atom in query.heads
        )
        self.answer_atoms = tuple(
            CompiledAtom(next(uids), query.query_id, atom) for atom in query.answer_atoms
        )
        # The grounding phase iterates every variable of the query per
        # attempt; precompute the (name, node) pairs and the name → node map
        # once instead of building frozensets and tuples each time.
        self.var_items = tuple(
            (name, (query.query_id, name)) for name in query.variables()
        )
        self.node_map: dict[str, VarNode] = dict(self.var_items)
        self._domains: Optional[tuple[DomainPlan, ...]] = None

    def domains(self) -> tuple[DomainPlan, ...]:
        """The query's domains as :class:`DomainPlan` objects.

        Built on the first grounding, not with the plan: most pooled queries
        are probed as providers many times but grounded rarely or never.
        """
        if self._domains is None:
            self._domains = tuple(DomainPlan(domain) for domain in self.query.domains)
        return self._domains


class MatchPlanCache:
    """Per-coordinator store of :class:`QueryPlan` objects, keyed by query id.

    Plans are built on first use and evicted when their query leaves the pool
    (answered / cancelled / recovered as terminal).  ``plan_for`` re-checks
    object identity: WAL recovery recompiles a pending query's IR from its
    journaled SQL, and the recompiled object must get a fresh plan even
    though it reuses the query id.  ``invalidate_all`` drops every plan —
    called when an answer relation is (re)declared, so no plan can outlive
    the relation metadata it was compiled against.
    """

    def __init__(self) -> None:
        self._plans: dict[str, QueryPlan] = {}
        self._uids = count(1)
        self.plans_compiled = 0
        self.plan_hits = 0
        self.pair_ops_compiled = 0
        self.pair_ops_hits = 0
        self.plans_evicted = 0
        self.invalidations = 0

    def plan_for(self, query: ir.EntangledQuery) -> QueryPlan:
        plan = self._plans.get(query.query_id)
        if plan is not None and plan.query is query:
            self.plan_hits += 1
            return plan
        plan = QueryPlan(query, self._uids)
        self._plans[query.query_id] = plan
        self.plans_compiled += 1
        return plan

    def pair_ops(self, probe: CompiledAtom, provider: CompiledAtom) -> PairOps:
        ops = probe.pair_cache.get(provider.uid)
        if ops is None:
            ops = compile_pair(probe, provider)
            probe.pair_cache[provider.uid] = ops
            self.pair_ops_compiled += 1
        else:
            self.pair_ops_hits += 1
        return ops

    def evict(self, query_id: str) -> None:
        if self._plans.pop(query_id, None) is not None:
            self.plans_evicted += 1

    def invalidate_all(self) -> None:
        if self._plans:
            self._plans.clear()
        self.invalidations += 1

    def __len__(self) -> int:
        return len(self._plans)

    def statistics(self) -> dict[str, int]:
        """Numeric counters (merged into the coordinator's matching stats)."""
        return {
            "plans_cached": len(self._plans),
            "plans_compiled": self.plans_compiled,
            "plan_cache_hits": self.plan_hits,
            "pair_ops_compiled": self.pair_ops_compiled,
            "pair_ops_hits": self.pair_ops_hits,
            "plans_evicted": self.plans_evicted,
            "plan_invalidations": self.invalidations,
        }


# ---------------------------------------------------------------------------
# Grid-style multi-attribute provider index
# ---------------------------------------------------------------------------


class GridProviderIndex:
    """Multi-attribute provider index with per-column ordered buckets.

    Rather than refining a (relation, arity) bucket with a fresh ``set`` per
    bound column and rescanning the *whole* relation bucket to restore
    arrival order, this index keeps, for every column of every relation
    signature, an ordered bucket per constant value plus one for the
    providers with a variable there.  Every bucket maps
    ``Provider → seq`` where ``seq`` is the provider's global insertion
    number, so any subset can be replayed in arrival order without touching
    the relation bucket at all.

    A probe with bound columns intersects those columns' candidate sets
    grid-file style: the *most selective* column (smallest constant bucket +
    variable bucket) seeds the result, gets sorted by ``seq`` — restoring
    arrival order over just the survivors — and the remaining bound columns
    filter by dict membership.  Cost is proportional to the most selective
    column, not to the relation bucket.
    """

    def __init__(self) -> None:
        self._seq = count()
        self._by_relation: dict[tuple[str, int], dict[Provider, int]] = {}
        self._const_columns: dict[tuple[str, int, int, Any], dict[Provider, int]] = {}
        self._var_columns: dict[tuple[str, int, int], dict[Provider, int]] = {}
        self._atoms: dict[Provider, ir.Atom] = {}

    # -- maintenance ---------------------------------------------------------------

    def add_query(self, query: ir.EntangledQuery) -> None:
        for head_index, atom in enumerate(query.heads):
            provider = Provider(query.query_id, head_index)
            seq = next(self._seq)
            key = (atom.relation.lower(), atom.arity)
            self._by_relation.setdefault(key, {})[provider] = seq
            self._atoms[provider] = atom
            for position, term in enumerate(atom.terms):
                if isinstance(term, ir.Constant):
                    column = (*key, position, _intern(term.value))
                    self._const_columns.setdefault(column, {})[provider] = seq
                else:
                    self._var_columns.setdefault((*key, position), {})[provider] = seq

    def remove_query(self, query: ir.EntangledQuery) -> None:
        for head_index, atom in enumerate(query.heads):
            provider = Provider(query.query_id, head_index)
            key = (atom.relation.lower(), atom.arity)
            _discard(self._by_relation, key, provider)
            self._atoms.pop(provider, None)
            for position, term in enumerate(atom.terms):
                if isinstance(term, ir.Constant):
                    _discard(self._const_columns, (*key, position, term.value), provider)
                else:
                    _discard(self._var_columns, (*key, position), provider)

    def __len__(self) -> int:
        return len(self._atoms)

    # -- probing -------------------------------------------------------------------

    def atom_of(self, provider: Provider) -> ir.Atom:
        return self._atoms[provider]

    def candidates(self, atom: ir.Atom) -> list[Provider]:
        return self._candidates(
            (atom.relation.lower(), atom.arity), atom.constants()
        )

    def candidates_compiled(self, probe: CompiledAtom) -> list[Provider]:
        """Probe with a :class:`CompiledAtom` (constant items precomputed)."""
        return self._candidates(probe.key, probe.const_items)

    def _candidates(
        self, key: tuple[str, int], const_items: tuple[tuple[int, Any], ...]
    ) -> list[Provider]:
        bucket = self._by_relation.get(key)
        if not bucket:
            return []
        if not const_items:
            return list(bucket)

        # One (constant bucket, variable bucket) pair per bound column; an
        # empty pair means no provider can match that column at all.
        columns: list[
            tuple[int, Optional[dict[Provider, int]], Optional[dict[Provider, int]]]
        ] = []
        for position, value in const_items:
            const_bucket = self._const_columns.get((*key, position, value))
            var_bucket = self._var_columns.get((*key, position))
            size = (len(const_bucket) if const_bucket else 0) + (
                len(var_bucket) if var_bucket else 0
            )
            if size == 0:
                return []
            columns.append((size, const_bucket, var_bucket))

        if len(columns) > 1:
            columns.sort(key=lambda column: column[0])

        # Seed from the most selective column, restoring arrival order by seq.
        _, const_bucket, var_bucket = columns[0]
        if const_bucket and var_bucket:
            seed = [(seq, provider) for provider, seq in const_bucket.items()]
            seed.extend((seq, provider) for provider, seq in var_bucket.items())
            seed.sort(key=lambda item: item[0])
            ordered = [provider for _, provider in seed]
        elif const_bucket:
            ordered = list(const_bucket)
        else:
            assert var_bucket is not None
            ordered = list(var_bucket)

        if len(columns) == 1:
            return ordered
        rest = columns[1:]
        survivors: list[Provider] = []
        for provider in ordered:
            for _, other_const, other_var in rest:
                if (other_const is None or provider not in other_const) and (
                    other_var is None or provider not in other_var
                ):
                    break
            else:
                survivors.append(provider)
        return survivors
