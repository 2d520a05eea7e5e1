"""Finite strict partial orders and the algorithms GEM needs on them.

A GEM computation carries three relations over its events:

* the enable relation ``⊳`` -- partial, irreflexive, *not* transitive;
* the element order ``⇒ₑ`` -- a union of total orders, one per element;
* the temporal order ``⇒`` -- the transitive closure of the other two,
  minus identity, required to be a strict partial order.

This module implements the order algebra those definitions need:
transitive closure, cycle detection with witness extraction, transitive
(Hasse) reduction, concurrency tests, down-sets (the histories of
Section 7 are exactly the finite down-sets), antichains, and linear
extensions (the one-event-at-a-time valid history sequences).

Representation: nodes are arbitrary hashable objects, mapped to dense
indices; each relation is stored as one Python ``int`` bitset per node
(``succ[i]`` has bit ``j`` set iff ``i R j``).  Python's big integers
make the closure a tight word-parallel loop, which keeps checking
computations with a few thousand events comfortably fast.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from .errors import CycleError

N = TypeVar("N", bound=Hashable)


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Relation:
    """A finite binary relation over a fixed node universe.

    Immutable once built; construct with :meth:`from_pairs`.  All heavy
    queries (closure, reduction, topological order) are computed lazily
    and cached.
    """

    __slots__ = (
        "_nodes",
        "_index",
        "_succ",
        "_pred",
        "_closure_succ",
        "_closure_pred",
        "_topo",
        "_reduction",
    )

    def __init__(self, nodes: Sequence[N], succ_bits: List[int]):
        self._nodes: Tuple[N, ...] = tuple(nodes)
        self._index: Dict[N, int] = {n: i for i, n in enumerate(self._nodes)}
        if len(self._index) != len(self._nodes):
            raise ValueError("duplicate nodes in relation universe")
        if len(succ_bits) != len(self._nodes):
            raise ValueError("successor table size mismatch")
        self._succ: List[int] = list(succ_bits)
        self._pred: Optional[List[int]] = None
        self._closure_succ: Optional[List[int]] = None
        self._closure_pred: Optional[List[int]] = None
        self._topo: Optional[List[int]] = None
        self._reduction: Optional[List[int]] = None

    # -- construction ---------------------------------------------------

    @classmethod
    def _from_table(cls, nodes: Tuple[N, ...], index: Dict[N, int],
                    succ_bits: List[int]) -> "Relation":
        """Wrap a trusted successor table without copying or re-indexing.

        The caller guarantees ``index`` is the position map of ``nodes``
        (duplicate-free) and ``succ_bits`` has one entry per node; the
        three relations of a :class:`~repro.core.computation.Computation`
        share one node tuple and one index dict this way.  All three
        arguments must be treated as read-only from then on.
        """
        rel = cls.__new__(cls)
        rel._nodes = nodes
        rel._index = index
        rel._succ = succ_bits
        rel._pred = None
        rel._closure_succ = None
        rel._closure_pred = None
        rel._topo = None
        rel._reduction = None
        return rel

    @classmethod
    def from_pairs(cls, nodes: Iterable[N], pairs: Iterable[Tuple[N, N]]) -> "Relation":
        """Build a relation from an iterable of (source, target) pairs."""
        node_list = list(nodes)
        index = {n: i for i, n in enumerate(node_list)}
        succ = [0] * len(node_list)
        for a, b in pairs:
            try:
                ia, ib = index[a], index[b]
            except KeyError as exc:
                raise ValueError(f"pair ({a!r}, {b!r}) references unknown node") from exc
            succ[ia] |= 1 << ib
        return cls(node_list, succ)

    @classmethod
    def empty(cls, nodes: Iterable[N]) -> "Relation":
        node_list = list(nodes)
        return cls(node_list, [0] * len(node_list))

    # -- basic queries ---------------------------------------------------

    @property
    def nodes(self) -> Tuple[N, ...]:
        return self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: N) -> bool:
        return node in self._index

    def pair_count(self) -> int:
        """Number of related pairs (edges)."""
        return sum(bits.bit_count() for bits in self._succ)

    def holds(self, a: N, b: N) -> bool:
        """True iff ``a R b`` in the raw (unclosed) relation."""
        return bool(self._succ[self._index[a]] >> self._index[b] & 1)

    def successors(self, a: N) -> Iterator[N]:
        """Iterate direct successors of ``a``."""
        bits = self._succ[self._index[a]]
        return self._iter_bits(bits)

    def predecessors(self, a: N) -> Iterator[N]:
        """Iterate direct predecessors of ``a``."""
        return self._iter_bits(self._pred_table()[self._index[a]])

    def _pred_table(self) -> List[int]:
        if self._pred is None:
            self._pred = self._transpose(self._succ)
        return self._pred

    def pairs(self) -> Iterator[Tuple[N, N]]:
        """Iterate all related pairs."""
        for i, bits in enumerate(self._succ):
            a = self._nodes[i]
            for b in self._iter_bits(bits):
                yield (a, b)

    def _iter_bits(self, bits: int) -> Iterator[N]:
        return map(self._nodes.__getitem__, iter_bits(bits))

    def _transpose(self, table: List[int]) -> List[int]:
        out = [0] * len(table)
        for i, bits in enumerate(table):
            mask = 1 << i
            b = bits
            while b:
                low = b & -b
                out[low.bit_length() - 1] |= mask
                b ^= low
        return out

    # -- closure & order properties ---------------------------------------

    def index_table(self) -> Dict[N, int]:
        """The node -> position map behind every table (read-only).

        Bit ``j`` of any table row stands for ``nodes[j]``; the dict is
        the relation's own storage.
        """
        return self._index

    def succ_table(self) -> List[int]:
        """The raw successor bitset table (``succ[i]`` bit j ⇔ i R j).

        The list is the relation's own storage -- callers must treat it
        as read-only.  Bit positions follow :attr:`nodes` order.
        """
        return self._succ

    def closure_table(self) -> List[int]:
        """The strict-transitive-closure successor table, memoised.

        Computed at most once per instance and shared by every caller
        (``down_set``, ``is_down_closed``, the slice's
        :class:`~repro.core.evalcore.EventIndex`, and every
        :class:`~repro.core.history.History` of the owning computation
        all read the identical list object).  On a relation returned by
        :meth:`transitive_closure` it *is* :meth:`succ_table`: the
        closure of a transitive relation is itself.
        """
        return self._closure_table()

    def closure_pred_table(self) -> List[int]:
        """Transpose of :meth:`closure_table`, memoised the same way."""
        return self._closure_pred_table()

    def _closure_table(self) -> List[int]:
        """Strict transitive closure as a successor bitset table.

        Computed by DFS-free dynamic programming over a (tentative)
        topological order when acyclic; falls back to iterated squaring
        when the relation has cycles (the closure is still well defined,
        just not a partial order).
        """
        if self._closure_succ is not None:
            return self._closure_succ
        n = len(self._nodes)
        topo = self._try_topological()
        if topo is not None:
            closure = [0] * n
            for i in reversed(topo):
                bits = self._succ[i]
                acc = bits
                b = bits
                while b:
                    low = b & -b
                    acc |= closure[low.bit_length() - 1]
                    b ^= low
                closure[i] = acc
        else:
            closure = list(self._succ)
            changed = True
            while changed:
                changed = False
                for i in range(n):
                    acc = closure[i]
                    b = acc
                    new = acc
                    while b:
                        low = b & -b
                        new |= closure[low.bit_length() - 1]
                        b ^= low
                    if new != acc:
                        closure[i] = new
                        changed = True
        self._closure_succ = closure
        return closure

    def topological_indices(self) -> List[int]:
        """:meth:`topological_order` as node positions, memoised.

        The list is the relation's own storage -- callers must treat it
        as read-only.  Raises :class:`CycleError` on a cyclic relation.
        """
        topo = self._try_topological()
        if topo is None:
            raise CycleError("no topological order: relation is cyclic",
                             self.find_cycle())
        return topo

    def _try_topological(self) -> Optional[List[int]]:
        """Kahn's algorithm; None if the relation is cyclic.

        Ready nodes are taken smallest-index-first (a min-heap), so the
        order is *insertion-stable*: among concurrent nodes, earlier
        insertion wins.  Computation builders insert events in execution
        order, so this linearisation reproduces the recorded execution.

        When every edge points to a later position -- the common case:
        builders and projection insert events in a topological order --
        the positions themselves are that order (the smallest unplaced
        node always has all its predecessors placed), and no heap is
        needed.
        """
        if self._topo is not None:
            return self._topo
        n = len(self._nodes)
        if all(not bits & ((2 << i) - 1) for i, bits in enumerate(self._succ)):
            self._topo = list(range(n))
            return self._topo
        import heapq

        indeg = [0] * n
        for bits in self._succ:
            b = bits
            while b:
                low = b & -b
                indeg[low.bit_length() - 1] += 1
                b ^= low
        heap = [i for i in range(n) if indeg[i] == 0]
        heapq.heapify(heap)
        order: List[int] = []
        while heap:
            i = heapq.heappop(heap)
            order.append(i)
            b = self._succ[i]
            while b:
                low = b & -b
                j = low.bit_length() - 1
                indeg[j] -= 1
                if indeg[j] == 0:
                    heapq.heappush(heap, j)
                b ^= low
        if len(order) != n:
            return None
        self._topo = order
        return order

    def is_acyclic(self) -> bool:
        """True iff the relation (viewed as a digraph) has no cycle.

        Self-loops count as cycles.
        """
        for i, bits in enumerate(self._succ):
            if bits >> i & 1:
                return False
        return self._try_topological() is not None

    def find_cycle(self) -> Optional[List[N]]:
        """Return one cycle as a node list (first == last), or None."""
        for i, bits in enumerate(self._succ):
            if bits >> i & 1:
                return [self._nodes[i], self._nodes[i]]
        n = len(self._nodes)
        color = [0] * n  # 0 white, 1 grey, 2 black
        parent: Dict[int, int] = {}
        for start in range(n):
            if color[start] != 0:
                continue
            stack: List[Tuple[int, Iterator[int]]] = [(start, self._succ_indices(start))]
            color[start] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for j in it:
                    if color[j] == 0:
                        color[j] = 1
                        parent[j] = node
                        stack.append((j, self._succ_indices(j)))
                        advanced = True
                        break
                    if color[j] == 1:
                        # found cycle j -> ... -> node -> j
                        cyc = [j]
                        cur = node
                        while cur != j:
                            cyc.append(cur)
                            cur = parent[cur]
                        cyc.append(j)
                        cyc.reverse()
                        return [self._nodes[k] for k in cyc]
                if not advanced:
                    color[node] = 2
                    stack.pop()
        return None

    def _succ_indices(self, i: int) -> Iterator[int]:
        return iter_bits(self._succ[i])

    def transitive_closure(self) -> "Relation":
        """The strict transitive closure as a new Relation.

        Raises :class:`CycleError` if the relation is cyclic, because GEM
        temporal orders must be irreflexive.  Use :meth:`is_acyclic`
        first when a cycle is an expected (checkable) condition.

        The result is born knowing it is closed, so none of its order
        queries re-derives anything from the dense table:

        * its :meth:`closure_table` is its own successor table (the
          closure of a transitive relation is itself);
        * its topological order is this relation's, inherited rather
          than recomputed.  Kahn's smallest-index-first order is the
          same on a DAG and on its closure: every node Kahn has placed
          had all its direct predecessors placed first, so by induction
          the placed set is down-closed -- it holds every ancestor of
          each member.  A node's direct predecessors are then all
          placed exactly when all its ancestors are, so the two graphs
          have the same ready set at every step, and the min-heap picks
          the same node from it.

        It shares this relation's node tuple, index and closure list
        (all read-only).
        """
        if not self.is_acyclic():
            cycle = self.find_cycle()
            raise CycleError("relation has a causal cycle", cycle)
        closure = self._closure_table()
        closed = Relation._from_table(self._nodes, self._index, closure)
        closed._closure_succ = closure
        closed._topo = self._topo
        return closed

    def closure_holds(self, a: N, b: N) -> bool:
        """True iff ``a R⁺ b`` (strict transitive closure)."""
        return bool(self._closure_table()[self._index[a]] >> self._index[b] & 1)

    def is_strict_partial_order(self) -> bool:
        """True iff the relation is irreflexive and transitive."""
        for i, bits in enumerate(self._succ):
            if bits >> i & 1:
                return False
        closure = self._closure_table()
        for i in range(len(self._nodes)):
            if closure[i] >> i & 1:
                return False
        return all(closure[i] == self._succ[i] for i in range(len(self._nodes)))

    def concurrent(self, a: N, b: N) -> bool:
        """True iff a != b and neither precedes the other in the closure.

        This is the paper's "potentially concurrent": no observable
        order between the two events.
        """
        if a == b:
            return False
        closure = self._closure_table()
        ia, ib = self._index[a], self._index[b]
        return not (closure[ia] >> ib & 1) and not (closure[ib] >> ia & 1)

    # -- derived structures ------------------------------------------------

    def transitive_reduction(self) -> "Relation":
        """Hasse diagram: minimal relation with the same closure.

        Only defined for acyclic relations.
        """
        if not self.is_acyclic():
            raise CycleError("transitive reduction requires an acyclic relation",
                             self.find_cycle())
        if self._reduction is None:
            closure = self._closure_table()
            reduction = []
            for i, bits in enumerate(closure):
                keep = bits
                b = bits
                while b:
                    low = b & -b
                    j = low.bit_length() - 1
                    keep &= ~closure[j]
                    b ^= low
                reduction.append(keep)
            self._reduction = reduction
        return Relation(self._nodes, list(self._reduction))

    def restricted_to(self, keep: Iterable[N]) -> "Relation":
        """Induced sub-relation on ``keep`` (raw pairs only)."""
        keep_set = set(keep)
        sub_nodes = [n for n in self._nodes if n in keep_set]
        pairs = [(a, b) for a, b in self.pairs() if a in keep_set and b in keep_set]
        return Relation.from_pairs(sub_nodes, pairs)

    def union(self, other: "Relation") -> "Relation":
        """Union with another relation over the same node universe."""
        if self._nodes != other._nodes:
            raise ValueError("relations must share an identical node universe")
        return Relation(self._nodes,
                        [a | b for a, b in zip(self._succ, other._succ)])

    def minimal_nodes(self) -> List[N]:
        """Nodes with no predecessor in the raw relation."""
        pred = self._pred_table()
        return [self._nodes[i] for i in range(len(self._nodes)) if pred[i] == 0]

    def maximal_nodes(self) -> List[N]:
        """Nodes with no successor in the raw relation."""
        return [self._nodes[i] for i in range(len(self._nodes)) if self._succ[i] == 0]

    def topological_order(self) -> List[N]:
        """One topological order (deterministic for a given insertion order)."""
        return [self._nodes[i] for i in self.topological_indices()]

    def down_set(self, targets: Iterable[N]) -> FrozenSet[N]:
        """All nodes ≤ some target under the closure (targets included).

        Down-sets are exactly GEM histories when applied to a
        computation's temporal order.
        """
        closure_pred = self._closure_pred_table()
        acc = 0
        for t in targets:
            i = self._index[t]
            acc |= closure_pred[i] | (1 << i)
        return frozenset(self._iter_bits(acc))

    def up_set(self, sources: Iterable[N]) -> FrozenSet[N]:
        """All nodes ≥ some source under the closure (sources included)."""
        closure = self._closure_table()
        acc = 0
        for s in sources:
            i = self._index[s]
            acc |= closure[i] | (1 << i)
        return frozenset(self._iter_bits(acc))

    def _closure_pred_table(self) -> List[int]:
        if self._closure_pred is None:
            closure = self._closure_table()
            self._closure_pred = (self._pred_table() if closure is self._succ
                                  else self._transpose(closure))
        return self._closure_pred

    def is_down_closed(self, subset: Iterable[N]) -> bool:
        """True iff ``subset`` contains every closure-predecessor of its members."""
        closure_pred = self._closure_pred_table()
        mask = 0
        for n in subset:
            mask |= 1 << self._index[n]
        test = mask
        while test:
            low = test & -test
            if closure_pred[low.bit_length() - 1] & ~mask:
                return False
            test ^= low
        return True

    def is_antichain(self, subset: Iterable[N]) -> bool:
        """True iff the members of ``subset`` are pairwise concurrent."""
        members = list(subset)
        closure = self._closure_table()
        for i, a in enumerate(members):
            ia = self._index[a]
            for b in members[i + 1:]:
                ib = self._index[b]
                if closure[ia] >> ib & 1 or closure[ib] >> ia & 1:
                    return False
        return True

    def linear_extensions(self, limit: Optional[int] = None) -> Iterator[List[N]]:
        """Enumerate linear extensions of the closure (at most ``limit``).

        Each extension is a total order consistent with the partial
        order -- the "one event at a time" valid history sequences of
        Section 7.  Enumeration order is deterministic.
        """
        if not self.is_acyclic():
            raise CycleError("linear extensions require an acyclic relation",
                             self.find_cycle())
        n = len(self._nodes)
        pred_masks = self._transpose(self._succ)
        produced = 0
        prefix: List[int] = []
        placed = 0

        def rec() -> Iterator[List[N]]:
            nonlocal produced, placed
            if len(prefix) == n:
                produced += 1
                yield [self._nodes[i] for i in prefix]
                return
            for i in range(n):
                if placed >> i & 1:
                    continue
                if pred_masks[i] & ~placed:
                    continue
                prefix.append(i)
                placed |= 1 << i
                for ext in rec():
                    yield ext
                    if limit is not None and produced >= limit:
                        placed &= ~(1 << i)
                        prefix.pop()
                        return
                placed &= ~(1 << i)
                prefix.pop()

        return rec()

    def count_linear_extensions(self, cap: int = 10_000_000) -> int:
        """Count linear extensions (memoised over down-set masks), up to ``cap``."""
        if not self.is_acyclic():
            raise CycleError("linear extensions require an acyclic relation",
                             self.find_cycle())
        n = len(self._nodes)
        pred_masks = self._transpose(self._succ)
        memo: Dict[int, int] = {}

        def count(placed: int) -> int:
            if placed == (1 << n) - 1:
                return 1
            if placed in memo:
                return memo[placed]
            total = 0
            for i in range(n):
                if placed >> i & 1:
                    continue
                if pred_masks[i] & ~placed:
                    continue
                total += count(placed | (1 << i))
                if total >= cap:
                    break
            memo[placed] = min(total, cap)
            return memo[placed]

        return count(0)

