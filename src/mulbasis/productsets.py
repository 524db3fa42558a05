"""Multiplicative bases of integer sets.

A set B is a multiplicative basis of order two for A when every a in A
splits as a = b * b' with b, b' in B.  This module verifies covers,
searches for exact minimum bases, and builds the standard three-block
basis for the interval [1..M].

The exact search runs on any cover problem coded in integers, targets
with the pairs (b, c) that cover them: factor pairs here, the pairs
(b, t - b) of base-3 coded vectors in ``spherelab.sphere_min_basis``.

Covers are checked by ``first_uncovered``, a yes/no check that returns
the first target outside B*B and builds no witness.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from itertools import islice
from typing import AbstractSet, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .numtheory import InvariantViolationError, PrimeTable, divisors, sieve

__all__ = [
    "APSpec",
    "BasisSolution",
    "first_uncovered",
    "size_search",
    "fix_least_cover",
    "min_size_search",
    "exact_min_basis",
    "construct_interval_basis",
    "icbrt",
]

# Cover checks sweep targets in windows of at most _DENSE_MAX values; a
# window holding fewer than _DENSE_MIN_COUNT targets is scanned target by
# target instead.
_DENSE_MAX = 1 << 23
_DENSE_MIN_COUNT = 512
_INT64_MAX = (1 << 63) - 1
# a cover problem coded in integers: each target's pairs (b, c), b <= c, ascending in b
_Pairs = dict[int, list[tuple[int, int]]]


def icbrt(n: int) -> int:
    """Exact integer cube root: largest x with x**3 <= n."""
    if n < 0:
        raise ValueError("icbrt of negative value")
    x = round(n ** (1.0 / 3.0))
    while x > 0 and x * x * x > n:
        x -= 1
    while (x + 1) ** 3 <= n:
        x += 1
    return x


def _field(name: str, value) -> int:
    """A progression field by ``operator.index``: 1.5, "1" and True are refused, numpy integers read as ints."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"progression field {name} must be an integer, got {value!r}")
    return operator.index(value)


@dataclass(frozen=True)
class APSpec:
    """The progression {g*(u + v*m) : 1 <= m <= M}.

    g carries the common factor of offset and step, so gcd(u, v) = 1
    exactly when the progression is in reduced form (``normalized``).
    """

    g: int
    u: int
    v: int
    M: int

    def __post_init__(self):
        for name in ("g", "u", "v", "M"):
            value = getattr(self, name)
            if type(value) is not int:
                object.__setattr__(self, name, _field(name, value))
        if self.g < 1 or self.v < 1 or self.u < 0 or self.M < 1:
            raise ValueError(f"bad progression parameters {self}")

    @property
    def offset(self) -> int:
        return self.g * self.u

    @property
    def step(self) -> int:
        return self.g * self.v

    @property
    def normalized(self) -> bool:
        return math.gcd(self.u, self.v) == 1

    def elements(self) -> list[int]:
        g, u, v = self.g, self.u, self.v
        return [g * (u + v * m) for m in range(1, self.M + 1)]

    @classmethod
    def from_offset_step(cls, a: int, d: int, M: int) -> "APSpec":
        """Normal form of {a + m*d : 1 <= m <= M}: pull out g = gcd(a, d)."""
        a, d, M = _field("a", a), _field("d", d), _field("M", M)
        if a < 0 or d < 1 or M < 1:
            raise ValueError(f"need a >= 0, d >= 1, M >= 1, got a={a}, d={d}, M={M}")
        g = math.gcd(a, d)
        return cls(g=g, u=a // g, v=d // g, M=M)


def _scan(targets: Iterable[int], ordered: list[int], bset: set[int]) -> int | None:
    """The first target with no pair (b, a // b) in B, by a scan of B, or None.

    Target a tries the members d <= isqrt(a) in ascending order, and
    stops at the first d with a // d in B.
    """
    for a in targets:
        for d in islice(ordered, bisect_right(ordered, math.isqrt(a))):
            if a % d == 0 and a // d in bset:
                break
        else:
            return a
    return None


def _sweep(targets: Sequence[int], barr: np.ndarray) -> int | None:
    """``_scan`` of every target at once, by marking b * c for b, c in B over the window.

    The window holds targets[0] <= a <= targets[-1] < 2^63.  Each b with
    b * b <= hi marks b * c for the c in B with b <= c and
    lo <= b * c <= hi.
    """
    lo, hi = targets[0], targets[-1]
    if isinstance(targets, range):  # read as its own slice, with no copy
        index = slice(targets.start - lo, targets.stop - lo, targets.step)
    else:
        index = np.array(targets) - lo
    hit = np.zeros(hi - lo + 1, dtype=bool)
    bs = barr[: np.searchsorted(barr, math.isqrt(hi), side="right")]
    js = np.searchsorted(barr, np.maximum(bs, -(-lo // bs)), side="left")
    ks = np.searchsorted(barr, hi // bs, side="right")
    for b, j, k in zip(bs.tolist(), js.tolist(), ks.tolist()):
        if j < k:
            hit[b * barr[j:k] - lo] = True
    gaps = np.flatnonzero(~hit[index])
    return targets[int(gaps[0])] if len(gaps) else None


def _ints(values: Iterable[int], what: str) -> set[int]:
    """The distinct integers of ``values`` by ``operator.index``: 2.5, "2" and True are refused, not read as integers."""
    out = set()
    for x in values:
        try:
            if type(x) is bool:  # operator.index reads True as 1
                raise TypeError
            out.add(operator.index(x))
        except TypeError:
            raise ValueError(f"{what} must be integers, got {x!r}") from None
    return out


def _windows(A: Iterable[int], B: Iterable[int]) -> Iterator[tuple[Sequence[int], bool, int | None]]:
    """Runs of the sorted distinct targets of A, each with whether it was swept and its first gap.

    The runs are windows of at most ``_DENSE_MAX`` values, each starting
    at the first target past the last.  A window holding at least
    ``_DENSE_MIN_COUNT`` targets, all below 2^63, is swept; any other is
    scanned.  The gap is the window's first target outside B*B, or None.
    A range with positive step is sorted and distinct already, and is
    kept as it is.
    """
    targets = A if isinstance(A, range) and A.step > 0 else sorted(_ints(A, "targets"))
    bset = _ints(B, "basis elements")
    if not bset:
        raise ValueError("basis must be nonempty")
    if min(bset) < 1:
        raise ValueError("basis elements must be positive")
    if targets and targets[0] < 1:
        raise ValueError("targets must be positive")
    ordered = sorted(bset)
    barr = None
    i = 0
    while i < len(targets):
        j = bisect_right(targets, targets[i] + _DENSE_MAX - 1, i)
        chunk = targets[i:j]
        swept = j - i >= _DENSE_MIN_COUNT and chunk[-1] <= _INT64_MAX
        if swept:
            if barr is None:
                barr = np.array(ordered[: bisect_right(ordered, _INT64_MAX)], dtype=np.int64)
            gap = _sweep(chunk, barr)
        else:
            gap = _scan(chunk, ordered, bset)
        yield chunk, swept, gap
        i = j


def first_uncovered(A: Iterable[int], B: Iterable[int]) -> int | None:
    """The smallest target of A outside B*B, or None when B*B covers A.

    Windows dense in targets are swept over sorted B, sparse ones
    scanned target by target; neither builds a witness.  A range with
    positive step is read as its own targets, with no copy into a set or
    a sorted list.
    """
    for _, _, gap in _windows(A, B):
        if gap is not None:
            return gap
    return None


@dataclass(frozen=True, eq=False)
class BasisSolution:
    """A basis found by the exact search, and the nodes it took.

    ``basis`` holds ascending integers, or the lex-sorted uint8 rows of
    ``spherelab.sphere_min_basis``.  ``optimal`` means the search proved
    no strictly smaller basis exists.  A search that ran out of node
    budget before proving the size returns its incumbent with optimal
    False.  One that ran out while fixing the lexicographically smallest
    basis keeps optimal True, since the size is proved, but returns the
    first pass's basis, which need not be the lexicographically smallest
    of that size.
    """

    basis: tuple[int, ...] | np.ndarray
    optimal: bool
    nodes_explored: int = 0

    @property
    def size(self) -> int:
        return len(self.basis)


def _min_additions(s: int, r: int) -> int:
    # adding the i-th new element to a basis of size s covers at most
    # s + i new targets
    t = 0
    cap = 0
    while cap < r:
        t += 1
        cap += s + t
    return t


def _least_cover(
    targets: Sequence[int],
    pairs: Mapping[int, Sequence[tuple[int, int]]],
    bound: int,
    budget: int,
    nodes: int,
    forced: Iterable[int] = (),
    excluded: AbstractSet[int] = frozenset(),
    first_only: bool = False,
) -> tuple[tuple[int, ...] | None, int]:
    """Branch and bound for a cover of ``targets`` smaller than ``bound``.

    Covers hold every element of ``forced`` and none of ``excluded``.
    Each node branches on the uncovered target with the fewest usable
    pairs, then the least, and is pruned by the pair-counting bound; a
    cover found lowers the bound, unless ``first_only`` stops the search
    there.  ``nodes`` counts on from earlier searches, and the search
    stops once it passes ``budget``.  Returns the smallest cover found,
    or None, and the node count.  Each target slot, in branching order,
    counts its pairs inside the basis; an index from each element to its
    (slot, partner) entries keeps the counts as elements come and go.
    """
    usable = [[(b, c) for b, c in pairs[a] if b not in excluded and c not in excluded] for a in targets]
    # targets ascend, so a stable sort on pair count breaks ties toward the smaller target
    slots = sorted(usable, key=len)
    index: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s, ps in enumerate(slots):
        for b, c in ps:
            index[b].append((s, c))
            if c != b:
                index[c].append((s, b))
    inside = [0] * len(slots)
    basis: set[int] = set()
    uncovered = len(slots)
    best: tuple[int, ...] | None = None

    def add(x: int) -> None:
        nonlocal uncovered
        basis.add(x)
        for s, y in index[x]:
            if y in basis:
                if not inside[s]:
                    uncovered -= 1
                inside[s] += 1

    def remove(x: int) -> None:
        nonlocal uncovered
        for s, y in index[x]:
            if y in basis:
                inside[s] -= 1
                if not inside[s]:
                    uncovered += 1
        basis.remove(x)

    def dfs() -> None:
        nonlocal best, bound, nodes
        nodes += 1
        if nodes > budget:
            return
        size = len(basis)
        if not uncovered:
            if size < bound:
                bound = size
                best = tuple(sorted(basis))
            return
        if size + _min_additions(size, uncovered) >= bound:
            return
        for b, c in slots[inside.index(0)]:
            new = [x for x in {b, c} if x not in basis]
            for x in new:
                add(x)
            dfs()
            for x in reversed(new):
                remove(x)
            if nodes > budget or (first_only and best is not None):
                return

    for x in forced:
        add(x)
    dfs()
    return best, nodes


def size_search(targets: Sequence[int], pairs: _Pairs, budget: int) -> BasisSolution:
    """The first pass for any cover problem coded in integers: the least cover size it reached.

    ``targets`` ascend, each with its pairs (b, c), b <= c, ascending in
    b, whose two members cover it together.  Branch and bound looks for
    a cover smaller than the first pair of every target, and stops after
    ``budget`` nodes.  ``basis`` is the first cover of the least size
    the pass found, not the lexicographically smallest.
    """
    inc = tuple(sorted({x for a in targets for x in pairs[a][0]}))
    found, nodes = _least_cover(targets, pairs, len(inc), budget, 0)
    return BasisSolution(found or inc, nodes <= budget, nodes)


def fix_least_cover(
    targets: Sequence[int], pairs: _Pairs, pool: Iterable[int], first: BasisSolution, budget: int
) -> BasisSolution:
    """The lex-least cover of the size k ``first`` proved, with both passes' nodes.

    One pool element at a time, in ascending order, x is kept when a
    cover of size k still holds every kept element and x and no skipped
    element, and skipped otherwise; each search stops at its first cover.
    Both passes share one node budget.  A first pass that did not prove
    its size is returned as it is; a fixing pass that runs out returns
    the first pass's cover, still optimal.
    """
    if not first.optimal:
        return first
    k, nodes = first.size, first.nodes_explored
    kept: list[int] = []
    skipped: set[int] = set()
    for x in sorted(pool):
        if len(kept) == k:
            break
        found, nodes = _least_cover(targets, pairs, k + 1, budget, nodes, kept + [x], skipped, first_only=True)
        if nodes > budget:
            return BasisSolution(first.basis, True, nodes)
        if found is None:
            skipped.add(x)
        else:
            kept.append(x)
    return BasisSolution(tuple(kept), True, nodes)


def _factor_pairs(A: Iterable[int], pool: Iterable[int] | None) -> tuple[list[int], set[int], _Pairs]:
    """The sorted targets of A, the pool, and each target's factor pairs (d, a/d), d <= a/d, in it.

    ``pool`` defaults to all divisors of targets, which loses no minimum
    basis (every element of one divides some target).
    """
    targets = sorted(_ints(A, "targets"))
    if not targets:
        raise ValueError("exact_min_basis needs a nonempty target set")
    if targets[0] < 1:
        raise ValueError("targets must be positive")
    divs = [divisors(a) for a in targets]
    if pool is None:
        pool_set: set[int] = set().union(*divs)
    else:
        pool_set = _ints(pool, "pool elements")
        if pool_set and min(pool_set) < 1:
            raise ValueError("pool elements must be positive")

    pairs: _Pairs = {}
    for a, ds in zip(targets, divs):
        opts = [(d, a // d) for d in ds if d * d <= a and d in pool_set and a // d in pool_set]
        if not opts:
            raise ValueError(f"target {a} has no factor pair inside the pool")
        pairs[a] = opts
    return targets, pool_set, pairs


def _checked(targets: list[int], sol: BasisSolution) -> BasisSolution:
    """``sol``, checked to cover ``targets``."""
    gap = first_uncovered(targets, sol.basis)
    if gap is not None:  # pragma: no cover - would be a solver bug
        raise InvariantViolationError(f"search produced a non-cover, uncovered {gap}")
    return sol


def min_size_search(
    A: Iterable[int],
    pool: Iterable[int] | None = None,
    budget: int = 2_000_000,
) -> BasisSolution:
    """Least size of a multiplicative basis of order two for A.

    ``size_search`` over each target's factor pairs inside ``pool``,
    which defaults to all divisors of targets.  The result is checked to
    cover A before it is returned.
    """
    targets, _, pairs = _factor_pairs(A, pool)
    return _checked(targets, size_search(targets, pairs, budget))


def exact_min_basis(
    A: Iterable[int],
    pool: Iterable[int] | None = None,
    budget: int = 2_000_000,
) -> BasisSolution:
    """Exact minimum multiplicative basis of order two for A.

    ``size_search`` proves the least size k over factor pairs and
    ``fix_least_cover`` fixes the lexicographically smallest basis of
    that size, both within one node budget.  One that runs out while
    fixing returns the first pass's basis, still optimal.  ``pool``
    defaults to all divisors of targets.
    """
    targets, pool_set, pairs = _factor_pairs(A, pool)
    first = size_search(targets, pairs, budget)
    return _checked(targets, fix_least_cover(targets, pairs, pool_set, first, budget))


def construct_interval_basis(M: int, table: PrimeTable | None = None) -> tuple[int, ...]:
    """Three-block basis of [1..M], sorted: {1}, all of [2..M^(2/3)], primes above M^(1/3).

    A target with a prime factor p, p**3 > M, splits as (p, a/p);
    otherwise a is M^(1/3)-smooth and splits at its largest divisor
    d <= floor(M^(2/3)), whose cofactor also lands under that bound.
    Every prime above M^(1/3) and up to M^(2/3) is already in the middle
    block, so the size is at most pi(M) + M^(2/3) + 1.
    """
    if M < 1:
        raise ValueError(f"interval bound must be >= 1, got {M}")
    if table is None or table.limit < M:
        table = sieve(max(M, 2))
    t23 = icbrt(M * M)
    return tuple(range(1, t23 + 1)) + tuple(table.primes_in(t23 + 1, M))
