"""Normal-form reduction of covered progressions.

A pair (A, B) with A an M-term progression inside B*B can be cleaned up
so that the offset and step of A, written g*u and g*v, satisfy
gcd(v, g) = 1: any prime dividing the step more often than the offset
can be stripped without losing the cover, shrinking the product of B
each time.

Also here: the factorial-divisibility check for terms with no large or
exceptional prime content, and the two doubling-shift marking
constructions (single large prime / product of three small primes) that
feed the end-to-end pipeline.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .numtheory import InvariantViolationError, PrimeTable, divisors
from .productsets import APSpec, _ints, first_uncovered

__all__ = [
    "InvariantViolationError",
    "ReducedPair",
    "MarkingSets",
    "FactorialCheck",
    "reduce_pair",
    "factorial_divisibility_check",
    "build_marking_sets",
    "random_injected_pair",
    "random_divisibility_instance",
]


@dataclass(frozen=True)
class ReducedPair:
    """Progression plus multiplicative cover; ``reduced`` asserts gcd(v, g) = 1."""

    ap: APSpec
    basis: frozenset[int]
    reduced: bool = False

    def __post_init__(self):
        basis = _ints(self.basis, "basis elements")  # read as the cover checks read them
        if basis and min(basis) < 1:
            raise ValueError(f"basis elements must be positive integers, got {min(basis)}")
        object.__setattr__(self, "basis", frozenset(basis))
        if self.reduced and math.gcd(self.ap.v, self.ap.g) != 1:
            raise ValueError(
                f"reduced flag set but gcd(v, g) = {math.gcd(self.ap.v, self.ap.g)}"
            )

    @classmethod
    def of(cls, ap: APSpec, basis) -> "ReducedPair":
        return cls(ap=ap, basis=basis, reduced=math.gcd(ap.v, ap.g) == 1)

    def to_record(self) -> dict:
        return {
            "ap": {"g": self.ap.g, "u": self.ap.u, "v": self.ap.v, "M": self.ap.M},
            "basis": sorted(self.basis),
            "reduced": self.reduced,
        }

    @classmethod
    def from_record(cls, rec) -> "ReducedPair":
        """Inverse of ``to_record``; a missing or ill-typed field raises ValueError naming it."""

        def field_of(obj: dict, key: str, kind: type, prefix: str = ""):
            if key not in obj:
                raise ValueError(f"pair record has no field '{prefix}{key}'")
            value = obj[key]
            if not isinstance(value, kind) or isinstance(value, bool):
                what = {dict: "an object", list: "a list", int: "an integer"}[kind]
                raise ValueError(f"pair record field '{prefix}{key}' must be {what}")
            return value

        if not isinstance(rec, dict):
            raise ValueError(f"pair record must be an object, got {type(rec).__name__}")
        ap = field_of(rec, "ap", dict)
        basis = field_of(rec, "basis", list)
        if not all(isinstance(b, int) and not isinstance(b, bool) for b in basis):
            raise ValueError("pair record field 'basis' must list integers")
        reduced = rec.get("reduced", False)
        if not isinstance(reduced, bool):
            raise ValueError("pair record field 'reduced' must be a boolean")
        return cls(
            ap=APSpec(**{k: field_of(ap, k, int, "ap.") for k in ("g", "u", "v", "M")}),
            basis=frozenset(basis),
            reduced=reduced,
        )


def _valuation(p: int, x: int) -> int:
    """v_p(x): the exponent of p in x >= 1, for p a prime that the caller found."""
    if x < 1:
        raise ValueError(f"valuation needs x >= 1, got {x}")
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def reduce_pair(pair: ReducedPair) -> ReducedPair:
    """Strip primes over-dividing the step until gcd(v, g) = 1.

    Each pass takes the smallest prime p with v_p(step) > v_p(offset) = f >= 1.
    For f = 1 the progression is divided by p and the basis keeps
    {v_p = 0} elements plus {b/p : v_p(b) = 1}; otherwise division is by
    p**2 and the basis keeps {v_p = 0}, {b/p : 0 < v_p(b) < f} and
    {b/p**2 : v_p(b) >= f}.  The cover survives every pass and the
    product of the basis strictly shrinks, which bounds the loop.
    """
    gap = first_uncovered(pair.ap.elements(), pair.basis)
    if gap is not None:
        raise ValueError(f"input pair is not a cover; first failure at {gap}")
    ap = pair.ap
    basis = set(pair.basis)
    if math.gcd(ap.v, ap.g) == 1:
        return pair if pair.reduced else replace(pair, reduced=True)
    product = math.prod(basis)
    while True:
        common = math.gcd(ap.v, ap.g)
        if common == 1:
            break
        p = divisors(common)[1]
        a, d = ap.offset, ap.step
        f = _valuation(p, a)
        e = _valuation(p, d)
        if not e > f >= 1:
            raise InvariantViolationError(f"prime {p} has v_p(step)={e}, v_p(offset)={f}")
        if f == 1:
            basis = {b for b in basis if b % p} | {
                b // p for b in basis if _valuation(p, b) == 1
            }
            ap = APSpec.from_offset_step(a // p, d // p, ap.M)
        else:
            vals = {b: _valuation(p, b) for b in basis}
            basis = (
                {b for b, w in vals.items() if w == 0}
                | {b // p for b, w in vals.items() if 0 < w < f}
                | {b // p**2 for b, w in vals.items() if w >= f}
            )
            ap = APSpec.from_offset_step(a // p**2, d // p**2, ap.M)
        gap = first_uncovered(ap.elements(), basis)
        if gap is not None:
            raise InvariantViolationError(f"reduction at p={p} lost the cover at {gap}")
        new_product = math.prod(basis)
        if new_product >= product:
            raise InvariantViolationError(f"basis product did not decrease at p={p}")
        product = new_product
    return ReducedPair(ap=ap, basis=frozenset(basis), reduced=True)


@dataclass(frozen=True)
class FactorialCheck:
    u: int
    v: int
    M: int
    marked_large: frozenset[int]
    exceptional: dict[int, int]  # prime -> index of its valuation maximizer
    surviving: tuple[int, ...]
    divides: bool


def factorial_divisibility_check(u: int, v: int, M: int, table: PrimeTable) -> FactorialCheck:
    """Product of unmarked terms u + m*v, m in [1..M], divides (M-1)!.

    Skipped indices: those whose term has a prime factor >= M, and one
    valuation maximizer per prime p < M (smallest index on ties; primes
    dividing no term contribute nothing).  Divisibility is computed on
    exact integers, never assumed.

    Each term is walked once down the smallest-prime-factor table, in
    increasing m.  The walk yields every (p, e) of the term, last of all
    its largest prime, which decides the marking.  A prime p < M takes m
    as its maximizer only when e beats the best exponent seen so far, so
    a tie keeps the smaller index.
    """
    if M < 1:
        raise ValueError("M must be positive")
    if u < 1 or v < 1:
        raise ValueError("u and v must be positive")
    if math.gcd(u, v) != 1:
        raise ValueError(f"gcd(u, v) = {math.gcd(u, v)}, expected 1")
    top = u + M * v
    if table.limit < top:
        raise ValueError(f"prime table limit {table.limit} below largest term {top}")
    spf = table.spf[: top + 1].tolist()
    marked = set()
    exceptional: dict[int, int] = {}
    best: dict[int, int] = {}
    for m in range(1, M + 1):
        t = u + m * v  # at least 2, so the walk visits one prime or more
        while t > 1:
            p, e = spf[t], 0
            while t % p == 0:
                t //= p
                e += 1
            if p < M and e > best.get(p, 0):
                best[p], exceptional[p] = e, m
        if p >= M:
            marked.add(m)
    skip = marked | set(exceptional.values())
    surviving = tuple(m for m in range(1, M + 1) if m not in skip)
    product = math.prod(u + m * v for m in surviving)
    divides = math.factorial(M - 1) % product == 0
    return FactorialCheck(
        u=u,
        v=v,
        M=M,
        marked_large=frozenset(marked),
        exceptional=dict(sorted(exceptional.items())),
        surviving=surviving,
        divides=divides,
    )


@dataclass(frozen=True)
class MarkingSets:
    """Both doubling-shift constructions over the window [u+1, u+M], as aligned int64 arrays."""

    large_primes: np.ndarray  # odd primes p in (M^(1/3), M]
    single_marks: np.ndarray  # m with u + m = 2^k * large_primes[i]
    small_primes: np.ndarray  # odd primes p in [3, M^(1/3)]
    triple_products: np.ndarray  # x = p1*p2*p3, three distinct small primes
    triple_marks: np.ndarray  # m with u + m = 2^k * triple_products[i]


def _doubling_marks(x: np.ndarray, u: int, M: int) -> np.ndarray:
    """m = 2^k * x - u for the least k with 2^k * x > u: the first doubling of x past u.

    That k is the bit length of u // x, read off as a float64 exponent,
    exact for u < 2^53.  For 1 <= x <= M and 0 <= u <= M the doubling
    lands in [u+1, u+M], since the window is wider than one doubling gap.
    """
    m = (x << np.frexp(u // x)[1]) - u
    if len(m) and m.max() > M:  # cannot happen: m is x - u, or at most 2u - u
        raise InvariantViolationError(f"doubling mark {int(m.max())} past the window [1, {M}]")
    return m


def build_marking_sets(M: int, u: int, table: PrimeTable) -> MarkingSets:
    """Marks for step-1 progressions: each index m has u + m = 2^k * x.

    Large primes are the odd p in (M^(1/3), M], checked prime in the
    table; their marks carry a private prime each (p divides only its
    own shifted term, since every term is a power of two times one odd
    prime).  Small primes are those in [3, M^(1/3)]; products of three
    distinct ones are at most M and mark indices with no privacy claim.
    """
    if M < 1:
        raise ValueError("M must be positive")
    if not 0 <= u <= M:
        raise ValueError(f"u must lie in [0, {M}], got {u}")
    if table.limit < M:
        raise ValueError(f"prime table limit {table.limit} below M = {M}")
    odd = table.primes[(table.primes >= 3) & (table.primes <= M)]
    is_small = odd * odd <= M // odd  # p^3 <= M, without overflowing int64
    large, small = odd[~is_small], odd[is_small]
    bad = table.non_primes(large)
    if bad:
        raise ValueError(f"non-prime marks: {sorted(set(bad))}")
    a = np.arange(len(small))
    i, j, k = np.nonzero((a[:, None, None] < a[:, None]) & (a[:, None] < a))  # i < j < k, in order
    triple = small[i] * small[j] * small[k]
    if len(triple) and triple.max() > M:  # cannot happen: each factor is at most M^(1/3)
        raise InvariantViolationError(f"triple product {int(triple.max())} exceeds M = {M}")
    return MarkingSets(
        large_primes=large,
        single_marks=_doubling_marks(large, u, M),
        small_primes=small,
        triple_products=triple,
        triple_marks=_doubling_marks(triple, u, M),
    )


_INJECT_PRIMES = (2, 3, 5, 7, 11)


@functools.cache
def _coprime_pool(primes: tuple[int, ...]) -> tuple[int, ...]:
    """The x in 1..60 divisible by none of ``primes``, ascending."""
    return tuple(x for x in range(1, 61) if all(x % p for p in primes))


def random_injected_pair(rng) -> ReducedPair:
    """Seeded unreduced instance with a known-good cover.

    A base progression coprime to the chosen primes is multiplied
    through by p^f on the offset and p^e (e > f) on the step; each term
    then factors as (injected power) * c_m with the injected exponents
    split arbitrarily across a random divisor pair of c_m.  Junk basis
    elements are thrown in to exercise the discard branches.

    ``rng`` needs only a scalar ``integers(low, high)``: a NumPy
    ``Generator`` and a ``cli.ScalarStream`` on the same key give the
    same instance.  The primes are drawn by Floyd's sampling and then
    shuffled, the draw sequence of NumPy's ``choice(5, count, replace=False)``.
    """
    M = int(rng.integers(3, 9))
    count = int(rng.integers(1, 3))
    n = len(_INJECT_PRIMES)
    picks: list[int] = []
    for j in range(n - count, n):
        k = int(rng.integers(0, j + 1))
        picks.append(j if k in picks else k)
    for i in range(count - 1, 0, -1):
        k = int(rng.integers(0, i + 1))
        picks[i], picks[k] = picks[k], picks[i]
    primes = [_INJECT_PRIMES[i] for i in picks]
    pool = _coprime_pool(tuple(sorted(primes)))
    a0 = int(pool[int(rng.integers(0, len(pool)))])
    d0 = int(pool[int(rng.integers(0, len(pool)))])
    f_of = {p: int(rng.integers(1, 3)) for p in primes}
    e_of = {p: f_of[p] + int(rng.integers(1, 3)) for p in primes}
    inject = math.prod(p ** f_of[p] for p in primes)
    extra = math.prod(p ** (e_of[p] - f_of[p]) for p in primes)
    offset = a0 * inject
    step = d0 * inject * extra
    basis: set[int] = set()
    for m in range(1, M + 1):
        c = a0 + m * d0 * extra
        divs = divisors(c)
        s = divs[int(rng.integers(0, len(divs)))]
        left, right = s, c // s
        for p in primes:
            i = int(rng.integers(0, f_of[p] + 1))
            left *= p**i
            right *= p ** (f_of[p] - i)
        basis.add(left)
        basis.add(right)
    for _ in range(int(rng.integers(0, 4))):
        basis.add(int(rng.integers(1, 10_001)))
    return ReducedPair(
        ap=APSpec.from_offset_step(offset, step, M), basis=frozenset(basis), reduced=False
    )


# the largest M of a random divisibility instance
_RANDOM_MAX_M = 200


def random_divisibility_instance(rng) -> tuple[int, int, int]:
    """Seeded (u, v, M) with gcd(u, v) = 1 and M <= ``_RANDOM_MAX_M``.

    ``rng`` needs only a scalar ``integers(low, high)``: a NumPy
    ``Generator`` and a ``cli.ScalarStream`` on the same key give the
    same instance.
    """
    while True:
        u = int(rng.integers(1, 51))
        v = int(rng.integers(1, 13))
        if math.gcd(u, v) == 1:
            break
    return u, v, int(rng.integers(1, _RANDOM_MAX_M + 1))
