"""Prime tables, divisors, and the prime factors behind valuation vectors.

Everything downstream leans on this module: sieving with a
smallest-prime-factor array, divisor lists, and the prime factors of
integers over a fixed list of primes p_1, ..., p_n.

``prime_factor_entries`` gives those factors as entries (row, column),
one per prime factor with multiplicity, so the entries of x at column j
number v_{p_j}(x).  The end-to-end pipeline counts them mod 3 into the
vectors rho(x) = (v_{p_1}(x) mod 3, ..., v_{p_n}(x) mod 3) of F_3^n.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "InvariantViolationError",
    "ResourceLimitError",
    "PrimeTable",
    "sieve",
    "divisors",
    "prime_factor_entries",
]

# Hard cap on sieve size, in table entries.  Overridable via environment
# so constrained hosts can lower it; exceeding it raises instead of
# attempting a huge allocation.
_ENV_LIMIT = "MULBASIS_SIEVE_LIMIT"
_DEFAULT_SIEVE_CAP = 100_000_000


class ResourceLimitError(Exception):
    """Requested table exceeds the configured memory budget."""


class InvariantViolationError(AssertionError):
    """A step broke a property the construction guarantees; a bug, not bad input."""


def _sieve_cap() -> int:
    raw = os.environ.get(_ENV_LIMIT)
    if raw is None:
        return _DEFAULT_SIEVE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_ENV_LIMIT} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"{_ENV_LIMIT} must be positive, got {cap}")
    return cap


@dataclass(frozen=True, eq=False)
class PrimeTable:
    """Primes up to ``limit`` plus a smallest-prime-factor array.

    ``primes`` is ascending and complete below the limit.  ``spf[x]`` is
    the least prime factor of x for 2 <= x <= limit, which makes repeated
    factorization below the limit a chain of array lookups.
    """

    limit: int
    primes: np.ndarray
    spf: np.ndarray

    def prime_count(self, x: int) -> int:
        """pi(x): number of primes <= x.  Requires x <= limit."""
        if x > self.limit:
            raise ValueError(f"prime_count({x}) beyond table limit {self.limit}")
        if x < 2:
            return 0
        return int(np.searchsorted(self.primes, x, side="right"))

    def non_primes(self, values: Sequence[int]) -> list[int]:
        """The values that are not prime, in order, by one lookup in ``spf``."""
        x = np.array(values, dtype=np.int64)
        if len(x) and x.max() > self.limit:
            raise ValueError(f"value {x.max()} beyond table limit {self.limit}")
        return x[(x < 2) | (self.spf[np.maximum(x, 0)] != x)].tolist()

    def primes_in(self, lo: int, hi: int) -> list[int]:
        """Primes p with lo <= p <= hi, ascending."""
        if hi > self.limit:
            raise ValueError(f"primes_in upper end {hi} beyond table limit {self.limit}")
        i = int(np.searchsorted(self.primes, lo, side="left"))
        j = int(np.searchsorted(self.primes, hi, side="right"))
        return [int(p) for p in self.primes[i:j]]


def sieve(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes with a smallest-prime-factor array."""
    if limit < 1:
        raise ValueError(f"sieve limit must be >= 1, got {limit}")
    cap = _sieve_cap()
    if limit > cap:
        raise ResourceLimitError(
            f"sieve limit {limit} exceeds budget {cap} (set {_ENV_LIMIT} to raise it)"
        )
    spf = np.zeros(limit + 1, dtype=np.uint32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    # untouched entries past 0 and 1 are exactly the primes
    primes = np.flatnonzero(spf == 0)[2:].astype(np.int64, copy=False)
    spf[primes] = primes
    return PrimeTable(limit=limit, primes=primes, spf=spf)


def divisors(x: int) -> list[int]:
    """The divisors of x >= 1, ascending.

    Trial division up to sqrt(x) lists the small divisors in order; their
    cofactors follow in reverse, so no sort is needed.  For x > 1 the
    least prime factor is ``divisors(x)[1]``.
    """
    if x < 1:
        raise ValueError(f"divisors needs x >= 1, got {x}")
    small, large = [], []
    for d in range(1, math.isqrt(x) + 1):
        if x % d == 0:
            small.append(d)
            if d * d != x:
                large.append(x // d)
    return small + large[::-1]


def prime_factor_entries(values: Sequence[int], table: PrimeTable, primes: Sequence[int]) -> tuple:
    """(row, column) once per listed prime factor of each value, with multiplicity.

    ``values`` is a sequence of positive integers or an int64 array, and
    row r is ``values[r]``.  Column j is ``primes[j]``; other primes are
    ignored, so a row's entries at column j number v_p(values[r]) for
    p = primes[j].  Every listed prime must lie within the table, which
    keeps the walk exact past it.  Values within the table walk down
    their smallest-prime-factor chains together, one prime factor a
    step.  A larger one is first trial-divided by the table's primes
    while p^2 <= rest, until the rest is back within the table (and
    walked) or is 1, one prime or a product of primes past the table,
    none of them listed.  Returns two int64 arrays, in no set order.
    """
    listed = np.array(primes, dtype=np.int64)
    order = np.argsort(listed)
    listed = listed[order]
    if np.any(listed[1:] == listed[:-1]):
        raise ValueError("prime list contains duplicates")
    limit = table.limit
    if len(listed) and listed[-1] > limit:
        raise ValueError(f"listed prime {listed[-1]} beyond table limit {limit}")
    given = np.asarray(values)  # of dtype object when a value is past int64
    low = np.flatnonzero(given < 1)
    if len(low):
        raise ValueError(f"valuation needs x >= 1, got {given[low[0]]}")
    over = given > limit
    big = np.flatnonzero(over).tolist()
    x = np.where(over, 1, given).astype(np.int64)
    trial = table.primes.tolist() if big else []
    found = []  # (row, prime) for each prime factor a trial division takes out
    for r in big:
        v = values[r]
        for p in trial:
            if p * p > v or v <= limit:
                break
            while v % p == 0:
                v //= p
                found.append((r, p))
        x[r] = v if v <= limit else 1
    rows, factors = ([a] for a in np.array(found, dtype=np.int64).reshape(-1, 2).T)
    at = np.flatnonzero(x > 1)
    walk = x[at]
    while len(walk):  # one prime factor of each value a step
        p = table.spf[walk].astype(np.int64)
        rows.append(at)
        factors.append(p)
        walk //= p
        at, walk = at[walk > 1], walk[walk > 1]
    rows, factors = np.concatenate(rows), np.concatenate(factors)
    pos = np.searchsorted(listed, factors)
    keep = pos < len(listed)
    keep[keep] = listed[pos[keep]] == factors[keep]
    return rows[keep], order[pos[keep]]
