"""Prime tables, valuations, and valuation rows mod q.

Everything downstream leans on this module: sieving with a
smallest-prime-factor array, p-adic valuations v_p(x), the reduction map

    rho(x) = (v_{p_1}(x) mod q, ..., v_{p_n}(x) mod q)

into F_q^n for a fixed list of primes.

A vector rho(x) is held as a sparse row: its nonzero (column, residue)
pairs, ascending by column.  ``valuation_csr`` is the one map from
integers to rows, held together as CSR arrays (offsets, columns,
residues) built by ``csr_rows``.  ``halved_shift_csr`` gives the rows
of the embedding rho(b) - rho(g)/2 that the end-to-end pipeline
(q = 3) checks its sums on.
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
    "is_prime",
    "valuation",
    "divisors",
    "valuation_csr",
    "halved_shift_csr",
    "csr_rows",
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

    def is_prime(self, x: int) -> bool:
        if x > self.limit:
            raise ValueError(f"is_prime({x}) beyond table limit {self.limit}")
        return x >= 2 and int(self.spf[x]) == x

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


# Deterministic Miller-Rabin: the first k prime bases decide every
# n < psi_k, the least strong pseudoprime to all of them (OEIS A014233;
# Jaeschke 1993, Sorenson and Webster 2015).  Each entry is (psi_k, k).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LADDER = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
)
_MR_PROVEN = _MR_LADDER[-1][0]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < psi_13 = 3317044064679887385961981.

    Runs only the shortest prefix of the witness bases proven exact for
    n, so a prime below 25326001 costs three modular powers.  Raises
    ValueError at or above psi_13, where no witness set here is proven.
    """
    if n >= _MR_PROVEN:
        raise ValueError(f"is_prime is proven only below {_MR_PROVEN}, got {n}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for bound, k in _MR_LADDER:
        if n < bound:
            break
    for a in _MR_WITNESSES[:k]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def valuation(p: int, x: int) -> int:
    """v_p(x): exponent of the prime p in x.  Requires x >= 1."""
    if x < 1:
        raise ValueError(f"valuation needs x >= 1, got {x}")
    if not is_prime(p):
        raise ValueError(f"valuation base {p} is not prime")
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


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


def csr_rows(count: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray, q: int) -> tuple:
    """``count`` sparse rows mod q from entries (row, column, value), as CSR arrays.

    Returns (offsets, columns, residues): row r holds the columns
    ``columns[offsets[r]:offsets[r + 1]]``, ascending, each with its
    nonzero residue.  Values at one (row, column) are summed mod q.
    """
    width = int(cols.max()) + 1 if len(cols) else 1
    key, at = np.unique(rows.astype(np.int64) * width + cols, return_inverse=True)
    res = np.bincount(at, weights=values, minlength=len(key)).astype(np.int64) % q
    key, res = key[res != 0], res[res != 0]
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // width, minlength=count), out=offsets[1:])
    return offsets, key % width, res


def valuation_csr(values: Sequence[int], table: PrimeTable, primes: Sequence[int], q: int) -> tuple:
    """The rows of rho(x) = (v_p(x) mod q) over ``primes``, one per value, as ``csr_rows`` arrays.

    ``values`` is a sequence of positive integers or an int64 array.
    Column j is ``primes[j]``; other primes are ignored.  q must be an
    odd prime, and every listed prime must lie within the table, which
    keeps the walk exact past it.  Values within the table walk down
    their smallest-prime-factor chains together, one prime factor a
    step.  A larger one is first trial-divided by the table's primes
    while p^2 <= rest, until the rest is back within the table (and
    walked) or is 1, one prime or a product of primes past the table,
    none of them listed.
    """
    if q == 2 or not is_prime(q):
        raise ValueError(f"q must be an odd prime, got {q}")
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
    return csr_rows(len(x), rows[keep], order[pos[keep]], np.ones(int(keep.sum()), dtype=np.int64), q)


def halved_shift_csr(
    values: Sequence[int], g: int, table: PrimeTable, primes: Sequence[int], q: int
) -> tuple:
    """The rows of rho(x) - rho(g)/2 mod q, one per value, as ``csr_rows`` arrays.

    rho is ``valuation_csr``'s map over ``primes``, with its conditions
    on q and the table.  Halving is multiplication by (q + 1) / 2, so
    -1/2 = (q - 1) / 2 mod q: rho(g)'s entries, times that, join every
    row.
    """
    offsets, cols, res = valuation_csr(values, table, primes, q)
    _, g_cols, g_res = valuation_csr([g], table, primes, q)
    if not len(g_cols):
        return offsets, cols, res
    k = len(offsets) - 1
    rows = np.concatenate([np.repeat(np.arange(k), np.diff(offsets)), np.repeat(np.arange(k), len(g_cols))])
    cols, res = np.concatenate([cols, np.tile(g_cols, k)]), np.concatenate([res, np.tile(g_res * ((q - 1) // 2), k)])
    return csr_rows(k, rows, cols, res, q)
