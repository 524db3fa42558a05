"""Additive bases of Hamming spheres in F_3^n.

S_k(n) is the set of 0-1 vectors of weight k.  The objects here answer
three kinds of question about S_3:

* difference structure: for a fixed d, how many ordered pairs
  (a, a') in S_3 x S_3 have a - a' = d?  The count depends only on the
  pattern of 1s and 2s in d (the difference case), with closed formulas.
* covering: is S_3 contained in B + B, and what is the smallest such B?
  The union S_1 | S_2 always works (size n(n+1)/2); for n <= 6 the
  exact cover search of ``productsets`` runs on base-3 coded vectors.
* overlap: how much of S_2 can a structured sumset X + Y capture?
  The kernel rests on one fact: x + y = e_i + e_j exactly when
  y_l = -x_l at every coordinate l outside {i, j} and y_l = 1 - x_l at
  i and j.  So y mismatches -x in exactly two coordinates, a hit is
  named by its support pair (i, j), and a row that mismatches -x more
  than twice on a short leading block of columns is no hit.

A vector is a uint8 row, one coordinate per byte, and a set of vectors
a (m, n) uint8 matrix; ``as_matrix`` reads any sequence of coordinate
sequences into one.  The large side of an overlap check is read as a
list of row blocks, never joined.
A trial holds no row of its Y.  The dedupe pass first groups rows by a
lead key, their first 32 columns in base 3, and fingerprints only rows
whose key another row shares.  The uniform block locates and keeps only
each row's lead columns and key, read by the hit kernel and the dedupe
pass, and rebuilds the few rows they leave in play by replaying its
draws through the extractor that located those lead columns.  The
near-sphere block holds only its shifts and column draws, and gives its
hit keys, lead keys and fingerprints from those.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numtheory import InvariantViolationError
from .productsets import BasisSolution, fix_least_cover, size_search

__all__ = [
    "DifferenceCase",
    "OverlapCheck",
    "OverlapRefinedCheck",
    "CensusRow",
    "DifferenceCensus",
    "sphere_rows",
    "difference_census",
    "least_pairs",
    "sphere_first_uncovered",
    "sphere_construction_basis",
    "sphere_min_basis",
    "check_sphere_overlap",
    "check_sphere_overlap_general",
    "overlap_trial",
    "overlap_refined_trial",
    "as_matrix",
    "OVERLAP_MIN_N",
    "SMALL_SET_DIVISOR",
    "SPHERE_EXACT_MAX_N",
]

# The fixed-fraction overlap bound is a statement about large n; below
# this dimension it is reported but not claimed.
OVERLAP_MIN_N = 2048

# Largest dimension the exact sphere-cover search accepts.  At n = 6 the
# first pass already runs past the default 5M-node budget (about 40 s) and
# keeps its best cover; each dimension above triples the pool and adds targets (35
# at n = 7 against 20), so no practical budget proves a minimum there.
SPHERE_EXACT_MAX_N = 6

# "Small" sets in the overlap checks: at most n / 2**10 elements.
SMALL_SET_DIVISOR = 1 << 10

# coordinate tables for the overlap kernels: -x and 1 - x mod 3
_NEG3 = np.array([0, 2, 1], dtype=np.uint8)
_ONE_MINUS = np.array([1, 0, 2], dtype=np.uint8)

# x + y can lie in S_2 only if y = -x on all but two of the first _LEAD
# columns; a random row fails that on about 2/3 of them, so the lead block
# rejects nearly every row before a full-width compare
_LEAD = 16

# columns of a row's lead key, read as a base-3 integer (3^32 < 2^63).  The
# dedupe pass fingerprints only rows whose key another row shares
_KEY_COLS = 32

# rows of one array or uniform block per fingerprint pass and full-width
# compare, to bound temporaries at about _HIT_CHUNK * n bytes.  A
# criterion-3 trial builds too few rows to fill one chunk
_HIT_CHUNK = 1024

# 64-bit generator words per raw draw of a uniform block (512 KiB); each draw
# costs a state snapshot and a dozen small numpy calls under the GIL.  In
# alternated rounds of four criterion-3 trials (sphere-overlap --n 2048
# --x-size 2 --y-size 41943 --trials 4, 2-core VM), 512 KiB beat 256 KiB in
# 18 of 20 pairs at --jobs 2 (0.321 -> 0.287 s) and 11 of 20 at --jobs 1
_RAW_WORDS = 1 << 16

# bytes of sums per block of basis rows in least_pairs (one row at least)
_PAIR_BLOCK = 1 << 20


class DifferenceCase(Enum):
    ZERO = "zero"
    CASE1 = "case1"  # three 1s and three 2s
    CASE2 = "case2"  # two 1s and two 2s
    CASE3 = "case3"  # one 1 and one 2
    OTHER = "other"


def as_matrix(vectors, n: int) -> np.ndarray:
    """Coordinate sequences (bytes, tuples, 1-D arrays) or a 2-D array as a (m, n) uint8 matrix; entries must lie in {0, 1, 2}."""
    if isinstance(vectors, np.ndarray):
        if vectors.dtype != np.uint8:  # checked before the cast, which would wrap or truncate
            if not np.issubdtype(vectors.dtype, np.integer):
                raise ValueError(f"rows of a {vectors.dtype} array are not sequences of integer entries")
            if vectors.size and not 0 <= vectors.min() <= vectors.max() <= 2:
                raise ValueError("matrix entries must lie in {0, 1, 2}")
        mat = np.ascontiguousarray(vectors, dtype=np.uint8)
        if mat.ndim != 2 or mat.shape[1] != n:
            raise ValueError(f"expected shape (*, {n}), got {mat.shape}")
    else:
        rows = []
        for v in vectors:
            try:
                # iter: rows read by entry value, where bytes() reads an int as
                # that many zeros and an array as its raw buffer
                buf = bytes(iter(v))
            except ValueError:  # an entry outside range(256)
                raise ValueError("matrix entries must lie in {0, 1, 2}") from None
            except TypeError:  # no row, or an entry that is no integer
                raise ValueError(f"row {v!r} is not a sequence of integer entries") from None
            if len(buf) != n:
                raise ValueError(f"vector of dimension {len(buf)}, expected {n}")
            rows.append(buf)
        mat = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), n).copy()
    if mat.size and mat.max() > 2:
        raise ValueError("matrix entries must lie in {0, 1, 2}")
    return mat


def sphere_rows(n: int, k: int) -> np.ndarray:
    """All 0-1 vectors of weight k as uint8 rows, in lexicographic order of support."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if k > n:
        raise ValueError(f"weight {k} exceeds dimension {n}")
    count = math.comb(n, k)
    if count * n > np.iinfo(np.intp).max:  # too large for numpy to size: refused as an allocation
        raise MemoryError(
            f"S_{k} in {n} coordinates has {count * n} entries, past an array's index range"
        )
    support = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    support = np.fromiter(support, dtype=np.int64, count=count * k).reshape(count, k)
    rows = np.zeros((count, n), dtype=np.uint8)
    np.put_along_axis(rows, support, 1, axis=1)
    return rows


def _case_of(coords: bytes) -> DifferenceCase:
    """The case of a difference given as its coordinate bytes."""
    ones = coords.count(1)
    twos = coords.count(2)
    if ones == 0 and twos == 0:
        return DifferenceCase.ZERO
    if ones == 3 and twos == 3:
        return DifferenceCase.CASE1
    if ones == 2 and twos == 2:
        return DifferenceCase.CASE2
    if ones == 1 and twos == 1:
        return DifferenceCase.CASE3
    return DifferenceCase.OTHER


def _solution_count(case: DifferenceCase, n: int) -> int:
    """Ordered pairs (a, a') in S_3 x S_3 with a - a' = d, for d of this case in n coordinates.

    A 1 in d forces (a_i, a'_i) = (1, 0), a 2 forces (0, 1), and shared 1s fill the rest of a.
    """
    if case is DifferenceCase.ZERO:
        return math.comb(n, 3)
    if case is DifferenceCase.CASE1:
        return 1
    if case is DifferenceCase.CASE2:
        return max(n - 4, 0)
    if case is DifferenceCase.CASE3:
        return math.comb(n - 2, 2)
    return 0


@dataclass(frozen=True)
class CensusRow:
    n: int
    case: DifferenceCase
    formula_count: int
    enumerated_count: int
    bound: int
    holds: bool


@dataclass(frozen=True)
class DifferenceCensus:
    n: int
    rows: tuple[CensusRow, ...]
    total_pairs: int
    identity_ok: bool  # counts over all differences sum to |S_3|^2
    other_seen: int

    @property
    def all_hold(self) -> bool:
        return self.identity_ok and self.other_seen == 0 and all(r.holds for r in self.rows)


def _case_bound(case: DifferenceCase, n: int) -> int:
    if case is DifferenceCase.ZERO:
        return math.comb(n, 3)
    if case is DifferenceCase.CASE1:
        return 1
    if case is DifferenceCase.CASE2:
        return n  # strict
    return n * n  # CASE3, strict


def difference_census(n: int) -> DifferenceCensus:
    """Exhaustive pair scan of S_3(n)^2 against the difference formulas.

    For every difference that occurs, the enumerated count must equal the
    closed formula; case2 counts stay strictly below n and case3 strictly
    below n^2.  The per-difference counts must add back up to |S_3|^2.
    """
    mat = sphere_rows(n, 3).astype(np.int16)
    m = len(mat)
    counts: Counter[bytes] = Counter()
    for i in range(m):
        diff = ((mat[i] - mat) % 3).astype(np.uint8)
        buf = diff.tobytes()
        for j in range(m):
            counts[buf[j * n : (j + 1) * n]] += 1
    per_case: dict[DifferenceCase, list[int]] = {}
    formula: dict[DifferenceCase, int] = {}  # one closed form per case
    other_seen = 0
    mismatch: set[DifferenceCase] = set()
    for d, c in counts.items():
        case = _case_of(d)
        if case is DifferenceCase.OTHER:
            other_seen += c
            continue
        formula[case] = _solution_count(case, n)
        if formula[case] != c:
            mismatch.add(case)
        per_case.setdefault(case, []).append(c)
    rows = []
    for case in (DifferenceCase.ZERO, DifferenceCase.CASE1, DifferenceCase.CASE2, DifferenceCase.CASE3):
        if case not in per_case:
            continue  # not realizable at this dimension
        got = per_case[case]
        bound = _case_bound(case, n)
        if case in (DifferenceCase.CASE2, DifferenceCase.CASE3):
            within = all(c < bound for c in got)
        else:
            within = all(c <= bound for c in got)
        holds = case not in mismatch and within and all(c == got[0] for c in got)
        rows.append(
            CensusRow(
                n=n,
                case=case,
                formula_count=formula[case],
                enumerated_count=got[0],
                bound=bound,
                holds=holds,
            )
        )
    total = sum(counts.values())
    return DifferenceCensus(
        n=n,
        rows=tuple(rows),
        total_pairs=total,
        identity_ok=total == m * m,
        other_seen=other_seen,
    )


def least_pairs(bmat: np.ndarray, tmat: np.ndarray) -> np.ndarray:
    """Per target row, the indices (i, j), i <= j, of its lex-least pair of basis rows.

    ``bmat`` holds the distinct basis rows in lex order, ``tmat`` distinct
    target rows of any kind.  Gives int64 (|T|, 2), (-1, -1) where no pair
    sums to the target.  For a block of rows i from lo, the sums
    B[i] + B[lo:] mod 3 whose fingerprint's top bits mark a target in a
    table of about 8|T| slots are looked up by their own bytes in the
    targets' sort order.  The first i to reach a target wins, and its
    j >= i: a partner sorting before the lex-least b1 would be a valid b1
    itself.  Cost: |B|^2 * n / 2 byte additions whatever the targets, in
    blocks of about _PAIR_BLOCK bytes, stopping once every target has its
    pair.
    """
    m, n = bmat.shape
    if not n:
        raise ValueError("least_pairs needs rows of at least one coordinate")
    out = np.full((len(tmat), 2), -1, dtype=np.int64)
    tmat = np.ascontiguousarray(tmat)
    tkeys = tmat.view(np.dtype((np.void, n))).ravel()
    order = np.argsort(tkeys)
    weights = _fingerprint_weights(n)
    shift = np.uint64(64 - (8 * len(tmat) + 8).bit_length())
    slots = np.zeros(1 << (64 - int(shift)), dtype=bool)
    slots[_row_fingerprints(tmat, weights) >> shift] = True
    lo = 0
    while lo < m and (out[:, 0] < 0).any():
        width = m - lo
        hi = min(m, lo + max(1, _PAIR_BLOCK // (width * n)))
        sums = (bmat[lo:hi, None, :] + bmat[None, lo:, :]).reshape(-1, n)
        # a sum s in [0, 4] is s mod 3 = min(s, s - 3), as s - 3 wraps past 250 below 3
        np.minimum(sums, sums - np.uint8(3), out=sums)
        maybe = np.flatnonzero(slots[_row_fingerprints(sums, weights) >> shift])
        keys = sums[maybe].view(tkeys.dtype).ravel()
        tid = order[np.minimum(np.searchsorted(tkeys, keys, sorter=order), len(tkeys) - 1)]
        found = tkeys[tid] == keys
        hits = maybe[found]
        # hits run row-major, so a target's first hit has its least i
        tid, first = np.unique(tid[found], return_index=True)
        fresh = out[tid, 0] < 0
        out[tid[fresh]] = np.stack(np.divmod(hits[first[fresh]], width), axis=1) + lo
        lo = hi
    return out


def sphere_first_uncovered(B, n: int) -> np.ndarray | None:
    """The first target of S_3(n), in support order, outside B + B, as a uint8 row; None when B covers S_3.

    ``B`` is anything ``as_matrix`` takes, in any order and with repeats:
    only whether a target has a pair is read.  The gap is the first
    target whose ``least_pairs`` row is (-1, -1); no witness map is built.
    """
    targets = sphere_rows(n, 3)
    gaps = np.flatnonzero(least_pairs(as_matrix(B, n), targets)[:, 0] < 0)
    return targets[gaps[0]] if len(gaps) else None


def sphere_construction_basis(n: int) -> np.ndarray:
    """S_1 then S_2 as uint8 rows, each in lex order of support: a cover of S_3 of size n(n+1)/2.

    Every target e_i + e_j + e_k, i < j < k, splits as e_i + e_jk with
    e_i in S_1 and e_jk in S_2, so S_3 lies in B + B.  Optimality is not
    claimed.
    """
    if n < 3:
        raise ValueError(f"construction needs n >= 3, got {n}")
    return np.concatenate([sphere_rows(n, 1), sphere_rows(n, 2)])


def sphere_min_basis(n: int, budget: int = 5_000_000) -> BasisSolution:
    """Exact minimum B subset of F_3^n with S_3 subset B + B, for n <= SPHERE_EXACT_MAX_N.

    Each vector is coded as a base-3 integer, first coordinate the top
    digit, so integer order is lex order.  A target t has the pairs
    (b, t - b), b <= t - b, over all 3^n vectors.  The exact cover search
    of ``productsets`` runs on them, as on factor pairs: ``size_search``
    starts from the first pair of every target, {0} | S_3, and proves the
    least size; ``fix_least_cover`` fixes the lexicographically smallest
    basis of that size.  No symmetry prune is used.  Both passes share
    the node budget, and ``nodes_explored`` counts the nodes of both.  A
    first pass that runs out of budget returns the best cover it reached,
    at most {0} | S_3, with optimal unset; a fixing pass that runs out
    keeps the first pass's basis, still optimal.  The basis is a
    (size, n) uint8 matrix in lex order, empty below n = 3.
    """
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    if n > SPHERE_EXACT_MAX_N:
        raise ValueError(f"exact sphere search is limited to n <= {SPHERE_EXACT_MAX_N}; got n={n}")
    if n < 3:
        return BasisSolution(np.zeros((0, n), dtype=np.uint8), True)
    space = np.array(list(itertools.product(range(3), repeat=n)), dtype=np.uint8)  # code order
    pw = 3 ** np.arange(n - 1, -1, -1)
    own = np.arange(len(space))
    pairs = {}
    for t in sphere_rows(n, 3):
        partner = ((t + 3 - space) % 3) @ pw
        keep = partner >= own
        pairs[int(t @ pw)] = list(zip(own[keep].tolist(), partner[keep].tolist()))
    targets = sorted(pairs)
    sol = fix_least_cover(targets, pairs, range(len(space)), size_search(targets, pairs, budget), budget)
    rows = space[sorted(sol.basis)]  # code order is lex order
    if sphere_first_uncovered(rows, n) is not None:  # pragma: no cover - would be a search bug
        raise InvariantViolationError("exact search returned a non-cover")
    return BasisSolution(rows, sol.optimal, sol.nodes_explored)


def _fingerprint_weights(n: int) -> np.ndarray:
    """Odd 64-bit weights for rows of n bytes: one per 8-byte word, one per trailing byte.

    Weight k is splitmix64 of k, so hashing loads no random generator.
    """
    z = np.arange(1, n // 8 + n % 8 + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31)) | np.uint64(1)


def _row_fingerprints(mat: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """A 64-bit hash per row: its 8-byte words dotted with ``_fingerprint_weights``.

    A byte high in its word meets its weight shifted left, so rows that
    differ only there collide more often than 2^-64; callers compare bytes.
    The sums wrap mod 2^64, so any order of summation gives the same bits.
    ``einsum`` reads the word view, row-strided and unaligned when n % 8
    is not 0, through a small buffer, where a matmul would copy ``mat``.
    """
    words = mat.shape[1] // 8
    fp = np.einsum("ij,j->i", mat[:, : 8 * words].view(np.uint64), weights[:words])
    fp += np.einsum("ij,j->i", mat[:, 8 * words :], weights[words:])
    return fp


def _key_places(n: int) -> np.ndarray:
    """Base-3 place values of the first _KEY_COLS of n columns, 0 past them."""
    places = np.zeros(n, dtype=np.int64)
    places[:_KEY_COLS] = 3 ** np.arange(min(_KEY_COLS, n), dtype=np.int64)
    return places


def _lead_keys(mat: np.ndarray) -> np.ndarray:
    """Each row's first _KEY_COLS columns as a base-3 int64: rows with distinct keys are distinct."""
    return np.einsum("ij,j->i", mat[:, :_KEY_COLS], _key_places(mat.shape[1])[:_KEY_COLS])


class _NearSphereRows:
    """The rows of ``_random_near_sphere``, built on demand for a row slice or an index array.

    Row i is -x, x = shifts[i % k], with 1 - x at its two drawn columns ``cols[i]``.
    Only the k rows -x and the draws are held, about 18 bytes a row
    against n.  The dedupe pass asks it for its rows' lead keys and
    fingerprints and the hit kernel for its hit keys, and neither builds
    a row; the dedupe pass gathers the few rows it compares by bytes.
    """

    def __init__(self, shifts: np.ndarray, cols: np.ndarray):
        which = np.arange(len(cols)) % len(shifts)
        self._neg = _NEG3[shifts]  # (k, n): -x per shift
        self._cols = cols  # (count, 2): the two columns moved in each row
        self._ones = _ONE_MINUS[shifts[which[:, None], cols]]  # (count, 2): 1 - x at those columns
        self.shape = (len(cols), shifts.shape[1])

    def __len__(self) -> int:
        return len(self._cols)

    def __getitem__(self, key) -> np.ndarray:
        idx = np.arange(len(self))[key]
        rows = self._neg[idx % len(self._neg)]
        rows[np.arange(len(idx))[:, None], self._cols[idx]] = self._ones[idx]
        return rows

    def _column_sums(self, idx: np.ndarray, totals: np.ndarray, places: np.ndarray) -> np.ndarray:
        """Per row in ``idx``, the sum of places[c] * row[c] over columns c, in places' dtype (uint64 wraps).

        It is the sum of its -x_s, from ``totals``, plus the change at its two drawn columns.
        """
        which, cols = idx % len(self._neg), self._cols[idx]
        change = self._ones[idx].astype(np.int64) - self._neg[which[:, None], cols]
        return totals[which] + (change.astype(places.dtype) * places[cols]).sum(axis=1, dtype=places.dtype)

    @property
    def keys(self) -> np.ndarray:
        """``_lead_keys`` of every row, computed on each read."""
        return self._column_sums(np.arange(len(self)), _lead_keys(self._neg), _key_places(self.shape[1]))

    def fingerprints(self, idx: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """``_row_fingerprints`` of rows ``idx``: a byte v adds v times its word's weight at the byte's place."""
        words = self.shape[1] // 8
        place = np.eye(8, dtype=np.uint8).view(np.uint64).ravel()  # a byte's place, as the word view reads it
        places = np.concatenate([(weights[:words, None] * place).ravel(), weights[words:]])
        return self._column_sums(idx, _row_fingerprints(self._neg, weights), places)

    def hit_keys(self, x: np.ndarray) -> np.ndarray:
        """Keys i * n + j, i < j, of the rows y with x + y = e_i + e_j, as in ``_two_sphere_hits``.

        A row of shift s mismatches -x outside its two drawn columns
        exactly where -x_s does, so a shift whose -x_s differs from -x in
        more than 4 columns gives no hit.  For the others, a row's
        mismatches lie among those columns and its two drawn ones: each
        such row is read as at most 6 (column, value) entries, a drawn
        column's entry replacing the entry of -x_s there.
        """
        k, n = self._neg.shape
        neg, one_minus = _NEG3[x], _ONE_MINUS[x]
        differs = self._neg != neg
        keys = [np.zeros(0, dtype=np.int64)]
        for s in np.flatnonzero(np.count_nonzero(differs, axis=1) <= 4):
            diff = np.flatnonzero(differs[s])
            drawn = self._cols[s::k]
            cols = np.concatenate([np.broadcast_to(diff, (len(drawn), len(diff))), drawn], axis=1)
            vals = np.concatenate(
                [np.broadcast_to(self._neg[s, diff], (len(drawn), len(diff))), self._ones[s::k]], axis=1
            )
            miss = vals != neg[cols]
            miss[:, : len(diff)] &= (diff != drawn[:, :1]) & (diff != drawn[:, 1:])
            hit = (miss.sum(axis=1) == 2) & ((vals == one_minus[cols]) | ~miss).all(axis=1)
            pair = cols[hit][miss[hit]].reshape(-1, 2)
            keys.append(pair.min(axis=1) * n + pair.max(axis=1))
        return np.concatenate(keys)


def _zero_ranks(b: np.ndarray) -> np.ndarray:
    """Per zero byte of ``b``, the nonzero bytes before it.

    The nonzero byte of rank v is byte v + searchsorted(ranks, v, "right").
    """
    zeros = np.flatnonzero(b == 0)
    return zeros - np.arange(len(zeros))


def _raw_draws(bitgen, start: int, stop: int, snapshots: list | None = None):
    """``bitgen.random_raw`` words that give values ``start`` to ``stop``, a draw at a time.

    NumPy draws each value of ``integers(0, 3, dtype=np.uint8)`` from the
    next byte b of its 32-bit outputs, low byte first, as
    (3b) >> 8 = (b > 85) + (b > 170), rejecting b = 0; a 64-bit generator
    gives the low half of a word first and buffers the high half
    (``has_uint32``, ``uinteger``).  A draw is _RAW_WORDS words, never more
    than the values still owed could use, and if the last value comes from
    a word's low half, the high half is left buffered, so the generator is
    left as NumPy leaves it.  A draw is yielded uncompacted, as (value
    offset, bytes, ``_zero_ranks``).  ``snapshots`` gets (value offset,
    state) before each draw.
    """
    while start < stop:
        if snapshots is not None:
            snapshots.append((start, bitgen.state))
        owed = stop - start
        words = bitgen.random_raw(min(_RAW_WORDS, -(-owed // 8)))
        b = words.astype("<u8", copy=False).view(np.uint8)
        ranks = _zero_ranks(b)
        if len(b) - len(ranks) - np.count_nonzero(b[-4:]) >= owed:
            state = bitgen.state
            state["has_uint32"], state["uinteger"] = 1, int(words[-1]) >> 32
            bitgen.state = state
        yield start, b, ranks
        start += len(b) - len(ranks)


class _UniformRows:
    """The rows of ``rng.integers(0, 3, size=(m, n), dtype=np.uint8)``, drawn once and rebuilt on demand.

    The rows are drawn from raw generator words by ``_raw_draws``, and
    ``rng`` is left as ``integers`` leaves it.  Only the values of each
    row's first max(_LEAD, _KEY_COLS) columns are located and mapped, and
    its first _LEAD columns (``lead``) and ``_lead_keys`` (``keys``) kept,
    with the generator's state and value offset at each draw: about 24
    bytes a row against n.  Rows are rebuilt by replaying their draws from
    those states on a bit generator of the block's own.  MT19937, which
    has no buffered half word, is refused.
    """

    def __init__(self, rng: np.random.Generator, m: int, n: int):
        bitgen = rng.bit_generator
        state = bitgen.state
        if "has_uint32" not in state:
            raise ValueError(f"uniform rows need a 64-bit bit generator, got {state['bit_generator']}")
        self.shape = (m, n)
        self._kind = type(bitgen)
        b = np.zeros(0, dtype=np.uint8)
        snapshots = []
        if m * n and state["has_uint32"]:  # NumPy reads the buffered half word first
            b = np.array([state["uinteger"]], dtype="<u4").view(np.uint8)
            snapshots.append((0, None))
            state["has_uint32"] = 0
            bitgen.state = state
        self._head = (0, b, _zero_ranks(b))  # draw 0 when its state is None, else no values
        lead = np.empty((m, min(n, max(_LEAD, _KEY_COLS))), dtype=np.uint8)
        starts, cols = np.arange(m) * n, np.arange(lead.shape[1])
        for draw in itertools.chain([self._head], _raw_draws(bitgen, len(b) - len(self._head[2]), m * n, snapshots)):
            self._fill(draw, starts, cols, lead)
        lead = np.add(lead > 85, lead > 170, dtype=np.uint8)  # (3b) >> 8
        self.lead = np.ascontiguousarray(lead[:, :_LEAD])
        self.keys = _lead_keys(lead)
        self._offsets = np.array([offset for offset, _ in snapshots], dtype=np.int64)
        self._states = [s for _, s in snapshots]

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, key) -> np.ndarray:
        rows, inverse = np.unique(np.arange(len(self))[key], return_inverse=True)
        return self._build(rows)[inverse]

    @staticmethod
    def _fill(draw, starts: np.ndarray, cols: np.ndarray, out: np.ndarray) -> None:
        """Copy into ``out`` the bytes of ``draw`` giving columns ``cols`` (0, 1, ...) of each row.

        Row k starts at value offset ``starts[k]``, ascending; values in other draws are left as they are.
        """
        start, b, ranks = draw
        stop = start + len(b) - len(ranks)
        lo, hi = np.searchsorted(starts, [start - len(cols), stop - 1], side="right")
        at = (starts[lo:hi, None] + cols).ravel()
        i, j = np.searchsorted(at, [start, stop])
        at = at[i:j] - start
        out[lo:hi].reshape(-1)[i:j] = b[at + np.searchsorted(ranks, at, side="right")]

    def _draw(self, s: int):
        """Draw ``s`` again, from the state kept before it."""
        if self._states[s] is None:
            return self._head
        bitgen = self._kind(0)
        bitgen.state = self._states[s]
        return next(_raw_draws(bitgen, int(self._offsets[s]), self.shape[0] * self.shape[1]))

    def _build(self, rows: np.ndarray) -> np.ndarray:
        """Rows ``rows``, ascending and distinct, replaying once each draw that holds their values.

        A replayed draw gives its part of every row through ``_fill``, as
        the first pass gives each row's lead columns.
        """
        n = self.shape[1]
        out = np.empty((len(rows), n), dtype=np.uint8)
        starts, cols, at, done = rows * n, np.arange(n), 0, 0
        while done < len(rows) and n:  # rows before ``done`` are complete, values before ``at`` read
            draw = self._draw(np.searchsorted(self._offsets, max(at, starts[done]), side="right") - 1)
            self._fill(draw, starts, cols, out)
            at = draw[0] + len(draw[1]) - len(draw[2])  # past the draw's last value
            done = int(np.searchsorted(starts, at - n, side="right"))
        return np.add(out > 85, out > 170, dtype=np.uint8)


_LAZY_BLOCKS = (_NearSphereRows, _UniformRows)


def _as_block(block, n: int):
    """A 2-D array through ``as_matrix``; a lazy block as it is, once its width is checked."""
    if not isinstance(block, _LAZY_BLOCKS):
        return as_matrix(block, n)
    if block.shape[1] != n:
        raise ValueError(f"expected shape (*, {n}), got {block.shape}")
    return block


def _row_blocks(rows, n: int) -> list:
    """A list or tuple of row blocks as its blocks; any other collection as one block.

    A block is a 2-D array, a near-sphere block from ``_random_near_sphere``
    or a uniform block.
    """
    if isinstance(rows, (list, tuple)) and rows and all(
        isinstance(b, _LAZY_BLOCKS) or np.ndim(b) == 2 for b in rows
    ):
        return [_as_block(b, n) for b in rows]
    return [as_matrix(rows, n)]


def _gather(blocks: list, idx: np.ndarray) -> np.ndarray:
    """Rows ``idx`` of the blocks' concatenation, copied out of their blocks."""
    starts = np.cumsum([0] + [len(b) for b in blocks[:-1]])
    which = np.searchsorted(starts, idx, side="right") - 1
    out = np.empty((len(idx), blocks[0].shape[1]), dtype=np.uint8)
    for b, block in enumerate(blocks):
        sel = which == b
        out[sel] = block[idx[sel] - starts[b]]
    return out


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable sort order of ``values`` and, in that order, a mask of each run's first entry."""
    order = np.argsort(values, kind="stable")
    head = np.ones(len(values), dtype=bool)
    np.not_equal(values[order[1:]], values[order[:-1]], out=head[1:])
    return order, head


def _first_occurrences(blocks: list) -> np.ndarray:
    """Mask of the rows of the blocks' concatenation that repeat no earlier row.

    A row whose ``_lead_keys`` no other row has repeats none.  Rows of
    shared keys are grouped by fingerprint; a row whose group head (its
    earliest row) has equal bytes is a repeat, and groups holding distinct
    rows with one fingerprint are settled by bytes.  Lazy blocks give
    their keys, and a near-sphere block its fingerprints, without building
    a row; other rows of shared keys are fingerprinted a chunk at a time.
    Only keys and fingerprints are concatenated: the rows compared are
    gathered from their blocks.
    """
    m = sum(len(b) for b in blocks)
    keep = np.ones(m, dtype=bool)
    if m <= 1:
        return keep
    order, head = _runs(np.concatenate([b.keys if isinstance(b, _LAZY_BLOCKS) else _lead_keys(b) for b in blocks]))
    rows = np.sort(order[~(head & np.append(head[1:], True))])  # rows of shared keys, in order
    if not len(rows):
        return keep
    weights = _fingerprint_weights(blocks[0].shape[1])
    starts = np.cumsum([0] + [len(b) for b in blocks])
    fp = []
    for b, lo, hi in zip(blocks, starts, starts[1:]):
        idx = rows[np.searchsorted(rows, lo) : np.searchsorted(rows, hi)] - lo
        if isinstance(b, _NearSphereRows):
            fp.append(b.fingerprints(idx, weights))
        else:
            fp += [_row_fingerprints(b[idx[i : i + _HIT_CHUNK]], weights) for i in range(0, len(idx), _HIT_CHUNK)]
    fp = np.concatenate(fp)
    order, head = _runs(fp)
    if head.all():
        return keep
    first = rows[order[np.maximum.accumulate(np.where(head, np.arange(len(fp)), 0))]]
    later = rows[order[~head]]
    same = (_gather(blocks, later) == _gather(blocks, first[~head])).all(axis=1)
    keep[later[same]] = False
    if not same.all():
        seen: set[bytes] = set()
        clash = rows[np.isin(fp, fp[order[~head]][~same])]
        for i, row in zip(clash, map(bytes, _gather(blocks, clash))):
            keep[i] = row not in seen
            seen.add(row)
    return keep


def _dedupe_rows(mat: np.ndarray) -> np.ndarray:
    """Distinct rows, first occurrence first."""
    keep = _first_occurrences([mat])
    return mat if keep.all() else mat[keep]


def _overlap_counts(xmat: np.ndarray, Y, n: int) -> tuple[int, int]:
    """(distinct rows of Y, |(X + Y) & S_2|) for the distinct rows ``xmat`` of X, Y read by ``_row_blocks``."""
    yblocks = _row_blocks(Y, n)
    y_size = _distinct_count(yblocks)
    return y_size, (_two_sphere_hits(xmat, yblocks, n) if len(xmat) and y_size else 0)


def _distinct_count(blocks: list) -> int:
    # repeated rows add no sums, so the large side is counted, not copied
    return int(np.count_nonzero(_first_occurrences(blocks)))


def _two_sphere_hits(xmat: np.ndarray, yblocks: list, n: int) -> int:
    """|(X + Y) & S_2|: distinct sums that are 0-1 of weight 2, Y read block by block.

    Each hit x + y = e_i + e_j is keyed by its support pair (i, j): the
    two coordinates where y mismatches -x, both with y = 1 - x there.
    One np.unique over the keys of every block counts each pair once.
    A near-sphere block gives its keys from its shifts and draws.  A
    uniform block gives the first _LEAD columns it stored when drawn, an
    array block a view of its own.  Only the rows they leave in play are
    gathered in full.
    """
    lead = min(_LEAD, n)
    keys = []
    for ymat in yblocks:
        if isinstance(ymat, _NearSphereRows):
            keys += [ymat.hit_keys(x) for x in xmat]
            continue
        ylead = ymat.lead if isinstance(ymat, _UniformRows) else ymat[:, :lead]
        for x in xmat:
            neg, one_minus = _NEG3[x], _ONE_MINUS[x]
            near = np.flatnonzero(np.count_nonzero(ylead != neg[:lead], axis=1) <= 2)
            for lo in range(0, len(near), _HIT_CHUNK):
                block = ymat[near[lo : lo + _HIT_CHUNK]]
                flat = np.flatnonzero(block != neg)
                row, col = np.divmod(flat, n)
                pair = np.bincount(row, minlength=len(block))[row] == 2
                ones = (block.ravel()[flat] == one_minus[col])[pair].reshape(-1, 2).all(axis=1)
                cols = col[pair].reshape(-1, 2)[ones]
                keys.append(cols[:, 0] * n + cols[:, 1])
    return len(np.unique(np.concatenate(keys))) if keys else 0


@dataclass(frozen=True)
class OverlapCheck:
    """Fixed-fraction capture bound |(X+Y) & S_2| <= n^2 / 50.

    Claimed when X has at most n/2^10 elements, Y at most n^2/100, and
    n >= OVERLAP_MIN_N; smaller instances are evaluated and reported
    with the corresponding flag cleared.
    """

    n: int
    x_size: int
    y_size: int
    lhs: int
    bound: float
    hypotheses_ok: bool
    n_large_enough: bool
    holds: bool


def check_sphere_overlap(X, Y, n: int) -> OverlapCheck:
    """The fixed-fraction check; Y may be a list or tuple of row blocks, read joined.

    A block is a 2-D array or one of the uniform and near-sphere blocks of
    ``overlap_trial``, whose rows are built on demand; the rows of Y are
    never joined.
    """
    xmat = _dedupe_rows(as_matrix(X, n))
    y_size, lhs = _overlap_counts(xmat, Y, n)
    hyp = (SMALL_SET_DIVISOR * len(xmat) <= n) and (100 * y_size <= n * n)
    return OverlapCheck(
        n=n,
        x_size=len(xmat),
        y_size=y_size,
        lhs=lhs,
        bound=n * n / 50.0,
        hypotheses_ok=hyp,
        n_large_enough=n >= OVERLAP_MIN_N,
        holds=50 * lhs <= n * n,
    )


@dataclass(frozen=True)
class OverlapRefinedCheck:
    """Pair-count capture bound, valid at every n.

    |(A+B) & S_2| <= C(n,2) - C(n-|A|,2) + |B| <= n|A| + |B| whenever
    |A| <= n/2^10 (enforced).
    """

    n: int
    a_size: int
    b_size: int
    lhs: int
    pair_bound: int
    linear_bound: int
    holds: bool


def check_sphere_overlap_general(A, B, n: int) -> OverlapRefinedCheck:
    """The pair-count check; B may be a list or tuple of row blocks, read as in ``check_sphere_overlap``."""
    amat = _dedupe_rows(as_matrix(A, n))
    if SMALL_SET_DIVISOR * len(amat) > n:
        raise ValueError(
            f"|A| = {len(amat)} exceeds n/{SMALL_SET_DIVISOR} = {n / SMALL_SET_DIVISOR}"
        )
    b, lhs = _overlap_counts(amat, B, n)
    a = len(amat)
    pair_bound = math.comb(n, 2) - math.comb(n - a, 2) + b
    linear_bound = n * a + b
    return OverlapRefinedCheck(
        n=n,
        a_size=a,
        b_size=b,
        lhs=lhs,
        pair_bound=pair_bound,
        linear_bound=linear_bound,
        holds=lhs <= pair_bound <= linear_bound,
    )


def _random_near_sphere(rng: np.random.Generator, count: int, n: int, shifts: np.ndarray) -> _NearSphereRows:
    """Rows of the form s - x: s random in S_2, x cycling over ``shifts``, built on demand.

    Sums with the matching shift land back in S_2, so overlap checks on
    these sets exercise the nontrivial region instead of counting zeros.
    """
    cols = rng.integers(0, n, size=(count, 2))
    while (resample := cols[:, 0] == cols[:, 1]).any():
        cols[resample, 1] = rng.integers(0, n, size=int(resample.sum()))
    return _NearSphereRows(shifts, cols)


def _trial_sets(n: int, x_size: int, y_size: int, rng: np.random.Generator) -> tuple[np.ndarray, list]:
    """A random X, then Y as ``y_size - y_size // 2`` uniform rows and ``y_size // 2`` near-sphere rows shifted by X.

    The draws run in that order.  With X empty, all ``y_size`` rows are
    uniform.  Y is two lazy blocks, the uniform block keeping lead keys
    and lead columns and the near-sphere block its shifts and draws, so a
    trial holds no row of Y.
    """
    xmat = rng.integers(0, 3, size=(x_size, n), dtype=np.uint8)
    near = y_size // 2 if x_size else 0
    uniform = _UniformRows(rng, y_size - near, n)
    return xmat, [uniform, _random_near_sphere(rng, near, n, xmat)] if near else [uniform]


def overlap_trial(n: int, x_size: int, y_size: int, rng: np.random.Generator) -> OverlapCheck:
    """One seeded fixed-fraction check: random X, Y as a uniform and a near-sphere block.

    ``rng`` needs a 64-bit bit generator, as ``_UniformRows`` draws Y's uniform rows.
    """
    return check_sphere_overlap(*_trial_sets(n, x_size, y_size, rng), n)


def overlap_refined_trial(n: int, a_size: int, b_size: int, rng: np.random.Generator) -> OverlapRefinedCheck:
    """One seeded pair-count check: random A, B as a uniform and a near-sphere block.

    ``rng`` needs a 64-bit bit generator, as in ``overlap_trial``.
    """
    return check_sphere_overlap_general(*_trial_sets(n, a_size, b_size, rng), n)
