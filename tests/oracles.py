"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written against different algorithms
than the package: segmented sieving instead of a flat sieve, exhaustive
subset search instead of branch and bound, plain tuple arithmetic
instead of numpy.
The overlap kernels keep their first numpy form: full-width sums and
whole-row byte hashing, the exact search keeps its first
lexicographic pass, which recomputes its state at every node, the
lex-least pair of each target keeps its per-target scan, the sphere
cover check edits each -b at the target's support, the factorial
check walks the multiples of each prime on its own, the interval
witnesses come from trial-division divisors, the sphere report keeps
its first vector-keyed counters, the end-to-end pipeline keeps its
first dense vectors, its key rows and join keep their tuple forms, and
so do the valuation rows and their sums mod q.  Slow and obviously correct
beats fast.  ``traced_peak`` measures what a run allocates, for the
tests that bound it.  ``component_analysis`` is no reference: it reads
edge triples into the vertex ids that ``certificates._analyze_components``
takes.
"""

from __future__ import annotations

import itertools
import math
import operator
import tracemalloc
from collections import Counter
from dataclasses import dataclass

import numpy as np


# ------------------------------------------------------------ memory


def traced_peak(run) -> int:
    """Bytes ``run()`` allocates at its peak beyond what was traced before it."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


# ------------------------------------------------------------ primes


def primes_segmented(limit: int, segment: int = 1 << 15) -> list:
    """All primes <= limit by segmented sieving over fixed-width windows."""
    if limit < 2:
        return []
    root = math.isqrt(limit)
    base = []
    flags = bytearray(root + 1)
    for i in range(2, root + 1):
        if not flags[i]:
            base.append(i)
            for j in range(i * i, root + 1, i):
                flags[j] = 1
    out = list(base)
    lo = root + 1
    while lo <= limit:
        hi = min(lo + segment - 1, limit)
        win = bytearray(hi - lo + 1)
        for p in base:
            start = ((lo + p - 1) // p) * p
            for j in range(start, hi + 1, p):
                win[j - lo] = 1
        out.extend(i + lo for i, f in enumerate(win) if not f)
        lo = hi + 1
    return out


def is_prime_trial(x: int) -> bool:
    if x < 2:
        return False
    d = 2
    while d * d <= x:
        if x % d == 0:
            return False
        d += 1
    return True


def is_strong_probable_prime(n: int, bases) -> bool:
    """n > max(bases) passes the strong Fermat test to every base."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
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


def valuation_loop(p: int, x: int) -> int:
    f = 0
    while x % p == 0:
        x //= p
        f += 1
    return f


def csr_tuples(offsets, cols, res) -> list:
    """Rows held as ``numtheory.csr_rows`` arrays, as tuples of (column, residue) pairs."""
    entries = list(zip(cols.tolist(), res.tolist()))
    return [tuple(entries[a:b]) for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist())]


def valuation_rows(values, table, primes, q: int) -> list:
    """``numtheory.valuation_csr``'s rows as tuples of (column, residue) pairs."""
    from mulbasis.numtheory import valuation_csr

    return csr_tuples(*valuation_csr(values, table, primes, q))


def add_rows(a: tuple, b: tuple, q: int) -> tuple:
    """The sparse row of a + b over F_q."""
    out = dict(a)
    for i, c in b:
        s = (out.get(i, 0) + c) % q
        if s:
            out[i] = s
        else:
            del out[i]
    return tuple(sorted(out.items()))


def largest_prime_factor_trial(x: int) -> int:
    """The largest prime factor of x >= 1 by trial division; 1 for x = 1."""
    largest, d = 1, 2
    while d * d <= x:
        while x % d == 0:
            largest, x = d, x // d
        d += 1
    return x if x > 1 else largest


# ------------------------------------------------------ product sets


def smallest_witness_pair(target: int, basis) -> tuple | None:
    """Lexicographically least (b1, b2), b1 <= b2, with b1*b2 = target."""
    best = None
    bset = set(basis)
    for b1 in sorted(bset):
        if target % b1 == 0 and target // b1 in bset and b1 * b1 <= target:
            pair = (b1, target // b1)
            if best is None or pair < best:
                best = pair
    return best


def _divisors(x: int) -> set:
    out = set()
    d = 1
    while d * d <= x:
        if x % d == 0:
            out.add(d)
            out.add(x // d)
        d += 1
    return out


def min_basis_exhaustive(targets, size_cap: int = 16) -> tuple:
    """Smallest multiplicative cover by exhaustive subset search.

    Any useful basis element divides a target, so the divisor union is a
    complete candidate pool.  A target with a single factor pair forces
    both members of that pair into every cover; the exhaustive scan then
    runs over subsets of the residual pool only, smallest size first.

    Combinations come in lexicographic order, so the basis is the
    lexicographically least one of the least size.

    Returns (size, basis-frozenset).
    """
    targets = sorted(set(targets))
    if not targets:
        return 0, frozenset()
    pair_lists = {}
    forced = set()
    for t in targets:
        pairs = [(d, t // d) for d in sorted(_divisors(t)) if d * d <= t]
        pair_lists[t] = pairs
        if len(pairs) == 1:
            forced.update(pairs[0])
    remaining = []
    for t in targets:
        needed = [frozenset(p) - forced for p in pair_lists[t]]
        if not any(len(n) == 0 for n in needed):
            remaining.append(needed)
    pool = sorted(set().union(*[set().union(*n) for n in remaining]) if remaining else set())
    for k in range(0, len(pool) + 1):
        if len(forced) + k > size_cap:
            break
        for combo in itertools.combinations(pool, k):
            chosen = set(combo)
            if all(any(n <= chosen for n in needs) for needs in remaining):
                return len(forced) + k, frozenset(forced | chosen)
    raise RuntimeError("size cap exceeded")


def mbp_exhaustive(M: int, a_max: int, d_max: int) -> int:
    """Minimum exhaustive-search basis size over the progression grid.

    Once a size is known, each later progression is scanned only up to
    one below it: a scan that passes that cap cannot lower the minimum.
    """
    best = None
    for a in range(0, a_max + 1):
        for d in range(1, d_max + 1):
            targets = [a + m * d for m in range(1, M + 1)]
            if best is None:
                best, _ = min_basis_exhaustive(targets)
                continue
            try:
                best, _ = min_basis_exhaustive(targets, size_cap=best - 1)
            except RuntimeError:  # no cover smaller than best
                pass
    return best


def _min_additions(s: int, r: int) -> int:
    t = 0
    cap = 0
    while cap < r:
        t += 1
        cap += s + t
    return t


def least_cover_reference(targets, pairs, bound: int, budget: int = 2_000_000):
    """The first pass of ``exact_min_basis_reference``: a cover smaller than ``bound``.

    ``pairs`` maps each target to the pairs (b, c) that cover it.  Every
    node rebuilds the uncovered list from every target's pairs, branches
    on the uncovered target with the fewest pairs and prunes by the
    pair-counting bound.  Returns the smallest cover found, or None, and
    the node count, which passes ``budget`` when the search ran out.
    """
    best = None
    nodes = 0
    exhausted = False

    def covered(a, basis):
        return any(b in basis and c in basis for b, c in pairs[a])

    def dfs(basis):
        nonlocal best, bound, nodes, exhausted
        if exhausted:
            return
        nodes += 1
        if nodes > budget:
            exhausted = True
            return
        unc = [a for a in targets if not covered(a, basis)]
        if not unc:
            if len(basis) < bound:
                bound = len(basis)
                best = tuple(sorted(basis))
            return
        if len(basis) + _min_additions(len(basis), len(unc)) >= bound:
            return
        branch = min(unc, key=lambda a: (len(pairs[a]), a))
        for b, c in pairs[branch]:
            new = {b, c} - basis
            basis |= new
            dfs(basis)
            basis -= new
            if exhausted:
                return

    dfs(set())
    return best, nodes


def exact_min_basis_reference(A, pool=None, budget: int = 2_000_000):
    """``productsets.exact_min_basis`` as first written.

    Its second pass is a depth-first search over the ascending pool,
    including each element before excluding it, that rebuilds the chosen
    set, the feasibility test and the uncovered list at every node.  The
    package must return the same size and optimality flag, and without a
    budget the same basis; it fixes that basis by other searches, so its
    node count differs.
    """
    from mulbasis.productsets import BasisSolution, first_uncovered

    targets = sorted(set(A))
    if not targets:
        raise ValueError("exact_min_basis needs a nonempty target set")
    if targets[0] < 1:
        raise ValueError("targets must be positive")
    if pool is None:
        pool_set = set()
        for a in targets:
            pool_set |= _divisors(a)
    else:
        pool_set = set(int(b) for b in pool)
        if pool_set and min(pool_set) < 1:
            raise ValueError("pool elements must be positive")
    pool_sorted = sorted(pool_set)

    pairs = {}
    for a in targets:
        opts = [
            (d, a // d)
            for d in range(1, math.isqrt(a) + 1)
            if a % d == 0 and d in pool_set and a // d in pool_set
        ]
        if not opts:
            raise ValueError(f"target {a} has no factor pair inside the pool")
        pairs[a] = opts

    def covered(a, basis):
        return any(b in basis and c in basis for b, c in pairs[a])

    inc = set()
    for a in targets:
        inc.update(pairs[a][0])
    found, nodes = least_cover_reference(targets, pairs, len(inc), budget)
    best = found or tuple(sorted(inc))
    best_size = len(best)
    proven = nodes <= budget
    exhausted = not proven

    if proven:
        found = None

        def dfs_lex(i, chosen, unc):
            nonlocal nodes, exhausted, found
            if exhausted or found is not None:
                return
            nodes += 1
            if nodes > budget:
                exhausted = True
                return
            if not unc:
                found = tuple(chosen)
                return
            r = best_size - len(chosen)
            if r <= 0 or _min_additions(len(chosen), len(unc)) > r or i >= len(pool_sorted):
                return
            lo = pool_sorted[i]
            cset = set(chosen)
            for a in unc:
                if not any(
                    (b in cset or b >= lo) and (c in cset or c >= lo) for b, c in pairs[a]
                ):
                    return
            x = pool_sorted[i]
            chosen.append(x)
            cset.add(x)
            dfs_lex(i + 1, chosen, [a for a in unc if not covered(a, cset)])
            chosen.pop()
            if found is None and not exhausted:
                dfs_lex(i + 1, chosen, unc)

        dfs_lex(0, [], list(targets))
        if found is not None:
            best = found

    gap = first_uncovered(targets, best)
    if gap is not None:
        raise AssertionError(f"search produced a non-cover, uncovered {gap}")
    return BasisSolution(basis=best, optimal=proven, nodes_explored=nodes)


# ------------------------------------------------------ divisibility


def factorial_divisibility_check_reference(u: int, v: int, M: int, table):
    """``reduction.factorial_divisibility_check`` as first written.

    The package must return an equal ``FactorialCheck`` and raise the
    same ``ValueError``s.  Here every term is trial-divided on its own
    for its largest prime, and each prime p < M re-walks its multiples
    with ``valuation`` to find its maximizer.
    """
    from mulbasis.numtheory import valuation
    from mulbasis.reduction import FactorialCheck

    if M < 1:
        raise ValueError("M must be positive")
    if u < 1 or v < 1:
        raise ValueError("u and v must be positive")
    if math.gcd(u, v) != 1:
        raise ValueError(f"gcd(u, v) = {math.gcd(u, v)}, expected 1")
    top = u + M * v
    if table.limit < top:
        raise ValueError(f"prime table limit {table.limit} below largest term {top}")
    terms = {m: u + m * v for m in range(1, M + 1)}
    marked = frozenset(
        m for m, t in terms.items() if largest_prime_factor_trial(t) >= M
    )
    exceptional: dict[int, int] = {}
    for p in (int(x) for x in table.primes_in(2, M - 1)) if M > 2 else ():
        if v % p == 0:
            continue  # p never divides u + m*v when gcd(u, v) = 1
        start = (-u * pow(v, -1, p)) % p
        if start == 0:
            start = p
        best_m, best_val = 0, 0
        for m in range(start, M + 1, p):
            val = valuation(p, terms[m])
            if val > best_val:
                best_m, best_val = m, val
        if best_val >= 1:
            exceptional[p] = best_m
    skip = set(marked) | set(exceptional.values())
    surviving = tuple(m for m in range(1, M + 1) if m not in skip)
    product = math.prod(terms[m] for m in surviving)
    divides = math.factorial(M - 1) % product == 0
    return FactorialCheck(
        u=u,
        v=v,
        M=M,
        marked_large=marked,
        exceptional=exceptional,
        surviving=surviving,
        divides=divides,
    )


# ------------------------------------------------------ ternary spheres


@dataclass(frozen=True, order=True)
class TernaryVector:
    """A reference vector over F_3: one coordinate per byte, lex-ordered, hashable.

    The package holds vectors as uint8 rows.  Iteration and ``len`` give
    the coordinates, so the package reads this as a coordinate sequence.
    """

    coords: bytes

    def __post_init__(self):
        if self.coords.translate(None, b"\x00\x01\x02"):
            raise ValueError("coordinates must lie in {0, 1, 2}")

    @property
    def n(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    @classmethod
    def from_coords(cls, values) -> "TernaryVector":
        return cls(bytes(int(v) % 3 for v in values))

    @classmethod
    def from_support(cls, n: int, support) -> "TernaryVector":
        buf = bytearray(n)
        for i in support:
            buf[i] = 1
        return cls(bytes(buf))

    @classmethod
    def zero(cls, n: int) -> "TernaryVector":
        return cls(bytes(n))

    def __add__(self, other: "TernaryVector") -> "TernaryVector":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return TernaryVector(bytes((a + b) % 3 for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "TernaryVector":
        return self.scale(2)

    def __sub__(self, other: "TernaryVector") -> "TernaryVector":
        return self + -other

    def scale(self, c: int) -> "TernaryVector":
        return TernaryVector(bytes(c * a % 3 for a in self.coords))

    def weight(self) -> int:
        return self.n - self.coords.count(0)

    def support(self) -> tuple:
        return tuple(i for i, c in enumerate(self.coords) if c)

    def is_zero_one(self) -> bool:
        return 2 not in self.coords

    def project(self, indices) -> "TernaryVector":
        return TernaryVector(bytes(self.coords[i] for i in indices))


def sphere_tuples(n: int, k: int) -> list:
    out = []
    for support in itertools.combinations(range(n), k):
        v = [0] * n
        for i in support:
            v[i] = 1
        out.append(tuple(v))
    return out


def sphere_vectors(n: int, k: int) -> list:
    """All 0-1 vectors of weight k as ``TernaryVector``s, in lexicographic order of support."""
    if k > n:
        raise ValueError(f"weight {k} exceeds dimension {n}")
    return [TernaryVector(bytes(t)) for t in sphere_tuples(n, k)]


def diff_mod3(a, b) -> tuple:
    return tuple((x - y) % 3 for x, y in zip(a, b))


def case_of(d) -> str:
    ones, twos = d.count(1), d.count(2)
    if ones == 0 and twos == 0:
        return "zero"
    if ones == 3 and twos == 3:
        return "case1"
    if ones == 2 and twos == 2:
        return "case2"
    if ones == 1 and twos == 1:
        return "case3"
    return "other"


def count_diff_brute(d, n: int) -> int:
    sphere = sphere_tuples(n, 3)
    return sum(1 for a in sphere for b in sphere if diff_mod3(a, b) == tuple(d))


def census_brute(n: int) -> dict:
    """Per-case sets of observed per-difference counts, plus the total."""
    sphere = sphere_tuples(n, 3)
    per_diff = Counter(diff_mod3(a, b) for a in sphere for b in sphere)
    cases = {}
    for d, c in per_diff.items():
        cases.setdefault(case_of(d), set()).add(c)
    return {"cases": cases, "total": sum(per_diff.values())}


def sphere_min_brute(n: int) -> tuple:
    """Exact sphere-cover minimum by depth-first subset search, n <= 4.

    Pair hit masks are precomputed; the first element of a candidate set
    is restricted to coordinate-permutation orbit minima.  Sizes are
    tried in increasing order, so the first hit is the minimum.

    Returns (size, basis as tuple of coordinate tuples).
    """
    if n > 4:
        raise ValueError("brute force capped at n = 4")
    targets = sphere_tuples(n, 3)
    if not targets:
        return 0, ()
    vectors = list(itertools.product(range(3), repeat=n))
    index = {v: i for i, v in enumerate(vectors)}
    tmask = {t: 1 << j for j, t in enumerate(targets)}
    full = (1 << len(targets)) - 1
    nv = len(vectors)
    pair_mask = [[0] * nv for _ in range(nv)]
    for i in range(nv):
        for j in range(i, nv):
            s = tuple((x + y) % 3 for x, y in zip(vectors[i], vectors[j]))
            m = tmask.get(s, 0)
            pair_mask[i][j] = m
            pair_mask[j][i] = m
    perms = list(itertools.permutations(range(n)))
    roots = [
        i
        for i, v in enumerate(vectors)
        if all(v <= tuple(v[p] for p in perm) for perm in perms)
    ]

    def extend(chosen, mask, start, depth):
        if mask == full:
            return list(chosen)
        if depth == 0:
            return None
        for i in range(start, nv):
            add = pair_mask[i][i]
            for c in chosen:
                add |= pair_mask[c][i]
            if add | mask == mask and depth == 1:
                continue
            got = extend(chosen + [i], mask | add, i + 1, depth - 1)
            if got is not None:
                return got
        return None

    lower = 1
    while lower * (lower + 1) // 2 < len(targets):
        lower += 1
    for k in range(lower, len(targets) + 2):
        for r in roots:
            got = extend([r], pair_mask[r][r], r + 1, k - 1)
            if got is not None:
                return k, tuple(vectors[i] for i in got)
    raise RuntimeError("unreachable: construction bounds the minimum")


# ------------------------------------------------------ sphere covers

# negation mod 3, one byte per coordinate
_NEGATE = bytes.maketrans(b"\x01\x02", b"\x02\x01")


def lex_least_pairs(vecs, targets, n: int):
    """Yield, per target t in the order given, the pair (b1, t - b1) with
    b1 the lex-least element of ``vecs`` whose partner is in ``vecs`` too,
    or None when no pair sums to t.

    ``vecs`` must be lex-sorted.  Each target subtracts the basis rows in
    chunks of 256 and looks the differences up by their bytes, stopping at
    the first hit; the cost is O(|B| * n) per target at worst.
    """
    from mulbasis.spherelab import as_matrix

    vset = {v.coords for v in vecs}
    bmat = as_matrix(vecs, n).astype(np.int16)
    chunk = 256
    for t in targets:
        trow = np.frombuffer(t.coords, dtype=np.uint8).astype(np.int16)
        hit = None
        for lo in range(0, len(vecs), chunk):
            diff = ((trow - bmat[lo : lo + chunk]) % 3).astype(np.uint8)
            buf = diff.tobytes()
            for i in range(diff.shape[0]):
                partner = buf[i * n : (i + 1) * n]
                if partner in vset:
                    hit = (vecs[lo + i], TernaryVector(partner))
                    break
            if hit is not None:
                break
        yield hit


def sphere_cover_verify_bytes(B, n: int, k: int = 3):
    """(covered, witness, first uncovered target) of S_k(n) in B + B, by byte edits.

    The witness maps each target before the first gap, in support order,
    to its lex-least pair (b, t - b).  -b is made once per sorted basis
    row with a byte table.  Per target, walk the basis and test whether
    t - b, which is -b raised by one at the target's k support
    coordinates, is a row.
    """
    basis = sorted(set(B))
    targets = sphere_vectors(n, k)
    if not targets:
        return True, {}, None
    if not basis:
        return False, {}, targets[0]
    if any(v.n != n for v in basis):
        raise ValueError("basis vector dimension mismatch")
    bset = {v.coords for v in basis}
    negated = [v.coords.translate(_NEGATE) for v in basis]
    witness = {}
    for t in targets:
        support = [i for i, x in enumerate(t.coords) if x]
        hit = None
        for b, neg in zip(basis, negated):
            d = bytearray(neg)
            for i in support:
                d[i] = (d[i] + 1) % 3
            d = bytes(d)
            if d in bset:
                hit = (b, TernaryVector(d))
                break
        if hit is None:
            return False, witness, t
        witness[t] = hit
    return True, witness, None


# ------------------------------------------------------ overlap kernels

# residues of x + y for single coordinates in {0, 1, 2}
_MOD3 = np.array([0, 1, 2, 0, 1], dtype=np.uint8)


def dedupe_rows_bytes(mat):
    """Distinct rows, first occurrence first, by hashing each row's bytes."""
    if mat.shape[0] <= 1:
        return mat
    n = mat.shape[1]
    buf = mat.tobytes()
    seen = set()
    keep = []
    for i in range(mat.shape[0]):
        row = buf[i * n : (i + 1) * n]
        if row not in seen:
            seen.add(row)
            keep.append(i)
    return mat if len(keep) == mat.shape[0] else mat[keep]


def two_sphere_hits_full(xmat, ymat, n: int) -> int:
    """|(X + Y) & S_2| from every full sum row x + y mod 3."""
    seen = set()
    for x in xmat:
        s = _MOD3[ymat + x]  # entries of x + y are at most 4
        good = ~(s == 2).any(axis=1) & ((s == 1).sum(axis=1) == 2)
        if good.any():
            rows = s[good]
            buf = rows.tobytes()
            for j in range(rows.shape[0]):
                seen.add(buf[j * n : (j + 1) * n])
    return len(seen)


def row_fingerprints_matmul(mat, weights):
    """``spherelab._row_fingerprints`` as first written: a matmul of the 8-byte word view."""
    m, n = mat.shape
    words = n // 8
    fp = mat[:, : 8 * words].view(np.uint64) @ weights[:words] if words else np.zeros(m, dtype=np.uint64)
    if n % 8:
        fp += mat[:, 8 * words :].astype(np.uint64) @ weights[words:]
    return fp


def sphere_hit_keys_full(x, ymat, n: int):
    """Sorted keys i * n + j, i < j, one per row y of ``ymat`` with x + y = e_i + e_j."""
    s = _MOD3[ymat + x]
    good = ~(s == 2).any(axis=1) & ((s == 1).sum(axis=1) == 2)
    cols = np.nonzero(s[good])[1].reshape(-1, 2)
    return np.sort(cols[:, 0] * n + cols[:, 1])


def random_near_sphere_int16(rng, count: int, n: int, shifts):
    """Rows s - x mod 3 in int16: s random in S_2, x cycling over ``shifts``."""
    cols = rng.integers(0, n, size=(count, 2))
    resample = cols[:, 0] == cols[:, 1]
    while resample.any():
        cols[resample, 1] = rng.integers(0, n, size=int(resample.sum()))
        resample = cols[:, 0] == cols[:, 1]
    s = np.zeros((count, n), dtype=np.int16)
    s[np.arange(count), cols[:, 0]] = 1
    s[np.arange(count), cols[:, 1]] = 1
    x = shifts[np.arange(count) % len(shifts)].astype(np.int16)
    return ((s - x) % 3).astype(np.uint8)


# ------------------------------------------------------ sphere reports


class VectorPairingGraph:
    """``certificates.PairingGraph`` as first written: edges are vector triples."""

    def __init__(self, left, right, edges):
        self.left, self.right, self.edges = left, right, edges

    def right_degrees(self) -> Counter:
        return Counter(e[1] for e in self.edges)


def _as_sorted_vectors(B, n: int):
    from mulbasis.spherelab import as_matrix

    if isinstance(B, np.ndarray):
        mat = as_matrix(B, n)
        return sorted({TernaryVector(mat[i].tobytes()) for i in range(mat.shape[0])})
    out = set()
    for v in B:
        if not isinstance(v, TernaryVector):
            v = TernaryVector.from_coords(v)
        if v.n != n:
            raise ValueError(f"vector of dimension {v.n}, expected {n}")
        out.add(v)
    return sorted(out)


def _vector_pairing_graph(vecs, targets, n: int) -> VectorPairingGraph:
    """One edge per target, its pair found by the ``lex_least_pairs`` scan."""
    if not vecs:
        raise ValueError("empty vertex set")
    tlist = sorted(set(targets))
    edges = []
    for t, hit in zip(tlist, lex_least_pairs(vecs, tlist, n)):
        if hit is None:
            raise ValueError(f"target {tuple(t.coords)} is not a sum of two basis vectors")
        edges.append((*hit, t))
    verts = tuple(vecs)
    return VectorPairingGraph(left=verts, right=verts, edges=tuple(edges))


def _vector_decompose(G: VectorPairingGraph, n: int) -> list:
    for _, _, t in G.edges:
        if not (t.is_zero_one() and t.weight() == 3):
            raise ValueError(f"target {tuple(t.coords)} is not a weight-3 0-1 vector")
    return [
        VectorPairingGraph(G.left, G.right, tuple(e for e in G.edges if e[2].coords[i] == 1))
        for i in range(n)
    ]


def _vector_prune(H: VectorPairingGraph, n: int):
    from types import SimpleNamespace

    from mulbasis.certificates import DEGREE_PRUNE_FACTOR

    heavy = {w for w, d in H.right_degrees().items() if d > DEGREE_PRUNE_FACTOR * n}
    kept = tuple(e for e in H.edges if e[1] not in heavy)
    return SimpleNamespace(
        pruned=VectorPairingGraph(H.left, H.right, kept),
        removed_edges=len(H.edges) - len(kept),
        heavy=tuple(sorted(heavy)),
    )


def sphere_report_vectors(B, n: int):
    """``certificates._sphere_report_full`` as first written, keyed by vectors.

    The common-neighbour counter is keyed by pairs of ``TernaryVector``s,
    each difference is classified by ``case_of``, and the
    graph, its coordinate slices and its pruning hold vector triples.
    """
    from collections import defaultdict

    from mulbasis.certificates import DEGREE_PRUNE_FACTOR, InequalityReport
    from mulbasis.reduction import InvariantViolationError

    vecs = _as_sorted_vectors(B, n)
    size = len(vecs)
    targets = sphere_vectors(n, 3)
    graph = _vector_pairing_graph(vecs, targets, n)

    # sparse common-neighbour counts: only pairs sharing a right vertex matter
    by_right: dict = defaultdict(list)
    for b1, b2, t in graph.edges:
        by_right[b2].append(b1)
    common: Counter = Counter()
    for w, vs in by_right.items():
        for v1 in vs:
            for v2 in vs:
                common[(v1, v2)] += 1

    # (a) common-neighbour identity: the counter's total against the right degrees
    lhs_identity = sum(common.values())
    rhs_identity = sum(d * d for d in graph.right_degrees().values())
    reports = [InequalityReport.of("degree_square_identity", lhs_identity, rhs_identity)]
    case1_total = 0
    case3_by_diff: Counter = Counter()
    case3_total = 0
    for (v1, v2), c in common.items():
        case = case_of((v1 - v2).coords)
        if case == "case1":
            if c > 1:
                raise InvariantViolationError(
                    f"six-coordinate difference pair with {c} common neighbours"
                )
            case1_total += c
        elif case == "case3":
            case3_by_diff[(v1 - v2).coords] += c
            case3_total += c
    reports.append(InequalityReport.of("case1_total", case1_total, size * size))
    worst_case3 = max(case3_by_diff.values(), default=0)
    reports.append(InequalityReport.of("case3_per_difference", worst_case3, n * n))
    reports.append(InequalityReport.of("case3_total", case3_total, n**4))

    # (d) per-coordinate pruning losses, worst instance folded into one row
    subs = _vector_decompose(graph, n)
    prunes = [_vector_prune(H, n) for H in subs]
    worst_loss = max((p.removed_edges for p in prunes), default=0)
    small_left = 100 * size < n * n
    reports.append(
        InequalityReport.of("pruning_loss", worst_loss, n * n / 50.0, hypotheses_ok=small_left)
    )

    # global pruned graph: an edge dies if any coordinate slice pruned it
    dead = set()
    for H, p in zip(subs, prunes):
        heavy = set(p.heavy)
        for e in H.edges:
            if e[1] in heavy:
                dead.add(e[2])
    kept_edges = tuple(e for e in graph.edges if e[2] not in dead)
    pruned_graph = VectorPairingGraph(left=graph.left, right=graph.right, edges=kept_edges)

    # (e) squared degrees per pruned slice against the slice's full size
    worst = None
    for i, (H, p) in enumerate(zip(subs, prunes)):
        deg_i = Counter(e[1] for e in H.edges if e[2] not in dead)
        lhs_i = sum(d * d for d in deg_i.values())
        rhs_i = DEGREE_PRUNE_FACTOR * n * len(H.edges)
        if worst is None or lhs_i - rhs_i > worst[0] - worst[1]:
            worst = (lhs_i, rhs_i)
    lhs_e, rhs_e = worst if worst is not None else (0, 0)
    reports.append(InequalityReport.of("case2_degree_square", lhs_e, rhs_e))

    # (f) retention of edges after pruning
    reports.append(
        InequalityReport.of(
            "edge_retention", len(graph.edges) - n**3 / 50.0, len(pruned_graph.edges)
        )
    )

    # (g) Cauchy-Schwarz on the pruned graph, then the bound it implies
    deg_pruned = pruned_graph.right_degrees()
    sum_d = sum(deg_pruned.values())
    sum_d2 = sum(d * d for d in deg_pruned.values())
    reports.append(InequalityReport.of("cauchy_schwarz", sum_d * sum_d, size * sum_d2))
    implied = (sum_d * sum_d / sum_d2) if sum_d2 else 0.0
    reports.append(InequalityReport.of("implied_basis_lower_bound", implied, size))
    if implied > size:
        raise InvariantViolationError(
            f"implied lower bound {implied} exceeds actual size {size}"
        )
    extras = {
        "graph": graph,
        "pruned": pruned_graph,
        "implied_bound": implied,
        "edges_full": len(graph.edges),
        "edges_pruned": len(pruned_graph.edges),
        "sum_d2_pruned": sum_d2,
    }
    return reports, extras


# ------------------------------------------------------ pipeline


def sparse_row(v) -> tuple:
    """The sparse row of a ``TernaryVector``: its (column, residue) pairs, ascending."""
    return tuple((i, v.coords[i]) for i in v.support())


def dense_vector(row: tuple, n: int):
    """The n-coordinate ``TernaryVector`` of a sparse row."""
    buf = bytearray(n)
    for i, c in row:
        buf[i] = c
    return TernaryVector(bytes(buf))


def dense_order(row: tuple) -> tuple:
    """Sort key that puts sparse rows in the byte order of their dense vectors.

    At the first column where two rows differ, a row with no entry there
    is zero there, and its next entry, if any, sits at a later column: a
    smaller -column.  A row that ends first is a prefix of the other key.
    """
    return tuple((-i, c) for i, c in row)


def join_weight_one_pairs(rows: list, tlist: list) -> list:
    """The pipeline's weight-one join as first written, a hash join on tuple rows.

    ``rows`` are sparse rows in dense order and ``tlist`` the sparse rows
    ((p, c),) of the targets.  From each row b1 and each target c * e_p
    at one of its columns, the partner c * e_p - b1 is looked up whole.
    Gives per target the least index pair (k1, k2), k1 <= k2, or None.
    """
    from collections import defaultdict

    whole = {s: k for k, s in enumerate(rows)}
    values = defaultdict(list)  # p -> c of each target c * e_p
    for ((p, c),) in tlist:
        values[p].append(c)
    best = {}  # (p, c) -> (index of b1, index of b2)
    for k1, s in enumerate(rows):
        neg = tuple((i, 3 - c) for i, c in s)
        for j, (p, c1) in enumerate(s):
            for c in values.get(p, ()):
                at_p = ((p, (c - c1) % 3),) if c != c1 else ()
                k2 = whole.get(neg[:j] + at_p + neg[j + 1 :])
                if k2 is not None:
                    pair = (k1, k2) if k1 <= k2 else (k2, k1)
                    if (p, c) not in best or pair < best[(p, c)]:
                        best[(p, c)] = pair
    return [best.get(t[0]) for t in tlist]


def component_analysis(m1_edges, split):
    """``certificates._analyze_components`` on edge triples (v1, v2, target) of coordinate sequences.

    Each sequence is checked as ``as_matrix`` checks a row, and the
    vertices are numbered in lex order.
    """
    from mulbasis import certificates
    from mulbasis.spherelab import as_matrix

    def keys(mat):
        at, cols = np.nonzero(mat)
        return certificates._keys(np.searchsorted(at, np.arange(len(mat) + 1)), cols, mat[at, cols], mat.shape[1])

    n = sum(split)
    v1, v2, tmat = (as_matrix([e[k] for e in m1_edges], n) for k in range(3))
    verts, ids = np.unique(certificates._void(np.concatenate([v1, v2])), return_inverse=True)
    vkeys = keys(verts.view(np.uint8).reshape(len(verts), n))
    proj = certificates._projections(vkeys, split)
    return certificates._analyze_components(vkeys, proj, ids.reshape(2, -1).T, keys(tmat), split)


def component_analysis_dense(m1_edges, split):
    """``component_analysis`` as first written in the package, on dense vectors."""
    from collections import defaultdict

    from mulbasis.certificates import ComponentAnalysis, InequalityReport
    from mulbasis.reduction import InvariantViolationError

    n1, n2 = split
    n = n1 + n2
    p2_range = range(n1, n)
    edges = []
    for v1, v2, t in m1_edges:
        if v1.n != n or v2.n != n or t.n != n:
            raise ValueError("edge vector dimension does not match the split")
        if (v1 + v2) != t:
            raise ValueError(f"edge endpoints do not sum to the target {tuple(t.coords)}")
        head = t.coords[:n1]
        if n1 - head.count(0) != 1 or any(t.coords[n1:]):
            raise ValueError(
                f"target {tuple(t.coords)} is not supported on one first-block coordinate"
            )
        edges.append((v1, v2, t))
    verts = sorted({v for e in edges for v in (e[0], e[1])})
    index = {v: i for i, v in enumerate(verts)}
    parent = list(range(len(verts)))
    parity = [0] * len(verts)
    cycle_closed = [False] * len(verts)
    odd_cycle = [False] * len(verts)

    def find_with_parity(x):
        p = 0
        while parent[x] != x:
            p ^= parity[x]
            x = parent[x]
        return x, p

    edge_count_at = Counter()
    for v1, v2, _ in edges:
        ra, pa = find_with_parity(index[v1])
        rb, pb = find_with_parity(index[v2])
        if ra == rb:
            if pa ^ pb == 1:
                raise InvariantViolationError(
                    "even cycle: dependent single-prime targets in one component"
                )
            if cycle_closed[ra]:
                raise InvariantViolationError(
                    "second independent cycle in a component: dependent targets"
                )
            cycle_closed[ra] = odd_cycle[ra] = True
            edge_count_at[ra] += 1
        else:
            parent[rb] = ra
            parity[rb] = pa ^ pb ^ 1
            cycle_closed[ra] = cycle_closed[ra] or cycle_closed[rb]
            odd_cycle[ra] = odd_cycle[ra] or odd_cycle[rb]
            edge_count_at[ra] += edge_count_at.pop(rb, 0) + 1
    groups = defaultdict(list)
    for v in verts:
        groups[find_with_parity(index[v])[0]].append(v)
    tree_count = 0
    total_edges = 0
    for root in sorted(groups, key=lambda r: verts[r]):
        members = groups[root]
        ec, vc = edge_count_at[root], len(members)
        total_edges += ec
        projections = frozenset(v.project(p2_range) for v in members)
        if len(projections) > 2:
            raise InvariantViolationError(
                f"component carries {len(projections)} distinct second-block projections"
            )
        if not all(-p in projections for p in projections):
            raise InvariantViolationError("component projections are not negation-closed")
        is_tree = not odd_cycle[root] and ec == vc - 1
        if odd_cycle[root] and projections != {TernaryVector.zero(n2)}:
            raise InvariantViolationError("odd-cycle component with nonzero projection")
        if ec > vc:
            raise InvariantViolationError(
                f"component has {ec} edges on {vc} vertices; targets cannot be independent"
            )
        tree_count += is_tree
    all_projections = {v.project(p2_range) for v in verts}
    return ComponentAnalysis(
        tree_count=tree_count,
        reports=(
            InequalityReport.of("projection_tree_bound", len(all_projections), 2 * tree_count + 1),
            InequalityReport.of("component_edge_bound", total_edges + tree_count, len(verts)),
        ),
        vertex_count=len(verts),
        distinct_projections=len(all_projections),
    )


def end_to_end_lower_bound_dense(M, B, u=0, g=1, table=None):
    """``certificates.end_to_end_lower_bound`` on dense vectors, as first written.

    Every vector is a full n-coordinate ``TernaryVector``: valuations come
    from ``valuation_loop`` per (value, prime), pairs from the
    ``lex_least_pairs`` scan and components from union-find over the
    vectors themselves.  The package must return an equal
    ``PipelineResult`` and raise ``PipelineError``s of the same stage.
    """
    from mulbasis.certificates import InequalityReport, PipelineError, PipelineResult
    from mulbasis.numtheory import sieve
    from mulbasis.productsets import first_uncovered
    from mulbasis.reduction import InvariantViolationError, build_marking_sets

    if M < 1:
        raise PipelineError("input", f"M must be positive, got {M}")
    try:
        basis = sorted(set(operator.index(b) for b in B))
    except TypeError as exc:
        raise PipelineError("input", f"basis elements must be integers: {exc}") from None
    if not basis:
        raise PipelineError("input", "empty basis")
    if basis[0] < 1:
        raise PipelineError("input", f"basis elements must be positive, got {basis[0]}")
    top = max(basis[-1], g * (u + M))
    if top >= 1 << 63:
        raise PipelineError(
            "input", f"value {top} exceeds 2^63 - 1, the int64 range of the valuation embedding"
        )
    if table is None:
        table = sieve(max(M, 4))
    gap = first_uncovered([g * (u + m) for m in range(1, M + 1)], basis)
    if gap is not None:
        raise PipelineError("cover", f"element {gap} is not covered")
    try:
        marks = build_marking_sets(M, u, table)
    except ValueError as exc:
        raise PipelineError("marks", str(exc)) from exc
    primes = marks.large_primes.tolist() + marks.small_primes.tolist()
    n1, n2 = len(marks.large_primes), len(marks.small_primes)
    n = n1 + n2

    def rho(x):
        return [valuation_loop(p, x) % 3 for p in primes]

    shift = [2 * c % 3 for c in rho(g)]  # halving is doubling mod 3
    bprime = sorted(
        {TernaryVector(bytes((c - s) % 3 for c, s in zip(rho(b), shift))) for b in basis}
    )
    m1_idx = sorted(marks.single_marks.tolist())
    targets = []
    for m in m1_idx:
        t = TernaryVector(bytes(rho(u + m)))
        if n1 - t.coords[:n1].count(0) != 1 or any(t.coords[n1:]):
            raise PipelineError(
                "targets", f"mark {m} does not give a single first-block coordinate"
            )
        targets.append(t)
    tlist = sorted(set(targets))
    edges = []
    for t, hit in zip(tlist, lex_least_pairs(bprime, tlist, n)):
        if hit is None:
            raise PipelineError(
                "pairing", f"target {tuple(t.coords)} is not a sum of two basis vectors"
            )
        edges.append((*hit, t))
    if len(edges) != len(m1_idx):
        raise PipelineError("pairing", "edge count differs from single-prime mark count")
    try:
        analysis = component_analysis_dense(edges, (n1, n2))
    except ValueError as exc:
        raise PipelineError("components", str(exc)) from exc

    p2_range = range(n1, n)
    in_graph = {v for e in edges for v in (e[0], e[1])}
    rest = [v for v in bprime if v not in in_graph]
    proj_v = {v.project(p2_range) for v in in_graph}
    proj_rest = {v.project(p2_range) for v in rest}
    sphere_set = sorted(proj_v | proj_rest)
    sphere_reports = ()
    sphere_bound = None
    if n2 >= 3:
        try:
            s_reports, extras = sphere_report_vectors(sphere_set, n2)
        except ValueError as exc:
            raise PipelineError("sphere", str(exc)) from exc
        sphere_reports = tuple(s_reports)
        sphere_bound = extras["implied_bound"]

    bound = len(m1_idx) + (len(proj_v) + len(proj_rest)) / 2.0 - 1
    links = len(edges) + analysis.tree_count + len(proj_rest)
    chain = [
        InequalityReport.of("embedding_collapse", len(bprime), len(basis)),
        InequalityReport.of("vertex_partition", len(in_graph) + len(rest), len(bprime)),
        InequalityReport.of("edges_equal_marks", len(edges), len(m1_idx)),
        *analysis.reports,
        InequalityReport.of("chain_tree_link", links, len(in_graph) + len(rest)),
        InequalityReport.of("chain_half_link", bound, links),
    ]
    if sphere_bound is not None:
        chain.append(
            InequalityReport.of("projection_union", len(sphere_set), len(proj_v) + len(proj_rest))
        )
        chain.append(InequalityReport.of("sphere_block_bound", sphere_bound, len(sphere_set)))
    chain.append(InequalityReport.of("bound_soundness", bound, len(basis)))
    if bound > len(basis):
        raise InvariantViolationError(
            f"final bound {bound} exceeds the actual basis size {len(basis)}"
        )
    return PipelineResult(
        M=M,
        u=u,
        g=g,
        basis_size=len(basis),
        bound=bound,
        m1_size=len(m1_idx),
        m2_size=len(marks.triple_marks),
        p1_size=n1,
        p2_size=n2,
        bprime_size=len(bprime),
        graph_vertices=len(in_graph),
        tree_count=analysis.tree_count,
        proj_vertices=len(proj_v),
        proj_rest=len(proj_rest),
        sphere_size=len(sphere_set),
        sphere_ran=n2 >= 3,
        chain=tuple(chain),
        sphere_reports=sphere_reports,
    )
