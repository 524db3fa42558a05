"""Inequality certificates for sphere covers and the combined lower bound.

Everything here turns statements used in the lower-bound argument into
computed checks.  A pairing graph fixes one representing pair per
covered target; reports then evaluate both sides of each inequality in
the degree-counting argument (common-neighbour identity, per-case
contribution bounds, pruning losses read from one table of right degrees
per coordinate slice, edge retention, Cauchy-Schwarz).
The end-to-end pipeline embeds an integer basis into F_3 valuation
vectors, held as arrays of key rows, pairs off the single-prime marks,
analyzes the resulting components, runs the sphere reports on the
small-prime block, and assembles a numeric lower bound on |B| that is
asserted sound on every run.  A failed report localizes a hypothesis violation or a bug; it is
never silently absorbed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .numtheory import PrimeTable, csr_rows, halved_shift_csr, sieve, valuation_csr
from .productsets import first_uncovered
from .reduction import InvariantViolationError, build_marking_sets
from .spherelab import as_matrix, least_pairs, sphere_rows

__all__ = [
    "PipelineError",
    "InequalityReport",
    "PairingGraph",
    "ComponentAnalysis",
    "PipelineResult",
    "build_pairing_graph",
    "sphere_cover_report",
    "end_to_end_lower_bound",
    "DEGREE_PRUNE_FACTOR",
]

# degree cutoff multiplier for heavy right-class vertices
DEGREE_PRUNE_FACTOR = 1 << 10

# left-end pairs per block when the sphere report walks shared right vertices
_SHARED_BLOCK = 1 << 14

# edges per block when the component pass checks their sums
_EDGE_BLOCK = 1 << 14

# set bits of each byte value, for counting the places in a row's bit sets
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)

# the pipeline takes integer inputs below 2^63 only
_INT64_MAX = (1 << 63) - 1


class PipelineError(Exception):
    """A pipeline stage rejected its input; ``stage`` names the stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.message = message

    def __reduce__(self):
        # rebuilt from the constructor's arguments, so it crosses a pickle
        # round trip (a worker process raising it) with type and fields intact
        return type(self), (self.stage, self.message)


@dataclass(frozen=True)
class InequalityReport:
    """One evaluated inequality; holds is always computed as lhs <= rhs."""

    name: str
    lhs: float
    rhs: float
    hypotheses_ok: bool
    holds: bool

    @classmethod
    def of(cls, name: str, lhs, rhs, hypotheses_ok: bool = True) -> "InequalityReport":
        return cls(name=name, lhs=lhs, rhs=rhs, hypotheses_ok=hypotheses_ok, holds=lhs <= rhs)

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "hypotheses_ok": self.hypotheses_ok,
            "holds": self.holds,
        }


@dataclass(frozen=True, eq=False)
class PairingGraph:
    """Bipartite pairing on vertex indices: two copies of B, one edge per target.

    ``vertices`` and ``targets`` hold distinct uint8 rows in lex order.  An
    edge is an int64 row (left, right, target) of indices into them: the
    lex-smallest pair left + right = target, left <= right, by ``least_pairs``.
    """

    vertices: np.ndarray
    targets: np.ndarray
    edges: np.ndarray

    def right_degrees(self) -> np.ndarray:
        """Edges at each vertex as the right endpoint, indexed like ``vertices``."""
        return np.bincount(self.edges[:, 1], minlength=len(self.vertices))


def _sorted_rows(vectors, n: int, kind: str) -> np.ndarray:
    """The distinct rows of a matrix or of coordinate sequences, in lex order, checked by ``as_matrix``."""
    if not isinstance(vectors, np.ndarray):
        vectors = list(vectors)
        for v in vectors:
            if len(v) != n:
                raise ValueError(f"{kind} of dimension {len(v)}, expected {n}")
    keys = np.unique(_void(as_matrix(vectors, n)))
    return keys.view(np.uint8).reshape(len(keys), n)


# Vectors over F_3 as key rows.  Entry (i, c) of a sparse row in n
# coordinates keys as (n - i) * 3 + c; a row's keys descend, padded with 0.


def _keys(offsets: np.ndarray, cols: np.ndarray, res: np.ndarray, n: int) -> np.ndarray:
    """Key rows, big-endian uint32, of sparse rows held as ``numtheory.csr_rows`` arrays.

    The bytes of two key rows order as the dense vectors they stand
    for: at the first column where the vectors differ, a row with no
    entry there is zero there, and its next entry, if any, sits at a
    later column, a smaller key; a row that ends first pads with 0.
    """
    lens = np.diff(offsets)
    rows = np.repeat(np.arange(len(lens)), lens)
    keys = np.zeros((len(lens), max(int(lens.max(initial=0)), 1)), dtype=">u4")
    keys[rows, np.arange(len(rows)) - offsets[rows]] = (n - cols) * 3 + res
    return keys


def _void(mat: np.ndarray) -> np.ndarray:
    """Each row of a matrix as one value that sorts and compares as the row's bytes."""
    mat = np.ascontiguousarray(mat)
    return mat.view(np.dtype((np.void, mat.shape[1] * mat.itemsize))).ravel()


def _entries(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, n - column, residue) of every entry of key rows."""
    rows, at = np.nonzero(keys)
    key = keys[rows, at].astype(np.int64)
    return rows, key // 3, key % 3


def _coords(keys: np.ndarray, n: int) -> tuple:
    """The dense coordinates of one key row."""
    coords = np.zeros(n, dtype=np.int64)
    coords[n - keys[keys > 0] // 3] = keys[keys > 0] % 3
    return tuple(coords.tolist())


def _join_weight_one_pairs(bkeys: np.ndarray, tkeys: np.ndarray) -> np.ndarray:
    """The pairs of ``spherelab.least_pairs`` for targets c * e_p, by a sort-and-search join.

    ``bkeys`` are the distinct key rows of B in byte order, as ``_void``
    values, and ``tkeys`` the ascending keys of the targets.  b1 + b2 =
    c * e_p forces p into supp b1 or supp b2, so every pair is found from
    a b1 with p in its support.  From each entry (p, c1) of each b1 and
    each target c * e_p at its column, the partner is fixed, b2 = c * e_p
    - b1: -b1 away from p and c - c1 at p; one binary search of B finds
    all partners.  The lex-least pair of a target is the least index
    pair over its hits.  Gives per target the pair (k1, k2), k1 <= k2,
    or (-1, -1).  Work grows with the entries of B at target columns,
    not with |B| * n.
    """
    best = np.full((len(tkeys), 2), -1, dtype=np.int64)
    if not len(tkeys):
        return best
    rows = bkeys.view(">u4").reshape(len(bkeys), -1).astype(np.uint32)
    k1, at = np.nonzero(rows)
    key = rows[k1, at].astype(np.int64)
    hits = []
    for c in (1, 2):
        want = key - key % 3 + c
        t = np.minimum(np.searchsorted(tkeys, want), len(tkeys) - 1)
        on = np.flatnonzero(tkeys[t] == want)
        rest = (c - key[on]) % 3
        partner = rows[k1[on]]
        partner = np.where(partner > 0, partner + 3 - 2 * (partner % 3), 0)  # -b1
        partner[np.arange(len(on)), at[on]] = np.where(rest, want[on] - c + rest, 0)
        partner = _void(np.sort(partner, axis=1)[:, ::-1].astype(">u4"))  # a dropped entry pads
        k2 = np.minimum(np.searchsorted(bkeys, partner), len(bkeys) - 1)
        ok = bkeys[k2] == partner
        hits.append((t[on][ok], k1[on][ok], k2[ok]))
    t, a, b = (np.concatenate(h) for h in zip(*hits))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    order = np.lexsort((hi, lo, t))
    first = order[np.diff(t[order], prepend=-1) != 0]
    best[t[first], 0], best[t[first], 1] = lo[first], hi[first]
    return best


def build_pairing_graph(B, targets, n: int) -> PairingGraph:
    """One edge per target of any kind: the lex-smallest (b1, b2) in B*B summing to it."""
    vertices = _sorted_rows(B, n, "vector")
    tmat = _sorted_rows(targets, n, "target")
    pairs = least_pairs(vertices, tmat)  # rejects n = 0, where rows have no bytes to sort
    if not len(vertices):
        raise ValueError("empty vertex set")
    missing = np.flatnonzero(pairs[:, 0] < 0)
    if len(missing):
        raise ValueError(_not_a_sum(tuple(tmat[missing[0]].tolist())))
    edges = np.column_stack([pairs, np.arange(len(tmat), dtype=np.int64)])
    return PairingGraph(vertices=vertices, targets=tmat, edges=edges)


def _not_a_sum(coords: tuple) -> str:
    return f"target {coords} is not a sum of two basis vectors"


def _shared_right_pairs(edges: np.ndarray):
    """The left ends (v1, v2) of every two edges at one right vertex, in blocks.

    Sorted by right vertex, the edges at one vertex form a run; pairing each
    edge with the one k places on, k = 1, 2, ..., meets every pair in a run once.
    """
    by_right = edges[np.argsort(edges[:, 1])]
    left, right = by_right[:, 0], by_right[:, 1]
    for k in range(1, len(by_right)):
        at = np.flatnonzero(right[k:] == right[:-k])
        if not len(at):
            return
        for lo in range(0, len(at), _SHARED_BLOCK):
            block = at[lo : lo + _SHARED_BLOCK]
            yield left[block], left[block + k]


def _single_bit(bits: np.ndarray) -> np.ndarray:
    """The place of the one set bit in each row of little-endian bit sets."""
    at = (bits != 0).argmax(axis=1)
    return 8 * at + _POPCOUNT[bits[np.arange(len(bits)), at] - 1]


def _sphere_report_full(B, n: int) -> tuple[list[InequalityReport], PairingGraph]:
    graph = build_pairing_graph(B, sphere_rows(n, 3), n)
    size = len(graph.vertices)

    # common right neighbours, pair by pair: the left ends at one right vertex
    # are distinct, each meets itself once and every other in both orders.
    # On bit sets of each row's 1s and 2s, v1 - v2 is of case 1 with three 1s
    # and three 2s, and of case 3 with one 1 and one 2, keyed by their places.
    one, two = (np.packbits(graph.vertices == c, axis=1, bitorder="little") for c in (1, 2))
    common = len(graph.edges)
    case1_pairs = [np.zeros(0, dtype=np.int64)]
    case3_by_diff = np.zeros(n * n, dtype=np.int64)
    for v1, v2 in _shared_right_pairs(graph.edges):
        common += 2 * len(v1)
        one1, two1, one2, two2 = one[v1], two[v1], one[v2], two[v2]
        zero1, zero2 = ~(one1 | two1), ~(one2 | two2)
        up = (one1 & zero2) | (two1 & one2) | (zero1 & two2)  # v1 - v2 = 1
        down = (zero1 & one2) | (one1 & two2) | (two1 & zero2)  # v1 - v2 = 2
        ups, downs = _POPCOUNT[up].sum(axis=1), _POPCOUNT[down].sum(axis=1)
        case1 = (ups == 3) & (downs == 3)
        case1_pairs.append(np.minimum(v1, v2)[case1] * size + np.maximum(v1, v2)[case1])
        case3 = (ups == 1) & (downs == 1)
        one_at, two_at = _single_bit(up[case3]), _single_bit(down[case3])
        case3_by_diff += np.bincount(one_at * n + two_at, minlength=n * n)
        case3_by_diff += np.bincount(two_at * n + one_at, minlength=n * n)

    # (a) common-neighbour identity: the pair count against the right degrees
    degrees = graph.right_degrees()
    reports = [InequalityReport.of("degree_square_identity", common, int(degrees @ degrees))]
    _, case1_common = np.unique(np.concatenate(case1_pairs), return_counts=True)
    if case1_common.size and case1_common.max() > 1:
        raise InvariantViolationError(
            f"six-coordinate difference pair with {case1_common.max()} common neighbours"
        )
    reports.append(InequalityReport.of("case1_total", 2 * len(case1_common), size * size))
    reports.append(InequalityReport.of("case3_per_difference", int(case3_by_diff.max()), n * n))
    reports.append(InequalityReport.of("case3_total", int(case3_by_diff.sum()), n**4))

    # (d) coordinate slices: an edge lies in the three slices where its target
    # has a 1; an incidence at a right vertex above the cutoff in its slice is cut
    edge, coord = np.nonzero(graph.targets[graph.edges[:, 2]])
    slot = coord * size + graph.edges[edge, 1]
    cut = np.bincount(slot, minlength=n * size)[slot] > DEGREE_PRUNE_FACTOR * n
    worst_loss = int(np.bincount(coord[cut], minlength=n).max())
    small_left = 100 * size < n * n
    reports.append(
        InequalityReport.of("pruning_loss", worst_loss, n * n / 50.0, hypotheses_ok=small_left)
    )

    # global pruned graph: an edge dies if any of its slices cut it
    dead = np.zeros(len(graph.edges), dtype=bool)
    dead[edge[cut]] = True
    pruned_graph = replace(graph, edges=graph.edges[~dead])

    # (e) squared degrees per pruned slice against the slice's full size,
    # the first slice with the largest excess
    live = np.bincount(slot[~dead[edge]], minlength=n * size).reshape(n, size)
    lhs_e = (live * live).sum(axis=1)
    rhs_e = DEGREE_PRUNE_FACTOR * n * np.bincount(coord, minlength=n)
    worst = int(np.argmax(lhs_e - rhs_e))
    reports.append(InequalityReport.of("case2_degree_square", int(lhs_e[worst]), int(rhs_e[worst])))

    # (f) retention of edges after pruning
    sum_d = len(pruned_graph.edges)
    reports.append(InequalityReport.of("edge_retention", len(graph.edges) - n**3 / 50.0, sum_d))

    # (g) Cauchy-Schwarz on the pruned graph, then the bound it implies
    deg_pruned = pruned_graph.right_degrees()
    sum_d2 = int(deg_pruned @ deg_pruned)
    reports.append(InequalityReport.of("cauchy_schwarz", sum_d * sum_d, size * sum_d2))
    implied = (sum_d * sum_d / sum_d2) if sum_d2 else 0.0
    reports.append(InequalityReport.of("implied_basis_lower_bound", implied, size))
    if implied > size:
        raise InvariantViolationError(
            f"implied lower bound {implied} exceeds actual size {size}"
        )
    return reports, pruned_graph


def sphere_cover_report(B, n: int) -> list[InequalityReport]:
    """Evaluate the degree-counting inequalities for a weight-3 cover.

    The identity and case bounds are computed on the full pairing graph;
    pruning, retention and Cauchy-Schwarz rows use the globally pruned
    graph.  Per-slice and per-difference families are folded to their
    worst instance, so one row holding means the whole family holds.
    Raises on a non-cover and on any soundness breach.
    """
    reports, _ = _sphere_report_full(B, n)
    return reports


@dataclass(frozen=True)
class ComponentAnalysis:
    tree_count: int
    reports: tuple[InequalityReport, ...]
    vertex_count: int
    distinct_projections: int


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, ascending: a sort, then repeats dropped.

    Plain ``np.unique`` on int64 values takes a hash path under NumPy 2:
    1.36 s for 1.3M distinct values on a 2-core Xeon VM, where this
    sort takes 0.02 s.
    """
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _projections(vkeys: np.ndarray, split: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The small-prime block of each key row.

    Gives each row's index among the distinct blocks, then the distinct
    blocks as uint8 rows in byte order, each with one more zero byte.
    """
    n1, n2 = split
    rows, at, res = _entries(vkeys)
    small = at <= n2
    rows, at, res = rows[small], at[small], res[small]
    some = _distinct(rows)  # the rows with a nonzero block; the last block row stays zero
    block = np.zeros((len(some) + 1, n2 + 1), dtype=np.uint8)  # a last zero byte keeps rows nonempty
    block[np.searchsorted(some, rows), n2 - at] = res
    distinct, inverse = np.unique(_void(block), return_inverse=True)
    ids = np.full(len(vkeys), inverse[-1])
    ids[some] = inverse[:-1]
    return ids, distinct.view(np.uint8).reshape(len(distinct), n2 + 1)


def _off_sum(vkeys: np.ndarray, edges: np.ndarray, tkeys: np.ndarray) -> np.ndarray:
    """Whether the ends of each edge fail to sum to its target."""
    ends = [_entries(vkeys[edges[:, 0]]), _entries(vkeys[edges[:, 1]]), _entries(tkeys)]
    rows, cols, res = (np.concatenate(x) for x in zip(*ends))
    res[len(rows) - len(ends[2][0]) :] *= 2  # minus the target: -c = 2c mod 3
    offsets, _, _ = csr_rows(len(edges), rows, cols, res, 3)
    return np.diff(offsets) > 0


def _roots(size: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The root of each of ``size`` nodes joined by the edges a[k] - b[k]: the least node of its component.

    Nodes are held in the dtype of ``a``.  Each round hooks every root
    onto the least root across its edges, then points each node at its
    root by jumping ``parent[parent]``.  A root that does not hook is the
    least root among its neighbours, and a neighbour of it hooked either
    onto it or onto a smaller root, which it meets and hooks onto in the
    next round.  So every two rounds at least halve the roots that still
    have an edge.  The least node of a component never hooks, so it ends
    as the root.
    """
    parent = np.arange(size, dtype=a.dtype)
    while True:
        ra, rb = parent[a], parent[b]
        if (ra == rb).all():
            return parent
        least = parent.copy()
        np.minimum.at(least, ra, rb)
        np.minimum.at(least, rb, ra)
        parent = least[parent]
        while ((jump := parent[parent]) != parent).any():
            parent = jump


def _analyze_components(
    vkeys: np.ndarray, proj: tuple, edges: np.ndarray, tkeys: np.ndarray, split: tuple[int, int]
) -> ComponentAnalysis:
    """Connected components of the single-prime-mark edges, given as (id, id) rows with target key rows ``tkeys``.

    ``vkeys[k]`` is the key row of vertex k and ``proj`` its projections,
    as ``_projections`` gives them.  Each edge joins vectors whose
    second-block projections are mutual negatives, so a component
    carries at most two projection values; an odd cycle collapses them
    to zero, and an even cycle (or any second independent cycle)
    contradicts the independence of the targets and is a hard error.
    Also checks the projection count against 2T + 1 and edges-plus-trees
    against the vertex count.  Components are found on the parity
    double cover: vertex v has copies 2v and 2v + 1, and an edge (a, b)
    joins 2a to 2b + 1 and 2a + 1 to 2b.  A component has an odd cycle
    exactly when the two copies of one of its vertices share a root, and
    edges - vertices + 1 independent cycles.
    """
    n1, n2 = split
    blocks_at = range(0, len(edges), _EDGE_BLOCK)
    off_sum = np.concatenate(
        [np.zeros(0, dtype=bool)]
        + [_off_sum(vkeys, edges[lo : lo + _EDGE_BLOCK], tkeys[lo : lo + _EDGE_BLOCK]) for lo in blocks_at]
    )
    bad = np.flatnonzero(off_sum | ((tkeys > 0).sum(axis=1) != 1) | (tkeys[:, 0] // 3 <= n2))
    if len(bad):
        coords = _coords(tkeys[bad[0]], n1 + n2)
        if off_sum[bad[0]]:
            raise ValueError(f"edge endpoints do not sum to the target {coords}")
        raise ValueError(f"target {coords} is not supported on one first-block coordinate")
    ids, blocks = proj
    in_graph = np.zeros(len(vkeys), dtype=bool)
    in_graph[edges] = True
    verts = np.flatnonzero(in_graph)
    # node ids in the least signed dtype that holds them, int32 at M = 10^7,
    # so that the pass stays under the peak the join sets
    cover = np.repeat(2 * edges.astype(np.min_scalar_type(-2 * len(vkeys))), 2, axis=0)
    cover[0::2, 1] += 1  # 2a to 2b + 1
    cover[1::2, 0] += 1  # 2a + 1 to 2b
    root = _roots(2 * len(vkeys), cover[:, 0], cover[:, 1])
    # the two copies of a vertex have the roots 2m and 2m + 1, or 2m twice,
    # for m the least vertex of its component
    least = np.minimum(root[0::2], root[1::2]) // 2
    heads = verts[least[verts] == verts]
    comp = np.searchsorted(heads, least[verts])
    vc = np.bincount(comp, minlength=len(heads))
    ec = np.bincount(np.searchsorted(heads, least[edges[:, 0]]), minlength=len(heads))
    odd = root[2 * heads] == root[2 * heads + 1]
    cycles = ec - vc + 1
    if (odd & (cycles > 1)).any():
        raise InvariantViolationError("second independent cycle in a component: dependent targets")
    over = np.flatnonzero(ec > vc)
    if len(over):
        k = over[0]
        raise InvariantViolationError(
            f"component has {ec[k]} edges on {vc[k]} vertices; targets cannot be independent"
        )
    if (~odd & (cycles > 0)).any():
        raise InvariantViolationError("even cycle: dependent single-prime targets in one component")
    # the distinct projection ids of each component, in order, as comp * width + id
    width = len(blocks)
    held = _distinct(comp * width + ids[verts])
    count = np.bincount(held // width, minlength=len(heads))
    many = np.flatnonzero(count > 2)
    if len(many):
        raise InvariantViolationError(
            f"component carries {count[many[0]]} distinct second-block projections"
        )
    last = np.cumsum(count) - 1
    first, last = held[last - count + 1] % width, held[last] % width
    if ((3 - blocks[first]) % 3 != blocks[last]).any():  # the first projection negates to the last
        raise InvariantViolationError("component projections are not negation-closed")
    if (odd & (count > 1)).any():  # a single negation-closed projection is zero
        raise InvariantViolationError("odd-cycle component with nonzero projection")
    tree_count = int(np.count_nonzero(~odd))  # after the checks, every other component is a tree
    distinct_projections = int(np.count_nonzero(np.bincount(ids[verts], minlength=width)))
    reports = (
        InequalityReport.of("projection_tree_bound", distinct_projections, 2 * tree_count + 1),
        InequalityReport.of("component_edge_bound", len(edges) + tree_count, len(verts)),
    )
    return ComponentAnalysis(
        tree_count=tree_count,
        reports=reports,
        vertex_count=len(verts),
        distinct_projections=distinct_projections,
    )


@dataclass(frozen=True)
class PipelineResult:
    M: int
    u: int
    g: int
    basis_size: int
    bound: float
    m1_size: int
    m2_size: int
    p1_size: int
    p2_size: int
    bprime_size: int
    graph_vertices: int
    tree_count: int
    proj_vertices: int
    proj_rest: int
    sphere_size: int
    sphere_ran: bool
    chain: tuple[InequalityReport, ...]
    sphere_reports: tuple[InequalityReport, ...]

    @property
    def all_hold(self) -> bool:
        applicable = [r for r in self.chain + self.sphere_reports if r.hypotheses_ok]
        return all(r.holds for r in applicable)


def end_to_end_lower_bound(
    M: int, B: Iterable[int], u: int = 0, g: int = 1, table: PrimeTable | None = None
) -> PipelineResult:
    """Lower bound on |B| from a cover of the progression g*(u+m), m in [1..M].

    Stages: verify the cover, build both marking constructions, embed
    the basis by prime valuations mod 3 (shifted so target vectors land
    in the sumset), pair off single-prime targets, analyze components,
    run the sphere reports on the small-prime block when it is wide
    enough, then chain the counts into one number.  Every link is an
    evaluated report and the final bound is asserted to be at most |B|.
    """
    if M < 1:
        raise PipelineError("input", f"M must be positive, got {M}")
    if g < 1:
        raise PipelineError("input", f"g must be positive, got {g}")
    try:
        basis = sorted(set(map(operator.index, B)))  # 1.5 is refused, not read as 1
    except TypeError as exc:
        raise PipelineError("input", f"basis elements must be integers: {exc}") from None
    if not basis:
        raise PipelineError("input", "empty basis")
    if basis[0] < 1:
        raise PipelineError("input", f"basis elements must be positive, got {basis[0]}")
    top = max(basis[-1], g * (u + M))
    if top > _INT64_MAX:
        raise PipelineError(
            "input", f"value {top} exceeds 2^63 - 1, the int64 range of the valuation embedding"
        )
    if table is None:
        table = sieve(max(M, 4))
    gap = first_uncovered(range(g * (u + 1), g * (u + M) + 1, g), basis)
    if gap is not None:
        raise PipelineError("cover", f"element {gap} is not covered")
    try:
        marks = build_marking_sets(M, u, table)
    except ValueError as exc:
        raise PipelineError("marks", str(exc)) from exc
    primes = np.concatenate([marks.large_primes, marks.small_primes])
    n1, n2 = len(marks.large_primes), len(marks.small_primes)
    n = n1 + n2
    m1_idx = np.sort(marks.single_marks)
    m2_size = len(marks.triple_marks)

    # B' = rho(b) - rho(g)/2, one key row per distinct vector
    bkeys = np.unique(_void(_keys(*halved_shift_csr(basis, g, table, primes, 3), n)))
    vkeys = bkeys.view(">u4").reshape(len(bkeys), -1)

    offsets, cols, res = valuation_csr(u + m1_idx, table, primes, 3)
    single = np.diff(offsets) == 1
    single[single] = cols[offsets[:-1][single]] < n1
    if not single.all():
        m = int(m1_idx[np.flatnonzero(~single)[0]])
        raise PipelineError("targets", f"mark {m} does not give a single first-block coordinate")
    tkeys = _distinct((n - cols) * 3 + res)
    edges = _join_weight_one_pairs(bkeys, tkeys)
    missing = np.flatnonzero(edges[:, 0] < 0)
    if len(missing):
        raise PipelineError("pairing", _not_a_sum(_coords(tkeys[missing[:1]], n)))
    if len(edges) != len(m1_idx):
        raise PipelineError("pairing", "edge count differs from single-prime mark count")

    proj = _projections(vkeys, (n1, n2))
    try:
        analysis = _analyze_components(vkeys, proj, edges, tkeys[:, None], (n1, n2))
    except ValueError as exc:
        raise PipelineError("components", str(exc)) from exc

    ids, blocks = proj
    in_graph = np.zeros(len(vkeys), dtype=bool)
    in_graph[edges] = True
    graph_vertices = int(in_graph.sum())
    rest = len(vkeys) - graph_vertices
    held_v, held_rest = (np.bincount(ids[part], minlength=len(blocks)) > 0 for part in (in_graph, ~in_graph))
    proj_v, proj_rest = int(held_v.sum()), int(held_rest.sum())
    sphere_set = blocks[held_v | held_rest, :n2]

    sphere_reports: tuple[InequalityReport, ...] = ()
    if n2 >= 3:
        try:
            sphere_reports = tuple(sphere_cover_report(sphere_set, n2))
        except ValueError as exc:
            raise PipelineError("sphere", str(exc)) from exc

    bound = len(m1_idx) + (proj_v + proj_rest) / 2.0 - 1
    chain = [
        InequalityReport.of("embedding_collapse", len(vkeys), len(basis)),
        InequalityReport.of("vertex_partition", graph_vertices + rest, len(vkeys)),
        InequalityReport.of("edges_equal_marks", len(edges), len(m1_idx)),
        *analysis.reports,
        InequalityReport.of(
            "chain_tree_link",
            len(edges) + analysis.tree_count + proj_rest,
            graph_vertices + rest,
        ),
        InequalityReport.of(
            "chain_half_link",
            bound,
            len(edges) + analysis.tree_count + proj_rest,
        ),
    ]
    if sphere_reports:
        chain.append(
            InequalityReport.of("projection_union", len(sphere_set), proj_v + proj_rest)
        )
        chain.append(  # the bound is the last row's, implied_basis_lower_bound
            InequalityReport.of("sphere_block_bound", sphere_reports[-1].lhs, len(sphere_set))
        )
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
        m2_size=m2_size,
        p1_size=n1,
        p2_size=n2,
        bprime_size=len(vkeys),
        graph_vertices=graph_vertices,
        tree_count=analysis.tree_count,
        proj_vertices=proj_v,
        proj_rest=proj_rest,
        sphere_size=len(sphere_set),
        sphere_ran=n2 >= 3,
        chain=tuple(chain),
        sphere_reports=sphere_reports,
    )
