"""Inequality certificates for sphere covers and the combined lower bound.

Everything here turns statements used in the lower-bound argument into
computed checks.  A pairing graph fixes one representing pair per
covered target; reports then evaluate both sides of each inequality in
the degree-counting argument (common-neighbour identity, per-case
contribution bounds, pruning losses, edge retention, Cauchy-Schwarz).
The end-to-end pipeline embeds an integer basis into F_3 valuation
vectors, held as sparse rows, pairs off the single-prime marks,
analyzes the resulting components, runs the sphere reports on the
small-prime block, and assembles a numeric lower bound on |B| that is
asserted sound on every run.  A failed report localizes a hypothesis violation or a bug; it is
never silently absorbed.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .numtheory import PrimeTable, add_rows, sieve, valuation_rows
from .productsets import first_uncovered
from .reduction import InvariantViolationError, build_marking_sets
from .spherelab import TernaryVector, as_matrix, least_pairs, sphere_rows

__all__ = [
    "PipelineError",
    "InequalityReport",
    "PairingGraph",
    "PruneResult",
    "ComponentSummary",
    "ComponentAnalysis",
    "PipelineResult",
    "build_pairing_graph",
    "decompose_by_coordinate",
    "prune_heavy",
    "sphere_cover_report",
    "component_analysis",
    "end_to_end_lower_bound",
    "DEGREE_PRUNE_FACTOR",
]

# degree cutoff multiplier for heavy right-class vertices
DEGREE_PRUNE_FACTOR = 1 << 10

# left-end pairs per block when the sphere report walks shared right vertices
_SHARED_BLOCK = 1 << 14

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
    """The distinct rows of a matrix, or of vectors or coordinate tuples, in lex order, checked by ``as_matrix``."""
    if not isinstance(vectors, np.ndarray):
        vectors = list(vectors)
        for v in vectors:
            dim = v.n if isinstance(v, TernaryVector) else len(v)
            if dim != n:
                raise ValueError(f"{kind} of dimension {dim}, expected {n}")
    keys = np.sort(as_matrix(vectors, n).view(np.dtype((np.void, n))).ravel())
    keys = np.concatenate([keys[:1], keys[1:][keys[1:] != keys[:-1]]])
    return keys.view(np.uint8).reshape(len(keys), n)


# Vectors over F_3 as sparse rows (see numtheory.valuation_rows) and back.


def _sparse(v: TernaryVector) -> tuple:
    """The sparse row of ``v``."""
    return tuple((i, v.coords[i]) for i in v.support())


def _dense(row: tuple, n: int) -> TernaryVector:
    """The n-coordinate vector of a sparse row."""
    buf = bytearray(n)
    for i, c in row:
        buf[i] = c
    return TernaryVector(bytes(buf))


def _dense_order(row: tuple) -> tuple:
    """Sort key that puts sparse rows in the byte order of their dense vectors.

    At the first column where two rows differ, a row with no entry there
    is zero there, and its next entry, if any, sits at a later column: a
    smaller -column.  A row that ends first is a prefix of the other key.
    """
    return tuple((-i, c) for i, c in row)


def _join_weight_one_pairs(rows: list[tuple], tlist: list[tuple]) -> list:
    """The pairs of ``spherelab.least_pairs`` for targets c * e_p, by a hash join.

    ``rows`` are sparse rows in dense order and ``tlist`` the sparse rows
    ((p, c),) of the targets.  b1 + b2 = c * e_p forces p into supp b1 or
    supp b2, so every pair is found from a b1 with p in its support.  From
    each such b1 and each target c * e_p at one of its columns, the
    partner is fixed, b2 = c * e_p - b1: -b1 away from p and c - b1_p at
    p, and one lookup of b2 among the rows finds it.  The lex-least b1 of
    a target is the least index over its pairs.  Gives per target the
    index pair (k1, k2), k1 <= k2, or None.  Work grows with the entries
    of B at target columns times their rows' supports, not with |B| * n.
    """
    whole = {s: k for k, s in enumerate(rows)}
    values: dict = defaultdict(list)  # p -> c of each target c * e_p
    for ((p, c),) in tlist:
        values[p].append(c)
    best: dict = {}  # (p, c) -> (index of b1, index of b2)
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


def build_pairing_graph(B, targets, n: int) -> PairingGraph:
    """One edge per target of any kind: the lex-smallest (b1, b2) in B*B summing to it."""
    vertices = _sorted_rows(B, n, "vector")
    tmat = _sorted_rows(targets, n, "target")
    pairs = least_pairs(vertices, tmat)  # rejects n = 0, where rows have no bytes to sort
    if not len(vertices):
        raise ValueError("empty vertex set")
    missing = np.flatnonzero(pairs[:, 0] < 0)
    if len(missing):
        raise ValueError(_not_a_sum(tmat[missing[0]].tobytes()))
    edges = np.column_stack([pairs, np.arange(len(tmat), dtype=np.int64)])
    return PairingGraph(vertices=vertices, targets=tmat, edges=edges)


def _not_a_sum(coords: bytes) -> str:
    return f"target {tuple(coords)} is not a sum of two basis vectors"


def decompose_by_coordinate(G: PairingGraph, n: int) -> list[PairingGraph]:
    """Subgraph i keeps the edges whose target has coordinate i equal to 1.

    Every weight-3 target lands in exactly three subgraphs.
    """
    tcols = G.targets[G.edges[:, 2]]
    bad = np.flatnonzero((tcols > 1).any(axis=1) | (tcols.sum(axis=1) != 3))
    if len(bad):
        raise ValueError(f"target {tuple(tcols[bad[0]].tolist())} is not a weight-3 0-1 vector")
    return [replace(G, edges=G.edges[tcols[:, i] == 1]) for i in range(n)]


@dataclass(frozen=True)
class PruneResult:
    pruned: PairingGraph
    removed_edges: int
    heavy: tuple  # vertex indices


def prune_heavy(H: PairingGraph, n: int, threshold: int | None = None) -> PruneResult:
    """Drop every edge at a right-class vertex of degree above the threshold."""
    if threshold is None:
        threshold = DEGREE_PRUNE_FACTOR * n
    heavy = H.right_degrees() > threshold
    kept = ~heavy[H.edges[:, 1]]
    return PruneResult(
        pruned=replace(H, edges=H.edges[kept]),
        removed_edges=len(kept) - int(kept.sum()),
        heavy=tuple(np.flatnonzero(heavy).tolist()),
    )


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


def _sphere_report_full(B, n: int) -> tuple[list[InequalityReport], dict]:
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

    # (d) per-coordinate pruning losses, worst instance folded into one row
    subs = decompose_by_coordinate(graph, n)
    prunes = [prune_heavy(H, n) for H in subs]
    worst_loss = max((p.removed_edges for p in prunes), default=0)
    small_left = 100 * size < n * n
    reports.append(
        InequalityReport.of("pruning_loss", worst_loss, n * n / 50.0, hypotheses_ok=small_left)
    )

    # global pruned graph: an edge dies if any coordinate slice pruned it
    dead = np.zeros(len(graph.targets), dtype=bool)
    for H, p in zip(subs, prunes):
        dead[H.edges[np.isin(H.edges[:, 1], p.heavy), 2]] = True
    pruned_graph = replace(graph, edges=graph.edges[~dead[graph.edges[:, 2]]])

    # (e) squared degrees per pruned slice against the slice's full size
    slices = []
    for H in subs:
        live = np.bincount(H.edges[~dead[H.edges[:, 2]], 1])
        slices.append((int(live @ live), DEGREE_PRUNE_FACTOR * n * len(H.edges)))
    lhs_e, rhs_e = max(slices, key=lambda s: s[0] - s[1], default=(0, 0))
    reports.append(InequalityReport.of("case2_degree_square", lhs_e, rhs_e))

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
    return reports, {"pruned": pruned_graph, "implied_bound": implied}


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
class ComponentSummary:
    ident: int
    vertex_count: int
    edge_count: int
    is_tree: bool
    has_odd_cycle: bool
    p2_projections: frozenset[TernaryVector]


@dataclass(frozen=True)
class ComponentAnalysis:
    components: tuple[ComponentSummary, ...]
    tree_count: int
    reports: tuple[InequalityReport, ...]
    vertex_count: int
    distinct_projections: int


def component_analysis(m1_edges: Sequence, split: tuple[int, int]) -> ComponentAnalysis:
    """Connected components of the single-prime-mark edges.

    Each edge joins vectors whose second-block projections are mutual
    negatives, so a component carries at most two projection values; an
    odd cycle collapses them to zero, and an even cycle (or any second
    independent cycle) contradicts the independence of the targets and
    is a hard error.  Also checks the projection count against 2T + 1
    and edges-plus-trees against the vertex count.
    """
    n1, n2 = split
    n = n1 + n2
    for e in m1_edges:
        if any(v.n != n for v in e):
            raise ValueError("edge vector dimension does not match the split")
    verts = sorted({v for e in m1_edges for v in (e[0], e[1])})
    index = {v: k for k, v in enumerate(verts)}
    rows = [_sparse(v) for v in verts]
    edges = [(index[v1], index[v2], _sparse(t)) for v1, v2, t in m1_edges]
    return _analyze_components(rows, _projections(rows, split), edges, split)


def _projections(rows: list[tuple], split: tuple[int, int]) -> list[TernaryVector]:
    """The small-prime block of each sparse row, one vector per distinct block."""
    n1, n2 = split
    seen: dict = {}
    out = []
    for row in rows:
        tail = tuple((i - n1, c) for i, c in row if i >= n1)
        vec = seen.get(tail)
        if vec is None:
            vec = seen[tail] = _dense(tail, n2)
        out.append(vec)
    return out


def _analyze_components(
    rows: list[tuple], proj: list[TernaryVector], edges: list, split: tuple[int, int]
) -> ComponentAnalysis:
    """``component_analysis`` on vertex ids: ``edges`` are (id, id, target row).

    ``rows[k]`` is the sparse row of vertex k and ``proj[k]`` its
    second-block projection.  Ids must follow the dense order of the rows,
    which fixes the order of the components.
    """
    n1, n2 = split
    for k1, k2, t in edges:
        if add_rows(rows[k1], rows[k2], 3) != t:
            raise ValueError(
                f"edge endpoints do not sum to the target {tuple(_dense(t, n1 + n2).coords)}"
            )
        if len(t) != 1 or t[0][0] >= n1:
            raise ValueError(
                f"target {tuple(_dense(t, n1 + n2).coords)} is not supported on one "
                "first-block coordinate"
            )
    verts = sorted({k for e in edges for k in (e[0], e[1])})
    parent = list(range(len(rows)))
    parity = [0] * len(rows)  # parity of the path to the current parent
    cycle_closed = [False] * len(rows)
    odd_cycle = [False] * len(rows)

    def find_with_parity(x: int) -> tuple[int, int]:
        root = x
        p = 0
        while parent[root] != root:
            p ^= parity[root]
            root = parent[root]
        # path compression, re-pointing everything at the root
        cur, cp = x, p
        while parent[cur] != root:
            nxt, np_ = parent[cur], parity[cur]
            parent[cur], parity[cur] = root, cp
            cur, cp = nxt, cp ^ np_
        return root, p

    edge_count_at: Counter = Counter()
    for a, b, _ in edges:
        ra, pa = find_with_parity(a)
        rb, pb = find_with_parity(b)
        if ra == rb:
            rel = pa ^ pb
            if rel == 1:
                raise InvariantViolationError(
                    "even cycle: dependent single-prime targets in one component"
                )
            if cycle_closed[ra]:
                raise InvariantViolationError(
                    "second independent cycle in a component: dependent targets"
                )
            cycle_closed[ra] = True
            odd_cycle[ra] = True
            edge_count_at[ra] += 1
        else:
            # attach rb under ra; parity so that endpoints get opposite classes
            parent[rb] = ra
            parity[rb] = pa ^ pb ^ 1
            cycle_closed[ra] = cycle_closed[ra] or cycle_closed[rb]
            odd_cycle[ra] = odd_cycle[ra] or odd_cycle[rb]
            edge_count_at[ra] += edge_count_at.pop(rb, 0) + 1
    groups: dict = defaultdict(list)
    for k in verts:
        r, _ = find_with_parity(k)
        groups[r].append(k)
    summaries = []
    tree_count = 0
    total_edges = 0
    zero_tail = TernaryVector.zero(n2)
    for ident, root in enumerate(sorted(groups)):
        members = groups[root]
        ec = edge_count_at[root]
        vc = len(members)
        total_edges += ec
        projections = frozenset(proj[k] for k in members)
        if len(projections) > 2:
            raise InvariantViolationError(
                f"component carries {len(projections)} distinct second-block projections"
            )
        if not all(-p in projections for p in projections):
            raise InvariantViolationError("component projections are not negation-closed")
        is_tree = not odd_cycle[root] and ec == vc - 1
        if odd_cycle[root] and projections != {zero_tail}:
            raise InvariantViolationError("odd-cycle component with nonzero projection")
        if ec > vc:
            raise InvariantViolationError(
                f"component has {ec} edges on {vc} vertices; targets cannot be independent"
            )
        if is_tree:
            tree_count += 1
        summaries.append(
            ComponentSummary(
                ident=ident,
                vertex_count=vc,
                edge_count=ec,
                is_tree=is_tree,
                has_odd_cycle=odd_cycle[root],
                p2_projections=projections,
            )
        )
    all_projections = {proj[k] for k in verts}
    reports = (
        InequalityReport.of("projection_tree_bound", len(all_projections), 2 * tree_count + 1),
        InequalityReport.of("component_edge_bound", total_edges + tree_count, len(verts)),
    )
    return ComponentAnalysis(
        components=tuple(summaries),
        tree_count=tree_count,
        reports=reports,
        vertex_count=len(verts),
        distinct_projections=len(all_projections),
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
    components: tuple[ComponentSummary, ...] = field(repr=False)

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
    basis = sorted(set(int(b) for b in B))
    if not basis:
        raise PipelineError("input", "empty basis")
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
    primes = marks.large_primes + marks.small_primes
    n1, n2 = len(marks.large_primes), len(marks.small_primes)
    n = n1 + n2

    rows = valuation_rows(basis, table, primes, 3)
    (g_row,) = valuation_rows([g], table, primes, 3)
    if g_row:
        # B' = rho(b) - rho(g)/2, and -1/2 = 1 mod 3
        rows = [add_rows(row, g_row, 3) for row in rows]
    bprime = sorted(set(rows), key=_dense_order)

    m1_idx = sorted(marks.single_prime_marks.indices)
    targets = valuation_rows([u + m for m in m1_idx], table, primes, 3)
    for m, t in zip(m1_idx, targets):
        if len(t) != 1 or t[0][0] >= n1:
            raise PipelineError(
                "targets", f"mark {m} does not give a single first-block coordinate"
            )
    tlist = sorted(set(targets), key=_dense_order)
    edges = []
    for t, hit in zip(tlist, _join_weight_one_pairs(bprime, tlist)):
        if hit is None:
            raise PipelineError("pairing", _not_a_sum(_dense(t, n).coords))
        edges.append((*hit, t))
    if len(edges) != len(m1_idx):
        raise PipelineError("pairing", "edge count differs from single-prime mark count")

    proj = _projections(bprime, (n1, n2))
    try:
        analysis = _analyze_components(bprime, proj, edges, (n1, n2))
    except ValueError as exc:
        raise PipelineError("components", str(exc)) from exc

    in_graph = {k for e in edges for k in (e[0], e[1])}
    rest = [k for k in range(len(bprime)) if k not in in_graph]
    proj_v = {proj[k] for k in in_graph}
    proj_rest = {proj[k] for k in rest}
    sphere_set = sorted(proj_v | proj_rest)

    sphere_reports: tuple[InequalityReport, ...] = ()
    sphere_bound = None
    if n2 >= 3:
        try:
            s_reports, extras = _sphere_report_full(sphere_set, n2)
        except ValueError as exc:
            raise PipelineError("sphere", str(exc)) from exc
        sphere_reports = tuple(s_reports)
        sphere_bound = extras["implied_bound"]

    bound = len(m1_idx) + (len(proj_v) + len(proj_rest)) / 2.0 - 1
    chain = [
        InequalityReport.of("embedding_collapse", len(bprime), len(basis)),
        InequalityReport.of("vertex_partition", len(in_graph) + len(rest), len(bprime)),
        InequalityReport.of("edges_equal_marks", len(edges), len(m1_idx)),
        *analysis.reports,
        InequalityReport.of(
            "chain_tree_link",
            len(edges) + analysis.tree_count + len(proj_rest),
            len(in_graph) + len(rest),
        ),
        InequalityReport.of(
            "chain_half_link",
            bound,
            len(edges) + analysis.tree_count + len(proj_rest),
        ),
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
        m2_size=len(marks.triple_product_marks),
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
        components=analysis.components,
    )
