import json
import pickle
from collections import defaultdict
from math import comb
from itertools import combinations, pairwise, product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mulbasis import certificates
from mulbasis.certificates import (
    DEGREE_PRUNE_FACTOR,
    InequalityReport,
    PairingGraph,
    PipelineError,
    _sphere_report_full,
    build_pairing_graph,
    end_to_end_lower_bound,
    sphere_cover_report,
)
from mulbasis.numtheory import sieve
from mulbasis.productsets import construct_interval_basis
from mulbasis.reduction import InvariantViolationError
from mulbasis.spherelab import as_matrix
from oracles import dense_order as _dense_order
from oracles import join_weight_one_pairs as _join_weight_one_pairs
from oracles import sparse_row as _sparse
from oracles import (
    TernaryVector,
    case_of,
    component_analysis,
    component_analysis_dense,
    end_to_end_lower_bound_dense,
    lex_least_pairs,
    primes_segmented,
    sphere_report_vectors,
    sphere_vectors,
    traced_peak,
    valuation_loop,
    valuation_rows,
)

V = TernaryVector.from_coords
GOLDEN = Path(__file__).parent / "golden"

REPORT_NAMES = [
    "degree_square_identity",
    "case1_total",
    "case3_per_difference",
    "case3_total",
    "pruning_loss",
    "case2_degree_square",
    "edge_retention",
    "cauchy_schwarz",
    "implied_basis_lower_bound",
]


def small_spheres(n: int) -> list[TernaryVector]:
    return sphere_vectors(n, 1) + sphere_vectors(n, 2)


# ---------------------------------------------------------- reports


def test_report_of_computes_holds():
    r = InequalityReport.of("x", 3, 3)
    assert r.holds and r.hypotheses_ok
    assert not InequalityReport.of("x", 4, 3).holds
    assert not InequalityReport.of("x", 1, 2, hypotheses_ok=False).hypotheses_ok


def test_report_round_trips_through_record():
    r = InequalityReport.of("edge_retention", 1.5, 2.0)
    rec = json.loads(json.dumps(r.to_record()))
    assert rec == {
        "name": "edge_retention",
        "lhs": 1.5,
        "rhs": 2.0,
        "hypotheses_ok": True,
        "holds": True,
    }


@given(st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_report_holds_matches_comparison(lhs, rhs):
    assert InequalityReport.of("p", lhs, rhs).holds == (lhs <= rhs)


# ---------------------------------------------------------- pairing graphs


def edge_vectors(g: PairingGraph) -> list:
    """The edges of ``g`` as (left, right, target) vector triples."""
    return [(V(g.vertices[i]), V(g.vertices[j]), V(g.targets[t])) for i, j, t in g.edges.tolist()]


def test_self_pair_edge():
    g = build_pairing_graph([V((2, 2, 2))], [V((1, 1, 1))], 3)
    assert g.vertices.tolist() == [[2, 2, 2]]
    assert g.targets.tolist() == [[1, 1, 1]]
    assert g.edges.dtype == np.int64 and g.edges.tolist() == [[0, 0, 0]]
    assert g.right_degrees().tolist() == [1]


def test_small_sphere_graph_shape():
    n = 5
    B = small_spheres(n)
    g = build_pairing_graph(B, sphere_vectors(n, 3), n)
    assert len(g.edges) == 10
    assert g.vertices.tolist() == as_matrix(sorted(B), n).tolist()
    assert g.targets.tolist() == as_matrix(sorted(sphere_vectors(n, 3)), n).tolist()
    assert g.edges[:, 2].tolist() == list(range(10))
    for i, j, t in g.edges.tolist():
        assert i <= j
        assert ((g.vertices[i] + g.vertices[j]) % 3).tolist() == g.targets[t].tolist()
        assert g.vertices[i].sum() == 1 and g.vertices[j].sum() == 2


def test_edges_are_lex_smallest_pairs():
    n = 5
    B = small_spheres(n)
    g = build_pairing_graph(B, sphere_vectors(n, 3), n)
    for b1, b2, t in edge_vectors(g):
        pairs = sorted((x, y) for x in B for y in B if x + y == t)
        assert (b1, b2) == pairs[0]


def test_graph_accepts_matrix_input_and_dedupes():
    n = 4
    B = small_spheres(n) + small_spheres(n)  # duplicates collapse
    g = build_pairing_graph(as_matrix(B, n), sphere_vectors(n, 3) * 2, n)
    assert len(g.vertices) == 10
    assert len(g.targets) == 4
    assert len(g.edges) == 4


def test_graph_rejections():
    with pytest.raises(ValueError, match="empty vertex set"):
        build_pairing_graph([], [V((1, 1, 1))], 3)
    with pytest.raises(ValueError, match=r"\(1, 1, 1\) is not a sum"):
        build_pairing_graph([V((0, 0, 1))], [V((1, 1, 1))], 3)
    with pytest.raises(ValueError, match="dimension"):
        build_pairing_graph([V((0, 1))], [V((1, 1, 1))], 3)
    # zero-width rows have no bytes to sort by; the kernel rejects them
    with pytest.raises(ValueError, match="at least one coordinate"):
        build_pairing_graph([TernaryVector(b"")], [TernaryVector(b"")], 0)


def unit(n: int, p: int, c: int) -> TernaryVector:
    return V(tuple(c if i == p else 0 for i in range(n)))


@st.composite
def weight_one_instances(draw):
    """Sparse bases over F_3^n with weight-one targets, most of them covered."""
    n = draw(st.integers(1, 6))
    sparse_vec = st.dictionaries(st.integers(0, n - 1), st.integers(1, 2), max_size=3).map(
        lambda d: V(tuple(d.get(i, 0) for i in range(n)))
    )
    target = st.builds(unit, st.just(n), st.integers(0, n - 1), st.integers(1, 2))
    basis = draw(st.lists(sparse_vec, min_size=1, max_size=10))
    for i, t in draw(st.lists(st.tuples(st.integers(0, len(basis) - 1), target), max_size=4)):
        basis.append(t - basis[i])
    targets = draw(st.lists(target, max_size=2 * n))
    return n, basis, targets


@given(weight_one_instances())
@settings(max_examples=300, deadline=None)
@example((2, [unit(2, 0, 2)], [unit(2, 0, 1)]))  # self-pair: b + b = e_0
@example((2, [unit(2, 0, 1)], [unit(2, 0, 2)]))  # self-pair reaching value 2
@example((2, [V((1, 1)), V((2, 2)), unit(2, 1, 1)], [unit(2, 0, 1)]))  # b + (-b) = 0 only
@example((3, [V((0, 1, 2)), V((1, 2, 1))], [unit(3, 0, 1), unit(3, 2, 2)]))  # uncovered
@example((2, [V((1, 1)), V((0, 2)), V((1, 0))], [unit(2, 0, 1), unit(2, 0, 2)]))  # both values at one column
@example((3, [V((1, 2, 0)), V((0, 1, 0)), V((2, 0, 1))], [unit(3, 0, 1)]))  # entries at a column with no target
def test_join_matches_scan_on_weight_one_targets(instance):
    n, basis, targets = instance
    vecs = sorted(set(basis))
    tlist = sorted(set(targets))
    joined = _join_weight_one_pairs([_sparse(v) for v in vecs], [_sparse(t) for t in tlist])
    pairs = [None if k is None else (vecs[k[0]], vecs[k[1]]) for k in joined]
    assert pairs == list(lex_least_pairs(vecs, tlist, n))


@pytest.mark.parametrize(
    "basis,n",
    [
        (set(small_spheres(5)), 5),
        (set(small_spheres(9)), 9),
        ({V((2, 2, 2))}, 3),
        ({V((0, 0, 1, 2)), V((0, 0, 2, 1)), V((0, 2, 2, 2)), V((1, 1, 2, 2))}, 4),  # a minimum
        # e_5 + (1, 1, 1, 0, 0, 2) undercuts the split e_2 + e_01 of (1, 1, 1, 0, 0, 0)
        (set(small_spheres(6)) | {V((1, 1, 1, 0, 0, 2))}, 6),
    ],
    ids=["construct5", "construct9", "min3", "min4", "construct6_extras"],
)
def test_pairing_graph_agrees_with_cover_witness(basis, n):
    targets = sphere_vectors(n, 3)
    witness = dict(zip(targets, lex_least_pairs(sorted(basis), targets, n)))
    assert None not in witness.values()
    g = build_pairing_graph(basis, targets, n)
    assert {t: (b1, b2) for b1, b2, t in edge_vectors(g)} == witness
    index = {v: k for k, v in enumerate(sorted(basis))}
    sphere = sorted(targets)
    assert g.edges.tolist() == [
        [index[b1], index[b2], sphere.index(t)] for t, (b1, b2) in sorted(witness.items())
    ]


def test_weight_one_targets_pair_through_the_join():
    e0, e1 = unit(3, 0, 1), unit(3, 1, 1)
    basis = [V((2, 0, 0)), V((0, 1, 2)), V((0, 0, 1)), V((0, 2, 2))]
    g = build_pairing_graph(basis, [e1, -e1, e0], 3)  # the scan
    vecs = sorted(basis)  # 001, 012, 022, 200
    assert g.targets.tolist() == [[0, 1, 0], [0, 2, 0], [1, 0, 0]]
    assert g.edges.tolist() == [
        [0, 1, 0],  # partner zero at p, lex-least b1 is (0, 0, 1)
        [0, 2, 1],
        [3, 3, 2],  # self-pair
    ]
    joined = _join_weight_one_pairs([_sparse(v) for v in vecs], [_sparse(e[2]) for e in edge_vectors(g)])
    assert [list(k) for k in joined] == g.edges[:, :2].tolist()
    with pytest.raises(ValueError, match=r"target \(0, 0, 2\) is not a sum"):
        build_pairing_graph([V((0, 1, 1)), V((0, 2, 2))], [unit(3, 2, 2)], 3)
    with pytest.raises(ValueError, match="target of dimension 2, expected 3"):
        build_pairing_graph(basis, [unit(2, 0, 1)], 3)
    # coordinate tuples are checked as a matrix is, never folded mod 3
    with pytest.raises(ValueError, match="target of dimension 2, expected 3"):
        build_pairing_graph(basis, [(0, 1)], 3)
    for rows in ([(2, 2, 5)], np.array([[2, 2, 5]])):
        with pytest.raises(ValueError, match=r"matrix entries must lie in \{0, 1, 2\}"):
            build_pairing_graph(rows, [(1, 1, 1)], 3)
    assert build_pairing_graph([(2, 2, 2)], [(1, 1, 1)], 3).edges.tolist() == [[0, 0, 0]]


def test_empty_target_list_gives_empty_graph():
    g = build_pairing_graph([V((0, 0, 1))], [], 3)
    assert g.edges.shape == (0, 3)
    assert g.targets.shape == (0, 3)
    assert g.right_degrees().tolist() == [0]


# ---------------------------------------------------------- sphere cover reports


def test_report_suite_names_and_order():
    reports = sphere_cover_report(small_spheres(5), 5)
    assert [r.name for r in reports] == REPORT_NAMES


def test_report_suite_holds_on_small_sphere_cover():
    reports = sphere_cover_report(small_spheres(16), 16)
    assert all(r.holds for r in reports if r.hypotheses_ok)
    identity = reports[0]
    assert identity.name == "degree_square_identity"
    assert identity.lhs == identity.rhs == 4200


def test_pruning_hypothesis_flagged_for_wide_basis():
    full = [V(t) for t in product(range(3), repeat=4)]
    reports = sphere_cover_report(full, 4)
    loss = next(r for r in reports if r.name == "pruning_loss")
    assert not loss.hypotheses_ok


def test_implied_bound_is_positive_and_sound():
    reports = sphere_cover_report(small_spheres(24), 24)
    implied = next(r for r in reports if r.name == "implied_basis_lower_bound")
    assert implied.lhs == 176.0
    assert implied.rhs == 300
    assert implied.holds


def test_report_suite_rejects_non_cover():
    with pytest.raises(ValueError, match="is not a sum"):
        sphere_cover_report(sphere_vectors(5, 1), 5)


def star_cover(n: int) -> list[TernaryVector]:
    """{e_0} with t - e_0 for every t in S_3: e_0 is the right end of every target through 0."""
    e0 = unit(n, 0, 1)
    return [e0] + [t - e0 for t in sphere_vectors(n, 3)]


BASIS_N6 = [
    V(int(ch) for ch in line)
    for line in (GOLDEN / "basis_n6_s1s2_111002.txt").read_text().splitlines()
    if line and not line.startswith("#")
]


def shifted_sphere(n: int) -> list[TernaryVector]:
    """{2J} with t + J for every t in S_3: every edge meets the right vertex 2J.

    Two disjoint targets there give a case-1 pair, which no cover of
    S_1 | S_2 or star shape has.
    """
    J = V([1] * n)
    return [J + J] + [t + J for t in sphere_vectors(n, 3)]


@st.composite
def report_instances(draw):
    """A cover of S_3 (S_1 | S_2, the star or the shifted sphere) with extra vectors that hold a 2."""
    n = draw(st.integers(3, 9))
    cover = draw(st.sampled_from([small_spheres, star_cover, shifted_sphere]))(n)
    extra = st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(lambda c: 2 in c).map(V)
    return n, cover + draw(st.lists(extra, max_size=12))


def _rows(reports) -> str:
    # JSON keeps the types: an integer read as a float, or a numpy scalar, differs
    return json.dumps([r.to_record() for r in reports])


@given(report_instances(), st.sampled_from([0, 1, DEGREE_PRUNE_FACTOR]))
@settings(max_examples=80, deadline=None)
@example((6, BASIS_N6), DEGREE_PRUNE_FACTOR)
@example((9, star_cover(9)), DEGREE_PRUNE_FACTOR)
@example((7, shifted_sphere(7)), 1)
def test_report_matches_vector_keyed_oracle(instance, factor):
    n, basis = instance
    # no cover this small has a right degree above the default 1024 * n,
    # so the factors 0 and 1 are what make the coordinate slices prune
    with mock.patch.object(certificates, "DEGREE_PRUNE_FACTOR", factor):
        reports, pruned = _sphere_report_full(basis, n)
        want, want_extras = sphere_report_vectors(basis, n)
    assert _rows(reports) == _rows(want)
    # the pipeline's sphere_block_bound reads the last row
    assert reports[-1].name == "implied_basis_lower_bound"
    assert reports[-1].lhs == want_extras["implied_bound"]
    assert edge_vectors(pruned) == list(want_extras["pruned"].edges)


# ---------------------------------------------------------- coordinate slices and pruning


def _pruning_loss(reports) -> int:
    return next(r.lhs for r in reports if r.name == "pruning_loss")


def test_prune_light_graph_is_identity():
    # no coordinate slice of S_1 | S_2 at n = 5 has a right degree above n,
    # so the factor 1 prunes nothing, as the default does
    n = 5
    full = build_pairing_graph(small_spheres(n), sphere_vectors(n, 3), n)
    for factor in (1, DEGREE_PRUNE_FACTOR):
        with mock.patch.object(certificates, "DEGREE_PRUNE_FACTOR", factor):
            reports, pruned = _sphere_report_full(small_spheres(n), n)
        assert _pruning_loss(reports) == 0
        assert pruned.edges.tolist() == full.edges.tolist()


def test_prune_star_above_threshold():
    # e_0 is the right end of the C(n - 1, 2) = 10 targets through 0, all in
    # slice 0: above the cutoff 1 * n, it loses every edge
    n = 6
    full = build_pairing_graph(star_cover(n), sphere_vectors(n, 3), n)
    e0 = full.vertices.tolist().index([1, 0, 0, 0, 0, 0])
    assert full.right_degrees()[e0] == comb(n - 1, 2) == 10
    with mock.patch.object(certificates, "DEGREE_PRUNE_FACTOR", 1):
        reports, pruned = _sphere_report_full(star_cover(n), n)
    assert _pruning_loss(reports) == 10
    assert pruned.right_degrees()[e0] == 0
    assert len(pruned.edges) == len(full.edges) - 10
    reports, pruned = _sphere_report_full(star_cover(n), n)  # the default cutoff is 6144
    assert _pruning_loss(reports) == 0
    assert pruned.edges.tolist() == full.edges.tolist()


def _slice_degrees(g: PairingGraph, n: int) -> np.ndarray:
    """Right degrees per coordinate slice, (n, |B|): an edge counts in slice i when its target has a 1 at i."""
    table = np.zeros((n, len(g.vertices)), dtype=np.int64)
    for _, w, t in g.edges.tolist():
        for i in range(n):
            table[i, w] += int(g.targets[t, i] == 1)
    return table


@given(report_instances(), st.integers(0, 12))
@settings(max_examples=20, deadline=None)
@example((6, star_cover(6)), 1)
@example((5, star_cover(5) + [V((1, 1, 2, 2, 1))]), 1)  # a right degree exactly at the cutoff 5, kept
def test_prune_bookkeeping_consistent(instance, factor):
    n, basis = instance
    with mock.patch.object(certificates, "DEGREE_PRUNE_FACTOR", factor):
        reports, pruned = _sphere_report_full(basis, n)
    full = build_pairing_graph(basis, sphere_vectors(n, 3), n)
    before, after = _slice_degrees(full, n), _slice_degrees(pruned, n)
    cutoff = factor * n
    assert before.sum() == 3 * len(full.edges)  # each target lies in three slices
    # the loss is the most incidences one slice cut
    cut = np.where(before > cutoff, before, 0)
    assert _pruning_loss(reports) == cut.sum(axis=1).max()
    # an edge dies exactly when its right end is above the cutoff in one of its slices
    kept = [
        e for e in full.edges.tolist() if not any(cut[i, e[1]] for i in range(n) if full.targets[e[2], i])
    ]
    assert pruned.edges.tolist() == kept
    dead = len(full.edges) - len(kept)
    assert dead <= cut.sum() <= 3 * dead
    assert after.max() <= cutoff
    assert next(r.rhs for r in reports if r.name == "edge_retention") == len(kept)


def case2_pairs_at_one_right_vertex(B, n: int) -> int:
    """Pairs of pruned edges v1-w, v2-w whose v1 - v2 has two 1s and two 2s.

    Asserts that the two targets of each such pair share a coordinate 1:
    t1 - t2 = v1 - v2, so weight-3 0-1 targets differing in four
    coordinates share exactly one 1, and both edges meet in its slice.
    """
    _, g = _sphere_report_full(B, n)
    by_right = defaultdict(list)
    for v, w, t in g.edges.tolist():
        by_right[w].append((v, t))
    count = 0
    for pairs in by_right.values():
        for (v1, t1), (v2, t2) in combinations(pairs, 2):
            if case_of((V(g.vertices[v1]) - V(g.vertices[v2])).coords) == "case2":
                assert (g.targets[t1] & g.targets[t2]).sum() == 1
                count += 1
    return count


@pytest.mark.parametrize("n", [6, 12])
def test_case2_routing_on_small_sphere_cover(n):
    # S_1 + S_2 pairs t = e_i + e_j + e_k (i < j < k) as e_k + (e_i + e_j), so
    # two edges at one w share two coordinates and no pair is of case 2
    assert case2_pairs_at_one_right_vertex(small_spheres(n), n) == 0
    # the star cover {e_0} + {t - e_0} meets e_0 once per target through 0:
    # every two of them sharing only coordinate 0 are a case-2 pair
    assert case2_pairs_at_one_right_vertex(star_cover(n), n) == comb(n - 1, 2) * comb(n - 3, 2) // 2


# ---------------------------------------------------------- component analysis

TRI_A, TRI_B, TRI_C = V((2, 1, 2, 0, 0)), V((2, 2, 1, 0, 0)), V((1, 2, 2, 0, 0))
E1, E2, E3 = V((1, 0, 0, 0, 0)), V((0, 1, 0, 0, 0)), V((0, 0, 1, 0, 0))
TRIANGLE = [(TRI_A, TRI_B, E1), (TRI_B, TRI_C, E2), (TRI_A, TRI_C, E3)]


def test_single_edge_component():
    res = component_analysis([(V((0, 1, 2)), V((1, 2, 1)), V((1, 0, 0)))], (1, 2))
    assert res.tree_count == 1
    assert res.vertex_count == 2
    assert res.distinct_projections == 2  # the projections (1, 2) and (2, 1)
    assert all(r.holds for r in res.reports)
    assert [r.name for r in res.reports] == ["projection_tree_bound", "component_edge_bound"]
    # bytes, 1-D arrays and tuples are read as the vectors are
    edge = (bytes([0, 1, 2]), np.array([1, 2, 1], dtype=np.uint8), (1, 0, 0))
    assert component_analysis([edge], (1, 2)) == res


def test_odd_cycle_collapses_projections():
    res = component_analysis(TRIANGLE, (3, 2))
    assert res.tree_count == 0
    assert res.vertex_count == 3
    assert res.distinct_projections == 1  # the zero projection only
    assert all(r.holds for r in res.reports)


def test_duplicated_tree_edge_is_even_cycle():
    edges = [(TRI_A, TRI_B, E1), (TRI_A, TRI_B, E1)]
    with pytest.raises(InvariantViolationError, match="even cycle"):
        component_analysis(edges, (3, 2))


def test_second_closure_in_one_component_rejected():
    with pytest.raises(InvariantViolationError, match="second independent cycle"):
        component_analysis(TRIANGLE + [(TRI_A, TRI_C, E3)], (3, 2))


def test_component_edge_validation():
    with pytest.raises(ValueError, match="do not sum"):
        component_analysis([(TRI_A, TRI_B, E2)], (3, 2))
    with pytest.raises(ValueError, match="one first-block coordinate"):
        component_analysis([(V((1, 1, 2, 0, 0)), V((1, 1, 1, 0, 0)), V((2, 2, 0, 0, 0)))], (3, 2))
    with pytest.raises(ValueError, match="dimension"):
        component_analysis([(V((0, 1)), V((1, 2)), V((1, 0)))], (3, 2))
    with pytest.raises(ValueError, match=r"matrix entries must lie in \{0, 1, 2\}"):
        component_analysis([(bytes([0, 1, 3]), V((1, 2, 1)), V((1, 0, 0)))], (1, 2))


def test_two_components_counted_separately():
    second = (V((0, 0, 0, 0, 1, 2)), V((0, 1, 0, 0, 2, 1)), V((0, 1, 0, 0, 0, 0)))
    edges = [(V((0, 0, 1, 0, 1, 2)), V((1, 0, 2, 0, 2, 1)), V((1, 0, 0, 0, 0, 0))), second]
    res = component_analysis(edges, (4, 2))
    assert res.tree_count == 2
    assert res.vertex_count == 4
    assert res.distinct_projections == 2  # both edges share the same projection pair


def test_parallel_edges_exceed_the_vertex_count():
    with pytest.raises(InvariantViolationError, match="3 edges on 2 vertices"):
        component_analysis([(TRI_A, TRI_B, E1)] * 3, (3, 2))


# distinct blocks in byte order: zero, (1, 1) without its negative, then (1, 2) and (2, 1)
BLOCKS = np.array([[0, 0, 0], [1, 1, 0], [1, 2, 0], [2, 1, 0]], dtype=np.uint8)
PATH = [(TRI_A, TRI_B, E1), (TRI_B, TRI_C, E2)]  # vertex ids C = 0, A = 1, B = 2


@pytest.mark.parametrize(
    "edges, ids, message",
    [
        (PATH, [1, 2, 3], "carries 3 distinct second-block projections"),
        (PATH, [2, 2, 2], "not negation-closed"),
        (PATH, [1, 1, 1], "not negation-closed"),
        (TRIANGLE, [2, 3, 2], "odd-cycle component with nonzero projection"),
    ],
)
def test_projection_checks_raise_on_projections_that_break_them(edges, ids, message):
    # valid edges always give projections x and -x, so the projections are replaced
    fake = lambda vkeys, split: (np.array(ids), BLOCKS)  # noqa: E731
    with mock.patch.object(certificates, "_projections", fake):
        with pytest.raises(InvariantViolationError, match=message):
            component_analysis(edges, (3, 2))


@st.composite
def component_instances(draw):
    """Edges v1 + v2 = c * e_p with v1 from a growing pool, now and then an invalid one."""
    n1, n2 = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    n = n1 + n2
    vec = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(V)
    pool = [draw(vec)]
    edges = []
    for _ in range(draw(st.integers(0, 8))):
        v1 = draw(st.one_of(st.sampled_from(pool), vec))
        t = unit(n, draw(st.integers(0, n1 - 1)), draw(st.integers(1, 2)))
        pool += [v1, t - v1]
        edges.append((v1, t - v1, t))
    broken = draw(st.sampled_from([None] * 8 + ["target", "end"]))
    if edges and broken:
        v1, v2, t = edges[-1]
        if broken == "target":  # a sum that may leave the first block
            t = draw(vec)
            v2 = t - v1
        else:  # an end that may break the sum
            v2 = draw(vec)
        edges[-1] = (v1, v2, t)
    return (n1, n2), edges


def _component_outcome(fn, edges, split):
    try:
        res = fn(edges, split)
    except InvariantViolationError:
        return "InvariantViolationError"
    except ValueError as exc:
        return ("ValueError", str(exc))
    return res.tree_count, res.vertex_count, res.distinct_projections, _rows(res.reports)


@given(component_instances())
@settings(max_examples=400, deadline=None)
@example(((3, 2), TRIANGLE))
@example(((3, 2), TRIANGLE + [(TRI_A, TRI_C, E3)]))
@example(((3, 2), [(TRI_A, TRI_B, E1)] * 3))
def test_components_match_dense_oracle(instance):
    split, edges = instance
    got = _component_outcome(component_analysis, edges, split)
    assert got == _component_outcome(component_analysis_dense, edges, split)


def _least_roots(size, edges):
    """The least node of each node's component, by a Python union-find."""
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    return [find(x) for x in range(size)]


@pytest.mark.parametrize(
    "size, edges",
    [
        (1000, [(999, k) for k in range(999)]),  # a star hooked on its largest node
        (1000, [(0, k) for k in range(1, 1000)] + [(k, k) for k in range(5)]),
        (1000, [(k, k + 1) for k in range(999)]),  # a path in id order
        (10**5, list(pairwise(np.random.default_rng(7).permutation(10**5).tolist()))),
        (7, [(1, 3), (5, 6)]),  # isolated nodes stay their own roots
        (3, []),
    ],
)
def test_roots_match_union_find(size, edges):
    a, b = (np.array([e[i] for e in edges], dtype=np.int64) for i in (0, 1))
    assert certificates._roots(size, a, b).tolist() == _least_roots(size, edges)


# ---------------------------------------------------------- end-to-end bound


@given(
    st.lists(st.integers(1, 10**12), min_size=1, max_size=40),
    st.lists(st.sampled_from(primes_segmented(200)), unique=True, max_size=16),
    st.sampled_from([3, 5, 7]),
)
@settings(max_examples=100, deadline=None)
@example([2**40, 3**25 * 7, 97**5 * 1_000_003, 1], [97, 2, 3, 7], 3)  # high powers, large cofactor
@example([2**40, 3**25 * 7, 97**5 * 1_000_003, 1], [97, 2, 3, 7], 7)
def test_valuation_columns_match_valuation_loop(values, primes, q):
    # a table far below most values, so both the walk and trial division run
    want = [
        tuple((j, valuation_loop(p, x) % q) for j, p in enumerate(primes) if valuation_loop(p, x) % q)
        for x in values
    ]
    assert valuation_rows(values, sieve(200), primes, q) == want


@given(
    st.lists(
        st.dictionaries(st.integers(0, 7), st.integers(1, 2), max_size=5).map(
            lambda d: tuple(sorted(d.items()))
        ),
        max_size=30,
    )
)
@settings(max_examples=200, deadline=None)
def test_dense_order_sorts_rows_as_their_bytes(rows):
    n = 8
    by_key = sorted(rows, key=_dense_order)
    by_bytes = sorted(rows, key=lambda r: TernaryVector.from_coords(dict(r).get(i, 0) for i in range(n)))
    assert by_key == by_bytes


def _keys_of_rows(rows, n):
    """The key rows of sparse rows."""
    offsets = np.cumsum([0] + [len(r) for r in rows])
    cols = np.array([i for r in rows for i, _ in r], dtype=np.int64)
    res = np.array([c for r in rows for _, c in r], dtype=np.int64)
    return certificates._keys(offsets, cols, res, n)


def _sparse_of_keys(keys, n):
    """The sparse rows of key rows, held as ``certificates._void`` values."""
    rows = keys.view(">u4").reshape(len(keys), keys.itemsize // 4)
    return [tuple((n - k // 3, k % 3) for k in row if k) for row in rows.tolist()]


SPARSE_ROWS = st.lists(
    st.dictionaries(st.integers(0, 7), st.integers(1, 2), max_size=5).map(lambda d: tuple(sorted(d.items()))),
    max_size=30,
)


@given(SPARSE_ROWS)
@settings(max_examples=200, deadline=None)
@example([((0, 1), (3, 2)), (), ((0, 1),), ((0, 1), (3, 2)), (), ((0, 1), (3, 2), (7, 1))])
def test_key_rows_sort_and_dedupe_in_dense_order(rows):
    # rows that are prefixes of one another, the empty row and repeats
    n = 8
    keys = np.unique(certificates._void(_keys_of_rows(rows, n)))
    got = _sparse_of_keys(keys, n)
    assert got == sorted(set(rows), key=_dense_order)


@given(weight_one_instances())
@settings(max_examples=200, deadline=None)
@example((2, [V((0, 0)), V((0, 0)), unit(2, 0, 1), unit(2, 0, 2)], [unit(2, 0, 1), unit(2, 0, 2)]))
@example((3, [V((1, 0, 0)), V((1, 0, 2)), V((1, 2, 2)), V((2, 0, 1))], [unit(3, 0, 2), unit(3, 2, 1)]))
def test_array_join_matches_the_tuple_join(instance):
    # the empty row, repeated rows, and rows that are prefixes of one another
    n, basis, targets = instance
    vecs, tlist = sorted(set(basis)), sorted(set(targets))
    bkeys = np.unique(certificates._void(_keys_of_rows([_sparse(v) for v in basis], n)))
    assert _sparse_of_keys(bkeys, n) == [_sparse(v) for v in vecs]
    tkeys = _keys_of_rows([_sparse(t) for t in tlist], n)[:, 0].astype(np.int64)
    got = certificates._join_weight_one_pairs(bkeys, tkeys).tolist()
    want = _join_weight_one_pairs([_sparse(v) for v in vecs], [_sparse(t) for t in tlist])
    assert [None if k1 < 0 else (k1, k2) for k1, k2 in got] == want


@st.composite
def pipeline_instances(draw):
    """Interval bases of g*(u+M) with junk values, sometimes with a gap."""
    M = draw(st.integers(1, 300))
    u = draw(st.integers(0, M))
    g = draw(st.integers(1, 6))
    top = g * (u + M)
    basis = set(construct_interval_basis(top))
    junk = st.one_of(
        st.integers(1, 10**9),  # mostly past the table
        st.integers(0, 40).map(lambda k: 2**k),
        st.sampled_from(primes_segmented(1000)).map(lambda p: p**3),  # all residues 0
    )
    basis |= set(draw(st.lists(junk, max_size=8)))
    if draw(st.booleans()):
        basis.discard(draw(st.sampled_from(sorted(basis))))
    table = sieve(max(top, 4)) if draw(st.booleans()) else None
    return M, sorted(basis), u, g, table


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineError as exc:
        return ("PipelineError", exc.stage, exc.message)
    except (InvariantViolationError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


@given(pipeline_instances())
@settings(max_examples=150, deadline=None)
@example((1, [1], 0, 1, None))  # no columns at all: the vacuous bound -0.5
@example((100, list(construct_interval_basis(300)) + [2**70], 0, 3, None))  # past int64
def test_pipeline_matches_dense_oracle(instance):
    M, basis, u, g, table = instance
    got = _outcome(end_to_end_lower_bound, M, basis, u=u, g=g, table=table)
    want = _outcome(end_to_end_lower_bound_dense, M, basis, u=u, g=g, table=table)
    assert got == want


@pytest.mark.parametrize(
    "basis, message",
    [
        ([0, 1, 2, 3], "basis elements must be positive, got 0"),
        ([-4, 1, 2, 3], "basis elements must be positive, got -4"),
        ([1.5, 1, 2, 3], "basis elements must be integers"),
    ],
)
def test_pipeline_input_stage_rejects_basis_elements(basis, message):
    # before the cover check, which would raise a bare ValueError or read 1.5 as 1
    for fn in (end_to_end_lower_bound, end_to_end_lower_bound_dense):
        with pytest.raises(PipelineError, match=message) as info:
            fn(7, basis)
        assert info.value.stage == "input"


def test_pipeline_narrow_small_prime_block():
    M = 100
    res = end_to_end_lower_bound(M, construct_interval_basis(M))
    assert not res.sphere_ran
    assert res.sphere_reports == ()
    assert res.p2_size == 1
    assert res.m1_size == 23
    assert res.bound == 23.5
    assert res.basis_size == 38
    assert res.all_hold
    assert [r.name for r in res.chain] == [
        "embedding_collapse",
        "vertex_partition",
        "edges_equal_marks",
        "projection_tree_bound",
        "component_edge_bound",
        "chain_tree_link",
        "chain_half_link",
        "bound_soundness",
    ]


def test_pipeline_with_sphere_stage():
    M = 1000
    res = end_to_end_lower_bound(M, construct_interval_basis(M))
    assert res.sphere_ran
    assert res.p2_size == 3
    assert res.m1_size == 164
    assert res.bound == 169.5
    assert res.basis_size == 243
    assert res.all_hold
    assert [r.name for r in res.sphere_reports] == REPORT_NAMES
    chain_names = [r.name for r in res.chain]
    assert "projection_union" in chain_names
    assert "sphere_block_bound" in chain_names
    assert chain_names[-1] == "bound_soundness"


def test_pipeline_bound_is_sound_and_anchored():
    res = end_to_end_lower_bound(300, construct_interval_basis(300))
    assert res.m1_size - 1 <= res.bound <= res.basis_size


def test_pipeline_rejects_non_cover():
    with pytest.raises(PipelineError, match=r"\[cover\]") as exc:
        end_to_end_lower_bound(10, [1])
    assert exc.value.stage == "cover"


def test_pipeline_rejects_bad_input():
    with pytest.raises(PipelineError) as exc:
        end_to_end_lower_bound(0, [1, 2])
    assert exc.value.stage == "input"
    with pytest.raises(PipelineError) as exc:
        end_to_end_lower_bound(5, [])
    assert exc.value.stage == "input"
    for g in (0, -2):  # a progression needs a positive step
        with pytest.raises(PipelineError, match="g must be positive") as exc:
            end_to_end_lower_bound(5, [1, 2, 3], g=g)
        assert exc.value.stage == "input"


def test_pipeline_holds_no_copy_of_its_progression():
    # the cover check reads g*(u+m) as a range and the pairing join keeps no
    # index of row rests; a list copy of the one and the index push it past 3.3 MiB
    basis = construct_interval_basis(20000)
    assert traced_peak(lambda: end_to_end_lower_bound(20000, basis)) <= 2.5 * 2**20


def test_pipeline_error_survives_a_pickle_round_trip():
    # a worker process raising it reaches the caller through pickle
    err = pickle.loads(pickle.dumps(PipelineError("input", "bad value 7")))
    assert type(err) is PipelineError
    assert str(err) == "[input] bad value 7"
    assert (err.stage, err.message) == ("input", "bad value 7")
