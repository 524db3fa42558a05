import contextlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mulbasis import spherelab
from mulbasis.cli import rng_stream
from mulbasis.spherelab import (
    OVERLAP_MIN_N,
    SMALL_SET_DIVISOR,
    SPHERE_EXACT_MAX_N,
    DifferenceCase,
    _case_of,
    _solution_count,
    as_matrix,
    check_sphere_overlap,
    check_sphere_overlap_general,
    difference_census,
    least_pairs,
    overlap_refined_trial,
    overlap_trial,
    sphere_construction_basis,
    sphere_first_uncovered,
    sphere_min_basis,
    sphere_rows,
)
from oracles import (
    TernaryVector,
    case_of,
    census_brute,
    count_diff_brute,
    dedupe_rows_bytes,
    least_cover_reference,
    lex_least_pairs,
    random_near_sphere_int16,
    row_fingerprints_matmul,
    sphere_cover_verify_bytes,
    sphere_hit_keys_full,
    sphere_min_brute,
    sphere_tuples,
    sphere_vectors,
    traced_peak,
    two_sphere_hits_full,
)

V = TernaryVector.from_coords

coords_strategy = st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=10)


# ------------------------------------------------ reference vectors (oracles)


def test_vector_construction_and_accessors():
    v = V([1, 0, 2, 1])
    assert v.n == 4
    assert v.weight() == 3
    assert v.support() == (0, 2, 3)
    assert not v.is_zero_one()
    assert V([1, 1, 0]).is_zero_one()
    assert TernaryVector.zero(3).weight() == 0
    assert TernaryVector.from_support(5, (1, 3)).coords == bytes([0, 1, 0, 1, 0])


def test_vector_rejects_out_of_field_coordinates():
    for raw in (bytes([3, 0]), bytes([0, 1, 255]), bytes([2, 2, 1, 7])):
        with pytest.raises(ValueError, match="coordinates must lie in"):
            TernaryVector(raw)


def test_vector_projection():
    v = V([1, 0, 2, 1])
    assert v.project([2, 3]).coords == bytes([2, 1])
    assert v.project([]).coords == b""


@given(coords_strategy, coords_strategy)
def test_vector_addition_matches_tuple_arithmetic(a, b):
    n = min(len(a), len(b))
    x, y = V(a[:n]), V(b[:n])
    assert (x + y).coords == bytes((p + q) % 3 for p, q in zip(a, b))
    assert (x - y).coords == bytes((p - q) % 3 for p, q in zip(a, b))
    assert (x - y) + y == x


@given(coords_strategy)
def test_vector_negation_and_doubling_agree(a):
    v = V(a)
    assert v + (-v) == TernaryVector.zero(len(a))
    assert v.scale(2) == -v
    assert v.scale(4) == v.scale(1) == v
    assert v.scale(3) == TernaryVector.zero(len(a))
    assert v.support() == tuple(i for i, c in enumerate(a) if c)


@given(coords_strategy, coords_strategy)
def test_vector_weight_subadditive(a, b):
    n = min(len(a), len(b))
    x, y = V(a[:n]), V(b[:n])
    assert (x + y).weight() <= x.weight() + y.weight()


def test_vector_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        V([1]) + V([1, 2])


def test_as_matrix_round_trips():
    vecs = sphere_vectors(5, 2)
    mat = as_matrix(vecs, 5)
    assert mat.shape == (10, 5)
    assert (as_matrix(mat, 5) == mat).all()
    assert [TernaryVector(r.tobytes()) for r in mat] == vecs
    # bytes rows and 1-D uint8 rows read as their coordinates
    assert (as_matrix([v.coords for v in vecs], 5) == mat).all()
    assert (as_matrix(list(mat), 5) == mat).all()
    assert as_matrix([], 5).shape == (0, 5)
    with pytest.raises(ValueError):
        as_matrix(vecs, 4)
    # coordinate tuples are checked as matrices are, never folded mod 3
    assert as_matrix([(0, 2, 1)], 3).tolist() == [[0, 2, 1]]
    # an array is checked before its cast to uint8, which would wrap 257 and -255
    # to 1 and truncate 1.7 to 1
    for rows in (
        [(0, 3, 1)], [(0, -1, 1)], [b"\x00\x03\x01"],
        np.array([[0, 3, 1]]), np.array([[0, 257, 1]]), np.array([[0, -255, 1]]),
    ):
        with pytest.raises(ValueError, match=r"matrix entries must lie in \{0, 1, 2\}"):
            as_matrix(rows, 3)
    with pytest.raises(ValueError, match="not sequences of integer entries"):
        as_matrix(np.array([[0, 1.7, 1]]), 3)
    assert as_matrix(np.array([[0, 2, 1]], dtype=np.int64), 3).tolist() == [[0, 2, 1]]
    # rows are read by entry value: an integer array row as its values, not its
    # buffer, and a bare int as no row, not as that many zero bytes
    assert as_matrix([np.array([1, 0, 2]), np.array([2, 2, 0], dtype=np.uint8)], 3).tolist() == [[1, 0, 2], [2, 2, 0]]
    with pytest.raises(ValueError, match="not a sequence of integer entries"):
        as_matrix([3], 3)
    with pytest.raises(ValueError, match=r"matrix entries must lie in \{0, 1, 2\}"):
        as_matrix([np.array([1, 0, 3])], 3)
    with pytest.raises(ValueError, match=r"matrix entries must lie in \{0, 1, 2\}"):
        check_sphere_overlap([(0, 0, 0, 0)], [(1, 1, 0, 3)], 4)


# -------------------------------------------------------- enumeration


def test_enumerate_sphere_examples():
    assert sphere_rows(3, 3).tolist() == [[1, 1, 1]]
    assert sphere_rows(5, 2).shape == (10, 5)
    ten_three = sphere_rows(10, 3)
    assert ten_three.dtype == np.uint8 and ten_three.shape == (120, 10)
    assert len(np.unique(ten_three, axis=0)) == 120
    assert ten_three.max() == 1 and (ten_three.sum(axis=1) == 3).all()
    assert [TernaryVector(r.tobytes()) for r in ten_three] == sphere_vectors(10, 3)


def test_enumerate_sphere_is_support_ordered():
    supports = [tuple(np.flatnonzero(r).tolist()) for r in sphere_rows(6, 3)]
    assert supports == sorted(supports)


def test_enumerate_sphere_rejects_heavy_weight():
    with pytest.raises(ValueError, match="weight 3 exceeds dimension 2"):
        sphere_rows(2, 3)
    assert sphere_rows(0, 0).shape == (1, 0)


# ----------------------------------------------------- classification


def test_classify_examples():
    assert _case_of(bytes([1, 1, 1, 2, 2, 2])) is DifferenceCase.CASE1
    assert _case_of(bytes([1, 1, 2, 2, 0, 0])) is DifferenceCase.CASE2
    assert _case_of(bytes([1, 2, 0, 0, 0, 0])) is DifferenceCase.CASE3
    assert _case_of(bytes([1, 0, 0, 0, 0, 0])) is DifferenceCase.OTHER
    assert _case_of(bytes(6)) is DifferenceCase.ZERO
    assert _case_of(bytes([1, 2, 0])) is DifferenceCase.CASE3  # the case needs no particular n


@given(coords_strategy)
def test_classify_matches_oracle(a):
    assert _case_of(V(a).coords).value == case_of(tuple(c % 3 for c in a))


def _count(d) -> int:
    """The closed-form pair count for the difference d."""
    return _solution_count(_case_of(bytes(d)), len(d))


def test_count_formulas_pinned_values():
    case2 = [1, 1, 2, 2, 0, 0, 0]
    assert _count(case2) == 3
    assert _count(case2) < 7
    case3 = [1, 2, 0, 0, 0, 0]
    assert _count(case3) == 6 == math.comb(4, 2)
    assert _count(case3) < 36
    assert _count([1, 1, 1, 2, 2, 2]) == 1
    assert _count([0] * 6) == math.comb(6, 3)
    assert _count([1, 0, 0, 0, 0, 0]) == 0


@given(st.integers(min_value=3, max_value=8), st.data())
@settings(max_examples=60, deadline=None)
def test_count_formulas_match_brute_force(n, data):
    d = data.draw(st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n))
    assert _count(d) == count_diff_brute(d, n)


def test_census_matches_brute_oracle():
    for n in (6, 7):
        census = difference_census(n)
        oracle = census_brute(n)
        assert census.total_pairs == oracle["total"] == math.comb(n, 3) ** 2
        assert census.identity_ok
        assert census.other_seen == 0
        by_case = {row.case.value: row for row in census.rows}
        for label, counts in oracle["cases"].items():
            assert counts == {by_case[label].formula_count}
            assert by_case[label].enumerated_count == max(counts)


def test_census_small_dimensions_hold():
    for n in range(3, 11):
        census = difference_census(n)
        assert census.all_hold, n
        cases = {row.case.value for row in census.rows}
        assert "zero" in cases
        if n >= 6:
            assert "case1" in cases
        if n >= 4:
            assert "case2" in cases or n < 5  # case2 needs n-4 > 0 to appear


def test_census_strict_bounds():
    census = difference_census(9)
    for row in census.rows:
        if row.case is DifferenceCase.CASE2:
            assert 0 < row.enumerated_count < 9
        if row.case is DifferenceCase.CASE3:
            assert 0 < row.enumerated_count < 81


# ------------------------------------------------------------- covers


def _gap(basis, n):
    """``sphere_first_uncovered`` as a reference vector, or None."""
    gap = sphere_first_uncovered(basis, n)
    return None if gap is None else V(gap)


def _witness(basis, n):
    """Each target of S_3(n) in support order with its ``least_pairs`` pair, or None."""
    vecs = sorted(set(basis))
    pairs = least_pairs(as_matrix(vecs, n), sphere_rows(n, 3))
    targets = sphere_vectors(n, 3)
    return {t: None if i < 0 else (vecs[i], vecs[j]) for t, (i, j) in zip(targets, pairs.tolist())}


def test_cover_verify_single_double():
    assert sphere_first_uncovered({V([2, 2, 2])}, 3) is None
    assert _witness({V([2, 2, 2])}, 3) == {V([1, 1, 1]): (V([2, 2, 2]), V([2, 2, 2]))}


def test_cover_verify_empty_basis():
    assert sphere_first_uncovered(set(), 4).tolist() == [1, 1, 1, 0]
    assert sphere_first_uncovered(np.zeros((0, 4), dtype=np.uint8), 4).tolist() == [1, 1, 1, 0]


def test_cover_verify_construction_witnesses():
    basis = sphere_vectors(4, 1) + sphere_vectors(4, 2)
    assert sphere_first_uncovered(basis, 4) is None
    for target, (b1, b2) in _witness(basis, 4).items():
        assert b1 + b2 == target
        assert b1 <= b2


def test_cover_verify_picks_lexicographically_smallest_pair():
    basis = set(sphere_vectors(6, 1)) | set(sphere_vectors(6, 2))
    blist = sorted(basis)
    for target, (b1, b2) in _witness(basis, 6).items():
        for c1 in blist:
            if c1 == b1:
                break
            assert (target - c1) not in basis, (target, c1)


def test_cover_verify_reports_first_gap_in_order():
    # remove the partner of the first target from the construction
    basis = set(sphere_vectors(5, 1)) | set(sphere_vectors(5, 2))
    first = sphere_vectors(5, 3)[0]
    basis -= {V([1, 0, 0, 0, 0]), V([0, 1, 1, 0, 0])}
    # (1,1,1,0,0) may still be covered by other pairs; check consistency instead
    witness = _witness(basis, 5)
    assert _gap(basis, 5) == next((t for t, pair in witness.items() if pair is None), None)
    if witness[first] is not None:
        assert witness[first][0] + witness[first][1] == first


def test_cover_verify_construction_at_n33():
    # past 32 coordinates; the lex-least split of {i, j, k}, i < j < k, is
    # e_k + e_ij, since e_k has the latest leading coordinate of the six parts
    basis = sphere_vectors(33, 1) + sphere_vectors(33, 2)
    assert sphere_first_uncovered(basis, 33) is None
    for target, pair in _witness(basis, 33).items():
        i, j, k = target.support()
        assert pair == (TernaryVector.from_support(33, (k,)), TernaryVector.from_support(33, (i, j)))


def _cover_fields(basis, n):
    """(covered, witness, first gap) as the byte reference gives them: pairs up to the gap."""
    gap = _gap(basis, n)
    witness = {}
    for t, pair in _witness(basis, n).items():
        if t == gap:
            break
        witness[t] = pair
    return gap is None, witness, gap


@st.composite
def perturbed_covers(draw):
    """S_1 | S_2 covers with random deletions and random extra vectors.

    Deleting the three singletons of a target uncovers it (its three
    splits each lose a part); extras paired with t - extra open lex-smaller
    splits of t.
    """
    # past 32 coordinates the byte reference walks ~1.5M (target, b) pairs
    # per cover, so those widths are drawn rarely
    n = draw(st.sampled_from([*range(3, 13)] * 3 + [33, 34]))
    basis = set(sphere_vectors(n, 1) + sphere_vectors(n, 2))
    support = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
    for gap in draw(st.lists(support, max_size=2)):
        basis -= {TernaryVector.from_support(n, (i,)) for i in gap}
    ordered = sorted(basis)
    for i in draw(st.sets(st.integers(0, len(ordered) - 1), max_size=4)):
        basis.discard(ordered[i])
    sparse = st.dictionaries(st.integers(0, n - 1), st.integers(1, 2), max_size=3)
    for coords, target in draw(st.lists(st.tuples(sparse, st.one_of(st.none(), support)), max_size=4)):
        extra = V([coords.get(i, 0) for i in range(n)])
        basis.add(extra)
        if target is not None:
            basis.add(TernaryVector.from_support(n, target) - extra)
    return n, basis


@given(perturbed_covers())
@settings(max_examples=40, deadline=None)
@example((3, {V([1, 0, 0]), V([0, 1, 1]), V([2, 2, 2])}))
def test_cover_verify_matches_byte_reference(instance):
    n, basis = instance
    assert _cover_fields(basis, n) == sphere_cover_verify_bytes(basis, n)


def test_cover_verify_matches_byte_reference_on_a_late_gap():
    n = 33
    last = sphere_vectors(n, 3)[-1]
    basis = set(sphere_vectors(n, 1) + sphere_vectors(n, 2)) - {
        TernaryVector.from_support(n, (i,)) for i in last.support()
    }
    assert _gap(basis, n) == last
    assert _cover_fields(basis, n) == sphere_cover_verify_bytes(basis, n)


def test_first_uncovered_takes_what_as_matrix_takes():
    n = 5
    # without e_1, e_2 and e_3 only the target e_1 + e_2 + e_3 loses every split
    singles = {TernaryVector.from_support(n, (i,)) for i in (1, 2, 3)}
    basis = sorted(set(sphere_vectors(n, 1) + sphere_vectors(n, 2)) - singles)
    gap = sphere_first_uncovered(basis, n)
    assert gap.dtype == np.uint8 and gap.shape == (n,)
    assert V(gap) == TernaryVector.from_support(n, (1, 2, 3)) == sphere_cover_verify_bytes(basis, n)[2]
    forms = (
        set(basis),
        [tuple(v.coords) for v in basis],
        [v.coords for v in basis],
        list(as_matrix(basis, n)),
        as_matrix(basis, n),
        as_matrix(basis[::-1], n),
    )
    for form in forms:
        assert sphere_first_uncovered(form, n).tolist() == gap.tolist()
    assert sphere_first_uncovered(basis + basis, n).tolist() == gap.tolist()  # repeated rows change nothing
    with pytest.raises(ValueError, match="weight 3 exceeds dimension 2"):
        sphere_first_uncovered([], 2)
    with pytest.raises(ValueError, match="vector of dimension 5, expected 4"):
        sphere_first_uncovered(basis, 4)
    for row in ((0, 0, 0, 0, 3), bytes([0, 0, 0, 0, 3])):
        with pytest.raises(ValueError, match=r"matrix entries must lie in \{0, 1, 2\}"):
            sphere_first_uncovered([row], n)


def test_least_pairs_gives_minus_one_per_uncovered_target():
    basis = sorted({V([1, 0, 0]), V([0, 1, 1]), V([2, 2, 2])})
    targets = [V([1, 1, 1]), V([0, 0, 1]), V([2, 2, 2])]
    pairs = least_pairs(as_matrix(basis, 3), as_matrix(targets, 3))
    assert pairs.dtype == np.int64
    assert basis[:2] == [V([0, 1, 1]), V([1, 0, 0])]
    assert pairs.tolist() == [[0, 1], [-1, -1], [-1, -1]]
    assert least_pairs(as_matrix([], 3), as_matrix(targets, 3)).tolist() == [[-1, -1]] * 3
    assert least_pairs(as_matrix(basis, 3), as_matrix([], 3)).shape == (0, 2)


@st.composite
def pair_instances(draw):
    """A small sorted basis over F_3^n and distinct targets of any kind.

    Targets mix arbitrary vectors (mostly uncovered, most not 0-1) with
    sums of two drawn basis vectors, self-pairs b + b among them.
    """
    n = draw(st.integers(1, 8))
    vec = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(V)
    basis = sorted(set(draw(st.lists(vec, max_size=12))))
    targets = draw(st.lists(vec, max_size=8))
    if basis:
        index = st.integers(0, len(basis) - 1)
        for i, j in draw(st.lists(st.tuples(index, index), max_size=8)):
            targets.append(basis[i] + basis[j])
    return n, basis, list(dict.fromkeys(draw(st.permutations(targets))))


@given(pair_instances(), st.sampled_from([1, 40, 1 << 20]))
@settings(max_examples=200, deadline=None)
@example((3, [], [V([1, 1, 1])]), 1 << 20)  # empty basis
@example((3, [V([1, 0, 0])], []), 1 << 20)  # empty target list
@example((3, [V([2, 2, 2])], [V([1, 1, 1])]), 1 << 20)  # self-pair
@example((2, [V([0, 1]), V([1, 0]), V([1, 1])], [V([1, 2]), V([2, 2])]), 1 << 20)  # 01 + 11, 11 + 01
def test_least_pairs_matches_per_target_scan(instance, block):
    # block sizes of 1 byte (one basis row per block) and 40 bytes split the
    # sums of a basis over several blocks
    n, basis, targets = instance
    with mock.patch.object(spherelab, "_PAIR_BLOCK", block):
        pairs = least_pairs(as_matrix(basis, n), as_matrix(targets, n))
    got = [None if i < 0 else (basis[i], basis[j]) for i, j in pairs.tolist()]
    assert got == list(lex_least_pairs(basis, targets, n))
    assert all(i <= j for i, j in pairs.tolist())


def test_least_pairs_rejects_rows_without_coordinates():
    with pytest.raises(ValueError, match="at least one coordinate"):
        least_pairs(np.zeros((1, 0), dtype=np.uint8), np.zeros((1, 0), dtype=np.uint8))


# ------------------------------------------------------- construction


def test_construct_n3():
    basis = sphere_construction_basis(3)
    assert len(basis) == 6
    assert sphere_first_uncovered(basis, 3) is None


def test_construct_n10():
    basis = sphere_construction_basis(10)
    assert basis.dtype == np.uint8 and basis.shape == (55, 10)
    assert sphere_first_uncovered(basis, 10) is None
    for target, (b1, b2) in _witness(map(V, basis), 10).items():
        assert b1 + b2 == target


def test_construction_basis_splits_each_target():
    # the cover proof of the docstring: e_i + e_j + e_k = e_i + e_jk, i < j < k
    n = 7
    basis = set(map(V, sphere_construction_basis(n)))
    for target in sphere_vectors(n, 3):
        i, j, k = target.support()
        single, double = TernaryVector.from_support(n, (i,)), TernaryVector.from_support(n, (j, k))
        assert single in basis and double in basis
        assert single + double == target


def test_construct_rejects_tiny_dimension():
    with pytest.raises(ValueError, match="construction needs n >= 3, got 2"):
        sphere_construction_basis(2)


def test_construction_basis_is_the_constructed_basis():
    for n in (3, 7, 33):
        basis = [V(row) for row in sphere_construction_basis(n)]
        assert basis == sphere_vectors(n, 1) + sphere_vectors(n, 2)
        assert len(set(basis)) == len(basis)


def test_construct_size_formula():
    for n in (3, 8, 17, 32):
        assert len(sphere_construction_basis(n)) == n * (n + 1) // 2


# ------------------------------------------------------ exact minimum


def test_min_basis_dimension_three():
    sol = sphere_min_basis(3)
    assert sol.size == 1
    assert sol.optimal
    assert sol.basis.dtype == np.uint8 and sol.basis.tolist() == [[2, 2, 2]]
    assert sphere_min_brute(3) == (1, ((2, 2, 2),))


def test_min_basis_degenerate_dimensions():
    for n in (0, 1, 2):
        sol = sphere_min_basis(n)
        assert sol.size == 0
        assert sol.basis.dtype == np.uint8 and sol.basis.shape == (0, n)
        assert sol.optimal


def test_min_basis_dimension_four_matches_oracle():
    expected, brute_basis = sphere_min_brute(4)
    sol = sphere_min_basis(4)
    assert sol.optimal
    assert sol.size == expected == 4
    assert sol.size >= 3  # counting bound: C(4,3) targets need k(k+1)/2 >= 4
    assert sol.basis.tolist() == [[0, 0, 1, 2], [0, 0, 2, 1], [0, 2, 2, 2], [1, 1, 2, 2]]  # lex-sorted
    # the brute force's first hit is the lex-least optimum: that set's least
    # element is least in its permutation orbit, or a permuted copy of the
    # set would sort first
    assert set(map(tuple, sol.basis.tolist())) == set(brute_basis)
    assert sphere_first_uncovered(sol.basis, 4) is None


def test_min_basis_budget_exhaustion_falls_back():
    sol = sphere_min_basis(4, budget=10)
    assert not sol.optimal
    assert sol.size == 5  # the first pass's incumbent {0} | S_3, below |S1 | S2| = 10
    assert sol.basis[0].tolist() == [0, 0, 0, 0]
    assert sphere_first_uncovered(sol.basis, 4) is None


def test_min_basis_budgets_follow_the_search_contract():
    # n = 4: the first pass proves size 4 in 2461 nodes, both passes take 12212
    first_basis = [[0, 0, 1, 2], [0, 1, 0, 2], [1, 0, 0, 2], [1, 1, 0, 1]]
    lex_least = [[0, 0, 1, 2], [0, 0, 2, 1], [0, 2, 2, 2], [1, 1, 2, 2]]
    for budget in (2460, 2461, 5000, 12211, 12212):
        sol = sphere_min_basis(4, budget=budget)
        assert sol.optimal == (budget >= 2461), budget
        assert sol.nodes_explored == min(budget + 1, 12212), budget
        assert sol.basis.tolist() == (lex_least if budget >= 12212 else first_basis), budget
        assert sphere_first_uncovered(sol.basis, 4) is None, budget


def test_min_basis_rejects_large_dimension():
    with pytest.raises(ValueError, match=f"n <= {SPHERE_EXACT_MAX_N}; got n={SPHERE_EXACT_MAX_N + 1}"):
        sphere_min_basis(SPHERE_EXACT_MAX_N + 1)
    sol = sphere_min_basis(5, budget=10)  # fallback still works
    assert not sol.optimal
    assert sol.size == 11  # {0} | S_3, below |S1 | S2| = 15
    assert sphere_first_uncovered(sol.basis, 5) is None


def _sphere_pairs(n):
    """Each weight-3 target's pairs (i, j), i <= j, of lex indices of F_3^n with v_i + v_j = t."""
    vectors = list(itertools.product(range(3), repeat=n))
    index = {v: i for i, v in enumerate(vectors)}
    pairs = {}
    for t in sphere_tuples(n, 3):
        partners = [index[tuple((x - y) % 3 for x, y in zip(t, v))] for v in vectors]
        pairs[index[t]] = [(i, j) for i, j in enumerate(partners) if i <= j]
    return pairs


def test_min_basis_dimension_five_is_two_j_plus_two_e_i():
    # the search itself is pinned byte for byte by the sphere-min-basis_n5
    # golden; here the basis it finds is checked on its own.
    # b_i = 2J + 2e_i: b_i + b_j = J - e_i - e_j, of weight 3 at n = 5
    basis = {V([2 if l != i else 1 for l in range(5)]) for i in range(5)}
    assert sphere_first_uncovered(basis, 5) is None
    # no cover of size 4: the reference search, which rebuilds its state
    # at every node, finishes inside its budget without one
    pairs = _sphere_pairs(5)
    found, nodes = least_cover_reference(sorted(pairs), pairs, 5)
    assert found is None
    assert nodes <= 2_000_000


# ------------------------------------------------------------ overlap


def test_overlap_empty_x_is_trivial():
    res = check_sphere_overlap(np.zeros((0, 8), dtype=np.uint8), np.ones((3, 8), dtype=np.uint8), 8)
    assert res.lhs == 0
    assert res.holds


def test_overlap_zero_shift_counts_sphere_rows():
    n = 64
    y = sphere_rows(n, 2)[:40]
    x = np.zeros((1, n), dtype=np.uint8)
    res = check_sphere_overlap(x, y, n)
    assert res.lhs == 40
    assert res.holds
    assert not res.n_large_enough


def test_overlap_at_claimed_scale():
    n = OVERLAP_MIN_N
    rng = np.random.Generator(np.random.Philox(key=[7, 0]))
    res = overlap_trial(n, 2, 400, rng)
    assert res.hypotheses_ok
    assert res.n_large_enough
    assert res.holds
    assert res.bound == n * n / 50


def test_overlap_hypothesis_flags():
    n = 64
    x = np.zeros((1, n), dtype=np.uint8)
    y = np.zeros((90, n), dtype=np.uint8)
    res = check_sphere_overlap(x, y, n)
    assert not res.hypotheses_ok  # 90 distinct? all-equal rows dedupe to 1
    # 90 identical rows collapse: y_size counts distinct elements
    assert res.y_size == 1


def test_overlap_counts_distinct_sums_only():
    n = 16
    x = np.zeros((2, n), dtype=np.uint8)  # duplicate zero rows
    y = sphere_rows(n, 2)[:5]
    res = check_sphere_overlap(x, y, n)
    assert res.x_size == 1
    assert res.lhs == 5


def test_overlap_general_zero_shift():
    n = 2048
    # first 300 weight-2 vectors in support-lex order, without the full C(n,2) list
    b = as_matrix([TernaryVector.from_support(n, (0, j)) for j in range(1, 301)], n)
    a = np.zeros((1, n), dtype=np.uint8)
    res = check_sphere_overlap_general(a, b, n)
    assert res.lhs == 300
    assert res.pair_bound == math.comb(n, 2) - math.comb(n - 1, 2) + 300
    assert res.linear_bound == n + 300
    assert res.holds


def test_overlap_general_enforces_small_a():
    n = 100
    a = sphere_rows(n, 1)[:5]
    b = np.zeros((1, n), dtype=np.uint8)
    with pytest.raises(ValueError, match="exceeds"):
        check_sphere_overlap_general(a, b, n)


def test_overlap_general_trials_hold():
    for stream in range(10):
        rng = np.random.Generator(np.random.Philox(key=[11, stream]))
        res = overlap_refined_trial(1100, 1, 50, rng)
        assert res.holds
        assert res.pair_bound <= res.linear_bound


def test_overlap_trial_determinism():
    r1 = overlap_trial(2048, 2, 100, np.random.Generator(np.random.Philox(key=[3, 5])))
    r2 = overlap_trial(2048, 2, 100, np.random.Generator(np.random.Philox(key=[3, 5])))
    assert r1 == r2


def test_overlap_trial_holds_y_once():
    # the criterion-3 trial: of Y, |Y| * n bytes, no row is held, only chunks of rows
    n, y_size = OVERLAP_MIN_N, 41943
    assert traced_peak(lambda: overlap_trial(n, 2, y_size, rng_stream(0, 0))) <= 0.15 * y_size * n


def test_overlap_refined_trial_holds_b_once():
    # the dimension of the sphere-overlap-general golden, with |B| = n^2 / 100 as in criterion 3
    n, b_size = 1100, 12100
    assert traced_peak(lambda: overlap_refined_trial(n, 1, b_size, rng_stream(0, 0))) <= 0.35 * b_size * n


def _philox(*key):
    return np.random.Generator(np.random.Philox(key=list(key)))


def _near(x, cols, sums):
    """-x, moved at each of ``cols`` so that x + y is the matching entry of ``sums``."""
    x = np.asarray(x, dtype=np.int64)
    y = -x % 3
    for c, s in zip(cols, sums):
        y[c] = (s - x[c]) % 3
    return y.astype(np.uint8)


@st.composite
def overlap_rows(draw):
    """(n, X, Y) with duplicate rows and many rows one or two moves from -x."""
    n = draw(st.integers(min_value=1, max_value=72))  # across the 16-column lead block and the 32-column key
    row = st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n)
    xs = draw(st.lists(row, min_size=1, max_size=4))
    xs += draw(st.lists(st.sampled_from(xs), max_size=2))
    ys = draw(st.lists(row, max_size=4))
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        x = np.array(draw(st.sampled_from(xs)))
        span = draw(st.sampled_from([min(n, spherelab._LEAD), n]))  # lead block only, or anywhere
        cols = draw(st.lists(st.integers(min_value=0, max_value=span - 1), max_size=min(4, span), unique=True))
        sums = draw(st.lists(st.integers(min_value=1, max_value=2), min_size=len(cols), max_size=len(cols)))
        ys.append(_near(x, cols, sums).tolist())
    if ys:
        ys += draw(st.lists(st.sampled_from(ys), max_size=3))
    return n, np.array(xs, dtype=np.uint8).reshape(-1, n), np.array(ys, dtype=np.uint8).reshape(-1, n)


@given(overlap_rows())
@settings(max_examples=300, deadline=None)
def test_overlap_kernels_match_reference(case):
    n, xmat, ymat = case
    xref, yref = dedupe_rows_bytes(xmat), dedupe_rows_bytes(ymat)
    assert np.array_equal(spherelab._dedupe_rows(xmat), xref)
    assert np.array_equal(spherelab._dedupe_rows(ymat), yref)
    expected = two_sphere_hits_full(xref, yref, n)
    assert spherelab._two_sphere_hits(xref, [yref], n) == expected
    assert spherelab._two_sphere_hits(xmat, [ymat], n) == expected  # duplicates add no sums
    with mock.patch.object(spherelab, "_HIT_CHUNK", 2):
        assert spherelab._two_sphere_hits(xref, [yref], n) == expected
    res = check_sphere_overlap(xmat, ymat, n)
    assert (res.x_size, res.y_size, res.lhs) == (len(xref), len(yref), expected)


def _parity(n):
    # fingerprint weights that keep one bit, the parity of the bytes that start a word and of the
    # trailing bytes, so distinct rows often share a fingerprint; a near-sphere block's follow them
    return np.full(n // 8 + n % 8, 1 << 63, dtype=np.uint64)


@contextlib.contextmanager
def _clashes():
    """Every row reaches the fingerprint level, one lead key for all, where distinct rows often clash."""
    with mock.patch.object(spherelab, "_KEY_COLS", 0), mock.patch.object(spherelab, "_fingerprint_weights", _parity):
        yield


@given(overlap_rows())
@settings(max_examples=100, deadline=None)
def test_dedupe_settles_fingerprint_collisions_by_bytes(case):
    _, _, ymat = case
    with _clashes():
        assert np.array_equal(spherelab._dedupe_rows(ymat), dedupe_rows_bytes(ymat))
        assert spherelab._distinct_count([ymat]) == len(dedupe_rows_bytes(ymat))


@st.composite
def split_overlap_rows(draw):
    """overlap_rows() with Y cut at random points into 1-4 blocks, empty ones included."""
    n, xmat, ymat = draw(overlap_rows())
    cuts = draw(st.lists(st.integers(min_value=0, max_value=len(ymat)), max_size=3))
    return n, xmat, ymat, np.split(ymat, sorted(cuts))


@given(split_overlap_rows())
@settings(max_examples=200, deadline=None)
def test_overlap_kernels_read_y_blocks_as_their_concatenation(case):
    n, xmat, ymat, blocks = case
    xref, yref = dedupe_rows_bytes(xmat), dedupe_rows_bytes(ymat)
    expected = two_sphere_hits_full(xref, yref, n)
    for patch in (
        contextlib.nullcontext(),
        _clashes(),  # clashes across blocks
        mock.patch.object(spherelab, "_HIT_CHUNK", 2),
    ):
        with patch:
            assert np.array_equal(ymat[spherelab._first_occurrences(blocks)], yref)
            assert spherelab._distinct_count(blocks) == len(yref)
            assert spherelab._two_sphere_hits(xref, blocks, n) == expected
            assert spherelab._two_sphere_hits(xmat, blocks, n) == expected
            for y in (blocks, tuple(blocks)):
                res = check_sphere_overlap(xmat, y, n)
                assert (res.x_size, res.y_size, res.lhs) == (len(xref), len(yref), expected)


def test_two_sphere_hits_counts_a_sum_from_two_x_once():
    n = 20
    x1 = (np.arange(n) % 3).astype(np.uint8)
    x2 = (x1 + 1) % 3
    y = np.array(
        [
            _near(x1, (0, 5), (1, 1)),  # e_0 + e_5 ...
            _near(x2, (0, 5), (1, 1)),  # ... again, from the other x
            _near(x2, (3, 17), (1, 1)),  # one lead and one tail column
            _near(x1, (1, 4), (1, 2)),  # two lead mismatches, one sum of 2
            _near(x1, (2, 6, 18), (1, 1, 1)),  # two lead mismatches, one in the tail
        ]
    )
    x = np.array([x1, x2])
    assert two_sphere_hits_full(x, y, n) == 2
    assert spherelab._two_sphere_hits(x, [y], n) == 2
    assert spherelab._two_sphere_hits(x, [y[:1], y[1:]], n) == 2  # the pair from two blocks


@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**32),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_random_near_sphere_matches_reference(n, count, k, seed, data):
    shifts = _philox(seed, 0).integers(0, 3, size=(k, n), dtype=np.uint8)
    new_rng, ref_rng = _philox(seed, 1), _philox(seed, 1)
    block = spherelab._random_near_sphere(new_rng, count, n, shifts)
    ref = random_near_sphere_int16(ref_rng, count, n, shifts)
    assert new_rng.integers(1 << 62) == ref_rng.integers(1 << 62)  # both consumed the same draws
    assert len(block) == count and block.shape == ref.shape
    # the rows are built on demand: the full slice, empty and random slices, and index arrays
    bound = st.integers(min_value=-count - 2, max_value=count + 2) | st.none()
    step = st.sampled_from([None, 1, 2, -1, -3])
    keys = [slice(None), slice(0, 0), slice(count, None), np.zeros(0, dtype=np.int64)]
    keys += [slice(data.draw(bound), data.draw(bound), data.draw(step)) for _ in range(3)]
    if count:
        rows = st.lists(st.integers(min_value=0, max_value=count - 1), max_size=2 * count)
        keys += [np.array(data.draw(rows), dtype=np.int64) for _ in range(3)]
    for key in keys:
        got = block[key]
        assert got.dtype == np.uint8
        assert np.array_equal(got, ref[key]), key


@given(
    split_overlap_rows(),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=100, deadline=None)
def test_overlap_kernels_read_a_near_sphere_block_as_its_rows(case, count, seed):
    n, xmat, ymat, _ = case
    if n < 2:
        return  # a near-sphere row moves two distinct columns
    lazy = spherelab._random_near_sphere(_philox(seed, 2), count, n, xmat)
    rows = lazy[:]
    # U also repeats some near-sphere rows, so first occurrences cross the blocks
    u = np.concatenate([ymat, rows[: count // 2]])
    for patch in (
        contextlib.nullcontext(),
        _clashes(),  # clashes across blocks
        mock.patch.object(spherelab, "_HIT_CHUNK", 2),
    ):
        with patch:
            assert np.array_equal(
                spherelab._first_occurrences([u, lazy]), spherelab._first_occurrences([u, rows])
            )
            assert spherelab._distinct_count([u, lazy]) == spherelab._distinct_count([u, rows])
            hits = spherelab._two_sphere_hits(xmat, [u, rows], n)
            assert spherelab._two_sphere_hits(xmat, [u, lazy], n) == hits
            assert check_sphere_overlap(xmat, [u, lazy], n) == check_sphere_overlap(xmat, [u, rows], n)
            assert check_sphere_overlap(xmat, (lazy,), n) == check_sphere_overlap(xmat, rows, n)


@given(
    st.integers(min_value=2, max_value=80),  # across 8-byte words, with and without trailing bytes, past the key
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=100, deadline=None)
def test_near_block_keys_and_fingerprints_match_its_rows(n, count, k, seed):
    shifts = _philox(seed, 0).integers(0, 3, size=(k, n), dtype=np.uint8)
    block = spherelab._random_near_sphere(_philox(seed, 1), count, n, shifts)
    rows = block[:]
    assert np.array_equal(block.keys, spherelab._lead_keys(rows))
    weights = spherelab._fingerprint_weights(n)
    idx = _philox(seed, 2).integers(0, max(count, 1), size=count)  # an index array with repeats
    assert np.array_equal(block.fingerprints(idx, weights), spherelab._row_fingerprints(rows[idx], weights))
    assert block.fingerprints(idx, weights).dtype == np.uint64


@st.composite
def near_blocks(draw):
    """(n, x, shifts, lazy): a near-sphere block whose shifts lie at Hamming distance 0-5 from x.

    Hits come from shifts 0, 2 or 4 columns from x, the last two only
    when a row's drawn columns lie where its shift differs from x, so
    about half the rows draw both columns there.
    """
    n = draw(st.integers(min_value=2, max_value=12))
    x = np.array(draw(st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n)), dtype=np.uint8)
    shifts, diffs = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        d = draw(st.integers(min_value=0, max_value=min(5, n)))
        cols = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=d, max_size=d, unique=True))
        steps = draw(st.lists(st.integers(min_value=1, max_value=2), min_size=d, max_size=d))
        shift = x.copy()
        shift[cols] = (x[cols] + np.array(steps, dtype=np.uint8)) % 3
        shifts.append(shift)
        diffs.append(cols)
    drawn = []
    for i in range(draw(st.integers(min_value=0, max_value=30))):
        diff = diffs[i % len(shifts)]
        col = st.sampled_from(diff) if len(diff) >= 2 and draw(st.booleans()) else st.integers(min_value=0, max_value=n - 1)
        drawn.append(draw(st.lists(col, min_size=2, max_size=2, unique=True)))
    drawn = np.array(drawn, dtype=np.int64).reshape(-1, 2)
    shifts = np.array(shifts)
    return n, x, shifts, spherelab._NearSphereRows(shifts, drawn)


@given(near_blocks())
@settings(max_examples=300, deadline=None)
def test_near_block_hits_match_its_rows(case):
    n, x, shifts, lazy = case
    rows = lazy[:]
    assert np.array_equal(np.sort(lazy.hit_keys(x)), sphere_hit_keys_full(x, rows, n))
    xmat = np.concatenate([x[None], shifts[:1]])  # x, and a shift itself
    expected = two_sphere_hits_full(xmat, rows, n)
    assert spherelab._two_sphere_hits(xmat, [lazy], n) == expected
    assert spherelab._two_sphere_hits(xmat, [rows], n) == expected


def test_near_block_keys_hits_of_a_shift_four_columns_from_x():
    n = 8
    x = np.zeros(n, dtype=np.uint8)
    far = np.array([1, 1, 2, 2, 0, 0, 0, 0], dtype=np.uint8)  # drawn at 0 and 1, leaves e_2 + e_3
    farther = np.array([1, 1, 2, 2, 1, 0, 0, 0], dtype=np.uint8)  # a fifth difference: no hit
    cols = np.array([[0, 1], [0, 1], [1, 0], [5, 6], [2, 3], [2, 3]], dtype=np.int64)
    lazy = spherelab._NearSphereRows(np.array([far, farther]), cols)
    assert lazy.hit_keys(x).tolist() == [2 * n + 3, 2 * n + 3]
    assert np.array_equal(np.sort(lazy.hit_keys(x)), sphere_hit_keys_full(x, lazy[:], n))
    assert spherelab._two_sphere_hits(x[None], [lazy], n) == 1


_BIT_GENERATORS = (np.random.Philox, np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64)


def _assert_draws_as_integers(bit_generator, seed, m, n, half_word):
    """A uniform block's rows are ``rng.integers``' bytes, and it leaves the generator as that does."""
    ours, ref = (np.random.Generator(bit_generator(seed)) for _ in range(2))
    if half_word:  # a uint32 draw leaves the high half of a word buffered
        assert ours.integers(1 << 32, dtype=np.uint32) == ref.integers(1 << 32, dtype=np.uint32)
    block = spherelab._UniformRows(ours, m, n)
    assert block.shape == (m, n) and len(block) == m
    got = block[:]  # rebuilt from the block's own replays, after ``ours`` has moved on
    want = ref.integers(0, 3, size=(m, n), dtype=np.uint8)
    assert got.dtype == np.uint8 and got.shape == (m, n)
    assert np.array_equal(got, want)
    assert ours.integers(1 << 62) == ref.integers(1 << 62)
    assert ours.integers(1 << 32, dtype=np.uint32) == ref.integers(1 << 32, dtype=np.uint32)


@given(
    st.sampled_from(_BIT_GENERATORS),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=40),
    st.booleans(),
    st.integers(min_value=1, max_value=4),
)
@example(np.random.Philox, 0, 0, 7, True, 1)  # nothing drawn after a buffered half word
@example(np.random.Philox, 0, 1, 3, True, 1)  # all drawn from the buffered half word
@settings(max_examples=300, deadline=None)
def test_ternary_rows_match_integers(bit_generator, seed, m, n, half_word, raw_words):
    # a few words a draw, so the values cross many draws
    with mock.patch.object(spherelab, "_RAW_WORDS", raw_words):
        _assert_draws_as_integers(bit_generator, seed, m, n, half_word)


@pytest.mark.parametrize("bit_generator", _BIT_GENERATORS)
@pytest.mark.parametrize("extra", [-5, -4, 0, 1, 4])
@pytest.mark.parametrize("half_word", [False, True])
def test_ternary_rows_match_integers_across_a_draw(bit_generator, extra, half_word):
    # two full draws of the module's size and a few values more or less
    _assert_draws_as_integers(bit_generator, 17, 2, 8 * spherelab._RAW_WORDS + extra, half_word)


@pytest.mark.parametrize("m,n", [(2, 3), (0, 3)])
def test_ternary_rows_refuse_mt19937(m, n):
    with pytest.raises(ValueError, match="MT19937"):
        spherelab._UniformRows(np.random.Generator(np.random.MT19937(0)), m, n)


@given(
    st.sampled_from(_BIT_GENERATORS),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=40),
    st.booleans(),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=40),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_uniform_block_rebuilds_rows_as_drawn(bit_generator, seed, m, n, half_word, raw_words, key_cols, data):
    # a few words a draw and keys of 0-40 columns, so rows and their located lead columns end inside draws
    with (
        mock.patch.object(spherelab, "_RAW_WORDS", raw_words),
        mock.patch.object(spherelab, "_KEY_COLS", key_cols),
    ):
        ours, ref = (np.random.Generator(bit_generator(seed)) for _ in range(2))
        if half_word:
            assert ours.integers(1 << 32, dtype=np.uint32) == ref.integers(1 << 32, dtype=np.uint32)
        block = spherelab._UniformRows(ours, m, n)
        want = ref.integers(0, 3, size=(m, n), dtype=np.uint8)
        assert ours.integers(1 << 62) == ref.integers(1 << 62)
        assert np.array_equal(block.keys, spherelab._lead_keys(want))
        assert np.array_equal(block.lead, want[:, : spherelab._LEAD])
        bound = st.integers(min_value=-m - 2, max_value=m + 2) | st.none()
        step = st.sampled_from([None, 1, 2, -1, -3])
        keys = [slice(None), slice(0, 0), np.zeros(0, dtype=np.int64)]
        keys += [slice(data.draw(bound), data.draw(bound), data.draw(step)) for _ in range(3)]
        if m:
            rows = st.lists(st.integers(min_value=0, max_value=m - 1), max_size=2 * m)
            keys += [np.array(data.draw(rows), dtype=np.int64) for _ in range(3)]
        for key in keys:
            got = block[key]
            assert got.dtype == np.uint8
            assert np.array_equal(got, want[key]), key
        # the rebuilds replayed on generators of their own
        assert ours.integers(1 << 32, dtype=np.uint32) == ref.integers(1 << 32, dtype=np.uint32)


@pytest.mark.parametrize("bit_generator", _BIT_GENERATORS)
@pytest.mark.parametrize("half_word", [False, True])
def test_uniform_block_rebuilds_rows_across_draws_and_chunks(bit_generator, half_word):
    # 33-byte rows from 8-byte draws: rows and their 32 located lead columns start inside draws
    with mock.patch.object(spherelab, "_RAW_WORDS", 1):
        ours, ref = (np.random.Generator(bit_generator(29)) for _ in range(2))
        if half_word:
            assert ours.integers(1 << 32, dtype=np.uint32) == ref.integers(1 << 32, dtype=np.uint32)
        block = spherelab._UniformRows(ours, 12, 33)
        want = ref.integers(0, 3, size=(12, 33), dtype=np.uint8)
        assert np.array_equal(block.keys, spherelab._lead_keys(want))
        for key in (slice(None), slice(4, 6), slice(9, 10), np.array([11, 0, 5, 5, 4])):
            assert np.array_equal(block[key], want[key]), key
        assert ours.integers(1 << 62) == ref.integers(1 << 62)


@given(split_overlap_rows(), st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=100, deadline=None)
def test_overlap_kernels_read_a_uniform_block_as_its_rows(case, count, seed):
    n, xmat, ymat, _ = case
    for patch in (
        contextlib.nullcontext(),
        _clashes(),  # clashes rebuild uniform rows
        mock.patch.object(spherelab, "_HIT_CHUNK", 2),
    ):
        with patch:
            lazy = spherelab._UniformRows(_philox(seed, 5), count, n)  # keyed under the patch
            rows = lazy[:]
            # the array block repeats some uniform rows, so first occurrences cross the blocks
            u = np.concatenate([ymat, rows[: count // 2]])
            mask = spherelab._first_occurrences([lazy, u])
            assert np.array_equal(mask, spherelab._first_occurrences([np.concatenate([rows, u])]))
            assert np.array_equal(mask, spherelab._first_occurrences([rows, u]))
            assert spherelab._distinct_count([lazy, u]) == len(dedupe_rows_bytes(np.concatenate([rows, u])))
            hits = spherelab._two_sphere_hits(xmat, [rows, u], n)
            assert spherelab._two_sphere_hits(xmat, [lazy, u], n) == hits
            assert check_sphere_overlap(xmat, [lazy, u], n) == check_sphere_overlap(xmat, [rows, u], n)
            assert check_sphere_overlap(xmat, (lazy,), n) == check_sphere_overlap(xmat, rows, n)


class _CountingPhilox(np.random.Philox):
    """Philox counting the words ``random_raw`` hands out, over all its instances."""

    words = 0

    def random_raw(self, size=None, output=True):
        _CountingPhilox.words += size
        return super().random_raw(size, output)


def test_overlap_trial_draws_its_uniform_rows_once():
    # the criterion-3 trial, at a key whose uniform half holds a row near -x for each x
    n, y_size, key = OVERLAP_MIN_N, 41943, [2, 0]
    rng = np.random.Generator(_CountingPhilox(key=key))
    xmat = rng.integers(0, 3, size=(2, n), dtype=np.uint8)
    _CountingPhilox.words = 0
    block = spherelab._UniformRows(rng, y_size - y_size // 2, n)
    one_pass = _CountingPhilox.words
    neg = spherelab._NEG3[xmat[:, : spherelab._LEAD]]
    near = sum(int(np.count_nonzero((block.lead != row).sum(axis=1) <= 2)) for row in neg)
    assert near >= 2
    _CountingPhilox.words = 0
    block[:]  # one replay reads on through every row
    assert _CountingPhilox.words == one_pass
    _CountingPhilox.words = 0
    overlap_trial(n, 2, y_size, np.random.Generator(_CountingPhilox(key=key)))
    # a near row is replayed from the draw it starts in, through at most two draws
    assert one_pass <= _CountingPhilox.words <= one_pass + 2 * near * spherelab._RAW_WORDS


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=100, deadline=None)
def test_row_fingerprints_match_the_matmul(m, n, seed):
    mat = _philox(seed, 3).integers(0, 3, size=(m, n), dtype=np.uint8)
    weights = spherelab._fingerprint_weights(n)
    got = spherelab._row_fingerprints(mat, weights)
    assert got.dtype == np.uint64 and np.array_equal(got, row_fingerprints_matmul(mat, weights))


def test_row_fingerprints_copy_no_chunk():
    # at n % 8 != 0 the 8-byte word view is row-strided and unaligned
    n = 1100
    chunk = _philox(0, 4).integers(0, 3, size=(spherelab._HIT_CHUNK, n), dtype=np.uint8)
    weights = spherelab._fingerprint_weights(n)
    assert traced_peak(lambda: spherelab._row_fingerprints(chunk, weights)) < 0.1 * chunk.nbytes


def test_row_blocks_rejects_a_near_sphere_block_of_another_width():
    lazy = spherelab._random_near_sphere(_philox(0, 0), 4, 10, np.zeros((1, 10), dtype=np.uint8))
    with pytest.raises(ValueError, match="expected shape"):
        check_sphere_overlap(np.zeros((1, 12), dtype=np.uint8), [lazy], 12)


@pytest.mark.parametrize("x_size,y_size", [(2, 3001), (1, 2), (0, 40)])
def test_overlap_trial_matches_reference_pipeline(x_size, y_size):
    n = 2048
    rng = _philox(23, x_size)
    xmat = rng.integers(0, 3, size=(x_size, n), dtype=np.uint8)
    half = y_size // 2 if x_size else 0  # no X to shift by: every row uniform
    yrand = rng.integers(0, 3, size=(y_size - half, n), dtype=np.uint8)
    if half:
        yrand = np.concatenate([yrand, random_near_sphere_int16(rng, half, n, xmat)])
    xref, yref = dedupe_rows_bytes(xmat), dedupe_rows_bytes(yrand)
    lhs = two_sphere_hits_full(xref, yref, n) if x_size else 0
    res = overlap_trial(n, x_size, y_size, _philox(23, x_size))
    assert (res.x_size, res.y_size, res.lhs) == (len(xref), len(yref), lhs)


@given(
    st.integers(min_value=3, max_value=72),  # across the 16-column lead block and the 32-column key
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=100, deadline=None)
def test_both_overlap_checks_count_a_trial_alike(n, x_size, y_size, seed):
    xmat, blocks = spherelab._trial_sets(n, x_size, y_size, _philox(seed, 6))
    rows = np.concatenate([b[:] for b in blocks])
    # the draws run X, then the uniform rows, then the near-sphere columns
    ref = _philox(seed, 6)
    assert np.array_equal(xmat, ref.integers(0, 3, size=(x_size, n), dtype=np.uint8))
    half = y_size // 2 if x_size else 0
    want = ref.integers(0, 3, size=(y_size - half, n), dtype=np.uint8)
    if half:
        want = np.concatenate([want, random_near_sphere_int16(ref, half, n, xmat)])
    assert np.array_equal(rows, want)
    xref, yref = dedupe_rows_bytes(xmat), dedupe_rows_bytes(rows)
    lhs = two_sphere_hits_full(xref, yref, n) if x_size else 0
    with mock.patch.object(spherelab, "SMALL_SET_DIVISOR", 1):  # the pair-count check at any n
        for y in (blocks, rows):
            res = check_sphere_overlap(xmat, y, n)
            general = check_sphere_overlap_general(xmat, y, n)
            assert (res.x_size, res.y_size, res.lhs) == (len(xref), len(yref), lhs)
            assert (general.a_size, general.b_size, general.lhs) == (len(xref), len(yref), lhs)


@given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=40))
@settings(max_examples=40, deadline=None)
def test_overlap_general_pair_bound_below_linear(a_size, b_size):
    n = SMALL_SET_DIVISOR * a_size  # smallest dimension the hypothesis allows
    pair = math.comb(n, 2) - math.comb(n - a_size, 2) + b_size
    assert pair <= n * a_size + b_size
