import io
import itertools
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mulbasis import productsets
from mulbasis.cli import RunConfig, run
from mulbasis.productsets import (
    _DENSE_MAX,
    _DENSE_MIN_COUNT,
    APSpec,
    construct_interval_basis,
    exact_min_basis,
    first_uncovered,
    fix_least_cover,
    icbrt,
    min_size_search,
    size_search,
)
from oracles import (
    exact_min_basis_reference,
    mbp_exhaustive,
    min_basis_exhaustive,
    primes_segmented,
    smallest_witness_pair,
    traced_peak,
)


def test_icbrt_exact():
    for n in list(range(0, 200)) + [10**9 - 1, 10**9, 10**18]:
        r = icbrt(n)
        assert r**3 <= n < (r + 1) ** 3


# ------------------------------------------------------- progressions


def test_apspec_elements():
    ap = APSpec(g=4, u=1, v=2, M=3)
    assert ap.elements() == [12, 20, 28]
    assert ap.offset == 4
    assert ap.step == 8
    assert ap.normalized


def test_apspec_from_offset_step_extracts_gcd():
    ap = APSpec.from_offset_step(4, 8, 3)
    assert (ap.g, ap.u, ap.v, ap.M) == (4, 1, 2, 3)
    assert ap.elements() == [12, 20, 28]


def test_apspec_rejects_bad_parameters():
    with pytest.raises(ValueError):
        APSpec(g=0, u=1, v=1, M=1)
    with pytest.raises(ValueError):
        APSpec(g=1, u=-1, v=1, M=1)
    with pytest.raises(ValueError):
        APSpec.from_offset_step(4, 0, 3)
    # fields are read by operator.index: a float g would give float elements, a float M a TypeError from range
    refused = [
        ((1.5, 0, 1, 2), "g must be an integer, got 1.5"),
        ((1, 0.0, 1, 2), "u must be an integer, got 0.0"),
        ((1, 0, "1", 2), "v must be an integer, got '1'"),
        ((1, 0, 1, 2.5), "M must be an integer, got 2.5"),
        ((True, 0, 1, 2), "g must be an integer, got True"),
    ]
    for fields, message in refused:
        with pytest.raises(ValueError, match=re.escape(f"progression field {message}")):
            APSpec(*fields)


def test_apspec_from_offset_step_refuses_non_integers():
    # a float reached math.gcd as a TypeError, and True was read as 1
    refused = [
        ((2.5, 1, 3), "a must be an integer, got 2.5"),
        ((4, 2.0, 3), "d must be an integer, got 2.0"),
        ((True, 2, 3), "a must be an integer, got True"),
        ((4, 2, True), "M must be an integer, got True"),
    ]
    for args, message in refused:
        with pytest.raises(ValueError, match=re.escape(f"progression field {message}")):
            APSpec.from_offset_step(*args)
    ap = APSpec.from_offset_step(np.int64(4), np.int32(2), np.uint8(3))
    assert ap == APSpec(g=2, u=2, v=1, M=3)
    assert all(type(x) is int for x in (ap.g, ap.u, ap.v, ap.M))


def test_apspec_reads_numpy_integers_as_ints():
    ap = APSpec(np.int64(2), np.int32(1), np.uint8(3), np.int64(2))
    assert (ap.g, ap.u, ap.v, ap.M) == (2, 1, 3, 2)
    assert all(type(x) is int for x in (ap.g, ap.u, ap.v, ap.M))
    assert ap.elements() == [8, 14]


@given(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=12),
)
def test_apspec_round_trip(a, d, M):
    ap = APSpec.from_offset_step(a, d, M)
    assert ap.elements() == [a + m * d for m in range(1, M + 1)]
    assert ap.normalized
    assert ap.offset == a and ap.step == d


# ------------------------------------------------------------- covers


def test_verify_cover_interval_four():
    assert first_uncovered(range(1, 5), {1, 2, 3}) is None
    assert first_uncovered(range(1, 6), {1, 2, 3}) == 5


def test_verify_cover_reports_first_uncovered():
    assert first_uncovered({5}, {2, 3}) == 5


def test_verify_cover_empty_targets():
    assert first_uncovered(set(), {2}) is None


def test_dense_and_sparse_paths_agree():
    # the dense sweep kicks in at >= 512 targets; its gap must match the
    # per-target scan and the divisor oracle, covered or not
    targets = list(range(1, 600))
    B = set(construct_interval_basis(599))
    for basis in (B, B - {7}, B - {593}):
        gap = next((a for a in targets if smallest_witness_pair(a, basis) is None), None)
        with mock.patch.object(productsets, "_DENSE_MIN_COUNT", len(targets) + 1):
            assert first_uncovered(targets, basis) == gap
        assert first_uncovered(targets, basis) == gap
    assert first_uncovered(targets, B) is None


def _check_first_uncovered(targets, basis):
    gap = next((a for a in sorted(set(targets)) if smallest_witness_pair(a, basis) is None), None)
    assert first_uncovered(targets, basis) == gap


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_first_uncovered_matches_the_oracle_dense(data):
    # >= 512 targets, all <= 2^23: the array sweep
    M = data.draw(st.integers(min_value=512, max_value=2500))
    basis = set(construct_interval_basis(M))
    dropped = data.draw(st.sets(st.sampled_from(sorted(basis)), max_size=3))
    basis = (basis - dropped) or {M + 1}
    basis |= data.draw(st.sets(st.integers(min_value=M + 1, max_value=4 * M), max_size=3))
    lo = data.draw(st.integers(min_value=1, max_value=M - 511))
    targets = list(range(lo, data.draw(st.integers(min_value=lo + 511, max_value=M)) + 1))
    _check_first_uncovered(targets, basis)


# regime: (largest basis element, largest random target, most targets)
SPARSE_REGIMES = {
    "small": (3000, 3000, 511),
    "past-dense": (3000, (1 << 23) + 10**5, 600),
    "huge": (10**6, 10**12, 300),
}


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_first_uncovered_matches_the_oracle_sparse(data):
    # fewer than 512 targets, or one past 2^23: the scan of the basis;
    # "huge" targets reach 10^12, whose square roots pass every basis element
    regime = data.draw(st.sampled_from(sorted(SPARSE_REGIMES)))
    bmax, hi, size = SPARSE_REGIMES[regime]
    basis = data.draw(st.sets(st.integers(min_value=1, max_value=bmax), min_size=1, max_size=40))
    if regime == "huge":
        # draws lean small: make sure some pairs sit far past 10^5
        basis |= data.draw(st.sets(st.integers(min_value=bmax // 2, max_value=bmax), max_size=10))
    values = st.integers(min_value=1, max_value=hi)
    products = st.builds(lambda b, c: b * c, st.sampled_from(sorted(basis)), st.sampled_from(sorted(basis)))
    targets = data.draw(st.lists(st.one_of(values, products), min_size=0, max_size=size))
    if regime == "past-dense":
        targets.append((1 << 23) + 1)
    _check_first_uncovered(targets, basis)


# regime: (least count, most count, least start, most start) of a range;
# a window of 2^23 values holds each range, so "past-dense" is swept too
RANGE_REGIMES = {
    "dense": (_DENSE_MIN_COUNT, 3 * _DENSE_MIN_COUNT, 1, 3000),
    "few": (0, _DENSE_MIN_COUNT - 1, 1, 3000),
    "past-dense": (_DENSE_MIN_COUNT, _DENSE_MIN_COUNT + 100, _DENSE_MAX - 100, _DENSE_MAX + 100),
}


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_range_targets_match_their_list(data):
    # a range with step >= 1 is read as its own targets; the checks must
    # equal the same calls on its list, in the sweep and in the scan
    regime = data.draw(st.sampled_from(sorted(RANGE_REGIMES)))
    lo_count, hi_count, lo_start, hi_start = RANGE_REGIMES[regime]
    step = data.draw(st.integers(min_value=1, max_value=6))
    count = data.draw(st.integers(min_value=lo_count, max_value=hi_count))
    start = data.draw(st.integers(min_value=lo_start, max_value=hi_start))
    targets = range(start, start + step * count, step)
    # {1..k}, k >= sqrt of the last target, with a few drops and additions:
    # covers most targets, and misses each prime past k
    k = math.isqrt(targets[-1] if targets else 1) + 1
    basis = set(range(1, k + data.draw(st.integers(min_value=0, max_value=k)) + 1))
    basis -= data.draw(st.sets(st.integers(min_value=1, max_value=k), max_size=3))
    basis |= data.draw(st.sets(st.integers(min_value=1, max_value=2 * start + 2 * k), max_size=5))
    basis = basis or {1}
    windows = productsets._windows(targets, basis)
    assert any(swept for _, swept, _ in windows) == (regime != "few")
    assert first_uncovered(targets, basis) == first_uncovered(list(targets), basis)


def test_range_targets_edge_cases():
    basis = {1, 2, 3, 5}
    empty = (range(5, 5), range(7, 3), range(1, 10, -1))
    negative_step = (range(12, 3, -1), range(1200, 0, -2))  # sorted as any other iterable
    for targets in empty + negative_step:
        assert first_uncovered(targets, basis) == first_uncovered(list(targets), basis)
    for targets in (range(0, 5), range(-3, 2000, 2)):  # the scan and the sweep
        for form in (targets, list(targets)):
            with pytest.raises(ValueError, match="targets must be positive"):
                first_uncovered(form, basis)
    # integers are read by operator.index: 2.5, "2" and True are refused, not read as 2 or 1
    for bad in (2.5, "2", True):
        with pytest.raises(ValueError, match=re.escape(f"basis elements must be integers, got {bad!r}")):
            first_uncovered([4], [bad])
    with pytest.raises(ValueError, match=re.escape("targets must be integers, got 4.0")):
        first_uncovered([4.0], basis)
    assert first_uncovered(np.array([4, 5]), np.array([1, 2])) == 5


WINDOW = 1 << 10


def _cover_checks(targets, basis, **constants):
    """first_uncovered and each window's sweep flag, with window constants patched."""
    with mock.patch.multiple(productsets, **constants):
        swept = [swept for _, swept, _ in productsets._windows(targets, basis)]
        return first_uncovered(targets, basis), swept


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_windowed_sweep_matches_the_scan(data):
    # windows of 2^10 values: a range crosses several, its first gap may sit in
    # a later one, and basis elements pass a window; every window scanned
    # target by target must give the same gap
    step = data.draw(st.integers(min_value=1, max_value=4))
    start = data.draw(st.integers(min_value=1, max_value=2 * WINDOW))
    count = data.draw(st.integers(min_value=1, max_value=4 * WINDOW // step))
    targets = range(start, start + step * count, step)
    basis = set(construct_interval_basis(targets[-1]))
    basis -= data.draw(st.sets(st.sampled_from(sorted(basis)), max_size=3))
    basis |= data.draw(st.sets(st.integers(min_value=WINDOW, max_value=8 * WINDOW), max_size=3))
    basis = basis or {1}
    least = data.draw(st.sampled_from([32, _DENSE_MIN_COUNT]))
    form = targets if data.draw(st.booleans()) else list(targets)
    gap, swept = _cover_checks(form, basis, _DENSE_MAX=WINDOW, _DENSE_MIN_COUNT=least)
    scan_gap, scanned = _cover_checks(form, basis, _DENSE_MIN_COUNT=count + 1)
    assert not any(scanned)
    assert gap == scan_gap
    assert len(swept) == -(-(targets[-1] - start + 1) // WINDOW)


def test_windows_end_on_targets_and_find_late_gaps():
    top = 5 * WINDOW
    basis = set(construct_interval_basis(top))
    assert max(basis) > WINDOW
    # step 3 from 1 puts a target on each window's last value: 1 + 3 * 341 = 1024
    targets = range(1, top, 3)
    with mock.patch.multiple(productsets, _DENSE_MAX=WINDOW, _DENSE_MIN_COUNT=32):
        chunks = [chunk for chunk, _, _ in productsets._windows(targets, basis)]
    assert [(c[0], c[-1]) for c in chunks] == [(1 + k * (WINDOW + 2), 1 + k * (WINDOW + 2) + WINDOW - 1) for k in range(4)] + [(4 * (WINDOW + 2) + 1, targets[-1])]
    gap, swept = _cover_checks(targets, basis, _DENSE_MAX=WINDOW, _DENSE_MIN_COUNT=32)
    assert gap is None and swept == [True] * 5
    # the largest prime up to top is its own gap once dropped: a gap in the fifth window
    p = max(basis)
    gap, swept = _cover_checks(range(1, top + 1), basis - {p}, _DENSE_MAX=WINDOW)
    assert gap == p > 4 * WINDOW
    assert swept == [True] * 5
    # a window reaching 2^63 is scanned, since its products would pass int64
    big = range(2**63 - 100, 2**63 + 600)
    gap, swept = _cover_checks(big, {1, *big[:10]}, _DENSE_MAX=WINDOW)
    assert swept == [False] and gap == big[10]


def test_pipeline_bound_is_the_same_in_small_windows():
    config = RunConfig(command="pipeline-bound", parameters={"m": 5000})
    whole, windowed = io.StringIO(), io.StringIO()
    assert run(config, out=whole) == 0
    with mock.patch.object(productsets, "_DENSE_MAX", WINDOW):
        assert run(config, out=windowed) == 0
    assert windowed.getvalue() == whole.getvalue()


def test_first_uncovered_keeps_one_array_per_value():
    # the sweep's one int64 array up to the largest target is 1.5 MiB here;
    # a second one for the partners took the peak to 6.7 MiB
    M = 200_000
    basis = construct_interval_basis(M)
    assert traced_peak(lambda: first_uncovered(range(1, M + 1), basis)) <= 6 * 2**20


# ------------------------------------------------------ exact minimum


def test_exact_min_basis_interval_four():
    sol = exact_min_basis(range(1, 5))
    assert sol.size == 3
    assert sol.optimal
    assert first_uncovered(range(1, 5), sol.basis) is None


def test_exact_min_basis_singletons():
    assert exact_min_basis({1}).basis == (1,)
    sol = exact_min_basis({13})
    assert sol.size == 2
    assert set(sol.basis) == {1, 13}


def test_exact_min_basis_matches_exhaustive_oracle_on_intervals():
    for M in range(1, 15):
        expected, lex_least = min_basis_exhaustive(range(1, M + 1))
        got = exact_min_basis(range(1, M + 1))
        assert got.optimal
        assert got.size == expected, f"M={M}"
        assert got.basis == tuple(sorted(lex_least)), f"M={M}"


@given(st.sets(st.integers(min_value=1, max_value=60), min_size=1, max_size=7))
@settings(max_examples=60, deadline=None)
def test_exact_min_basis_matches_exhaustive_oracle_on_random_sets(targets):
    expected, lex_least = min_basis_exhaustive(targets)
    sol = exact_min_basis(targets)
    assert sol.optimal
    assert sol.size == expected
    assert sol.basis == tuple(sorted(lex_least))
    assert first_uncovered(targets, sol.basis) is None


@given(st.sets(st.integers(min_value=1, max_value=50), min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
def test_exact_min_basis_respects_counting_bound(targets):
    sol = exact_min_basis(targets)
    k = sol.size
    assert k * (k + 1) // 2 >= len(targets)


def test_exact_min_basis_budget_exhaustion_is_flagged():
    sol = exact_min_basis(range(1, 25), budget=3)
    assert not sol.optimal
    assert first_uncovered(range(1, 25), sol.basis) is None


def test_exact_min_basis_lexicographic_tie_break():
    # both {1,2,3} and {1,2,4}? [1..4]: {1,2,4} misses 3; smallest cover is {1,2,3}
    assert exact_min_basis(range(1, 5)).basis == (1, 2, 3)


def test_exact_min_basis_custom_pool():
    sol = exact_min_basis({4, 16}, pool=[2, 4])
    assert set(sol.basis) == {2, 4}
    # a pool element or target that is not an integer is refused, not truncated
    with pytest.raises(ValueError, match=re.escape("pool elements must be integers, got 2.7")):
        exact_min_basis({4}, pool=[2.7])
    for search in (exact_min_basis, min_size_search):
        with pytest.raises(ValueError, match=re.escape("targets must be integers, got 4.0")):
            search([4.0, 6])
    assert exact_min_basis(np.array([4, 6])).basis == (2, 3)


# ------------------------------------------- exact search vs the reference


def _search_outcome(sol):
    return sol.basis, sol.optimal


def _assert_matches_reference(targets, **kwargs):
    try:
        expected = exact_min_basis_reference(targets, **kwargs)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            exact_min_basis(targets, **kwargs)
        return
    assert _search_outcome(exact_min_basis(targets, **kwargs)) == _search_outcome(expected)


# the reference's lexicographic pass has a heavy tail: single sets of ten
# targets below 100 take it over 10 s, sets of eight below 60 under 0.3 s
@given(st.sets(st.integers(min_value=1, max_value=60), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_exact_min_basis_matches_reference_on_random_sets(targets):
    _assert_matches_reference(targets)


def test_exact_min_basis_matches_reference_on_intervals():
    for M in range(1, 25):
        _assert_matches_reference(range(1, M + 1))


@st.composite
def targets_and_pool(draw):
    """Targets with their divisors as pool, less a few, plus non-divisors."""
    targets = draw(st.sets(st.integers(min_value=1, max_value=60), min_size=1, max_size=7))
    divisors = sorted({d for a in targets for d in range(1, a + 1) if a % d == 0})
    dropped = draw(st.sets(st.sampled_from(divisors), max_size=2))
    extra = draw(st.sets(st.integers(min_value=1, max_value=120), max_size=6))
    return targets, (set(divisors) - dropped) | extra


@given(targets_and_pool())
@settings(max_examples=100, deadline=None)
def test_exact_min_basis_matches_reference_on_custom_pools(case):
    # dropping a divisor may leave a target without a pair (both raise);
    # non-divisors have no incidences, and the pass must step over them
    targets, pool = case
    _assert_matches_reference(targets, pool=pool)


@pytest.mark.parametrize(
    "targets",
    [range(1, 21), (6, 10, 15, 21, 35, 36), (12, 18, 20, 24, 30, 36)],
    ids=["interval20", "semiprimes-and-36", "smooth"],
)
def test_exact_min_basis_matches_reference_at_every_budget(targets):
    # both passes share the budget: one that runs out leaves the first
    # pass's incumbent, one that covers the whole search the lex-least basis
    _assert_matches_reference(targets)
    full = exact_min_basis(targets)
    total = max(full.nodes_explored, exact_min_basis_reference(targets).nodes_explored)
    for budget in range(1, total + 2):
        sol = exact_min_basis(targets, budget=budget)
        expected = exact_min_basis_reference(targets, budget=budget)
        assert (sol.size, sol.optimal) == (expected.size, expected.optimal), budget
        assert sol.nodes_explored == min(budget + 1, full.nodes_explored), budget
        if budget >= full.nodes_explored:
            assert sol.basis == full.basis, budget
        else:
            assert sol.basis == min_size_search(targets, budget=budget).basis, budget
        assert first_uncovered(targets, sol.basis) is None, budget


# ------------------------------------------- the two search primitives


# a cover problem that is neither factor pairs nor the sphere: a target is
# covered when both members of one of its pairs are in the basis
HAND_PAIRS = {
    10: [(1, 5), (2, 6), (4, 4)],
    11: [(1, 6), (3, 5), (4, 7)],
    12: [(2, 3), (5, 5), (6, 7)],
    13: [(1, 7), (3, 4), (5, 6)],
    14: [(2, 2), (3, 6), (4, 5)],
    15: [(1, 3), (2, 7), (6, 6)],
    16: [(3, 3), (4, 6), (5, 7)],
}


def _hand_lex_least():
    """The lex-least cover of HAND_PAIRS of least size, by brute force over the pool 1..7."""
    for k in range(1, 8):
        for B in itertools.combinations(range(1, 8), k):
            if all(any(b in B and c in B for b, c in ps) for ps in HAND_PAIRS.values()):
                return B


def test_search_primitives_follow_their_budget_contract():
    targets, pool = sorted(HAND_PAIRS), range(1, 8)
    unbounded = size_search(targets, HAND_PAIRS, 10**6)
    first_nodes = unbounded.nodes_explored
    total = fix_least_cover(targets, HAND_PAIRS, pool, unbounded, 10**6).nodes_explored
    lex_least = _hand_lex_least()
    assert unbounded.size == len(lex_least) and unbounded.basis != lex_least  # the fixing pass matters
    for budget in range(1, total + 2):
        first = size_search(targets, HAND_PAIRS, budget)
        assert first.optimal == (first_nodes <= budget), budget
        assert first.nodes_explored == min(first_nodes, budget + 1), budget
        sol = fix_least_cover(targets, HAND_PAIRS, pool, first, budget)
        if not first.optimal:
            assert sol is first, budget
        elif budget >= total:
            assert (sol.basis, sol.optimal, sol.nodes_explored) == (lex_least, True, total), budget
        else:
            assert (sol.basis, sol.optimal, sol.nodes_explored) == (first.basis, True, budget + 1), budget


# ------------------------------------ size-only pass vs the full search


def _size_outcome(sol):
    return sol.size, sol.optimal


def test_min_size_search_matches_exact_min_basis_on_mbp_grid():
    # every grid point of mbp-search --m 6 --a-max 12 --d-max 12
    for a in range(13):
        for d in range(1, 13):
            elements = [a + m * d for m in range(1, 7)]
            first = min_size_search(elements)
            assert _size_outcome(first) == _size_outcome(exact_min_basis(elements)), (a, d)
            assert first.optimal and first_uncovered(elements, first.basis) is None


@given(st.sets(st.integers(min_value=1, max_value=60), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_min_size_search_matches_exact_min_basis_on_random_sets(targets):
    first = min_size_search(targets)
    full = exact_min_basis(targets)
    assert _size_outcome(first) == _size_outcome(full)
    assert first.nodes_explored <= full.nodes_explored
    assert first_uncovered(targets, first.basis) is None


@pytest.mark.parametrize("a,d", [(2, 2), (0, 6), (2, 6)])
def test_min_size_search_matches_exact_min_basis_at_every_budget(a, d):
    # budgets past the first pass's node count run out while the basis
    # is fixed, which keeps the proved size and optimal True
    elements = [a + m * d for m in range(1, 7)]
    first_nodes = min_size_search(elements).nodes_explored
    total = exact_min_basis(elements).nodes_explored
    assert first_nodes < total
    for budget in range(1, total + 2):
        first = min_size_search(elements, budget=budget)
        assert _size_outcome(first) == _size_outcome(exact_min_basis(elements, budget=budget)), budget
        assert first.optimal == (budget >= first_nodes)


# ------------------------------------------------- interval construction


def test_interval_basis_m8():
    basis = construct_interval_basis(8)
    assert basis == (1, 2, 3, 4, 5, 7)
    assert first_uncovered(range(1, 9), basis) is None


def test_interval_basis_m1():
    assert construct_interval_basis(1) == (1,)


def test_interval_basis_m1000_size_bound():
    basis = construct_interval_basis(1000)
    assert first_uncovered(range(1, 1001), basis) is None
    pi = 168
    assert len(basis) <= pi + 1000 ** (2 / 3) + 1


@pytest.mark.parametrize("Ms", [range(1, 601), [20000]], ids=["M<=600", "M=20000"])
def test_interval_basis_matches_three_block_rule(Ms):
    # {1}, all of [2..floor(M^(2/3))], and every prime p <= M with p^3 > M
    for M in Ms:
        t23 = 0
        while (t23 + 1) ** 3 <= M * M:
            t23 += 1
        expected = set(range(1, t23 + 1)) | {p for p in primes_segmented(M) if p**3 > M}
        assert construct_interval_basis(M) == tuple(sorted(expected)), M


@given(st.integers(min_value=1, max_value=3000))
@settings(max_examples=40, deadline=None)
def test_interval_basis_covers_property(M):
    assert first_uncovered(range(1, M + 1), construct_interval_basis(M)) is None


# --------------------------------------------------- progression scan


def mbp_search(m: int, a_max: int, d_max: int) -> tuple[str, int]:
    """The JSON payload and exit code of ``mbp-search`` over the grid."""
    buf = io.StringIO()
    code = run(RunConfig("mbp-search", {"m": m, "a_max": a_max, "d_max": d_max}), out=buf)
    return buf.getvalue(), code


def mbp_best(payload: str) -> dict:
    (best,) = [r for r in json.loads(payload)["results"] if r["is_best"]]
    return best


def test_mbp_length_one():
    payload, code = mbp_search(1, 3, 3)
    assert code == 0
    assert mbp_best(payload)["size"] == 1


def test_mbp_interval_in_range_bounds_value():
    payload, code = mbp_search(4, 8, 8)
    assert code == 0  # every grid point proved optimal
    assert mbp_best(payload)["size"] <= exact_min_basis(range(1, 5)).size == 3


def test_mbp_matches_exhaustive_oracle():
    payload, code = mbp_search(6, 12, 12)
    assert code == 0
    assert mbp_best(payload)["size"] == mbp_exhaustive(6, 12, 12) == 4


def test_mbp_best_is_lexicographically_first():
    payload, _ = mbp_search(5, 3, 3)
    rows = json.loads(payload)["results"]
    assert [(r["a"], r["d"]) for r in rows] == [(a, d) for a in range(4) for d in range(1, 4)]
    assert mbp_best(payload) == min(rows, key=lambda r: (r["size"], r["a"], r["d"]))


def test_mbp_rejects_bad_bounds():
    with pytest.raises(ValueError, match="--m must be at least 1, got 0"):
        mbp_search(0, 1, 1)


def test_mbp_record_round_trips_to_json():
    payload, _ = mbp_search(3, 2, 2)
    assert json.dumps(json.loads(payload), sort_keys=True, indent=2) + "\n" == payload


# -------------------------------------------------------- the sandwich


def test_interval_sandwich_up_to_24():
    from mulbasis.numtheory import sieve

    table = sieve(24)
    for M in range(1, 25):
        exact = exact_min_basis(range(1, M + 1))
        assert exact.optimal
        lower = table.prime_count(M) + 1
        upper = len(construct_interval_basis(M))
        assert lower <= exact.size <= upper, f"M={M}"
