import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mulbasis.numtheory import PrimeTable, sieve
from mulbasis.productsets import APSpec, first_uncovered
from mulbasis.reduction import (
    ReducedPair,
    _doubling_marks,
    build_marking_sets,
    factorial_divisibility_check,
    random_divisibility_instance,
    random_injected_pair,
    reduce_pair,
)

from oracles import factorial_divisibility_check_reference

TABLE = sieve(20_000)
SMALL_TABLE = sieve(500)


def rng(stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[2026, stream]))


# ---------------------------------------------------------- reduction


def test_reduce_worked_example_deep_branch():
    pair = ReducedPair.of(APSpec.from_offset_step(4, 8, 3), {2, 6, 10, 14})
    assert pair.ap.elements() == [12, 20, 28]
    out = reduce_pair(pair)
    assert out.ap.elements() == [3, 5, 7]
    assert set(out.basis) == {1, 3, 5, 7}
    assert out.reduced
    assert math.gcd(out.ap.v, out.ap.g) == 1


def test_reduce_single_valuation_branch():
    # offset 2, step 4: v_2(step)=2 > v_2(offset)=1, so divide once by 2
    pair = ReducedPair.of(APSpec.from_offset_step(2, 4, 3), {2, 3, 5, 7})
    out = reduce_pair(pair)
    assert out.ap.elements() == [3, 5, 7]
    assert set(out.basis) == {1, 3, 5, 7}


def test_reduce_identity_on_reduced_pair():
    pair = ReducedPair.of(APSpec.from_offset_step(1, 2, 4), {1, 3, 5, 7, 9})
    assert pair.reduced
    out = reduce_pair(pair)
    assert out == pair


def test_reduce_rejects_non_cover():
    pair = ReducedPair(ap=APSpec.from_offset_step(4, 8, 3), basis=frozenset({2, 6}))
    with pytest.raises(ValueError, match="not a cover"):
        reduce_pair(pair)


def test_reduce_preserves_cardinality_and_cover():
    for stream in range(60):
        pair = random_injected_pair(rng(stream))
        before = math.prod(pair.basis)
        out = reduce_pair(pair)
        assert out.reduced
        assert math.gcd(out.ap.v, out.ap.g) == 1
        assert out.ap.M == pair.ap.M
        assert len(out.ap.elements()) == len(pair.ap.elements())
        assert len(out.basis) <= len(pair.basis)
        assert first_uncovered(out.ap.elements(), out.basis) is None
        assert math.prod(out.basis) < before


def test_reduce_is_idempotent():
    for stream in range(30):
        once = reduce_pair(random_injected_pair(rng(stream)))
        assert reduce_pair(once) == once


def test_reduced_flag_requires_coprimality():
    with pytest.raises(ValueError):
        ReducedPair(ap=APSpec(g=2, u=1, v=2, M=3), basis=frozenset({1}), reduced=True)


def test_reduced_pair_record_round_trip():
    pair = ReducedPair.of(APSpec.from_offset_step(4, 8, 3), {2, 6, 10, 14})
    rec = json.loads(json.dumps(pair.to_record()))
    assert ReducedPair.from_record(rec) == pair


def test_reduced_pair_reads_numpy_basis_elements_as_ints():
    pair = ReducedPair.of(APSpec(1, 0, 1, 3), np.arange(1, 4))
    assert pair.basis == {1, 2, 3} and all(type(b) is int for b in pair.basis)
    assert ReducedPair.from_record(json.loads(json.dumps(pair.to_record()))) == pair


@pytest.mark.parametrize("basis", [[True, 2, 3], [1, 2.5], [1, "2"], [0, 1], [np.int64(-1), 1]])
def test_reduced_pair_refuses_non_integer_basis_elements(basis):
    # a kept True would reach to_record as JSON true, which from_record refuses
    with pytest.raises(ValueError, match="basis elements must be (positive )?integers, got"):
        ReducedPair.of(APSpec(1, 0, 1, 3), basis)
    with pytest.raises(ValueError, match="basis elements must be (positive )?integers, got"):
        ReducedPair(ap=APSpec(1, 0, 1, 3), basis=frozenset(basis))


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
def test_reduced_pair_record_wants_a_boolean_flag(flag):
    rec = ReducedPair.of(APSpec(g=2, u=1, v=2, M=3), {1, 2, 3}).to_record()
    assert ReducedPair.from_record({**rec, "reduced": False}).reduced is False
    with pytest.raises(ValueError, match="pair record field 'reduced' must be a boolean"):
        ReducedPair.from_record({**rec, "reduced": flag})


# ------------------------------------------------------- divisibility


def test_factorial_check_unit_progression():
    res = factorial_divisibility_check(1, 1, 6, TABLE)
    assert res.divides
    product = math.prod(1 + m for m in res.surviving)
    assert math.factorial(5) % product == 0


def test_factorial_check_degenerate_length_one():
    res = factorial_divisibility_check(1, 1, 1, TABLE)
    assert res.divides
    assert res.surviving == ()


def test_factorial_check_rejects_zero_u():
    with pytest.raises(ValueError):
        factorial_divisibility_check(0, 1, 6, TABLE)


def test_factorial_check_rejects_common_factor():
    with pytest.raises(ValueError):
        factorial_divisibility_check(2, 4, 6, TABLE)


def test_factorial_check_requires_full_table():
    with pytest.raises(ValueError, match="below largest term"):
        factorial_divisibility_check(1, 1, 50, sieve(10))


def test_factorial_exceptional_ties_break_to_smallest_index():
    # terms 1+m for m=1..5: valuation of 3 peaks (at 1) for both m=2 and m=5
    res = factorial_divisibility_check(1, 1, 5, TABLE)
    assert res.exceptional[3] == 2
    assert res.exceptional[2] == 3  # 1+3 = 4 = 2^2 beats 2 and 6
    assert res.marked_large == frozenset({4})
    assert res.surviving == (1, 5)
    assert res.divides


def test_factorial_exceptional_skips_primes_dividing_step():
    # v = 3: no term 1 + 3m is divisible by 3
    res = factorial_divisibility_check(1, 3, 50, TABLE)
    assert 3 not in res.exceptional
    assert res.divides


def test_factorial_check_random_instances():
    for stream in range(40):
        u, v, M = random_divisibility_instance(rng(stream))
        assert math.gcd(u, v) == 1 and 1 <= M <= 200
        res = factorial_divisibility_check(u, v, M, TABLE)
        assert res.divides, (u, v, M)
        # the skipped sets are disjoint partitions of [1..M]
        skip = set(res.marked_large) | set(res.exceptional.values())
        assert set(res.surviving) == set(range(1, M + 1)) - skip


def _divisibility_outcome(check, u, v, M, table):
    try:
        return check(u, v, M, table)
    except ValueError as exc:
        return ValueError, str(exc)


def assert_matches_reference(u, v, M, table):
    got = _divisibility_outcome(factorial_divisibility_check, u, v, M, table)
    want = _divisibility_outcome(factorial_divisibility_check_reference, u, v, M, table)
    assert got == want, (u, v, M, table.limit)


@st.composite
def divisibility_instances(draw):
    u = draw(st.integers(1, 60))
    v = draw(st.integers(1, 30).filter(lambda v: math.gcd(u, v) == 1))
    return u, v, draw(st.integers(1, 250))


@given(divisibility_instances(), st.sampled_from([TABLE, SMALL_TABLE]))
@settings(max_examples=300, deadline=None)
def test_factorial_check_matches_reference(instance, table):
    assert_matches_reference(*instance, table)


@pytest.mark.parametrize(
    "u,v,M",
    [
        (1, 1, 1),  # M = 1: no prime below M, the lone term is marked
        (7, 3, 1),
        (1, 1, 2),  # M = 2: still no prime below M
        (3, 2, 2),
        (5, 6, 40),  # v divisible by 2 and 3: neither divides any term
        (1, 12, 100),
        (2, 1, 10),  # 5 peaks at 5 and 10 (m = 3, 8): the smaller index wins
        (1, 1, 5),  # the term 5 equals M and is prime: marked, not exceptional
        (1, 1, 6),  # the term 7 is a prime above M
        (0, 1, 6),  # each rejected input raises the same ValueError
        (1, 0, 6),
        (2, 4, 6),
        (1, 1, 0),
        (1, 1, 600),
    ],
)
def test_factorial_check_hand_cases_match_reference(u, v, M):
    assert_matches_reference(u, v, M, SMALL_TABLE)


# ------------------------------------------------------- marking sets


def test_marking_sets_small_window():
    table = sieve(100)
    out = build_marking_sets(100, 0, table)
    assert len(out.single_marks) == len(out.large_primes) == 23
    assert out.small_primes.tolist() == [3]
    assert len(out.triple_products) == len(out.triple_marks) == 0
    for m, p in zip(out.single_marks.tolist(), out.large_primes.tolist()):
        assert 1 <= m <= 100
        x = m  # u = 0
        k = 0
        while x % 2 == 0:
            x //= 2
            k += 1
        assert x == p


def test_marking_sets_triple_products():
    table = sieve(10_000)
    out = build_marking_sets(10_000, 0, table)
    assert out.small_primes.tolist() == [3, 5, 7, 11, 13, 17, 19]
    assert out.triple_products.tolist() == [a * b * c for a, b, c in combinations(out.small_primes.tolist(), 3)]
    assert len(out.triple_marks) == 35
    for m, x in zip(out.triple_marks.tolist(), out.triple_products.tolist()):
        assert 1 <= m <= 10_000
        y = m
        while y % 2 == 0:
            y //= 2
        assert y == x


def test_marking_sets_respect_shift_windows():
    table = sieve(500)
    for u in (0, 7, 100, 500):
        out = build_marking_sets(500, u, table)
        prime_of = dict(zip(out.single_marks.tolist(), out.large_primes.tolist()))
        for m, p in prime_of.items():
            t = u + m
            assert 1 <= m <= 500
            assert t == (t & -t) * p  # power of two times the prime
            # the mark's prime divides its own term and no other marked term
            assert [m2 for m2 in prime_of if (u + m2) % p == 0] == [m]


def test_doubling_marks_examples():
    # 7 is already past u = 5, 3 takes one doubling, 1 takes four to pass u = 10
    assert _doubling_marks(np.array([7, 3]), 5, 10).tolist() == [7 - 5, 6 - 5]
    assert _doubling_marks(np.array([1]), 10, 10).tolist() == [16 - 10]
    assert _doubling_marks(np.array([1, 9]), 0, 10).tolist() == [1, 9]  # u = 0: no doubling


def _least_doubling(x: int, u: int, M: int) -> int | None:
    """The m = 2^j * x - u of the least j that lands 2^j * x in [u+1, u+M], by a direct scan."""
    for j in range(M.bit_length() + 2):  # 2^j * x <= u + M <= 2M bounds j
        if u + 1 <= 2**j * x <= u + M:
            return 2**j * x - u
    return None


@given(st.integers(min_value=1, max_value=400).flatmap(lambda M: st.tuples(st.just(M), st.integers(0, M))))
@example((10, 5))  # 3, 5, 7 take 1, 1, 0 doublings
@example((10, 10))
@example((1, 1))
@example((343, 343))  # the one triple, 3 * 5 * 7, doubles twice
def test_marks_take_the_least_doubling_into_the_window(window):
    M, u = window
    out = build_marking_sets(M, u, sieve(max(M, 2)))
    assert len(out.single_marks) == len(out.large_primes)
    assert len(out.triple_marks) == len(out.triple_products)
    for marks, xs in ((out.single_marks, out.large_primes), (out.triple_marks, out.triple_products)):
        assert marks.tolist() == [_least_doubling(x, u, M) for x in xs.tolist()]


def test_marking_sets_index_sets_are_disjoint():
    table = sieve(10_000)
    out = build_marking_sets(10_000, 3, table)
    singles = set(out.single_marks.tolist())
    triples = set(out.triple_marks.tolist())
    assert len(singles) == len(out.single_marks)
    assert singles.isdisjoint(triples)


def test_marking_sets_large_count_lower_bound():
    table = sieve(10_000)
    for M in (8, 64, 1000, 10_000):
        out = build_marking_sets(M, 0, table)
        pi_m = table.prime_count(M)
        pi_cbrt = table.prime_count(round(M ** (1 / 3)))
        assert len(out.single_marks) >= pi_m - pi_cbrt - 1


def test_build_marking_sets_checks_large_primes_in_the_table():
    # a hand-built table whose primes list a composite its spf array knows
    table = sieve(100)
    bad = PrimeTable(limit=100, primes=np.sort(np.append(table.primes, [91, 95])), spf=table.spf)
    with pytest.raises(ValueError) as exc:
        build_marking_sets(100, 0, bad)
    assert exc.value.args[0] == "non-prime marks: [91, 95]"


def test_marking_sets_reject_offset_beyond_window():
    with pytest.raises(ValueError):
        build_marking_sets(100, 101, sieve(100))


# ------------------------------------------------------ random inputs


def test_random_injected_pair_is_deterministic_and_covering():
    a = random_injected_pair(rng(9))
    b = random_injected_pair(rng(9))
    assert a == b
    assert first_uncovered(a.ap.elements(), a.basis) is None
    assert math.gcd(a.ap.v, a.ap.g) > 1 or not a.reduced


def test_random_injected_pair_actually_needs_reduction():
    needing = sum(
        1 for s in range(50) if math.gcd(random_injected_pair(rng(s)).ap.v, random_injected_pair(rng(s)).ap.g) > 1
    )
    assert needing == 50
