import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mulbasis.numtheory import (
    ResourceLimitError,
    divisors,
    halved_shift_csr,
    is_prime,
    sieve,
    valuation,
    valuation_csr,
)
from oracles import (
    add_rows,
    csr_tuples,
    is_prime_trial,
    is_strong_probable_prime,
    primes_segmented,
    traced_peak,
    valuation_loop,
    valuation_rows,
)

TABLE = sieve(100_000)


# ------------------------------------------------------------- sieving


def test_sieve_ten():
    t = sieve(10)
    assert list(t.primes) == [2, 3, 5, 7]
    assert t.prime_count(10) == 4


def test_sieve_one_is_empty():
    t = sieve(1)
    assert list(t.primes) == []
    assert t.prime_count(1) == 0


def test_pi_of_one_million_matches_segmented_oracle():
    t = sieve(10**6)
    expected = primes_segmented(10**6)
    assert t.prime_count(10**6) == len(expected) == 78498
    assert t.primes.dtype == np.int64 and t.primes.tolist() == expected


def test_sieve_primes_match_segmented_oracle_up_to_200():
    for limit in range(1, 201):
        primes = sieve(limit).primes
        assert primes.dtype == np.int64 and primes.tolist() == primes_segmented(limit), limit


def test_sieve_keeps_one_pass_over_its_table():
    # the uint32 table is 3.8 MiB at 10^6; a second pass for the primes,
    # comparing it with an arange, took the peak to 9.2 MiB
    assert traced_peak(lambda: sieve(10**6)) <= 6.5 * 2**20


def test_prime_table_matches_oracle_below_10k():
    assert TABLE.primes_in(2, 10_000) == primes_segmented(10_000)


def test_prime_count_at_interior_points():
    expected = primes_segmented(100_000)
    for x in (2, 3, 4, 97, 1000, 7919, 99_991):
        assert TABLE.prime_count(x) == sum(1 for p in expected if p <= x)


def test_prime_count_beyond_limit_raises():
    with pytest.raises(ValueError):
        TABLE.prime_count(100_001)


def test_primes_in_window():
    assert TABLE.primes_in(10, 30) == [11, 13, 17, 19, 23, 29]
    assert TABLE.primes_in(24, 28) == []


def test_table_is_prime_agrees_with_spf():
    for x in range(2, 500):
        assert TABLE.is_prime(x) == is_prime_trial(x)


def test_sieve_rejects_nonpositive_limit():
    with pytest.raises(ValueError):
        sieve(0)


def test_sieve_respects_memory_budget(monkeypatch):
    monkeypatch.setenv("MULBASIS_SIEVE_LIMIT", "1000")
    with pytest.raises(ResourceLimitError):
        sieve(10_000)
    assert sieve(1000).prime_count(1000) == 168


def test_sieve_budget_env_must_be_positive_integer(monkeypatch):
    monkeypatch.setenv("MULBASIS_SIEVE_LIMIT", "zero")
    with pytest.raises(ValueError):
        sieve(10)
    monkeypatch.setenv("MULBASIS_SIEVE_LIMIT", "-5")
    with pytest.raises(ValueError):
        sieve(10)


# --------------------------------------------------------- primality


def test_miller_rabin_matches_trial_division():
    for x in range(0, 2000):
        assert is_prime(x) == is_prime_trial(x)
    table = sieve(1 << 17)
    assert [is_prime(x) for x in range(table.limit + 1)] == [
        table.is_prime(x) for x in range(table.limit + 1)
    ]
    assert is_prime(9973)
    assert not is_prime(9973 * 9967)
    assert is_prime(2**31 - 1)


# psi_k, the least strong pseudoprime to the first k prime bases (OEIS A014233)
PSI = {
    1: 2047,
    2: 1373653,
    3: 25326001,
    4: 3215031751,
    5: 2152302898747,
    6: 3474749660383,
    7: 341550071728321,
    9: 3825123056546413051,
    12: 318665857834031151167461,
    13: 3317044064679887385961981,
}
FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@pytest.mark.parametrize("k", sorted(PSI))
def test_miller_rabin_rejects_each_psi(k):
    psi = PSI[k]
    # psi_k fools the first k bases, so is_prime must run more of them
    assert is_strong_probable_prime(psi, FIRST_PRIMES[:k])
    if k == 12:  # composite by its factors, independent of the table above
        assert psi == 399165290221 * 798330580441
    if k == 13:
        with pytest.raises(ValueError, match="proven only below 3317044064679887385961981"):
            is_prime(psi)
    else:
        assert not is_prime(psi)


@pytest.mark.parametrize("k", sorted(PSI))
def test_miller_rabin_agrees_just_below_each_rung(k):
    # oracle: strong tests to the 20 primes past the witness set
    oracle_bases = [p for p in primes_segmented(131) if p > 41]
    window = range(PSI[k] - 300, PSI[k])
    verdicts = [is_prime(n) for n in window]
    assert verdicts == [is_strong_probable_prime(n, oracle_bases) for n in window]
    assert True in verdicts


# --------------------------------------------------------- valuations


def test_valuation_examples():
    assert valuation(2, 12) == 2
    assert valuation(5, 7) == 0
    assert valuation(3, 81) == 4


def test_valuation_rejects_composite_base():
    with pytest.raises(ValueError):
        valuation(4, 12)
    with pytest.raises(ValueError):
        valuation(1, 12)


def test_valuation_rejects_nonpositive_argument():
    with pytest.raises(ValueError):
        valuation(2, 0)


@given(st.integers(min_value=1, max_value=10**7))
def test_divisors_ascending_with_least_prime_factor_second(x):
    divs = divisors(x)
    small = {d for d in range(1, math.isqrt(x) + 1) if x % d == 0}
    assert divs == sorted(small | {x // d for d in small})
    if x > 1:  # the least prime factor: the least divisor above 1, or x itself
        assert divs[1] == min(small - {1}, default=x)


def test_divisors_rejects_nonpositive_argument():
    assert divisors(1) == [1]
    with pytest.raises(ValueError, match="divisors needs x >= 1, got 0"):
        divisors(0)


@given(st.integers(min_value=1, max_value=50_000))
def test_valuations_reconstruct_the_integer(x):
    acc = 1
    for p in (2, 3, 5, 7, 11, 13):
        acc *= p ** valuation(p, x)
    rem = x
    for p in (2, 3, 5, 7, 11, 13):
        while rem % p == 0:
            rem //= p
    assert acc * rem == x


@given(
    st.sampled_from([2, 3, 5, 7, 11]),
    st.integers(min_value=1, max_value=10_000),
)
def test_valuation_matches_loop_oracle(p, x):
    assert valuation(p, x) == valuation_loop(p, x)


# ----------------------------------------------- factorization by rows
# With q above every exponent, the row of x over a prime list is its
# factorization restricted to that list.


def test_factorize_360():
    assert valuation_rows([360], TABLE, [2, 3, 5], 7) == [((0, 3), (1, 2), (2, 1))]


def test_factorize_one_is_empty_product():
    assert valuation_rows([1], TABLE, [2, 3, 5], 7) == [()]


def test_factorize_prime_detected_by_oracle():
    assert is_prime_trial(9973)
    assert valuation_rows([9973], TABLE, [9973], 3) == [((0, 1),)]


def test_factorize_beyond_table_uses_trial_division():
    small = sieve(100)
    value = 89 * 97 * 4
    assert value > small.limit
    assert valuation_rows([value], small, [2, 89, 97], 5) == [((0, 2), (1, 1), (2, 1))]


def test_factorize_incomplete_table_names_cofactor():
    # past the table the walk cannot see 10007: refused, naming it, not guessed
    with pytest.raises(ValueError, match="listed prime 10007 beyond table limit 50"):
        valuation_rows([7 * 10_007], sieve(50), [7, 10_007], 3)


@given(st.integers(min_value=1, max_value=99_999))
@settings(max_examples=200)
def test_factorization_reconstructs_value(x):
    primes = TABLE.primes_in(2, x)
    (row,) = valuation_rows([x], TABLE, primes, 17)  # 2^17 > x: no exponent reaches 17
    assert math.prod(primes[j] ** e for j, e in row) == x
    assert all(is_prime_trial(primes[j]) for j, _ in row)
    assert list(row) == sorted(row)


# -------------------------------------------------------- rho vectors


def test_rho_vector_360():
    assert valuation_rows([360], TABLE, [3, 5, 7], 3) == [((0, 2), (1, 1))]


def test_rho_vector_of_one_is_zero():
    assert valuation_rows([1], TABLE, [3, 5, 7], 3) == [()]


def test_rho_vector_ignores_unlisted_primes():
    assert valuation_rows([2**5], TABLE, [3, 5], 3) == [()]


def test_rho_vector_rejects_modulus_two():
    with pytest.raises(ValueError, match="q must be an odd prime, got 2"):
        valuation_rows([6], TABLE, [2, 3], 2)
    with pytest.raises(ValueError, match="q must be an odd prime, got 9"):
        valuation_rows([6], TABLE, [2, 3], 9)


@pytest.mark.parametrize(
    "values,first", [([0, -12, 12], 0), ([12, -12, 0], -12), ([10**30, -(10**30)], -(10**30))]
)
def test_valuation_rows_refuse_values_below_one(values, first):
    # refused as scalar valuation refuses them, not read as empty rows
    with pytest.raises(ValueError, match=f"valuation needs x >= 1, got {first}$"):
        valuation_csr(values, sieve(100), [2, 3], 3)
    with pytest.raises(ValueError, match=f"valuation needs x >= 1, got {first}$"):
        halved_shift_csr(values, 6, sieve(100), [2, 3], 3)
    with pytest.raises(ValueError, match="valuation needs x >= 1, got 0$"):
        halved_shift_csr([12], 0, sieve(100), [2, 3], 3)


def test_rho_vector_rejects_duplicate_primes():
    with pytest.raises(ValueError, match="duplicates"):
        valuation_rows([6], TABLE, [3, 3], 5)


@given(
    st.integers(min_value=1, max_value=5000),
    st.integers(min_value=1, max_value=5000),
    st.sampled_from([3, 5, 7]),
)
@settings(max_examples=150)
def test_rho_vector_is_multiplicative(x, y, q):
    # x * y reaches past TABLE, so this also checks the trial-division path
    primes = (2, 3, 5, 7)
    rx, ry, rxy = valuation_rows([x, y, x * y], TABLE, primes, q)
    assert rxy == add_rows(rx, ry, q)


@given(
    st.lists(st.integers(1, 10**12), min_size=1, max_size=20),
    st.lists(st.sampled_from(primes_segmented(200)), unique=True, max_size=12),
    st.one_of(st.just(1), st.lists(st.sampled_from(primes_segmented(50)), max_size=6).map(math.prod)),
    st.sampled_from([3, 5, 7]),
)
@settings(max_examples=150, deadline=None)
@example([1, 360, 7**3], [2, 3, 5], 1, 5)  # g = 1: no shift
@example([1, 360, 7**3], [2, 3, 5], 2 * 3 * 7 * 7 * 11, 7)  # 2 and 3 listed, 7 and 11 not
@example([1, 360, 7**3], [2, 3, 5], 7 * 11, 3)  # no prime of g listed: no shift
def test_halved_shift_matches_valuation_loop(values, primes, g, q):
    half = pow(2, -1, q)
    want = []
    for x in values:
        shifted = [(valuation_loop(p, x) - valuation_loop(p, g) * half) % q for p in primes]
        want.append(tuple((j, c) for j, c in enumerate(shifted) if c))
    assert csr_tuples(*halved_shift_csr(values, g, sieve(200), primes, q)) == want


def test_valuation_vector_arithmetic():
    a, b = ((0, 2), (1, 6)), ((0, 6), (1, 3))
    assert add_rows(a, b, 7) == ((0, 1), (1, 2))
    assert add_rows(a, ((0, 5), (1, 1)), 7) == ()
    assert add_rows(a, (), 7) == add_rows((), a, 7) == a
    assert add_rows(((3, 1),), ((0, 2),), 3) == ((0, 2), (3, 1))
