import io
import json
import math
import time
from pathlib import Path

import pytest

from mulbasis.certificates import end_to_end_lower_bound, sphere_cover_report
from mulbasis.cli import RunConfig, rng_stream, run
from mulbasis.numtheory import sieve
from mulbasis.productsets import construct_interval_basis, exact_min_basis, first_uncovered
from mulbasis.reduction import (
    factorial_divisibility_check,
    random_divisibility_instance,
    random_injected_pair,
    reduce_pair,
)
from mulbasis.spherelab import (
    difference_census,
    overlap_refined_trial,
    overlap_trial,
    sphere_construction_basis,
    sphere_first_uncovered,
    sphere_min_basis,
)
from oracles import min_basis_exhaustive, sphere_min_brute

SEED = 20260814

# lhs of every criterion-3 trial, recorded before the overlap kernels were rewritten
CRITERION_3_LHS = Path(__file__).resolve().parent / "golden" / "overlap_criterion3_lhs.json"


def test_criterion_1_census_formulas_exact():
    t0 = time.monotonic()
    for n in range(5, 15):
        census = difference_census(n)
        by = {r.case.value: r for r in census.rows}
        if n >= 6:  # a six-coordinate difference needs six dimensions
            assert by["case1"].enumerated_count == by["case1"].formula_count == 1
        else:
            assert "case1" not in by
        assert by["case2"].enumerated_count == by["case2"].formula_count == n - 4
        assert by["case3"].enumerated_count == by["case3"].formula_count == math.comb(n - 2, 2)
        assert by["case2"].enumerated_count < n  # strict, zero tolerance
        assert by["case3"].enumerated_count < n * n
        assert census.other_seen == 0
        assert census.total_pairs == math.comb(n, 3) ** 2
        assert all(r.holds for r in census.rows)
    assert time.monotonic() - t0 < 10.0


def test_criterion_2_sphere_basis_sandwich():
    t0 = time.monotonic()
    assert sphere_min_basis(3).size == 1

    exact = sphere_min_basis(4)
    oracle_size, _ = sphere_min_brute(4)
    assert exact.optimal
    assert exact.size == oracle_size == 4
    assert exact.size >= 3  # counting bound: 4 targets need k(k+1)/2 >= 4

    for n in range(3, 33):
        basis = sphere_construction_basis(n)
        assert len(basis) == n * (n + 1) // 2
        assert sphere_first_uncovered(basis, n) is None
    assert time.monotonic() - t0 < 600.0


def test_criterion_3_overlap_trial_suites():
    expected = json.loads(CRITERION_3_LHS.read_text())
    t0 = time.monotonic()
    n = 2048
    for i in range(100):
        res = overlap_trial(n, 2, 41943, rng_stream(SEED + 3, i))
        assert res.hypotheses_ok and res.n_large_enough
        assert 50 * res.lhs <= n * n  # zero failures allowed
        assert res.holds
        assert res.lhs == expected["overlap_trial"][i]
    for j, (m, a_size) in enumerate([(1100, 1), (2500, 2)]):
        for i in range(100):
            res = overlap_refined_trial(m, a_size, 50, rng_stream(SEED + 30 + j, i))
            assert res.holds
            assert res.lhs <= res.pair_bound  # tight bound
            assert res.pair_bound <= res.linear_bound == m * res.a_size + res.b_size
            assert res.lhs == expected["overlap_refined_trial"][j][i]
    assert time.monotonic() - t0 < 150.0


def test_criterion_4_exact_interval_minima():
    t0 = time.monotonic()
    table = sieve(24)
    for M in range(1, 25):
        targets = list(range(1, M + 1))
        sol = exact_min_basis(targets)
        assert sol.optimal
        oracle_size, _ = min_basis_exhaustive(targets)
        assert sol.size == oracle_size  # exact match, zero tolerance
        assert sol.size >= table.prime_count(M) + 1  # 1 and every prime forced
        assert sol.size <= len(construct_interval_basis(M))
    assert time.monotonic() - t0 < 300.0


def test_criterion_5_interval_basis_scales():
    for M in (10**3, 10**4, 10**5, 10**6):
        basis = construct_interval_basis(M)
        assert first_uncovered(list(range(1, M + 1)), basis) is None
        pi = sieve(M).prime_count(M)
        assert len(basis) <= pi + M ** (2 / 3) + 1


def test_criterion_6_reduction_invariants():
    for i in range(500):
        pair = random_injected_pair(rng_stream(SEED + 6, i))
        before = math.prod(pair.basis)
        out = reduce_pair(pair)
        assert math.gcd(out.ap.v, out.ap.g) == 1
        assert first_uncovered(out.ap.elements(), out.basis) is None
        assert out.ap.M == pair.ap.M
        assert math.prod(out.basis) < before  # every injected pair reduces
        assert reduce_pair(out) == out  # idempotent on reduced pairs


def test_criterion_7_factorial_divisibility():
    instances = [random_divisibility_instance(rng_stream(SEED + 7, i)) for i in range(200)]
    table = sieve(max(u + M * v for u, v, M in instances))
    for u, v, M in instances:
        res = factorial_divisibility_check(u, v, M, table)
        assert res.divides  # exact multiprecision divisibility, zero failures


def test_criterion_8_certificate_soundness():
    for n in (8, 16, 24):
        basis = sphere_construction_basis(n)
        reports = sphere_cover_report(basis, n)
        identity = reports[0]
        assert identity.name == "degree_square_identity"
        assert identity.lhs == identity.rhs  # exact equality
        assert all(r.holds for r in reports if r.hypotheses_ok)
        implied = next(r for r in reports if r.name == "implied_basis_lower_bound")
        assert implied.lhs <= len(basis)

    t0 = time.monotonic()
    for M in (100, 10**4, 10**5):
        res = end_to_end_lower_bound(M, construct_interval_basis(M))
        assert res.bound <= res.basis_size
        assert res.bound >= res.m1_size - 1
        chain = {r.name: r for r in res.chain}
        assert chain["projection_tree_bound"].holds
        assert chain["component_edge_bound"].holds
        assert res.all_hold  # zero violated reports with hypotheses_ok=true
    assert time.monotonic() - t0 < 60.0


ACCEPTANCE_COMMANDS = [
    ("mbp-search", {"m": 6, "a_max": 4, "d_max": 4}),
    ("reduce", {"random": 10}),
    ("factorial-check", {"random": 10}),
    ("sphere-overlap", {"n": 2048, "x_size": 2, "y_size": 4096, "trials": 10}),
    ("sphere-overlap-general", {"n": 1100, "a_size": 1, "b_size": 50, "trials": 10}),
    ("sphere-certificate", {"n": 8}),
    ("pipeline-bound", {"m": 1000}),
]


@pytest.mark.parametrize("command,params", ACCEPTANCE_COMMANDS, ids=[c for c, _ in ACCEPTANCE_COMMANDS])
def test_criterion_9_reports_jobs_invariant(command, params):
    payloads = []
    for jobs in (1, 4):
        buf = io.StringIO()
        code = run(RunConfig(command=command, parameters=params, seed=SEED, jobs=jobs), out=buf)
        assert code == 0
        payloads.append(buf.getvalue())
    assert payloads[0] == payloads[1]  # byte-identical
