import functools
import io
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mulbasis import __version__, cli, productsets
from mulbasis.cli import RunConfig, ScalarStream, main, rng_stream, run
from mulbasis.certificates import PipelineError
from mulbasis.productsets import construct_interval_basis, first_uncovered
from mulbasis.reduction import (
    InvariantViolationError,
    random_divisibility_instance,
    random_injected_pair,
)
from mulbasis.spherelab import SPHERE_EXACT_MAX_N

GOLDEN = Path(__file__).resolve().parent / "golden"

# one cheap invocation per subcommand, reused by the format tests
SMOKE_ARGS = {
    "primes": ["--limit", "30"],
    "min-basis": ["--interval", "4"],
    "interval-basis": ["--m", "100"],
    "mbp-search": ["--m", "4", "--a-max", "2", "--d-max", "2"],
    "reduce": ["--random", "2"],
    "factorial-check": ["--u", "1", "--v", "1", "--m", "6"],
    "sphere-enumerate": ["--n", "4"],
    "sphere-cases": ["--n", "6"],
    "sphere-min-basis": ["--n", "3"],
    "sphere-construct": ["--n", "5"],
    "sphere-overlap": ["--n", "2048", "--x-size", "1", "--y-size", "10"],
    "sphere-overlap-general": ["--n", "1100", "--a-size", "1", "--b-size", "10"],
    "sphere-certificate": ["--n", "5"],
    "pipeline-bound": ["--m", "100"],
}

CSV_HEADERS = {
    "primes": "limit,lo,hi,count,primes",
    "min-basis": "M,size,optimal,nodes,basis",
    "interval-basis": "M,size,size_bound,covered",
    "mbp-search": "a,d,size,optimal,is_best",
    "reduce": (
        "M,in_offset,in_step,out_g,out_u,out_v,"
        "basis_size_in,basis_size_out,covered,product_decreased"
    ),
    "factorial-check": "u,v,M,marked_count,exceptional_count,surviving_count,divides",
    "sphere-enumerate": "n,k,index,vector",
    "sphere-cases": "n,case,formula_count,enumerated_count,bound,holds",
    "sphere-min-basis": "n,size,optimal,nodes,basis",
    "sphere-construct": "n,size,covered",
    "sphere-overlap": "trial,n,x_size,y_size,lhs,bound,holds,hypotheses_ok,n_large_enough",
    "sphere-overlap-general": "trial,n,a_size,b_size,lhs,pair_bound,linear_bound,holds",
    "sphere-certificate": "name,lhs,rhs,hypotheses_ok,holds",
    "pipeline-bound": (
        "M,u,g,basis_size,bound,m1_size,m2_size,p1_size,p2_size,"
        "bprime_size,tree_count,sphere_size,sphere_ran,all_hold"
    ),
}


def run_json(argv, capsys, expect_code=0):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == expect_code, captured.err or captured.out
    return json.loads(captured.out)


# ---------------------------------------------------------- worked examples


def test_min_basis_interval_four(capsys):
    payload = run_json(["min-basis", "--interval", "4"], capsys)
    row = payload["results"][0]
    assert row["M"] == 4
    assert row["size"] == 3
    assert row["optimal"] is True


def test_sphere_cases_csv_row(capsys):
    code = main(["sphere-cases", "--n", "7", "--case", "2", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADERS["sphere-cases"]
    assert lines[1:] == ["7,case2,3,3,7,true"]


def test_overlap_rejects_unsatisfiable_hypothesis(capsys):
    code = main(["sphere-overlap", "--n", "100", "--x-size", "5", "--y-size", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert "x-size 5" in captured.err


# ---------------------------------------------------------- envelope and formats


def test_json_envelope_shape(capsys):
    payload = run_json(["interval-basis", "--m", "1000", "--seed", "3"], capsys)
    assert sorted(payload) == ["checks", "config", "results", "version"]
    config = payload["config"]
    assert config["command"] == "interval-basis"
    assert config["seed"] == 3
    assert config["format"] == "json"
    assert "jobs" not in config
    assert payload["results"][0]["size"] == 243
    assert payload["results"][0]["covered"] is True
    assert all(c["holds"] for c in payload["checks"])


@pytest.mark.parametrize("command", sorted(SMOKE_ARGS))
def test_csv_headers_frozen(command, capsys):
    code = main([command, *SMOKE_ARGS[command], "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == CSV_HEADERS[command]


def test_text_format_reports_checks(capsys):
    code = main(["pipeline-bound", "--m", "100", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("# pipeline-bound seed=0")
    assert "check bound_soundness:" in out
    assert " FAIL" not in out


def test_out_file_duplicates_stdout(tmp_path, capsys):
    assert main(["min-basis", "--interval", "6"]) == 0
    plain = capsys.readouterr().out
    target = tmp_path / "report.json"
    code = main(["min-basis", "--interval", "6", "--out", str(target)])
    out = capsys.readouterr().out
    assert code == 0
    assert target.read_text() == out
    assert out == plain  # the output path stays out of the payload


def test_primes_window(capsys):
    payload = run_json(["primes", "--limit", "50", "--lo", "10", "--hi", "30"], capsys)
    row = payload["results"][0]
    assert row["primes"] == [11, 13, 17, 19, 23, 29]
    assert row["count"] == 6


def test_sphere_enumerate_lists_support_order(capsys):
    payload = run_json(["sphere-enumerate", "--n", "4"], capsys)
    assert [r["vector"] for r in payload["results"]] == ["1110", "1101", "1011", "0111"]


def test_sphere_enumerate_k_zero_lists_the_zero_vector(capsys):
    payload = run_json(["sphere-enumerate", "--n", "4", "--k", "0"], capsys)
    assert payload["results"] == [{"n": 4, "k": 0, "index": 0, "vector": "0000"}]


def test_min_basis_elements_parsing(capsys):
    payload = run_json(["min-basis", "--elements", "3,,7"], capsys)
    assert payload["results"][0]["basis"] == [1, 3, 7]


# ---------------------------------------------------------- exit codes


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_min_basis_requires_target_set():
    with pytest.raises(SystemExit) as exc:
        main(["min-basis"])
    assert exc.value.code == 2


def test_factorial_check_requires_instance_or_random():
    with pytest.raises(SystemExit) as exc:
        main(["factorial-check"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["factorial-check", "--u", "1", "--v", "1", "--m", "6", "--random", "2"],
        ["factorial-check", "--u", "1", "--random", "2"],
    ],
    ids=["full-instance", "partial-instance"],
)
def test_factorial_check_rejects_instance_with_random(argv, capsys):
    # neither form may be silently dropped for the other
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.err.splitlines()[-1] == (
        "mulbasis: error: factorial-check takes either --u/--v/--m or --random, not both"
    )
    assert captured.out == ""


def test_version_flag_exits_0():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_python_dash_m_runs_the_cli():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "mulbasis", "--version"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, f"{__version__}\n", "")


def test_budget_exhaustion_exits_1(capsys):
    code = main(["min-basis", "--interval", "14", "--budget-nodes", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["results"][0]["optimal"] is False


def test_sphere_search_fallback_exits_1(capsys):
    code = main(["sphere-min-basis", "--n", "4", "--budget-nodes", "10"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["results"][0]["optimal"] is False
    assert payload["results"][0]["size"] == 5  # the first pass's cover {0} | S_3


def test_sphere_overlap_general_hypothesis_enforced(capsys):
    code = main(["sphere-overlap-general", "--n", "50", "--a-size", "1", "--b-size", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "a-size" in captured.err


def test_refused_allocation_exits_2(capsys):
    # S_3 in n = 10^5 coordinates has C(n, 3) * n entries, past np.intp, so
    # sphere_rows refuses it before allocating; at n = 10^7 the support count
    # alone once escaped numpy as an OverflowError traceback with exit 1
    for argv, entries in [
        (["sphere-enumerate", "--n", "100000"], 16666166670000000000),
        (["sphere-enumerate", "--n", "10000000", "--k", "3"], 1666666166666700000000000000),
        (["sphere-cases", "--n", "10000000"], 1666666166666700000000000000),
    ]:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        n = argv[argv.index("--n") + 1]
        assert captured.err == f"error: S_3 in {n} coordinates has {entries} entries, past an array's index range\n"


def test_missing_json_file_exits_2(capsys):
    code = main(["reduce", "--json-file", "/nonexistent/pair.json"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "record,message",
    [
        ({}, "pair record has no field 'ap'"),
        ({"ap": {"g": 1, "u": 0, "v": 1}, "basis": [1, 2]}, "pair record has no field 'ap.M'"),
        ([1, 2], "pair record must be an object, got list"),
        # bool("false") is True, which once failed later as a coprimality error
        (
            {"ap": {"g": 2, "u": 1, "v": 2, "M": 3}, "basis": [1, 2, 3], "reduced": "false"},
            "pair record field 'reduced' must be a boolean",
        ),
        # int() once read 1.9 and "1" as 1 and True as 1
        ({"ap": {"g": 1, "u": 0, "v": 1, "M": 2}, "basis": [1.9, 2]}, "pair record field 'basis' must list integers"),
        ({"ap": {"g": 1, "u": 0, "v": 1, "M": 2}, "basis": [True, 2]}, "pair record field 'basis' must list integers"),
        ({"ap": {"g": 1, "u": 0, "v": 1, "M": 2}, "basis": ["1", 2]}, "pair record field 'basis' must list integers"),
    ],
    ids=["empty", "no-ap-M", "list", "reduced-string", "basis-float", "basis-bool", "basis-string"],
)
def test_reduce_malformed_record_exits_2_with_one_line(record, message, tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(record))
    code = main(["reduce", "--json-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_sphere_certificate_rejects_digits_outside_f3(tmp_path, capsys):
    # 4000 would otherwise be read as 1000, mod 3, and certified
    path = tmp_path / "basis.txt"
    path.write_text("# one vector\n4000\n")
    code = main(["sphere-certificate", "--n", "4", "--basis-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: line 2: vector '4000' has a coordinate outside 0, 1, 2\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "command,flag",
    [
        ("sphere-overlap", "--x-size"),
        ("sphere-overlap", "--y-size"),
        ("sphere-overlap-general", "--a-size"),
        ("sphere-overlap-general", "--b-size"),
    ],
)
def test_overlap_sizes_below_zero_rejected(command, flag, capsys):
    argv = list(SMOKE_ARGS[command])
    argv[argv.index(flag) + 1] = "-1"
    code = main([command, *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {flag} must be at least 0, got -1\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "command,argv",
    [
        ("sphere-overlap", ["--n", "-5", "--x-size", "0", "--y-size", "0"]),
        ("sphere-overlap-general", ["--n", "-5", "--a-size", "0", "--b-size", "0"]),
    ],
)
def test_overlap_dimension_below_zero_names_n(command, argv, capsys):
    code = main([command, *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: --n must be at least 0, got -5\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "command,argv,field,size",
    [
        ("sphere-overlap", ["--n", "2048", "--x-size", "0", "--y-size", "4"], "y_size", 4),
        ("sphere-overlap-general", ["--n", "1100", "--a-size", "0", "--b-size", "50"], "b_size", 50),
    ],
)
def test_overlap_with_empty_small_set_keeps_the_large_set_size(command, argv, field, size, capsys):
    # with no X (or A) to shift by, every row of Y (or B) is drawn uniform
    payload = run_json([command, *argv], capsys)
    assert [r[field] for r in payload["results"]] == [size]


def test_sphere_certificate_short_vector_names_its_line(tmp_path, capsys):
    path = tmp_path / "basis.txt"
    path.write_text("111\n\n1\n")
    code = main(["sphere-certificate", "--n", "3", "--basis-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: line 3: vector '1' does not have 3 coordinates\n"
    assert captured.out == ""


def test_pipeline_basis_file_names_the_line_that_is_not_an_integer(tmp_path, capsys):
    path = tmp_path / "basis.txt"
    path.write_text("1\n2\nabc\n")
    code = main(["pipeline-bound", "--m", "10", "--basis-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: line 3: invalid literal for int() with base 10: 'abc'\n"
    assert captured.out == ""


def test_pipeline_stage_rejection_exits_2_with_one_line(tmp_path, capsys):
    empty = tmp_path / "basis.txt"
    empty.write_text("")
    code = main(["pipeline-bound", "--m", "10", "--basis-file", str(empty)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: [input] empty basis\n"
    assert captured.out == ""


def test_pipeline_basis_file_with_zero_is_rejected_by_input_stage(tmp_path, capsys):
    path = tmp_path / "basis.txt"
    path.write_text("0\n1\n2\n3\n")
    code = main(["pipeline-bound", "--m", "7", "--basis-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: [input] basis elements must be positive, got 0\n"
    assert captured.out == ""


def test_pipeline_cover_stage_names_the_first_uncovered_element(tmp_path, capsys):
    basis = [b for b in construct_interval_basis(2000) if b != 4]
    gap = first_uncovered(range(1, 2001), basis)
    assert gap is not None and gap != 4
    path = tmp_path / "basis.txt"
    path.write_text("".join(f"{b}\n" for b in basis))
    code = main(["pipeline-bound", "--m", "2000", "--basis-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: [cover] element {gap} is not covered\n"
    assert captured.out == ""


def test_pipeline_out_of_range_u_rejected_by_marks_stage(capsys):
    code = main(["pipeline-bound", "--m", "30", "--u", "40"])
    assert code == 2
    assert capsys.readouterr().err == "error: [marks] u must lie in [0, 30], got 40\n"


def test_invariant_violation_exits_3(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InvariantViolationError("final bound 9 exceeds the actual basis size 8")

    monkeypatch.setattr(cli, "end_to_end_lower_bound", broken)
    code = main(["pipeline-bound", "--m", "10"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "error: invariant violated: final bound 9 exceeds the actual basis size 8\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["min-basis", "--interval", "6"],
        ["mbp-search", "--m", "3", "--a-max", "2", "--d-max", "2", "--jobs", "1"],
        ["mbp-search", "--m", "3", "--a-max", "2", "--d-max", "2", "--jobs", "2"],
    ],
    ids=["min-basis", "mbp-search-jobs1", "mbp-search-jobs2"],
)
def test_search_non_cover_exits_3(argv, monkeypatch, capsys):
    # a cover check that reports a gap in the incumbent stands for a solver bug;
    # forked workers inherit the patch and send the error back by pickle
    monkeypatch.setattr(productsets, "first_uncovered", lambda A, B: min(A))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: invariant violated: search produced a non-cover, uncovered 1\n"


@pytest.mark.parametrize(
    "args,message",
    [
        (["--m", "10", "--g", "0"], "--g must be at least 1, got 0"),
        (["--m", "10", "--u", "-1"], "--u must be nonnegative, got -1"),
        (["--m", "0"], "--m must be at least 1, got 0"),
    ],
    ids=["g0", "u-1", "m0"],
)
def test_pipeline_rejects_out_of_range_arguments(args, message, capsys):
    code = main(["pipeline-bound", *args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_pipeline_rejects_basis_beyond_int64(tmp_path, capsys):
    basis = tmp_path / "basis.txt"
    basis.write_text("".join(f"{i}\n" for i in range(1, 11)) + "99999999999999999999\n")
    code = main(["pipeline-bound", "--m", "10", "--basis-file", str(basis)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        "error: [input] value 99999999999999999999 exceeds 2^63 - 1, "
        "the int64 range of the valuation embedding\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["reduce", "--random"], "--random"),
        (["factorial-check", "--random"], "--random"),
        (["sphere-overlap", *SMOKE_ARGS["sphere-overlap"], "--trials"], "--trials"),
        (["sphere-overlap-general", *SMOKE_ARGS["sphere-overlap-general"], "--trials"], "--trials"),
    ],
    ids=["reduce", "factorial-check", "sphere-overlap", "sphere-overlap-general"],
)
@pytest.mark.parametrize("count", ["0", "-1"])
def test_counts_below_one_rejected(argv, flag, count, capsys):
    code = main([*argv, count])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {flag} must be at least 1, got {count}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["min-basis", "--interval", "8"],
        ["mbp-search", *SMOKE_ARGS["mbp-search"]],
        ["sphere-min-basis", *SMOKE_ARGS["sphere-min-basis"]],
    ],
    ids=["min-basis", "mbp-search", "sphere-min-basis"],
)
@pytest.mark.parametrize("budget", ["0", "-1"])
def test_node_budget_below_one_rejected(argv, budget, capsys):
    code = main([*argv, "--budget-nodes", budget])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: --budget-nodes must be at least 1, got {budget}\n"
    assert captured.out == ""


@pytest.mark.parametrize("n", ["0", "1", "2"])
def test_sphere_min_basis_rejects_dimension_below_3(n, capsys):
    # S_3 is empty below n = 3; the other sphere commands reject these n too
    code = main(["sphere-min-basis", "--n", n])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: --n must be at least 3, got {n}\n"
    assert captured.out == ""


def test_sphere_min_basis_rejects_dimension_above_cap(capsys):
    n = SPHERE_EXACT_MAX_N + 1
    code = main(["sphere-min-basis", "--n", str(n)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: exact sphere search is limited to n <= {SPHERE_EXACT_MAX_N}; got n={n}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "flag,value,least",
    [("--m", "0", 1), ("--a-max", "-1", 0), ("--d-max", "0", 1)],
)
def test_mbp_search_rejects_out_of_range_grid(flag, value, least, capsys):
    argv = {"--m": "3", "--a-max": "2", "--d-max": "2", flag: value}
    code = main(["mbp-search", *(x for kv in argv.items() for x in kv)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {flag} must be at least {least}, got {value}\n"
    assert captured.out == ""


def test_primes_hi_zero_is_an_empty_window(capsys):
    payload = run_json(["primes", "--limit", "30", "--hi", "0"], capsys)
    row = payload["results"][0]
    assert (row["lo"], row["hi"], row["count"], row["primes"]) == (2, 0, 0, [])


def test_primes_lo_zero_is_kept(capsys):
    payload = run_json(["primes", "--limit", "10", "--lo", "0"], capsys)
    row = payload["results"][0]
    assert (row["lo"], row["primes"]) == (0, [2, 3, 5, 7])


def test_sieve_past_its_budget_exits_2_with_one_line(monkeypatch, capsys):
    monkeypatch.delenv("MULBASIS_SIEVE_LIMIT", raising=False)
    # the limit is checked before any allocation
    code = main(["primes", "--limit", "200000000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        "error: sieve limit 200000000 exceeds budget 100000000 "
        "(set MULBASIS_SIEVE_LIMIT to raise it)\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize("m,u,g", [(20, 0, 2), (100, 17, 3)])
def test_pipeline_default_basis_covers_the_progression(m, u, g, capsys):
    payload = run_json(["pipeline-bound", "--m", str(m), "--u", str(u), "--g", str(g)], capsys)
    row = payload["results"][0]
    assert (row["M"], row["u"], row["g"]) == (m, u, g)
    assert row["all_hold"] is True


# ---------------------------------------------------------- golden payloads


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("m", [100, 1000, 10000])
def test_pipeline_bound_matches_golden_payload(m, fmt, capsys):
    code = main(["pipeline-bound", "--m", str(m), "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"pipeline-bound_m{m}.{fmt}").read_text(encoding="utf-8")


def test_pipeline_bound_m1_is_vacuous(capsys):
    # no column survives at M = 1: bound = 0 marks + 1/2 projection - 1
    code = main(["pipeline-bound", "--m", "1", "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[1] == "1,0,1,1,-0.5,0,0,0,0,1,0,1,false,true"


# recorded before construct_interval_basis took its witnesses from the sieve table
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_interval_basis_matches_golden_payload(fmt, capsys):
    code = main(["interval-basis", "--m", "1000", "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"interval-basis_m1000.{fmt}").read_text(encoding="utf-8")


# recorded before the lexicographic pass of exact_min_basis went incremental;
# min-basis payloads carry the node count of both search passes, so the
# nodes column of min-basis_interval20 and min-basis_elements was re-recorded
# when that pass became sequential fixing by the first pass's search (the
# budget100 run stops at 101 nodes either way)
EXACT_SEARCH_GOLDEN = {
    "min-basis_interval20": ["min-basis", "--interval", "20"],
    "min-basis_interval20_budget100": ["min-basis", "--interval", "20", "--budget-nodes", "100"],
    "min-basis_elements": ["min-basis", "--elements", "6,10,15,21,35,36,49,77"],
    "mbp-search_m5_a6_d6": ["mbp-search", "--m", "5", "--a-max", "6", "--d-max", "6"],
}


# mbp-search runs its grid on a process pool under --jobs
EXACT_SEARCH_CASES = [pytest.param(name, 1, id=name) for name in sorted(EXACT_SEARCH_GOLDEN)]
EXACT_SEARCH_CASES.append(pytest.param("mbp-search_m5_a6_d6", 3, id="mbp-search_m5_a6_d6-jobs3"))


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name,jobs", EXACT_SEARCH_CASES)
def test_exact_search_matches_golden_payload(name, jobs, fmt, capsys):
    code = main([*EXACT_SEARCH_GOLDEN[name], "--jobs", str(jobs), "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")


# recorded before sphere_cover_verify and the pairing graph shared one pair
# scan; n = 33 is past the 32 coordinates of its packed base-3 branch.  The
# n = 6 basis file (read from tests/golden) adds 111002 to S_1 | S_2, so a
# pair other than the split is lex-least for 111000; recorded on the
# per-target scan, before the all-pairs kernel.  The sphere-min-basis
# goldens come from the shared cover search: n = 4's nodes cell was
# re-recorded when it replaced the subset search, and n = 5 is frozen
# as that search first proved it
SPHERE_GOLDEN = {
    "sphere-certificate_n16": ["sphere-certificate", "--n", "16"],
    "sphere-certificate_n6_basis": [
        "sphere-certificate", "--n", "6", "--basis-file", "basis_n6_s1s2_111002.txt"
    ],
    "sphere-construct_n33": ["sphere-construct", "--n", "33"],
    "sphere-min-basis_n4": ["sphere-min-basis", "--n", "4"],
    "sphere-min-basis_n5": ["sphere-min-basis", "--n", "5"],
}


@pytest.mark.parametrize("name", sorted(SPHERE_GOLDEN))
def test_sphere_commands_match_golden_payload(name, monkeypatch, capsys):
    # both formats render one exact search, which takes seconds at n = 5
    monkeypatch.setattr(cli, "sphere_min_basis", functools.cache(cli.sphere_min_basis))
    monkeypatch.chdir(GOLDEN)  # a basis file's name, not its path, lands in config
    for fmt in ("json", "csv"):
        code = main([*SPHERE_GOLDEN[name], "--format", fmt])
        out = capsys.readouterr().out
        assert code == 0
        assert out == (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")


# recorded before factorial_divisibility_check walked each term once and
# before _indexed_map handed each worker one slice
BATCH_GOLDEN = {
    "factorial-check_random200": ["factorial-check", "--random", "200", "--seed", "0"],
    "reduce_random200": ["reduce", "--random", "200", "--seed", "0"],
}


@pytest.mark.parametrize("jobs", [1, 3])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", sorted(BATCH_GOLDEN))
def test_batch_commands_match_golden_payload(name, fmt, jobs, capsys):
    code = main([*BATCH_GOLDEN[name], "--jobs", str(jobs), "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")


# recorded before the valuation embedding moved into numtheory; the two
# overlap commands gave the same bytes at --jobs 1 and --jobs 2
LISTING_GOLDEN = {
    "primes_limit1000": ["primes", "--limit", "1000"],
    "sphere-enumerate_n6_k3": ["sphere-enumerate", "--n", "6", "--k", "3"],
    "sphere-cases_n9": ["sphere-cases", "--n", "9"],
    "sphere-overlap_n2048": [
        "sphere-overlap", "--n", "2048", "--x-size", "2", "--y-size", "4096", "--trials", "3"
    ],
    "sphere-overlap-general_n1100": [
        "sphere-overlap-general", "--n", "1100", "--a-size", "1", "--b-size", "50", "--trials", "3"
    ],
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(LISTING_GOLDEN))
def test_listing_and_overlap_commands_match_golden_payload(name, jobs, capsys):
    for fmt in ("json", "csv"):
        code = main([*LISTING_GOLDEN[name], "--jobs", str(jobs), "--format", fmt])
        out = capsys.readouterr().out
        assert code == 0
        assert out == (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")


# recorded before the subcommands were declared in one command table: the
# help texts pin each flag's order, requiredness, choices and exclusive
# groups; the text payloads pin the order of each row's keys; the config
# blocks pin the defaults every JSON payload carries
def test_help_matches_golden(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "100")
    parts = []
    for argv in [[], *([command] for command in SMOKE_ARGS)]:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        parts.append(f"$ mulbasis {' '.join([*argv, '--help'])}\n{capsys.readouterr().out}")
    assert "".join(parts) == (GOLDEN / "help.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("command", sorted(SMOKE_ARGS))
def test_text_payload_matches_golden(command, capsys):
    code = main([command, *SMOKE_ARGS[command], "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == json.loads((GOLDEN / "smoke_text.json").read_text(encoding="utf-8"))[command]


@pytest.mark.parametrize("command", sorted(SMOKE_ARGS))
def test_json_config_matches_golden(command, capsys):
    config = run_json([command, *SMOKE_ARGS[command]], capsys)["config"]
    golden = json.loads((GOLDEN / "smoke_config.json").read_text(encoding="utf-8"))[command]
    assert json.dumps(config, sort_keys=True) == json.dumps(golden, sort_keys=True)


# ---------------------------------------------------------- seeded commands


def test_reduce_json_file_round_trip(tmp_path, capsys):
    pair = random_injected_pair(rng_stream(5, 0))
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair.to_record()))
    payload = run_json(["reduce", "--json-file", str(path)], capsys)
    row = payload["results"][0]
    assert row["covered"] is True
    assert row["product_decreased"] is True
    assert row["M"] == pair.ap.M


def test_reduce_random_batch(capsys):
    payload = run_json(["reduce", "--random", "5", "--seed", "11"], capsys)
    assert len(payload["results"]) == 5
    assert all(r["covered"] for r in payload["results"])
    assert all(c["holds"] for c in payload["checks"])


def test_factorial_check_random_batch(capsys):
    payload = run_json(["factorial-check", "--random", "8", "--seed", "4"], capsys)
    assert len(payload["results"]) == 8
    assert all(r["divides"] for r in payload["results"])


def test_seed_changes_random_draws(capsys):
    main(["reduce", "--random", "3", "--seed", "0"])
    first = capsys.readouterr().out
    main(["reduce", "--random", "3", "--seed", "1"])
    second = capsys.readouterr().out
    assert first != second


# ---------------------------------------------------------- scalar stream

_WORD = st.integers(0, 2**64 - 1)
# span 1 draws nothing; about half the draws of span 2**31 + 1 are rejected;
# span 2**32 is a bare half word
_SPANS = [1, 2, 3, 2**31 + 1, 2**32 - 1, 2**32]
_BOUNDS = st.tuples(st.integers(-(2**40), 2**40), st.sampled_from(_SPANS) | st.integers(1, 2**32)).map(
    lambda low_span: (low_span[0], low_span[0] + low_span[1])
)


@settings(max_examples=150, deadline=None)
@given(seed=_WORD, stream=_WORD, bounds=st.lists(_BOUNDS, max_size=40))
@example(seed=2**63, stream=0, bounds=[(0, n) for n in _SPANS] + [(-5, -3), (7, 8), (10, 2**31 + 11)])
@example(seed=2**64 - 1, stream=2**64 - 1, bounds=[(3, 3 + 2**31 + 1)] * 12)
def test_scalar_stream_draws_what_numpy_draws(seed, stream, bounds):
    ours, ref = ScalarStream(seed, stream), rng_stream(seed, stream)
    assert [ours.integers(lo, hi) for lo, hi in bounds] == [int(ref.integers(lo, hi)) for lo, hi in bounds]
    # the full 32-bit draws that follow read the buffered half word alike
    assert [ours.integers(0, 2**32) for _ in range(10)] == [int(ref.integers(0, 2**32)) for _ in range(10)]


@pytest.mark.parametrize("counter", [0, 5, 2**64 - 2, 2**64 - 1, 2**128 - 1, 2**192 - 1, 2**256 - 2, 2**256 - 1])
@pytest.mark.parametrize("key", [(0, 0), (2**63, 1), (2**64 - 1, 2**64 - 1)])
def test_philox_block_matches_numpy_next_to_a_carry(counter, key):
    ref = np.random.Philox(counter=counter, key=np.array(key, dtype=np.uint64)).random_raw(4)
    # NumPy increments the counter before its first block, with carry out of 2**256 - 1
    assert list(cli._philox_block((counter + 1) % 2**256, cli._round_keys(*key))) == [int(w) for w in ref]


@pytest.mark.parametrize("low,high", [(0, 0), (5, 4), (0, -3), (0, 2**32 + 1), (-(2**40), 2**40)])
def test_scalar_stream_rejects_empty_and_wide_spans(low, high):
    with pytest.raises(ValueError, match="high - low"):
        ScalarStream(0, 0).integers(low, high)


def test_instance_generators_agree_on_both_streams():
    for seed in (0, 1, 7, 2**63 + 3):
        for i in range(500):
            assert random_injected_pair(ScalarStream(seed, i)) == random_injected_pair(rng_stream(seed, i))
            assert random_divisibility_instance(ScalarStream(seed, i)) == random_divisibility_instance(
                rng_stream(seed, i)
            )


_HIGH_SEEDS = [2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1]


def test_seeds_past_2_63_key_distinct_streams(recwarn):
    payloads = []
    for seed in _HIGH_SEEDS:
        buf = io.StringIO()
        assert run(RunConfig(command="reduce", parameters={"random": 3}, seed=seed), out=buf) == 0
        payloads.append(json.loads(buf.getvalue())["results"])
        ours, ref = ScalarStream(seed, 1), rng_stream(seed, 1)
        assert [ours.integers(0, 2**32) for _ in range(4)] == [int(ref.integers(0, 2**32)) for _ in range(4)]
    assert len({json.dumps(p) for p in payloads}) == len(_HIGH_SEEDS)
    assert len(recwarn) == 0


@pytest.mark.parametrize("seed", ["-1", "-2", str(2**64)])
def test_seed_outside_64_bits_exits_2(seed, capsys):
    assert main(["reduce", "--random", "2", "--seed", seed]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: seed must lie in [0, 2**64), got {seed}\n"


@pytest.mark.parametrize("word", [-1, 2**64])
def test_streams_reject_key_words_outside_64_bits(word):
    # folded mod 2**64, -1 and 2**64 - 1 drew one stream
    for make in (ScalarStream, rng_stream):
        with pytest.raises(ValueError, match=rf"^seed must lie in \[0, 2\*\*64\), got {word}$"):
            make(word, 0)
        with pytest.raises(ValueError, match=rf"^stream must lie in \[0, 2\*\*64\), got {word}$"):
            make(0, word)


def test_streams_take_the_top_key_word():
    ours, ref = ScalarStream(2**64 - 1, 2**64 - 1), rng_stream(2**64 - 1, 2**64 - 1)
    assert [ours.integers(0, 100) for _ in range(8)] == [int(ref.integers(0, 100)) for _ in range(8)]


def test_min_basis_notes_an_exhausted_fixing_pass(capsys):
    # the size is proved, but the fixing pass ran out: the payload and exit
    # code stay as recorded, and one stderr line says the basis is the first pass's
    argv = EXACT_SEARCH_GOLDEN["min-basis_interval20_budget100"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == (GOLDEN / "min-basis_interval20_budget100.json").read_text(encoding="utf-8")
    assert err.startswith("note: ") and err.count("\n") == 1
    assert "first pass" in err
    assert main(EXACT_SEARCH_GOLDEN["min-basis_interval20"]) == 0
    assert capsys.readouterr().err == ""
    # sphere-min-basis reports through the same path: n = 4 proves its size
    # in 2461 nodes, and the lex-least basis takes 12212
    assert main(["sphere-min-basis", "--n", "4", "--budget-nodes", "5000", "--format", "csv"]) == 0
    out, sphere_err = capsys.readouterr()
    assert out == "n,size,optimal,nodes,basis\n4,4,true,5001,0012;0102;1002;1101\n"
    assert sphere_err == err
    assert main(SPHERE_GOLDEN["sphere-min-basis_n4"]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == ((GOLDEN / "sphere-min-basis_n4.json").read_text(encoding="utf-8"), "")


def test_batch_commands_do_not_load_numpy_random():
    # a fresh interpreter: the scalar commands draw through ScalarStream only
    script = (
        "import io, sys\n"
        "from mulbasis.cli import RunConfig, run\n"
        "for command, params in [('reduce', {'random': 5}), ('factorial-check', {'random': 5}),\n"
        "                        ('mbp-search', {'m': 4, 'a_max': 2, 'd_max': 2})]:\n"
        "    assert run(RunConfig(command=command, parameters=params), out=io.StringIO()) == 0\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert (done.returncode, done.stderr) == (0, "")


def test_same_seed_repeats_exactly(capsys):
    argv = ["sphere-overlap", "--n", "2048", "--x-size", "2", "--y-size", "64",
            "--trials", "4", "--seed", "21"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


# ---------------------------------------------------------- jobs determinism

PARALLEL_CONFIGS = [
    ("mbp-search", {"m": 5, "a_max": 3, "d_max": 3}),
    ("reduce", {"random": 6}),
    ("factorial-check", {"random": 8}),
    ("sphere-overlap", {"n": 2048, "x_size": 2, "y_size": 200, "trials": 8}),
    ("sphere-overlap-general", {"n": 1100, "a_size": 1, "b_size": 40, "trials": 8}),
]


@pytest.mark.parametrize("command,params", PARALLEL_CONFIGS, ids=[c for c, _ in PARALLEL_CONFIGS])
def test_payload_identical_across_pool_sizes(command, params):
    payloads = []
    for jobs in (1, 4):
        buf = io.StringIO()
        config = RunConfig(command=command, parameters=params, seed=17, jobs=jobs)
        code = run(config, out=buf)
        assert code == 0
        payloads.append(buf.getvalue())
    assert payloads[0] == payloads[1]


def test_jobs_flag_does_not_enter_payload(capsys):
    argv = ["mbp-search", "--m", "4", "--a-max", "2", "--d-max", "2"]
    main(argv + ["--jobs", "1"])
    first = capsys.readouterr().out
    main(argv + ["--jobs", "3"])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("jobs", [1, 2, 3, 4, 5])
def test_indexed_map_returns_results_in_index_order(jobs):
    for count in range(8):
        items = [f"x{i}" for i in range(count)]

        def fn(i, x):
            time.sleep(0.001 * (count - i))  # later items finish first
            return i, x

        assert cli._indexed_map(fn, iter(items), jobs) == list(enumerate(items))


@pytest.mark.parametrize("jobs", [1, 3])
def test_indexed_map_passes_worker_errors_to_the_caller(jobs):
    def fn(i, x):
        if i == 4:
            raise ValueError(f"bad item {x}")
        return x

    with pytest.raises(ValueError, match="bad item 4"):
        cli._indexed_map(fn, range(7), jobs)


@pytest.mark.parametrize("jobs", [1, 2, 3, 5])
def test_indexed_map_uses_at_most_jobs_threads(jobs):
    callers = set()
    lock = threading.Lock()

    def fn(i, x):
        with lock:
            callers.add(threading.get_ident())
        time.sleep(0.002)
        return x

    assert cli._indexed_map(fn, range(12), jobs) == list(range(12))
    assert 1 <= len(callers) <= jobs


def test_indexed_map_caps_threads_at_the_core_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    callers = set()
    lock = threading.Lock()

    def fn(i, x):
        with lock:
            callers.add(threading.get_ident())
        time.sleep(0.002)
        return x

    assert cli._indexed_map(fn, range(12), 64) == list(range(12))
    assert 1 <= len(callers) <= 2


@pytest.mark.parametrize("jobs", [1, 2, 3, 4, 5])
def test_process_map_returns_results_in_index_order(jobs):
    for count in range(8):
        items = [f"x{i}" for i in range(count)]

        def fn(i, x):
            time.sleep(0.002 * (count - i))  # later items finish first
            return i, x

        assert cli._process_map(fn, iter(items), jobs) == list(enumerate(items))


def _raise_item_four(i, x):
    if i == 4:
        raise x
    return i


@pytest.mark.parametrize("jobs", [1, 3])
@pytest.mark.parametrize(
    "error",
    [
        ValueError("bad item"),
        InvariantViolationError("bad item"),
        PipelineError("input", "bad item"),
    ],
    ids=["value", "invariant", "pipeline"],
)
def test_process_map_passes_worker_errors_to_the_caller(error, jobs):
    # a worker's exception crosses back by pickle; the items cross by fork
    with pytest.raises(type(error)) as exc:
        cli._process_map(_raise_item_four, [error] * 7, jobs)
    assert type(exc.value) is type(error)
    assert str(exc.value) == str(error)


def _pid(i, x):
    time.sleep(0.01)
    return os.getpid()


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_process_map_uses_at_most_jobs_processes(jobs):
    pids = set(cli._process_map(_pid, range(6), jobs))
    assert 1 <= len(pids) <= jobs
    assert (os.getpid() in pids) == (jobs == 1)


def test_process_map_caps_processes_at_the_core_count(monkeypatch):
    # 12 items bound the processes even if the cap were missing
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert 1 <= len(set(cli._process_map(_pid, range(12), 64))) <= 2


def test_process_map_runs_serially_without_fork(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert set(cli._process_map(_pid, range(4), 2)) == {os.getpid()}


def test_csv_and_text_render_none_as_an_empty_cell(capsys):
    argv = ["min-basis", "--elements", "6,10,15"]
    main(argv + ["--format", "csv"])
    row = capsys.readouterr().out.splitlines()[1]
    assert row.startswith(",")  # M is null for an explicit element set
    main(argv + ["--format", "text"])
    assert "M= " in capsys.readouterr().out
    assert run_json(argv, capsys)["results"][0]["M"] is None


def test_run_config_validation():
    with pytest.raises(ValueError, match="format"):
        RunConfig(command="primes", parameters={}, output_format="yaml")
    with pytest.raises(ValueError, match="jobs"):
        RunConfig(command="primes", parameters={}, jobs=0)
    with pytest.raises(ValueError, match="unknown command"):
        run(RunConfig(command="nope", parameters={}), out=io.StringIO())
