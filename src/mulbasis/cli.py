"""Command line driver.

Every operation is exposed as a subcommand that emits one report
payload: JSON with a fixed envelope {config, results, checks, version},
or the primary table as CSV, or a short text summary.  Payloads are
deterministic: randomized commands draw from counter-based Philox
streams keyed by (seed, trial index), worker pools merge results by
index, and nothing timestamped enters the output, so equal configs give
byte-identical reports at any --jobs value.

Two constructors give the stream of (seed, index), keyed alike:
``rng_stream`` is NumPy's Philox generator, for the overlap trials,
which take its vector draws; ``ScalarStream`` computes the same
Philox4x64-10 words in Python and draws scalar ``integers`` exactly as
the generator does, for the instances of ``reduce`` and
``factorial-check``, which so never load ``numpy.random``.  A seed and
a stream index must lie in [0, 2**64); both constructors reject any
other, as ``RunConfig`` rejects such a seed.

Exit codes: 0 all checks hold (and searches proved optimality), 1 a
checked inequality failed or a search exhausted its budget, 2 bad
arguments, a table past its size budget, an allocation the machine
refused, or input a pipeline stage rejected (one line on stderr,
``error: [stage] message`` for a stage), 3 a broken invariant, which
is a bug rather than bad input.  A ``min-basis`` or ``sphere-min-basis``
run whose budget ran out while fixing the lexicographically smallest
basis exits as proved (the size is) and says on stderr, in one ``note:``
line, that the basis is the first pass's.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .certificates import (
    InequalityReport,
    PipelineError,
    end_to_end_lower_bound,
    sphere_cover_report,
)
from .numtheory import ResourceLimitError, sieve
from .productsets import (
    construct_interval_basis,
    exact_min_basis,
    first_uncovered,
    icbrt,
    min_size_search,
)
from .reduction import (
    InvariantViolationError,
    ReducedPair,
    factorial_divisibility_check,
    random_divisibility_instance,
    random_injected_pair,
    reduce_pair,
)
from .spherelab import (
    OVERLAP_MIN_N,
    SMALL_SET_DIVISOR,
    difference_census,
    overlap_refined_trial,
    overlap_trial,
    sphere_construction_basis,
    sphere_first_uncovered,
    sphere_min_basis,
    sphere_rows,
)

__all__ = ["RunConfig", "ScalarStream", "run", "main", "main_entry", "rng_stream"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RunConfig:
    command: str
    parameters: dict
    seed: int = 0
    jobs: int = 1
    output_format: str = "json"

    def __post_init__(self):
        if self.output_format not in ("json", "csv", "text"):
            raise ValueError(f"unknown format {self.output_format!r}")
        if self.jobs < 1:
            raise ValueError("jobs must be positive")
        _word("seed", self.seed)

    def to_record(self) -> dict:
        # jobs is execution plumbing and cannot influence results, so it is
        # left out of the provenance block: reports must be byte-identical
        # at every pool size.
        return {
            "command": self.command,
            "parameters": {k: self.parameters[k] for k in sorted(self.parameters)},
            "seed": self.seed,
            "format": self.output_format,
        }


def _word(name: str, value: int) -> int:
    """``value``, checked to be a 64-bit key word: folding it mod 2**64 would share streams."""
    if not 0 <= value <= _MASK64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {value}")
    return value


def rng_stream(seed: int, stream: int) -> np.random.Generator:
    """Independent deterministic generator for one trial of one run."""
    # a uint64 array: as a list, a word of 2**63 or more would become a float
    key = np.array([_word("seed", seed), _word("stream", stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _round_keys(k0: int, k1: int) -> list[tuple[int, int]]:
    """The ten round keys of Philox4x64-10 under key (k0, k1): each round bumps the last."""
    return [
        ((k0 + r * 0x9E3779B97F4A7C15) & _MASK64, (k1 + r * 0xBB67AE8584CAA73B) & _MASK64)
        for r in range(10)
    ]


def _philox_block(counter: int, keys: list[tuple[int, int]]) -> tuple[int, int, int, int]:
    """The four words of Philox4x64-10 at a 256-bit counter (word 0 lowest) under ``_round_keys``."""
    c0, c1, c2, c3 = ((counter >> s) & _MASK64 for s in (0, 64, 128, 192))
    for k0, k1 in keys:
        p0 = 0xD2E7470EE14C6C93 * c0
        p1 = 0xCA5A826395121157 * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK64, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK64
    return c0, c1, c2, c3


class ScalarStream:
    """The scalar draws of ``rng_stream(seed, stream)``, computed in Python.

    ``integers(low, high)`` returns what the NumPy generator's does, call
    after call, for 1 <= high - low <= 2**32.  The counter starts at 0 and
    is incremented before each block; a 32-bit draw is a word's low half,
    then its high half, as NumPy buffers it.  The draw is NumPy's Lemire
    rejection: n = high - low, m = u32 * n, redrawn while m mod 2**32 <
    (2**32 - n) mod n.
    """

    __slots__ = ("_keys", "_counter", "_halves")

    def __init__(self, seed: int, stream: int):
        self._keys = _round_keys(_word("seed", seed), _word("stream", stream))
        self._counter = 0
        self._halves: list[int] = []  # the block's undrawn half words, next last

    def _refill(self) -> None:
        self._counter = (self._counter + 1) & ((1 << 256) - 1)
        c0, c1, c2, c3 = _philox_block(self._counter, self._keys)
        self._halves = [
            c3 >> 32, c3 & _MASK32, c2 >> 32, c2 & _MASK32, c1 >> 32, c1 & _MASK32, c0 >> 32, c0 & _MASK32
        ]

    def integers(self, low: int, high: int) -> int:
        n = high - low
        if n == 1:
            return low
        if not 2 <= n <= 1 << 32:  # NumPy draws 64-bit words past 2**32
            raise ValueError(f"integers needs 1 <= high - low <= 2**32, got {n}")
        threshold = ((1 << 32) - n) % n
        while True:
            if not self._halves:
                self._refill()
            m = self._halves.pop() * n
            if m & _MASK32 >= threshold:
                return low + (m >> 32)


def _pool_width(jobs: int, count: int) -> int:
    """Workers for ``count`` items: at most ``jobs``, and at most one per core."""
    return min(jobs, count, os.cpu_count() or 1)


def _interleave(parts, count: int, width: int) -> list:
    """Undo the round-robin dealing: part k holds items k, k + width, ..."""
    out = [None] * count
    for k, part in enumerate(parts):
        out[k::width] = part
    return out


def _indexed_map(fn, items, jobs: int) -> list:
    """Apply fn(index, item) on a thread pool; results ordered by index.

    For work that releases the interpreter lock (numpy kernels). Items
    are dealt round-robin: worker k of w runs items k, k + w, k + 2w, ...,
    so a batch costs one task per worker and runs of costly neighbours
    are spread over the workers.
    """
    items = list(items)
    width = _pool_width(jobs, len(items))
    if width <= 1:
        return [fn(i, x) for i, x in enumerate(items)]

    def run_slice(k: int) -> list:
        return [fn(i, items[i]) for i in range(k, len(items), width)]

    with ThreadPoolExecutor(max_workers=width) as pool:
        return _interleave(pool.map(run_slice, range(width)), len(items), width)


_SHARED: tuple = ()  # (fn, items) of the _process_map that forked this worker


def _share(fn, items) -> None:
    global _SHARED
    _SHARED = (fn, items)


def _run_shared_slice(k: int, width: int) -> list:
    fn, items = _SHARED
    return [fn(i, items[i]) for i in range(k, len(items), width)]


def _process_map(fn, items, jobs: int) -> list:
    """Apply fn(index, item) on forked worker processes; results ordered by index.

    For pure-Python work that holds the interpreter lock. fn and items
    reach the workers by fork, not by pickling, so closures and tables
    cross for free: only (k, width) goes out, and only fn's results, which
    must pickle, come back. Dealing and width are as in _indexed_map.
    Where the fork start method is missing, the items run serially here.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    items = list(items)
    width = _pool_width(jobs, len(items))
    if width <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(i, x) for i, x in enumerate(items)]
    with ProcessPoolExecutor(
        max_workers=width,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_share,
        initargs=(fn, items),
    ) as pool:
        parts = pool.map(_run_shared_slice, range(width), [width] * width)
        return _interleave(parts, len(items), width)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ";".join(_fmt(v) for v in value)
    return str(value)


def _render(config: RunConfig, results: list[dict], checks: list[InequalityReport]) -> str:
    if config.output_format == "json":
        payload = {
            "config": config.to_record(),
            "results": results,
            "checks": [c.to_record() for c in checks],
            "version": __version__,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if config.output_format == "csv":
        columns = _COMMANDS[config.command].columns
        rows = results
        if config.command == "sphere-certificate":  # its table is its checks
            rows = [c.to_record() for c in checks]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c, "")) for c in columns])
        return buf.getvalue()
    lines = [f"# {config.command} seed={config.seed}"]
    for row in results:
        lines.append(" ".join(f"{k}={_fmt(v)}" for k, v in row.items()))
    for c in checks:
        mark = "ok" if c.holds else "FAIL"
        if not c.hypotheses_ok:
            mark += " (hypotheses not met)"
        lines.append(f"check {c.name}: lhs={_fmt(c.lhs)} rhs={_fmt(c.rhs)} {mark}")
    return "\n".join(lines) + "\n"


def _exit_code(checks: list[InequalityReport]) -> int:
    return 1 if any(c.hypotheses_ok and not c.holds for c in checks) else 0


def _at_least(p: dict, key: str, least: int = 1) -> int:
    """A required integer parameter; below ``least`` is rejected, naming the flag."""
    value = p[key]
    if value < least:
        flag = key.replace("_", "-")
        raise ValueError(f"--{flag} must be at least {least}, got {value}")
    return value


def _count(p: dict, key: str, default: int = 1) -> int:
    """A count parameter; 0 or less is rejected, never rounded up or defaulted."""
    return default if p.get(key) is None else _at_least(p, key)


def _vector_str(row: np.ndarray) -> str:
    return "".join(map(str, row.tolist()))


# ---------------------------------------------------------------- command table


_Command = namedtuple("_Command", "help columns flags either runner")
_COMMANDS: dict[str, _Command] = {}  # subcommand name -> declaration, in parser order


def _command(name: str, help: str, columns: str, *flags, either: tuple = ()):
    """Declare the decorated runner as subcommand ``name`` with its frozen CSV columns.

    A flag is ``"--name"`` (optional int), ``"--name!"`` (required int) or
    ``("--name", argparse keywords)``, an int unless the keywords give a
    type.  Exactly one of the two flags in ``either`` must be given.
    """

    def register(runner):
        _COMMANDS[name] = _Command(help, tuple(columns.split()), flags, either, runner)
        return runner

    return register


def _row(config: RunConfig, result, **cells) -> dict:
    """The row of the command's columns: each from ``cells``, else ``result``'s attribute."""
    columns = _COMMANDS[config.command].columns
    return {c: cells[c] if c in cells else getattr(result, c) for c in columns}


def _search_report(config: RunConfig, sol, budget: int, **cells) -> tuple[list, list, int]:
    """An exact search's row and exit code, with a note when only its fixing pass ran out."""
    if sol.optimal and sol.nodes_explored > budget:
        print("note: the size is proved, but the budget ran out before the lex-least basis: "
              "this basis is the first pass's", file=sys.stderr)
    return [_row(config, sol, nodes=sol.nodes_explored, **cells)], [], 0 if sol.optimal else 1


# ---------------------------------------------------------------- commands


@_command(
    "primes", "list primes up to a limit",
    "limit lo hi count primes",
    "--limit!", "--lo", "--hi",
)
def _cmd_primes(config: RunConfig) -> tuple[list, list, int]:
    p = config.parameters
    limit = p["limit"]
    lo = 2 if p.get("lo") is None else p["lo"]
    hi = limit if p.get("hi") is None else p["hi"]
    table = sieve(limit)
    primes = [int(x) for x in table.primes_in(lo, hi)]
    row = _row(config, None, limit=limit, lo=lo, hi=hi, count=len(primes), primes=primes)
    return [row], [], 0


@_command(
    "min-basis", "exact smallest multiplicative basis",
    "M size optimal nodes basis",
    "--budget-nodes",
    either=(
        ("--interval", {"help": "target set [1..M]"}),
        ("--elements", {"type": str, "help": "comma-separated targets"}),
    ),
)
def _cmd_min_basis(config: RunConfig) -> tuple[list, list, int]:
    p = config.parameters
    if p.get("interval") is not None:
        M = p["interval"]
        elements = list(range(1, M + 1))
    else:
        elements = sorted(set(p["elements"]))
        M = None
    budget = _count(p, "budget_nodes", 2_000_000)
    return _search_report(config, exact_min_basis(elements, budget=budget), budget, M=M)


@_command("interval-basis", "explicit small basis for [1..M]", "M size size_bound covered", "--m!")
def _cmd_interval_basis(config: RunConfig) -> tuple[list, list, int]:
    M = config.parameters["m"]
    table = sieve(max(M, 4))
    basis = construct_interval_basis(M, table)
    two_thirds = icbrt(M * M)
    if two_thirds**3 < M * M:
        two_thirds += 1
    size_bound = two_thirds + table.prime_count(M) + 1
    covered = first_uncovered(range(1, M + 1), basis) is None
    checks = [
        InequalityReport.of("interval_basis_size", len(basis), size_bound),
        InequalityReport.of("interval_cover_complete", 1 if covered else 2, 1),
    ]
    row = _row(config, None, M=M, size=len(basis), size_bound=size_bound, covered=covered)
    return [row], checks, _exit_code(checks)


@_command(
    "mbp-search", "exact minima over a grid of progressions",
    "a d size optimal is_best",
    "--m!", "--a-max!", "--d-max!", "--budget-nodes",
)
def _cmd_mbp_search(config: RunConfig) -> tuple[list, list, int]:
    p = config.parameters
    M, a_max, d_max = _at_least(p, "m"), _at_least(p, "a_max", 0), _at_least(p, "d_max")
    budget = _count(p, "budget_nodes", 2_000_000)
    grid = [(a, d) for a in range(0, a_max + 1) for d in range(1, d_max + 1)]

    def work(_, ad):
        a, d = ad
        elements = [a + m * d for m in range(1, M + 1)]
        return _row(config, min_size_search(elements, budget=budget), a=a, d=d, is_best=False)

    rows = _process_map(work, grid, config.jobs)
    min(rows, key=lambda r: (r["size"], r["a"], r["d"]))["is_best"] = True
    proven = all(r["optimal"] for r in rows)
    return rows, [], 0 if proven else 1


@_command(
    "reduce", "normal-form reduction of covered progressions",
    "M in_offset in_step out_g out_u out_v basis_size_in basis_size_out covered product_decreased",
    either=(
        ("--json-file", {"type": str, "help": "pair record to reduce"}),
        ("--random", {"help": "number of seeded instances"}),
    ),
)
def _cmd_reduce(config: RunConfig) -> tuple[list, list, int]:
    p = config.parameters
    given = None
    if p.get("json_file"):
        with open(p["json_file"], "r", encoding="utf-8") as fh:
            given = ReducedPair.from_record(json.load(fh))
    count = 1 if given is not None else _count(p, "random")

    def work(i, _):
        # a random instance is drawn by index inside the worker that reduces it
        pair = given if given is not None else random_injected_pair(ScalarStream(config.seed, i))
        out = reduce_pair(pair)
        return _row(
            config, None, M=pair.ap.M, in_offset=pair.ap.offset, in_step=pair.ap.step,
            out_g=out.ap.g, out_u=out.ap.u, out_v=out.ap.v,
            basis_size_in=len(pair.basis), basis_size_out=len(out.basis),
            covered=first_uncovered(out.ap.elements(), out.basis) is None,
            product_decreased=math.prod(out.basis) <= math.prod(pair.basis),
        )

    rows = _process_map(work, range(count), config.jobs)
    ok = all(r["covered"] and r["product_decreased"] for r in rows)
    checks = [
        InequalityReport.of("reduce_all_covered", sum(1 for r in rows if not r["covered"]), 0),
    ]
    return rows, checks, 0 if ok else 1


@_command(
    "factorial-check", "surviving-term product divides (M-1)!",
    "u v M marked_count exceptional_count surviving_count divides",
    "--u", "--v", "--m", ("--random", {"help": "number of seeded instances"}),
)
def _cmd_factorial_check(config: RunConfig) -> tuple[list, list, int]:
    p = config.parameters
    if p.get("random") is not None:
        count = _count(p, "random")
        instances = [random_divisibility_instance(ScalarStream(config.seed, i)) for i in range(count)]
    else:
        instances = [(p["u"], p["v"], p["m"])]
    top = max(u + M * v for u, v, M in instances)
    table = sieve(max(top, 4))

    def work(_, inst):
        res = factorial_divisibility_check(*inst, table)
        return _row(
            config, res, marked_count=len(res.marked_large),
            exceptional_count=len(res.exceptional), surviving_count=len(res.surviving),
        )

    rows = _process_map(work, instances, config.jobs)
    failed = sum(1 for r in rows if not r["divides"])
    checks = [InequalityReport.of("factorial_divisibility_failures", failed, 0)]
    return rows, checks, _exit_code(checks)


@_command(
    "sphere-enumerate", "weight-k 0-1 vectors in support order",
    "n k index vector",
    "--n!", ("--k", {"default": 3}),
)
def _cmd_sphere_enumerate(config: RunConfig) -> tuple[list, list, int]:
    p = config.parameters
    n, k = p["n"], p.get("k", 3)
    rows = [
        _row(config, None, n=n, k=k, index=i, vector=_vector_str(v))
        for i, v in enumerate(sphere_rows(n, k))
    ]
    return rows, [], 0


@_command(
    "sphere-cases", "difference census against the closed formulas",
    "n case formula_count enumerated_count bound holds",
    "--n!", ("--case", {"choices": [1, 2, 3]}),
)
def _cmd_sphere_cases(config: RunConfig) -> tuple[list, list, int]:
    p = config.parameters
    census = difference_census(p["n"])
    wanted = p.get("case")
    rows = [
        _row(config, r, case=r.case.value)
        for r in census.rows
        if wanted is None or r.case.value == f"case{wanted}"
    ]
    checks = [
        InequalityReport.of("census_total_pairs", census.total_pairs, math.comb(p["n"], 3) ** 2),
        InequalityReport.of("census_unknown_cases", census.other_seen, 0),
        InequalityReport.of(
            "census_rows_hold", sum(1 for r in census.rows if not r.holds), 0
        ),
    ]
    return rows, checks, _exit_code(checks)


@_command(
    "sphere-min-basis", "exact smallest additive cover of the 3-sphere",
    "n size optimal nodes basis",
    "--n!", "--budget-nodes",
)
def _cmd_sphere_min_basis(config: RunConfig) -> tuple[list, list, int]:
    p = config.parameters
    n = _at_least(p, "n", 3)
    budget = _count(p, "budget_nodes", 5_000_000)
    sol = sphere_min_basis(n, budget=budget)
    return _search_report(config, sol, budget, n=n, basis=[_vector_str(v) for v in sol.basis])


@_command("sphere-construct", "weight-1 plus weight-2 cover", "n size covered", "--n!")
def _cmd_sphere_construct(config: RunConfig) -> tuple[list, list, int]:
    n = config.parameters["n"]
    basis = sphere_construction_basis(n)
    covered = sphere_first_uncovered(basis, n) is None
    checks = [
        InequalityReport.of("construct_size", len(basis), n * (n + 1) // 2),
        InequalityReport.of("construct_cover", 1 if covered else 2, 1),
    ]
    return [_row(config, None, n=n, size=len(basis), covered=covered)], checks, _exit_code(checks)


@_command(
    "sphere-overlap", "seeded fixed-fraction overlap trials",
    "trial n x_size y_size lhs bound holds hypotheses_ok n_large_enough",
    "--n!", "--x-size!", "--y-size!", ("--trials", {"default": 1}),
)
def _cmd_sphere_overlap(config: RunConfig) -> tuple[list, list, int]:
    p = config.parameters
    n, x_size, y_size = _at_least(p, "n", 0), _at_least(p, "x_size", 0), _at_least(p, "y_size", 0)
    trials = _count(p, "trials")
    if SMALL_SET_DIVISOR * x_size > n:
        raise ValueError(
            f"x-size {x_size} cannot satisfy |X| <= n/{SMALL_SET_DIVISOR} at n={n}"
        )
    if 100 * y_size > n * n:
        raise ValueError(f"y-size {y_size} cannot satisfy |Y| <= n^2/100 at n={n}")

    def work(i, _):
        return _row(config, overlap_trial(n, x_size, y_size, rng_stream(config.seed, i)), trial=i)

    rows = _indexed_map(work, range(trials), config.jobs)
    worst = max(r["lhs"] for r in rows)
    checks = [
        InequalityReport.of(
            "overlap_worst_trial", worst, n * n / 50.0, hypotheses_ok=n >= OVERLAP_MIN_N
        )
    ]
    code = 1 if any(not r["holds"] for r in rows) else 0
    return rows, checks, code


@_command(
    "sphere-overlap-general", "seeded pair-count overlap trials",
    "trial n a_size b_size lhs pair_bound linear_bound holds",
    "--n!", "--a-size!", "--b-size!", ("--trials", {"default": 1}),
)
def _cmd_sphere_overlap_general(config: RunConfig) -> tuple[list, list, int]:
    p = config.parameters
    n, a_size, b_size = _at_least(p, "n", 0), _at_least(p, "a_size", 0), _at_least(p, "b_size", 0)
    trials = _count(p, "trials")
    if SMALL_SET_DIVISOR * a_size > n:
        raise ValueError(
            f"a-size {a_size} cannot satisfy |A| <= n/{SMALL_SET_DIVISOR} at n={n}"
        )

    def work(i, _):
        res = overlap_refined_trial(n, a_size, b_size, rng_stream(config.seed, i))
        return _row(config, res, trial=i)

    rows = _indexed_map(work, range(trials), config.jobs)
    worst = max((r["lhs"] - r["pair_bound"] for r in rows), default=0)
    checks = [InequalityReport.of("overlap_general_worst_trial", worst, 0)]
    code = 1 if any(not r["holds"] for r in rows) else 0
    return rows, checks, code


def _read_lines(path: str, parse, comments: bool = False) -> list:
    """``parse`` of each non-blank line, ``#`` lines skipped if ``comments``; errors name the line."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for k, line in enumerate(fh, 1):
            line = line.strip()
            if line and not (comments and line.startswith("#")):
                try:
                    out.append(parse(line))
                except ValueError as exc:
                    raise ValueError(f"line {k}: {exc}") from None
    return out


def _ternary(line: str, n: int) -> bytes:
    if len(line) != n:
        raise ValueError(f"vector {line!r} does not have {n} coordinates")
    if not set(line) <= set("012"):
        raise ValueError(f"vector {line!r} has a coordinate outside 0, 1, 2")
    return bytes(int(ch) for ch in line)


@_command(
    "sphere-certificate", "degree-counting inequality reports",
    "name lhs rhs hypotheses_ok holds",
    "--n!", ("--basis-file", {"type": str, "help": "one 0/1/2 string per line"}),
)
def _cmd_sphere_certificate(config: RunConfig) -> tuple[list, list, int]:
    p = config.parameters
    n = p["n"]
    if p.get("basis_file"):
        basis = _read_lines(p["basis_file"], lambda line: _ternary(line, n), comments=True)
    else:
        basis = sphere_construction_basis(n)
    checks = sphere_cover_report(basis, n)
    # the CSV table of this command is its checks (see _render), so its
    # one JSON row is built here rather than projected onto the columns
    row = {
        "n": n,
        "basis_size": len(set(map(bytes, basis))),  # rows of either form, as their bytes
        "reports_hold": all(c.holds for c in checks if c.hypotheses_ok),
    }
    return [row], checks, _exit_code(checks)


@_command(
    "pipeline-bound", "end-to-end certified lower bound",
    "M u g basis_size bound m1_size m2_size p1_size p2_size bprime_size tree_count "
    "sphere_size sphere_ran all_hold",
    "--m!", ("--u", {"default": 0}), ("--g", {"default": 1}),
    ("--basis-file", {"type": str, "help": "one integer per line"}),
)
def _cmd_pipeline_bound(config: RunConfig) -> tuple[list, list, int]:
    p = config.parameters
    M = _at_least(p, "m")
    u = p.get("u", 0)
    if u < 0:
        raise ValueError(f"--u must be nonnegative, got {u}")
    g = _count(p, "g")
    table = None  # a given basis is embedded on the pipeline's own table
    if p.get("basis_file"):
        basis = _read_lines(p["basis_file"], int)
    else:
        # the progression g*(u+m), m in [1..M], lies inside [1..g*(u+M)]
        table = sieve(max(g * (u + M), 4))
        basis = construct_interval_basis(g * (u + M), table)
    res = end_to_end_lower_bound(M, basis, u=u, g=g, table=table)
    checks = list(res.chain) + list(res.sphere_reports)
    return [_row(config, res)], checks, _exit_code(checks)


def run(config: RunConfig, out=None) -> int:
    """Execute one configured command, write its report, return the exit code."""
    if config.command not in _COMMANDS:
        raise ValueError(f"unknown command {config.command!r}")
    results, checks, code = _COMMANDS[config.command].runner(config)
    (out or sys.stdout).write(_render(config, results, checks))
    return code


def _add_flag(parser, spec) -> None:
    name, keywords = (spec, {}) if isinstance(spec, str) else spec
    if name.endswith("!"):
        name, keywords = name[:-1], {"required": True}
    parser.add_argument(name, **{"type": int, **keywords})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mulbasis",
        description="Multiplicative-basis experiments: exact searches, reductions, sphere covers, certified bounds.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        if command.either:
            group = sp.add_mutually_exclusive_group(required=True)
            for spec in command.either:
                _add_flag(group, spec)
        for spec in command.flags:
            _add_flag(sp, spec)
        sp.add_argument("--seed", type=int, default=0, help="seed for all randomized draws")
        sp.add_argument("--jobs", type=int, default=1, help="worker pool size")
        sp.add_argument("--format", choices=["json", "csv", "text"], default="json")
        sp.add_argument("--out", type=str, default=None, help="also write the report to FILE")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    skip = {"command", "seed", "jobs", "format", "out"}
    params = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    if "elements" in params:
        params["elements"] = [int(x) for x in str(params["elements"]).split(",") if x.strip()]
    return RunConfig(
        command=args.command,
        parameters=params,
        seed=args.seed,
        jobs=args.jobs,
        output_format=args.format,
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "factorial-check":
        explicit = (args.u, args.v, args.m)
        if args.random is not None and explicit != (None, None, None):
            parser.error("factorial-check takes either --u/--v/--m or --random, not both")
        if args.random is None and None in explicit:
            parser.error("factorial-check needs either --u/--v/--m or --random")
    try:
        config = _config_from_args(args)
        buf = io.StringIO()
        code = run(config, out=buf)
        text = buf.getvalue()
        sys.stdout.write(text)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        return code
    except (ValueError, OSError, PipelineError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an allocation the machine refused
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except InvariantViolationError as exc:
        print(f"error: invariant violated: {exc}", file=sys.stderr)
        return 3


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
