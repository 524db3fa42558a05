"""mulbasis benchmark: whole CLI operations, timed in-process.

Usage, from the repository root:

    python3 bench/run.py --workload overlap --seed 0 --seconds 20 --trace 0

Each workload is a fixed list of CLI calls, run through
``mulbasis.cli.run(RunConfig(...))``, the code path of the ``mulbasis``
command. One round runs the list once. Rounds repeat until ``--seconds``
would be exceeded (at least two, so every payload is compared with a
repeat). ``--trace 0`` reports the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced rounds with rounds under the outside-in
tracer (``tracer.py``), at least two of each, and reports the per-layer
metrics. Every operation's output is checked; see ``README.md``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
is the full result record, provenance included.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from tracer import LAYERS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ORACLE = BENCH / "oracle.json"

# workload -> (--jobs, [(command, parameters), ...]); see README.md for why.
WORKLOADS = {
    "overlap": (2, [("sphere-overlap", {"n": 2048, "x_size": 2, "y_size": 41943, "trials": 4})]),
    "pipeline": (1, [("pipeline-bound", {"m": 20000})]),
    "certificate": (1, [("sphere-certificate", {"n": 48})]),
    "interval": (1, [("interval-basis", {"m": 1000000})]),
    "batch": (
        2,
        [
            ("mbp-search", {"m": 6, "a_max": 12, "d_max": 12}),
            ("reduce", {"random": 2000}),
            ("factorial-check", {"random": 2000}),
        ],
    ),
}

# Commands whose inputs are drawn from the seed; the others compute the
# same values at every seed, so the recorded values apply to them always.
SEEDED = {"sphere-overlap", "reduce", "factorial-check"}

# The values a correct program must reproduce, taken from each payload.
# The envelope (config, product_decreased, ...) is deliberately not compared.
EXTRACT = {
    "sphere-overlap": lambda p: [r["lhs"] for r in p["results"]],
    "pipeline-bound": lambda p: p["results"][0],
    "sphere-certificate": lambda p: [[c["name"], c["lhs"], c["rhs"]] for c in p["checks"]],
    "interval-basis": lambda p: [p["results"][0]["size"], p["results"][0]["covered"]],
    "mbp-search": lambda p: [[r["a"], r["d"], r["size"]] for r in p["results"]],
    "reduce": lambda p: [
        [r["out_g"], r["out_u"], r["out_v"], r["basis_size_in"], r["basis_size_out"]]
        for r in p["results"]
    ],
    "factorial-check": lambda p: [r["divides"] for r in p["results"]],
}

# per-layer time metric -> traced functions whose self times it sums
LAYER_TIMES = {
    "numtheory.sieve_s": ["numtheory.sieve"],
    "productsets.construct_s": ["productsets.construct_interval_basis"],
    "productsets.verify_cover_s": ["productsets.verify_cover"],
    "productsets.search_s": ["productsets.exact_min_basis"],
    "reduction.reduce_s": ["reduction.reduce_pair"],
    "reduction.factorial_s": ["reduction.factorial_divisibility_check"],
    "reduction.instances_s": ["reduction.random_injected_pair", "reduction.random_divisibility_instance"],
    "reduction.marks_s": ["reduction.build_marking_sets"],
    "spherelab.overlap_check_s": ["spherelab.check_sphere_overlap"],
    "spherelab.overlap_gen_s": ["spherelab.overlap_trial"],
    "spherelab.sphere_build_s": ["spherelab.enumerate_sphere", "spherelab.sphere_basis_construct"],
    "certificates.pairing_s": ["certificates.build_pairing_graph"],
    "certificates.embed_s": ["certificates.end_to_end_lower_bound"],
    "certificates.components_s": ["certificates.component_analysis"],
    "certificates.report_s": ["certificates.sphere_cover_report"],
    "certificates.prune_s": ["certificates.prune_heavy"],
}

# counts that must repeat exactly between rounds on the same seed
EXACT_COUNTS = (
    "productsets.search_nodes",
    "certificates.pairing_edges",
    "spherelab.overlap_pairs",
    "numtheory.sieve_calls",
)

# rate metric -> (count, time)
LAYER_RATES = {
    "productsets.search_nodes_per_s": ("productsets.search_nodes", "productsets.search_s"),
    "certificates.pairing_edges_per_s": ("certificates.pairing_edges", "certificates.pairing_s"),
    "spherelab.overlap_pairs_per_s": ("spherelab.overlap_pairs", "spherelab.overlap_check_s"),
}

SELF_SUM_TOLERANCE = 0.05


class Operations:
    """Runs a workload's CLI calls and checks every output."""

    def __init__(self, cli, workload: str, seed: int, oracle: dict):
        self.cli = cli
        self.seed = seed
        self.jobs, self.commands = WORKLOADS[workload]
        self.expected = {
            command: oracle["values"][command]
            for command, _ in self.commands
            if seed == oracle["seed"] or command not in SEEDED
        }
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def round(self) -> float:
        """Run every command once; return the summed wall time of the calls."""
        elapsed = 0.0
        for command, params in self.commands:
            config = self.cli.RunConfig(command, dict(params), seed=self.seed, jobs=self.jobs)
            buf = io.StringIO()
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                # looked up per call, so a traced round reaches the wrapped run
                code = self.cli.run(config, out=buf)
            except Exception as exc:  # an escaped exception is a failed operation
                elapsed += time.perf_counter() - t0
                self.failures.append(f"{command}: raised {type(exc).__name__}: {exc}")
                continue
            elapsed += time.perf_counter() - t0
            problem = self._check(command, code, buf.getvalue())
            if problem:
                self.failures.append(f"{command}: {problem}")
        return elapsed

    def _check(self, command: str, code: int, text: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            payload = json.loads(text)
        except ValueError:
            return "payload is not JSON"
        broken = [c["name"] for c in payload["checks"] if c["hypotheses_ok"] and not c["holds"]]
        if broken:
            return f"checks failed: {', '.join(broken)}"
        first = self.first.setdefault(command, text)
        if text != first:
            return "payload differs from the first repeat in this run"
        if command in self.expected and EXTRACT[command](payload) != self.expected[command]:
            return "result differs from the recorded correct value"
        return None


def repeat_rounds(round_fn, budget_s: float, min_rounds: int) -> list[float]:
    """Call round_fn until the next call would overrun the budget; at least min_rounds."""
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < min_rounds or time.perf_counter() - start + statistics.median(times) <= budget_s:
        times.append(round_fn())
    return times


def tail_percentile(values: list[float]):
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) >= 1000:
            return {"percentile": p, "value": statistics.quantiles(values, n=100)[p - 1]}
    return None


def measure_setup(repeats: int = 7) -> float:
    """Median wall time for a fresh interpreter to import mulbasis."""
    cmd = [sys.executable, "-c", "import mulbasis"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # An installed package imports from its bytecode cache; without this the
    # time would include compiling the sources whenever the caller's
    # environment disables the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # No timeout: with one, subprocess polls the child in sleeps of up to 50 ms,
    # which would quantize the times; without, it blocks in waitpid.
    kwargs = dict(env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    subprocess.run(cmd, **kwargs)  # first import writes the bytecode cache
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, **kwargs)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def exact_counts(tracer: Tracer) -> dict:
    _, calls, counts = tracer.totals()
    counts["numtheory.sieve_calls"] = calls["numtheory.sieve"]
    return {k: counts[k] for k in EXACT_COUNTS}


def layer_metrics(tracers: list[Tracer], untraced: list[float], traced: list[float]) -> dict:
    """Per-layer metrics per traced round, one tracer per round."""
    rounds = len(tracers)
    self_s: defaultdict = defaultdict(float)
    calls: Counter = Counter()
    for tracer in tracers:
        s, c, _ = tracer.totals()
        for k, v in s.items():
            self_s[k] += v / rounds
        calls.update(c)
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
    for name, keys in LAYER_TIMES.items():
        m[name] = sum(self_s[k] for k in keys)
    m.update(exact_counts(tracers[0]))
    m["productsets.verify_cover_calls"] = calls["productsets.verify_cover"] / rounds
    for name, (count, secs) in LAYER_RATES.items():
        m[name] = m[count] / m[secs] if m[secs] else 0.0
    busy = sum(t.pool_busy_ns for t in tracers)
    wall = sum(t.pool_wall_ns for t in tracers)
    m["cli.pool_utilization"] = busy / wall if wall else 0.0
    # each traced round against the untraced round just before it, so that
    # drift in machine speed between pairs cancels
    m["trace_overhead_frac"] = statistics.median(t / u for t, u in zip(traced, untraced)) - 1.0
    return m


def metric_units(section: str) -> dict[str, str]:
    """Names and units of one metric section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {e["name"]: e["unit"] for e in spec[section]}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_state() -> dict | None:
    """HEAD of the checkout's own git repository and whether the tree differs from it.

    None when the checkout is not a git repository or git is missing. Git
    looks for a repository no higher than the checkout root and reads no user
    or system configuration; ``status`` takes no optional locks, so git
    writes nothing.
    """
    env = dict(
        os.environ,
        GIT_CEILING_DIRECTORIES=str(ROOT.parent),
        GIT_CONFIG_GLOBAL=os.devnull,
        GIT_CONFIG_NOSYSTEM="1",
    )

    def git(*args: str) -> str:
        cmd = ["git", "--no-optional-locks", *args]
        return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, check=True).stdout

    try:
        head = git("rev-parse", "HEAD").strip()
        dirty = bool(git("status", "--porcelain").strip())
    except (OSError, subprocess.CalledProcessError):
        return None
    return {"commit": head, "dirty": dirty}


def provenance(args, numpy_version: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": WORKLOADS[args.workload][0],
        "git": git_state(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "MULBASIS_SIEVE_LIMIT": os.environ.get("MULBASIS_SIEVE_LIMIT"),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mulbasis" / "__init__.py").is_file():
        print(f"error: no mulbasis sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import mulbasis.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "mulbasis":
        print(f"error: imported mulbasis from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    oracle = json.loads(ORACLE.read_text(encoding="utf-8"))
    ops = Operations(cli, args.workload, args.seed, oracle)
    record = {"provenance": provenance(args, numpy.__version__)}
    run_failures: list[str] = []  # whole-run checks, beside per-operation ones

    if args.trace == 0:
        setup_s = measure_setup()
        times = repeat_rounds(ops.round, args.seconds, min_rounds=2)
        metrics = {
            "wall_s": statistics.median(times),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        section = "end_to_end"
        record["wall_s_rounds"] = times
        record["wall_s_tail"] = tail_percentile(times)
    else:
        # Untraced and traced rounds alternate, so drift in machine speed
        # reaches both sides of trace_overhead_frac alike.
        untraced: list[float] = []
        traced: list[float] = []
        tracers: list[Tracer] = []

        def round_pair() -> float:
            untraced.append(ops.round())
            tracer = Tracer()
            with tracer:
                traced.append(ops.round())
            tracers.append(tracer)
            return untraced[-1] + traced[-1]

        repeat_rounds(round_pair, args.seconds, min_rounds=2)
        counts = [exact_counts(t) for t in tracers]
        if any(c != counts[0] for c in counts):
            run_failures.append(f"exact counts differ between rounds: {counts}")
        metrics = layer_metrics(tracers, untraced, traced)
        self_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) * len(traced) / sum(traced)
        if abs(self_sum - 1.0) > SELF_SUM_TOLERANCE:
            run_failures.append(f"layer self times sum to {self_sum:.4f} of traced wall time")
        record["trace_self_sum_frac"] = self_sum
        record["trace_spans_per_round"] = sum(sum(t.totals()[1].values()) for t in tracers) / len(tracers)
        section = "per_layer"
        record["untraced_rounds"] = untraced
        record["traced_rounds"] = traced

    units = metric_units(section)
    if set(units) != set(metrics):
        raise RuntimeError(f"measured {sorted(metrics)}, BENCHMARK.json {section} lists {sorted(units)}")
    failed = len(ops.failures)
    record["attempted"] = ops.attempted
    record["failed_frac"] = failed / ops.attempted
    record["failures"] = ops.failures + run_failures
    record["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}

    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, m in record["metrics"].items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':36s} {record['failed_frac']:.6g} frac ({failed} of {ops.attempted} operations)")
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": not record["failures"],
        "attempted": ops.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
