"""End-to-end benchmark of the tonalg command line.

Run from the repository root:

    python3 perfbench/run.py --workload verify-battery --seed 0 --seconds 40 --trace 0

Every step of a workload runs in a fresh `python -m tonalg.cli` process, so
the library's `lru_cache`s start cold, as they do for a user.  Steps run one
at a time from this process (a closed loop with one client), with
`TONALG_THREADS=1`.  Each step's output is checked against values that
`record_expected.py` recorded (`expected.json`) and against identities that
do not depend on them.  A run repeats the workload's steps until `--seconds` is
spent and reports, per step, the median sample (see `end_to_end_metrics`).

With `--trace 1` the run makes one pass in which each step runs once
untraced and once under `tracer.py`, which wraps the public functions of
each `src/tonalg` module in the step process, and reports per-layer counts
and self times, and the tracing overhead, instead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The two lines before it
give per-step times and record the environment.
"""

import argparse
import hashlib
import importlib.util
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import namedtuple
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACER = os.path.join(HERE, "tracer.py")
EXPECTED = os.path.join(HERE, "expected.json")

# A run must end well inside the 180 s a run is allowed; a hung step is
# killed at this deadline and counted as failed.
RUN_DEADLINE_S = 150.0
# setup samples before each pass, so they spread over the run
SETUP_PER_PASS = 4

CHECK_NAMES = [
    "tone-closure-and-bottleneck",
    "flip-antiautomorphism",
    "associativity",
    "sandwich-identities",
    "basis-vector-partition",
    "matching-group-corner",
    "lower-ideal-product",
    "total-order-and-chain",
    "index-set-split",
    "reduction-idempotent",
    "sum-of-squares",
    "generator-relations",
    "gram-nondegenerate",
    "gram-generic-rank",
    "semisimple-generic-point",
    "gram-top-layer",
    "form-contravariance",
    "corner-compression",
    "module-globalisation",
    "top-layer-vanishing",
    "branching-dimensions",
    "submodule-closure",
    "heredity-sections",
    "fusion-corner",
]
ALL_BUT_TONE = tuple(c for c in CHECK_NAMES if c != "tone-closure-and-bottleneck")

# Every label at (l, n) = (2, 5), in the order `all_labels` gives them.  The
# first five (dims 20 to 45) take most of a pass, in Bareiss and poly_rank;
# the rest are little more than interpreter start-up.
GRAM_L, GRAM_N = 2, 5
GRAM_LABELS = (
    "1|-", "1|1", "3|-", "2,1|-", "1,1,1|-", "1|2", "1|1,1", "3|1", "2,1|1", "1,1,1|1",
    "5|-", "4,1|-", "3,2|-", "3,1,1|-", "2,2,1|-", "2,1,1,1|-", "1,1,1,1,1|-",
)
# Exact evaluation points for `gram --at`; the workload seed picks one, and
# seed 0 picks 1/1.  Small integers are where the Gram forms degenerate.
POINTS = ("1/1", "2/1", "3/1", "-1/1", "1/2", "-3/2")

# Steps left out, with single-run times on a 2-core host (Python 3.11, no
# numba).  The first four exceed the 180 s a run may take; the others leave
# fewer than two samples a run in the 40 s a run measures.
EXCLUDED = [
    {"step": "verify --l 2 --n-max 5 (tone-closure-and-bottleneck)", "measured": "> 600 s"},
    {"step": "verify --l 3 --n-max 5 (tone-closure-and-bottleneck)", "measured": "91 s"},
    {"step": "verify --l 1 --n-max 4 (fastops route without numba)", "measured": "about 330 s"},
    {"step": "the tier-1 test suite", "measured": "659 s"},
    {"step": "verify --l 2 --n-max 5 --only <all but tone closure>", "measured": "about 14 s"},
    {"step": "basis --l 2 --n 6 (Bell(12) walk)", "measured": "about 17 s"},
    {"step": "basis --l 3 --n 6 (Bell(12) walk)", "measured": "about 22 s"},
    {"step": "gram --det for every label at (3,6)", "measured": "about 45 s with (2,5), which takes 7 s"},
]

Step = namedtuple("Step", "kind l n arg")
# kind "verify": arg is the tuple of --only checks, or None for all of them.
# kind "gram":   arg is (label, point).
# kind "basis":  arg is None.

StepResult = namedtuple("StepResult", "step wall cpu rss_mb rc ok reason out_bytes trace")


def workload_steps(name, seed):
    """The steps of one pass over a workload; the seed fixes the point and
    the order of the steps."""
    rng = random.Random(seed)
    if name == "verify-battery":
        steps = [
            Step("verify", 1, 3, None),
            Step("verify", 2, 4, None),
            Step("verify", 3, 5, ALL_BUT_TONE),
        ]
    elif name == "gram-forms":
        point = POINTS[seed % len(POINTS)]
        steps = [Step("gram", GRAM_L, GRAM_N, (mu, point)) for mu in GRAM_LABELS]
    elif name == "basis-enum":
        steps = [Step("basis", 2, 5, None), Step("basis", 1, 5, None)]
    else:
        raise ValueError("unknown workload %r" % name)
    rng.shuffle(steps)
    return steps


WORKLOADS = ("verify-battery", "gram-forms", "basis-enum")


def step_argv(step, out_path):
    if step.kind == "verify":
        argv = ["verify", "--l", str(step.l), "--n-max", str(step.n)]
        if step.arg is not None:
            argv += ["--only", ",".join(step.arg)]
    elif step.kind == "gram":
        mu, point = step.arg
        # `--mu -|1` and `--at -1/1` are argparse errors, so values that
        # may begin with "-" are always attached
        argv = ["gram", "--l", str(step.l), "--n", str(step.n), "--mu=" + mu, "--det", "--at=" + point]
    else:
        argv = ["basis", "--l", str(step.l), "--n", str(step.n), "--out", out_path]
    return argv


def step_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["TONALG_THREADS"] = "1"
    # fixed string hashing, so call counts repeat exactly between runs
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Runs steps as child processes inside one scratch directory."""

    def __init__(self, workdir, deadline, expected, sos):
        self.workdir = workdir
        self.deadline = deadline
        self.expected = expected
        # basis count per (l, n) from the sum-of-squares identity
        self.sos = sos
        self.env = step_env()

    def _spawn(self, cmd):
        """Run cmd to completion; return (wall_s, rusage, exit code)."""
        stdout_path = os.path.join(self.workdir, "stdout")
        stderr_path = os.path.join(self.workdir, "stderr")
        limit = max(1.0, self.deadline - time.monotonic())
        with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=self.env, cwd=ROOT)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                # os.wait4 gives this child's own rusage; RUSAGE_CHILDREN
                # would be a running maximum over all children
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, ru, proc.returncode

    def run(self, step, traced=False):
        out_path = os.path.join(self.workdir, "out")
        trace_path = os.path.join(self.workdir, "trace.json")
        for p in (out_path, trace_path):
            if os.path.exists(p):
                os.remove(p)
        argv = step_argv(step, out_path)
        if traced:
            cmd = [sys.executable, TRACER, trace_path, "--"] + argv
        else:
            cmd = [sys.executable, "-m", "tonalg.cli"] + argv
        wall, ru, rc = self._spawn(cmd)
        with open(os.path.join(self.workdir, "stdout"), "rb") as fh:
            stdout = fh.read()
        out_bytes = len(stdout)
        if os.path.exists(out_path):
            out_bytes += os.path.getsize(out_path)
        ok, reason = check_step(step, rc, stdout, out_path, self.expected, self.sos)
        trace = None
        if traced and os.path.exists(trace_path):
            with open(trace_path) as fh:
                trace = json.load(fh)
        if traced and trace is None:
            ok, reason = False, reason or "no trace written"
        if not ok:
            with open(os.path.join(self.workdir, "stderr"), "rb") as fh:
                err = fh.read().decode(errors="replace").strip().splitlines()
            print("FAILED %s: %s %s" % (" ".join(argv), reason, err[-1:] if err else ""), file=sys.stderr)
        cpu = ru.ru_utime + ru.ru_stime
        # ru_maxrss is in KiB on Linux
        return StepResult(step, wall, cpu, ru.ru_maxrss / 1024.0, rc, ok, reason, out_bytes, trace)

    def setup_time(self):
        """Wall seconds for a fresh interpreter to import tonalg.cli."""
        wall, _, rc = self._spawn([sys.executable, "-c", "import tonalg.cli"])
        if rc != 0:
            raise RuntimeError("cannot import tonalg.cli")
        return wall


def point_value(text):
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def check_step(step, rc, stdout, out_path, expected, sos):
    """(ok, reason) for one step's exit code and output."""
    if rc != 0:
        return False, "exit code %d" % rc
    if step.kind == "verify":
        lines = stdout.decode(errors="replace").strip().splitlines()
        checks = len(CHECK_NAMES) if step.arg is None else len(step.arg)
        want = (step.n + 1) * checks
        if not lines or lines[-1] != "%d/%d checks passed" % (want, want):
            return False, "summary %r" % (lines[-1] if lines else "")
        if any(not line.startswith("PASS ") for line in lines[:-1]) or len(lines) != want + 1:
            return False, "a check did not pass"
        return True, ""
    if step.kind == "gram":
        mu, point = step.arg
        exp = expected["gram"]["%d,%d,%s" % (step.l, step.n, mu)]
        try:
            got = json.loads(stdout)
        except ValueError:
            return False, "output is not JSON"
        for key in ("dim", "generic_rank", "det"):
            if got.get(key) != exp[key]:
                return False, "%s %r != %r" % (key, got.get(key), exp[key])
        x = point_value(point)
        if got.get("rank_at") != exp["rank_at"][point] or got.get("at") != str(x):
            return False, "rank_at %r != %r" % (got.get("rank_at"), exp["rank_at"][point])
        # independent of the record: full rank at P exactly when det(P) != 0
        det_at = sum(Fraction(v) * x ** int(k) for k, v in got["det"].items())
        if (got["rank_at"] == got["dim"]) != (det_at != 0):
            return False, "rank_at %d, dim %d and det(P) = %s disagree" % (got["rank_at"], got["dim"], det_at)
        return True, ""
    exp = expected["basis"]["%d,%d" % (step.l, step.n)]
    if not os.path.exists(out_path):
        return False, "no output file"
    with open(out_path, "rb") as fh:
        data = fh.read()
    if hashlib.sha256(data).hexdigest() != exp["sha256"]:
        return False, "output digest differs from the record"
    got = json.loads(data)
    count = got.get("count")
    if count != exp["count"] or len(got.get("diagrams", ())) != count:
        return False, "count %r != %r" % (count, exp["count"])
    if sos[(step.l, step.n)] != count:
        return False, "count %d != sum of squared module dims %d" % (count, sos[(step.l, step.n)])
    return True, ""


def sum_of_squares(steps):
    """sum(standard_dim(mu)**2) over all labels, for each basis step."""
    pairs = sorted({(s.l, s.n) for s in steps if s.kind == "basis"})
    if not pairs:
        return {}
    code = (
        "import json, sys\n"
        "from tonalg.standard_modules import all_labels, standard_dim\n"
        "pairs = json.loads(sys.argv[1])\n"
        "print(json.dumps([sum(standard_dim(mu, l, n) ** 2 for mu in all_labels(l, n)) for l, n in pairs]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(pairs)],
        env=step_env(), cwd=ROOT, capture_output=True, check=True, timeout=60,
    )
    return dict(zip(pairs, json.loads(out.stdout)))


def by_step(results, field, stat):
    samples = {}
    for r in results:
        samples.setdefault(r.step, []).append(getattr(r, field))
    return {s: stat(v) for s, v in samples.items()}


def end_to_end_metrics(results, setups):
    """wall_s and cpu_s: the sum over the steps of each step's median
    sample in this run.  The same process on a shared 2-core host runs up to
    1.8x slower while other tenants are busy, for minutes at a time; over
    runs of the same code, the per-step median spread less than the
    per-step minimum.  setup_s: the median of the run's set-up samples.
    peak_rss_mb: the largest per-step median peak RSS."""
    attempted = len(results)
    failed = sum(1 for r in results if not r.ok)
    wall = by_step(results, "wall", statistics.median)
    cpu = by_step(results, "cpu", statistics.median)
    rss = by_step(results, "rss_mb", statistics.median)
    return {
        "wall_s": {"value": sum(wall.values()), "unit": "s"},
        "cpu_s": {"value": sum(cpu.values()), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": max(rss.values()), "unit": "MB"},
        "pass_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
    }


# Per-layer metrics: (span, fields) over the spans tracer.py records,
# summed over the steps of one traced pass.
SPAN_METRICS = [
    ("diagram.compose", ("calls", "self_s", "us_per_call")),
    ("diagram.prop_vector", ("calls", "self_s")),
    ("diagram.serialize", ("calls", "self_s")),
    ("algebra.enumerate_basis", ("calls", "self_s")),
    ("gamma.poset_leq", ("calls", "self_s")),
    ("symmetric.specht_rep", ("self_s",)),
    ("symmetric.SpechtRep.matrix", ("calls", "self_s")),
    ("standard_modules.transversal", ("self_s",)),
    ("standard_modules.standard_module", ("self_s",)),
    ("standard_modules.action_matrix", ("calls", "self_s")),
    ("standard_modules.decompose_left_term", ("calls",)),
    ("standard_modules.corner_basis", ("self_s",)),
    ("gram.GramMatrix", ("builds", "self_s")),
    ("exactla.bareiss_det", ("calls", "self_s")),
    ("exactla.poly_rank", ("calls", "self_s")),
    ("exactla.fraction_rank", ("calls", "self_s")),
    ("exactla.poly_mat_mul", ("calls", "self_s")),
    ("deltapoly.divexact", ("calls", "self_s")),
    ("branching.submodule_closure_check", ("self_s",)),
    ("branching.quotient_exactness_check", ("self_s",)),
    ("structure.corner_group_check", ("self_s",)),
    ("structure.section_checks", ("self_s",)),
    ("fastops.pairwise_tone_and_bottleneck", ("calls",)),
]
UNITS = {"calls": "count", "builds": "count", "self_s": "s", "us_per_call": "us"}


def per_layer_names():
    """[(name, unit)] of every per-layer metric, in report order."""
    out = []
    for span, fields in SPAN_METRICS:
        out += [("%s.%s" % (span, f), UNITS[f]) for f in fields]
    out += [
        ("algebra.set_partitions.yielded", "count"),
        ("algebra.enumerate_basis.kept_ratio", "ratio"),
        ("gram.dim_max", "count"),
    ]
    out += [("verify.%s.s" % c, "s") for c in CHECK_NAMES]
    out += [
        ("verify.checks_run", "count"),
        ("verify.checks_failed", "count"),
        ("cli.output_bytes", "bytes"),
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return out


def per_layer_metrics(traced, untraced):
    spans = {}
    counters = {}
    for r in traced:
        for name, (calls, incl, self_s) in (r.trace or {}).get("spans", {}).items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_s
        for name, v in (r.trace or {}).get("counters", {}).items():
            if name == "gram.dim_max":
                counters[name] = max(counters.get(name, 0), v)
            else:
                counters[name] = counters.get(name, 0) + v
    values = {}
    for span, fields in SPAN_METRICS:
        calls, _, self_s = spans.get(span, (0, 0.0, 0.0))
        for f in fields:
            if f in ("calls", "builds"):
                values["%s.%s" % (span, f)] = calls
            elif f == "self_s":
                values["%s.self_s" % span] = self_s
            else:
                values["%s.us_per_call" % span] = 1e6 * self_s / calls if calls else 0.0
    walked = counters.get("algebra.enumerate_basis.walked", 0)
    values["algebra.set_partitions.yielded"] = counters.get("algebra.set_partitions.yielded", 0)
    values["algebra.enumerate_basis.kept_ratio"] = (
        counters.get("algebra.enumerate_basis.kept", 0) / walked if walked else 0.0
    )
    values["gram.dim_max"] = counters.get("gram.dim_max", 0)
    for c in CHECK_NAMES:
        values["verify.%s.s" % c] = spans.get("verify." + c, (0, 0.0, 0.0))[1]
    values["verify.checks_run"] = counters.get("verify.checks_run", 0)
    values["verify.checks_failed"] = counters.get("verify.checks_failed", 0)
    values["cli.output_bytes"] = sum(r.out_bytes for r in traced)
    traced_wall = sum(r.wall for r in traced)
    untraced_wall = sum(r.wall for r in untraced)
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "tonalg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, timeout=10)
    except OSError:
        return None
    return out.stdout.decode().strip() or None


def environment(args):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "numba": importlib.util.find_spec("numba") is not None,
        "sympy": importlib.util.find_spec("sympy") is not None,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "expected_recorded_at": load_expected().get("recorded_at"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "TONALG_THREADS": step_env()["TONALG_THREADS"],
        "excluded_steps": EXCLUDED,
    }


def load_expected():
    with open(EXPECTED) as fh:
        return json.load(fh)


def run_passes(runner, steps, seconds):
    """Repeat the steps in order, with a few setup samples before each pass,
    until the next step would end after `seconds`; at least two whole passes.
    Returns (step results, setup seconds)."""
    results = []
    setups = []
    last_wall = {}
    t0 = time.monotonic()
    for i in itertools.count():
        step = steps[i % len(steps)]
        if i >= 2 * len(steps) and time.monotonic() - t0 + last_wall[step] > seconds:
            return results, setups
        if i % len(steps) == 0:
            setups += [runner.setup_time() for _ in range(SETUP_PER_PASS)]
        results.append(runner.run(step))
        last_wall[step] = results[-1].wall


def step_summary(results):
    """Per-step sample counts, fastest and median wall seconds."""
    rows = []
    best = by_step(results, "wall", min)
    median = by_step(results, "wall", statistics.median)
    for step in best:
        rows.append({
            "argv": " ".join(step_argv(step, "OUT")),
            "samples": sum(1 for r in results if r.step == step),
            "best_wall_s": round(best[step], 4),
            "median_wall_s": round(median[step], 4),
        })
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tonalg", "cli.py")):
        print("error: %s holds no tonalg sources; run from a checkout of the repository" % ROOT, file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    expected = load_expected()
    steps = workload_steps(args.workload, args.seed)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        runner = Runner(workdir, deadline, expected, sum_of_squares(steps))
        runner.setup_time()  # untimed: compiles bytecode on a fresh checkout
        if args.trace:
            # each step untraced then traced, so both see the host alike
            results = [runner.run(s, traced=t) for s in steps for t in (False, True)]
            untraced, traced = results[0::2], results[1::2]
            metrics = per_layer_metrics(traced, untraced)
        else:
            results, setups = run_passes(runner, steps, args.seconds)
            untraced = results
            metrics = end_to_end_metrics(results, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for r in results if not r.ok)
    print(json.dumps({"steps": step_summary(untraced)}))
    print(json.dumps({"env": environment(args)}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
