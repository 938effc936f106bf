"""polybvp benchmark: one process, one caller, a closed loop of checked ops.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists):
  paper_cold    `polybvp paper --example all` through cli.main, each table
                from a fresh import so every lru_cache starts empty.
  sweep_high_n  warm solves of seeded problems at n in {16, 23, 30}, orders 1..9.
  expr_small_n  warm solves at n 6..12, orders 1..4, rhs from compile_function.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics, writing the spans to
perfbench/out/.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A harness error (for
example no polybvp sources next to this directory) exits nonzero without it.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MODULES = ("approx", "basis", "cli", "exprparse", "refode", "solver")
WORKLOADS = ("paper_cold", "sweep_high_n", "expr_small_n")
PAPER_ARGV = ["paper", "--example", "all"]
PAPER_ROWS = 8
SETUPS = 3  # cold set-ups per batch run; setup_s is their median
MIN_OPS = {"paper_cold": 5, "sweep_high_n": 200, "expr_small_n": 200}
now = time.perf_counter


class HarnessError(RuntimeError):
    """The benchmark itself cannot run or cannot check a result."""


def fresh_import():
    """polybvp from this checkout with empty caches, as a new process sees it.

    Returns (modules by short name, seconds spent importing)."""
    for name in [k for k in sys.modules if k == "polybvp" or k.startswith("polybvp.")]:
        del sys.modules[name]
    start = now()
    pkg = importlib.import_module("polybvp")
    took = now() - start
    if Path(pkg.__file__).resolve().parent != SRC / "polybvp":
        raise HarnessError("imported polybvp from %s, not from %s" % (pkg.__file__, SRC))
    return {m: importlib.import_module("polybvp." + m) for m in MODULES}, took


# The shared host runs the same code at speeds up to ~60% apart for seconds
# at a time.  So a fixed pure-Python kernel is timed too, and each op time
# is scaled by KERNEL_S / (kernel time): for a batch op the median of the
# samples taken untimed between the ops around it, for a paper table the
# samples taken while it runs (TableSampler).  KERNEL_S is about the
# kernel's time on a 2-core x86-64 VM with CPython 3.11 in its fast state.
# Raw times are printed beside the calibrated ones.
KERNEL_S = 150e-6
WINDOW = 5  # kernel samples on each side of a batch op
TICK_S = 0.02  # kernel sampling interval inside a paper table


def _kernel():
    # Fixed work: float arithmetic over a small list and 256-bit integer
    # steps.  It is the unit of every time metric; see README.md.
    acc = 0.0
    xs = [float(i) for i in range(64)]
    big = 1
    for _ in range(44):
        for x in xs:
            acc += x * 0.5 - acc * 1e-3
        big = (big * 3 + 1) & ((1 << 256) - 1)
    return acc + big


def kernel_samples(count):
    out = []
    for _ in range(count):
        start = now()
        _kernel()
        out.append(now() - start)
    return out


def speed_factor(samples):
    return KERNEL_S / statistics.median(samples)


def mean_speed_factor(samples):
    """KERNEL_S over the mean sample, trimmed of its top and bottom tenth."""
    ordered = sorted(samples)
    k = len(ordered) // 10
    return KERNEL_S / statistics.fmean(ordered[k:len(ordered) - k])


class TableSampler:
    """Kernel samples taken on SIGALRM every TICK_S while a paper table runs.

    A table takes about half a second, long enough for the host's speed to
    change inside it, so its speed is the mean over samples taken during it
    rather than a median around it.  The handler's own time is excluded
    from the table's time and, in a traced run, from the open span."""

    def __init__(self, tracer=None):
        self.samples = []
        self.spent = 0.0
        self.tracer = tracer

    def _tick(self, signum, frame):
        start = now()
        _kernel()
        self.samples.append(now() - start)
        spent = now() - start
        self.spent += spent
        if self.tracer is not None:
            self.tracer.credit(spent)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


class Tally:
    """Op times and check outcomes of one side (untraced or traced)."""

    def __init__(self, tolerance):
        self.tolerance = tolerance
        self.times = []  # calibrated seconds per op
        self.errors = []
        self.failed = 0
        self.loop_s = 0.0  # calibrated seconds of op time
        self.raw_s = 0.0
        self.factors = []
        self.first_failure = None

    def add(self, seconds, error, failure=None):
        """One op: its error (inf if it raised) and, if it failed a check,
        the exception or message saying why."""
        self.times.append(seconds)
        self.loop_s += seconds
        self.errors.append(error)
        if failure is not None:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = failure

    @property
    def ops(self):
        return len(self.times)

    @property
    def passed(self):
        return sum(1 for e in self.errors if e <= self.tolerance)

    def mean_ms(self):
        return 1e3 * sum(self.times) / self.ops


def digits(err):
    return -math.log10(min(max(err, 1e-17), 1e17))


# ---------------------------------------------------------------- paper_cold

def paper_op(tally, tracer=None):
    """One cold table; returns (calibrated import seconds, (hits, misses)
    of the basis cache)."""
    gc.collect()
    mods, import_s = fresh_import()
    main = mods["cli"].main
    if tracer is not None:
        tracer.op += 1
        tracer.install(mods)
        main = tracer.span("cli.main", main)
    out = io.StringIO()
    sampler = TableSampler(tracer)
    start = now()
    failure = None
    try:
        with contextlib.redirect_stdout(out), sampler:
            code = main(PAPER_ARGV)
    except Exception as exc:  # an op that raises is counted, not fatal
        failure = exc
    took = now() - start - sampler.spent
    factor = mean_speed_factor(sampler.samples or kernel_samples(WINDOW))
    rows = [line.split() for line in out.getvalue().splitlines()[1:]]
    if failure is None and (code != 0 or len(rows) != PAPER_ROWS
                            or any(r[-1] != "PASS" for r in rows)):
        failure = "paper table failed (exit %r):\n%s" % (code, out.getvalue())
    error = math.inf if failure is not None else max(float(r[2]) for r in rows)
    tally.add(took * factor, error, failure)
    tally.raw_s += took
    tally.factors.append(factor)
    info = getattr(mods["basis"].gram_schmidt_basis, "cache_info", None)
    return import_s * factor, ((info().hits, info().misses) if info else (0, 0))


def enough(workload, seconds, plain, traced, trace):
    ops = min(plain.ops, traced.ops) if trace else plain.ops
    return plain.raw_s + traced.raw_s >= seconds and ops >= MIN_OPS[workload]


def run_paper(seconds, trace):
    # A table passes when every row meets the program's own threshold, so
    # any finite error counts; digits come from the worst row of each table.
    plain, traced = Tally(math.inf), Tally(math.inf)
    tracer = spans.Tracer() if trace else None
    imports, hits, misses = [], 0, 0
    while not enough("paper_cold", seconds, plain, traced, trace):
        sides = [(plain, None)] + ([(traced, tracer)] if trace else [])
        for tally, tr in sides:
            import_s, (h, m) = paper_op(tally, tr)
            imports.append(import_s)
            if tr is not None:
                hits, misses = hits + h, misses + m
    return plain, traced, tracer, statistics.median(imports), (hits, misses)


# ---------------------------------------------------------------- batches

def build_problems(mods, specs, wrap=None):
    compile_function = mods["exprparse"].compile_function
    return [workloads.build(mods["solver"], compile_function, s, wrap) for s in specs]


def batch_setup(specs):
    """Cold import plus one pass that fills the caches; input building is
    excluded.  Returns (modules, problems, calibrated seconds)."""
    gc.collect()
    samples = kernel_samples(WINDOW)
    mods, took = fresh_import()
    problems = build_problems(mods, specs)
    solve = mods["solver"].solve
    for p in problems:
        start = now()
        try:
            solve(p)
        except Exception:  # counted when the timed loop meets it again
            pass
        took += now() - start
        samples += kernel_samples(1)
    return mods, problems, took * speed_factor(samples)


def run_pass(tally, solve, problems, specs, reference, tracer=None):
    """Time one solve per problem, then check every result untimed."""
    gc.collect()
    outcomes = []
    samples = kernel_samples(WINDOW)
    for p in problems:
        if tracer is not None:
            tracer.op += 1
        start = now()
        try:
            sol = solve(p)
        except Exception as exc:  # an op that raises is counted, not fatal
            sol = exc
        outcomes.append((now() - start, sol))
        samples += kernel_samples(1)
    samples += kernel_samples(WINDOW)
    tally.raw_s += sum(took for took, _ in outcomes)
    for i, (spec, (took, sol)) in enumerate(zip(specs, outcomes)):
        # samples[i + WINDOW] ran right after op i
        factor = speed_factor(samples[i: i + 2 * WINDOW + 1])
        tally.factors.append(factor)
        if isinstance(sol, BaseException):
            tally.add(took * factor, math.inf, sol)
            continue
        # The full error is computed once per problem; later passes must
        # reproduce the first one's values bit for bit.
        values = workloads.fingerprint(spec, sol)
        if i not in reference:
            reference[i] = (values, workloads.error(spec, sol))
        ref_values, err = reference[i]
        failure = None
        if not math.isfinite(err):
            failure = "problem %d: non-finite solution" % i
        elif values != ref_values:
            failure = "problem %d: solution %r, earlier %r" % (i, values, ref_values)
        elif err > tally.tolerance and spec["n"] < workloads.GATED_BELOW_N:
            failure = "problem %d (n=%d): error %.3g above tolerance %g" % (
                i, spec["n"], err, tally.tolerance)
        tally.add(took * factor, err, failure)


def run_batch(workload, specs, seconds, trace):
    setups = [batch_setup(specs) for _ in range(SETUPS)]
    mods, problems, _ = setups[-1]
    setup_s = statistics.median(s[2] for s in setups)
    solver = mods["solver"]
    tol = workloads.TOLERANCE[workload]
    plain, traced = Tally(tol), Tally(tol)
    reference = {}  # problem index -> (fingerprint, error) from its first pass
    tracer = spans.Tracer() if trace else None
    if trace:
        traced_problems = build_problems(mods, specs, tracer.timed_rhs)
        traced_solve = tracer.span("solver.solve", solver.solve)
    info = getattr(mods["basis"].gram_schmidt_basis, "cache_info", None)
    hits = misses = 0
    while not enough(workload, seconds, plain, traced, trace):
        run_pass(plain, solver.solve, problems, specs, reference)
        if trace:
            undo = tracer.install(mods)
            before = info() if info else None
            run_pass(traced, traced_solve, traced_problems, specs, reference, tracer)
            if info:
                hits += info().hits - before.hits
                misses += info().misses - before.misses
            tracer.uninstall(undo)
    return plain, traced, tracer, setup_s, (hits, misses)


# ---------------------------------------------------------------- metrics

def end_to_end(t, setup_s):
    ms = [1e3 * s for s in t.times]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (t.passed / t.loop_s, "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p95": (statistics.quantiles(ms, n=20)[18], "ms"),
        "pass_frac": (t.passed / t.ops, "frac"),
        "digits_p50": (statistics.median(digits(e) for e in t.errors), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(plain, traced, tracer, cache):
    ops = traced.ops
    s = tracer.self_s
    c = tracer.calls

    def ms(*names):
        return 1e3 * sum(s[n] for n in names) / ops

    hits, misses = cache
    projects = c["approx.project"]
    op_ms = 1e3 * traced.raw_s / ops
    attributed = 1e3 * sum(s.values()) / ops
    return {
        "basis.build_ms": (ms("basis.gram_schmidt_basis"), "ms"),
        "basis.calls": (c["basis.gram_schmidt_basis"] / ops, "count"),
        "basis.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "opmatrix.build_ms": (ms("opmatrix.build_theta"), "ms"),
        "approx.rule_ms": (ms("approx.gauss_legendre_rule"), "ms"),
        "approx.rule_builds_per_project": (
            c["approx.gauss_legendre_rule"] / projects if projects else 0.0, "count"),
        "approx.project_ms": (ms("approx.project"), "ms"),
        "exprparse.eval_ms": (ms(spans.EVAL), "ms"),
        "exprparse.evals_per_op": (c[spans.EVAL] / ops, "count"),
        "solver.assemble_ms": (ms("solver.assemble"), "ms"),
        "solver.system_dim": (statistics.fmean(tracer.system_dims) if tracer.system_dims else 0.0,
                              "count"),
        "linalg.solve_ms": (ms("linalg.solve_linear"), "ms"),
        "poly.reconstruct_ms": (ms("poly.reconstruct", "poly.compose_linear"), "ms"),
        "solver.diagnostics_ms": (ms("solver.diagnostics"), "ms"),
        "solver.self_ms": (ms("solver.solve"), "ms"),
        "refode.rk4_ms": (ms("refode.reference_solution", "refode.integrate_rk4"), "ms"),
        "refode.steps": (tracer.rk4_steps / ops, "count"),
        "cli.self_ms": (ms("cli.main"), "ms"),
        "trace.op_ms": (op_ms, "ms"),
        "trace.other_ms": (op_ms - attributed, "ms"),
        "trace.overhead_frac": (traced.mean_ms() / plain.mean_ms() - 1.0, "frac"),
    }


def report(args, inputs, plain, traced, tracer, setup_s, cache):
    sides = [plain, traced] if args.trace else [plain]
    attempted = sum(t.ops for t in sides)
    failed = sum(t.failed for t in sides)
    print("polybvp benchmark  workload=%s  seed=%d  trace=%d  %s"
          % (args.workload, args.seed, args.trace, inputs))
    for t in sides:
        if isinstance(t.first_failure, BaseException):
            print("first failing op:", file=sys.stderr)
            traceback.print_exception(t.first_failure, file=sys.stderr)
        elif t.first_failure is not None:
            print("first failing op: %s" % t.first_failure, file=sys.stderr)
    if args.trace:
        metrics = per_layer(plain, traced, tracer, cache)
        print("  per-layer figures are means per traced op over %d traced ops "
              "(%d untraced ops interleaved)" % (traced.ops, plain.ops))
        if tracer.absent:
            print("  absent layers (reported as 0): %s" % ", ".join(sorted(tracer.absent)))
        path = OUT / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "inputs": inputs})
        print("  spans: %d written to %s" % (len(tracer.spans), path.relative_to(HERE.parent)))
    else:
        metrics = end_to_end(plain, setup_s)
        beyond = sum(1 for s in plain.times if 1e3 * s > metrics["op_ms_p95"][0])
        print("  %d ops, %d beyond p95; %.2f s of op time (%.2f s calibrated, speed "
              "factor median %.3f, range %.3f-%.3f)"
              % (plain.ops, beyond, plain.raw_s, plain.loop_s, statistics.median(plain.factors),
                 min(plain.factors), max(plain.factors)))
        print("  fail_frac = %.6g: %d of %d ops raised or were above tolerance %g; "
              "%d failed a check" % (1.0 - metrics["pass_frac"][0], plain.ops - plain.passed,
                                     plain.ops, plain.tolerance, plain.failed))
    for name, (value, unit) in metrics.items():
        print("  %-32s %14.6g %s" % (name, value, unit))
    correct = failed == 0 and attempted > 0
    if not correct:
        print("CHECK FAILED: %d of %d ops raised or failed their check" % (failed, attempted),
              file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    try:
        if args.workload == "paper_cold":
            inputs = "inputs=polybvp %s" % " ".join(PAPER_ARGV)
            result = run_paper(args.seconds, args.trace)
        else:
            specs, digest = workloads.generate(args.workload, args.seed)
            inputs = "inputs=%d problems sha256=%s" % (len(specs), digest)
            result = run_batch(args.workload, specs, args.seconds, args.trace)
    except (ImportError, HarnessError) as exc:
        print("benchmark cannot run: %s" % exc, file=sys.stderr)
        return 2
    report(args, inputs, *result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
