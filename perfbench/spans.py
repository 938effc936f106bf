"""In-memory span tracer for the traced benchmark run.

Spans are recorded around calls into polybvp by replacing module
attributes at layer boundaries from outside the package; nothing under
src/ knows about tracing.  A span is (id, name, start, end, parent, op).
Self time is a span's duration minus the time covered by its direct
children.  Right-hand-side evaluations are too many to keep one span each
(80 000 per paper table), so they are leaves that only add to the open
span's child time and to the exprparse totals.
"""

import json
import time
from collections import defaultdict

# (module, attribute, span name): the calls each workload makes across a
# layer boundary.  A name that a later refactor removes is reported as an
# absent layer instead of failing the run.
BOUNDARIES = (
    ("cli", "solve", "solver.solve"),
    ("cli", "reference_solution", "refode.reference_solution"),
    ("refode", "integrate_rk4", "refode.integrate_rk4"),
    ("solver", "gram_schmidt_basis", "basis.gram_schmidt_basis"),
    ("solver", "build_theta", "opmatrix.build_theta"),
    ("solver", "assemble", "solver.assemble"),
    ("solver", "project", "approx.project"),
    ("approx", "gauss_legendre_rule", "approx.gauss_legendre_rule"),
    ("solver", "solve_linear", "linalg.solve_linear"),
    ("solver", "_reconstruct_mapped", "poly.reconstruct"),
    ("solver", "compose_linear", "poly.compose_linear"),
    ("solver", "_diagnostics", "solver.diagnostics"),
)

EVAL = "exprparse.eval"


class Tracer:
    def __init__(self):
        self.spans = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.system_dims = []
        self.rk4_steps = 0
        self.absent = set()
        self.op = 0
        self._stack = []  # open spans: [id, name, start, child seconds]
        self._next_id = 0

    def span(self, name, fn):
        """fn wrapped so each call records one span named name."""
        stack = self._stack

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame[2]
                self.self_s[name] += dur - frame[3]
                self.calls[name] += 1
                if stack:
                    stack[-1][3] += dur
                self.spans.append((sid, name, frame[2], end, parent, self.op))
            try:
                if name == "solver.assemble":  # (matrix, rhs vector)
                    self.system_dims.append(len(result[1]))
                elif name == "refode.integrate_rk4":  # trajectory incl. start
                    self.rk4_steps += len(result) - 1
            except (TypeError, IndexError):  # a changed return shape: count absent
                self.absent.add(name + " size")
            return result

        return traced

    def credit(self, seconds):
        """Take seconds spent outside the program off the open span."""
        if self._stack:
            self._stack[-1][3] += seconds

    def timed_rhs(self, f):
        """f wrapped as a leaf: its time counts as exprparse evaluation."""
        stack = self._stack

        def rhs(x):
            start = time.perf_counter()
            v = f(x)
            dur = time.perf_counter() - start
            self.self_s[EVAL] += dur
            self.calls[EVAL] += 1
            if stack:
                stack[-1][3] += dur
            return v

        return rhs

    def install(self, mods):
        """Wrap every boundary present in mods; returns an undo list."""
        undo = []
        for mod_name, attr, name in BOUNDARIES:
            mod = mods[mod_name]
            if not hasattr(mod, attr):
                self.absent.add(name)
                continue
            original = getattr(mod, attr)
            undo.append((mod, attr, original))
            setattr(mod, attr, self.span(name, original))
        cli = mods["cli"]
        if hasattr(cli, "compile_function"):
            compile_function = cli.compile_function
            undo.append((cli, "compile_function", compile_function))
            cli.compile_function = lambda src: self.timed_rhs(compile_function(src))
        else:
            self.absent.add(EVAL)
        return undo

    @staticmethod
    def uninstall(undo):
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)

    def write(self, path, header):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
