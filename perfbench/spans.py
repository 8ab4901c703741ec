"""Span tracing around gadkit's public functions, and the per-layer metrics drawn from it.

The tracer swaps module attributes for wrappers at the names their callers
look up (``build_panels`` calls ``gadkit.decomposition.svd``, ``run_config``
calls ``gadkit.experiments.sweep``), so the program carries no
instrumentation of its own.  ``numpy.linalg.svd`` is wrapped for counts and
operand shapes only.  Spans nest on one stack because the sweep runs with a
pool width of 1.  A layer's self time is its span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import importlib
import json
import statistics
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

# (module under gadkit, attribute, span name).  The span name is the layer
# the call is charged to; calls made inside an unwrapped function (such as
# the svd inside linalg.pseudoinverse) count in that function's self time.
WRAPPED = (
    ("decomposition", "build_panels", "decomposition.build_panels"),
    ("decomposition", "aliasing_operator", "decomposition.aliasing_operator"),
    ("decomposition", "ridge_panels", "decomposition.ridge_panels"),
    ("decomposition", "risk_and_errors", "decomposition.risk_and_errors"),
    ("decomposition", "svd", "linalg.svd"),
    ("decomposition", "pseudoinverse", "linalg.pseudoinverse"),
    ("decomposition", "spectral_norm", "linalg.spectral_norm"),
    ("decomposition", "kernel_projector", "linalg.kernel_projector"),
    ("decomposition", "as_matrix", "linalg.as_matrix"),
    ("decomposition", "evaluate_columns", "bases.evaluate_columns"),
    ("decomposition", "make_theta", "designs.make_theta"),
    ("experiments", "sweep", "decomposition.sweep"),
    ("experiments", "evaluate_columns", "bases.evaluate_columns"),
    ("experiments", "make_design", "designs.make_design"),
    ("experiments", "ising_design", "designs.make_design"),
    ("experiments", "build_panels", "decomposition.build_panels"),
    ("experiments", "aliasing_operator", "decomposition.aliasing_operator"),
    ("experiments", "kernel_projector", "linalg.kernel_projector"),
    ("experiments", "write_sweep_csv", "experiments.write"),
    ("experiments", "write_json", "experiments.write"),
)

# per-layer metric -> span name whose self time it sums
SELF_TIMES = {
    "linalg.svd_s": "linalg.svd",
    "linalg.pseudoinverse_s": "linalg.pseudoinverse",
    "linalg.kernel_projector_s": "linalg.kernel_projector",
    "linalg.spectral_norm_s": "linalg.spectral_norm",
    "linalg.as_matrix_s": "linalg.as_matrix",
    "decomposition.ridge_panels_s": "decomposition.ridge_panels",
    "decomposition.build_panels_s": "decomposition.build_panels",
    "decomposition.aliasing_operator_s": "decomposition.aliasing_operator",
    "decomposition.risk_and_errors_s": "decomposition.risk_and_errors",
    "decomposition.sweep_self_s": "decomposition.sweep",
    "bases.evaluate_columns_s": "bases.evaluate_columns",
    "designs.make_design_s": "designs.make_design",
    "designs.make_theta_s": "designs.make_theta",
    "config.parse_s": "config.parse",
    "experiments.write_s": "experiments.write",
}

MB = float(1 << 20)


def svd_flops(rows: int, cols: int, vectors: bool, complex_: bool) -> float:
    """Golub-Reinsch SVD operation count (Golub & Van Loan, Matrix Computations).

    With a = max(rows, cols) and b = min(rows, cols): 14ab^2 + 8b^3 when the
    thin singular vectors are formed, 4ab^2 - 4b^3/3 for singular values
    only.  A complex operand counts four real operations per complex one.
    """
    a, b = max(rows, cols), min(rows, cols)
    flops = 14.0 * a * b * b + 8.0 * b**3 if vectors else 4.0 * a * b * b - 4.0 * b**3 / 3.0
    return 4.0 * flops if complex_ else flops


def tail(samples: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it.

    That is the (n - 10)-th smallest of n samples; with ten or fewer samples
    no such percentile exists and the maximum is returned.
    """
    ordered = sorted(samples)
    return ordered[len(ordered) - 11] if len(ordered) > 10 else ordered[-1]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_no: int | None
    id: tuple  # (workload, lambda, m) of the model size the call belongs to


@dataclass
class SvdCall:
    pass_no: int | None
    rows: int
    cols: int
    itemsize: int
    complex_: bool
    vectors: bool


class Tracer:
    """Records spans, m-steps and counts; ``pass_no`` says which timed pass they belong to."""

    def __init__(self, workload: str):
        self.workload = workload
        self.pass_no: int | None = None
        self.spans: list[Span] = []
        self.steps: list[Span] = []  # one per model size swept, from build_panels to risk_and_errors
        self.svd_calls: list[SvdCall] = []
        self.operator_bytes: dict[int | None, int] = {}
        self._stack: list[int] = []
        self._lam = 0.0
        self._m: int | None = None
        self._in_sweep = False
        self._open_step: Span | None = None
        self._undo: list[tuple[object, str, object]] = []

    def _id(self) -> tuple:
        return (self.workload, self._lam, self._m)

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span; hooks run before the span opens and after it closes."""

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent, self.pass_no, self._id())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = None
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = perf_counter()
                self._stack.pop()
                if after is not None:
                    after(result)

        return traced

    # hooks that keep the current (lambda, m) and the m-step spans

    def _close_step(self, _result=None) -> None:
        if self._open_step is not None:
            self._open_step.end = perf_counter()
            self.steps.append(self._open_step)
            self._open_step = None

    def _sweep_begins(self, args, kwargs) -> None:
        ridge = kwargs.get("ridge", args[4] if len(args) > 4 else None)
        self._lam = float(ridge.lam) if ridge is not None else 0.0
        self._m = None
        self._in_sweep = True

    def _sweep_ends(self, _result) -> None:
        self._close_step()
        self._lam = 0.0
        self._m = None
        self._in_sweep = False

    def _panel_begins(self, args, kwargs) -> None:
        self._m = int(kwargs["m"] if "m" in kwargs else args[2])
        if self._in_sweep:
            self._close_step()
            now = perf_counter()
            self._open_step = Span("m_step", now, now, None, self.pass_no, self._id())

    def _operator_made(self, result) -> None:
        if result is not None:
            self.operator_bytes[self.pass_no] = self.operator_bytes.get(self.pass_no, 0) + result.nbytes

    def _count_svd(self, fn):
        def counted(a, *args, **kwargs):
            vectors = kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
            x = np.asarray(a)
            self.svd_calls.append(SvdCall(self.pass_no, x.shape[-2], x.shape[-1], x.itemsize,
                                          bool(np.iscomplexobj(x)), bool(vectors)))
            return fn(a, *args, **kwargs)

        return counted

    def install(self) -> None:
        """Put the wrappers in place of the public functions; ``uninstall`` restores them."""
        hooks = {
            "decomposition.sweep": (self._sweep_begins, self._sweep_ends),
            "decomposition.build_panels": (self._panel_begins, None),
            "decomposition.risk_and_errors": (None, self._close_step),
            "bases.evaluate_columns": (None, self._operator_made),
        }
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(f"gadkit.{module_name}")
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, *hooks.get(name, (None, None))))
        self._undo.append((np.linalg, "svd", np.linalg.svd))
        np.linalg.svd = self._count_svd(np.linalg.svd)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        out = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                out[span.parent] -= span.end - span.start
        return out

    def layer_metrics(self, passes: list[int]) -> dict[str, float]:
        """Per-layer metrics of one workload pass: the median over the traced ``passes``."""
        own = self.self_times()
        per_pass: dict[str, list[float]] = {}

        def add(metric: str, value: float) -> None:
            per_pass.setdefault(metric, []).append(value)

        for p in passes:
            steps = sum(1 for step in self.steps if step.pass_no == p)
            totals: dict[str, float] = {}
            calls: dict[str, int] = {}
            for span, t in zip(self.spans, own):
                if span.pass_no == p:
                    totals[span.name] = totals.get(span.name, 0.0) + t
                    calls[span.name] = calls.get(span.name, 0) + 1
            for metric, name in SELF_TIMES.items():
                add(metric, totals.get(name, 0.0))
            svds = [c for c in self.svd_calls if c.pass_no == p]
            add("linalg.svd_calls_per_m", len(svds) / steps)
            add("linalg.svd_flops_per_m",
                sum(svd_flops(c.rows, c.cols, c.vectors, c.complex_) for c in svds) / steps)
            add("linalg.svd_max_operand_mb",
                max((c.rows * c.cols * c.itemsize for c in svds), default=0) / MB)
            add("linalg.as_matrix_calls_per_m", calls.get("linalg.as_matrix", 0) / steps)
            add("decomposition.ridge_panels_calls_per_m",
                calls.get("decomposition.ridge_panels", 0) / steps)
            add("bases.evaluate_columns_calls", calls.get("bases.evaluate_columns", 0))
            add("bases.operator_mb", self.operator_bytes.get(p, 0) / MB)
        metrics = {name: statistics.median(values) for name, values in per_pass.items()}

        step_ms = [1e3 * (s.end - s.start) for s in self.steps if s.pass_no in passes]
        metrics["decomposition.m_step_p50_ms"] = statistics.median(step_ms)
        metrics["decomposition.m_step_tail_ms"] = tail(step_ms)
        metrics["decomposition.m_step_samples"] = len(step_ms)
        metrics["oracle.certify_s"] = sum(t for span, t in zip(self.spans, own)
                                          if span.name == "oracle.certify")
        return metrics

    def dump(self, path: Path) -> None:
        """Write every span and m-step recorded in this run as JSON."""
        payload = {
            "workload": self.workload,
            "spans": [asdict(span) for span in self.spans],
            "m_steps": [asdict(step) for step in self.steps],
            "numpy_svd_calls": [asdict(call) for call in self.svd_calls],
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
