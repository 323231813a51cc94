"""In-memory spans around the public functions of every sparsethresh module.

The package's modules import names into their own namespaces (for example
``concentration`` calls its own ``derive_rng``), so a function is wrapped at
every module attribute that holds it, not only where it is defined.  Each
span records (name, start, end, parent span, stream), where the stream is
the number of ``rng.derive_rng`` calls before it: every Monte Carlo trial
starts by deriving its stream, so the spans of one trial share that id.

With ``count_linalg`` the tracer also counts calls into ``numpy.linalg``
that reach LAPACK, by the layer of the innermost open span.

Tracing only sees the calling process, so traced commands run one worker.
Leaving the ``with`` block restores every original function.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter

import numpy as np

import sparsethresh
from sparsethresh.concentration import MomentEstimate, SminExperimentResult
from sparsethresh.recovery import PhaseTransitionGrid

__all__ = ["LAYERS", "Tracer"]

LAYERS = (
    "dictionary", "rng", "model", "threshold", "concentration", "recovery", "svg", "cli",
)

# numpy.linalg entry points that always call LAPACK; ``norm`` and
# ``matrix_norm`` do so only for the singular-value norms of a matrix.
_LAPACK_ENTRIES = frozenset({
    "cholesky", "cond", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
    "matrix_rank", "pinv", "qr", "slogdet", "solve", "svd", "svdvals",
    "tensorinv", "tensorsolve",
})
_SVD_NORMS = (2, -2, "nuc")

_NAME, _START, _END, _PARENT, _STREAM = range(5)


def _calls_lapack(entry: str, args, kwargs) -> bool:
    if entry in _LAPACK_ENTRIES:
        return True
    if entry not in ("norm", "matrix_norm") or not args:
        return False
    order = kwargs.get("ord", args[1] if len(args) > 1 else None)
    axis = kwargs.get("axis", args[2] if len(args) > 2 else None)
    return np.ndim(args[0]) == 2 and axis is None and order in _SVD_NORMS


class Tracer:
    """Context manager that wraps the package's public functions while active."""

    def __init__(self, count_linalg: bool = False):
        self.spans: list[list] = []
        self.outcomes: list[tuple[int, bool, bool]] = []  # per solve_bp call
        self.lapack_calls: Counter = Counter()  # layer -> calls
        self.stream = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._count_linalg = count_linalg

    # ---------------------------------------------------------- install

    def __enter__(self):
        modules = [importlib.import_module(f"sparsethresh.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._span_wrapper(fn, f"{layer}.{attr}")
        for mod in (sparsethresh, *modules):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        # artifact formatting: public methods that only the CLI calls
        for cls in (SminExperimentResult, MomentEstimate, PhaseTransitionGrid):
            self._patch(cls, "csv_rows", self._span_wrapper(cls.csv_rows, "cli.csv_rows"))
        if self._count_linalg:
            for entry in np.linalg.__all__:
                fn = getattr(np.linalg, entry)
                if callable(fn) and not inspect.isclass(fn):
                    self._patch(np.linalg, entry, self._lapack_counter(fn, entry))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _span_wrapper(self, fn, name):
        spans, stack = self.spans, self._stack
        new_stream = name == "rng.derive_rng"
        keep_outcome = name == "recovery.solve_bp"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_stream:
                self.stream += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.stream]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = perf_counter()
                stack.pop()
            if keep_outcome:
                self.outcomes.append((result.iterations, result.converged, result.success))
            return result

        return traced

    def _lapack_counter(self, fn, entry):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if _calls_lapack(entry, args, kwargs):
                layer = spans[stack[-1]][_NAME].split(".")[0] if stack else "none"
                self.lapack_calls[layer] += 1
            return fn(*args, **kwargs)

        return counted

    # ---------------------------------------------------------- read-out

    def mark(self) -> tuple[int, int, int]:
        """Position to slice spans, outcomes and LAPACK counts from later."""
        return len(self.spans), len(self.outcomes), self.lapack_calls["concentration"]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child[span[_PARENT]] += span[_END] - span[_START]
        return [s[_END] - s[_START] - c for s, c in zip(self.spans, child)]

    def durations(self, prefix: str, lo: int = 0, hi: int | None = None) -> list[float]:
        """Durations of the spans in ``lo:hi`` whose name starts with ``prefix``."""
        return [s[_END] - s[_START] for s in self.spans[lo:hi] if s[_NAME].startswith(prefix)]

    def child_sums(self, parent_name: str, child_name: str) -> list[float]:
        """Per ``parent_name`` span, total time of its direct ``child_name`` spans."""
        sums = {i: 0.0 for i, s in enumerate(self.spans) if s[_NAME] == parent_name}
        for s in self.spans:
            if s[_NAME] == child_name and s[_PARENT] in sums:
                sums[s[_PARENT]] += s[_END] - s[_START]
        return list(sums.values())

    def self_durations(self, name: str, self_times: list[float]) -> list[float]:
        return [t for s, t in zip(self.spans, self_times) if s[_NAME] == name]

    def write_csv(self, path, self_times: list[float]):
        t0 = self.spans[0][_START] if self.spans else 0.0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start_us", "end_us", "parent", "stream", "self_us"])
            for i, (s, own) in enumerate(zip(self.spans, self_times)):
                out.writerow([
                    i, s[_NAME], f"{(s[_START] - t0) * 1e6:.3f}",
                    f"{(s[_END] - t0) * 1e6:.3f}", s[_PARENT], s[_STREAM], f"{own * 1e6:.3f}",
                ])
