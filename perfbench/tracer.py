"""Outside-in tracing of the gmreslab package.

While a :class:`Tracer` is installed, chosen package functions are replaced
by wrappers in every gmreslab module namespace that holds them, and a few
NumPy/SciPy entry points are replaced by counting wrappers.  The package
source is never edited; ``uninstall`` puts every original attribute back.

Spans: each wrapped package function opens a span named
``<module>.<function>``.  There is one span stack per thread (``lab_run``
runs depths on a thread pool), a span's self time is its duration minus
the durations of the spans nested directly inside it on the same thread,
and finished spans are kept in memory until :meth:`Tracer.write`.

Counts: every count is added to the innermost open span of the calling
thread, so ``minimax.ideal_gmres`` does not absorb the work of the
``minimax.one_step_ideal`` it calls.  Counts are machine independent:

- ``eigensolves``: Hermitian eigensolves (``numpy.linalg.eigh`` and
  ``eigvalsh``), a batched stack counted per matrix;
- ``lp_solves``: ``scipy.optimize.linprog`` calls;
- ``nm_fevals``: Nelder-Mead function evaluations (``res.nfev`` of
  ``scipy.optimize.minimize``);
- ``phi_cols``: candidate vectors passed to ``krylov.min_residual_values``,
  attributed to its caller; the callee's own span counts them as ``cols``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from functools import wraps
from pathlib import Path

import numpy as np
import scipy.optimize

import gmreslab

# Package functions that get a span, as "<module>.<function>".  The three
# report writers share the span name "reporting.write".
SPANS = {
    "experiment.run_experiment": "experiment.run_experiment",
    "matrices.generate_matrix": "matrices.generate_matrix",
    "mmio.read_matrix_market": "mmio.read_matrix_market",
    "reporting.write_report_json": "reporting.write",
    "reporting.write_curves_csv": "reporting.write",
    "reporting.write_plot_svg": "reporting.write",
    "bounds.verify_chain": "bounds.verify_chain",
    "bounds.elman_bound": "bounds.elman_bound",
    "bounds.starke_bound": "bounds.starke_bound",
    "fov.fov_summary": "fov.fov_summary",
    "fov.fov_boundary": "fov.fov_boundary",
    "krylov.gmres_residuals": "krylov.gmres_residuals",
    "krylov.min_residual_values": "krylov.min_residual_values",
    "minimax.ideal_gmres": "minimax.ideal_gmres",
    "minimax.worst_case_gmres": "minimax.worst_case_gmres",
    "minimax.one_step_ideal": "minimax.one_step_ideal",
}
# Package functions that are only counted (no span), so their work stays
# attributed to the caller: nu_fov runs twice inside every fov_summary.
CALL_COUNTS = ("fov.nu_fov",)


def _package_modules():
    prefix = gmreslab.__name__ + "."
    return [gmreslab] + [
        mod for name, mod in sorted(sys.modules.items())
        if name.startswith(prefix) and mod is not None
    ]


class Tracer:
    """Spans and counts for one traced pass; install with ``with tracer:``."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved = []
        self.spans = []  # (name, thread, start, duration, child_s, counts)
        self.totals = defaultdict(float)

    # -- span stack --------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, key, amount):
        """Add to the innermost open span of this thread ("-" if none)."""
        stack = self._stack()
        if stack:
            counts = stack[-1][2]
            counts[key] = counts.get(key, 0) + amount
        else:
            with self._lock:
                self.totals["-." + key] += amount

    def _span(self, name, fn, caller_cols=False):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts = {}
            if caller_cols:
                cols = int(np.shape(args[1])[1])
                self._count("phi_cols", cols)
                counts["cols"] = cols
            stack = self._stack()
            frame = [name, 0.0, counts]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                record = (name, threading.get_ident(), start, duration,
                          frame[1], counts)
                with self._lock:
                    self.spans.append(record)
        return wrapper

    def _call_counter(self, name, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.totals[name + ".calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- counting wrappers for NumPy / SciPy -------------------------------

    def _eig(self, fn):
        @wraps(fn)
        def wrapper(a, *args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(a, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                matrices = int(np.prod(np.shape(a)[:-2], dtype=np.int64))
                self._count("eigensolves", matrices)
                with self._lock:
                    self.totals["dense_core.eigensolves"] += matrices
                    self.totals["dense_core.eigensolve_s"] += elapsed
        return wrapper

    def _linprog(self, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            self._count("lp_solves", 1)
            return fn(*args, **kwargs)
        return wrapper

    def _minimize(self, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            if str(kwargs.get("method", "")).lower() == "nelder-mead":
                self._count("nm_fevals", int(res.nfev))
            return res
        return wrapper

    # -- install / uninstall -----------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _replace(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self):
        for target, name in SPANS.items():
            module, func = target.split(".")
            original = getattr(getattr(gmreslab, module), func)
            self._replace_everywhere(
                original,
                self._span(name, original,
                           caller_cols=target == "krylov.min_residual_values"),
            )
        for target in CALL_COUNTS:
            module, func = target.split(".")
            original = getattr(getattr(gmreslab, module), func)
            self._replace_everywhere(original, self._call_counter(target, original))
        self._replace(np.linalg, "eigh", self._eig(np.linalg.eigh))
        self._replace(np.linalg, "eigvalsh", self._eig(np.linalg.eigvalsh))
        self._replace(scipy.optimize, "linprog", self._linprog(scipy.optimize.linprog))
        self._replace(scipy.optimize, "minimize", self._minimize(scipy.optimize.minimize))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        return False

    # -- results -----------------------------------------------------------

    def aggregate(self):
        """Per-span-name sums: ``s``, ``self_s``, ``calls`` and each count,
        plus the global totals, as one flat ``{"<name>.<quantity>": value}``."""
        out = defaultdict(float)
        for name, _thread, _start, duration, child_s, counts in self.spans:
            out[name + ".s"] += duration
            out[name + ".self_s"] += duration - child_s
            out[name + ".calls"] += 1
            for key, value in counts.items():
                out[f"{name}.{key}"] += value
        for key, value in self.totals.items():
            out[key] += value
        return dict(out)

    def write(self, path):
        """Write every finished span and the aggregate as JSON."""
        threads = {}
        spans = []
        for name, thread, start, duration, child_s, counts in self.spans:
            spans.append({
                "name": name,
                "thread": threads.setdefault(thread, len(threads)),
                "start": start,
                "s": duration,
                "self_s": duration - child_s,
                **counts,
            })
        spans.sort(key=lambda span: span["start"])
        doc = {"aggregate": self.aggregate(), "spans": spans}
        Path(path).write_text(json.dumps(doc, separators=(",", ":")))
