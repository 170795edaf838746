"""Span tracer for the traced benchmark run.

The ribbonband source is not instrumented.  Instead, `Tracer.install`
replaces every public function of each package module (plus the Sturm
kernel `jacobi._sturm_counts_batch`) with a wrapper that records a span:
name, start, end, parent span and operation id.  Modules bind imported
names locally (`from .jacobi import eigenvalues_batch`), so the wrapper is
written into every module attribute that holds the original function, not
only into the defining module; otherwise most calls would be missed.

Spans are kept in memory as flat columns and written by `Tracer.save`
once the run ends; per-name call counts, inclusive and self times are
summed as spans close.  Self time is a span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# Layer = package module.  The metric prefix drops the leading underscore,
# because metric names must start with a letter or digit.
LAYERS = ("cli", "bands", "_optimize", "jacobi", "asymptotics", "lattice", "oracle")

# Private entry points traced on top of the public functions.  The kernel is
# looked up as a module global by every caller, so one wrapper sees every
# (matrix, shift) Sturm evaluation.
EXTRA_TARGETS = {("jacobi", "_sturm_counts_batch"): "jacobi.sturm"}

REFINE = "optimize.refine_extremum"


def _layer_prefix(module_name: str) -> str:
    return module_name.lstrip("_")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# Work counters, read from the arguments of a finished call.

def _count_eigenvalues_batch(tracer, args, kwargs):
    params = _arg(args, kwargs, 0, "params")
    rows = int(np.size(_arg(args, kwargs, 1, "a_values")))
    indices = _arg(args, kwargs, 3, "indices")
    per_row = params.p if indices is None else int(np.size(indices))
    c = tracer.counts
    c["jacobi.eigenvalues_batch.rows"] += rows
    c["jacobi.eigenvalues_batch.eigs"] += rows * per_row
    if any(frame[1] == REFINE for frame in tracer.stack):
        c["optimize.nested_eigenvalues_batch"] += 1


def _count_eigenvalues(tracer, args, kwargs):
    tracer.counts["jacobi.eigenvalues.eigs"] += _arg(args, kwargs, 0, "J").p


def _count_sturm(tracer, args, kwargs):
    evals = int(np.size(_arg(args, kwargs, 2, "x")))
    p = int(np.shape(_arg(args, kwargs, 0, "diag"))[0])
    tracer.counts["jacobi.sturm.evals"] += evals
    tracer.counts["jacobi.sturm.ops_computed"] += evals * p


def _count_build_ribbon(tracer, args, kwargs):
    params = _arg(args, kwargs, 0, "params")
    tracer.counts["lattice.build_ribbon.rows"] += int(_arg(args, kwargs, 1, "L")) * params.p


def _count_dense_eig(tracer, args, kwargs):
    n = int(np.shape(_arg(args, kwargs, 0, "M"))[0])
    tracer.counts["oracle.dense_symmetric_eig.n3_sum"] += n**3


HOOKS = {
    "jacobi.eigenvalues_batch": _count_eigenvalues_batch,
    "jacobi.eigenvalues": _count_eigenvalues,
    "jacobi.sturm": _count_sturm,
    "lattice.build_ribbon": _count_build_ribbon,
    "oracle.dense_symmetric_eig": _count_dense_eig,
}


class Tracer:
    """Records spans of wrapped calls while `active` is set."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self.stack: list = []  # frames: [child_seconds, name, span_index]
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.col_name = array("l")
        self.col_start = array("d")
        self.col_end = array("d")
        self.col_parent = array("l")
        self.col_op = array("l")
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.traced: set[str] = set()
        self._patched: list = []

    # -- installation ---------------------------------------------------

    def install(self, package) -> None:
        """Wrap the targets in every module of `package` that binds them."""
        modules = [package]
        targets = {}  # id(original) -> (span name, original)
        for mod_name in LAYERS:
            mod = importlib.import_module(f"{package.__name__}.{mod_name}")
            modules.append(mod)
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = (f"{_layer_prefix(mod_name)}.{attr}", obj)
            for (owner, attr), span in EXTRA_TARGETS.items():
                if owner == mod_name and inspect.isfunction(getattr(mod, attr, None)):
                    obj = getattr(mod, attr)
                    targets[id(obj)] = (span, obj)
        wrappers = {key: self._wrap(span, fn) for key, (span, fn) in targets.items()}
        self.traced = {span for span, _ in targets.values()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._open(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, frame, t0, perf_counter())
            if hook is not None:
                hook(tracer, args, kwargs)
            return result

        return traced

    # -- span bookkeeping -----------------------------------------------

    def _open(self, name: str) -> list:
        stack = self.stack
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        index = len(self.col_start)
        self.col_name.append(nid)
        self.col_start.append(0.0)
        self.col_end.append(0.0)
        self.col_parent.append(stack[-1][2] if stack else -1)
        self.col_op.append(self.op_id)
        frame = [0.0, name, index]
        stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, t0: float, t1: float) -> None:
        stack = self.stack
        stack.pop()
        dur = t1 - t0
        self.col_start[frame[2]] = t0
        self.col_end[frame[2]] = t1
        self.calls[name] += 1
        self.incl[name] += dur
        self.self_s[name] += dur - frame[0]
        if stack:
            stack[-1][0] += dur

    # -- output ---------------------------------------------------------

    def save(self, path: str) -> None:
        """Write every span as columns: name (index into names), start and
        end (perf_counter seconds), parent (span index, -1 at the top) and
        op (operation id within the traced phase)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.col_name, dtype=np.int64),
            start=np.array(self.col_start),
            end=np.array(self.col_end),
            parent=np.array(self.col_parent, dtype=np.int64),
            op=np.array(self.col_op, dtype=np.int64),
        )

    def layer_self(self, layer: str) -> float:
        prefix = _layer_prefix(layer) + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, op_time_s: float, ops: int,
                      traced_ops_per_s: float, untraced_ops_per_s: float) -> dict:
    """The traced run's metrics: name -> (value, unit).

    A value is None when the function it measures no longer exists in the
    package, so that a deleted entry point reads as absent rather than 0.
    Shares are self time over `op_time_s`, the summed latency of the traced
    operations; `share.outside_spans` is the part of it no span covers.
    """
    t = tracer

    def calls(name):
        return t.calls[name] if name in t.traced else None

    def self_s(name):
        return t.self_s[name] if name in t.traced else None

    def incl(name):
        return t.incl[name] if name in t.traced else None

    def count(key, name):
        return t.counts[key] if name in t.traced else None

    def ratio(num, den, *names):
        if any(n not in t.traced for n in names):
            return None
        return _ratio(num, den)

    batch, sturm, eig = "jacobi.eigenvalues_batch", "jacobi.sturm", "jacobi.eigenvalues"
    eigs_total = t.counts[f"{batch}.eigs"] + t.counts[f"{eig}.eigs"]
    layer_shares = {
        f"share.{_layer_prefix(layer)}": (_ratio(t.layer_self(layer), op_time_s), "frac")
        for layer in LAYERS
    }
    covered = sum(t.layer_self(layer) for layer in LAYERS)
    out = {
        "cli.cmd_bands.s": (incl("cli.cmd_bands"), "s"),
        "cli.cmd_asymptotics.s": (incl("cli.cmd_asymptotics"), "s"),
        "cli.cmd_verify.s": (incl("cli.cmd_verify"), "s"),
        "cli.cmd_flatband.s": (incl("cli.cmd_flatband"), "s"),
        "cli.self_s": (t.layer_self("cli"), "s"),
        "cli.fmt15.calls": (calls("cli.fmt15"), "count"),
        "bands.band_interval.calls": (calls("bands.band_interval"), "count"),
        "bands.band_interval.self_s": (self_s("bands.band_interval"), "s"),
        "bands.spectrum_report.self_s": (self_s("bands.spectrum_report"), "s"),
        "optimize.refine_extremum.calls": (calls(REFINE), "count"),
        "optimize.refine_extremum.self_s": (self_s(REFINE), "s"),
        "optimize.evals_per_refine": (
            ratio(t.counts["optimize.nested_eigenvalues_batch"], t.calls[REFINE],
                  REFINE, batch), "count/call"),
        f"{batch}.calls": (calls(batch), "count"),
        f"{batch}.rows": (count(f"{batch}.rows", batch), "count"),
        f"{batch}.eigs": (count(f"{batch}.eigs", batch), "count"),
        f"{batch}.self_s": (self_s(batch), "s"),
        "jacobi.eigs_per_call": (
            ratio(t.counts[f"{batch}.eigs"], t.calls[batch], batch), "count/call"),
        f"{eig}.calls": (calls(eig), "count"),
        f"{eig}.self_s": (self_s(eig), "s"),
        f"{sturm}.evals": (count(f"{sturm}.evals", sturm), "count"),
        f"{sturm}.self_s": (self_s(sturm), "s"),
        f"{sturm}.evals_per_eig": (
            ratio(t.counts[f"{sturm}.evals"], eigs_total, sturm, batch, eig), "count/eig"),
        f"{sturm}.ops_computed": (count(f"{sturm}.ops_computed", sturm), "count"),
        "asymptotics.weak_field_edges.self_s": (self_s("asymptotics.weak_field_edges"), "s"),
        "asymptotics.strong_field.self_s": (self_s("asymptotics.strong_field"), "s"),
        "asymptotics.order_check.calls": (calls("asymptotics.order_check"), "count"),
        "lattice.build_ribbon.calls": (calls("lattice.build_ribbon"), "count"),
        "lattice.build_ribbon.rows": (count("lattice.build_ribbon.rows", "lattice.build_ribbon"), "count"),
        "lattice.build_ribbon.self_s": (self_s("lattice.build_ribbon"), "s"),
        "lattice.verify_flat_eigen.self_s": (self_s("lattice.verify_flat_eigen"), "s"),
        "oracle.dense_symmetric_eig.calls": (calls("oracle.dense_symmetric_eig"), "count"),
        "oracle.dense_symmetric_eig.n3_sum": (
            count("oracle.dense_symmetric_eig.n3_sum", "oracle.dense_symmetric_eig"), "count"),
        "oracle.dense_symmetric_eig.self_s": (self_s("oracle.dense_symmetric_eig"), "s"),
        "oracle.bloch_union_spectrum.self_s": (self_s("oracle.bloch_union_spectrum"), "s"),
        "oracle.compare_multisets.self_s": (self_s("oracle.compare_multisets"), "s"),
        **layer_shares,
        "share.jacobi.sturm": (
            _ratio(t.self_s[sturm], op_time_s) if sturm in t.traced else None, "frac"),
        "share.refine_incl": (
            _ratio(t.incl[REFINE], op_time_s) if REFINE in t.traced else None, "frac"),
        "share.outside_spans": (_ratio(op_time_s - covered, op_time_s), "frac"),
        "trace.op_time_s": (op_time_s, "s"),
        "trace.ops": (ops, "count"),
        "trace.ops_per_s": (traced_ops_per_s, "1/s"),
        "trace.untraced_ops_per_s": (untraced_ops_per_s, "1/s"),
        "trace.overhead_frac": (_ratio(untraced_ops_per_s, traced_ops_per_s) - 1.0, "frac"),
    }
    return out
