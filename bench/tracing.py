"""Span tracing of tiso's layer entry points, installed from outside.

`Tracer.install` replaces each traced function in its defining module and in
every loaded ``tiso`` module that imported it by name (``from .matgf import
rref``), and patches ``FieldOps`` methods on the class.  Each call records a
span: name, start, end, parent span, solve id, and up to two work counts
taken from the call's arguments or result.  Spans are kept in flat arrays in
memory and summarized (and optionally saved) when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

STEPS = ("step1", "step2", "step3", "step4", "step5", "step6")


def _rref_cells(args, kwargs, result):
    M = args[1]
    return M.shape[0] * M.shape[1], 0


def _kernel_cells(args, kwargs, result):
    A = args[0]
    _, right, left = result
    return len(left) * A.rows, len(right) * A.cols


def _madds(args, kwargs, result):
    A, B = args[1], args[2]
    return A.shape[0] * A.shape[1] * B.shape[-1], 0


def _conjugate(args, kwargs, result):
    return int(result.kind == "Conjugate"), 0


def _hull_dim1(args, kwargs, result):
    return int(result.dim == 1), 0


def _eig_pass(args, kwargs, result):
    return int(result is not None), 0


def _decided(args, kwargs, result):
    return int(bool(result[1])), 0


def _solve_exit(args, kwargs, result):
    verdict, trace = result
    last = trace.entries[-1]["stage"] if trace.entries else ""
    step = STEPS.index(last) + 1 if last in STEPS else 0
    return step, int(verdict.kind == "Failure")


# (span name, module, attribute, work counter or None); FieldOps methods are
# given as "FieldOps.method" and patched on the class
TARGETS = (
    ("solvers.solve", "tiso.solvers", "solve", _solve_exit),
    ("codes.code_from_slices", "tiso.codes", "code_from_slices", None),
    ("codes.hull", "tiso.codes", "hull", _hull_dim1),
    ("conj.conj_coset", "tiso.conj", "conj_coset", _conjugate),
    ("conj.intertwiner_space", "tiso.conj", "intertwiner_space", None),
    ("conj.centralizer_is_scalars", "tiso.conj", "centralizer_is_scalars", None),
    ("conj.conj_with_seed", "tiso.conj", "conj_with_seed", _decided),
    ("tensor.verify_witness", "tiso.tensor", "verify_witness", None),
    ("matgf.rref", "tiso.matgf", "rref", _rref_cells),
    ("matgf.rref_rank_kernel", "tiso.matgf", "rref_rank_kernel", _kernel_cells),
    ("matgf.solve_linear", "tiso.matgf", "solve_linear", None),
    ("matgf.inverse_det", "tiso.matgf", "inverse_det", None),
    ("matgf.charpoly", "tiso.matgf", "charpoly", None),
    ("matgf.unique_simple_eigenvalue", "tiso.matgf", "unique_simple_eigenvalue",
     _eig_pass),
    ("poly.powmod", "tiso.poly", "powmod", None),
    ("poly.roots_in_Fq", "tiso.poly", "roots_in_Fq", None),
    ("gf.matmul", "tiso.gf", "FieldOps.matmul", _madds),
    ("gf.elementwise", "tiso.gf", "FieldOps.add", None),
    ("gf.elementwise", "tiso.gf", "FieldOps.sub", None),
    ("gf.elementwise", "tiso.gf", "FieldOps.mul", None),
    ("gf.elementwise", "tiso.gf", "FieldOps.neg", None),
)
NAMES = tuple(dict.fromkeys(t[0] for t in TARGETS))


class TracingError(RuntimeError):
    pass


class Tracer:
    """Collects spans while installed; `solve_id` tags spans with the solve
    they belong to."""

    def __init__(self):
        self.name = array("b")
        self.parent = array("q")
        self.solve = array("q")
        self.start = array("q")
        self.end = array("q")
        self.w1 = array("q")
        self.w2 = array("q")
        self.solve_id = -1
        self.active = True
        self._stack = []
        self._undo = []

    def start_solve(self, solve_id):
        self.solve_id = solve_id

    @contextmanager
    def paused(self):
        """Calls made inside run unrecorded, e.g. the benchmark's own checks."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- installation -------------------------------------------------------

    def _wrap(self, idx, fn, counter):
        clock = time.perf_counter_ns
        stack = self._stack
        name, parent, solve, start, end, w1, w2 = (
            self.name, self.parent, self.solve, self.start, self.end, self.w1, self.w2)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(start)
            name.append(idx)
            parent.append(stack[-1] if stack else -1)
            solve.append(tracer.solve_id)
            end.append(0)
            w1.append(0)
            w2.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if counter is not None:
                w1[sid], w2[sid] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self):
        """Wrap every target; raise TracingError if one is missing or if an
        alias of an original survives in a loaded tiso module."""
        if self._undo:
            raise TracingError("tracer already installed")
        originals = {}
        for span, modname, attr, counter in TARGETS:
            mod = importlib.import_module(modname)
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            fn = owner.__dict__.get(meth) if owner_name else getattr(mod, meth, None)
            if fn is None:
                raise TracingError(f"{modname}.{attr} is missing; span {span} "
                                   "would be dropped")
            wrapped = self._wrap(NAMES.index(span), fn, counter)
            self._set(owner, meth, wrapped)
            if not owner_name:
                originals[id(fn)] = (fn, wrapped)
        for mod in self._tiso_modules():
            for key, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(mod, key, hit[1])
        for mod in self._tiso_modules():
            for key, val in vars(mod).items():
                if id(val) in originals and originals[id(val)][0] is val:
                    raise TracingError(f"{mod.__name__}.{key} still unwrapped")

    @staticmethod
    def _tiso_modules():
        return [m for k, m in list(sys.modules.items())
                if (k == "tiso" or k.startswith("tiso.")) and m is not None]

    def _set(self, owner, key, value):
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict:
        if self._stack:
            raise TracingError("spans still open")
        return {k: np.frombuffer(getattr(self, k), dtype=np.int64 if k != "name" else np.int8)
                for k in ("name", "parent", "solve", "start", "end", "w1", "w2")}

    def save(self, path):
        np.savez_compressed(path, names=np.array(NAMES), **self.arrays())


def self_times_ns(sp: dict) -> np.ndarray:
    """Span duration minus the durations of its direct child spans."""
    dur = sp["end"] - sp["start"]
    has_parent = sp["parent"] >= 0
    child = np.bincount(sp["parent"][has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    return dur - child


def layer_metrics(sp: dict, solves: int) -> dict:
    """Per-layer metrics per solve, as {name: (value, unit)}."""
    own = self_times_ns(sp)
    out = {}
    per = 1.0 / solves

    def pick(span):
        return sp["name"] == NAMES.index(span)

    def calls(span):
        return int(pick(span).sum())

    def ratio(span):
        c = calls(span)
        return float(sp["w1"][pick(span)].sum()) / c if c else 0.0

    for span in NAMES:
        m = pick(span)
        if span != "solvers.solve":
            out[f"{span}.calls"] = (calls(span) * per, "count/solve")
        out[f"{span}.self_ms"] = (float(own[m].sum()) / 1e6 * per, "ms/solve")
    out["matgf.rref.cells"] = (float(sp["w1"][pick("matgf.rref")].sum()) * per,
                               "cells/solve")
    k = pick("matgf.rref_rank_kernel")
    out["matgf.rref_rank_kernel.left_cells"] = (float(sp["w1"][k].sum()) * per,
                                                "cells/solve")
    out["matgf.rref_rank_kernel.right_cells"] = (float(sp["w2"][k].sum()) * per,
                                                 "cells/solve")
    out["gf.matmul.madds"] = (float(sp["w1"][pick("gf.matmul")].sum()) * per,
                              "madds/solve")
    out["conj.conj_coset.conjugate_ratio"] = (ratio("conj.conj_coset"), "ratio")
    out["codes.hull.dim1_ratio"] = (ratio("codes.hull"), "ratio")
    out["matgf.unique_simple_eigenvalue.pass_ratio"] = (
        ratio("matgf.unique_simple_eigenvalue"), "ratio")
    out["conj.conj_with_seed.decided_ratio"] = (ratio("conj.conj_with_seed"),
                                                "ratio")
    s = pick("solvers.solve")
    exits = sp["w1"][s]
    for i, step in enumerate(STEPS, 1):
        out[f"solvers.exit.{step}"] = (float((exits == i).sum()) * per, "ratio")
    out["solvers.failure_verdict_ratio"] = (float(sp["w2"][s].sum()) * per, "ratio")
    return out


def span_counts(sp: dict) -> dict:
    counts = np.bincount(sp["name"], minlength=len(NAMES))
    return dict(zip(NAMES, counts.tolist()))


def _outermost(sp: dict, group: np.ndarray) -> np.ndarray:
    """Spans with no ancestor in the same group, so nested time counts once."""
    parent = sp["parent"]
    keep = np.ones(len(parent), dtype=bool)
    anc = parent.copy()
    while (anc >= 0).any():
        live = anc >= 0
        keep[live] &= group[anc[live]] != group[live]
        anc[live] = parent[anc[live]]
    return keep


def report(sp: dict, labels: list) -> list:
    """Human-readable lines: the share of traced solve time spent under each
    module, and per instance kind the solve time, the three entry points
    most time is spent under, and the kernel basis sizes."""
    dur = sp["end"] - sp["start"]
    name = sp["name"]
    solve = name == NAMES.index("solvers.solve")
    mods = [n.split(".")[0] for n in NAMES]
    mod_of = np.array([list(dict.fromkeys(mods)).index(m) for m in mods])[name]
    top = _outermost(sp, mod_of)
    total = dur[solve].sum()
    lines = [f"under {mod}: {dur[top & (mod_of == k)].sum() / total:.1%} of traced solve time"
             for k, mod in enumerate(dict.fromkeys(mods)) if mod != "solvers"]
    outer = _outermost(sp, name)
    kernel = name == NAMES.index("matgf.rref_rank_kernel")
    labels = np.array(labels)
    for label in dict.fromkeys(labels.tolist()):
        ids = np.nonzero(labels == label)[0]
        mine = np.isin(sp["solve"], ids)
        kind_total = dur[solve & mine].sum()
        under = sorted(((dur[outer & mine & (name == k)].sum() / kind_total, n)
                        for k, n in enumerate(NAMES) if n != "solvers.solve"),
                       reverse=True)[:3]
        lines.append(
            f"kind {label}: {len(ids)} solves, {kind_total / len(ids) / 1e6:.1f} ms/solve "
            f"traced; under " + ", ".join(f"{n} {f:.0%}" for f, n in under)
            + f"; rref_rank_kernel left_cells {sp['w1'][kernel & mine].sum() / len(ids):.3g}"
            f"/solve, right_cells {sp['w2'][kernel & mine].sum() / len(ids):.3g}/solve")
    return lines
