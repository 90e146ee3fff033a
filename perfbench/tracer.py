"""Outside-in span tracer for the shiftlog layers.

The tracer times calls into every public function of the ten layer modules
without editing the package.  ``Tracer.install`` rebinds each function's
name, in every ``shiftlog.*`` namespace that holds it, to a wrapper that
records one span per call: function, parent span, matrix size ``n``, start,
end and whether an exception escaped.  Modules import each other by name
(``from .matfun import expm``), so every binding has to be replaced, not only
the one in the defining module.

Spans live in flat arrays while the run lasts and are written out when it
ends.  Self time is a span's duration minus the durations of its direct
children; calls run on one thread, so children never overlap.

Importing this module patches nothing.  ``check_unpatched`` is what the
untraced workload process calls to prove it runs the package as shipped.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array

LAYERS = ("linalg", "matfun", "evolution", "logrep", "bch", "unbounded",
          "sampling", "campaigns", "report", "cli")

# Matrix sizes broken out for the two kernels whose cost grows with n.
SIZE_SPLIT = ("matfun.expm", "evolution.propagate")


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "shiftlog" or name.startswith("shiftlog."))]


def public_functions():
    """``[(qualified name, function)]`` for the public functions each layer defines."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"shiftlog.{layer}"]
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out.append((f"{layer}.{name}", obj))
    return out


def check_unpatched() -> int:
    """Raise unless every function bound in a ``shiftlog`` namespace is the
    object its defining module holds under its own name and carries no
    wrapper.  Returns the number of public layer functions checked."""
    for mod in _package_modules():
        for name, obj in vars(mod).items():
            if not inspect.isfunction(obj) or not obj.__module__.startswith("shiftlog"):
                continue
            home = sys.modules.get(obj.__module__)
            if hasattr(obj, "__wrapped__") or getattr(home, obj.__name__, None) is not obj:
                raise RuntimeError(f"{mod.__name__}.{name} is not the shipped function")
    return len(public_functions())


def _matrix_size(args) -> int:
    """n of the first argument: a matrix, a generator (``dim``) or an operator (``U``)."""
    if not args:
        return 0
    a = args[0]
    shape = getattr(a, "shape", None)
    if shape is None:
        dim = getattr(a, "dim", None)
        if isinstance(dim, int):
            return dim
        shape = getattr(getattr(a, "U", None), "shape", None)
    return int(shape[0]) if shape is not None and len(shape) == 2 else 0


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.size = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        # propagate only: step count and 1 for magnus2, 0 for rk4
        self.steps = array("i")
        self.magnus = array("b")
        self._stack = [-1]

    def install(self) -> int:
        """Wrap every public layer function in every namespace; returns bindings replaced."""
        wrappers = {}
        for qual, fn in public_functions():
            self.names.append(qual)
            wrappers[id(fn)] = self._wrap(len(self.names) - 1, fn, qual == "evolution.propagate")
        replaced = 0
        for mod in _package_modules():
            hits = [(name, obj) for name, obj in vars(mod).items() if id(obj) in wrappers]
            for name, obj in hits:
                setattr(mod, name, wrappers[id(obj)])
                replaced += 1
        return replaced

    def _wrap(self, fid: int, fn, is_propagate: bool):
        fids, parents, sizes = self.fid, self.parent, self.size
        starts, ends, errors = self.start, self.end, self.error
        steps, magnus, stack = self.steps, self.magnus, self._stack
        clock = time.perf_counter
        signature = inspect.signature(fn) if is_propagate else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            sizes.append(_matrix_size(args))
            errors.append(0)
            if signature is None:
                steps.append(0)
                magnus.append(0)
            else:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                steps.append(int(bound.arguments["steps"]))
                magnus.append(bound.arguments["stepper"] == "magnus2")
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            starts[sid] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[sid] = 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()

        return span

    def span_count(self) -> int:
        return len(self.fid)

    def layer_metrics(self, lo: int, hi: int, wall_s: float) -> dict:
        """Per-layer metrics of the spans ``[lo, hi)`` recorded during one pass
        whose wall time (measured around the outermost call) is ``wall_s``."""
        import numpy as np

        count = hi - lo
        nf = len(self.names)
        fid = np.frombuffer(self.fid, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        size = np.frombuffer(self.size, dtype=np.int32)[lo:hi]
        err = np.frombuffer(self.error, dtype=np.int8)[lo:hi].astype(float)
        steps = np.frombuffer(self.steps, dtype=np.int32)[lo:hi].astype(float)
        magnus = np.frombuffer(self.magnus, dtype=np.int8)[lo:hi].astype(bool)
        dur = (np.frombuffer(self.end, dtype=np.float64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.float64)[lo:hi])
        top = parent < 0
        local_parent = np.where(top, 0, parent - lo + 1)
        child_time = np.bincount(local_parent, weights=dur, minlength=count + 1)[1:]
        self_s = dur - child_time
        ident = {name: i for i, name in enumerate(self.names)}

        m = {}
        calls = np.bincount(fid, minlength=nf)
        fn_self = np.bincount(fid, weights=self_s, minlength=nf)
        fn_err = np.bincount(fid, weights=err, minlength=nf)
        fn_incl = np.bincount(fid, weights=dur, minlength=nf)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, name in enumerate(self.names):
            m[f"{name}.calls"] = int(calls[i])
            m[f"{name}.self_s"] = float(fn_self[i])
            m[f"{name}.errors"] = int(fn_err[i])
            layer_self[name.split(".")[0]] += float(fn_self[i])
        for layer, value in layer_self.items():
            m[f"{layer}.self_s"] = value
        for name in SIZE_SPLIT:
            sel = fid == ident[name]
            for n in np.unique(size[sel]):
                m[f"{name}.n{n}.self_s"] = float(self_s[sel & (size == n)].sum())

        parent_fid = np.where(top, -1, fid[local_parent - 1])

        def children(child: str, of: str) -> int:
            return int(np.count_nonzero((fid == ident[child]) & (parent_fid == ident[of])))

        def ratio(num: float, den: float) -> float:
            return float(num) / float(den) if den else 0.0

        m["matfun.logm_contour.solves_per_call"] = ratio(
            children("linalg.solve", "matfun.logm_contour"), calls[ident["matfun.logm_contour"]])
        m["matfun.logm_iss.sqrt_per_call"] = ratio(
            children("matfun.sqrtm_db", "matfun.logm_iss"), calls[ident["matfun.logm_iss"]])
        m["matfun.sqrtm_db.solves_per_call"] = ratio(
            children("linalg.solve", "matfun.sqrtm_db"), calls[ident["matfun.sqrtm_db"]])
        m["sampling.rand_log_admissible.accept_ratio"] = ratio(
            calls[ident["sampling.rand_log_admissible"]],
            children("matfun.expm", "sampling.rand_log_admissible"))
        prop = fid == ident["evolution.propagate"]
        m["evolution.propagate.rk4.steps"] = int(steps[prop & ~magnus].sum())
        magnus2_steps = steps[prop & magnus].sum()
        m["evolution.propagate.magnus2.steps"] = int(magnus2_steps)
        parent_is_magnus2 = np.where(top, False, (prop & magnus)[local_parent - 1])
        m["evolution.propagate.magnus2.expm_per_step"] = ratio(
            np.count_nonzero((fid == ident["matfun.expm"]) & parent_is_magnus2), magnus2_steps)
        for name in self.names:
            if name.startswith("campaigns.suite_"):
                m[f"{name}.s"] = float(fn_incl[ident[name]])
        m["untraced.self_s"] = float(wall_s - dur[top].sum())
        m["spans"] = count
        return m

    def write_spans(self, path: str) -> None:
        """Write every span as gzip'd TSV: id, name, parent, n, start, end, error."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id\tname\tparent\tn\tstart\tend\terror\n")
            names = self.names
            for i in range(len(self.fid)):
                fh.write(f"{i}\t{names[self.fid[i]]}\t{self.parent[i]}\t{self.size[i]}\t"
                         f"{self.start[i]!r}\t{self.end[i]!r}\t{self.error[i]}\n")
