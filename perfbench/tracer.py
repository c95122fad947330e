"""Outside-in tracer: spans around the public functions of each module.

The program is not edited.  `Tracer.install()` replaces each traced
function with a wrapper at every module binding that refers to it (names
taken with `from .x import y` are separate bindings), and wraps the
traced classes' methods at class level.  Spans live in flat arrays in
memory and are written once, when the run ends.

A traced name the program no longer has is reported as absent.
"""

import contextlib
import functools
import math
import sys
import time
from array import array

# Module-relative names; a class stands for its constructor.
TRACED = (
    "cli.run",
    "fixtures.load_fixture",
    "report.render",
    "toric.compute_box",
    "rational.rref",
    "rings.SectorAlgebra",
    "deform.DeformationRing",
    "deform.DeformationRing.recip_gamma",
    "kernels.recip_gamma_series",
    "series.enumerate_terms",
    "series.term_value",
    "series.evaluate_gamma",
    "series.evaluate_gamma_dual",
    "dual.build_compact_module",
    "wall.WallContext",
    "wall.monomial_basis",
    "wall.fm_transform",
    "wall.ac_transform",
    "wall.make_integrand",
    "wall.mb_contour_oracle",
    "wall.continued_vector",
    "wall.orbit_sum",
    "wall.residue_at",
    "wall.left_residue_sum",
)

INTEGRAND = "wall.integrand"
PACKAGE = "gkzflop"


class Tracer:
    """Span recorder; spans of one job share the job id."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.parent = array("q")
        self.name = array("q")
        self.job = array("q")
        self.start = array("d")
        self.end = array("d")
        self.algebra_keys = []      # (fixture, triangulation, sector) per build
        self.absent = []
        self._stack = []
        self._job = -1
        self._patches = []

    # -- recording ------------------------------------------------------

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.job.append(self._job)
        self.end.append(math.nan)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def job_span(self, job_id, label):
        """Root span of one job; the job's work runs inside `with`."""
        self._job = job_id
        sid = self.open(self.name_id(label))
        try:
            yield
        finally:
            self.close(sid)

    def wrap(self, fn, name, after=None):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            return out if after is None else after(out)
        return traced

    # -- installation ---------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_bindings(self, original, wrapped):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or
                                   mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapped)

    def install(self):
        for qualname in TRACED:
            mod_name, *path = qualname.split(".")
            owner = sys.modules.get(f"{PACKAGE}.{mod_name}")
            target = owner
            for attr in path:
                owner, target = target, getattr(target, attr, None)
                if target is None:
                    break
            if target is None:
                self.absent.append(qualname)
            elif isinstance(target, type):
                self._patch(target, "__init__",
                            self._constructor(target, qualname))
            elif isinstance(owner, type):
                self._patch(owner, path[-1], self.wrap(target, qualname))
            else:
                self._patch_bindings(target, self._function(target, qualname))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def _function(self, fn, qualname):
        if qualname != "wall.make_integrand":
            return self.wrap(fn, qualname)

        def integrand(f):
            # mb_contour_oracle reads these attributes off the closure.
            g = self.wrap(f, INTEGRAND)
            g.decay, g.arg_y = f.decay, f.arg_y
            return g
        return self.wrap(fn, qualname, after=integrand)

    def _constructor(self, cls, qualname):
        init = self.wrap(cls.__init__, qualname)
        if qualname != "rings.SectorAlgebra":
            return init

        @functools.wraps(init)
        def keyed(obj, *args, **kwargs):
            self.algebra_keys.append(repr(args) + repr(sorted(kwargs.items())))
            return init(obj, *args, **kwargs)
        return keyed

    # -- results --------------------------------------------------------

    @staticmethod
    def span_cost_s():
        """Seconds one span adds: a traced call of a no-op minus a bare one.

        Measured on a fresh tracer, so the spans of the run are untouched.
        """
        def noop():
            pass

        calls = 20000

        def best(fn):
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn()
                times.append(time.perf_counter() - t0)
            return min(times) / calls

        return max(best(Tracer().wrap(noop, "noop")) - best(noop), 0.0)

    def aggregate(self):
        """{name: {calls, s, self_s}}: s inclusive, self_s minus children."""
        child = [0.0] * len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        for sid, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[sid]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0}
               for name in self.names}
        for sid, nid in enumerate(self.name):
            agg = out[self.names[nid]]
            agg["calls"] += 1
            agg["s"] += dur[sid]
            agg["self_s"] += dur[sid] - child[sid]
        return out

    def calls_under(self, name, parent_name):
        """Spans of `name` whose direct parent is a `parent_name` span."""
        nid, pid = self._ids.get(name), self._ids.get(parent_name)
        return sum(1 for sid, p in enumerate(self.parent)
                   if self.name[sid] == nid and p >= 0
                   and self.name[p] == pid)

    def save(self, path):
        import numpy as np
        np.savez(path, names=np.array(self.names),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 name=np.frombuffer(self.name, dtype=np.int64),
                 job=np.frombuffer(self.job, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))

