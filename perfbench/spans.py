"""Spans around calls into latticeops, recorded from outside the library.

``Tracer.installed()`` wraps the public functions and methods listed in
``TARGETS``.  A function is replaced at every lookup site: in every
``latticeops`` module (and the package itself) whose attribute *is* the
original, so ``characterize.dx`` is wrapped along with ``operators.dx``.
Every original is put back on exit, also when the traced code raised.

Spans (name, start, end, parent) are kept in flat arrays while tracing runs
and written out by ``Tracer.dump`` afterwards.  Self time is a span's
duration minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
import weakref
from array import array
from collections import Counter, defaultdict

# (span name, module, attribute, class name or None).  Methods are patched on
# their class, module-level functions at every module that holds them.
TARGETS = (
    ("lattice.build", "latticeops.lattice", "__init__", "Lattice"),
    ("polynomials.mul", "latticeops.polynomials", "__mul__", "Polynomial"),
    ("polynomials.interpolate", "latticeops.polynomials", "interpolate", None),
    ("operators.dx", "latticeops.operators", "dx", None),
    ("operators.sx", "latticeops.operators", "sx", None),
    ("operators.monomial", "latticeops.operators", "dx_monomial", None),
    ("operators.monomial", "latticeops.operators", "sx_monomial", None),
    ("operators.interp", "latticeops.operators", "dx_interp", None),
    ("operators.interp", "latticeops.operators", "sx_interp", None),
    ("operators.tnk", "latticeops.operators", "tnk", None),
    ("operators.verify_identity", "latticeops.operators", "verify_operator_identity", None),
    ("functionals.moments", "latticeops.functionals", "moments", "MomentFunctional"),
    ("functionals.ttrr_oracle", "latticeops.functionals", "ttrr_oracle", None),
    ("functionals.opsequence", "latticeops.functionals", "p", "OPSequence"),
    ("functionals.verify_identity", "latticeops.functionals", "verify_functional_identity", None),
    ("classical.regularity", "latticeops.classical", "regularity", None),
    ("classical.ttrr_closed", "latticeops.classical", "ttrr_from_pearson", None),
    ("classical.rodrigues", "latticeops.classical", "rodrigues_verify", None),
    ("characterize.check_structure", "latticeops.characterize", "check_structure", None),
    ("characterize.check_system", "latticeops.characterize", "check_system", None),
    ("characterize.meixner", "latticeops.characterize", "check_meixner_linear", None),
    ("cli.battery", "latticeops.cli", "main", None),
)

SPAN_NAMES = tuple(dict.fromkeys(t[0] for t in TARGETS))


def library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "latticeops" or name.startswith("latticeops."))]


def lookup_sites(original):
    """Every (namespace, attribute) of latticeops that holds ``original``."""
    sites = []
    for mod in library_modules():
        spaces = [mod]
        spaces += [v for v in vars(mod).values()
                   if isinstance(v, type) and v.__module__ == mod.__name__]
        for space in spaces:
            for attr, value in list(vars(space).items()):
                if value is original:
                    sites.append((space, attr))
    return sites


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self._stack: list = []
        self.counts: Counter = Counter()
        # (lattice -> set of (kind, n)) for the monomial-image reuse ratio;
        # weak keys, so lattices built per job are not kept alive.
        self._monomials = weakref.WeakKeyDictionary()
        self._patched: list = []

    # -- recording --------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, result, exc)``
        runs outside the span to update counters."""
        nid = self._intern(name)
        start, end, names, parent, stack = (
            self.start, self.end, self.name, self.parent, self._stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end[idx] = clock()
                stack.pop()
                if after is not None:
                    after(args, result, exc)

        traced.__wrapped_original__ = fn
        return traced

    # -- counters taken at the same boundaries --------------------------------

    def _after_monomial(self, kind):
        def after(args, result, exc):
            lat, n = args[0], args[1]
            seen = self._monomials.setdefault(lat, set())
            if (kind, n) not in seen:
                seen.add((kind, n))
                self.counts["operators.monomial.distinct"] += 1
        return after

    def _after_moments(self, args, result, exc):
        if exc is None:
            self.counts["functionals.moments.built"] += len(result)

    def _after_oracle(self, args, result, exc):
        if exc is None:
            self.counts["functionals.ttrr_oracle.levels"] += args[1] + 1
        elif hasattr(exc, "level"):
            self.counts["functionals.ttrr_oracle.levels"] += exc.level

    def _after_closed(self, args, result, exc):
        # The closed route is lazy: its cost is paid when B_n and C_n are
        # read, so the returned coefficient functions are traced as well.
        if exc is None:
            result.b_fn = self.wrap("classical.ttrr_closed", result.b_fn)
            result.c_fn = self.wrap("classical.ttrr_closed", result.c_fn)

    def _after(self, attr):
        return {
            "dx_monomial": self._after_monomial("dx"),
            "sx_monomial": self._after_monomial("sx"),
            "moments": self._after_moments,
            "ttrr_oracle": self._after_oracle,
            "ttrr_from_pearson": self._after_closed,
        }.get(attr)

    # -- installing -----------------------------------------------------------

    def install(self):
        for name, modname, attr, clsname in TARGETS:
            mod = importlib.import_module(modname)
            owner = getattr(mod, clsname) if clsname else mod
            original = vars(owner)[attr]
            wrapper = self.wrap(name, original, self._after(attr))
            for space, site in lookup_sites(original):
                self._patched.append((space, site, original))
                setattr(space, site, wrapper)

    def uninstall(self):
        while self._patched:
            space, site, original = self._patched.pop()
            setattr(space, site, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading ----------------------------------------------------------------

    def summary(self):
        """Per span name: calls, self time and total time, in seconds; and the
        time covered by top-level spans.

        Total time counts a span unless an ancestor has the same name, so
        nested calls of one layer are not counted twice.
        """
        n = len(self.start)
        names, parent = self.name, self.parent
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        root_ns = 0
        for i in range(n):
            row = out[self.names[names[i]]]
            row["calls"] += 1
            row["self_s"] += (dur[i] - child[i]) / 1e9
            p = parent[i]
            while p >= 0 and names[p] != names[i]:
                p = parent[p]
            if p < 0:
                row["total_s"] += dur[i] / 1e9
            if parent[i] < 0:
                root_ns += dur[i]
        return dict(out), root_ns / 1e9

    def dump(self, path: str) -> None:
        """Write the spans as one JSON header line, then one line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "counts": dict(self.counts),
                                 "fields": ["name", "start_ns", "end_ns", "parent"]}))
            fh.write("\n")
            for i in range(len(self.start)):
                fh.write(f"{self.name[i]}\t{self.start[i]}\t{self.end[i]}\t{self.parent[i]}\n")

