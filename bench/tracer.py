"""Spans at the seams between kdvorbits layers, recorded from outside the package.

Nothing under ``src/`` is edited.  ``install`` rebinds names in the
layer modules' namespaces:

* a public function (or ``lru_cache`` wrapper) that one layer imports
  from another is wrapped where it is imported, so ``orbits.wp_inverse``
  opens a ``weierstrass`` span while calls inside ``weierstrass`` itself
  stay unwrapped;
* public methods and ``__call__`` of a class that another layer imports
  (``profiles.Profile``) are wrapped on the class;
* ``brentq`` and ``solve_ivp`` where a layer imports them are wrapped to
  count function evaluations (``<layer>.root_fevals``) and right-hand
  side evaluations (``<layer>.ode_nfev``) for that layer.

The benchmark wraps the entry points it calls itself with ``span``.

Spans are aggregated in memory per (parent, function) and written out
with the child's result.  A layer's self time is its spans' time minus
the time covered by the spans they opened.  Calls through private names
(``orbits`` and ``weierstrass`` reach ``elliptic`` only through
``_jacobi_*``; ``cli`` reaches ``bands._floquet_traces``) open no span,
so that time is charged to the caller.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "orbits", "weierstrass", "elliptic", "profiles", "shoaling",
          "bands", "hill", "virasoro", "asymptotics")

_PACKAGE = "kdvorbits."


def _layer_of(obj):
    module = getattr(obj, "__module__", None) or ""
    name = module[len(_PACKAGE):] if module.startswith(_PACKAGE) else None
    return name if name in LAYERS else None


class Tracer:
    """Collects calls, self time and counters per layer for one process."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.functions = Counter()
        self.edges = defaultdict(lambda: [0, 0.0])  # (parent, fn) -> [calls, s]
        self.top_s = 0.0  # time inside outermost spans
        self._stack = []  # [qualified name, time covered by child spans]

    def span(self, layer: str, name: str, fn):
        """``fn`` wrapped so each call records one ``layer`` span."""
        qualified = f"{layer}.{name}"
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [qualified, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.calls[layer] += 1
                self.functions[qualified] += 1
                self.self_s[layer] += elapsed - frame[1]
                parent = stack[-1][0] if stack else "bench"
                edge = self.edges[(parent, qualified)]
                edge[0] += 1
                edge[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.top_s += elapsed

        return wrapper

    def _root_counter(self, layer: str, brentq):
        key = f"{layer}.root_fevals"

        @functools.wraps(brentq)
        def counted(f, *args, **kwargs):
            def g(x, *fargs):
                self.counts[key] += 1
                return f(x, *fargs)
            return brentq(g, *args, **kwargs)

        return counted

    def _ode_counter(self, layer: str, solve_ivp):
        key = f"{layer}.ode_nfev"

        @functools.wraps(solve_ivp)
        def counted(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            self.counts[key] += int(sol.nfev)
            return sol

        return counted

    def _wrap_class(self, cls, done: set) -> None:
        if cls in done:
            return
        done.add(cls)
        layer = _layer_of(cls)
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(value, (classmethod, staticmethod)):
                kind = type(value)
                setattr(cls, attr, kind(self.span(layer, name, value.__func__)))
            elif callable(value) and not isinstance(value, type):
                setattr(cls, attr, self.span(layer, name, value))

    def install(self, modules: dict) -> None:
        """Wrap every cross-layer seam of ``modules`` ({layer: module})."""
        done: set = set()
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr == "brentq":
                    setattr(module, attr, self._root_counter(layer, value))
                    continue
                if attr == "solve_ivp":
                    setattr(module, attr, self._ode_counter(layer, value))
                    continue
                owner = _layer_of(value)
                if attr.startswith("_") or owner is None or owner == layer:
                    continue
                if isinstance(value, type):
                    if not issubclass(value, BaseException):
                        self._wrap_class(value, done)
                elif callable(value):
                    setattr(module, attr, self.span(owner, attr, value))

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "functions": dict(self.functions),
            "spans": [[parent, fn, n, s]
                      for (parent, fn), (n, s) in sorted(self.edges.items())],
            "top_s": self.top_s,
        }
