"""Outside-in tracing of the cantordyn layers for the benchmark's traced run.

``Tracer.install()`` replaces every public function of every ``cantordyn.*``
module with a timing wrapper, and rebinds it in each module that imported it
by name (``from .measures import pushforward`` binds a second reference that
would otherwise bypass the wrapper).  The two ``CommonSupportScanner`` methods
are wrapped on the class.  ``cantordyn.cantor`` and ``PrefixTableMap.apply``
are left alone: they run 10^5-10^6 times per workload and their time stays in
the caller's self time.

Each wrapper records calls, span time, self time (span time minus the time of
the spans it encloses) and exceptions raised through it.  Next to the spans
it keeps exact counters: Prohorov calls by the backend in the returned
result, distinct inputs of ``prohorov`` and ``pushforward``, and the
periodicity mechanism that certified each distance profile.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "cantordyn"
UNTRACED_MODULES = ("cantordyn.cantor", "cantordyn.errors")


class Span:
    """Aggregate of every call of one wrapped function."""

    __slots__ = ("calls", "self_s", "errors")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.counters: Counter = Counter()
        self.distinct: dict[str, set] = {}
        self._open: list[float] = []  # child time of each open span

    def wrap(self, name: str, func, key=None, on_result=None):
        span = self.spans.setdefault(name, Span())
        seen = self.distinct.setdefault(name, set()) if key is not None else None
        stack = self._open

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if seen is not None:
                seen.add(key(args, kwargs))
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span.errors += 1
                raise
            finally:
                elapsed = perf_counter() - t0
                span.calls += 1
                span.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def install(self) -> None:
        from cantordyn import grids, measures, orbits

        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if name.startswith(PACKAGE + ".") and name not in UNTRACED_MODULES
        ]
        measure_type = measures.AtomicMeasure

        def value_key(args, kwargs):
            # measures by value, maps and other objects by identity
            parts = [a if isinstance(a, (measure_type, str)) else id(a) for a in args]
            parts.extend(sorted(kwargs.items()))
            return tuple(parts)

        def count_backend(result):
            self.counters[f"measures.prohorov.calls.{result.backend}"] += 1

        def count_mechanism(result):
            kind = result.certificate.replace("-", "_")
            self.counters[f"orbits.profiles.{kind}"] += 1

        special = {
            measures.prohorov: (value_key, count_backend),
            measures.pushforward: (value_key, None),
            orbits.distance_profile: (None, count_mechanism),
            orbits.orbit_distance_to_target: (None, count_mechanism),
        }
        wrappers = {}
        for mod in modules:
            short = mod.__name__[len(PACKAGE) + 1:]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                key, on_result = special.get(obj, (None, None))
                wrappers[obj] = self.wrap(f"{short}.{attr}", obj, key, on_result)
        for mod in modules + [sys.modules[PACKAGE]]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        scanner = grids.CommonSupportScanner
        for method in ("__init__", "rank_matrix_at"):
            original = getattr(scanner, method)
            setattr(scanner, method,
                    self.wrap(f"grids.CommonSupportScanner.{method}", original))

    def metrics(self) -> dict[str, float]:
        """Flat ``<name>.calls|self_s|errors`` figures plus the exact counters."""
        out: dict[str, float] = {}
        for name, span in sorted(self.spans.items()):
            out[f"{name}.calls"] = span.calls
            out[f"{name}.self_s"] = span.self_s
            out[f"{name}.errors"] = span.errors
        for name, keys in self.distinct.items():
            calls = self.spans[name].calls
            out[f"{name}.distinct"] = len(keys)
            out[f"{name}.distinct_share"] = len(keys) / calls if calls else 0.0
        out.update(self.counters)
        return out
