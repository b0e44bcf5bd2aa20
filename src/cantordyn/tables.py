"""One registry of the package's per-process memos and tables.

``table(counter, maxsize)`` is ``functools.lru_cache(maxsize)`` that also
registers the cache under the ``timings`` counter it feeds, so each table is
the C cache itself and a read costs no more.  Each counter names one table.
``reset()`` empties them all, as in a fresh process.  ``counts()`` gives
per counter its table's misses, the work computed, and its hits, the calls
the table answered instead (``solves``, ``solve_hits``).
"""

from __future__ import annotations

from functools import lru_cache

_TABLES: list = []  # (counter, cache) in registration order


def table(counter: str, maxsize: int):
    """Decorator: ``lru_cache(maxsize)``, registered under ``counter``."""
    def register(func):
        cache = lru_cache(maxsize=maxsize)(func)
        _TABLES.append((counter, cache))
        return cache
    return register


def reset() -> None:
    for _, cache in _TABLES:
        cache.cache_clear()


def counts() -> dict[str, int]:
    """``{counter: computed, counter + "_hits": answered}``, ``solves``
    giving ``solve_hits``."""
    out: dict[str, int] = {}
    for counter, cache in _TABLES:
        hits, misses, _, _ = cache.cache_info()
        out[counter], out[counter.removesuffix("s") + "_hits"] = misses, hits
    return out
