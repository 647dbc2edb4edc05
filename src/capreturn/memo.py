"""A one-entry memo for the passes that several public functions share.

Paths, scenarios and densities are frozen dataclasses, so they hash and
compare by value and cannot change once built. An argument that cannot
be hashed (a path of a non-frozen dataclass, say) may change between
calls, so a call that has one is never remembered.
"""

from __future__ import annotations

import functools


def remember_latest(fn):
    """Decorate ``fn`` with ``functools.lru_cache(maxsize=1)``, except
    that a call with an unhashable positional argument is computed afresh.

    ``cache_clear()`` forgets the remembered call; ``__wrapped__`` is ``fn``.
    """
    cached = functools.lru_cache(maxsize=1)(fn)

    @functools.wraps(fn)
    def remembered(*args):
        try:
            hash(args)
        except TypeError:  # an argument that may change: compute afresh
            return fn(*args)
        return cached(*args)

    remembered.cache_clear = cached.cache_clear
    return remembered
