"""A one-entry memo for the passes that several public functions share.

Paths, scenarios and densities are frozen dataclasses, so they hash and
compare by value and cannot change once built. An argument that cannot
be hashed (a path of a non-frozen dataclass, say) may change between
calls, so a call that has one is never remembered.
"""

from __future__ import annotations

import functools


def remember_latest(fn):
    """Decorate ``fn`` so that a call with positional arguments equal to
    those of the latest remembered call returns that call's result.

    The wrapper hashes the arguments once per call. ``cache_clear()``
    forgets the remembered call; ``__wrapped__`` is ``fn``.
    """
    latest = None  # (hash, args, result)

    @functools.wraps(fn)
    def remembered(*args):
        nonlocal latest
        try:
            key = hash(args)
        except TypeError:  # an argument that may change: compute afresh
            return fn(*args)
        entry = latest
        if entry is not None and entry[0] == key and entry[1] == args:
            return entry[2]
        result = fn(*args)
        latest = (key, args, result)
        return result

    def cache_clear():
        nonlocal latest
        latest = None

    remembered.cache_clear = cache_clear
    return remembered
