"""Worker-thread cap of the sampler's lanes, and an order-keeping pool map."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from .errors import DomainError


def max_workers() -> int:
    """Thread count: FSO_LINKLAB_THREADS if set, else the CPU count up to 8."""
    env = os.environ.get("FSO_LINKLAB_THREADS")
    if env is not None:
        try:
            n = int(env)
        except ValueError:
            raise DomainError(f"FSO_LINKLAB_THREADS must be an integer, got {env!r}")
        if n < 1:
            raise DomainError("FSO_LINKLAB_THREADS must be >= 1")
        return n
    return min(8, os.cpu_count() or 1)


def parallel_map(fn, items):
    """Map preserving input order; thread count capped by FSO_LINKLAB_THREADS."""
    items = list(items)
    workers = min(max_workers(), len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
