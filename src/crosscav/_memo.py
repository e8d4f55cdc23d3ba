"""Value caches for the pure, repeated pieces of a protocol run.

A cache maps a key to an immutable value (a read-only array or a frozen
dataclass) that passed every check when it was built, so a hit returns a
value that was already validated.  ByteLRU bounds what it holds by bytes
rather than by entries, so its memory does not depend on the sizes of
the matrices a caller happens to pass.  clear_all empties every cache
registered here, which gives a cold start without a new process.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

# bytes of the Python objects around an entry's arrays (dict slot, key
# tuple, bytes and array headers), about 460 on CPython 3.11; counted so
# that many tiny entries cannot outgrow the bound
ENTRY_OVERHEAD = 512
_registered = []


def register(cache):
    """Add cache (a ByteLRU or an lru_cache-wrapped function) to clear_all."""
    _registered.append(cache)
    return cache


def clear_all():
    """Empty every registered cache."""
    for cache in _registered:
        cache.cache_clear()


class ByteLRU:
    """Least-recently-used map whose entries hold at most max_bytes in all.

    The caller states the size of each entry it puts (the bytes of its key
    and value), and ENTRY_OVERHEAD is added to it; the least recently used
    entries are evicted until the new one fits, and an entry larger than
    max_bytes is returned unstored.  A lock keeps the entries and their
    byte count consistent when threads share the cache.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._entries = OrderedDict()  # key -> (value, size)
        self._lock = threading.Lock()

    def __len__(self):
        return len(self._entries)

    def get(self, key):
        """The value stored under key, or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key, value, size: int):
        """Store value under key, counted as size bytes; returns value."""
        size += ENTRY_OVERHEAD
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.nbytes -= old[1]
            if size > self.max_bytes:
                return value
            while self.nbytes + size > self.max_bytes:
                self.nbytes -= self._entries.popitem(last=False)[1][1]
            self._entries[key] = (value, size)
            self.nbytes += size
        return value

    def cache_clear(self):
        with self._lock:
            self._entries.clear()
            self.nbytes = 0
