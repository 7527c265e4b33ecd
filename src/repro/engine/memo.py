"""One bounded memo: the cache every engine, encoder and AAM lookup shares.

Expert plans, hint completions, bound statements, join spaces, plan
encodings, statevecs and AAM scores are pure functions of their keys, so
each is computed once and then looked up.  :class:`Memo` is the one place
the rules of such a lookup are written:

* bounded — never more than ``capacity`` entries; the least recently used
  goes first, and a hit refreshes recency;
* first insert wins — a value for a key already present is dropped and the
  stored one returned, so every caller of one key shares one object;
* ``None`` is never stored — it means "no result" (a deadline expired
  before the work ran), and the same key asked with budget to spare must
  still produce a real entry;
* a hit is any stored value — a stored ``0`` or numpy array counts, since
  a lookup tests identity against ``None``, never truthiness;
* the lock is never held while a value is computed — two threads missing
  the same key both compute, and the first insert wins.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import (
    Callable, Dict, Generic, Hashable, Iterable, Iterator, List, Optional, Sequence, TypeVar,
)

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class Memo(Generic[K, V]):
    """A thread-safe bounded LRU map (rules in the module docstring).

    ``capacity`` may be reassigned; a smaller one evicts at once.
    Iteration yields the keys oldest first.
    """

    def __init__(self, capacity: int) -> None:
        self._lock = threading.Lock()
        self._data: "OrderedDict[K, V]" = OrderedDict()
        self._capacity = capacity

    @property
    def capacity(self) -> int:
        return self._capacity

    @capacity.setter
    def capacity(self, capacity: int) -> None:
        with self._lock:
            self._capacity = capacity
            while len(self._data) > capacity:
                self._data.popitem(last=False)

    def _insert(self, key: K, value: V) -> V:
        """Store ``value`` unless ``key`` is present; the stored value. Lock held."""
        stored = self._data.get(key)
        if stored is not None:
            self._data.move_to_end(key)
            return stored
        self._data[key] = value
        if len(self._data) > self._capacity:
            self._data.popitem(last=False)
        return value

    def get(self, key: K) -> Optional[V]:
        """The value stored for ``key``, refreshed as most recently used, or ``None``."""
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
            return value

    def put(self, key: K, value: Optional[V]) -> Optional[V]:
        """Store ``value`` for ``key`` unless one is there; return the stored value."""
        if value is None:
            return None
        with self._lock:
            return self._insert(key, value)

    def many(
        self,
        keys: Sequence[K],
        items: Iterable,
        compute: Callable[[List], Sequence[Optional[V]]],
    ) -> List[Optional[V]]:
        """The values of ``keys``, in order, each distinct miss computed once.

        ``items[i]`` is what ``compute`` needs to produce the value of
        ``keys[i]``.  ``compute`` is called at most once, outside the lock,
        with the first-seen item of each distinct missed key, in first-seen
        order, and returns their values in that order.  A ``None`` value is
        returned in its key's slots but not stored.
        """
        found: Dict[K, Optional[V]] = {}
        misses: Dict[K, object] = {}
        with self._lock:
            data = self._data
            for key, item in zip(keys, items):
                if key in found:
                    continue
                value = found[key] = data.get(key)
                if value is None:
                    misses[key] = item
                else:
                    data.move_to_end(key)
        if misses:
            values = compute(list(misses.values()))
            with self._lock:
                for key, value in zip(misses, values):
                    found[key] = None if value is None else self._insert(key, value)
        return [found[key] for key in keys]

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: object) -> bool:
        return key in self._data

    def __iter__(self) -> Iterator[K]:
        with self._lock:
            return iter(list(self._data))
