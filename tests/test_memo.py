"""The one bounded memo (:class:`repro.engine.memo.Memo`) against a model.

Every cache of the engine, the encoder and the AAM is a ``Memo``, so its
rules are held here once: bounded LRU, first insert wins, ``None`` never
stored, a stored ``0`` or numpy array is a hit, and each distinct miss of a
batch computed once.  The model is a plain ``OrderedDict`` run through the
same operations.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.engine.memo import Memo

KEYS = st.integers(0, 7)
# Falsy values (0, an empty string), arrays, and None, which is never stored.
VALUES = st.sampled_from([0, 1, "", "x", None, np.zeros(3), np.arange(2)])
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("get"), KEYS),
        st.tuples(st.just("put"), KEYS, VALUES),
        st.tuples(st.just("many"), st.lists(KEYS, max_size=8)),
        st.tuples(st.just("capacity"), st.integers(0, 4)),
        st.tuples(st.just("clear")),
    ),
    max_size=40,
)


class Model:
    """The reference: an ``OrderedDict`` kept oldest first."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.data: "OrderedDict" = OrderedDict()

    def evict(self) -> None:
        while len(self.data) > self.capacity:
            self.data.popitem(last=False)

    def get(self, key):
        if key not in self.data:
            return None
        self.data.move_to_end(key)
        return self.data[key]

    def put(self, key, value):
        if value is None:
            return None
        if key in self.data:
            return self.get(key)
        self.data[key] = value
        self.evict()
        return value


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(0, 4), table=st.dictionaries(KEYS, VALUES), ops=OPS)
def test_memo_matches_the_ordered_dict_model(capacity, table, ops):
    memo, model = Memo(capacity), Model(capacity)
    for op in ops:
        if op[0] == "get":
            assert memo.get(op[1]) is model.get(op[1])
        elif op[0] == "put":
            assert memo.put(op[1], op[2]) is model.put(op[1], op[2])
        elif op[0] == "many":
            keys = op[1]
            items = [(key, position) for position, key in enumerate(keys)]
            calls = []

            def compute(misses):
                calls.append(misses)
                return [table.get(key) for key, _ in misses]

            expected, first_seen = {}, {}
            for key, item in zip(keys, items):
                if key not in expected:
                    expected[key] = model.get(key)
                    if expected[key] is None:
                        first_seen[key] = item
            got = memo.many(keys, items, compute)
            # One call at most, with each distinct miss's first item once.
            assert calls == ([list(first_seen.values())] if first_seen else [])
            for key in first_seen:
                expected[key] = model.put(key, table.get(key))
            assert len(got) == len(keys)
            assert all(value is expected[key] for key, value in zip(keys, got))
        elif op[0] == "capacity":
            memo.capacity = model.capacity = op[1]
            model.evict()
        else:
            memo.clear()
            model.data.clear()
        assert list(memo) == list(model.data)  # the same keys, in LRU order
        assert len(memo) == len(model.data) <= memo.capacity
        # Refreshing every key oldest first leaves the order as it was.
        assert all(memo.get(key) is not None for key in model.data)


def test_a_stored_zero_and_array_are_hits():
    memo = Memo(4)
    array = np.zeros(3)
    memo.put("zero", 0)
    memo.put("array", array)
    computed = []

    def compute(misses):
        computed.extend(misses)
        return [1]

    got = memo.many(["zero", "array", "new"], ["z", "a", "n"], compute)
    assert got[0] == 0 and got[1] is array and got[2] == 1
    assert computed == ["n"]


def test_first_insert_wins_and_none_is_never_stored():
    memo = Memo(4)
    first, second = object(), object()
    assert memo.put("k", first) is first
    assert memo.put("k", second) is first
    assert memo.put("none", None) is None
    assert "none" not in memo
    assert memo.many(["none"], [None], lambda misses: [None]) == [None]
    assert "none" not in memo and len(memo) == 1


def test_threads_sharing_a_memo_lose_no_entry_and_keep_the_bound():
    """8 threads × ``many`` over overlapping keys: every answer is its key's
    value, each compute call sees distinct misses, and the memo ends full,
    never over capacity."""
    capacity, universe = 32, 48
    memo = Memo(capacity)
    errors = []

    def compute(misses):
        if len(set(misses)) != len(misses):
            errors.append(f"duplicate misses {misses}")
        return [key * 10 for key in misses]

    def run(slot):
        rng = np.random.default_rng(slot)
        for _ in range(200):
            keys = rng.integers(0, universe, size=12).tolist()
            got = memo.many(keys, keys, compute)
            if got != [key * 10 for key in keys]:
                errors.append(f"wrong values for {keys}: {got}")
            if len(memo) > capacity:
                errors.append(f"{len(memo)} entries over capacity {capacity}")

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(memo) == capacity
    assert all(memo.get(key) == key * 10 for key in list(memo))
