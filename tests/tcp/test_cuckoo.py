"""Cuckoo hash table: the RX parser's flow-lookup structure."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.tcp.cuckoo import CuckooFullError, CuckooHashTable, _fnv1a, _key_bytes
from repro.tcp.segment import FlowKey


class TestBasics:
    def test_insert_get(self):
        table = CuckooHashTable(64)
        table.insert("key", 7)
        assert table.get("key") == 7
        assert "key" in table

    def test_missing_returns_none(self):
        assert CuckooHashTable(64).get("ghost") is None

    def test_update_in_place(self):
        table = CuckooHashTable(64)
        table.insert("key", 1)
        table.insert("key", 2)
        assert table.get("key") == 2
        assert len(table) == 1

    def test_remove(self):
        table = CuckooHashTable(64)
        table.insert("key", 1)
        assert table.remove("key") == 1
        assert table.get("key") is None
        assert len(table) == 0

    def test_remove_missing(self):
        assert CuckooHashTable(64).remove("ghost") is None

    def test_rejects_tiny_capacity(self):
        with pytest.raises(ValueError):
            CuckooHashTable(1)

    def test_flow_key_usage(self):
        """The actual use: 4-tuple -> flow id (§4.1.2)."""
        table = CuckooHashTable(1024)
        keys = [FlowKey(10, 1000 + i, 20, 80) for i in range(500)]
        for i, key in enumerate(keys):
            table.insert(key, i)
        assert all(table.get(key) == i for i, key in enumerate(keys))

    def test_displacement_keeps_keys_findable(self):
        """Cuckoo kicks relocate residents; they must stay reachable."""
        table = CuckooHashTable(256)
        for i in range(100):
            table.insert(f"key{i}", i)
        assert table.kicks >= 0  # displacement may or may not occur
        assert all(table.get(f"key{i}") == i for i in range(100))

    def test_items_iterates_everything(self):
        table = CuckooHashTable(64)
        for i in range(20):
            table.insert(i, i * 10)
        assert dict(table.items()) == {i: i * 10 for i in range(20)}

    def test_load_factor(self):
        table = CuckooHashTable(100)
        for i in range(25):
            table.insert(i, i)
        assert table.load_factor == pytest.approx(0.25)

    def test_overflow_raises_when_truly_full(self):
        table = CuckooHashTable(4)  # 2+2 slots + stash of 8
        inserted = 0
        with pytest.raises(OverflowError):
            for i in range(1000):
                table.insert(i, i)
                inserted += 1
        # Everything accepted before the overflow stays findable.
        assert all(table.get(i) == i for i in range(inserted))


class TestModelBased:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "remove", "get"]),
                st.integers(min_value=0, max_value=200),
            ),
            max_size=300,
        )
    )
    def test_matches_dict_semantics(self, operations):
        """Insert/remove/get churn behaves exactly like a dict."""
        table = CuckooHashTable(2048)
        model = {}
        for op, key in operations:
            if op == "insert":
                table.insert(key, key * 3)
                model[key] = key * 3
            elif op == "remove":
                assert table.remove(key) == model.pop(key, None)
            else:
                assert table.get(key) == model.get(key)
        assert len(table) == len(model)
        for key, value in model.items():
            assert table.get(key) == value

    @settings(max_examples=25, deadline=None)
    @given(st.sets(st.integers(), min_size=1, max_size=400))
    def test_high_load_insertion(self, keys):
        table = CuckooHashTable(1024)
        for key in keys:
            table.insert(key, key)
        assert len(table) == len(keys)
        assert all(table.get(key) == key for key in keys)


class _Unmemoized(CuckooHashTable):
    """The table as it was before bucket memoization: hash every probe."""

    def _indices(self, key):
        data = _key_bytes(key)
        return (
            _fnv1a(data, seed=0x9E3779B9) % self._table_size,
            _fnv1a(data, seed=0x9E3779B9 * 2) % self._table_size,
        )


def _state(table):
    return (
        [list(t) for t in table._tables], dict(table._stash), table.metrics()
    )


_keys = st.one_of(
    st.integers(min_value=0, max_value=60),
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
    st.text(max_size=3),
)


class TestBucketMemo:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["insert", "remove", "get"]), _keys),
            max_size=200,
        )
    )
    def test_memoized_indices_are_the_fnv_indices(self, operations):
        """Across inserts, removes and reinserts, a stored key's memo is
        its FNV-1a bucket pair and a removed key's memo is gone."""
        table = CuckooHashTable(64)
        stored = set()
        for op, key in operations:
            if op == "insert":
                try:
                    table.insert(key, 1)
                    stored.add(key)
                except CuckooFullError:
                    pass
            elif op == "remove":
                table.remove(key)
                stored.discard(key)
            else:
                table.get(key)
            assert set(table._buckets) == stored
        size = table._table_size
        for key in stored:
            data = _key_bytes(key)
            assert table._buckets[key] == (
                _fnv1a(data, seed=0x9E3779B9) % size,
                _fnv1a(data, seed=0x9E3779B9 * 2) % size,
            )

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["insert", "remove"]), _keys),
            max_size=300,
        )
    )
    def test_kicks_and_stash_unchanged(self, operations):
        """A small table under churn kicks, stashes and overflows; every
        slot, stash entry and counter matches the unmemoized table."""
        tables = [CuckooHashTable(16), _Unmemoized(16)]
        for op, key in operations:
            outcomes = []
            for table in tables:
                try:
                    if op == "insert":
                        outcomes.append(table.insert(key, 2))
                    else:
                        outcomes.append(table.remove(key))
                except CuckooFullError:
                    outcomes.append("full")
            assert outcomes[0] == outcomes[1]
            assert _state(tables[0]) == _state(tables[1])

    def test_lookup_of_an_unstored_key_still_validates_it(self):
        with pytest.raises(TypeError):
            CuckooHashTable(16).get(object())
