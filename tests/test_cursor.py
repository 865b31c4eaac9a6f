"""Tests for the Cursor API."""

import numpy as np
import pytest

from repro.core.alex import AlexIndex
from repro.core.config import ga_armi, pma_armi
from repro.core.cursor import Cursor, CursorInvalidatedError
from repro.core.errors import IndexError_


@pytest.fixture(params=[ga_armi, pma_armi], ids=["ga", "pma"])
def index_and_keys(request):
    keys = np.unique(np.random.default_rng(71).uniform(0, 1e5, 1500))
    index = AlexIndex.bulk_load(
        keys, [f"p{i}" for i in range(len(keys))],
        config=request.param(max_keys_per_node=256))
    return index, np.sort(keys)


class TestForwardIteration:
    def test_full_scan_in_order(self, index_and_keys):
        index, keys = index_and_keys
        cursor = Cursor(index)
        got = [k for k, _ in cursor]
        assert got == keys.tolist()

    def test_seek_positions_at_lower_bound(self, index_and_keys):
        index, keys = index_and_keys
        cursor = Cursor(index, start_key=float(keys[500]))
        assert cursor.key() == float(keys[500])
        cursor.seek(float(keys[500]) + 1e-9)
        assert cursor.key() == float(keys[501])

    def test_take(self, index_and_keys):
        index, keys = index_and_keys
        cursor = Cursor(index, start_key=float(keys[10]))
        out = cursor.take(5)
        assert [k for k, _ in out] == keys[10:15].tolist()
        assert cursor.key() == float(keys[15])

    @pytest.mark.parametrize("start, count", [(10, 5), (0, 700),
                                              (1400, 500), (3, 0)])
    def test_take_matches_stepping(self, index_and_keys, start, count):
        """take() reads whole leaf runs at once, with the results, end
        position and counter charges of stepping entry by entry."""
        index, keys = index_and_keys
        stepped = Cursor(index, start_key=float(keys[start]))
        before = index.counters.snapshot()
        want = []
        while stepped.valid() and len(want) < count:
            want.append(stepped.current())
            stepped.next()
        step_work = index.counters.diff(before)
        taken = Cursor(index, start_key=float(keys[start]))
        before = index.counters.snapshot()
        assert taken.take(count) == want
        assert index.counters.diff(before) == step_work
        assert taken.valid() == stepped.valid()
        if taken.valid():
            assert taken.current() == stepped.current()

    def test_exhaustion(self, index_and_keys):
        index, keys = index_and_keys
        cursor = Cursor(index, start_key=float(keys[-1]))
        assert cursor.valid()
        assert not cursor.next()
        assert not cursor.valid()
        with pytest.raises(IndexError_):
            cursor.current()


class TestBackwardIteration:
    def test_seek_last_then_prev(self, index_and_keys):
        index, keys = index_and_keys
        cursor = Cursor(index)
        cursor.seek_last()
        assert cursor.key() == float(keys[-1])
        cursor.prev()
        assert cursor.key() == float(keys[-2])

    def test_walk_backwards_across_leaves(self, index_and_keys):
        index, keys = index_and_keys
        cursor = Cursor(index)
        cursor.seek_last()
        got = []
        while cursor.valid():
            got.append(cursor.key())
            cursor.prev()
        assert got == keys[::-1].tolist()

    def test_prev_past_begin_invalidates(self, index_and_keys):
        index, keys = index_and_keys
        cursor = Cursor(index, start_key=float(keys[0]))
        assert not cursor.prev()
        assert not cursor.valid()


class TestPayloadAccess:
    def test_payload_matches_key(self, index_and_keys):
        index, keys = index_and_keys
        cursor = Cursor(index, start_key=float(keys[7]))
        key, payload = cursor.current()
        assert index.lookup(key) == payload
        assert cursor.payload() == payload


class TestInvalidation:
    def test_mutation_invalidates(self, index_and_keys):
        index, keys = index_and_keys
        cursor = Cursor(index)
        index.insert(-1.0)
        with pytest.raises(CursorInvalidatedError):
            cursor.next()
        with pytest.raises(CursorInvalidatedError):
            cursor.current()

    def test_refresh_rearms(self, index_and_keys):
        index, keys = index_and_keys
        cursor = Cursor(index, start_key=float(keys[100]))
        index.insert(-1.0)
        cursor.refresh()
        assert cursor.key() == float(keys[100])
        assert cursor.next()

    def test_delete_invalidates_then_refresh(self, index_and_keys):
        index, keys = index_and_keys
        cursor = Cursor(index, start_key=float(keys[5]))
        index.delete(float(keys[5]))
        with pytest.raises(CursorInvalidatedError):
            cursor.next()
        cursor.refresh()
        assert cursor.valid()


class TestEmptyIndex:
    def test_cursor_on_empty_index(self):
        index = AlexIndex()
        cursor = Cursor(index)
        assert not cursor.valid()
        assert list(cursor) == []
