"""Tests for repro.index.pagestats."""

import pytest

from repro.index.pagestats import BufferPool, PageAccessCounter


class TestPageAccessCounter:
    def test_counts_index_and_leaf(self):
        counter = PageAccessCounter()
        counter.start_query()
        counter.record(1, is_leaf=False)
        counter.record(2, is_leaf=True)
        counter.record(3, is_leaf=True)
        breakdown = counter.finish_query()
        assert breakdown.total == 3
        assert breakdown.index_nodes == 1
        assert breakdown.leaf_nodes == 2

    def test_history_accumulates(self):
        counter = PageAccessCounter()
        for accesses in (1, 2, 3):
            counter.start_query()
            for i in range(accesses):
                counter.record(i, is_leaf=True)
            counter.finish_query()
        assert [b.total for b in counter.history] == [1, 2, 3]
        assert counter.mean_per_query() == pytest.approx(2.0)
        assert counter.total_accesses == 6

    def test_mean_empty_history(self):
        assert PageAccessCounter().mean_per_query() == 0.0

    def test_current_total(self):
        counter = PageAccessCounter()
        counter.start_query()
        counter.record(1, is_leaf=False)
        assert counter.current_total == 1

    def test_reset(self):
        counter = PageAccessCounter()
        counter.start_query()
        counter.record(1, is_leaf=True)
        counter.finish_query()
        counter.reset()
        assert counter.history == []
        assert counter.total_accesses == 0

    def test_buffer_pool_integration(self):
        pool = BufferPool(capacity=2)
        counter = PageAccessCounter(buffer_pool=pool)
        counter.start_query()
        counter.record(1, is_leaf=False)  # miss
        counter.record(1, is_leaf=False)  # hit
        counter.record(2, is_leaf=True)  # miss
        breakdown = counter.finish_query()
        assert breakdown.buffer_hits == 1
        assert breakdown.buffer_misses == 2

    def test_record_scan_bills_one_page(self):
        # A vectorized whole-node scan touches one page, however many
        # entries the array pass examined.
        counter = PageAccessCounter()
        counter.start_query()
        counter.record_scan(1, is_leaf=False, entries=30)
        counter.record_scan(2, is_leaf=True, entries=17)
        breakdown = counter.finish_query()
        assert breakdown.total == 2
        assert breakdown.index_nodes == 1
        assert breakdown.leaf_nodes == 1
        assert breakdown.entries_scanned == 47
        assert counter.total_accesses == 2
        assert counter.total_entries_scanned == 47

    def test_record_scan_matches_record_page_counts(self):
        plain = PageAccessCounter()
        scanned = PageAccessCounter()
        for c in (plain, scanned):
            c.start_query()
        for page_id, is_leaf, entries in [(1, False, 30), (2, True, 9)]:
            plain.record(page_id, is_leaf)
            scanned.record_scan(page_id, is_leaf, entries)
        a, b = plain.finish_query(), scanned.finish_query()
        assert (a.total, a.index_nodes, a.leaf_nodes) == (
            b.total,
            b.index_nodes,
            b.leaf_nodes,
        )

    def test_record_scan_rejects_negative(self):
        counter = PageAccessCounter()
        counter.start_query()
        with pytest.raises(ValueError):
            counter.record_scan(1, is_leaf=True, entries=-1)

    def test_record_scan_buffer_pool_single_access(self):
        pool = BufferPool(capacity=2)
        counter = PageAccessCounter(buffer_pool=pool)
        counter.start_query()
        counter.record_scan(5, is_leaf=True, entries=30)
        counter.record_scan(5, is_leaf=True, entries=30)
        breakdown = counter.finish_query()
        assert breakdown.buffer_misses == 1
        assert breakdown.buffer_hits == 1

    def test_reset_clears_entries_scanned(self):
        counter = PageAccessCounter()
        counter.start_query()
        counter.record_scan(1, is_leaf=True, entries=12)
        counter.finish_query()
        counter.reset()
        assert counter.total_entries_scanned == 0


class TestBufferPool:
    def test_negative_capacity_raises(self):
        with pytest.raises(ValueError):
            BufferPool(capacity=-1)

    def test_zero_capacity_always_misses(self):
        pool = BufferPool(capacity=0)
        assert not pool.access(1)
        assert not pool.access(1)
        assert pool.hits == 0
        assert pool.misses == 2

    def test_hit_after_load(self):
        pool = BufferPool(capacity=4)
        assert not pool.access(7)
        assert pool.access(7)
        assert pool.hit_ratio() == pytest.approx(0.5)

    def test_lru_eviction(self):
        pool = BufferPool(capacity=2)
        pool.access(1)
        pool.access(2)
        pool.access(3)  # evicts 1
        assert not pool.access(1)  # miss again
        assert pool.resident_pages == 2

    def test_lru_touch_refreshes(self):
        pool = BufferPool(capacity=2)
        pool.access(1)
        pool.access(2)
        pool.access(1)  # 1 becomes most recent
        pool.access(3)  # evicts 2
        assert pool.access(1)
        assert not pool.access(2)

    def test_hit_ratio_empty(self):
        assert BufferPool(capacity=2).hit_ratio() == 0.0

    def test_clear(self):
        pool = BufferPool(capacity=2)
        pool.access(1)
        pool.clear()
        assert pool.resident_pages == 0
        assert pool.misses == 0
