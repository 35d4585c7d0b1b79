"""Transfer items and transactions."""

import pytest

from repro.core.items import (
    Direction,
    Transaction,
    TransferItem,
    items_from_sizes,
)


class TestTransferItem:
    def test_validation(self):
        with pytest.raises(ValueError):
            TransferItem(label="", size_bytes=1.0)
        with pytest.raises(ValueError):
            TransferItem(label="a", size_bytes=0.0)

    def test_metadata_carried(self):
        item = TransferItem("seg", 10.0, {"index": 3})
        assert item.metadata["index"] == 3


class TestTransaction:
    def test_totals(self):
        txn = Transaction(items_from_sizes([100.0, 200.0, 50.0]))
        assert txn.total_bytes == 350.0
        assert txn.max_item_bytes == 200.0
        assert len(txn) == 3

    def test_preserves_order(self):
        items = items_from_sizes([1.0, 2.0, 3.0])
        txn = Transaction(items)
        assert [i.label for i in txn] == ["item-0", "item-1", "item-2"]

    def test_default_direction_download(self):
        txn = Transaction(items_from_sizes([1.0]))
        assert txn.direction is Direction.DOWNLOAD

    def test_duplicate_labels_rejected(self):
        items = [TransferItem("x", 1.0), TransferItem("x", 2.0)]
        with pytest.raises(ValueError, match="unique"):
            Transaction(items)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Transaction([])

    def test_names_unique_by_default(self):
        a = Transaction(items_from_sizes([1.0]))
        b = Transaction(items_from_sizes([1.0]))
        assert a.name != b.name


class TestItemsFromSizes:
    def test_labels(self):
        items = items_from_sizes([5.0, 6.0], prefix="photo")
        assert items[0].label == "photo-0"
        assert items[1].size_bytes == 6.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            items_from_sizes([])


class TestItemsFromFile:
    def test_ranges_cover_file_exactly(self):
        from repro.core.items import items_from_file

        items = items_from_file("/big.bin", 3_500_000.0, chunk_bytes=1e6)
        assert len(items) == 4
        assert sum(i.size_bytes for i in items) == 3_500_000.0
        # Ranges are contiguous and non-overlapping.
        edges = [(i.metadata["range_start"], i.metadata["range_end"]) for i in items]
        assert edges[0][0] == 0
        assert edges[-1][1] == 3_500_000
        for (a_start, a_end), (b_start, b_end) in zip(edges, edges[1:]):
            assert a_end == b_start

    def test_single_chunk_when_file_small(self):
        from repro.core.items import items_from_file

        items = items_from_file("/s.bin", 100.0, chunk_bytes=1e6)
        assert len(items) == 1

    def test_scheduler_can_run_range_items(self):
        from repro.core.items import Transaction, items_from_file
        from repro.core.scheduler import make_policy
        from repro.core.scheduler.runner import TransactionRunner
        from repro.netsim.fluid import FluidNetwork
        from repro.netsim.latency import RttModel
        from repro.netsim.link import Link
        from repro.netsim.path import NetworkPath
        from repro.util.units import MB, mbps

        network = FluidNetwork()
        paths = [
            NetworkPath("a", [Link("la", mbps(4))], rtt=RttModel(0.0)),
            NetworkPath("b", [Link("lb", mbps(4))], rtt=RttModel(0.0)),
        ]
        runner = TransactionRunner(network, paths, make_policy("GRD"))
        items = items_from_file("/big.iso", 8 * MB, chunk_bytes=1 * MB)
        result = runner.run(Transaction(items))
        assert len(result.records) == 8
        assert result.total_time == pytest.approx(8.0, rel=0.1)

    def test_validation(self):
        from repro.core.items import items_from_file

        with pytest.raises(ValueError):
            items_from_file("", 100.0)
        with pytest.raises(ValueError):
            items_from_file("/x", 0.0)
