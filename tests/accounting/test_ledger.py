"""Tests for the spend ledger and its composition rules."""

from repro.accounting.ledger import Ledger, SpendRecord


class TestSequentialComposition:
    def test_empty_ledger_totals_zero(self):
        assert Ledger().total() == 0.0

    def test_sequential_spends_add(self):
        ledger = Ledger()
        ledger.append(SpendRecord(0.3, "a"))
        ledger.append(SpendRecord(0.2, "b"))
        assert ledger.total() == 0.5

    def test_adds_in_append_order(self):
        ledger = Ledger()
        for eps in (0.1, 0.2, 0.3):
            ledger.append(SpendRecord(eps, "x"))
        assert ledger.total() == (0.1 + 0.2) + 0.3


class TestParallelComposition:
    def test_same_group_takes_max(self):
        ledger = Ledger()
        ledger.append(SpendRecord(0.3, "a", parallel_group="g"))
        ledger.append(SpendRecord(0.5, "b", parallel_group="g"))
        ledger.append(SpendRecord(0.2, "c", parallel_group="g"))
        assert ledger.total() == 0.5

    def test_different_groups_add(self):
        ledger = Ledger()
        ledger.append(SpendRecord(0.3, "a", parallel_group="g1"))
        ledger.append(SpendRecord(0.5, "b", parallel_group="g2"))
        assert ledger.total() == 0.8

    def test_groups_compose_with_sequential(self):
        ledger = Ledger()
        ledger.append(SpendRecord(0.1, "seq"))
        ledger.append(SpendRecord(0.3, "a", parallel_group="g"))
        ledger.append(SpendRecord(0.2, "b", parallel_group="g"))
        assert ledger.total() == 0.4

    def test_total_with_matches_total_after_append(self):
        ledger = Ledger()
        ledger.append(SpendRecord(0.1, "seq"))
        ledger.append(SpendRecord(0.3, "a", parallel_group="g"))
        for eps, group in [(0.7, None), (0.2, "g"), (0.9, "g"), (0.4, "h")]:
            projected = ledger.total_with(eps, group)
            ledger.append(SpendRecord(eps, "x", parallel_group=group))
            assert ledger.total() == projected


class TestLedgerApi:
    def test_len_and_iter(self):
        ledger = Ledger()
        ledger.append(SpendRecord(0.1, "x"))
        assert len(ledger) == 1
        assert [r.purpose for r in ledger] == ["x"]

    def test_purposes_in_order(self):
        ledger = Ledger()
        for name in ["structure", "noise"]:
            ledger.append(SpendRecord(0.1, name))
        assert ledger.purposes() == ["structure", "noise"]
