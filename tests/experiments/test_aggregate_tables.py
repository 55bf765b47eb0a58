"""Tests for table rendering."""

import pytest

from repro.experiments.tables import Table, render_table


class TestTable:
    def test_add_row_checks_width(self):
        table = Table(title="t", headers=["a", "b"])
        table.add_row(1, 2)
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_render_contains_everything(self):
        table = Table(title="My Results", headers=["x", "y"],
                      notes="a caveat")
        table.add_row(1, 2.5)
        text = render_table(table)
        assert "My Results" in text
        assert "x" in text and "y" in text
        assert "2.5" in text
        assert "a caveat" in text

    def test_render_aligns_columns(self):
        table = Table(title="t", headers=["name", "v"])
        table.add_row("short", 1)
        table.add_row("a-much-longer-name", 2)
        lines = render_table(table).splitlines()
        data = [l for l in lines if l.startswith(("short", "a-much"))]
        # Values line up at the same column.
        assert data[0].index("1") == data[1].index("2")

    def test_scientific_formatting_for_big_numbers(self):
        table = Table(title="t", headers=["v"])
        table.add_row(1.23456e9)
        assert "e+09" in render_table(table)

    def test_render_method_matches_function(self):
        table = Table(title="t", headers=["v"])
        table.add_row(1)
        assert table.render() == render_table(table)
