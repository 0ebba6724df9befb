"""Span recorder: self time and the unattributed remainder on a toy tree.

Run with ``python -m pytest perfbench``.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import SpanRecorder  # noqa: E402


def fake_clock(stamps):
    ticks = iter(stamps)
    return lambda: next(ticks)


def toy_tree():
    """root [0,100] -> a [10,40] -> a1 [15,25]; root -> b [50,70].

    Nothing covers root's [0,10], [40,50] and [70,100]: 50 ns
    unattributed."""
    rec = SpanRecorder(clock=fake_clock([0, 10, 15, 25, 40, 50, 70, 100]))
    rec.run_id = "toy"
    root = rec.begin("root")
    a = rec.begin("a")
    a1 = rec.begin("a1")
    rec.end(a1)
    rec.end(a)
    b = rec.begin("b")
    rec.end(b)
    rec.end(root)
    return rec, root


def test_self_time_subtracts_children():
    rec, _root = toy_tree()
    names = [span.name for span in rec.spans]
    own = dict(zip(names, rec.self_times()))
    assert own == {"root": 50, "a": 20, "a1": 10, "b": 20}


def test_unattributed_is_root_self_time():
    rec, root = toy_tree()
    assert rec.self_times()[root] == 50
    # Self times partition the root's wall time exactly.
    assert sum(rec.self_times()) == rec.spans[root].duration


def test_parents_and_run_id():
    rec, _root = toy_tree()
    parents = {span.name: span.parent for span in rec.spans}
    assert parents == {"root": None, "a": 0, "a1": 1, "b": 0}
    assert {span.run_id for span in rec.spans} == {"toy"}


def test_totals_group_by_name():
    rec = SpanRecorder(clock=fake_clock([0, 1, 3, 4, 9, 10]))
    root = rec.begin("root")
    for _ in range(2):
        rec.end(rec.begin("leaf"))
    rec.end(root)
    assert rec.totals() == {"root": (10, 1), "leaf": (7, 2)}
    assert rec.totals(self_time=True) == {"root": (3, 1), "leaf": (7, 2)}


def test_inclusive_totals_skip_same_name_nesting():
    """figure8 calls figure2: the inner span must not count twice."""
    rec = SpanRecorder(clock=fake_clock([0, 2, 6, 10]))
    outer = rec.begin("figure")
    rec.end(rec.begin("figure"))
    rec.end(outer)
    assert rec.totals() == {"figure": (10, 2)}
    assert rec.totals(self_time=True) == {"figure": (10, 2)}


def test_wrap_closes_span_on_exception():
    rec = SpanRecorder(clock=fake_clock([0, 5]))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap(boom, "boom")()
    assert rec.spans[0].duration == 5
    assert not rec._open


def test_out_of_order_close_raises():
    rec = SpanRecorder(clock=fake_clock([0, 1]))
    outer = rec.begin("outer")
    rec.begin("inner")
    with pytest.raises(RuntimeError):
        rec.end(outer)


def test_write_emits_one_line_per_span(tmp_path):
    rec, _root = toy_tree()
    path = tmp_path / "spans.jsonl"
    rec.write(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["name"] for line in lines] == ["root", "a", "a1", "b"]
    assert lines[0]["self_ns"] == 50
    assert lines[2]["parent"] == 1
