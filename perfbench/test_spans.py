"""Self-time arithmetic on synthetic span trees.

    python3 -m pytest perfbench/test_spans.py
"""

import pytest

from spans import Recorder, layer_times, self_times


def test_nested_spans_subtract_only_direct_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("child", 2.0, 8.0, 0),
        ("grandchild", 3.0, 5.0, 1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 4.0, 2.0])


def test_sibling_spans_each_cover_their_own_interval():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("b", 4.0, 7.0, 0),
        ("a", 7.5, 8.0, 0),
    ]
    assert self_times(spans) == pytest.approx([4.5, 2.0, 3.0, 0.5])
    assert layer_times(spans) == {
        "root": (1, pytest.approx(4.5)),
        "a": (2, pytest.approx(2.5)),
        "b": (1, pytest.approx(3.0)),
    }


def test_child_covering_part_of_its_parent_is_clipped_and_merged():
    spans = [
        ("parent", 0.0, 4.0, -1),
        ("early", -1.0, 1.0, 0),     # starts before the parent: only [0, 1] counts
        ("overlap", 0.5, 2.0, 0),    # overlaps "early": [1, 2] is new
        ("late", 3.0, 6.0, 0),       # ends after the parent: only [3, 4] counts
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_recorder_links_parents_and_times_every_call():
    recorder = Recorder()

    def leaf():
        return 1

    traced_leaf = recorder.span("leaf", leaf)
    outer = recorder.span("outer", lambda: traced_leaf() + traced_leaf())
    assert outer() == 2
    names = [span[0] for span in recorder.spans]
    parents = [span[3] for span in recorder.spans]
    assert names == ["outer", "leaf", "leaf"]
    assert parents == [-1, 0, 0]
    assert all(end >= start for _, start, end, _ in recorder.spans)
    own = self_times(recorder.spans)
    total = recorder.spans[0][2] - recorder.spans[0][1]
    assert sum(own) == pytest.approx(total)
