import pytest
from hypothesis import given, strategies as st

from macsym.errors import CellOutOfDiagram, EmptyPartition
from macsym.partitions import (arm_leg, as_partition, cells, conjugate,
                               dominance_cmp, dominates, format_partition,
                               parse_partition, partial_stacks, partitions_of,
                               rectangles, stack_blocks, weight)


def test_dominance_examples():
    assert dominance_cmp((1, 1, 1), (3,)) == "leq"
    assert dominance_cmp((2, 1), (2, 1)) == "leq"  # reflexive
    assert dominance_cmp((2, 2, 2), (3, 1, 1, 1)) == "incomparable"
    assert dominance_cmp((3,), (1, 1, 1)) == "gt"
    assert dominance_cmp((2,), (1, 1, 1)) == "incomparable"  # weights differ


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((4, 4, 2, 1)) == (4, 3, 2, 2)


def test_arm_leg_examples():
    assert arm_leg((2, 1), (1, 1)) == (1, 1, 0, 0)
    assert arm_leg((1,), (1, 1)) == (0, 0, 0, 0)
    assert arm_leg((3, 2), (1, 2)) == (1, 1, 1, 0)
    with pytest.raises(CellOutOfDiagram):
        arm_leg((2, 1), (2, 2))


def test_rectangles_examples():
    assert rectangles((3, 3, 1)) == [(2, 2), (1, 3)]
    assert rectangles((2, 2)) == [(2, 2)]
    assert rectangles((3, 2, 1)) == [(1, 1), (1, 2), (1, 3)]
    with pytest.raises(EmptyPartition):
        rectangles(())


def test_partial_stacks():
    assert partial_stacks(rectangles((2, 1))) == [(1,), (2, 1)]
    assert partial_stacks(rectangles((3, 3, 1)))[-1] == (3, 3, 1)


def test_partitions_of_order():
    assert list(partitions_of(4)) == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(partitions_of(0)) == [()]
    assert list(partitions_of(5, max_length=2)) == [(5,), (4, 1), (3, 2)]


def test_partitions_of_negative_raises():
    # checked on the first item only: a loop over the generator would never end
    # if the check regressed
    with pytest.raises(ValueError):
        next(partitions_of(-1))


def test_reverse_lex_refines_dominance():
    for n in range(9):
        order = list(partitions_of(n))
        pos = {lam: i for i, lam in enumerate(order)}
        for a in order:
            for b in order:
                if a != b and dominates(a, b):
                    assert pos[a] < pos[b]


@st.composite
def partition_strategy(draw, max_weight=10):
    n = draw(st.integers(0, max_weight))
    parts = []
    remaining = n
    bound = n
    while remaining:
        p = draw(st.integers(1, min(bound, remaining)))
        parts.append(p)
        bound = p
        remaining -= p
    return tuple(parts)


@given(partition_strategy())
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert weight(conjugate(lam)) == weight(lam)


@given(partition_strategy())
def test_rectangle_reconstruction(lam):
    if not lam:
        return
    blocks = rectangles(lam)
    assert stack_blocks(blocks) == lam
    heights = [r for _, r in blocks]
    assert heights == sorted(heights) and len(set(heights)) == len(heights)
    assert all(s >= 1 for s, _ in blocks)


def test_dominance_reverses_under_conjugation():
    for n in range(8):
        ps = list(partitions_of(n))
        for a in ps:
            for b in ps:
                assert dominates(a, b) == dominates(conjugate(b), conjugate(a))


@given(partition_strategy())
def test_cell_statistics(lam):
    assert sum(1 for _ in cells(lam)) == weight(lam)
    for (i, j) in cells(lam):
        a, l, ap, lp = arm_leg(lam, (i, j))
        assert a + ap + 1 == lam[i - 1]
        assert l + lp + 1 == conjugate(lam)[j - 1]


def test_parse_format():
    assert parse_partition("(3,3,1)") == (3, 3, 1)
    assert parse_partition("") == ()
    assert parse_partition("[2, 1]") == (2, 1)
    assert format_partition((3, 1)) == "(3,1)"
    with pytest.raises(ValueError):
        parse_partition("1,2")
    with pytest.raises(ValueError):
        as_partition((1, -1))
