import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import intersections_by_fractions, line_intersection
from transgraph.arrangement import (
    ArrangementError,
    LineArrangement,
    containing_slab,
    description,
    extract_description,
    is_simple,
    slope_sorted,
    validate_description,
)
from transgraph.geometry import Line, line_from_slope_intercept
from transgraph.verification import RandomSpec, random_simple_arrangement

F = Fraction


def lines_from(pairs):
    return tuple(line_from_slope_intercept(F(s), F(b)) for s, b in pairs)


# --- construction ----------------------------------------------------------


def test_arrangement_indexing(three_lines):
    assert three_lines.n == 3
    assert three_lines.line(1).slope() == 0
    assert three_lines.line(3).slope() == 2
    with pytest.raises(IndexError):
        three_lines.line(0)
    with pytest.raises(IndexError):
        three_lines.line(4)


def test_arrangement_rejects_vertical():
    with pytest.raises(ArrangementError):
        LineArrangement((Line(F(1), F(0), F(0)),))


def test_arrangement_rejects_unsorted_slopes():
    with pytest.raises(ArrangementError):
        LineArrangement(lines_from([(2, 0), (1, 0)]))


def test_arrangement_rejects_duplicate_slopes():
    with pytest.raises(ArrangementError):
        LineArrangement(lines_from([(1, 0), (1, 5)]))


def test_slope_sorted_orders_by_slope():
    arr = slope_sorted(lines_from([(3, 0), (-1, 2), (0, 1)]))
    assert [arr.line(i).slope() for i in (1, 2, 3)] == [-1, 0, 3]


wide_rationals = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**12
)
line_scales = st.fractions(
    min_value=-(10**3), max_value=10**3, max_denominator=10**9
).filter(bool)


@st.composite
def rescaled_arrangements(draw):
    """Distinct slopes; each line's (a, b, c) times a nonzero rational, so b
    may be negative and the coefficients carry large denominators."""
    slopes = draw(st.lists(wide_rationals, min_size=2, max_size=7, unique=True))
    lines = []
    for slope in sorted(slopes):
        intercept, k = draw(wide_rationals), draw(line_scales)
        lines.append(Line(-slope * k, k, intercept * k))
    return LineArrangement(tuple(lines))


@settings(max_examples=100, deadline=None)
@given(rescaled_arrangements())
def test_crossing_rows_are_sorted_integers_over_one_denominator(arr):
    """Row i lists (X, j) for every other line j, sorted, with X/D the x of
    the ``Fraction`` solve of lines i and j."""
    reference = intersections_by_fractions(arr)
    for i, (D, row) in enumerate(arr.crossings_by_line(), start=1):
        assert D > 0 and row == sorted(row)
        assert sorted(j for _, j in row) == [j for j in range(1, arr.n + 1) if j != i]
        for X, j in row:
            assert F(X, D) == reference[min(i, j), max(i, j)].x


def test_simplicity_and_description_compare_no_fraction():
    """``is_simple`` and ``extract_description`` order each line's
    crossings on integers: not one ``Fraction`` comparison runs in them."""
    arr = random_simple_arrangement(RandomSpec(n=10, seed=1))
    comparisons = {
        getattr(Fraction, name).__code__
        for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__", "_richcmp")
    }
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code in comparisons

    sys.setprofile(profile)
    try:
        simple, desc = is_simple(arr), extract_description(arr)
    finally:
        sys.setprofile(None)
    assert simple and desc.n == 10
    assert calls == 0


# --- simplicity ------------------------------------------------------------


def test_is_simple(three_lines, concurrent_lines):
    assert is_simple(three_lines)
    assert not is_simple(concurrent_lines)


def test_two_lines_always_simple():
    assert is_simple(LineArrangement(lines_from([(0, 0), (1, 0)])))


# --- slab ------------------------------------------------------------------


def test_containing_slab_covers_crossings(three_lines):
    slab = containing_slab(three_lines)
    xs = [p.x for p in intersections_by_fractions(three_lines).values()]
    assert slab.x_left < min(xs)
    assert slab.x_right > max(xs)
    assert slab.width == slab.x_right - slab.x_left


# --- descriptions ----------------------------------------------------------


def test_extract_description_simple(three_lines):
    desc = extract_description(three_lines)
    assert validate_description(desc).simple
    assert desc.orders == (((2,), (3,)), ((1,), (3,)), ((1,), (2,)))


def test_extract_description_ties(concurrent_lines):
    desc = extract_description(concurrent_lines)
    assert not validate_description(desc).simple
    assert desc.orders == (((2, 3),), ((1, 3),), ((1, 2),))


def test_flat_order(three_lines):
    desc = extract_description(three_lines)
    assert desc.flat_order(1) == (2, 3)
    assert desc.flat_order(3) == (1, 2)


def test_validate_accepts_extracted(three_lines):
    report = validate_description(extract_description(three_lines))
    assert report.ok
    assert report.simple
    assert report.violations == []


def test_validate_flags_nonsimple(concurrent_lines):
    report = validate_description(extract_description(concurrent_lines))
    assert report.ok
    assert not report.simple


def test_validate_rejects_incomplete_cover():
    desc = description(3, [[[2]], [[1], [3]], [[1], [2]]])  # line 1 misses 3
    report = validate_description(desc)
    assert not report.ok
    assert any("1" in v for v in report.violations)


def test_validate_rejects_self_reference():
    desc = description(2, [[[1], [2]], [[1]]])
    assert not validate_description(desc).ok


def test_validate_rejects_duplicates():
    desc = description(2, [[[2], [2]], [[1]]])
    assert not validate_description(desc).ok


# --- randomized invariants -------------------------------------------------


def random_arrangement(seed, n):
    from transgraph import RandomSpec, random_simple_arrangement

    return random_simple_arrangement(RandomSpec(n=n, seed=seed))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 5))
def test_extracted_descriptions_validate(seed, n):
    desc = extract_description(random_arrangement(seed, n))
    report = validate_description(desc)
    assert report.ok and report.simple


@settings(max_examples=15, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(3, 5),
    st.fractions(min_value=-20, max_value=20, max_denominator=10),
    st.fractions(min_value=F(1, 10), max_value=20, max_denominator=10),
)
def test_description_invariant_under_translation_and_scaling(seed, n, shift, scale):
    arr = random_arrangement(seed, n)
    moved = LineArrangement(
        tuple(
            # x -> scale*x + shift, y -> scale*y: slopes unchanged, order preserved
            Line(l.a, l.b, scale * l.c + l.a * shift)
            for l in arr.lines
        )
    )
    assert extract_description(arr).orders == extract_description(moved).orders


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 5))
def test_description_mirror_metamorphic(seed, n):
    # reflecting x -> -x reverses the slope order and every crossing order
    arr = random_arrangement(seed, n)
    mirrored = slope_sorted(tuple(Line(-l.a, l.b, l.c) for l in arr.lines))
    d, dm = extract_description(arr), extract_description(mirrored)
    relabel = lambda k: n + 1 - k
    for i in range(1, n + 1):
        expected = tuple(relabel(k) for k in reversed(d.flat_order(i)))
        assert dm.flat_order(relabel(i)) == expected


# --- reference for is_simple and extract_description ----------------------


def _is_simple_by_sweep(arr):
    """Test every crossing point against every third line."""
    for (i, j), pt in intersections_by_fractions(arr).items():
        for k in range(1, arr.n + 1):
            ln = arr.line(k)
            if k != i and k != j and ln.a * pt.x + ln.b * pt.y == ln.c:
                return False
    return True


def _orders_by_point(arr):
    """Intersect line i with every other line, sort by x, group equal points."""
    orders = []
    for i in range(1, arr.n + 1):
        crossings = sorted(
            (
                (line_intersection(arr.line(i), arr.line(j)), j)
                for j in range(1, arr.n + 1)
                if j != i
            ),
            key=lambda cj: cj[0].x,
        )
        row, current, current_pt = [], [], None
        for pt, j in crossings:
            if current_pt is not None and pt == current_pt:
                current.append(j)
            else:
                if current:
                    row.append(tuple(sorted(current)))
                current, current_pt = [j], pt
        if current:
            row.append(tuple(sorted(current)))
        orders.append(tuple(row))
    return tuple(orders)


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def anchored_arrangements(draw):
    """Lines with distinct slopes, each either free or forced through one of
    two anchor points that share an x coordinate.

    Three or more lines on one anchor are concurrent; two lines on each
    anchor cross at two distinct points with the same x; a slope of 0 puts
    every crossing of that line at the same y.
    """
    ax = draw(small_rationals)
    anchors = draw(st.lists(small_rationals, min_size=2, max_size=2, unique=True))
    slopes = draw(st.lists(small_rationals, min_size=2, max_size=7, unique=True))
    lines = []
    for slope in slopes:
        anchor = draw(st.sampled_from([None, *anchors]))
        intercept = draw(small_rationals) if anchor is None else anchor - slope * ax
        lines.append(line_from_slope_intercept(slope, intercept))
    return slope_sorted(lines)


@settings(max_examples=300, deadline=None)
@given(anchored_arrangements())
def test_simple_iff_singleton_blocks(arr):
    simple = is_simple(arr)
    desc = extract_description(arr)
    assert simple == _is_simple_by_sweep(arr)
    assert desc.orders == _orders_by_point(arr)
    assert validate_description(desc).simple == simple
