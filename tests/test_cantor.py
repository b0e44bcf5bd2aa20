"""Metric, cylinder and partition behaviour of the Cantor-space model."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from cantordyn.cantor import (
    CylinderPartition,
    _sorted_form,
    balanced_code,
    canonical_point,
    cell_distance,
    cells_meeting,
    cylinder_contains,
    cylinder_diameter,
    is_complete_prefix_code,
    normalize_cylinder_union,
    partition_stats,
    point_distance,
    representative,
    separation,
    standard_partition,
    union_is_proper_subset,
)
from cantordyn.errors import ParameterError

words_up_to = lambda n: [
    "".join(bits) for k in range(n + 1) for bits in product("01", repeat=k)
]


def oracle_point_distance(u, v):
    """First differing coordinate of the zero-extended sequences, by scan."""
    length = max(len(u), len(v)) + 1
    ext_u = (u + "0" * length)[:length]
    ext_v = (v + "0" * length)[:length]
    for i in range(length):
        if ext_u[i] != ext_v[i]:
            return Fraction(1, i + 1)
    return Fraction(0)


def test_point_distance_examples():
    assert point_distance("", "") == 0
    assert point_distance("0", "1") == 1
    # derived by scanning the zero-extended sequences
    assert oracle_point_distance("000", "010") == Fraction(1, 2)
    assert point_distance("000", "010") == Fraction(1, 2)


def test_point_distance_zero_iff_same_point():
    assert point_distance("0100", "01") == 0
    assert point_distance("", "0000") == 0
    assert point_distance("", "0001") > 0


def test_point_distance_matches_oracle_exhaustively():
    # every word up to length 5, trailing zeros included, in both orders;
    # each pair twice, so that a hit of the separation table is checked too
    ws = words_up_to(5)
    separation.cache_clear()
    for u in ws:
        for v in ws:
            d = oracle_point_distance(u, v)
            for _ in range(2):
                assert point_distance(u, v) == d
                assert separation(u, v) == (d.denominator if d else 0)
    info = separation.cache_info()
    assert info.misses == len(ws) ** 2 and info.hits == 3 * len(ws) ** 2


def test_ultrametric_inequality_exhaustive_depth_6():
    ws = words_up_to(6)
    # quantify over canonical points only; distances ignore zero tails
    pts = sorted({canonical_point(w) for w in ws})
    d = {(u, v): point_distance(u, v) for u in pts for v in pts}
    for u in pts:
        for v in pts:
            duv = d[(u, v)]
            for w in pts:
                assert d[(u, w)] <= max(duv, d[(v, w)])


def test_sorted_gaps_rebuild_every_separation_exhaustively():
    # every tuple of up to 4 canonical words of length <= 4, repeats and all
    # orders included: in the sorted form that ``_sorted_form`` builds for
    # the orbit engine (ties by index), the separation of any two words is
    # the least nonzero gap between them, and 0 when there is none (the
    # same point)
    pts = sorted({canonical_point(w) for w in words_up_to(4)})
    assert len(pts) == 16
    sep = {}
    for u in pts:
        for v in pts:
            d = oracle_point_distance(u, v)
            sep[u, v] = d.denominator if d else 0
    for size in range(1, 5):
        for ws in product(pts, repeat=size):
            order, gaps = _sorted_form(ws)
            at = {i: p for p, i in enumerate(order)}
            for i in range(size):
                for j in range(i + 1, size):
                    a, b = sorted((at[i], at[j]))
                    between = [n for n in gaps[a:b] if n]
                    assert (min(between) if between else 0) == sep[ws[i], ws[j]]


def oracle_cell_distance(a, b, tail_depth):
    """All point pairs, one from each cylinder, with exhaustive tails."""
    tails = ["".join(t) for t in product("01", repeat=tail_depth)]
    values = {point_distance(a + s, b + t) for s in tails for t in tails}
    assert len(values) == 1, "distance must be constant between disjoint cylinders"
    return values.pop()


def test_cell_distance_examples():
    assert cell_distance("0", "1") == 1
    assert oracle_cell_distance("00", "01", 6) == Fraction(1, 2)
    assert cell_distance("00", "01") == Fraction(1, 2)
    assert oracle_cell_distance("01", "11", 6) == 1
    assert cell_distance("01", "11") == 1


def test_cell_distance_rejects_comparable_cylinders():
    with pytest.raises(ParameterError):
        cell_distance("01", "01")
    with pytest.raises(ParameterError):
        cell_distance("0", "01")


def test_cell_distance_constant_on_random_same_depth_pairs():
    import random

    rng = random.Random(5)
    for _ in range(25):
        depth = rng.randint(1, 5)
        a = "".join(rng.choice("01") for _ in range(depth))
        b = a
        while b == a:
            b = "".join(rng.choice("01") for _ in range(depth))
        assert cell_distance(a, b) == oracle_cell_distance(a, b, 4)


def oracle_partition_stats(partition):
    mesh = max(cylinder_diameter(c) for c in partition.cells)
    gap = min(
        oracle_cell_distance(a, b, 3)
        for i, a in enumerate(partition.cells)
        for b in partition.cells[i + 1:]
    )
    return mesh, gap


@pytest.mark.parametrize(
    "depth,expected",
    [
        (1, (Fraction(1, 2), Fraction(1, 1))),
        (2, (Fraction(1, 3), Fraction(1, 2))),
        (5, (Fraction(1, 6), Fraction(1, 5))),
    ],
)
def test_partition_stats_standard(depth, expected):
    partition = standard_partition(depth)
    assert oracle_partition_stats(partition) == expected
    assert partition_stats(partition) == expected


def test_partition_stats_closed_forms_up_to_depth_8():
    for n in range(1, 9):
        assert partition_stats(standard_partition(n)) == (
            Fraction(1, n + 1),
            Fraction(1, n),
        )


def test_cylinder_diameter_by_exhaustive_pairs():
    for prefix in ("", "0", "01", "110"):
        tails = ["".join(t) for t in product("01", repeat=3)]
        realized = max(
            point_distance(prefix + s, prefix + t) for s in tails for t in tails
        )
        assert realized == cylinder_diameter(prefix)


def test_cells_meeting_examples():
    assert cells_meeting(["00"], standard_partition(1)) == {"0"}
    assert cells_meeting(["0"], standard_partition(2)) == {"00", "01"}
    assert cells_meeting(["01", "10"], standard_partition(2)) == {"01", "10"}


def test_complete_prefix_code():
    assert is_complete_prefix_code(["0", "10", "11"])
    assert not is_complete_prefix_code(["0", "10"])  # misses 11...
    assert not is_complete_prefix_code(["0", "01", "1"])  # overlaps
    assert is_complete_prefix_code([""])


def test_partition_rejects_incomplete_cells():
    with pytest.raises(ParameterError):
        CylinderPartition(("0", "10"))
    with pytest.raises(ParameterError):
        CylinderPartition(("0", "0", "1"))


def test_mixed_depth_partition_stats():
    partition = CylinderPartition(("0", "10", "11"))
    mesh, gap = partition_stats(partition)
    assert mesh == Fraction(1, 2)  # the depth-1 cell dominates
    assert gap == oracle_partition_stats(partition)[1]


@given(st.integers(min_value=1, max_value=40))
def test_balanced_code_is_complete(n):
    code = balanced_code(n)
    assert len(code) == n
    assert is_complete_prefix_code(code)
    assert code[0] == "0" * len(code[0])  # leftmost cell holds the zero point


def refines(fine: CylinderPartition, coarse: CylinderPartition) -> bool:
    """Every cell of ``fine`` is contained in some cell of ``coarse``."""
    return all(any(cylinder_contains(b, a) for b in coarse.cells) for a in fine.cells)


def test_refinement_relations():
    p1 = standard_partition(1)
    p2 = standard_partition(2)
    assert refines(p2, p1)
    assert p2.strongly_refines(p1)
    assert not refines(p1, p2)
    assert not p1.strongly_refines(p1)


def test_normalize_and_proper_subset():
    assert normalize_cylinder_union(["01", "010", "00"]) == ("00", "01")
    assert union_is_proper_subset(["010"], "01")
    assert not union_is_proper_subset(["010", "011"], "01")  # covers everything
    assert not union_is_proper_subset(["0"], "01")  # not inside


def test_representative():
    assert representative("0110") == "011"
    assert representative("") == ""
    assert canonical_point("0100") == "01"
