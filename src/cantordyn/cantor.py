"""Exact model of the binary Cantor space, its cylinders and partitions.

Points of the space {0,1}^N are represented by finite binary words with an
implicit all-zero tail, so the word "01" stands for the sequence 0,1,0,0,...
The metric is d(x, y) = 1/n where n is the first (1-based) coordinate at
which the sequences differ, and 0 for equal points.  The integer n (0 for
equal points) is their separation, the form every solver works in; a
reported distance is a :class:`fractions.Fraction`.  Nothing touches floats.

Canonical words sorted as strings are in the lexicographic order of their
points, and in that order the separation of any two words is the least
nonzero separation of consecutive words between them (0 when all of those
are 0: the same point).  So the m - 1 gaps of m sorted words (``_gaps``)
hold the whole ultrametric.  The solver works on that sorted form, and the
orbit engine and the tracked families of the grid scans build theirs with
one routine, ``_sorted_form``: the sort order of the words and their gaps.
``separation`` keeps one table of word pairs per process, which those gaps
and ``cell_distance`` read: a run meets a few hundred pairs a hundred
thousand times and more.  The table is least-recently-used and bounded, because
padded orbits make ever new words, and it is registered in ``tables``, which
empties and counts it.

A cylinder is the clopen set of all sequences extending a fixed finite word
(its prefix).  A finite family of pairwise disjoint cylinders covering the
whole space -- a complete prefix code -- is the only kind of partition used
in this library.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import ParameterError
from .tables import table

_BITS = frozenset("01")
_SEPARATION_TABLE_SIZE = 8192  # word pairs; an orbit engine run meets a few hundred


def check_word(w: str) -> str:
    """Validate that ``w`` is a string over {0,1} and return it."""
    if not isinstance(w, str) or not _BITS.issuperset(w):
        raise ParameterError(f"not a binary word: {w!r}")
    return w


def canonical_point(w: str) -> str:
    """Canonical name of the point denoted by ``w``: trailing zeros stripped.

    Two words denote the same point of the Cantor space exactly when their
    canonical forms coincide ("01" and "0100" are the same point).
    """
    return check_word(w).rstrip("0")


@table("separations", _SEPARATION_TABLE_SIZE)
def separation(u: str, v: str) -> int:
    """The integer form n of the distance d = 1/n, and 0 for the same point:
    n - 1 is the 0-based index of the first coordinate where the points
    differ, and past the shorter word the other one differs at its first "1"."""
    if len(u) > len(v):
        u, v = v, u
    for i, a in enumerate(u):
        if a != v[i]:
            return i + 1
    return v.find("1", len(u)) + 1  # find's -1 becomes 0: the same point


def _gaps(words) -> tuple[int, ...]:
    """The separations of consecutive words.  For words in ascending order
    the separation of any two is the least nonzero gap between them, and 0
    when every gap between them is 0 (the same point), so the m - 1 gaps
    hold the whole ultrametric of m words."""
    return tuple(map(separation, words, words[1:]))


def _sorted_form(words) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(order, gaps) of a sequence of words: the word indices by ascending
    word, ties by index, and the ``_gaps`` of the words in that order."""
    order = sorted(range(len(words)), key=words.__getitem__)
    return tuple(order), _gaps([words[i] for i in order])


def point_distance(u: str, v: str) -> Fraction:
    """Distance between two points: 1/n at the first differing coordinate.

    >>> point_distance("", "")
    Fraction(0, 1)
    >>> point_distance("0", "1")
    Fraction(1, 1)
    >>> point_distance("000", "010")
    Fraction(1, 2)
    """
    n = separation(check_word(u), check_word(v))
    return Fraction(1, n) if n else Fraction(0)


def point_in_cylinder(point: str, prefix: str) -> bool:
    """Whether the (zero-extended) point lies in the cylinder of ``prefix``."""
    return point.ljust(len(prefix), "0").startswith(prefix)


def cylinder_contains(outer: str, inner: str) -> bool:
    """Cylinder(inner) is a subset of Cylinder(outer) iff outer prefixes inner."""
    return inner.startswith(outer)


def cylinders_comparable(a: str, b: str) -> bool:
    """Whether two cylinders intersect (one prefix extends the other)."""
    return a.startswith(b) or b.startswith(a)


def cylinder_diameter(prefix: str) -> Fraction:
    """Diameter of a cylinder: 1/(depth+1); the whole space has diameter 1."""
    return Fraction(1, len(check_word(prefix)) + 1)


def cell_distance(a: str, b: str) -> Fraction:
    """The constant distance between points of two disjoint cylinders.

    For disjoint cylinders every pair (one point from each) realises the same
    distance 1/k, where k is the first position at which the prefixes differ.
    Raises for intersecting cylinders, where the distance is not constant.
    """
    check_word(a), check_word(b)
    if cylinders_comparable(a, b):
        raise ParameterError(
            f"cylinders {a!r} and {b!r} intersect; inter-point distance is not constant"
        )
    return Fraction(1, separation(a, b))


def representative(prefix: str) -> str:
    """The leftmost point of a cylinder: prefix followed by the zero tail."""
    return canonical_point(prefix)


def _kraft_sum(prefixes) -> Fraction:
    return sum((Fraction(1, 2 ** len(p)) for p in prefixes), Fraction(0))


def is_complete_prefix_code(prefixes) -> bool:
    """Whether the cylinders of ``prefixes`` tile the whole space.

    A finite set of binary words is a complete prefix code iff it is
    prefix-free and its Kraft sum equals 1.
    """
    ps = list(prefixes)
    if len(set(ps)) != len(ps):
        return False
    for a, b in combinations(ps, 2):
        if cylinders_comparable(a, b):
            return False
    return _kraft_sum(ps) == 1


@dataclass(frozen=True)
class CylinderPartition:
    """A partition of the Cantor space into finitely many cylinders.

    ``cells`` is the tuple of cylinder prefixes in a fixed order; the family
    must form a complete prefix code.  ``standard_partition(n)`` builds the
    uniform partition into the 2^n cylinders of depth n.
    """

    cells: tuple[str, ...]

    def __post_init__(self):
        cells = tuple(check_word(c) for c in self.cells)
        object.__setattr__(self, "cells", cells)
        if not cells:
            raise ParameterError("a partition needs at least one cell")
        if not is_complete_prefix_code(cells):
            raise ParameterError("cells do not form a complete prefix code")

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def mesh(self) -> Fraction:
        """Maximum cell diameter."""
        return max(cylinder_diameter(c) for c in self.cells)

    def min_gap(self) -> Fraction:
        """Minimum distance between two distinct cells."""
        if len(self.cells) < 2:
            raise ParameterError("min_gap needs at least two cells")
        return min(cell_distance(a, b) for a, b in combinations(self.cells, 2))

    def cell_of(self, point: str) -> str:
        """The unique cell containing a point."""
        for c in self.cells:
            if point_in_cylinder(point, c):
                return c
        raise AssertionError("complete code must cover every point")

    def strongly_refines(self, coarser: "CylinderPartition") -> bool:
        """Every cell of self is *properly* contained in a cell of ``coarser``."""
        return all(
            any(cylinder_contains(b, a) and b != a for b in coarser.cells)
            for a in self.cells
        )


def standard_partition(depth: int) -> CylinderPartition:
    """The uniform partition into all 2**depth cylinders of the given depth."""
    if depth < 0:
        raise ParameterError("depth must be nonnegative")
    if depth == 0:
        return CylinderPartition(("",))
    return CylinderPartition(tuple(format(i, f"0{depth}b") for i in range(2**depth)))


def partition_stats(partition: CylinderPartition) -> tuple[Fraction, Fraction]:
    """(mesh, minimum inter-cell gap) of a partition, both exact.

    For the standard depth-n partition these equal 1/(n+1) and 1/n.
    """
    return partition.mesh(), partition.min_gap()


def cells_meeting(cylinders, partition: CylinderPartition) -> set[str]:
    """Cells of ``partition`` meeting a finite union of cylinders.

    ``cylinders`` is any iterable of prefixes; the result is exact because a
    cell meets the union iff it is prefix-comparable with one of its members.
    """
    xs = [check_word(x) for x in cylinders]
    return {c for c in partition.cells if any(cylinders_comparable(c, x) for x in xs)}


def balanced_code(n: int, prefix: str = "") -> list[str]:
    """A complete prefix code with exactly ``n`` words, as balanced as possible.

    Splits n into ceil/floor halves below the two child nodes.  For n a power
    of two this is the uniform code of depth log2(n); the first word is always
    the all-zero one, so the leftmost cell always contains the point of
    ``prefix`` itself.
    """
    if n < 1:
        raise ParameterError("code size must be positive")
    if n == 1:
        return [prefix]
    left = (n + 1) // 2
    return balanced_code(left, prefix + "0") + balanced_code(n - left, prefix + "1")


def normalize_cylinder_union(prefixes) -> tuple[str, ...]:
    """Remove redundant members from a union of cylinders.

    Drops any cylinder contained in another of the family and deduplicates;
    the union of cylinders is unchanged.
    """
    ps = sorted(set(check_word(p) for p in prefixes), key=lambda p: (len(p), p))
    kept: list[str] = []
    for p in ps:
        if not any(cylinder_contains(k, p) for k in kept):
            kept.append(p)
    return tuple(sorted(kept))


def union_is_proper_subset(prefixes, cell: str) -> bool:
    """Whether the union lies inside Cylinder(cell) without covering it."""
    norm = normalize_cylinder_union(prefixes)
    if not all(p.startswith(cell) and p != cell for p in norm):
        return False
    return _kraft_sum(p[len(cell):] for p in norm) < 1
