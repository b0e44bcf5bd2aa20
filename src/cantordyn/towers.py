"""Generators for maps whose partition digraphs are balloons or dumbbells.

A *balloon tower* is a continuous (non-surjective) map together with a
nested family of cylinder partitions such that at every certified level each
weak component of the transition digraph is a balloon of type (m, m), m the
level's loop length, and every cell image is a proper subcylinder of its
successor cell.  A *dumbbell tower* is a homeomorphism whose digraph at the
certified level consists of balanced dumbbells carrying exactly cycling
"stay" subcylinders in both loops (the left/right loop witnesses).

The balloon construction nests: each component at level k+1 is assigned a
parent at level k, its initial vertex sits inside the parent's initial
vertex, and its path and loop wind through the parent's cells.  Rules are
emitted only for the finest level; one rule per cell, mapping the cell onto
the all-zero subcylinder of its successor cell, which makes every cell
representative (prefix plus zero tail) move to the representative of the
successor cell.

``certify_tower`` matches the declared components to the shapes found by
``maps.classify_components``, the one description of both edge patterns.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from math import factorial
from typing import ClassVar

from .cantor import (
    CylinderPartition,
    balanced_code,
    cylinder_contains,
    normalize_cylinder_union,
    union_is_proper_subset,
)
from .errors import CertificationError, ParameterError
from .maps import (
    PrefixTableMap,
    _expect,
    classify_components,
    graph_of,
    map_from_dict,
    map_to_dict,
)


class _Component:
    """What the roles of a component mean, said once for both shapes.

    ``ROLES`` lists the role fields in cell order, as ``classify_components``
    reports them; ``LOOPS`` maps each loop name of ``AdmissibleChoice.loop``
    to its role, right first; ``TRANSIENT`` names the role whose cells the
    periodic and chain-recurrent measures may not charge.
    """

    @property
    def cells(self) -> tuple[str, ...]:
        return sum((getattr(self, role) for role in self.ROLES), ())

    @property
    def initial_vertex(self) -> str:
        return self.cells[0]

    def loop_cells(self, which: str) -> tuple[str, ...]:
        return getattr(self, self.LOOPS[which])

    @property
    def transient(self) -> tuple[str, ...]:
        return getattr(self, self.TRANSIENT)


@dataclass(frozen=True)
class BalloonComponent(_Component):
    """One balloon: path cells v_1..v_m and loop cells w_1..w_m."""

    ROLES: ClassVar[tuple[str, ...]] = ("path", "loop")
    LOOPS: ClassVar[dict[str, str]] = {"right": "loop"}
    TRANSIENT: ClassVar[str] = "path"

    path: tuple[str, ...]
    loop: tuple[str, ...]
    parent: int | None = None


@dataclass(frozen=True)
class DumbbellComponent(_Component):
    """One balanced dumbbell: left loop, bar, right loop, and the two
    clopen subcylinders that cycle exactly with their loops."""

    ROLES: ClassVar[tuple[str, ...]] = ("left", "bar", "right")
    LOOPS: ClassVar[dict[str, str]] = {"right": "right", "left": "left"}
    TRANSIENT: ClassVar[str] = "bar"

    left: tuple[str, ...]
    bar: tuple[str, ...]
    right: tuple[str, ...]
    left_witness: str
    right_witness: str
    parent: int | None = None


# per tower kind, the component class that describes its shape
_SHAPES = {"balloon": BalloonComponent, "dumbbell": DumbbellComponent}


@dataclass(frozen=True)
class TowerLevel:
    q: int
    components: tuple

    @property
    def loop_length(self) -> int:
        return factorial(self.q)

    def partition(self) -> CylinderPartition:
        cells: list[str] = []
        for comp in self.components:
            cells.extend(comp.cells)
        return CylinderPartition(tuple(cells))


@dataclass(frozen=True)
class MapTower:
    """A map together with the levels at which its digraph shape is certified."""

    kind: str  # "balloon" | "dumbbell"
    table: PrefixTableMap
    levels: tuple[TowerLevel, ...]

    def level_with_mesh_below(self, eps: Fraction) -> int:
        for idx, level in enumerate(self.levels):
            if level.partition().mesh() < eps:
                return idx
        raise ParameterError(f"no certified level has mesh below {eps}")


def make_balloon_tower(levels: list[tuple[int, int]], counts: list[int]) -> MapTower:
    """Build a balloon tower.

    ``levels`` lists (max_depth, q) per certified level, depths strictly
    increasing and q nondecreasing; ``counts`` gives the number of balloons
    per level, where each count after the first must be a multiple (ratio at
    least 2) of its predecessor so the partitions refine strongly.  Raises
    ParameterError when the requested cells do not fit within the depth.
    """
    if not levels or len(levels) != len(counts):
        raise ParameterError("levels and counts must be nonempty and equal length")
    for depth, q in levels:
        if depth < 0 or q < 0:
            raise ParameterError(f"levels {depth}:{q}: depth and q must be at least 0")
    if min(counts) < 1:
        raise ParameterError(f"counts {counts}: every level needs at least one component")
    for (_, q0), (_, q1) in zip(levels, levels[1:]):
        if q1 < q0:
            raise ParameterError("loop parameters must be nondecreasing")
    for (d0, _), (d1, _) in zip(levels, levels[1:]):
        if d1 <= d0:
            raise ParameterError("depths must be strictly increasing")
    for n0, n1 in zip(counts, counts[1:]):
        if n1 % n0 != 0 or n1 // n0 < 2:
            raise ParameterError(
                "component counts must grow by an integer factor of at least 2 "
                "so that each cell splits properly"
            )

    ms = [factorial(q) for _, q in levels]
    for (depth, q), n, m in zip(levels, counts, ms):
        need = n * 2 * m
        if need > 2**depth:
            raise ParameterError(
                f"infeasible: {n} balloon(s) of loop length {m} need {need} "
                f"cells, more than the {2**depth} available at depth {depth}"
            )

    # level 0 cells
    comp_prefixes = balanced_code(counts[0])
    components: list[BalloonComponent] = []
    for prefix in comp_prefixes:
        codes = balanced_code(2 * ms[0], prefix=prefix)
        components.append(
            BalloonComponent(path=tuple(codes[: ms[0]]), loop=tuple(codes[ms[0]:]))
        )
    level_list = [TowerLevel(levels[0][1], tuple(components))]

    for k in range(1, len(levels)):
        prev = level_list[-1].components
        m_prev, m_cur = ms[k - 1], ms[k]
        ratio = counts[k] // counts[k - 1]
        # child c of parent pi is children[pi * ratio + c]
        children = [
            {"path": [None] * m_cur, "loop": [None] * m_cur} for _ in range(len(prev) * ratio)
        ]
        for pi, parent in enumerate(prev):
            for j in range(1, m_prev + 1):
                # slots inside parent path cell v_j: one path position per child
                slots = [("path", c, j) for c in range(ratio)]
                codes = balanced_code(len(slots), prefix=parent.path[j - 1])
                for code, (role, c, pos) in zip(codes, slots):
                    children[pi * ratio + c][role][pos - 1] = code
                # slots inside parent loop cell w_j: per child, the loop
                # positions congruent to j first (aligned position leftmost),
                # then the winding path positions
                slots = []
                for c in range(ratio):
                    slots.extend(
                        ("loop", c, ell) for ell in range(j, m_cur + 1, m_prev)
                    )
                    slots.extend(
                        ("path", c, m_prev + x)
                        for x in range(j, m_cur - m_prev + 1, m_prev)
                    )
                codes = balanced_code(len(slots), prefix=parent.loop[j - 1])
                for code, (role, c, pos) in zip(codes, slots):
                    children[pi * ratio + c][role][pos - 1] = code
        comps = tuple(
            BalloonComponent(
                path=tuple(ch["path"]), loop=tuple(ch["loop"]), parent=i // ratio
            )
            for i, ch in enumerate(children)
        )
        level_list.append(TowerLevel(levels[k][1], comps))

    for (depth, _), level in zip(levels, level_list):
        actual = max(len(c) for c in level.partition().cells)
        if actual > depth:
            raise ParameterError(
                f"construction needs depth {actual}, exceeding the requested {depth}"
            )

    rules = []
    for comp in level_list[-1].components:
        # each cell's successor is the next cell; the last loop cell's is loop[0]
        successors = comp.cells[1:] + comp.loop[:1]
        rules.extend((cell, nxt + "0") for cell, nxt in zip(comp.cells, successors))
    tower = MapTower("balloon", PrefixTableMap(tuple(rules)), tuple(level_list))
    certify_tower(tower)
    return tower


def make_dumbbell_tower(
    level: tuple[int, int], count: int, bar_length: int = 1
) -> MapTower:
    """Build a homeomorphism whose digraph is ``count`` balanced dumbbells.

    Each left loop splits into a "stay" subcylinder cycling exactly with the
    loop (the left-loop witness) and a draining track feeding the bar; bar
    mass enters the right loop through ever-deeper subcylinders so the table
    stays bijective, and the right stay track is the right-loop witness.
    """
    depth, q = level
    if depth < 0 or q < 0:
        raise ParameterError(f"level {depth}:{q}: depth and q must be at least 0")
    if count < 1:
        raise ParameterError(f"count {count}: need at least one component")
    if bar_length < 1:
        raise ParameterError(f"bar_length {bar_length}: every bar needs at least one cell")
    m = factorial(q)
    need = count * (2 * m + bar_length)
    if need > 2**depth:
        raise ParameterError(
            f"infeasible: {count} dumbbell(s) need {need} cells, more than "
            f"the {2**depth} available at depth {depth}"
        )
    components = []
    rules = []
    for prefix in balanced_code(count):
        codes = balanced_code(2 * m + bar_length, prefix=prefix)
        u = codes[:m]
        v = codes[m: m + bar_length]
        w = codes[m + bar_length:]
        for j in range(m):
            rules.append((u[j] + "0", u[(j + 1) % m] + "0"))
            rules.append((w[j] + "0", w[(j + 1) % m] + "0"))
        rules.append((u[0] + "10", u[1 % m] + "1"))
        rules.append((u[0] + "11", v[0]))
        for j in range(1, m):
            rules.append((u[j] + "1", u[(j + 1) % m] + "1"))
        for j in range(bar_length - 1):
            rules.append((v[j], v[j + 1]))
        rules.append((v[bar_length - 1], w[0] + "11"))
        for j in range(m - 1):
            rules.append((w[j] + "1", w[j + 1] + "1"))
        rules.append((w[m - 1] + "1", w[0] + "10"))
        components.append(
            DumbbellComponent(
                left=tuple(u),
                bar=tuple(v),
                right=tuple(w),
                left_witness=u[0] + "0",
                right_witness=w[0] + "0",
            )
        )
    tower = MapTower(
        "dumbbell", PrefixTableMap(tuple(rules)), (TowerLevel(q, tuple(components)),)
    )
    certify_tower(tower)
    return tower


def certify_tower(tower: MapTower) -> None:
    """Re-verify every declared level against the map; raise on any mismatch.

    Checks: partitions refine strongly with shrinking mesh; each component
    has the tower's kind, and its role cells in order (path, loop; or left,
    bar, right) are the ``cells`` of a shape of that kind, with loops of the
    level's loop length, that ``classify_components`` finds in the level's
    digraph; balloon images are proper subcylinders of their successors;
    dumbbell tables are bijective and their loop witnesses cycle exactly;
    initial vertices nest across levels along the declared parents.

    The shape check is as strong as matching the digraph's edge set to the
    declared patterns: the classifier returns a shape only when a weak
    component's edges are exactly its pattern under the one labelling that
    fits, and the declared components cover every cell once.
    """
    if tower.kind not in _SHAPES:
        raise CertificationError(f"unknown tower kind {tower.kind!r}")
    component_class = _SHAPES[tower.kind]
    f = tower.table
    prev_partition = None
    prev_components = None
    for li, level in enumerate(tower.levels):
        m = level.loop_length
        partition = level.partition()
        if prev_partition is not None:
            if not partition.strongly_refines(prev_partition):
                raise CertificationError(f"level {li} does not strongly refine level {li-1}")
            if not partition.mesh() < prev_partition.mesh():
                raise CertificationError(f"mesh does not shrink at level {li}")
        graph = graph_of(f, partition)
        # shapes of the tower's kind whose first and last roles (a balloon's
        # path and loop, a dumbbell's two loops) have the level's loop length
        classified = {
            tuple(shape.cells.items())
            for shape in classify_components(graph)
            if shape.kind == tower.kind and shape.params[0] == shape.params[-1] == m
        }
        for comp in level.components:
            if not isinstance(comp, component_class):
                raise CertificationError(f"{tower.kind} tower with a {type(comp).__name__}")
            if tuple((role, getattr(comp, role)) for role in comp.ROLES) not in classified:
                raise CertificationError(
                    f"digraph at level {li} does not match the declared shape "
                    f"with loops of length {m}"
                )
        if tower.kind == "balloon":
            # the shape check left every cell exactly one out-edge
            for cell, (target,) in graph.out_map().items():
                if not union_is_proper_subset(f.image_cylinders(cell), target):
                    raise CertificationError(
                        f"image of {cell!r} is not a proper subcylinder of {target!r}"
                    )
        else:
            if not f.is_homeomorphism():
                raise CertificationError("dumbbell tower table is not bijective")
            for comp in level.components:
                for which in comp.LOOPS:
                    witness = getattr(comp, f"{which}_witness")
                    period = len(comp.loop_cells(which))
                    back = f.iterated_image_cylinders((witness,), period)
                    if back != normalize_cylinder_union((witness,)):
                        raise CertificationError(
                            f"loop witness {witness!r} does not return after {period} steps"
                        )
        if prev_components is not None:
            for comp in level.components:
                if comp.parent is None or not (0 <= comp.parent < len(prev_components)):
                    raise CertificationError("missing parent link at refined level")
                parent = prev_components[comp.parent]
                if not cylinder_contains(parent.initial_vertex, comp.initial_vertex):
                    raise CertificationError(
                        "initial vertex does not nest inside its parent's"
                    )
        prev_partition, prev_components = partition, level.components


# ---------------------------------------------------------------------------
# serialization

_MAP_FORMAT = "cantordyn-map-v1"


def tower_to_dict(tower: MapTower) -> dict:
    """JSON-able form of a tower: the map's rules and each level's components."""
    return {
        "format": _MAP_FORMAT,
        "kind": tower.kind,
        **map_to_dict(tower.table),
        "levels": [
            {"q": level.q, "components": [asdict(comp) for comp in level.components]}
            for level in tower.levels
        ],
    }


def tower_from_dict(data: dict) -> MapTower:
    """Load and certify a tower written by ``tower_to_dict``; ParameterError
    unless ``data`` is a well-formed balloon or dumbbell map of this format."""
    _expect(data, dict, "a map file")
    # the kind is compared by equality: a JSON list is not hashable
    if data.get("format") != _MAP_FORMAT or data.get("kind") not in tuple(_SHAPES):
        raise ParameterError(
            f"not a balloon or dumbbell map of format {_MAP_FORMAT!r}: "
            f"format {data.get('format')!r}, kind {data.get('kind')!r}"
        )
    component_class = _SHAPES[data["kind"]]

    def component(record):
        _expect(record, dict, "a component")
        values = {field.name: record[field.name] for field in fields(component_class)}
        for role in component_class.ROLES:  # JSON holds each tuple of cells as a list
            values[role] = tuple(_expect(values[role], list, f"the {role} cells"))
        if values["parent"] is not None:
            _expect(values["parent"], int, "a parent link")
        return component_class(**values)

    def level(record) -> TowerLevel:
        _expect(record, dict, "a level")
        components = _expect(record["components"], list, "a level's components")
        q = _expect(record["q"], int, "a level's q")
        return TowerLevel(q, tuple(component(c) for c in components))

    levels = tuple(level(lv) for lv in _expect(data["levels"], list, "the levels"))
    tower = MapTower(data["kind"], map_from_dict(data), levels)
    certify_tower(tower)
    return tower
