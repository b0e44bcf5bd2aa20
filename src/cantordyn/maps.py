"""Continuous self-maps of the Cantor space as prefix-rewrite tables.

A map is a finite list of rules (p_i -> q_i): the point p_i . s is sent to
q_i . s, where s is the rest of the sequence.  The rule domains must form a
complete prefix code, so every point matches exactly one rule; continuity is
automatic.  The map is a homeomorphism exactly when the image prefixes also
form a complete prefix code.

Images and preimages of cylinders are computed symbolically as finite unions
of cylinders, never by sampling, which makes transition digraphs over
partitions exact.

Images of points come from one image table per process, ``_rewritten``,
keyed on (map, canonical word): it holds the image and the length of the
fired rule's domain, which the orbit engine's pad test reads too.  An orbit
meets the same few words again and again -- the weak-shadowing refutation
asks for 36 pairs about 78,000 times -- so each is rewritten once.  The
table is least-recently-used and bounded, because padded orbits make ever
longer words, and it is registered in ``tables``, which empties and counts
it.  A map caches the hash of its sorted rules, which every lookup
hashes, and an unpickled map is rebuilt from its rules, because a string
hash differs between processes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cantor import (
    CylinderPartition,
    canonical_point,
    cells_meeting,
    check_word,
    cylinders_comparable,
    is_complete_prefix_code,
    normalize_cylinder_union,
    standard_partition,
)
from .errors import ParameterError
from .tables import table

_IMAGE_TABLE_SIZE = 4096  # (map, word) pairs; an orbit engine run meets a few dozen


@dataclass(frozen=True)
class PrefixTableMap:
    """A continuous map given by prefix-rewrite rules (domain -> image)."""

    rules: tuple[tuple[str, str], ...]

    def __post_init__(self):
        rules = tuple(
            (check_word(d), check_word(i)) for d, i in self.rules
        )
        rules = tuple(sorted(rules))
        object.__setattr__(self, "rules", rules)
        if not is_complete_prefix_code([d for d, _ in rules]):
            raise ParameterError("rule domains must form a complete prefix code")
        by_len: dict[int, dict[str, str]] = {}
        for d, i in rules:
            by_len.setdefault(len(d), {})[d] = i
        object.__setattr__(self, "_by_len", by_len)
        object.__setattr__(self, "_lens", sorted(by_len))
        object.__setattr__(self, "_hash", hash(rules))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt, not copied: a string hash differs between processes
        return PrefixTableMap, (self.rules,)

    def _match(self, point: str) -> tuple[str, str]:
        for length in self._lens:
            key = point[:length] if len(point) >= length else point.ljust(length, "0")
            img = self._by_len[length].get(key)
            if img is not None:
                return key, img
        raise AssertionError("complete prefix code must match every point")

    def apply(self, point: str) -> str:
        """Image of a point, returned in canonical (zero-tail) form."""
        return self._image(canonical_point(point))

    def _image(self, point: str) -> str:
        """``apply`` for a point already in canonical form, unchecked."""
        return _rewritten(self, point)[0]

    def is_homeomorphism(self) -> bool:
        return is_complete_prefix_code([i for _, i in self.rules])

    def invert(self) -> "PrefixTableMap":
        """Inverse table (domains and images swapped); needs a bijective table."""
        if not self.is_homeomorphism():
            raise ParameterError("map is not invertible: image prefixes are not a complete code")
        return PrefixTableMap(tuple((i, d) for d, i in self.rules))

    def image_cylinders(self, prefix: str) -> tuple[str, ...]:
        """f(Cylinder(prefix)) as a normalized finite union of cylinders."""
        return _rewrite(self.rules, prefix)

    def preimage_cylinders(self, prefix: str) -> tuple[str, ...]:
        """f^{-1}(Cylinder(prefix)) as a normalized finite union of cylinders."""
        return _rewrite(((i, d) for d, i in self.rules), prefix)

    def iterated_image_cylinders(self, prefixes, n: int) -> tuple[str, ...]:
        """Image of a union of cylinders under f^n, symbolically."""
        current = normalize_cylinder_union(prefixes)
        for _ in range(n):
            step: list[str] = []
            for p in current:
                step.extend(self.image_cylinders(p))
            current = normalize_cylinder_union(step)
        return current


def _rewrite(pairs, prefix: str) -> tuple[str, ...]:
    """Cylinder(prefix) read through the rules (a -> b) of ``pairs``, as a
    normalized finite union of cylinders: each a that meets it sends it to
    b followed by the rest of ``prefix`` past a, which is empty when a
    extends ``prefix``."""
    prefix = check_word(prefix)
    return normalize_cylinder_union(
        b + prefix[len(a):] for a, b in pairs if cylinders_comparable(a, prefix))


@table("images", _IMAGE_TABLE_SIZE)
def _rewritten(f: PrefixTableMap, point: str) -> tuple[str, int]:
    """(image, length of the fired rule's domain) of a canonical point: the
    image table.  Equal maps have equal rules, so a hit is a fresh rewrite."""
    dom, img = f._match(point)
    return (img + point[len(dom):]).rstrip("0"), len(dom)


def _as_partition(partition_or_depth) -> CylinderPartition:
    if isinstance(partition_or_depth, CylinderPartition):
        return partition_or_depth
    return standard_partition(int(partition_or_depth))


def image_cells(f: PrefixTableMap, prefix: str, partition_or_depth) -> set[str]:
    """Cells of the partition meeting f(Cylinder(prefix)); exact."""
    return cells_meeting(f.image_cylinders(prefix), _as_partition(partition_or_depth))


def preimage_cells(f: PrefixTableMap, prefix: str, partition_or_depth) -> set[str]:
    """Cells of the partition meeting f^{-1}(Cylinder(prefix)); may be empty."""
    return cells_meeting(f.preimage_cylinders(prefix), _as_partition(partition_or_depth))


@dataclass(frozen=True)
class PartitionDigraph:
    """Transition digraph of a map over a partition.

    Vertices are the cells; there is an edge a -> b iff f(a) meets b.
    """

    partition: CylinderPartition
    edges: frozenset[tuple[str, str]]

    def out_map(self) -> dict[str, set[str]]:
        out = {c: set() for c in self.partition.cells}
        for a, b in self.edges:
            out[a].add(b)
        return out


def graph_of(f: PrefixTableMap, partition_or_depth) -> PartitionDigraph:
    """The exact transition digraph of ``f`` over the given partition."""
    partition = _as_partition(partition_or_depth)
    edges = set()
    for a in partition.cells:
        for b in image_cells(f, a, partition):
            edges.add((a, b))
    return PartitionDigraph(partition, frozenset(edges))


@dataclass(frozen=True)
class ComponentShape:
    """Classified weakly connected component of a partition digraph.

    ``kind`` is one of "loop", "balloon", "dumbbell", "other".  ``params``
    holds the shape type: (n,) for a loop, (s, t) for a balloon of path
    length s and cycle length t, (r, s, t) for a dumbbell.  ``cells`` maps
    role names ("path", "loop", "left", "bar", "right", "vertices") to cell
    tuples in the usual labeling.
    """

    kind: str
    params: tuple[int, ...]
    cells: dict


def _weak_components(vertices, edges) -> list[set[str]]:
    adj: dict[str, set[str]] = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen: set[str] = set()
    comps = []
    for v in sorted(vertices):
        if v in seen:
            continue
        stack, comp = [v], set()
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(adj[x] - comp)
        seen |= comp
        comps.append(comp)
    return comps


def _walk_to_cycle(out: dict[str, str], start: str) -> tuple[list[str], list[str]]:
    """Follow unique out-edges; split the walk into (tail, cycle)."""
    order, pos = [], {}
    x = start
    while x not in pos:
        pos[x] = len(order)
        order.append(x)
        x = out[x]
    k = pos[x]
    return order[:k], order[k:]


def _classify_one(comp: set[str], edges: set[tuple[str, str]]) -> ComponentShape:
    sub = {(a, b) for a, b in edges if a in comp}
    outdeg = {v: 0 for v in comp}
    indeg = {v: 0 for v in comp}
    for a, b in sub:
        outdeg[a] += 1
        indeg[b] += 1
    nv, ne = len(comp), len(sub)

    def other():
        return ComponentShape("other", (nv,), {"vertices": tuple(sorted(comp))})

    if all(d == 1 for d in outdeg.values()):
        out = {a: b for a, b in sub}
        sources = [v for v in comp if indeg[v] == 0]
        if not sources and ne == nv:
            # single cycle through everything
            start = min(comp)
            tail, cycle = _walk_to_cycle(out, start)
            if not tail and len(cycle) == nv:
                expected = {(cycle[i], cycle[(i + 1) % nv]) for i in range(nv)}
                if expected == sub:
                    return ComponentShape("loop", (nv,), {"loop": tuple(cycle)})
            return other()
        if len(sources) == 1 and ne == nv:
            tail, cycle = _walk_to_cycle(out, sources[0])
            s, t = len(tail), len(cycle)
            if s >= 1 and t >= 1 and s + t == nv:
                expected = {(tail[i], tail[i + 1]) for i in range(s - 1)}
                expected |= {(cycle[i], cycle[(i + 1) % t]) for i in range(t)}
                expected.add((tail[-1], cycle[0]))
                if expected == sub:
                    return ComponentShape(
                        "balloon", (s, t), {"path": tuple(tail), "loop": tuple(cycle)}
                    )
        return other()

    # dumbbell candidate: one branching vertex, one merge vertex, one extra edge
    branch = [v for v in comp if outdeg[v] == 2]
    if len(branch) != 1 or ne != nv + 1:
        return other()
    if any(d > 2 or d == 0 for d in outdeg.values()):
        return other()
    u1 = branch[0]
    for exit_edge in sorted(e for e in sub if e[0] == u1):
        reduced = {e for e in sub if e != exit_edge}
        out = {a: b for a, b in reduced}
        if set(out) != comp:
            continue
        tail, left = _walk_to_cycle(out, u1)
        if tail or u1 not in left:
            continue
        # left loop labeled from u1; the removed edge leads into the bar
        bar_head = exit_edge[1]
        tail2, right = _walk_to_cycle(out, bar_head)
        if not tail2 or set(tail2) & set(left):
            continue
        r, s, t = len(left), len(tail2), len(right)
        if r + s + t != nv:
            continue
        expected = {(left[i], left[(i + 1) % r]) for i in range(r)}
        expected |= {(right[i], right[(i + 1) % t]) for i in range(t)}
        expected |= {(tail2[i], tail2[i + 1]) for i in range(s - 1)}
        expected.add((u1, bar_head))
        expected.add((tail2[-1], right[0]))
        if expected == sub:
            return ComponentShape(
                "dumbbell",
                (r, s, t),
                {"left": tuple(left), "bar": tuple(tail2), "right": tuple(right)},
            )
    return other()


def classify_components(graph: PartitionDigraph) -> list[ComponentShape]:
    """Split the digraph into weak components and match each against the
    loop / balloon / dumbbell edge patterns, in the usual labeling."""
    edges = set(graph.edges)
    comps = _weak_components(graph.partition.cells, edges)
    return [_classify_one(c, edges) for c in comps]


def eventual_image(f: PrefixTableMap, partition_or_depth) -> set[str]:
    """Cells surviving repeated application of the cell-image operator.

    Starting from the full cell set, repeatedly keep only cells receiving an
    edge from a surviving cell; the fixed point is reached in at most
    ``len(cells)`` steps.  This is the partition-level shadow of the
    decreasing sequence of image sets of the whole space.
    """
    partition = _as_partition(partition_or_depth)
    out = graph_of(f, partition).out_map()
    alive = set(partition.cells)
    while True:
        nxt = set()
        for a in alive:
            nxt |= out[a]
        nxt &= alive
        if nxt == alive:
            return alive
        alive = nxt


def map_to_dict(f: PrefixTableMap) -> dict:
    """JSON-able form of a map; rules as bit-string pairs."""
    return {"rules": [[d, i] for d, i in f.rules]}


_JSON_TYPES = {dict: "an object", list: "a list", int: "an integer"}


def _expect(value, kind: type, what: str):
    """``value`` when it has the JSON type ``kind``, else ParameterError."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParameterError(f"{what} must be {_JSON_TYPES[kind]}, not {value!r}")
    return value


def map_from_dict(data: dict) -> PrefixTableMap:
    rules = _expect(data["rules"], list, "the rules")
    for rule in rules:
        if not isinstance(rule, list) or len(rule) != 2:
            raise ParameterError(f"a rule must be a [domain, image] pair, not {rule!r}")
    return PrefixTableMap(tuple((d, i) for d, i in rules))
