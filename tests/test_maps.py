"""Prefix-table maps: evaluation, symbolic images, digraphs, classification."""

import os
import pickle
import subprocess
import sys
from itertools import product

import pytest

from cantordyn.cantor import (
    canonical_point,
    point_in_cylinder,
    representative,
    standard_partition,
)
from cantordyn.errors import ParameterError
from cantordyn.maps import (
    PrefixTableMap,
    _rewritten,
    classify_components,
    eventual_image,
    graph_of,
    image_cells,
    map_from_dict,
    map_to_dict,
    preimage_cells,
    PartitionDigraph,
)
from cantordyn.measures import dirac, pushforward
from cantordyn.towers import make_balloon_tower, make_dumbbell_tower

IDENTITY = PrefixTableMap((("", ""),))
DOUBLE = PrefixTableMap((("0", "00"), ("1", "01")))
SWAP = PrefixTableMap((("0", "1"), ("1", "0")))
SHUFFLE = PrefixTableMap((("00", "0"), ("01", "10"), ("1", "11")))
CONTRACTION = PrefixTableMap((("0", "00"), ("1", "000")))


def test_complete_code_validation_detects_mutation():
    PrefixTableMap((("0", "1"), ("10", "00"), ("11", "01")))
    with pytest.raises(ParameterError):
        # mutating one domain prefix breaks completeness
        PrefixTableMap((("0", "1"), ("10", "00"), ("01", "01")))
    with pytest.raises(ParameterError):
        PrefixTableMap((("0", "1"),))


def test_apply_examples():
    assert IDENTITY.apply("011") == "011"
    assert DOUBLE.apply("1") == "01"
    # hand evaluation: 10 = 1.0^inf matches rule 1 -> 01, suffix 0^inf
    assert DOUBLE.apply("10") == canonical_point("010")
    for bad in ("012", "a", 1):
        with pytest.raises(ParameterError):
            DOUBLE.apply(bad)


def test_apply_brute_force_against_rule_semantics():
    """Check f(p.s) = q.s on all words below the rule domains."""
    f = SHUFFLE
    for bits in product("01", repeat=5):
        x = "".join(bits)
        matched = [(p, q) for p, q in f.rules if (x + "0" * 8).startswith(p)]
        assert len(matched) == 1
        p, q = matched[0]
        suffix = (x + "0" * 8)[len(p):]
        assert f.apply(x) == canonical_point(q + suffix.rstrip("0"))


def test_image_cells_examples():
    assert image_cells(IDENTITY, "01", 2) == {"01"}
    assert image_cells(DOUBLE, "1", 2) == {"01"}
    # enumerate rule domains inside [0]: 00 -> 0 and 01 -> 10
    assert image_cells(SHUFFLE, "0", 1) == {"0", "1"}


def test_preimage_cells_examples():
    assert preimage_cells(IDENTITY, "10", 2) == {"10"}
    assert preimage_cells(DOUBLE, "1", 1) == set()
    assert preimage_cells(DOUBLE, "0", 1) == {"0", "1"}


def exhaustive_adjointness(f, depth):
    partition = standard_partition(depth)
    for a in partition.cells:
        for b in partition.cells:
            forward = b in image_cells(f, a, partition)
            backward = a in preimage_cells(f, b, partition)
            assert forward == backward, (a, b)


@pytest.mark.parametrize("f", [IDENTITY, DOUBLE, SWAP, SHUFFLE, CONTRACTION])
def test_image_preimage_adjointness(f):
    exhaustive_adjointness(f, 2)
    exhaustive_adjointness(f, 3)


@pytest.mark.parametrize("tower", [
    make_balloon_tower([(3, 2), (5, 2)], [2, 4]),  # not injective
    make_dumbbell_tower((4, 2), 2, bar_length=1),  # a homeomorphism
], ids=["balloon", "dumbbell"])
def test_preimage_cylinders_hold_exactly_the_points_mapped_into_the_cylinder(tower):
    f = tower.table
    assert f.is_homeomorphism() == (tower.kind == "dumbbell")
    prefixes = ["".join(bits) for k in range(4) for bits in product("01", repeat=k)]
    points = {canonical_point("".join(bits)) for k in range(7)
              for bits in product("01", repeat=k)}
    for prefix in prefixes:
        pre = f.preimage_cylinders(prefix)
        for x in points:
            inside = any(point_in_cylinder(x, p) for p in pre)
            assert inside == point_in_cylinder(f.apply(x), prefix), (prefix, x)
        if f.is_homeomorphism():
            assert pre == f.invert().image_cylinders(prefix)


def test_graph_of_examples():
    g = graph_of(IDENTITY, 1)
    assert g.edges == frozenset({("0", "0"), ("1", "1")})
    g = graph_of(SWAP, 1)
    assert g.edges == frozenset({("0", "1"), ("1", "0")})


def test_graph_projection_under_refinement():
    for f in (DOUBLE, SWAP, SHUFFLE, CONTRACTION):
        fine = graph_of(f, 3)
        coarse = graph_of(f, 2)
        projected = {(a[:2], b[:2]) for a, b in fine.edges}
        assert projected == set(coarse.edges)


def test_out_degree_always_positive():
    for f in (IDENTITY, DOUBLE, SWAP, SHUFFLE, CONTRACTION):
        out = graph_of(f, 2).out_map()
        assert all(len(v) >= 1 for v in out.values())


def _digraph(cells, edges):
    from cantordyn.cantor import CylinderPartition

    return PartitionDigraph(CylinderPartition(tuple(cells)), frozenset(edges))


def test_classify_loop():
    shapes = classify_components(graph_of(SWAP, 1))
    assert [(s.kind, s.params) for s in shapes] == [("loop", (2,))]


def test_classify_balloon_by_definition():
    # path of 2 into loop of 3 with the connecting edge
    cells = ["000", "001", "01", "10", "11"]
    edges = {
        ("000", "001"),
        ("001", "01"),
        ("01", "10"),
        ("10", "11"),
        ("11", "01"),
    }
    shape = classify_components(_digraph(cells, edges))[0]
    assert (shape.kind, shape.params) == ("balloon", (2, 3))
    assert shape.cells["path"] == ("000", "001")
    assert shape.cells["loop"] == ("01", "10", "11")


def test_classify_dumbbell_by_definition():
    # two loops of 2 joined by a path of 1
    cells = ["000", "001", "01", "10", "11"]
    edges = {
        ("000", "001"),
        ("001", "000"),
        ("000", "01"),
        ("01", "10"),
        ("10", "11"),
        ("11", "10"),
    }
    shape = classify_components(_digraph(cells, edges))[0]
    assert (shape.kind, shape.params) == ("dumbbell", (2, 1, 2))
    assert shape.cells["left"] == ("000", "001")
    assert shape.cells["bar"] == ("01",)
    assert shape.cells["right"] == ("10", "11")


def test_classify_other():
    cells = ["00", "01", "1"]
    edges = {("00", "01"), ("00", "1"), ("01", "00"), ("1", "1"), ("01", "1")}
    shape = classify_components(_digraph(cells, edges))[0]
    assert shape.kind == "other"


def test_invert_examples():
    assert SWAP.invert().rules == SWAP.rules
    assert SHUFFLE.invert().rules == (("0", "00"), ("10", "01"), ("11", "1"))
    with pytest.raises(ParameterError):
        DOUBLE.invert()  # image prefixes are not complete: misses [1]


def test_invert_roundtrip_pointwise():
    h = SHUFFLE
    h_inv = h.invert()
    for bits in product("01", repeat=5):
        x = canonical_point("".join(bits))
        assert h_inv.apply(h.apply(x)) == x
        assert h.apply(h_inv.apply(x)) == x


def test_eventual_image_examples():
    assert eventual_image(IDENTITY, 2) == {"00", "01", "10", "11"}
    assert eventual_image(CONTRACTION, 2) == {"00"}
    assert eventual_image(CONTRACTION, 3) == {"000"}


def test_eventual_image_surjective_map_keeps_everything():
    assert eventual_image(SWAP, 2) == set(standard_partition(2).cells)


def test_map_serialization_roundtrip():
    data = map_to_dict(SHUFFLE)
    again = map_from_dict(data)
    assert again == SHUFFLE
    assert map_to_dict(again) == data


def test_unpickled_map_hashes_as_one_built_in_its_process():
    # the hash is cached at construction; string hashes differ between
    # processes, so a hash must not travel
    f = make_dumbbell_tower((4, 2), 2, bar_length=1).table
    reordered = PrefixTableMap(tuple(reversed(f.rules)))
    assert reordered == f and hash(reordered) == hash(f)
    points = ["", "1", "011", "0101", "1101", "00000001"]
    images = [f.apply(p) for p in points]
    again = pickle.loads(pickle.dumps(f))
    assert again == f and hash(again) == hash(f)
    assert [again.apply(p) for p in points] == images
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    check = ("import pickle, sys; from cantordyn.maps import PrefixTableMap; "
             "f, points, images = pickle.loads(sys.stdin.buffer.read()); "
             "assert hash(f) == hash(PrefixTableMap(f.rules)); "
             "assert [f.apply(p) for p in points] == images")
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", check], input=pickle.dumps((f, points, images)),
                          env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()


def test_image_table_matches_a_fresh_rewrite():
    balloon = make_balloon_tower([(3, 2), (5, 2)], [2, 4]).table
    tower = make_dumbbell_tower((4, 2), 2, bar_length=1)
    dumbbell = tower.table
    # a balloon's cell images are proper subsets, so only the dumbbell inverts
    assert not balloon.is_homeomorphism()
    tables = [balloon, dumbbell, dumbbell.invert()]
    words = {canonical_point("".join(bits)) for k in range(8) for bits in product("01", repeat=k)}
    # padded words: the orbits of the cell representatives under h and h^-1,
    # as the weak-shadowing refutation runs them
    padded = set()
    for h in tables[1:]:
        for cell in tower.levels[0].partition().cells:
            mu = dirac(representative(cell))
            for _ in range(24):
                mu = pushforward(h, mu)
                padded.update(mu.support)
    assert any(len(w) > 12 for w in padded)
    _rewritten.cache_clear()
    for f in tables:
        for w in sorted(words | padded):
            dom, img = f._match(w)
            fresh = ((img + w[len(dom):]).rstrip("0"), len(dom))
            for computed in (1, 0):  # a miss of the table, then a hit
                misses = _rewritten.cache_info().misses
                assert _rewritten(f, w) == fresh, (f.rules, w)
                assert _rewritten.cache_info().misses == misses + computed
            assert f._image(w) == fresh[0]
