"""Balloon and dumbbell tower generation, certification, serialization."""

import json
from dataclasses import replace

import pytest

from cantordyn.cantor import cylinder_contains, representative, union_is_proper_subset
from cantordyn.errors import CertificationError, ParameterError
from cantordyn.maps import PrefixTableMap, classify_components, eventual_image, graph_of
from cantordyn.towers import (
    BalloonComponent,
    DumbbellComponent,
    MapTower,
    TowerLevel,
    certify_tower,
    make_balloon_tower,
    make_dumbbell_tower,
    tower_from_dict,
    tower_to_dict,
)


def test_single_level_balloon_q2():
    tower = make_balloon_tower([(2, 2)], [1])
    level = tower.levels[0]
    partition = level.partition()
    assert len(partition) == 4  # 2 path + 2 loop cells
    shapes = classify_components(graph_of(tower.table, partition))
    assert [(s.kind, s.params) for s in shapes] == [("balloon", (2, 2))]


def test_balloon_strictness_at_extra_depth():
    tower = make_balloon_tower([(2, 2)], [1])
    comp = tower.levels[0].components[0]
    f = tower.table
    succ = {
        comp.path[0]: comp.path[1],
        comp.path[1]: comp.loop[0],
        comp.loop[0]: comp.loop[1],
        comp.loop[1]: comp.loop[0],
    }
    for cell, target in succ.items():
        image = f.image_cylinders(cell)
        assert union_is_proper_subset(image, target)
    # the two cells feeding the loop entry land in a common proper subcell
    tail = f.image_cylinders(comp.path[1]) + f.image_cylinders(comp.loop[1])
    assert union_is_proper_subset(tail, comp.loop[0])


def test_two_level_nesting():
    tower = make_balloon_tower([(2, 2), (4, 2)], [1, 2])
    parents = tower.levels[0].components
    for child in tower.levels[1].components:
        parent = parents[child.parent]
        assert cylinder_contains(parent.initial_vertex, child.initial_vertex)
        assert parent.initial_vertex != child.initial_vertex
    assert tower.levels[1].partition().strongly_refines(tower.levels[0].partition())


def test_infeasible_parameters():
    with pytest.raises(ParameterError, match="12 cells"):
        make_balloon_tower([(2, 3)], [1])
    with pytest.raises(ParameterError):
        make_balloon_tower([(2, 2), (4, 2)], [1, 1])  # no proper splitting
    with pytest.raises(ParameterError):
        make_balloon_tower([(4, 3), (6, 2)], [1, 2])  # q decreasing


def test_balloon_map_not_surjective():
    tower = make_balloon_tower([(2, 2)], [1])
    with pytest.raises(ParameterError):
        tower.table.invert()


def test_growing_q_tower_certifies():
    tower = make_balloon_tower([(3, 1), (6, 2)], [1, 2])
    assert tower.levels[0].loop_length == 1
    assert tower.levels[1].loop_length == 2
    certify_tower(tower)  # does not raise


def test_q3_balloon_tower():
    tower = make_balloon_tower([(5, 3), (7, 3)], [2, 4])
    for level in tower.levels:
        shapes = classify_components(graph_of(tower.table, level.partition()))
        assert all((s.kind, s.params) == ("balloon", (6, 6)) for s in shapes)


def test_single_dumbbell():
    tower = make_dumbbell_tower((3, 2), 1, bar_length=1)
    shapes = classify_components(graph_of(tower.table, tower.levels[0].partition()))
    assert [(s.kind, s.params) for s in shapes] == [("dumbbell", (2, 1, 2))]
    assert tower.table.is_homeomorphism()
    inverse = tower.table.invert()
    assert inverse.invert() == tower.table


def test_dumbbell_loop_witnesses_cycle_exactly():
    tower = make_dumbbell_tower((4, 2), 2, bar_length=1)
    h = tower.table
    for comp in tower.levels[0].components:
        for witness, cells in (
            (comp.left_witness, comp.left),
            (comp.right_witness, comp.right),
        ):
            back = h.iterated_image_cylinders((witness,), len(cells))
            assert back == (witness,)
            # strictly smaller powers move the witness elsewhere
            assert h.iterated_image_cylinders((witness,), 1) != (witness,)


def test_dumbbell_eventual_image_keeps_all_cells():
    # a homeomorphism is surjective: nothing ever dies at the cell level
    tower = make_dumbbell_tower((4, 2), 2, bar_length=1)
    partition = tower.levels[0].partition()
    assert eventual_image(tower.table, partition) == set(partition.cells)


def test_balloon_eventual_image_keeps_only_loops():
    tower = make_balloon_tower([(3, 2), (5, 2)], [2, 4])
    partition = tower.levels[0].partition()
    survivors = eventual_image(tower.table, partition)
    loops = {c for comp in tower.levels[0].components for c in comp.loop}
    assert survivors == loops


def test_identity_claimed_as_dumbbell_is_rejected():
    identity = PrefixTableMap((("0", "0"), ("1", "1")))
    fake = MapTower(
        "dumbbell",
        identity,
        (
            TowerLevel(
                1,
                (
                    DumbbellComponent(
                        left=("0",),
                        bar=(),
                        right=("1",),
                        left_witness="00",
                        right_witness="10",
                    ),
                ),
            ),
        ),
    )
    with pytest.raises(CertificationError):
        certify_tower(fake)


def test_wrong_shape_declaration_is_rejected():
    tower = make_balloon_tower([(2, 2)], [1])
    comp = tower.levels[0].components[0]
    # swap path and loop labels: edge sets no longer match
    bad = MapTower(
        "balloon",
        tower.table,
        (TowerLevel(2, (BalloonComponent(path=comp.loop, loop=comp.path),)),),
    )
    with pytest.raises(CertificationError):
        certify_tower(bad)


@pytest.mark.parametrize("kind", ["balloon", "dumbbell"])
def test_rotated_loop_declaration_is_rejected(kind):
    # the declared cells are the digraph's, in the wrong order: a check on
    # role cell sets instead of labellings would accept it
    if kind == "balloon":
        tower = make_balloon_tower([(3, 2)], [1])
        comp = tower.levels[0].components[0]
        rotated = BalloonComponent(path=comp.path, loop=comp.loop[1:] + comp.loop[:1])
    else:
        tower = make_dumbbell_tower((3, 2), 1)
        comp = tower.levels[0].components[0]
        rotated = replace(comp, left=comp.left[1:] + comp.left[:1])
    bad = MapTower(kind, tower.table, (TowerLevel(2, (rotated,)),))
    with pytest.raises(CertificationError, match="declared shape"):
        certify_tower(bad)


@pytest.mark.parametrize("kind", ["balloon", "dumbbell"])
def test_level_with_wrong_loop_length_is_rejected(kind):
    # q = 1 declares loops of length factorial(1) = 1; the components' loops have length 2
    if kind == "balloon":
        tower = make_balloon_tower([(2, 2)], [1])
    else:
        tower = make_dumbbell_tower((3, 2), 1)
    bad = MapTower(kind, tower.table, (TowerLevel(1, tower.levels[0].components),))
    with pytest.raises(CertificationError, match="loops of length 1"):
        certify_tower(bad)


def test_balloon_image_onto_whole_successor_is_rejected():
    # same digraph, but one cell maps onto all of its successor cell
    tower = make_balloon_tower([(2, 2)], [1])
    comp = tower.levels[0].components[0]
    partition = tower.levels[0].partition()
    successors = comp.cells[1:] + comp.loop[:1]
    for cell, target in zip(comp.cells, successors):
        rules = tuple(
            (dom, target if dom == cell else img) for dom, img in tower.table.rules
        )
        bad = MapTower("balloon", PrefixTableMap(rules), tower.levels)
        assert graph_of(bad.table, partition) == graph_of(tower.table, partition)
        with pytest.raises(CertificationError, match="proper subcylinder"):
            certify_tower(bad)


def test_unknown_tower_kind_is_rejected():
    tower = make_dumbbell_tower((3, 2), 1)
    with pytest.raises(CertificationError, match="unknown tower kind"):
        certify_tower(replace(tower, kind="Dumbbell"))


def test_tower_serialization_bit_exact():
    for tower in (
        make_balloon_tower([(2, 2), (4, 2)], [1, 2]),
        make_dumbbell_tower((4, 2), 2, bar_length=2),
    ):
        blob = json.dumps(tower_to_dict(tower), sort_keys=True)
        again = tower_from_dict(json.loads(blob))
        assert again == tower
        assert json.dumps(tower_to_dict(again), sort_keys=True) == blob


def test_dumbbell_bar_lengths():
    tower = make_dumbbell_tower((5, 2), 1, bar_length=3)
    shape = classify_components(graph_of(tower.table, tower.levels[0].partition()))[0]
    assert shape.params == (2, 3, 2)


def test_representatives_cycle_on_loops():
    tower = make_balloon_tower([(5, 3), (7, 3)], [2, 4])
    f = tower.table
    for level in tower.levels:
        for comp in level.components:
            m = len(comp.loop)
            for i, cell in enumerate(comp.loop):
                image = f.apply(representative(cell))
                assert image == representative(comp.loop[(i + 1) % m])


@pytest.mark.parametrize("tower, component_class, loops, transient", [
    (make_balloon_tower([(3, 2), (5, 2)], [2, 4]), BalloonComponent,
     lambda c: {"right": c.loop}, lambda c: c.path),
    (make_dumbbell_tower((4, 2), 2, bar_length=1), DumbbellComponent,
     lambda c: {"right": c.right, "left": c.left}, lambda c: c.bar),
], ids=["balloon", "dumbbell"])
def test_component_roles_are_described_once(tower, component_class, loops, transient):
    # the classifier's role keys, in cell order, are the class's ROLES
    for level in tower.levels:
        shapes = classify_components(graph_of(tower.table, level.partition()))
        assert shapes and all(tuple(s.cells) == component_class.ROLES for s in shapes)
    assert set(component_class.LOOPS.values()) <= set(component_class.ROLES)
    assert component_class.TRANSIENT in component_class.ROLES
    for level in tower.levels:
        for comp in level.components:
            # right first, as the periodic approximation visits the loops
            assert {w: comp.loop_cells(w) for w in comp.LOOPS} == loops(comp)
            assert list(comp.LOOPS) == list(loops(comp))
            assert comp.transient == transient(comp)
            assert comp.initial_vertex == comp.cells[0]
    # the role constants are class data: serialization sees only the fields
    assert "ROLES" not in tower_to_dict(tower)["levels"][0]["components"][0]
