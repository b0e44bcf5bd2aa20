"""Exact symbolic dynamics on the Cantor space and its space of measures.

Everything is computed in exact rational arithmetic: points are finite
binary words with implicit zero tails, maps are prefix-rewrite tables,
measures are finite rational atom lists, and the Prohorov metric is solved
exactly by one ultrametric closed form, cross-checked against subset
enumeration, max-flow and the two-sided formulation as oracles.
"""

from .cantor import (
    CylinderPartition,
    canonical_point,
    cell_distance,
    cells_meeting,
    cylinder_diameter,
    partition_stats,
    point_distance,
    representative,
    standard_partition,
)
from .errors import (
    BackendSelectionError,
    CantorDynError,
    CertificationError,
    ParameterError,
    ResourceBudgetError,
)
from .maps import (
    ComponentShape,
    PartitionDigraph,
    PrefixTableMap,
    classify_components,
    eventual_image,
    graph_of,
    image_cells,
    preimage_cells,
)
from .measures import (
    AtomicMeasure,
    ProhorovResult,
    atomic_measure,
    cell_masses,
    convex_combine,
    dirac,
    prohorov,
    prohorov_distance,
    prohorov_two_sided,
    pushforward,
    pushforward_iter,
)
from .certs import Certificate, to_jsonable
from .dynamics import (
    Chain,
    chain_connect_homeo,
    chain_connect_map,
    chain_continuity_test,
    chain_step_count,
    default_gamma,
    entropy_estimate,
    equicontinuity_certificate,
    equicontinuity_modulus,
    transitivity_check,
    verify_chain,
    weak_shadowing_refutation,
)
from .grids import (
    LiYorkeScan,
    li_yorke_scan,
    random_atomic_measure,
    random_cell_measure,
    simplex_grid,
    track_representatives,
)
from .orbits import (
    DistanceProfile,
    PairClass,
    distance_profile,
    orbit_distance_to_target,
)
from .recurrence import (
    AdmissibleChoice,
    approx_by_periodic,
    consistency_check,
    enumerate_admissible_choices,
    loop_support_check,
    periodic_measure,
    recurrence_certificate,
    transient_perturbation,
)
from .towers import (
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

__version__ = "0.1.0"
