"""Directed tight spans, tropical polytopes, and oriented-tree realizations.

Exact rational arithmetic throughout: directed distances and their
condition checkers, the polyhedral geometry of the tight span and the
tropical polytope (membership, retractions, sections, geodesics), full
enumeration of the complexes at desk scale, matching-based dimension and
rank criteria, oriented-tree realizations with split decompositions, and
the multiflow/metric-extension LP duality.
"""

from .errors import DomainError
from .metrics import (
    DirectedDistance,
    GroundSet,
    check_directed_tree_metric,
    check_path_condition,
    check_tree_condition,
    congruence_witness,
    cycle_length,
    distance_from_entries,
    is_metric,
    validate_distance,
)
from .geometry import (
    EqualityGraph,
    ExtPoint,
    Fiber,
    Membership,
    canonical_points,
    canonical_section_membership,
    classify_membership,
    dinf,
    dinf_plus,
    equality_graph,
    extend_to_balanced_section,
    face_dimension,
    geodesic_polyline,
    in_qplus,
    in_tight_span,
    is_balanced,
    norm_pair,
    point,
    retract_to_qplus,
    retract_to_section,
    retract_to_tight_span,
)
from .complexes import (
    Face,
    PolyComplex,
    SkeletonGraph,
    enumerate_qplus,
    enumerate_section,
    enumerate_tight_span,
    polyhedron_vertices,
    skeleton_graph,
)
from .rank import (
    MatchingInstance,
    dim_tight_span,
    dim_tight_span_witness,
    is_unique_optimum,
    max_matching,
    tropical_rank,
    tropical_rank_witness,
)
from .trees import (
    OrientedTree,
    Realization,
    SplitTerm,
    evaluate_realization,
    random_realization,
    realize_directed_tree_metric,
    realize_path,
    realize_tree,
    recombine_splits,
    split_decomposition,
    splits_pairwise_compatible,
    tree_distance,
)
from .lp import LinearProgram, LPSolution, certificate_ok, linear_program, solve
from .flow import (
    MetricExtension,
    Multiflow,
    Network,
    dual_metric_lp,
    enumerate_s_paths,
    eulerian_decompose,
    is_cyclically_tight_extension,
    is_eulerian,
    is_tight_extension,
    max_multiflow,
    network,
    network_objective,
    tighten_extension,
    verify_minmax,
)

__version__ = "0.1.0"
