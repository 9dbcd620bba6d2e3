"""Walks in directed multigraphs: rewriting, embeddings, and walk homotopy.

The package is organised by layer: ``graph`` holds multigraphs, darts and
cyclic orders; ``walk`` the walk type and its core relations; ``enumeration``
exhaustive quasi-simple walk enumeration; ``rewrite`` the loop-reduction
relation and normalization; ``embedding`` rotation-system maps with face
tracing; ``homotopy`` certificate search and the sphericity checkers; and
``cli`` the JSON-reporting command line tool.
"""

from .graph import (
    CyclicOrder,
    Dart,
    EdgeRecord,
    Graph,
    RotationIssue,
    ValidationError,
    build_graph,
    incident_darts,
    is_connected,
    out_darts,
    parse_dart,
    symmetrise,
    validate_cyclic_order,
)
from .walk import (
    Walk,
    WalkSpecError,
    compact,
    compose,
    is_quasi_simple,
    membership_census,
    occurs,
    parse_walk,
    trivial,
)
from .enumeration import (
    enumerate_all_qswalks,
    iter_walks_up_to,
    walk_counts,
)
from .rewrite import (
    ReductionStep,
    ReductionTrace,
    applicable_reductions,
    is_normal,
    normalize,
    progress,
    verify_step,
)
from .embedding import (
    Face,
    RotationError,
    RotationMap,
    build_rotation_map,
    euler_characteristic,
    trace_faces,
)
from .homotopy import (
    HomotopyCertificate,
    HomotopyMove,
    HomotopyNormalForm,
    Inconclusive,
    SearchBudget,
    SphericityVerdict,
    apply_hcollapse,
    check_spherical_bounded,
    check_spherical_euler,
    check_spherical_quasi,
    concat_certificates,
    default_budget,
    normalize_homotopy,
    prove_homotopic,
    replay_certificate,
    reverse_certificate,
    whisker,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
