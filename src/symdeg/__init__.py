"""Exact-arithmetic toolkit for symmetric degeneracy loci.

Builds the Hessian quadratic form of a homogeneous polynomial,
stratifies points by rank, certifies generic ranks and dual-variety
dimension, and replays quadric-bundle homology dimension counts,
torsion certificates and the resulting dimension bounds as integer
linear algebra.
"""

from .bounds import (
    BoundReport,
    BoundStep,
    corollary_threshold,
    main_bound,
    replay_main_theorem,
    sym_stratum_dim,
    telescoping_terms,
    veronese_witness,
)
from .dualvariety import (
    AdaptedForm,
    BlockDecomposition,
    RankRelationReport,
    adapt_coordinates,
    block_decompose,
    dual_dimension,
    rank_relation_check,
    second_order_implicit,
)
from .errors import InternalCheckError, PolyParseError
from .hessian import (
    HessianForm,
    RankCertificate,
    RankStratification,
    ambient_rank_certificate,
    build_hessian,
    evaluate_hessian,
    generic_rank_ambient,
    generic_rank_on_hypersurface,
    hypersurface_rank_certificate,
    rank_at,
    stratify,
)
from .linalg import (
    FGAbelianGroup,
    cokernel,
    det_poly,
    det_rational,
    rank_rational,
    smith_normal_form,
)
from .poly import (
    MultiPoly,
    compose_linear,
    differentiate,
    divides,
    evaluate,
    homogeneous_degree,
    parse_poly,
)
from .quadrics import (
    NonsurjectivityCertificate,
    PhiReplay,
    TorsionCertificate,
    lh_projective_dim,
    lh_quadric_dim,
    nonsurjectivity_certificate,
    phi_torsion_replay,
    quadric_betti,
    torsion_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptedForm",
    "BlockDecomposition",
    "BoundReport",
    "BoundStep",
    "FGAbelianGroup",
    "HessianForm",
    "InternalCheckError",
    "MultiPoly",
    "NonsurjectivityCertificate",
    "PhiReplay",
    "PolyParseError",
    "RankCertificate",
    "RankRelationReport",
    "RankStratification",
    "TorsionCertificate",
    "adapt_coordinates",
    "ambient_rank_certificate",
    "block_decompose",
    "build_hessian",
    "cokernel",
    "compose_linear",
    "corollary_threshold",
    "det_poly",
    "det_rational",
    "differentiate",
    "divides",
    "dual_dimension",
    "evaluate",
    "evaluate_hessian",
    "generic_rank_ambient",
    "generic_rank_on_hypersurface",
    "homogeneous_degree",
    "hypersurface_rank_certificate",
    "lh_projective_dim",
    "lh_quadric_dim",
    "main_bound",
    "nonsurjectivity_certificate",
    "parse_poly",
    "phi_torsion_replay",
    "quadric_betti",
    "rank_at",
    "rank_rational",
    "rank_relation_check",
    "replay_main_theorem",
    "second_order_implicit",
    "smith_normal_form",
    "stratify",
    "sym_stratum_dim",
    "telescoping_terms",
    "torsion_certificate",
    "veronese_witness",
]
