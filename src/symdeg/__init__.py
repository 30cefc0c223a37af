"""Exact-arithmetic toolkit for symmetric degeneracy loci.

Builds the Hessian quadratic form of a homogeneous polynomial,
stratifies points by rank, certifies generic ranks and dual-variety
dimension, and replays quadric-bundle homology dimension counts,
torsion certificates and the resulting dimension bounds as integer
linear algebra.

Importing the package puts every submodule in ``sys.modules`` and in
the package namespace, but runs none of them: ``LazyLoader`` runs a
submodule on the first access to one of its attributes, so a CLI
command compiles only the modules it reaches.  The public names below
resolve through the module-level ``__getattr__`` (PEP 562).
"""

import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": (
        "BoundReport", "BoundStep", "corollary_threshold", "main_bound", "replay_main_theorem",
        "sym_stratum_dim", "telescoping_terms", "veronese_witness",
    ),
    "dualvariety": (
        "AdaptedForm", "BlockDecomposition", "RankRelationReport", "adapt_coordinates",
        "block_decompose", "dual_dimension", "rank_relation_check", "second_order_implicit",
    ),
    "errors": ("InternalCheckError", "PolyParseError"),
    "hessian": (
        "HessianForm", "RankCertificate", "RankStratification", "ambient_rank_certificate",
        "build_hessian", "evaluate_hessian", "generic_rank_ambient",
        "generic_rank_on_hypersurface", "hypersurface_rank_certificate", "rank_at", "stratify",
    ),
    "linalg": (
        "FGAbelianGroup", "cokernel", "det_rational", "rank_rational", "smith_normal_form",
    ),
    "poly": (
        "MultiPoly", "compose_linear", "differentiate", "divides", "evaluate",
        "homogeneous_degree", "parse_poly",
    ),
    "quadrics": (
        "NonsurjectivityCertificate", "PhiReplay", "TorsionCertificate", "lh_projective_dim",
        "lh_quadric_dim", "nonsurjectivity_certificate", "phi_torsion_replay", "quadric_betti",
        "torsion_certificate",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def _lazy(name: str):
    """Submodule ``name``, put in ``sys.modules`` and run on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


globals().update({name: _lazy(name) for name in _EXPORTS})


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_MODULE_OF[name]], name)
