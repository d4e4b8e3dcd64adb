"""Finite compact quantum groups as structure tensors, with cocycle twisting."""

import os
import sys

# Load OpenBLAS with one thread unless a thread count was chosen: at n <= 128
# its second thread spins after each product, and on 2 vCPUs one thread halved
# the paper suite's CPU time (0.37 -> 0.17 s) at the same wall time.  Numpy
# loaded first keeps its threads; children see the environment unchanged.
_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _THREADS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy  # noqa: F401

    del os.environ["OPENBLAS_NUM_THREADS"]

from .cocycle import (
    DualCocycle,
    QuotientMorphism,
    from_bicharacter,
    induce,
    trivial_cocycle,
    v_functional,
    verify_cocycle,
    verify_morphism,
    w_functional,
)
from .core import (
    AxiomReport,
    DualFunctional,
    FiniteHopfStarAlgebra,
    ScalarContext,
    convolution_inverse,
    dual,
    verify_hopf_axioms,
)
from .corep import (
    SpectralDecomposition,
    UnitaryCorep,
    ad_v,
    decompose_corep,
    direct_sum,
    pi_u,
    regular_corep,
    spectral_projection,
    trivial_corep,
    verify_corep,
)
from .deform import (
    DeformationResult,
    RTwistedVolume,
    SpectralTriple,
    check_membership,
    check_volume_preservation,
    deform_triple,
    equivariance_residual,
    extract_block_form,
    intertwine_check,
    r_sigma,
    rho_sigma,
    twisted_operator_product,
    twisted_operator_star,
)
from .groups import (
    FiniteGroupData,
    cyclic_group,
    dihedral_group,
    direct_product,
    function_algebra,
    group_algebra,
    klein_four_group,
    symmetric_group_3,
    trivial_group,
)
from .peterweyl import (
    HaarState,
    PeterWeylBlock,
    PeterWeylData,
    decompose,
    haar_state,
)
from .report import CheckRecord, VerificationReport
from .suite import run_paper_suite
from .twist import (
    TwistResult,
    f_matrix_relation,
    roundtrip,
    twist_algebra,
    twist_corep,
)

__all__ = [
    "AxiomReport",
    "CheckRecord",
    "DeformationResult",
    "DualCocycle",
    "DualFunctional",
    "FiniteGroupData",
    "FiniteHopfStarAlgebra",
    "HaarState",
    "PeterWeylBlock",
    "PeterWeylData",
    "QuotientMorphism",
    "RTwistedVolume",
    "ScalarContext",
    "SpectralDecomposition",
    "SpectralTriple",
    "TwistResult",
    "UnitaryCorep",
    "VerificationReport",
    "ad_v",
    "check_membership",
    "check_volume_preservation",
    "convolution_inverse",
    "cyclic_group",
    "decompose",
    "decompose_corep",
    "deform_triple",
    "dihedral_group",
    "direct_product",
    "direct_sum",
    "dual",
    "equivariance_residual",
    "extract_block_form",
    "f_matrix_relation",
    "from_bicharacter",
    "function_algebra",
    "group_algebra",
    "haar_state",
    "induce",
    "intertwine_check",
    "klein_four_group",
    "pi_u",
    "r_sigma",
    "regular_corep",
    "rho_sigma",
    "roundtrip",
    "run_paper_suite",
    "spectral_projection",
    "symmetric_group_3",
    "trivial_cocycle",
    "trivial_corep",
    "trivial_group",
    "twist_algebra",
    "twist_corep",
    "twisted_operator_product",
    "twisted_operator_star",
    "v_functional",
    "verify_cocycle",
    "verify_corep",
    "verify_hopf_axioms",
    "verify_morphism",
    "w_functional",
]

__version__ = "0.1.0"
