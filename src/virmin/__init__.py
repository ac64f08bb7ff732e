"""virmin: exact and numeric toolkit for minimal Virasoro models.

Kac data and fusion rings are computed exactly; Verma-module singular
vectors feed differential equations for four-point correlators of
primary fields; conformal blocks are evaluated by Frobenius series at
the regular singular points; and fusing-matrix / monodromy residuals
certify the operator-product-expansion identities numerically at desk
scale.
"""

from .models import (
    KacLabel,
    MinimalModel,
    TensorLabel,
    TensorModel,
    canonicalize,
    central_charge,
    conformal_weight,
    kac_table,
    tensor_central_charge,
    tensor_weight,
)
from .fusion import fuse, fusion_rule, fusion_table, tensor_fusion_rule, verify_ring_axioms
from .verma import (
    GramMatrix,
    PBWVector,
    VermaParams,
    apply_raising,
    gram_matrix,
    kac_determinant,
    pbw_basis,
    singular_vectors,
    verify_singular,
)
from .bpz import (
    CorrelatorSpec,
    ExponentPair,
    ODESpec,
    allowed_channels,
    channel_exponents,
    derive_pde_slot2,
    derive_pde_slot3,
    fusion_exponents,
    indicial_exponents,
    insertion_operator_slot3,
    reduce_to_ode,
    reduced_ode,
)
from .blocks import (
    EvaluationResult,
    FrobeniusSeries,
    block,
    evaluate_series,
    frobenius_expand,
    residual_orders,
)
from .crossing import (
    BraidingPhase,
    ChannelBasis,
    FusingMatrix,
    associativity_residual,
    braiding_phase,
    channel_basis,
    commutativity_residual,
    fusing_matrix,
    monodromy_residuals,
    tensor_block,
)

__all__ = [
    "KacLabel",
    "MinimalModel",
    "TensorLabel",
    "TensorModel",
    "canonicalize",
    "central_charge",
    "conformal_weight",
    "kac_table",
    "tensor_central_charge",
    "tensor_weight",
    "fuse",
    "fusion_rule",
    "fusion_table",
    "tensor_fusion_rule",
    "verify_ring_axioms",
    "GramMatrix",
    "PBWVector",
    "VermaParams",
    "apply_raising",
    "gram_matrix",
    "kac_determinant",
    "pbw_basis",
    "singular_vectors",
    "verify_singular",
    "CorrelatorSpec",
    "ExponentPair",
    "ODESpec",
    "allowed_channels",
    "channel_exponents",
    "derive_pde_slot2",
    "derive_pde_slot3",
    "fusion_exponents",
    "indicial_exponents",
    "insertion_operator_slot3",
    "reduce_to_ode",
    "reduced_ode",
    "EvaluationResult",
    "FrobeniusSeries",
    "block",
    "evaluate_series",
    "frobenius_expand",
    "residual_orders",
    "BraidingPhase",
    "ChannelBasis",
    "FusingMatrix",
    "associativity_residual",
    "braiding_phase",
    "channel_basis",
    "commutativity_residual",
    "fusing_matrix",
    "monodromy_residuals",
    "tensor_block",
]

__version__ = "0.1.0"
