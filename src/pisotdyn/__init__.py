"""pisotdyn: substitution dynamical systems of Pisot type.

Sequence generation, subword complexity and entropy estimates, exact
Pisot-Vijayaraghavan certification, optimal circular spacing, quantum
substitution operators, and crystallographic/Cantor machinery.
"""

from .algebraic import (
    IntMatrix,
    IntPolynomial,
    RealApprox,
    Recurrence,
    RootCount,
    char_poly,
    is_primitive,
    is_pv,
    power_sums,
    pv_decay,
    pv_verdict,
    recurrence_term,
    schur_cohn,
)
from .crystal import (
    CantorSpec,
    allowed_orders,
    cantor_function_value,
    euler_phi,
    hausdorff_dimension,
    hiller,
    numeric_value,
    representation,
)
from .geometry import (
    AngleList,
    GapStats,
    cusp_curve,
    cyclotomic_sum,
    diagonal_polygon,
    gap_statistics,
    roots_of_unity,
    substitution_spacing,
)
from .quantum import (
    QuantumState,
    apply_first_kind,
    quantum_complexity,
    quantum_entropy_estimate,
    quantum_spacing_simulate,
    second_kind_limit,
    symmetric_state,
)
from .substitution import (
    FixedPointError,
    PisotReport,
    Substitution,
    apply,
    classify_pisot,
    fixed_point_prefix,
    incidence_matrix,
    iterate,
    iterate_length,
)
from .words import (
    Alphabet,
    ComplexityProfile,
    PrefixStream,
    Word,
    complexity,
    complexity_profile,
    empirical_frequencies,
    entropy_estimate,
    morse_hedlund_witness,
    sturmian_check,
)

__version__ = "0.1.0"
