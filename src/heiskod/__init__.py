"""heiskod: finite Heisenberg quotients of surface braid groups and the exact
invariants of the double Kodaira fibrations they produce.

The pipeline, bottom up: exact linear algebra over F_p (:mod:`fplinalg`),
cup products and the Heisenberg-type classifier on the product of two curves
(:mod:`cohomology`), finite Heisenberg groups in pair and matrix models
(:mod:`heisenberg`), the explicit two-string braid presentation
(:mod:`braid`), relator-by-relator verification of the standard liftings
(:mod:`verify`), and exact integer/rational fibration invariants with a
claim-checking census (:mod:`invariants`).  :mod:`cli` ties it together and
:mod:`acceptance` holds the self-test criteria.
"""

from .fplinalg import (
    AlternatingForm,
    FpMatrix,
    is_prime,
    span_dim,
)
from .cohomology import (
    FormClassification,
    H2Class,
    classify_form,
    complement_betti,
    count_heisenberg_candidates,
    cup_h1_h1,
    diagonal_class,
    eta_matrix,
    search_family_params,
    xi_matrix,
    xi_of_form,
)
from .heisenberg import (
    GroupStructureReport,
    HeisElement,
    HeisGroup,
    MatrixHeisGroup,
    degenerate_quotient,
    iso_matrix_to_pair,
    verify_extra_special,
)
from .braid import (
    BraidGenerator,
    Presentation,
    Relator,
    build_presentation,
    free_reduce,
    involution_substitute,
    kernel_generator_sets,
)
from .verify import (
    GeneratorAssignment,
    VerificationReport,
    bfs_subgroup_order,
    evaluate_word,
    image_index,
    precompose_involution,
    standard_assignment_degenerate,
    standard_assignment_nondegenerate,
    subgroup_order_fast,
    tau2_to_r2_variant,
    verify_assignment,
)
from .invariants import (
    CensusRow,
    ClaimResult,
    FibrationInvariants,
    census,
    degenerate_invariants,
    general_invariants,
    kappa,
    nondegenerate_invariants,
)

__version__ = "0.1.0"
# the one numeric backend; recorded in benchmark run records
BACKEND = "numpy"
