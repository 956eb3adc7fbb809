"""Norms and distortion of bijection-induced isomorphisms between Fourier
algebras of finite groups, with verifiers for the supporting matrix lemmas."""

from .errors import (
    DegenerateSpectrumError,
    GroupMismatchError,
    GroupOrderError,
    GroupSpecError,
    NumericInputError,
    SizeLimitError,
)
from .fourier import (
    AFunction,
    FourierBlocks,
    GroupAlgebraElement,
    a_norm,
    a_norm_contributions,
    blocks_from_coeffs,
    coeffs_from_blocks,
    delta_function,
    dual_norm_witness,
    fourier_inverse,
    fourier_transform,
    function_from_cyclic_coeffs,
    pairing,
    schatten_norm,
    vn_blocks,
    vn_element_from_blocks,
    vn_norm,
)
from .groups import (
    FiniteGroup,
    GroupBijection,
    are_isomorphic,
    automorphisms,
    group_from_json,
    group_from_table,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_quaternion,
    make_symmetric,
    parse_group_spec,
    standard_corpus,
)
from .homs import (
    CbNormResult,
    HomNormReport,
    InducedHom,
    NormEstimate,
    Witness,
    adjoint_image,
    cb_norm,
    hom_norm_report,
    induced_hom,
    jordan_defect,
    level_k_norm,
    op_norm,
)
from .irreps import (
    Irrep,
    IrrepTable,
    character_table,
    irrep_table_for,
    irrep_table_to_json,
    irreps_of,
    regular_representation,
    validate_irrep_table,
)
from .lemmas import (
    LemmaReport,
    RhoEstimate,
    estimate_jordan_rho,
    verify_invmult,
    verify_norm_gap,
    verify_unitmult,
)
from .optim import EFFORT_PRESETS, Effort, haar_unitary, resolve_effort
from .search import (
    SearchResult,
    enumerate_bijections,
    epsilon_zero_bound,
    min_distortion,
    norm_gap_scan,
    search_result_rows,
    search_result_to_csv,
)

__version__ = "0.1.0"
