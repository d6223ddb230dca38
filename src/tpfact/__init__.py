"""Exact factorization of invertible matrices into elementary products,
double Bruhat cells, the twist map, and total-positivity criteria built
from double pseudoline arrangements."""

from .bruhat import bruhat_cell_of, double_cell_of, in_G0, in_bruhat_cell
from .errors import PreconditionError, ValidationError
from .identities import (
    ExchangeCertificate,
    check_dodgson,
    check_plucker,
    exchange_certificate,
    fuzz,
)
from .linalg import (
    Matrix,
    det,
    inverse,
    ldu_decompose,
    leading_principal_minors,
    matrix_from_json,
    matrix_from_json_text,
    matrix_to_json,
    minor,
    scalar_from_str,
    scalar_to_str,
)
from .networks import (
    PlanarNetwork,
    Polynomial,
    build_network,
    evaluate_network,
    symbolic_entry,
    symbolic_minor,
)
from .permutations import Permutation, is_reduced, signed_representative
from .positivity import (
    CriterionReport,
    chamber_criterion,
    chamber_set_criterion,
    fekete_criterion,
    fekete_families,
    fekete_scheme,
    first_negative_minor,
    gl3_criteria_catalog,
    is_tnn,
    is_tp,
    w_chamber_sets,
)
from .product_map import commute_h, elementary, product
from .render import isotopy_dot, render_ascii, render_svg
from .schemes import (
    Arrangement,
    Chamber,
    FactorizationScheme,
    IsotopyGraph,
    Move,
    SchemeSymbol,
    apply_move,
    available_moves,
    build_arrangement,
    chamber_minor_family,
    enumerate_isotopy_types,
    isotopy_key,
    parse_scheme,
    seed_scheme,
)
from .solver import chamber_values_from_parameters, solve
from .twist import twist, twist_roundtrip

__version__ = "1.0.0"
