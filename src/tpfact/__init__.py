"""Exact factorization of invertible matrices into elementary products,
double Bruhat cells, the twist map, and total-positivity criteria built
from double pseudoline arrangements.

`import tpfact` loads none of the modules below. The first access to
any attribute the package does not hold yet (`tpfact.solve`,
`from tpfact import Matrix`, `tpfact.linalg`) imports every module in
`_EXPORTS` and binds all of their public names at once, so from then on
the package holds the same names as an eager import would. A process
that imports only `tpfact.cli`, or one submodule, loads only what that
code imports.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "bruhat": ("bruhat_cell_of", "double_cell_of", "in_bruhat_cell"),
    "errors": ("PreconditionError", "ValidationError"),
    "identities": ("ExchangeCertificate", "check_dodgson", "check_plucker",
                   "exchange_certificate", "fuzz"),
    "linalg": ("Matrix", "det", "inverse", "ldu_decompose",
               "matrix_from_json", "matrix_from_json_text", "matrix_to_json",
               "minor", "scalar_from_str", "scalar_to_str"),
    "networks": ("build_network", "evaluate_network"),
    "permutations": ("Permutation", "is_reduced", "signed_representative"),
    "positivity": ("CriterionReport", "chamber_criterion",
                   "chamber_set_criterion", "fekete_criterion",
                   "fekete_families", "fekete_scheme", "first_negative_minor",
                   "gl3_criteria_catalog", "is_tnn", "is_tp",
                   "w_chamber_sets"),
    "product_map": ("commute_h", "product"),
    "render": ("isotopy_dot", "render_ascii", "render_svg"),
    "schemes": ("Arrangement", "Chamber", "FactorizationScheme",
                "IsotopyGraph", "Move", "SchemeSymbol", "apply_move",
                "available_moves", "build_arrangement",
                "chamber_minor_family", "enumerate_isotopy_types",
                "isotopy_key", "parse_scheme", "seed_scheme"),
    "solver": ("solve",),
    "twist": ("twist",),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__version__ = "1.0.0"


def __getattr__(name):
    namespace = globals()
    for module, names in _EXPORTS.items():
        mod = _import_module(f"{__name__}.{module}")
        for export in names:
            namespace[export] = getattr(mod, export)
    if name in namespace:
        return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
