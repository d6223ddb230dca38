"""Exact factorization of invertible matrices into elementary products,
double Bruhat cells, the twist map, and total-positivity criteria built
from double pseudoline arrangements.

`import tpfact` loads none of the modules below. The first access to a
public name (`tpfact.solve`, `from tpfact import Matrix`) imports only
the module in `_EXPORTS` that exports it, and what that module imports
itself; a module name (`tpfact.linalg`) imports that module. Each such
load binds the public names of every module loaded so far, so a name a
side-loaded module exports (`tpfact.twist` after `tpfact.solve`) is
bound too. An unknown name loads nothing. `from tpfact import *` reads
every name in `__all__`, so it loads every module.

`tpfact.twist` is the function in any import order: the package never
lets the import system bind a submodule over an export of its name, so
the module is only `sys.modules["tpfact.twist"]`.
"""

import sys as _sys
from types import ModuleType as _ModuleType

_EXPORTS = {
    "bruhat": ("bruhat_cell_of", "double_cell_of", "in_bruhat_cell"),
    "errors": ("PreconditionError", "ValidationError"),
    "identities": ("ExchangeCertificate", "check_dodgson", "check_plucker",
                   "exchange_certificate", "fuzz"),
    "linalg": ("Matrix", "det", "matrix_from_json", "matrix_from_json_text",
               "matrix_to_json", "minor", "scalar_from_str", "scalar_to_str"),
    "networks": ("build_network", "evaluate_network"),
    "permutations": ("Permutation", "is_reduced", "signed_representative"),
    "positivity": ("CriterionReport", "chamber_criterion",
                   "chamber_set_criterion", "fekete_criterion",
                   "fekete_families", "fekete_scheme", "first_negative_minor",
                   "gl3_criteria_catalog", "is_tnn", "is_tp",
                   "w_chamber_sets"),
    "product_map": ("commute_h", "product"),
    "render": ("isotopy_dot", "render_ascii", "render_svg"),
    "schemes": ("Chamber", "FactorizationScheme", "IsotopyGraph", "Move",
                "SchemeSymbol", "apply_move", "available_moves",
                "build_arrangement", "chamber_minor_family",
                "enumerate_isotopy_types", "isotopy_key", "parse_scheme",
                "seed_scheme"),
    "solver": ("solve",),
    "twist": ("twist",),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)

__version__ = "1.0.0"


class _Package(_ModuleType):
    def __setattr__(self, name, value):
        # the import system binds a newly loaded submodule onto its
        # package; an export of the same name (`twist`) keeps its place
        if name in _OWNER and isinstance(value, _ModuleType):
            return
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    if name not in _OWNER and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module, so -X importtime lists it
    __import__(f"{__name__}.{_OWNER.get(name, name)}")
    namespace = globals()
    for loaded, names in _EXPORTS.items():
        mod = _sys.modules.get(f"{__name__}.{loaded}")
        if mod is not None:
            for export in names:
                namespace[export] = getattr(mod, export)
    return namespace[name]


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
