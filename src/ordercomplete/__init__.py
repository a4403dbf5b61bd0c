"""Order completion of finite posets and equation solving over the cuts.

Names are served lazily (PEP 562): each first use imports only its module."""

from importlib import import_module

_EXPORTS = {
    "errors": "BadSpec CycleDetected DuplicateLabel EmptyFamily InvalidCut InvalidInput"
    " MultipleSolutions NoBound NotAPartialOrder NotIncreasing OrderCompletionError"
    " ParentMismatch ResourceCap SchemaError SourceNotOrdered UnknownElement UnknownSuite",
    "poset": "CarrierSet Poset Subset build_poset has_maximum has_minimum lower_bounds"
    " upper_bounds",
    "completion": "CompletedPoset Cut MacNeilleReport inf_cuts is_cut macneille_completion"
    " sup_cuts to_dot verify_macneille",
    "mapext": "BoundChainReport PosetMap check_bound_chain extension_cut_map extension_mask"
    " is_increasing is_oie",
    "solver": "AssumptionFlags EquationInstance GlobalReport SolveReport build_equation"
    " global_character solve",
    "generators": "GeneratorSpec generate random_equation",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_HOME])

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
