"""Order completion of finite posets and equation solving over the cuts."""

from .errors import (
    BadSpec,
    CycleDetected,
    DuplicateLabel,
    EmptyFamily,
    InvalidCut,
    InvalidInput,
    MultipleSolutions,
    NoBound,
    NotAPartialOrder,
    NotIncreasing,
    OrderCompletionError,
    ParentMismatch,
    ResourceCap,
    SchemaError,
    SourceNotOrdered,
    UnknownElement,
    UnknownSuite,
)
from .poset import (
    CarrierSet,
    Poset,
    Subset,
    build_poset,
    down_set,
    has_maximum,
    has_minimum,
    lower_bounds,
    maximals,
    minimals,
    up_set,
    upper_bounds,
)
from .completion import (
    CompletedPoset,
    Cut,
    MacNeilleReport,
    cut_closure,
    embed,
    inf_cuts,
    is_cut,
    macneille_completion,
    sup_cuts,
    to_dot,
    verify_macneille,
)
from .mapext import (
    BoundChainReport,
    PosetMap,
    ExtensionLawsReport,
    apply_extension,
    check_bound_chain,
    check_extension_laws,
    extension_cut_map,
    extension_mask,
    is_increasing,
    is_oie,
)
from .solver import (
    AssumptionFlags,
    EquationInstance,
    GlobalReport,
    QuotientPoset,
    SolveReport,
    build_equation,
    global_character,
    solve,
    t_sharp,
)
from .generators import GeneratorSpec, generate, random_equation

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
