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
    has_maximum,
    has_minimum,
    lower_bounds,
    upper_bounds,
)
from .completion import (
    CompletedPoset,
    Cut,
    MacNeilleReport,
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
    check_bound_chain,
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
)
from .generators import GeneratorSpec, generate, random_equation

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
