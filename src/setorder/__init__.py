"""Set order relations, minimality solvers, and convergence checks for
polyhedral-cone problems on finite grids."""

from .cone import Cone, DEFAULT_TOL, fineness_witness, scale_witness
from .converge import (
    DEFAULT_HORIZON,
    EPS_FLOOR,
    GammaReport,
    LevelsetReport,
    PKReport,
    SeqGenBattery,
    StabilityReport,
    gamma_check,
    gamma_seq_check,
    kuratowski_pair,
    levelset_convergence_experiment,
    lsc_check,
    pk_limits,
    seq_lower_converse,
    stability_experiment,
    usc_check,
)
from .errors import SetOrderError
from .order import OrderCtx, equiv, large_le, lower_le, strict_lt
from .problem import (
    Domain,
    PerturbedFamily,
    Problem,
    Window,
    builtin_names,
    family_at,
    load,
    load_builtin,
    load_dict,
)
from .setrep import BoxUnion, PointCloud, box, points, translate
from .solve import (
    KINDS,
    EffResult,
    NoFiniteRepresentant,
    Representant,
    classical_level_set,
    eff,
    hypothesis_h,
    l_set,
    representants,
    strong_level_set,
)
from .verdict import Status, Verdict

__version__ = "0.1.0"

__all__ = [
    "BoxUnion", "Cone", "DEFAULT_HORIZON", "DEFAULT_TOL", "Domain",
    "EPS_FLOOR", "EffResult", "GammaReport", "KINDS", "LevelsetReport",
    "NoFiniteRepresentant", "OrderCtx", "PKReport", "PerturbedFamily",
    "PointCloud", "Problem", "Representant", "SeqGenBattery",
    "SetOrderError", "StabilityReport", "Status", "Verdict", "Window",
    "box", "builtin_names", "classical_level_set", "eff", "equiv",
    "family_at", "fineness_witness", "gamma_check", "gamma_seq_check",
    "hypothesis_h", "kuratowski_pair", "l_set", "large_le",
    "levelset_convergence_experiment", "load", "load_builtin", "load_dict",
    "lower_le", "lsc_check", "pk_limits", "points", "representants",
    "scale_witness", "seq_lower_converse", "stability_experiment",
    "strict_lt", "strong_level_set", "translate", "usc_check",
    "__version__",
]
