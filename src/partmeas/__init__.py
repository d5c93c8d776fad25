"""partmeas: an exactly-verifiable toolkit for partial measures on finite
algebras of sets.

Everything is exact: values are arbitrary-precision rationals extended
with the two infinities, so each identity the package claims is checked
as a zero-tolerance equality.  The pieces:

* extended-real arithmetic with explicitly partial addition,
* finite spaces with algebras given by atom partitions,
* total and partial measures, maximalization, the positive/negative
  decomposition of maximal partial measures with its extremal property,
* densities and essential suprema against an exact probability,
* a symbolic two-half model on which no positive/negative split exists,
* a CLI plus a seeded property-fuzzing suite.
"""

from .density import (
    Probability,
    RandomVariable,
    ess_sup,
    is_abs_continuous,
    mu_xi,
    rn_derivative,
)
from .errors import PartmeasError, SchemaError
from .extreal import MINUS_INF, PLUS_INF, ZERO, ExtReal
from .measure import AtomVector, Measure, PositiveMeasure, hahn_decomposition
from .partial import (
    JordanDecomposition,
    MaximalPartialMeasure,
    PartialMeasure,
    can_extend_with,
    check_minimality,
    corollary1_witness,
    diff_measures,
    f_minus,
    f_plus,
    hahn_partial,
    is_maximal,
    jordan_decompose,
    jordan_decompose_detailed,
    jordan_sup,
    maximalize,
    restrict_to,
    single_set_extensions,
    validate_partial,
    value_table,
)
from .spaces import (
    ENUMERATION_CAP,
    FiniteSpace,
    MeasurableSet,
    enumerate_sets,
    generate_algebra,
    trace_algebra,
)
from .symbolic import (
    FPlusDecision,
    HalfSet,
    SymbolicSet,
    SymbolicValue,
    f_plus_enumeration_oracle,
    hahn_failure_check,
    mu3,
    sym_in_algebra,
    sym_in_f_minus,
    sym_in_f_plus,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ExtReal",
    "PLUS_INF",
    "MINUS_INF",
    "ZERO",
    "FiniteSpace",
    "MeasurableSet",
    "generate_algebra",
    "trace_algebra",
    "enumerate_sets",
    "ENUMERATION_CAP",
    "AtomVector",
    "Measure",
    "PositiveMeasure",
    "hahn_decomposition",
    "PartialMeasure",
    "MaximalPartialMeasure",
    "validate_partial",
    "diff_measures",
    "maximalize",
    "value_table",
    "f_plus",
    "f_minus",
    "jordan_sup",
    "JordanDecomposition",
    "jordan_decompose",
    "jordan_decompose_detailed",
    "check_minimality",
    "corollary1_witness",
    "hahn_partial",
    "restrict_to",
    "single_set_extensions",
    "is_maximal",
    "can_extend_with",
    "Probability",
    "RandomVariable",
    "mu_xi",
    "ess_sup",
    "is_abs_continuous",
    "rn_derivative",
    "HalfSet",
    "SymbolicSet",
    "SymbolicValue",
    "FPlusDecision",
    "sym_in_algebra",
    "mu3",
    "sym_in_f_plus",
    "sym_in_f_minus",
    "f_plus_enumeration_oracle",
    "hahn_failure_check",
    "PartmeasError",
    "SchemaError",
]
