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

Each public name is resolved on first access (PEP 562) and then cached,
so importing the package, or a module such as :mod:`partmeas.cli`,
loads only the submodules that are used.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it provides, the only list of them: __all__
# and README's "Library API" table give them in this order
_EXPORTS = {
    "extreal": ("ExtReal", "PLUS_INF", "MINUS_INF", "ZERO"),
    "spaces": (
        "FiniteSpace",
        "MeasurableSet",
        "generate_algebra",
        "trace_algebra",
        "ENUMERATION_CAP",
    ),
    "measure": ("AtomVector", "Measure", "PositiveMeasure", "hahn_decomposition"),
    "partial": (
        "PartialMeasure",
        "MaximalPartialMeasure",
        "validate_partial",
        "diff_measures",
        "maximalize",
        "value_table",
        "f_plus",
        "jordan_sup",
        "JordanDecomposition",
        "jordan_decompose_detailed",
        "check_minimality",
        "corollary1_witness",
        "hahn_partial",
        "restrict_to",
        "single_set_extensions",
        "is_maximal",
    ),
    "density": (
        "Probability",
        "RandomVariable",
        "mu_xi",
        "ess_sup",
        "is_abs_continuous",
        "rn_derivative",
    ),
    "symbolic": (
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
    ),
    "errors": ("PartmeasError", "SchemaError"),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
