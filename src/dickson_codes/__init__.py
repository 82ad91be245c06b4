"""Cyclic codes over GF(q) from Dickson polynomials: fields, sequences,
minimal polynomials, distance search, and reproduction of the printed
code tables."""

from .cyclic import (CyclicCode, DistanceConfig, DistanceResult,
                     bch_lower_bound, code_from_sequence, minimum_distance,
                     weight_distribution)
from .dickson import (DicksonSpec, dickson_first, dickson_poly,
                      dickson_second, shift_by_one)
from .galois import Field, FieldError, FieldSpec, InternalError, ZERO
from .lfsr import (MinimalPolyResult, PeriodicSequence, Spectrum,
                   defining_sequence, minimal_poly_dft, minimal_poly_gcd,
                   spectrum)
from .polyring import (CyclotomicCoset, Poly, cyclotomic_coset,
                       factor_xn_minus_1, minimal_polynomial)
from .registry import Registry, default_registry, load_registry
from .verify import (CaseReport, DConstraint, Erratum, NoTheoremApplies,
                     PredictedCode, TableRow, compare, load_errata,
                     load_table, predict, run_table, sweep_field)

__version__ = "1.0.0"

__all__ = [
    "CyclicCode", "DistanceConfig", "DistanceResult", "bch_lower_bound",
    "code_from_sequence", "minimum_distance", "weight_distribution",
    "DicksonSpec", "dickson_first", "dickson_poly", "dickson_second",
    "shift_by_one",
    "Field", "FieldError", "FieldSpec", "InternalError", "ZERO",
    "MinimalPolyResult", "PeriodicSequence", "Spectrum", "defining_sequence",
    "minimal_poly_dft", "minimal_poly_gcd", "spectrum",
    "CyclotomicCoset", "Poly", "cyclotomic_coset", "factor_xn_minus_1",
    "minimal_polynomial",
    "Registry", "default_registry", "load_registry",
    "CaseReport", "DConstraint", "Erratum", "NoTheoremApplies",
    "PredictedCode", "TableRow", "compare", "load_errata", "load_table",
    "predict", "run_table", "sweep_field",
    "__version__",
]
