"""Exact Nochka weights, subgeneral-position checking, Hilbert weights, and
second-main-theorem numerics for hypersurface arrangements."""

from .bounds import BoundsResult, ParamSet, m_zero, q_m, truncation_levels
from .curves import (CurveCoordinate, ProjectiveCurve, compose, parse_coordinate,
                     parse_curve)
from .errors import ParseError, QuadratureError, ResourceBudgetError, VerificationError
from .geometry import (Arrangement, HilbertData, HilbertSlackReport, HilbertWeightResult,
                       PositionReport, check_subgeneral_position, codim_oracle,
                       format_arrangement, hilbert_function, hilbert_weight,
                       parse_arrangement, verify_hilbert_lower_bound)
from .nevanlinna import (CartanReport, ConstancyReport, LiftResult, SMTReport,
                         WronskianReport, ZeroDivisor, cartan_ru_check, characteristic,
                         counting_function, jensen_check, lift_curve, proximity,
                         smt_report, wronskian, wronskian_divisor_check, zero_divisor)
from .poly import (Ideal, Polynomial, degree_m_slice_rank, groebner_basis,
                   ideal_dimension, normal_form, parse_polynomial)
from .rank_core import (Filtration, RankOracle, ValidationReport, WeightAssignment,
                        build_filtration, format_oracle, greedy_select,
                        linear_matroid_oracle, nochka_weights, parse_oracle, rho,
                        validate_rank_oracle, verify_weight_conditions)
from .univar import QQi, UnivariatePoly, poly_gcd, squarefree_decomposition

__version__ = "0.1.0"
