"""growthlab: random harmonic series against radial growth targets.

Library plus CLI for building doubling weights and their block sequences,
sampling subnormal sign sequences, constructing the classical extremal
coefficient schemes, evaluating the resulting series on the disk, ball and
sphere with certified sup-norm brackets, scoring membership criteria, and
reproducing the separation and sharpness phenomena by seeded Monte Carlo.
"""

__version__ = "0.1.0"

from .errors import GrowthLabError
from .weights import (Weight, BlockSequence, make_weight, eval_g, eval_v, eval_w, doubling_audit,
                      block_sequence, weight_to_json, weight_from_json,
                      parse_weight_spec)
from .randomness import (RandomModel, SeedSpec, make_model, sample_vector,
                         mgf_audit, SUBNORMAL_KINDS)
from .schemes import (CoefficientScheme, NuSequence, uniform_block_scheme,
                      loglog_energy_scheme, riesz_lacunary_scheme,
                      saturating_scheme, rudin_shapiro_signs, rudin_shapiro_scheme,
                      hadamard_lacunary_scheme, radial_derivative, scheme_from_csv,
                      G_OVER_N, G_OVER_SQRT_NLOGN, G_OVER_SQRT_N)
from .disk import (RandomizedSeries, SupBracket, randomize, unit_series,
                   evaluate_at, evaluate_circle, sup_bracket, gradient_at,
                   gradient_sup_bracket, REAL_HARMONIC, ANALYTIC)
from .sphere import (SphericalBasis, SphereSeries, build_basis, fibonacci_covering,
                     default_covering, sup_bracket_sphere, cap_fraction,
                     random_degree_combination, laplacian_stencil)
from .criteria import (score_sup_ratio, score_block_sum, score_blockwise,
                       operator_norm_profile, ScoreReport, BlockScoreReport,
                       L2_CUM, L1_CUM, L1_SQRT, L2_LOG, CESARO, PARTIAL)
from .census import liminf_profile, coefficient_census
from .mclab import (ExperimentConfig, EnsembleReport, run_growth_ensemble,
                    salem_zygmund_probe, riesz_probe, cesaro_domination_check,
                    fit_growth, random_scheme, scheme_from_provenance,
                    GROWTH_CANDIDATES)
