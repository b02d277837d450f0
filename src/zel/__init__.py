"""Extreme values of log zeta and its iterated integrals.

Numerical companion machinery: branch-tracked log zeta and its iterated
integrals eta_m, prime Dirichlet polynomials with streaming batch
kernels, moment computations by three routes (exact multiplicative sum,
saddle-radius contour integral, empirical grid average), Bessel-product
asymptotics, and exceedance-measure tail predictions.
"""

from .special_fn import log_bessel_i0, g_constant, a_constant
from .prime_poly import (PolySpec, PrimeTable, TGrid, lambda_sum, max_spacing,
                         poly_eval, sieve, von_mangoldt_table)
from .zeta_core import (NearZeroOnPath, ZetaAccuracyWarning, ZetaPoleError,
                        b_constant, c_constant, eta_tilde, log_zeta_branched,
                        s_m, zeta)
from .moments import (MomentResult, bessel_product, contour_moment,
                      empirical_moment, exact_moment, exp_moment_trimmed)
from .tails import (ExceedanceCurve, FAMILIES, TailPrediction,
                    measure_exceedance_eta, measure_exceedance_poly_multi,
                    predict_tail, solve_saddle_critical, solve_saddle_strip)

__version__ = "0.1.0"

__all__ = [
    "log_bessel_i0", "g_constant", "a_constant",
    "PolySpec", "PrimeTable", "TGrid", "lambda_sum", "max_spacing",
    "poly_eval", "sieve", "von_mangoldt_table",
    "NearZeroOnPath", "ZetaAccuracyWarning", "ZetaPoleError",
    "b_constant", "c_constant",
    "eta_tilde", "log_zeta_branched", "s_m", "zeta",
    "MomentResult", "bessel_product",
    "contour_moment", "empirical_moment", "exact_moment",
    "exp_moment_trimmed",
    "ExceedanceCurve", "FAMILIES", "TailPrediction",
    "measure_exceedance_eta", "measure_exceedance_poly_multi",
    "predict_tail", "solve_saddle_critical", "solve_saddle_strip",
]
