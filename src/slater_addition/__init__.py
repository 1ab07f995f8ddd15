"""One-range addition theorems for Slater orbitals and Yukawa-form functions.

A numerical library plus CLI: the infinite family of Macdonald-function
expansions of e^{-x2 sqrt(Bk^2+C)}/sqrt(Bk^2+C) and its derivatives, the
amplitude-integral series built from them, and an independent adaptive
quadrature oracle that validates every series against its integral or
closed-form left-hand side.
"""

from .errors import (
    CapacityError,
    DomainError,
    PoleError,
    QuadratureError,
    RangeError,
    SlaterAdditionError,
    TruncationError,
)
from .quadrature import QuadratureResult, integrate_2d, integrate_finite, integrate_semi_infinite
from .theorems import (
    CorollaryConfig,
    SeriesEvaluation,
    TruncationPolicy,
    YukawaFormParams,
    corollary1_legendre_eval,
    corollary_to_params,
    theorem1_eval,
    theorem1_term,
    theorem5_eval,
    theorem5_term,
    theorem6_eval,
    theorem6_term,
    two_range_mos_eval,
    yukawa_form,
)
from .amplitudes import (
    SlaterPair,
    cheshire_series,
    corollary6_n0_closed,
    s1_coulomb_closed,
    s1_equal_eta_closed,
    s1_general_term_gamma,
    s1_n0_erf_closed,
    s1_series_n_term,
    s1_tau_oracle,
    s1_two_slater_closed,
    theorem2_angular,
    theorem3_series,
    theorem4_series,
)
from .ellipsoidal import StallReport, stall_detector, t_abc_exact, t_abc_oracle, t_abc_series

__version__ = "0.1.0"
