"""Numerical toolkit for entropy inequalities of log-concave lattice
distributions: Renyi entropies and varentropy, concavity of
t -> log(t * sum x_i**t), majorization against geometric comparators,
concentration of information content, and the associated sharp constants.
"""

from .entropy import power_sum, renyi, shannon, varentropy
from .inequalities import (
    C_constant,
    K_constant,
    Side,
    check_concentration,
    check_renyi_gap,
    check_varentropy,
    concentration_bound,
    empirical_tail,
    epi_reversal_check,
    gap_constant,
    h2_hinf_identity_check,
    mean_mode_check,
    rate_r,
    sup_varentropy_symmetric,
)
from .lattice import (
    DifferenceLaw,
    Direction,
    LatticePMF,
    LawKind,
    ParametricLaw,
    difference,
    is_log_concave,
    materialize,
    monotonicity,
    normalize,
    pmf_from_json,
    symmetry_center,
)
from .lyapunov import (
    check_concavity,
    counterexample_check,
    extended_phi,
    phi,
    phi_second_derivative,
)
from .majorization import (
    CrossingResult,
    GeometricSequence,
    LevelCount,
    PowerDensity,
    SymmetricFold,
    cake_layer_check,
    convex_order_check,
    crossing_interval,
    crossing_verify,
    fold_symmetric,
    level_count,
    power_transform_density,
)
from .matching import MatchResult, match_geometric, match_symmetric_geometric, renyi_dominance_report
from .report import CheckReport

__version__ = "0.1.0"
