"""Exact computations around modular symbols of rational elliptic curves."""

from .arith import CycElt, ModInt, Rat, cyc_embed, hensel_unit_root
from .curves import (
    CurveData,
    EulerFactor,
    bad_ap,
    count_points,
    curve_by_label,
    euler_factor,
    load_catalog,
)
from .groupring import (
    DirichletCharacter,
    GroupRingElement,
    eval_character,
    gauss_sum,
    kolyvagin_derivative,
    norm_map,
    project,
)
from .kurihara import (
    discrete_log,
    kurihara_number,
    nonvanishing_search,
    sieve_admissible,
)
from .modsym import (
    EigenSymbol,
    ModularSymbolSpace,
    build_space,
    calibrate_periods,
    eigen_symbol,
)
from .padic import (
    PadicThetaTower,
    interpolate_character,
    interpolate_trivial,
    iwasawa_invariants,
    stabilize,
)
from .qexp import (
    QSeries,
    TorsionPoint,
    check_c_relation,
    dlog_d_eisenstein,
    eisenstein_00,
    f_series,
    rationalized_g_qexp,
    siegel_theta_qexp,
    zeta_modular_form,
)
from .theta import (
    ThetaElement,
    adjudicate_norm_relations,
    check_norm_relation,
    integrality_report,
    theta_element,
    twisted_lvalue_avatar,
)

__version__ = "0.1.0"
