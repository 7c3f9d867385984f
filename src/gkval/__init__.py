"""Symbolic constant-term factorizations for quasi-split groups, with
exact root-system folding, Hecke L-factor algebra, pole analysis, and
independent numeric oracles."""

from .characters import (
    AffineForm,
    CharacterError,
    FUNCTION_MODE,
    HeckeCharacterDescriptor,
    NUMBER_MODE,
    RationalComplex,
    UnramifiedCharacter,
    compose_with_coroot,
    local_scale,
    pair,
)
from .constant_term import (
    ConstantTermError,
    ConstantTermReport,
    RankOneFactor,
    RootPoleEntry,
    component_pole_ratio,
    constant_term,
    corollary_ratio_table,
    multiplicativity_check,
    pole_profile,
    sl3_longest_factorization,
)
from .lfactors import (
    LFactorAtom,
    LFactorError,
    MeromorphicProduct,
    PoleAtEvaluation,
    PoleEntry,
    evaluate_finite,
    local_euler_value,
    poles_positive,
    r_alpha,
)
from .roots import (
    GroupDatum,
    RelativeRoot,
    RelativeRootSystem,
    RootSystemError,
    SL2,
    SU21,
    WeylElement,
    cartan_matrix,
    derived_table,
    family_datum,
    proposition_table,
    quasi_split_e6_datum,
    restrict_roots,
    spin_minus_datum,
    split_datum,
    su_datum,
    triality_datum,
)

__version__ = "0.1.0"

# The numeric oracles load on first use (PEP 562): only the verify-* checks
# need them.  constant_term stays eager, because importing the submodule
# would make gkval.constant_term the module instead of the function.
_ORACLE_NAMES = frozenset({
    "DivergentIntegral",
    "LocalPlace",
    "NotConverged",
    "OracleConfig",
    "OracleError",
    "arch_gk",
    "gk_integral_sl2",
    "gk_integral_sl3",
    "gk_integral_su21_inert",
    "legendre_check",
    "normalizing_factor_arch",
    "s_independence_check",
    "sl2_closed_form",
    "su21_inert_closed_form",
})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
