"""The library's own input checks: each call below passes one malformed or
out-of-range argument and must raise the named error, not compute on."""

from fractions import Fraction

import pytest

from gkval import (
    SU21,
    AffineForm,
    CharacterError,
    ConstantTermError,
    DivergentIntegral,
    HeckeCharacterDescriptor,
    LFactorAtom,
    LFactorError,
    LocalPlace,
    MeromorphicProduct,
    OracleError,
    RationalComplex,
    RootSystemError,
    UnramifiedCharacter,
    WeylElement,
    component_pole_ratio,
    corollary_ratio_table,
    family_datum,
    gk_integral_su21_inert,
    normalizing_factor_arch,
    pole_profile,
    proposition_table,
    r_alpha,
    restrict_roots,
    spin_minus_datum,
    split_datum,
    su_datum,
)
from gkval.lfactors import KIND_L, PLACE_FINITE
from gkval.roots import by_length_class

S = AffineForm(Fraction(1), Fraction(0))
ETA = HeckeCharacterDescriptor("F", 1, RationalComplex())
ATOM = LFactorAtom(KIND_L, PLACE_FINITE, S, ETA)


def b2():
    return restrict_roots(split_datum("B", 2))


REJECTED = {
    "character-mode": (lambda: UnramifiedCharacter((), "bogus"), CharacterError),
    "descriptor-degree": (lambda: HeckeCharacterDescriptor("F", 0, RationalComplex()),
                          CharacterError),
    "atom-kind": (lambda: LFactorAtom("zeta", PLACE_FINITE, S, ETA), LFactorError),
    "product-float-exponent": (lambda: MeromorphicProduct([(ATOM, 1.0)]), LFactorError),
    "r-alpha-odd-degree": (lambda: r_alpha(S, SU21, ETA), LFactorError),
    "r-alpha-type": (lambda: r_alpha(S, "SL3", ETA), LFactorError),
    "pole-variable": (lambda: pole_profile(b2(), UnramifiedCharacter.trivial(2),
                                           w=WeylElement(()), variable="x"),
                      ConstantTermError),
    "pole-ratio-component": (lambda: component_pole_ratio(b2(), 5), ConstantTermError),
    "ratio-table-type": (lambda: corollary_ratio_table("X9"), ConstantTermError),
    "su-datum": (lambda: su_datum(1, 3), RootSystemError),
    "spin-minus-datum": (lambda: spin_minus_datum(3), RootSystemError),
    "table-d-prime": (lambda: proposition_table("SU(n,n)", 2, 0), RootSystemError),
    "table-family": (lambda: proposition_table("SU(n)", 2), RootSystemError),
    "table-least-n": (lambda: proposition_table("Spin2n-", 3), RootSystemError),
    "family-datum": (lambda: family_datum("split"), RootSystemError),
    "mixed-length-class": (lambda: by_length_class(b2().positive_roots, lambda r: r.index,
                                                   "indices"), RootSystemError),
    "arch-case": (lambda: normalizing_factor_arch("x", 1.0), OracleError),
    "su21-shell-divergent": (lambda: gk_integral_su21_inert(LocalPlace(3), -1),
                             DivergentIntegral),
}


@pytest.mark.parametrize("call, error", REJECTED.values(), ids=REJECTED)
def test_malformed_argument_raises(call, error):
    with pytest.raises(error):
        call()
