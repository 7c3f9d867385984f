import cmath
import json
import math
from fractions import Fraction

import pytest

from gkval import (
    AffineForm,
    HeckeCharacterDescriptor,
    LFactorAtom,
    MeromorphicProduct,
    PoleAtEvaluation,
    RationalComplex,
    SL2,
    SU21,
    evaluate_finite,
    local_euler_value,
    poles_positive,
    r_alpha,
    sl3_longest_factorization,
)
from gkval.lfactors import (
    KIND_EPS,
    KIND_L,
    LFactorError,
    PoleEntry,
)
from gkval.oracles import checked_gamma


def trivial_eta(degree=1, label="F", quad=False):
    return HeckeCharacterDescriptor(label, degree, RationalComplex(),
                                    quad_twist=quad)


def atom(kind=KIND_L, a=1, b=0, degree=1, quad=False, label="F"):
    return LFactorAtom(
        kind=kind,
        arg=AffineForm.of(a, b),
        character=trivial_eta(degree, label, quad),
    )


def test_normalize_cancels_inverses():
    p = MeromorphicProduct([(atom(), 1), (atom(), -1)])
    assert len(p) == 0
    assert p == MeromorphicProduct()


def test_normalize_merges_duplicates():
    p = MeromorphicProduct([(atom(), 1), (atom(), 1)])
    assert list(p) == [(atom(), 2)]


def test_product_repr_lists_its_terms_in_order():
    p = MeromorphicProduct([(atom(b=1), -1), (atom(), 2)])
    assert repr(p) == f"MeromorphicProduct([({atom()!r}, 2), ({atom(b=1)!r}, -1)])"
    assert repr(MeromorphicProduct()) == "MeromorphicProduct([])"


def test_normalize_idempotent_and_multiplicative():
    p = MeromorphicProduct([(atom(), 1), (atom(b=1), -1)])
    q = MeromorphicProduct([(atom(b=1), 1), (atom(a=2), 3)])
    assert MeromorphicProduct(p) == p
    prod = MeromorphicProduct.prod
    assert MeromorphicProduct(prod((p, q))) == prod((MeromorphicProduct(p), MeromorphicProduct(q)))


def test_r_alpha_sl2_shape():
    p = r_alpha(AffineForm.of(1), SL2, trivial_eta())
    pairs = {(a.kind, a.arg.a, a.arg.b): n for a, n in p}
    assert pairs == {
        (KIND_L, 1, 0): 1,
        (KIND_L, 1, 1): -1,
        (KIND_EPS, 1, 0): -1,
    }


def test_r_alpha_su21_shape():
    eta = trivial_eta(2, "E_alpha")
    p = r_alpha(AffineForm.of(1), SU21, eta)
    by_field = {}
    for a, n in p:
        by_field.setdefault(a.character.field_label, []).append((a.kind, a.arg.a, a.arg.b, n))
    e_args = sorted(by_field["E_alpha"])
    f_args = sorted(by_field["F"])
    assert e_args == [
        (KIND_L, 1, 0, 1), (KIND_L, 1, 1, -1), (KIND_EPS, 1, 0, -1),
    ]
    assert f_args == [
        (KIND_L, 2, 0, 1), (KIND_L, 2, 1, -1), (KIND_EPS, 2, 0, -1),
    ]
    # the degree-one factor carries the quadratic class character
    for a, _ in p:
        if a.character.field_label == "F":
            assert a.character.quad_twist


def test_r_alpha_denominator_arguments_shifted_by_one():
    for typ, deg in ((SL2, 1), (SU21, 2)):
        eta = trivial_eta(deg, "E_alpha" if typ == SU21 else "F")
        p = r_alpha(AffineForm.of(4), typ, eta)
        nums = sorted(
            (a.character.field_label, a.arg.a, a.arg.b) for a, n in p
            if n > 0 and a.kind == KIND_L
        )
        dens = sorted(
            (a.character.field_label, a.arg.a, a.arg.b - 1) for a, n in p
            if n < 0 and a.kind == KIND_L
        )
        assert nums == dens


@pytest.mark.parametrize("degree, q, exponent, restricted, label", [
    (4, 9, (Fraction(1, 3), Fraction(1, 5)), (Fraction(2, 3), Fraction(2, 5)), "F_alpha"),
    (4, 9, (Fraction(1, 3), Fraction(9, 10)), (Fraction(2, 3), Fraction(3, 10)), "F_alpha"),
    (2, None, (Fraction(1, 2), Fraction(3, 7)), (Fraction(1), Fraction(6, 7)), "F"),
    (2, 9, (Fraction(-1, 4), Fraction(1, 3)), (Fraction(-1, 2), Fraction(2, 3)), "F"),
], ids=["degree-4", "degree-4-reduced", "degree-2", "degree-2-function"])
def test_r_alpha_su21_restricts_eta_to_the_base(degree, q, exponent, restricted, label):
    """The atoms of an SU21-type factor over K carry eta restricted to K and
    twisted by the class character of E/K: half the degree, the exponent
    doubled and, over a function field, reduced modulo 1/degree, and the
    twist set, also where eta itself is twisted (its twist is a base change
    from K, which restricts trivially).  The atoms over E carry eta."""
    half = degree // 2
    for twist in (False, True):
        eta = HeckeCharacterDescriptor("E_alpha", degree, RationalComplex(*exponent), twist, q)
        by_degree = {}
        for a, _ in r_alpha(AffineForm.of(Fraction(1, 3), 1), SU21, eta):
            by_degree.setdefault(a.character.degree, set()).add(a.character)
        assert by_degree == {degree: {eta}, half: {HeckeCharacterDescriptor(
            label, half, RationalComplex(*restricted), True, q)}}
        (eta_k,) = by_degree[half]
        assert (eta_k.field_label, eta_k.exponent.re, eta_k.exponent.im) == (
            label, *restricted)


def test_r_alpha_rejects_wrong_field_degree():
    with pytest.raises(LFactorError):
        r_alpha(AffineForm.of(1), SU21, trivial_eta(1))


def test_poles_sl2_trivial():
    prof = poles_positive(r_alpha(AffineForm.of(1), SL2, trivial_eta()))
    assert [(e.location, e.order) for e in prof] == [(1, 1)]


def test_poles_need_a_positive_location():
    """At x = s + 1 the L-factor's pole at x = 1 sits at s = 0, and x = 0 is
    constant: neither gives a pole on the positive s-axis."""
    for a, b in ((1, 1), (0, 0)):
        assert poles_positive(r_alpha(AffineForm.of(a, b), SL2, trivial_eta())) == ()


def test_poles_scale_linearly_with_argument():
    for d in (1, 2, 3):
        eta = trivial_eta(d, "F_alpha" if d > 1 else "F")
        prof = poles_positive(r_alpha(AffineForm.of(Fraction(1, d)), SL2, eta))
        assert [e.location for e in prof] == [Fraction(d)]


def test_poles_quad_twist_has_no_unconditional_pole():
    eta = trivial_eta(1, "F", quad=True)
    prof = poles_positive(r_alpha(AffineForm.of(1), SL2, eta))
    assert prof == ()
    prof2 = poles_positive(
        r_alpha(AffineForm.of(1), SL2, eta), include_conditional=True
    )
    assert len(prof2) == 1 and prof2[0].conditional


def test_poles_nontrivial_unitary_conditional_only():
    eta = HeckeCharacterDescriptor("F", 1, RationalComplex(im=Fraction(1, 2)))
    product = r_alpha(AffineForm.of(1), SL2, eta)
    assert poles_positive(product) == ()
    assert all(e.conditional for e in poles_positive(product, include_conditional=True))


def test_euler_values():
    assert local_euler_value(atom(), 3, 1) == pytest.approx(1.5)
    assert local_euler_value(atom(quad=True), 3, 1) == pytest.approx(0.75)
    assert local_euler_value(atom(degree=2, label="E_alpha"), 3, 1) == (
        pytest.approx(9 / 8)
    )
    assert local_euler_value(atom(kind=KIND_EPS), 3, 1) == 1.0


def test_euler_value_signals_pole():
    with pytest.raises(PoleAtEvaluation):
        local_euler_value(atom(), 3, 0)


@pytest.mark.parametrize("eps", [Fraction(1, 10**15), Fraction(1, 10**30)])
def test_euler_pole_is_decided_exactly_at_a_rational_s(eps):
    """At s = 0 the argument s + eps is not a pole, and the value is
    1 / (1 - 2^-eps), about 1 / (eps log 2); a complex s keeps the float
    test, which cannot tell eps from 0."""
    value = local_euler_value(atom(b=eps), 2, 0)
    assert value == pytest.approx(1 / (float(eps) * math.log(2)), rel=1e-12)
    assert local_euler_value(atom(b=eps), 2, Fraction(0)) == value
    for s in (0, Fraction(0)):
        with pytest.raises(PoleAtEvaluation):
            local_euler_value(atom(), 2, s)
    with pytest.raises(PoleAtEvaluation):
        local_euler_value(atom(b=eps), 2, 0j)


@pytest.mark.parametrize("b", [Fraction(1, 10**400), -Fraction(1, 10**400),
                               Fraction(1, 10**320), Fraction(1, 10**30)],
                         ids=["1e-400", "-1e-400", "1e-320", "1e-30"])
@pytest.mark.parametrize("s", [1, Fraction(1)], ids=["int", "Fraction"])
def test_euler_value_next_to_the_pole_is_not_a_pole(s, b):
    """At x = 0*s + b and a rational s the pole is decided on the exact x: the
    value 1 / (1 - 2^-b), about 1 / (b log 2), is infinite with the sign of
    b where that exceeds the largest float, also where b itself is below
    float range.  b = 0 is the pole."""
    value = local_euler_value(atom(a=0, b=b), 2, s)
    if abs(b) < Fraction(1, 10**300):
        assert value == (math.inf if b > 0 else -math.inf)
    else:
        assert value == pytest.approx(1 / (float(b) * math.log(2)), rel=1e-12)
    with pytest.raises(PoleAtEvaluation):
        local_euler_value(atom(a=0, b=0), 2, s)


@pytest.mark.parametrize("quad", [False, True], ids=["untwisted", "twisted"])
@pytest.mark.parametrize("s", [0, Fraction(0), 0j], ids=["int", "Fraction", "complex"])
def test_euler_value_far_below_zero_is_tiny(s, quad):
    """At x = s - 1030 and q = 2, q^(-x) = 2^1030 overflows a float; the value
    1 / (1 - c 2^1030) is about -c 2^-1030, with c = -1 under the twist.  At
    x = s - 2000 it is within 1e-300 of 0."""
    want = (1.0 if quad else -1.0) * 2.0 ** -1030
    value = local_euler_value(atom(b=-1030, quad=quad), 2, s)
    assert abs(value - want) <= 1e-12 * abs(want)
    tiny = local_euler_value(atom(b=-2000, quad=quad), 2, s)
    assert isinstance(tiny, (float, complex)) and abs(tiny) < 1e-300


@pytest.mark.parametrize("quad", [False, True], ids=["untwisted", "twisted"])
@pytest.mark.parametrize("s", [0, Fraction(0), 0j], ids=["int", "Fraction", "complex"])
def test_euler_value_beyond_float_range(s, quad):
    """At x = s +- 10^400 and q = 2, x itself is beyond float range; the value
    1 / (1 - c 2^(-x)) is 1.0 above 0 and within 1e-300 of 0 below.  With
    a = 10^400 and x = 1 at s = 0, or x = 2 at s = 1 where a and b cancel,
    only a coefficient is: the value is 1 / (1 - c 2^(-x)) at that x."""
    assert local_euler_value(atom(b=10**400, quad=quad), 2, s) == 1.0
    assert abs(local_euler_value(atom(b=-10**400, quad=quad), 2, s)) < 1e-300
    c = -1 if quad else 1
    for x, value in ((1, local_euler_value(atom(a=10**400, b=1, quad=quad), 2, s)),
                     (2, local_euler_value(atom(a=10**400, b=2 - 10**400, quad=quad), 2,
                                           s + 1))):
        assert value == pytest.approx(1 / (1 - c * 2.0 ** -x), rel=1e-15)


def test_poles_tied_on_location_follow_the_atom_order():
    """Poles that tie on (location, conditional) are listed in the atoms' sort
    order, not in the order the product was built in: L over E before L over
    F, and among conditional poles the smaller imaginary exponent first.
    Unconditional poles come first, also where the atom order puts a
    conditional one (imaginary exponent -1/2) before them."""
    def unitary(im):
        eta = HeckeCharacterDescriptor("F", 1, RationalComplex(im=Fraction(im)))
        return LFactorAtom(KIND_L, AffineForm.of(2, -1), eta)

    p = MeromorphicProduct([(unitary("1/2"), 3), (atom(), 1), (unitary("1/3"), 4),
                            (atom(degree=2, label="E"), 2), (unitary("-1/2"), 5)])
    one = Fraction(1)
    assert poles_positive(p, include_conditional=True) == (
        PoleEntry(one, 2, False), PoleEntry(one, 1, False), PoleEntry(one, 5, True),
        PoleEntry(one, 4, True), PoleEntry(one, 3, True))


def test_evaluate_finite_sl2_closed_form():
    p = r_alpha(AffineForm.of(1), SL2, trivial_eta())
    for q in (2, 3, 5):
        for s in (1.0, 2.0, 2.5):
            want = (1 - q ** (-1 - s)) / (1 - q ** (-s))
            assert evaluate_finite(p, q, s) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("q", [1, 0, -2, 6, 2.5, True])
def test_evaluation_needs_a_field_size(q):
    """Unchecked, q = 1 would give nan, 0 and -2 a bare error or a value by the
    type of s, and 6, 2.5 and True a value at a place that does not exist."""
    p = r_alpha(AffineForm.of(1), SL2, trivial_eta())
    for s in (2, Fraction(5, 2), 2.0, 2 + 1j):
        with pytest.raises(LFactorError, match="prime power"):
            evaluate_finite(p, q, s)
        with pytest.raises(LFactorError, match="prime power"):
            evaluate_finite(MeromorphicProduct(), q, s)
        for a in (atom(), atom(kind=KIND_EPS)):
            with pytest.raises(LFactorError, match="prime power"):
                local_euler_value(a, q, s)
    with pytest.raises(LFactorError, match="prime power"):
        sl3_longest_factorization(q, 2)


def test_evaluation_at_field_sizes():
    p = r_alpha(AffineForm.of(1), SL2, trivial_eta())
    for q in (2, 4, 9):
        assert local_euler_value(atom(), q, 1) == pytest.approx(q / (q - 1))
        assert evaluate_finite(p, q, 2) == pytest.approx((1 - q ** -3) / (1 - q ** -2))
        want = (1 - q ** -3) ** 2 * (1 - q ** -5) / ((1 - q ** -2) ** 2 * (1 - q ** -4))
        assert sl3_longest_factorization(q, 2)["value"] == pytest.approx(want)


# Gamma is a Lanczos approximation in double precision: these tests check it
# against math.gamma on the real axis and by exact identities off it.

REAL_AXIS = [k / 20 for k in range(1, 801)] + [k - 0.5 for k in range(-9, 1)]


def test_gamma_matches_math_gamma_on_the_real_axis():
    worst = max(abs(checked_gamma(x) - math.gamma(x)) / abs(math.gamma(x))
                for x in REAL_AXIS)
    assert worst < 1e-13
    assert checked_gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)


COMPLEX_POINTS = [complex(re, t) for re in (-3.3, 0.25, 0.5, 1.0, 2.7, 11.0)
                  for t in (0.5, 1.0, 3.0, 7.5, 12.0, 20.0)]


@pytest.mark.parametrize("z", COMPLEX_POINTS)
def test_gamma_satisfies_the_recurrence_and_conjugation(z):
    assert checked_gamma(z + 1) == pytest.approx(z * checked_gamma(z), rel=1e-12)
    assert checked_gamma(z.conjugate()) == pytest.approx(
        checked_gamma(z).conjugate(), rel=1e-12)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0])
def test_gamma_moduli_on_vertical_lines(t):
    """|Gamma(1/2 + it)|^2 = pi / cosh(pi t) and |Gamma(1 + it)|^2 = pi t / sinh(pi t)."""
    assert abs(checked_gamma(0.5 + 1j * t)) ** 2 == pytest.approx(
        math.pi / math.cosh(math.pi * t), rel=1e-12)
    assert abs(checked_gamma(1 + 1j * t)) ** 2 == pytest.approx(
        math.pi * t / math.sinh(math.pi * t), rel=1e-12)


@pytest.mark.parametrize("x", [0, -1, -7, -1e-13, 1e-13, 1e-13j, -1 + 1e-13, -1 - 1e-13,
                               -7 + 1e-13, complex(-7, -1e-13)])
def test_gamma_raises_at_and_near_its_poles(x):
    with pytest.raises(PoleAtEvaluation):
        checked_gamma(x)


@pytest.mark.parametrize("n, eps", [(2, 1e-9), (0, 1e-9), (1, -1e-9), (3, -1e-8)])
def test_gamma_is_finite_just_off_its_poles(n, eps):
    """Gamma(-n + eps) is close to (-1)^n / (n! eps) once |eps| is past the
    pole tolerance, far below 1e-6."""
    expected = (-1) ** n / (math.factorial(n) * eps)
    assert checked_gamma(-n + eps) == pytest.approx(expected, rel=1e-4)


def test_gamma_past_the_largest_float_is_infinite():
    assert math.isfinite(checked_gamma(171).real)
    for x in (172, 180.5, 300, 1000):
        assert cmath.isinf(checked_gamma(x))
    assert checked_gamma(-200.5) == 0


def test_json_round_trip_keeps_function_field_size():
    """Only a function-field atom records its q; every atom's place kind is
    the finite one."""
    eta = HeckeCharacterDescriptor("F", 1, RationalComplex(im=Fraction(1, 3)), q=4)
    p = r_alpha(AffineForm.of(1), SL2, eta)
    data = json.loads(json.dumps(p.to_json()))
    assert [atom["character"]["q"] for atom in data] == [4, 4, 4]
    number = r_alpha(AffineForm.of(1), SL2, trivial_eta())
    assert all("q" not in atom["character"] for atom in number.to_json())
    assert {atom["field"]["place_kind"] for atom in data + number.to_json()} == {"finite"}


def test_atom_order_is_total_over_mode_and_q():
    """Atoms that differ only in the constant-field size q sort apart, so a
    product's equality and JSON do not depend on the order of its terms."""
    a1, a2 = (
        LFactorAtom(KIND_L, AffineForm.of(1),
                    HeckeCharacterDescriptor("F", 1, RationalComplex(im=Fraction(1, 3)),
                                             q=q))
        for q in (2, 3)
    )
    p12 = MeromorphicProduct([(a1, 1), (a2, 1)])
    p21 = MeromorphicProduct([(a2, 1), (a1, 1)])
    assert p12 == p21 and hash(p12) == hash(p21)
    assert json.dumps(p12.to_json()) == json.dumps(p21.to_json())
    assert [atom.character.q for atom, _ in p21] == [2, 3]
