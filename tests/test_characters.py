from fractions import Fraction

import pytest

from gkval import (
    CharacterError,
    HeckeCharacterDescriptor,
    LocalPlace,
    OracleError,
    RationalComplex,
    SU21,
    UnramifiedCharacter,
    compose_with_coroot,
    local_scale,
    pair,
    restrict_roots,
    split_datum,
    su_datum,
)
from gkval.characters import FUNCTION_MODE, NUMBER_MODE, coroot_data


def rc(re, im=0):
    return RationalComplex(Fraction(re), Fraction(im))


def test_function_field_canonicalization():
    chi = UnramifiedCharacter((rc(0, Fraction(7, 3)),), FUNCTION_MODE, q=4)
    assert chi.exponents[0].im == Fraction(1, 3)
    chi2 = UnramifiedCharacter((rc(0, Fraction(1, 3)),), FUNCTION_MODE, q=4)
    assert chi == chi2


def test_function_field_mode_needs_q():
    with pytest.raises(CharacterError):
        UnramifiedCharacter((rc(0),), FUNCTION_MODE, q=None)


def test_number_mode_takes_no_q():
    # a q here would be copied into every descriptor and lost by to_json
    with pytest.raises(CharacterError):
        UnramifiedCharacter((rc(0),), NUMBER_MODE, 5)


def test_field_sizes_must_be_prime_powers():
    for q in (4, 8, 9, 11):
        assert UnramifiedCharacter((rc(0),), FUNCTION_MODE, q=q).q == q
        assert LocalPlace(q).residue_q == q
    for q in (6, 12, 2**16, 2**61 - 1):  # 2^61 - 1: a prime past trial division
        with pytest.raises(CharacterError):
            UnramifiedCharacter((rc(0),), FUNCTION_MODE, q=q)
        with pytest.raises(OracleError):
            LocalPlace(q)


def test_pair_zero_direction():
    system = restrict_roots(split_datum("A", 2))
    for r in system.positive_roots:
        assert pair(system, (0, 0), r).a == 0


def test_pair_principal_ray_sl2():
    system = restrict_roots(split_datum("A", 1))
    form = pair(system, system.principal_ray(), system.positive_roots[0])
    assert (form.a, form.b) == (1, 0)


def test_pair_principal_ray_su21():
    system = restrict_roots(su_datum(1, 2))
    alpha = system.positive_roots[0]
    assert alpha.rank_one_type == SU21
    form = pair(system, system.principal_ray(), alpha)
    assert (form.a, form.b) == (4, 0)


def test_pair_scales_with_degree():
    system = restrict_roots(su_datum(2, 3))
    ray = system.principal_ray()
    for alpha in system.simple_roots:
        form = pair(system, ray, alpha)
        assert form.a == local_scale(alpha)


def test_pair_additive_over_coroot_sum_sl3():
    system = restrict_roots(split_datum("A", 2))
    ray = system.principal_ray()
    by_coords = {r.coords: r for r in system.positive_roots}
    a1, a2, a12 = by_coords[(1, 0)], by_coords[(0, 1)], by_coords[(1, 1)]
    # in type A the coroot of the sum is the sum of the coroots
    p1 = pair(system, ray, a1)
    p2 = pair(system, ray, a2)
    p12 = pair(system, ray, a12)
    assert p12.a == p1.a + p2.a


def test_compose_trivial_gives_trivial_descriptor():
    system = restrict_roots(su_datum(2, 3))
    chi = UnramifiedCharacter.trivial(system.rank)
    for alpha in system.simple_roots:
        eta = compose_with_coroot(system, chi, alpha)
        assert eta.is_trivial
        if alpha.rank_one_type == SU21:
            assert eta.degree == 2 * alpha.d_alpha
        else:
            assert eta.degree == alpha.d_alpha


def test_compose_split_a1_identity():
    system = restrict_roots(split_datum("A", 1))
    chi = UnramifiedCharacter((rc(Fraction(1, 2)),))
    eta = compose_with_coroot(system, chi, system.positive_roots[0])
    assert eta.degree == 1 and not eta.quad_twist
    assert eta.exponent == rc(1)  # coroot pairing doubles the coordinate


def test_twist_compatibility():
    # composing after a twist along the ray shifts the exponent by the
    # pairing divided by the local scale
    system = restrict_roots(su_datum(2, 2))
    ray = system.principal_ray()
    chi = UnramifiedCharacter.trivial(system.rank)
    s0 = rc(Fraction(2, 3))
    chi_twisted = UnramifiedCharacter(tuple(
        RationalComplex(z.re + s0.re * c, z.im + s0.im * c) for z, c in zip(chi.exponents, ray)))
    for alpha in system.positive_roots:
        base = compose_with_coroot(system, chi, alpha)
        shifted = compose_with_coroot(system, chi_twisted, alpha)
        form = pair(system, ray, alpha)
        k = form.a / local_scale(alpha)
        assert shifted.exponent == rc(base.exponent.re + s0.re * k, base.exponent.im + s0.im * k)


def test_descriptor_function_field_lattice():
    # triviality lattice for a degree-2 constant-field extension is (1/2)Z
    a = HeckeCharacterDescriptor("E_alpha", 2, rc(0, Fraction(1, 4)), q=3)
    b = HeckeCharacterDescriptor("E_alpha", 2, rc(0, Fraction(1, 2)), q=3)
    assert b.exponent.is_zero
    assert a.exponent.im == Fraction(1, 4)


def test_rank_mismatch_rejected():
    system = restrict_roots(split_datum("A", 2))
    chi = UnramifiedCharacter.trivial(3)
    with pytest.raises(CharacterError):
        compose_with_coroot(system, chi, system.positive_roots[0])
    with pytest.raises(CharacterError):
        pair(system, (1,), system.positive_roots[0])


def test_coroot_data_of_no_roots_reads_the_ray_but_checks_no_rank():
    """With no root, a ray entry that is not rational still raises, as it
    does wherever factors are built, but a ray, base point or character of
    the wrong rank is not checked."""
    system = restrict_roots(split_datum("A", 2))
    wrong_chi = UnramifiedCharacter.trivial(3)
    assert coroot_data(system, (), wrong_chi, (1,), (1, 2, 3)) == []
    assert coroot_data(system, (), wrong_chi) == []
    for direction, base in (((1j, 1), None), ((1, 1), (0, 1 + 0j))):
        with pytest.raises(TypeError):
            coroot_data(system, (), None, direction, base)
        with pytest.raises(TypeError):
            pair(system, direction, system.positive_roots[0], base)
