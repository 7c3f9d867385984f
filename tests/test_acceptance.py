"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line for its criterion.  Criterion 7
asserts the tabulated ratio rules verbatim against the measured pole
profile of each folded family.
"""

import random
import time
from fractions import Fraction

from gkval import (
    AffineForm,
    HeckeCharacterDescriptor,
    LocalPlace,
    RationalComplex,
    SL2,
    SU21,
    UnramifiedCharacter,
    arch_gk,
    component_pole_ratio,
    corollary_ratio_table,
    derived_table,
    family_datum,
    gk_integral_sl2,
    gk_integral_sl3,
    gk_integral_su21_inert,
    legendre_check,
    multiplicativity_check,
    normalizing_factor_arch,
    poles_positive,
    proposition_table,
    r_alpha,
    restrict_roots,
    sl2_closed_form,
    sl3_longest_factorization,
    split_datum,
    su21_inert_closed_form,
)


def report(criterion: int, name: str, ok: bool) -> None:
    print(f"criterion {criterion} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_sl2_shell_equivalence():
    start = time.monotonic()
    ok = True
    for q in (2, 3, 5):
        place = LocalPlace(q)
        for s in (1, Fraction(3, 2), 2, 3):
            got = gk_integral_sl2(place, float(s))
            if abs(got - sl2_closed_form(q, float(s))) >= 1e-10:
                ok = False
    ok = ok and (time.monotonic() - start) < 1.0
    report(1, "sl2 shell integral", ok)


def test_criterion_2_su21_inert_equivalence():
    start = time.monotonic()
    ok = True
    for q in (3, 5):
        place = LocalPlace(q)
        for s in (1, 2):
            got = gk_integral_su21_inert(place, s)
            if abs(got - su21_inert_closed_form(q, s)) >= 1e-9:
                ok = False
    ok = ok and (time.monotonic() - start) < 10.0
    report(2, "su21 inert integral", ok)


def test_criterion_3_sl3_factorization():
    ok = True
    out = sl3_longest_factorization(3, 1)
    if abs(out["value"] - 52 / 27) >= 1e-10:
        ok = False
    for q in (2, 3):
        for s in (1, 2):
            composed = gk_integral_sl3(LocalPlace(q), s)
            displayed = sl3_longest_factorization(q, s)["value"]
            if abs(composed - displayed) >= 1e-10:
                ok = False
    report(3, "sl3 factorization", ok)


def test_criterion_4_archimedean_constancy():
    samples = (0.7, 1.0, 1.3, 2.1, 3.0)
    ok = True
    for case in ("SL2_R", "ResC/R_SL2", "SU21_R"):
        values = [arch_gk(case, s) * normalizing_factor_arch(case, s)
                  for s in samples]
        ref = values[0]
        if any(abs(v - ref) > 1e-9 * abs(ref) for v in values):
            ok = False
    report(4, "archimedean constancy", ok)


def test_criterion_5_legendre_duplication():
    samples = [0.3 + 0.2 * k for k in range(10)]
    report(5, "legendre duplication", legendre_check(samples))


def test_criterion_6_degree_tables():
    ok = True
    families = (
        ("SU(n,n+1)", range(2, 7)),
        ("SU(n,n)", range(2, 7)),
        ("Spin2n-", range(4, 7)),
        ("3D4", (4,)),
        ("2E6", (6,)),
    )
    for d_prime in (1, 2, 3):
        for family, ns in families:
            for n in ns:
                system = restrict_roots(family_datum(family, n, d_prime))
                if derived_table(system) != proposition_table(family, d_prime=d_prime):
                    ok = False
    report(6, "classification degree tables", ok)


def test_criterion_7_pole_ratio_rules():
    ok = True
    cases = (
        ("SU(n,n+1)", 3),   # relative B
        ("SU(n,n)", 3),     # relative C
        ("Spin2n-", 5),     # relative B
        ("3D4", 4),         # relative G2
        ("2E6", 6),         # relative F4
    )
    for family, n in cases:
        system = restrict_roots(family_datum(family, n, 1))
        rule = corollary_ratio_table(system.components[0][0])
        measured = component_pole_ratio(system)["poles"]
        if measured[rule["numerator"]] / measured[rule["denominator"]] != (
            rule["ratio"]
        ):
            ok = False
    for family, rank in (("A", 3), ("D", 4), ("E", 6)):
        system = restrict_roots(split_datum(family, rank))
        measured = component_pole_ratio(system)["poles"]
        if len(set(measured.values())) != 1:
            ok = False
    report(7, "pole ratio rules", ok)


def test_criterion_8_weyl_invariants():
    ok = True
    for family in ("A", "B", "G"):
        system = restrict_roots(split_datum(family, 2))
        chi = UnramifiedCharacter.trivial(system.rank)
        ray = system.principal_ray()
        elements = system.weyl_enumerate()
        for w in elements:
            if len(system.inversion_set(w)) != len(w.word):
                ok = False
        for w1 in elements:
            for w2 in elements:
                inv12 = {r.index for r in system.inversion_set(
                    system.normalize(w1.word + w2.word))}
                if len(inv12) != len(w1.word) + len(w2.word):
                    continue
                inv2 = {r.index for r in system.inversion_set(w2)}
                # w2^{-1} on root indices; a negative image ~i is no
                # positive root's index
                moved = set(system.images(
                    w2.word[::-1], [r.index for r in system.inversion_set(w1)]))
                if not inv2.isdisjoint(moved) or inv12 != inv2 | moved:
                    ok = False
                if not multiplicativity_check(system, chi, ray, w1, w2):
                    ok = False
    rng = random.Random(1729)
    budget = 500
    systems = [restrict_roots(split_datum(f, 4)) for f in ("B", "D", "F")]
    setups = [
        (s, UnramifiedCharacter.trivial(s.rank), s.principal_ray())
        for s in systems
    ]
    for i in range(budget):
        system, chi, ray = setups[i % len(setups)]
        word = [rng.randrange(4) for _ in range(rng.randrange(14))]
        w = system.normalize(word)
        if len(system.inversion_set(w)) != len(w.word):
            ok = False
        cut = rng.randrange(len(w.word) + 1)
        w1 = system.normalize(w.word[:cut])
        w2 = system.normalize(w.word[cut:])
        w12 = system.normalize(w1.word + w2.word)
        if len(w12.word) == len(w1.word) + len(w2.word):
            if not multiplicativity_check(system, chi, ray, w1, w2):
                ok = False
    report(8, "weyl and inversion invariants", ok)


def test_criterion_9_pole_ledger():
    ok = True
    for d in (1, 2, 3, 4):
        eta_f = HeckeCharacterDescriptor(
            "F" if d == 1 else "F_alpha", d, RationalComplex()
        )
        profile = poles_positive(r_alpha(AffineForm.of(Fraction(1, d)), SL2, eta_f))
        if [(e.location, e.order) for e in profile] != [(d, 1)]:
            ok = False
        eta_e = HeckeCharacterDescriptor("E_alpha", 2 * d, RationalComplex())
        profile = poles_positive(r_alpha(AffineForm.of(Fraction(1, 4 * d)), SU21, eta_e))
        if [(e.location, e.order) for e in profile] != [(4 * d, 1)]:
            ok = False
    report(9, "positive pole ledger", ok)
