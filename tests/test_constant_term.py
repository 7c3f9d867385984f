import copy
import importlib
import random
from fractions import Fraction

import pytest

from gkval import (
    FUNCTION_MODE,
    AffineForm,
    CharacterError,
    ConstantTermError,
    ConstantTermReport,
    MeromorphicProduct,
    UnramifiedCharacter,
    component_pole_ratio,
    constant_term,
    corollary_ratio_table,
    evaluate_finite,
    family_datum,
    multiplicativity_check,
    pole_profile,
    quasi_split_e6_datum,
    RationalComplex,
    RootPoleEntry,
    SU21,
    RootSystemError,
    WeylElement,
    restrict_roots,
    sl3_longest_factorization,
    spin_minus_datum,
    split_datum,
    su_datum,
    triality_datum,
)
from gkval.characters import compose_with_coroot, pair, rational_entries
from gkval.lfactors import poles_positive, r_alpha
from gkval.roots import local_scale

ct = importlib.import_module("gkval.constant_term")


def split_system(family, rank):
    return restrict_roots(split_datum(family, rank))


def trivial_setup(system):
    return UnramifiedCharacter.trivial(system.rank), system.principal_ray()


def test_identity_gives_empty_product():
    system = split_system("A", 2)
    chi, ray = trivial_setup(system)
    report = constant_term(system, chi, ray, WeylElement(()))
    assert report.product == MeromorphicProduct()
    assert report.factors == ()


def test_split_a1_single_factor():
    system = split_system("A", 1)
    chi, ray = trivial_setup(system)
    report = constant_term(system, chi, ray, WeylElement((0,)))
    assert len(report.factors) == 1
    f = report.factors[0]
    assert (f.pairing.a, f.pairing.b) == (1, 0)
    assert (f.local_argument.a, f.local_argument.b) == (1, 0)
    kinds = sorted((a.kind, n) for a, n in f.product)
    assert kinds == [("L", -1), ("L", 1), ("eps", -1)]


def test_sl2_factor_reads_its_atoms_in_the_pairing_over_d_alpha():
    """Split A1 over a degree-2 field has d_alpha = 2: the factor's local
    argument is its pairing over 2, and its atoms are read in it."""
    system = restrict_roots(split_datum("A", 1, res_degree=2))
    chi = UnramifiedCharacter.trivial(1)
    report = constant_term(system, chi, (Fraction(3),), WeylElement((0,)), (Fraction(1, 3),))
    (f,) = report.factors
    assert (f.root.d_alpha, f.root.rank_one_type) == (2, "SL2")
    assert (f.pairing.a, f.pairing.b) == (12, Fraction(4, 3))
    assert (f.local_argument.a, f.local_argument.b) == (6, Fraction(2, 3))
    assert {(a.kind, a.arg.a, a.arg.b, a.character.degree, n) for a, n in f.product} == {
        ("L", 6, Fraction(2, 3), 2, 1), ("eps", 6, Fraction(2, 3), 2, -1),
        ("L", 6, Fraction(5, 3), 2, -1)}


def test_constant_term_reports_the_element_it_is_given():
    """(0, 0, 1) spells s_1: the report keeps the word and reads inv(s_1),
    which is the inversion set of the normal form (1,)."""
    system = split_system("A", 2)
    chi, ray = trivial_setup(system)
    report = constant_term(system, chi, ray, WeylElement((0, 0, 1)))
    normal = constant_term(system, chi, ray, system.normalize((0, 0, 1)))
    assert report.weyl.word == (0, 0, 1) and normal.weyl.word == (1,)
    assert len(report.factors) == 1
    assert report.factors == normal.factors
    assert report.product == normal.product


def test_report_product_is_merged_on_each_read_only(monkeypatch):
    """constant_term merges no product; each read of report.product merges
    the factors' products once."""
    prod = MeromorphicProduct.prod
    merged = []

    def counted(factors):
        merged.append(prod(factors))
        return merged[-1]

    monkeypatch.setattr(MeromorphicProduct, "prod", staticmethod(counted))
    system = split_system("B", 3)
    chi, ray = trivial_setup(system)
    report = constant_term(system, chi, ray, system.longest_element())
    assert merged == []
    want = prod(f.product for f in report.factors)
    assert len(want) > 0
    for reads in (1, 2):
        assert report.product == want
        assert len(merged) == reads


def test_report_holds_no_product_of_its_own():
    """A report is its element and its factors: one cannot be built, or
    changed, to hold a product that disagrees with them."""
    system = split_system("A", 2)
    chi, ray = trivial_setup(system)
    report = constant_term(system, chi, ray, system.longest_element())
    assert ConstantTermReport._fields == ("weyl", "factors")
    with pytest.raises(TypeError):
        ConstantTermReport(report.weyl, report.factors, MeromorphicProduct())
    with pytest.raises(AttributeError):
        report.product = MeromorphicProduct()
    assert report == ConstantTermReport(report.weyl, report.factors)


def test_longest_element_one_factor_per_positive_root():
    for fam, rank in (("A", 2), ("B", 2), ("G", 2), ("B", 3)):
        system = split_system(fam, rank)
        chi, ray = trivial_setup(system)
        report = constant_term(system, chi, ray, system.longest_element())
        assert len(report.factors) == len(system.positive_roots)


def test_sl3_longest_arguments_and_value():
    out = sl3_longest_factorization(3, 1)
    assert out["arguments"] == ["s", "s", "2*s"]
    assert out["value"] == pytest.approx(52 / 27, abs=1e-12)


def test_sl3_longest_large_s_tends_to_one():
    out = sl3_longest_factorization(3, 50)
    assert out["value"] == pytest.approx(1.0, abs=1e-12)


def test_sl3_numeric_refused_off_halfplane():
    out = sl3_longest_factorization(3, -1)
    assert out["value"] is None
    assert out["arguments"] == ["s", "s", "2*s"]
    # Re s > 0, but |1 - 3^(-s)| < 1e-14: the evaluation meets a pole
    assert sl3_longest_factorization(3, 1e-15)["value"] is None


def test_report_evaluation_matches_closed_form():
    system = split_system("A", 2)
    chi, ray = trivial_setup(system)
    report = constant_term(system, chi, ray, system.longest_element())
    for q in (2, 3):
        for s in (1.0, 2.0):
            want = 1.0
            for t in (s, s, 2 * s):
                want *= (1 - q ** (-1 - t)) / (1 - q ** (-t))
            assert evaluate_finite(report.product, q, s) == pytest.approx(want, abs=1e-12)


def test_pole_profile_pairing_variable():
    system = restrict_roots(su_datum(2, 3))
    chi, _ = trivial_setup(system)
    entries = pole_profile(system, chi, w=system.longest_element())
    for e in entries:
        assert not e.conditional and e.order == 1
        if e.root.length_class == "short":
            assert e.location == 4  # unitary rank-one factor, d_alpha = 1
        else:
            assert e.location == 2


def test_pole_profile_ray_variable():
    system = split_system("A", 2)
    chi, ray = trivial_setup(system)
    entries = pole_profile(
        system, chi, direction=ray, w=system.longest_element(), variable="ray"
    )
    # pairings s, s, 2s: poles at s=1, 1, 1/2
    locs = sorted(e.location for e in entries)
    assert locs == [Fraction(1, 2), 1, 1]


def test_pole_profile_needs_direction_for_ray_variable():
    system = split_system("A", 2)
    chi, _ = trivial_setup(system)
    with pytest.raises(ConstantTermError):
        pole_profile(system, chi, w=system.longest_element(), variable="ray")


def test_component_ratio_simply_laced_all_equal():
    for fam, rank in (("A", 3), ("D", 4), ("E", 6)):
        system = split_system(fam, rank)
        measured = component_pole_ratio(system)
        assert set(measured["poles"]) == {"all"}


def test_component_ratio_tables():
    # measured long/short pole ratios per folded family
    expected = {
        ("SU(n,n+1)", 3): Fraction(1, 2),
        ("SU(n,n)", 3): Fraction(1, 2),
        ("Spin2n-", 5): Fraction(1, 2),
        ("3D4", 4): Fraction(3),
        ("2E6", 6): Fraction(1, 2),
    }
    for (fam, n), ratio in expected.items():
        system = restrict_roots(family_datum(fam, n, 1))
        measured = component_pole_ratio(system)
        assert measured["long_over_short"] == ratio, fam


def test_corollary_table_rules():
    assert corollary_ratio_table("A3") == {"kind": "equal"}
    assert corollary_ratio_table("D5") == {"kind": "equal"}
    b = corollary_ratio_table("B3")
    assert (b["numerator"], b["denominator"], b["ratio"]) == ("short", "long", 2)
    f = corollary_ratio_table("F4")
    assert (f["numerator"], f["denominator"], f["ratio"]) == ("short", "long", 2)
    c = corollary_ratio_table("C3")
    assert (c["numerator"], c["denominator"], c["ratio"]) == ("short", "long", 2)
    g = corollary_ratio_table("G2")
    assert (g["numerator"], g["denominator"], g["ratio"]) == ("long", "short", 3)


def test_corollary_rules_hold_across_table_ranges():
    # SU(2,2) folds to B2 and SU(n,n) with n >= 3 to C_n: both must obey
    # the rule of their folded type, at every rank and degree
    ranges = {
        "SU(n,n+1)": range(2, 5),
        "SU(n,n)": range(2, 6),
        "Spin2n-": range(4, 7),
        "3D4": (0,),
        "2E6": (0,),
    }
    for fam, ns in ranges.items():
        for n in ns:
            for d_prime in (1, 2, 3):
                system = restrict_roots(family_datum(fam, n, d_prime))
                ctype = system.components[0][0]
                rule = corollary_ratio_table(ctype)
                poles = component_pole_ratio(system)["poles"]
                assert poles[rule["numerator"]] / poles[rule["denominator"]] == (
                    rule["ratio"]
                ), (fam, n, d_prime, ctype)


def test_multiplicativity_identity():
    system = split_system("A", 2)
    chi, ray = trivial_setup(system)
    e = system.normalize([])
    w = system.normalize([0, 1])
    assert multiplicativity_check(system, chi, ray, e, w)


def test_multiplicativity_sl3_longest_split():
    system = split_system("A", 2)
    chi, ray = trivial_setup(system)
    w1 = system.normalize([0])
    w2 = system.normalize([1, 0])
    assert multiplicativity_check(system, chi, ray, w1, w2)


def test_multiplicativity_g2_longest_split():
    system = split_system("G", 2)
    chi, ray = trivial_setup(system)
    w0 = system.longest_element()
    w1 = system.normalize(w0.word[:3])
    w2 = system.normalize(w0.word[3:])
    assert len(system.normalize(w1.word + w2.word).word) == 6
    assert multiplicativity_check(system, chi, ray, w1, w2)


def test_multiplicativity_exhaustive_rank2():
    for fam in ("A", "B", "G"):
        system = split_system(fam, 2)
        chi, ray = trivial_setup(system)
        elements = system.weyl_enumerate()
        for w1 in elements:
            for w2 in elements:
                if len(system.normalize(w1.word + w2.word).word) != len(w1.word) + len(w2.word):
                    continue
                assert multiplicativity_check(system, chi, ray, w1, w2)


def test_multiplicativity_random_rank4():
    rng = random.Random(23)
    checked = 0
    for fam in ("B", "D", "F"):
        system = split_system(fam, 4)
        chi, ray = trivial_setup(system)
        while checked < 40:
            word = [rng.randrange(4) for _ in range(rng.randrange(1, 12))]
            w = system.normalize(word)
            cut = rng.randrange(len(w.word) + 1)
            w1 = system.normalize(w.word[:cut])
            w2 = system.normalize(w.word[cut:])
            if len(system.normalize(w1.word + w2.word).word) != len(w1.word) + len(w2.word):
                continue
            assert multiplicativity_check(system, chi, ray, w1, w2)
            checked += 1
        checked = 0


def test_multiplicativity_rejects_non_additive_split():
    system = split_system("A", 2)
    chi, ray = trivial_setup(system)
    s0 = system.normalize([0])
    with pytest.raises(ConstantTermError):
        multiplicativity_check(system, chi, ray, s0, s0)


def test_multiplicativity_reads_lengths_from_inversion_sets():
    """Words need not be reduced: s0 s0 s1 has length 1, so it splits
    additively off s0 s1 but not off s1 s0."""
    system = split_system("A", 2)
    chi, ray = trivial_setup(system)
    w1 = WeylElement((0, 0, 1))
    assert multiplicativity_check(system, chi, ray, w1, WeylElement((0, 1)))
    with pytest.raises(ConstantTermError, match="lengths do not add"):
        multiplicativity_check(system, chi, ray, w1, WeylElement((1, 0)))


@pytest.mark.parametrize("letter", [2, -1])
def test_weyl_inputs_reject_bad_letters(letter):
    system = split_system("A", 2)
    chi, ray = trivial_setup(system)
    bad, good = WeylElement((letter,)), WeylElement((0,))
    with pytest.raises(RootSystemError, match="out of range"):
        multiplicativity_check(system, chi, ray, good, bad)
    with pytest.raises(RootSystemError, match="out of range"):
        multiplicativity_check(system, chi, ray, bad, good)
    with pytest.raises(RootSystemError, match="out of range"):
        pole_profile(system, chi, w=WeylElement((0, letter)))
    with pytest.raises(RootSystemError, match="out of range"):
        constant_term(system, chi, ray, bad)


def test_multiplicativity_nontrivial_character():
    system = split_system("A", 2)
    chi = UnramifiedCharacter(
        (RationalComplex(Fraction(1, 3)), RationalComplex(Fraction(1, 5)))
    )
    ray = system.principal_ray()
    w1 = system.normalize([1])
    w2 = system.normalize([0, 1])
    assert multiplicativity_check(system, chi, ray, w1, w2)


def per_root_factor(system, chi, alpha, direction, base=None):
    """(pairing, local argument, r_alpha) of one root, built root by root:
    pair, then compose_with_coroot, then r_alpha in the pairing over the
    root's local scale.  Without a direction the pairing is the unit form."""
    if direction is None:
        pairing = AffineForm(Fraction(1), Fraction(0))
    else:
        pairing = pair(system, direction, alpha, base)
    eta = compose_with_coroot(system, chi, alpha)
    x = AffineForm(pairing.a / local_scale(alpha), pairing.b / local_scale(alpha))
    return pairing, x, r_alpha(x, alpha.rank_one_type, eta)


def _product_check(system, chi, direction, w1, w2, base=None):
    """The cocycle check as first written: both sides built as atom products
    of rank-one factors, whatever the inversion sets."""
    inv1, inv2 = system.inversion_set(w1), system.inversion_set(w2)
    inv12 = system.inversion_set(WeylElement(tuple(w1.word) + tuple(w2.word)))
    if len(inv12) != len(inv1) + len(inv2):
        raise ConstantTermError("lengths do not add")
    # read first, so that non-rational entries raise where no factor is built
    rational_entries(direction if base is None else (*direction, *base))

    def factor(alpha):
        return per_root_factor(system, chi, alpha, direction, base)[2]

    translated = system.images(tuple(reversed(w2.word)), [beta.index for beta in inv1])
    split = inv2 + tuple(system.positive_roots[x] for x in translated)
    return (MeromorphicProduct.prod(factor(alpha) for alpha in inv12)
            == MeromorphicProduct.prod(factor(alpha) for alpha in split))


# the systems of the weyl-sweep benchmark: SU21-type roots (4 of the 16 of SU(4,5)),
# d' > 1 (2E6 and SU(4,4) at d' = 2), triality and Spin-
SWEEP_DATA = [split_datum("F", 4), split_datum("B", 6), split_datum("D", 6),
              split_datum("E", 6), quasi_split_e6_datum(2), triality_datum(),
              su_datum(4, 4, 2), su_datum(4, 5), spin_minus_datum(6)]


def _random_character(rng, n, q):
    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    exponents = tuple(RationalComplex(rational(), rational()) for _ in range(n))
    return UnramifiedCharacter(exponents, FUNCTION_MODE, q) if q else UnramifiedCharacter(exponents)


def _check_by_fractions(system, chi, alpha, direction, base, pairing):
    """The pairing and the composed character of alpha, against sums of
    Fraction products over its pairing vector."""
    vec, scale = system.coroot_pairing_vector(alpha), local_scale(alpha)
    assert pairing.a == sum(d * c for d, c in zip(direction, vec))
    assert pairing.b == (0 if base is None else sum(b * c for b, c in zip(base, vec)))
    eta = compose_with_coroot(system, chi, alpha)
    assert eta.degree == alpha.d_alpha * (2 if alpha.rank_one_type == SU21 else 1)
    assert eta.exponent.re == sum(z.re * c for z, c in zip(chi.exponents, vec)) / scale
    im = sum(z.im * c for z, c in zip(chi.exponents, vec)) / scale
    assert eta.exponent.im == (im if chi.q is None else im % Fraction(1, eta.degree))
    assert eta.q == chi.q


@pytest.mark.parametrize("datum", SWEEP_DATA, ids=lambda d: d.label)
def test_one_pass_factors_match_the_per_root_path(datum):
    """constant_term builds the factors of inv(w) in one pass; each equals the
    factor built root by root through pair, compose_with_coroot and r_alpha,
    with number- and function-field characters, with and without a base
    point, from the identity to w0.  The pairing variable of pole_profile
    reads the unit form the same way."""
    system = restrict_roots(datum)
    rng = random.Random(datum.label)
    n = system.rank
    words = [(), system.longest_element().word] + [
        tuple(rng.randrange(n) for _ in range(rng.randrange(1, 3 * n))) for _ in range(4)]
    kinds = set()
    for word in words:
        w = system.normalize(word)
        roots = system.inversion_set(w)
        for q in (None, rng.choice((2, 4, 9, 25))):
            chi = _random_character(rng, n, q)
            direction = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
            for base in (None, tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                     for _ in range(n))):
                report = constant_term(system, chi, direction, w, base)
                assert [f.root for f in report.factors] == list(roots)
                for f in report.factors:
                    expected = per_root_factor(system, chi, f.root, direction, base)
                    assert (f.pairing, f.local_argument, f.product) == expected
                    kinds.add((f.root.rank_one_type, f.root.d_alpha > 1, q is None))
                    _check_by_fractions(system, chi, f.root, direction, base, f.pairing)
                assert report.product == MeromorphicProduct.prod(
                    per_root_factor(system, chi, alpha, direction, base)[2] for alpha in roots)
            assert pole_profile(system, chi, w=w, include_conditional=True) == tuple(
                RootPoleEntry(alpha, e.location, e.order, e.conditional) for alpha in roots
                for e in poles_positive(per_root_factor(system, chi, alpha, None)[2], True))
    # every root kind of the system is met, in both field modes
    assert {(r.rank_one_type, r.d_alpha > 1) for r in system.positive_roots} == {
        (t, big) for t, big, _ in kinds}
    assert {number for _, _, number in kinds} == {True, False}


def test_wrong_ranks_raise_in_order_only_where_inv_w_is_not_empty():
    """The ray is checked before the character, the direction before the base
    point, once per call and only when inv(w) has a root, as the per-root
    path pair then compose_with_coroot raises on its first root."""
    system = restrict_roots(su_datum(4, 5))
    n = system.rank
    good_chi, bad_chi = UnramifiedCharacter.trivial(n), UnramifiedCharacter.trivial(n + 1)
    good, bad = system.principal_ray(), system.principal_ray()[:-1]
    cases = [(bad_chi, bad, good, "ray direction has wrong rank"),
             (bad_chi, good, bad, "ray base point has wrong rank"),
             (bad_chi, bad, bad, "ray direction has wrong rank"),
             (bad_chi, good, None, "character has wrong rank"),
             (good_chi, bad, None, "ray direction has wrong rank")]
    w0, e = system.longest_element(), WeylElement(())
    for chi, direction, base, message in cases:
        with pytest.raises(CharacterError, match=f"^{message}$"):
            constant_term(system, chi, direction, w0, base)
        with pytest.raises(CharacterError, match=f"^{message}$"):
            pole_profile(system, chi, direction, base, w=w0, variable="ray")
        with pytest.raises(CharacterError, match=f"^{message}$"):
            per_root_factor(system, chi, system.positive_roots[0], direction, base)
        report = constant_term(system, chi, direction, e, base)
        assert report.factors == () and report.product == MeromorphicProduct()
        assert pole_profile(system, chi, direction, base, w=e, variable="ray") == ()
    with pytest.raises(CharacterError, match="^character has wrong rank$"):
        pole_profile(system, bad_chi, w=w0)
    assert pole_profile(system, bad_chi, w=e) == ()


def _outcome(check, *args):
    """The value check returns, or the class of the exception it raises."""
    try:
        return check(*args)
    except Exception as exc:  # the class is the outcome
        return type(exc)


REFERENCE_DATA = [split_datum("A", 2), split_datum("B", 3), split_datum("G", 2),
                  split_datum("F", 4), su_datum(3, 3, 2), triality_datum(),
                  quasi_split_e6_datum()]


def _pairs(system, rng, count):
    """Per drawn word: a split of its normal form (length-additive), a split
    of the word itself, the normal form beside an independent word (mostly
    not additive), and the identity beside each; then the identity twice and
    a letter out of range on each side."""
    e = WeylElement(())
    pairs = []
    for _ in range(count):
        word = tuple(rng.randrange(system.rank) for _ in range(rng.randrange(1, 14)))
        reduced = system.normalize(word).word
        for w in (reduced, word):
            cut = rng.randrange(len(w) + 1)
            pairs.append((WeylElement(w[:cut]), WeylElement(w[cut:])))
        other = WeylElement(tuple(rng.randrange(system.rank) for _ in range(4)))
        pairs += [(WeylElement(reduced), other), (e, WeylElement(reduced)),
                  (WeylElement(word), e)]
    return pairs + [(e, e), (WeylElement((system.rank,)), WeylElement((-1,)))]


def _rays(system, rng):
    """(chi, direction, base): the trivial character on the principal ray,
    where distinct roots share factors, then a function-field character at
    a random base point."""
    n = system.rank

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    chi = UnramifiedCharacter(tuple(RationalComplex(rational(), rational())
                                    for _ in range(n)), FUNCTION_MODE, 9)
    return [(UnramifiedCharacter.trivial(n), system.principal_ray(), None),
            (chi, tuple(rational() for _ in range(n)), tuple(rational() for _ in range(n)))]


@pytest.mark.parametrize("datum", REFERENCE_DATA, ids=lambda d: d.label)
def test_multiplicativity_matches_the_product_check(datum):
    """Deciding the inversion-set identity on root indices gives what
    comparing the atom products gives, on every pair and character, and
    raises the same exception class on a character or ray of the wrong rank
    whenever the products would build a factor."""
    system = restrict_roots(datum)
    rng = random.Random(datum.label)
    outcomes = set()
    for chi, direction, base in _rays(system, rng):
        for w1, w2 in _pairs(system, rng, 12):
            args = (system, chi, direction, w1, w2, base)
            expected = _outcome(_product_check, *args)
            assert _outcome(multiplicativity_check, *args) == expected, (w1, w2)
            outcomes.add(expected)
    assert outcomes == {True, ConstantTermError, RootSystemError}
    n = system.rank
    long_chi = UnramifiedCharacter.trivial(n + 1)
    wrong = [(long_chi, system.principal_ray(), None),
             (UnramifiedCharacter.trivial(n), system.principal_ray()[:-1], None),
             (UnramifiedCharacter.trivial(n), system.principal_ray(), (0,) * (n + 1))]
    e = WeylElement(())
    for chi, direction, base in wrong:
        for w2, expected in ((system.longest_element(), CharacterError), (e, True)):
            args = (system, chi, direction, e, w2, base)
            assert _outcome(_product_check, *args) == expected
            assert _outcome(multiplicativity_check, *args) == expected
    # entries that are not rational raise, even where no factor is built
    nan = (float("nan"),) + system.principal_ray()[1:]
    unreadable = [(nan, None, ValueError), (system.principal_ray(), nan, ValueError),
                  (None, None, TypeError), ((object(),) * n, None, TypeError)]
    for direction, base, expected in unreadable:
        for w2 in (system.longest_element(), e):
            args = (system, UnramifiedCharacter.trivial(n), direction, e, w2, base)
            assert _outcome(_product_check, *args) == expected
            assert _outcome(multiplicativity_check, *args) == expected


def test_corrupted_tables_fail_the_check():
    """On copies whose reflection tables swap two entries the inversion-set
    identity can fail, and the check then returns False.  The product check
    returns True instead only where the two root lists differ but share
    their rank-one factors, which hides the broken table."""
    seen = set()
    for datum in REFERENCE_DATA:
        system = restrict_roots(datum)
        rng = random.Random(datum.label)
        for j in range(system.rank):
            broken = copy.copy(system)
            table = list(system.reflection_tables[j])
            a, b = rng.sample(range(len(system.positive_roots)), 2)
            table[a], table[b] = table[b], table[a]
            broken.reflection_tables = (system.reflection_tables[:j] + (tuple(table),)
                                        + system.reflection_tables[j + 1:])
            for chi, direction, base in _rays(system, rng):
                for w1, w2 in _pairs(system, rng, 6):
                    args = (broken, chi, direction, w1, w2, base)
                    got = _outcome(multiplicativity_check, *args)
                    expected = _outcome(_product_check, *args)
                    if got != expected:
                        assert (got, expected) == (False, True), (datum.label, j, w1, w2)
                    seen.add((got, expected))
    assert {(False, False), (False, True)} <= seen
