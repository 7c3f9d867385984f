"""The fold cache of ``restrict_roots`` and the rank-one factors that
``constant_term`` remembers from its last call, keyed by its arguments and
w itself: results equal those on a freshly folded system, a ray
``pole_profile`` on the same arguments reads the remembered factors without
computing inv(w) again, returned systems share nothing mutable, and
``verify-all`` does a fixed amount of work (one fold per diagram, three
rank-one factors).
"""

import contextlib
import fractions
import importlib
import io
from fractions import Fraction

import pytest

from gkval import (
    FUNCTION_MODE,
    RationalComplex,
    UnramifiedCharacter,
    WeylElement,
    multiplicativity_check,
    pole_profile,
    restrict_roots,
    split_datum,
    su_datum,
)
from gkval.cli import main

roots = importlib.import_module("gkval.roots")
ct = importlib.import_module("gkval.constant_term")
checks = importlib.import_module("gkval.checks")
records = importlib.import_module("gkval.records")


def _keys(system):
    """(chi, direction, base) keys; neighbours differ in exactly one of base,
    the character's mode, its q and the direction."""
    n = system.rank
    exps = tuple(RationalComplex(Fraction(i + 1, 3), Fraction(i, 2)) for i in range(n))
    ray, base = system.principal_ray(), tuple(Fraction(j, 3) for j in range(n))
    other = tuple(Fraction(j + 1, 2) for j in range(n))
    chi = UnramifiedCharacter(exps)
    ff4, ff8 = (UnramifiedCharacter(exps, FUNCTION_MODE, q) for q in (4, 8))
    return [(chi, ray, None), (chi, ray, base), (ff4, ray, base), (ff8, ray, base),
            (ff8, other, base)]


def _results(system, chi, direction, base):
    """Every caller of the ray factors under one key, then a pole profile in
    the pairing variable, which builds its factors with the unit form."""
    w = system.longest_element()
    cut = len(w.word) // 2
    w1, w2 = WeylElement(w.word[:cut]), WeylElement(w.word[cut:])
    return [
        ct.constant_term(system, chi, direction, w, base),
        ct.constant_term(system, chi, direction, w1, base),
        [e.to_json() for e in pole_profile(system, chi, direction, base, w=w,
                                           variable="ray", include_conditional=True)],
        multiplicativity_check(system, chi, direction, w1, w2, base),
        [e.to_json() for e in pole_profile(system, chi, w=w2, include_conditional=True)],
    ]


def test_remembered_factors_match_fresh_systems():
    for datum in (su_datum(2, 3, 2), split_datum("B", 3), split_datum("G", 2, 3)):
        shared = restrict_roots(datum)
        keys = _keys(shared)
        for key in keys + keys[::-1]:
            fresh = _results(restrict_roots(datum), *key)
            assert _results(shared, *key) == fresh, (datum.label, key)


def test_ray_poles_read_the_factors_of_the_last_call(monkeypatch):
    """A ray pole_profile right after constant_term on the same arguments
    builds no rank-one factor and computes no inversion set, also with a
    multiplicativity_check in between, which builds no factor whatever its
    ray; a different w or lambda builds the factors of its inversion set
    again.  The memo is keyed by w, so only a miss computes inv(w), and a
    pole_profile in the pairing variable computes it once."""
    system = restrict_roots(split_datum("B", 3))
    chi = UnramifiedCharacter.trivial(system.rank)
    ray, w0, w = system.principal_ray(), system.longest_element(), system.normalize((0, 1))
    builds, inversions = [], []
    r_alpha = ct.r_alpha
    inversion_set = roots.RelativeRootSystem.inversion_set

    def counted(*args):
        builds.append(args)
        return r_alpha(*args)

    def counted_inversions(self, w):
        inversions.append(w)
        return inversion_set(self, w)

    def ray_poles(direction, w, base=None):
        pole_profile(system, chi, direction, base, w=w, variable="ray")
        return len(builds)

    monkeypatch.setattr(ct, "r_alpha", counted)
    monkeypatch.setattr(roots.RelativeRootSystem, "inversion_set", counted_inversions)
    ct.constant_term(system, chi, ray, w0)
    assert (len(builds), len(inversions)) == (9, 1)
    assert ray_poles(ray, w0) == 9
    assert len(inversions) == 1
    assert multiplicativity_check(system, chi, (1, 2, 3), w0, WeylElement(()), (0, 1, 0))
    assert ray_poles(ray, w0) == 9
    assert ray_poles(ray, w) == 11
    assert ray_poles((1, 2, 3), w) == 13
    assert ray_poles((1, 2, 3), w, (0, 1, 0)) == 15
    inversions.clear()
    ct.constant_term(system, chi, (1, 2, 3), w, (0, 1, 0))
    assert (len(builds), inversions) == (15, [])
    pole_profile(system, chi, w=w)
    assert (len(builds), inversions) == (17, [w])


def test_remembered_factors_match_rational_entries_only():
    """A ray entry that equals a rational but is not one, such as 1+0j,
    raises whether or not the last call had the rational ray; a Fraction or
    float entry of the same value reads the remembered factors."""
    system = restrict_roots(split_datum("A", 2))
    chi, w0 = UnramifiedCharacter.trivial(system.rank), system.longest_element()

    def ray_poles(direction):
        return pole_profile(system, chi, direction, w=w0, variable="ray")

    for call in (lambda d: ct.constant_term(system, chi, d, w0).factors, ray_poles):
        with pytest.raises(TypeError):
            call((1 + 0j, 1))
        factors = call((1, 1))
        assert len(factors) == 3
        with pytest.raises(TypeError):
            call((1 + 0j, 1))
        assert call((1, 1)) == call((Fraction(1), 1.0)) == factors


def test_character_exponents_are_read_as_rationals_in_either_order():
    """An exponent that equals a rational but is not one, such as 0.5+0j in
    re or im, raises TypeError in both modes, before and after a call with
    the rational exponent; a float of the same value reads as that rational."""
    system = restrict_roots(split_datum("A", 2))
    w0 = system.longest_element()

    def factors(z, *mode):
        chi = UnramifiedCharacter((z, RationalComplex()), *mode)
        return ct.constant_term(system, chi, (1, 1), w0).factors

    for mode in ((), (FUNCTION_MODE, 5)):
        for inexact, exact in (((0.5 + 0j,), (Fraction(1, 2),)),
                               ((0, 0.5 + 0j), (0, Fraction(1, 2)))):
            with pytest.raises(TypeError):
                factors(RationalComplex(*inexact), *mode)
            expected = factors(RationalComplex(*exact), *mode)
            assert len(expected) == 3
            with pytest.raises(TypeError):
                factors(RationalComplex(*inexact), *mode)
            assert factors(RationalComplex(*(float(x) for x in exact)), *mode) == expected


def test_returned_systems_share_nothing_mutable():
    datum = su_datum(3, 3)
    first = restrict_roots(datum)
    expected = [list(o) for o in first.simple_orbits]
    first.simple_orbits[0].append(99)
    first.simple_orbits.append([42])
    ct.constant_term(first, *_keys(first)[1][:2], first.longest_element())
    second = restrict_roots(datum)
    assert second.simple_orbits == expected


def test_verify_all_work_counts(monkeypatch):
    """verify-all at GK_SEED=0 folds each of its 23 distinct (Cartan,
    automorphism) pairs once, in 60 restrict_roots calls (71 before the
    worked SL(3) example was built once per process), generates the roots of
    each of its 19 distinct Cartan matrices once, for the 60 validations and
    the 23 folds (then validation ran its own elimination, and each fold
    generated its roots again), builds the 3 rank-one
    factors of the SL(3) report (62 when multiplicativity_check built the
    factors of every inverted root and compared atom products, 2,334
    without the factor table, 95 before the SL(3) example was built once)
    and makes 300 normalize calls (301 when constant_term normalized the w0
    its caller had just built, 302 when
    longest_element normalized its own walk, whose word is already the
    normal form, for the SL(3) report; 1,986 when multiplicativity_check
    and pole_profile normalized their words and weyl_enumerate normalized
    every word times every letter, 2,802 when multiplicativity_check also
    re-normalized its products)."""
    builds, normalized, validated = [], [], []
    r_alpha = ct.r_alpha
    normalize = roots.RelativeRootSystem.normalize
    validate = roots._validate_cartan

    def counted(*args):
        builds.append(args)
        return r_alpha(*args)

    def counted_normalize(self, word):
        normalized.append(word)
        return normalize(self, word)

    def counted_validate(a):
        validated.append(tuple(map(tuple, a)))
        validate(a)

    monkeypatch.setattr(ct, "r_alpha", counted)
    monkeypatch.setattr(roots, "_validate_cartan", counted_validate)
    monkeypatch.setattr(roots.RelativeRootSystem, "normalize", counted_normalize)
    monkeypatch.setenv("GK_SEED", "0")
    roots._fold.cache_clear()
    roots._generate_roots.cache_clear()
    ct._sl3_longest.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify-all", "--output-format", "json"]) == 0
    info = roots._fold.cache_info()
    assert (info.misses, info.misses + info.hits) == (23, 60)
    info = roots._generate_roots.cache_info()
    assert (len(validated), len(set(validated))) == (60, 19)
    assert (info.misses, info.misses + info.hits) == (19, 83)
    assert len(builds) == 3
    assert len(normalized) == 300


def test_weyl_checks_build_no_factors_or_products(monkeypatch):
    """The cocycle checks of verify-all at seed 0 hold on root indices: no
    rank-one factor is built and no atom product is merged."""
    calls = []

    def counted(name, f):
        def wrapper(*args):
            calls.append(name)
            return f(*args)
        return wrapper

    monkeypatch.setattr(ct, "r_alpha", counted("r_alpha", ct.r_alpha))
    monkeypatch.setattr(ct.MeromorphicProduct, "prod",
                        staticmethod(counted("prod", ct.MeromorphicProduct.prod)))
    assert all(c["pass"] for c in checks.weyl_checks(0))
    assert calls == []


def test_weyl_checks_compare_no_fractions_or_records(monkeypatch):
    """The cocycle checks of verify-all at seed 0 make no Fraction.__eq__ or
    Record.__eq__ call (11,880 of each when they merged atom products and
    atoms compared through Record.__eq__ field by field, down to the
    Fractions of their arguments and exponents): they compare root indices,
    and atoms compare by their stored integer keys."""
    calls = {"fraction": 0, "record": 0}

    def counted(cls, name):
        eq = cls.__eq__

        def wrapper(self, other):
            calls[name] += 1
            return eq(self, other)
        monkeypatch.setattr(cls, "__eq__", wrapper)

    counted(fractions.Fraction, "fraction")
    counted(records.Record, "record")
    assert all(c["pass"] for c in checks.weyl_checks(0))
    assert calls == {"fraction": 0, "record": 0}


FRACTION_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                      "__truediv__", "__rtruediv__", "__mod__", "__rmod__")


def test_factors_and_poles_use_no_fraction_operators(monkeypatch):
    """constant_term at w0 and a ray pole profile with conditional poles, on
    SU(4,5) with a function-field character and a base point, build every
    rational of a factor and every pole location from integer ratios: no
    Fraction operator runs (120 calls when r_alpha scaled and shifted
    forms, the descriptors reduced and doubled exponents, and poles_positive
    subtracted and divided)."""
    system = restrict_roots(su_datum(4, 5))
    n = system.rank
    exps = tuple(RationalComplex(Fraction(i - 1, 3), Fraction(2 * i + 1, 5)) for i in range(n))
    chi = UnramifiedCharacter(exps, FUNCTION_MODE, 9)
    direction = tuple(Fraction(j + 1, 2) for j in range(n))
    base = tuple(Fraction(1 - j, 3) for j in range(n))
    w0 = system.longest_element()
    calls = []
    for name in FRACTION_OPERATORS:
        def wrapper(*args, _op=getattr(fractions.Fraction, name), _name=name):
            calls.append(_name)
            return _op(*args)
        monkeypatch.setattr(fractions.Fraction, name, wrapper)
    report = ct.constant_term(system, chi, direction, w0, base)
    poles = pole_profile(system, chi, direction, base, w=w0, variable="ray",
                         include_conditional=True)
    monkeypatch.undo()
    assert len(report.factors) == len(system.positive_roots) and poles
    assert calls == []
