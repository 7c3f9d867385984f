"""The Weyl group of a relative system: normal forms and the permutation
tables through which W acts on the relative roots.

Closed forms (Humphreys, *Reflection Groups and Coxeter Groups*, 3.7 and
3.18) give the length n h / 2 of the longest element and the order of W
as the product of the degrees; they are written here, not read from the
program.  The tables themselves must be involutions on the root indices
that send exactly one positive root, the simple root, negative.  The
index action of a word and ``inversion_set`` must agree with a reflection
action on coordinate vectors computed here from the relative Cartan matrix
alone.  Normal forms are built from the weight w rho, not from the tables,
so the tables check them: ``normalize`` must keep the element, its index
action on every root, on words with cancelling pairs.  ``weyl_enumerate``
must agree with a BFS over ``normalize`` under whichever rule
``_least_descent`` states, and ``longest_element`` with the normal form of
its own word and with the last element of ``weyl_enumerate``'s walk.
Last, Macdonald's identity checks the fold's Hecke parameters and the W
action together, exactly, over the whole Weyl group.
"""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkval import (
    SU21,
    RootSystemError,
    UnramifiedCharacter,
    WeylElement,
    constant_term,
    family_datum,
    multiplicativity_check,
    pole_profile,
    restrict_roots,
    split_datum,
    su_datum,
)
from gkval import roots

# family -> (least rank, Coxeter number h(n), degrees(n))
CLOSED_FORMS = {
    "A": (1, lambda n: n + 1, lambda n: range(2, n + 2)),
    "B": (2, lambda n: 2 * n, lambda n: range(2, 2 * n + 1, 2)),
    "C": (2, lambda n: 2 * n, lambda n: range(2, 2 * n + 1, 2)),
    "D": (4, lambda n: 2 * n - 2, lambda n: [*range(2, 2 * n - 1, 2), n]),
}
EXCEPTIONAL = {  # (family, rank) -> (h, degrees)
    ("E", 6): (12, (2, 5, 6, 8, 9, 12)),
    ("E", 7): (18, (2, 6, 8, 10, 12, 14, 18)),
    ("E", 8): (30, (2, 8, 12, 14, 18, 20, 24, 30)),
    ("F", 4): (12, (2, 6, 8, 12)),
    ("G", 2): (6, (2, 6)),
}


def _split_types():
    """(family, rank, h, degrees) of split A1-A12, B2-B12, C2-C12, D4-D12,
    E6-E8, F4 and G2."""
    out = []
    for family, (least, h, degrees) in CLOSED_FORMS.items():
        out += [(family, n, h(n), tuple(degrees(n))) for n in range(least, 13)]
    out += [(family, n, h, degrees) for (family, n), (h, degrees) in EXCEPTIONAL.items()]
    return out


SPLIT = _split_types()


def _table_data():
    out = []
    for d in (1, 2, 3):
        out += [family_datum("SU(n,n+1)", n, d) for n in range(2, 7)]
        out += [family_datum("SU(n,n)", n, d) for n in range(2, 7)]
        out += [family_datum("Spin2n-", n, d) for n in range(4, 7)]
        out += [family_datum("3D4", 4, d), family_datum("2E6", 6, d)]
    return out


DATA = _table_data() + [split_datum(family, n) for family, n, _, _ in SPLIT]


@functools.cache
def fold(datum):
    return restrict_roots(datum)


def test_longest_element_length_is_n_h_over_2():
    for family, n, h, _ in SPLIT:
        w0 = fold(split_datum(family, n)).longest_element()
        assert len(w0.word) == n * h // 2, f"{family}{n}"


def test_longest_element_is_its_own_normal_form():
    """longest_element spells the lexicographically least reduced word of
    w0, with one letter per positive reduced root, and normalize leaves
    that word as it is."""
    for datum in DATA:
        system = fold(datum)
        w0 = system.longest_element()
        assert len(w0.word) == len(system.positive_roots), datum.label
        assert system.normalize(w0.word) == w0, datum.label


def test_weyl_queries_write_nothing_on_the_system():
    """Normal forms, inversion sets, images and the enumeration are read off
    the fold's tables, and the constant term, its poles in both variables
    and the cocycle check are built from them; none of them stores anything
    on the system."""
    system = restrict_roots(family_datum("SU(n,n+1)", 2, 2))
    before = dict(vars(system))
    w0 = system.longest_element()
    w = system.normalize((1, 0, 1, 1))
    system.inversion_set(w0)
    system.inversion_set(w)
    system.images(w.word, range(len(system.positive_roots)))
    system.weyl_enumerate()
    system.normalize(w0.word)
    chi, ray = UnramifiedCharacter.trivial(system.rank), system.principal_ray()
    constant_term(system, chi, ray, w0)
    pole_profile(system, chi, ray, w=w0, variable="ray")
    pole_profile(system, chi, w=w)
    assert multiplicativity_check(system, chi, ray, w, WeylElement(()))
    after = vars(system)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_longest_element_is_the_last_element_of_the_walk():
    """w0 is the one element of greatest length, so the last element that
    weyl_enumerate's own walk lists must be it.  Groups with more than 24
    positive roots, or more elements than weyl_enumerate lists, are left out
    to keep the test near 0.3 s."""
    checked = 0
    for datum in DATA:
        system = fold(datum)
        if len(system.positive_roots) > 24:
            continue
        try:
            elements = system.weyl_enumerate()
        except RootSystemError:  # split A6, of order 5040
            continue
        assert system.longest_element() == elements[-1], datum.label
        checked += 1
    assert checked == 45


def test_weyl_group_order_is_product_of_degrees():
    checked = 0
    for family, n, _, degrees in SPLIT:
        if math.prod(degrees) <= 4000:
            elements = fold(split_datum(family, n)).weyl_enumerate()
            assert len(elements) == math.prod(degrees), f"{family}{n}"
            checked += 1
    assert checked == 17  # A1-A5, B2-B5, C2-C5, D4, D5, F4, G2


def test_tables_are_involutions_sending_one_positive_root_negative():
    for datum in DATA:
        system = fold(datum)
        n = len(system.positive_roots)
        assert len(system.reflection_tables) == system.rank
        for j, table in enumerate(system.reflection_tables):
            assert len(table) == 2 * n
            assert all(table[table[x]] == x for x in range(-n, n)), (datum.label, j)
            assert [i for i in range(n) if table[i] < 0] == [j], (datum.label, j)
            assert system.positive_roots[j].coords == tuple(
                int(i == j) for i in range(system.rank))
            assert table[j] == ~j


def test_tables_do_not_depend_on_res_degree():
    assert (restrict_roots(su_datum(3, 3, 1)).reflection_tables
            is restrict_roots(su_datum(3, 3, 2)).reflection_tables)


def reflect(cartan, word, v):
    """w(v) for w = s_word[0] ... s_word[-1], rightmost letter first, with
    s_j(v) = v - <v, gamma_j^vee> gamma_j and <gamma_i, gamma_j^vee> = C[i][j]."""
    v = list(v)
    for j in reversed(word):
        v[j] -= sum(v[i] * cartan[i][j] for i in range(len(v)))
    return tuple(v)


def coords(system, x):
    """Coordinates of root index x: positive_roots[x], or the negative of
    positive_roots[~x] when x < 0."""
    if x >= 0:
        return system.positive_roots[x].coords
    return tuple(-c for c in system.positive_roots[~x].coords)


@st.composite
def words_and_roots(draw):
    system = fold(draw(st.sampled_from(DATA)))
    word = draw(st.lists(st.integers(0, system.rank - 1), max_size=12))
    i = draw(st.sampled_from(range(len(system.positive_roots))))
    return system, word, draw(st.sampled_from((i, ~i)))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(words_and_roots())
def test_tables_agree_with_the_vector_action(case):
    system, word, x = case
    (y,) = system.images(word, [x])
    assert coords(system, y) == reflect(system.cartan, word, coords(system, x))
    expected = [r for r in system.positive_roots
                if all(c <= 0 for c in reflect(system.cartan, word, r.coords))]
    assert list(system.inversion_set(WeylElement(tuple(word)))) == expected


@st.composite
def words_with_cancelling_pairs(draw):
    """A system of DATA (split, quasi-split with d' up to 3, BC types among
    them) and a random word with cancelling pairs s s inserted at random
    places, as the weyl-sweep benchmark builds its words."""
    system = fold(draw(st.sampled_from(DATA)))
    letters = st.integers(0, system.rank - 1)
    word = draw(st.lists(letters, max_size=2 * len(system.positive_roots)))
    for _ in range(draw(st.integers(0, len(word) // 2 + 1))):
        at, letter = draw(st.integers(0, len(word))), draw(letters)
        word[at:at] = [letter, letter]
    return system, tuple(word)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(words_with_cancelling_pairs())
def test_normal_form_is_the_same_element(case):
    """normalize keeps w: its word sends every root, positive or negative,
    where the given word does, and it is reduced."""
    system, word = case
    n = len(system.positive_roots)
    w = system.normalize(word)
    assert system.images(w.word, range(-n, n)) == system.images(word, range(-n, n))
    assert len(w.word) == len(system.inversion_set(w))


def weight(cartan, v):
    """Fundamental-weight coordinates <v, gamma_i^vee> = sum_k v_k C[k][i] of a
    vector v in root coordinates."""
    return [sum(v[k] * cartan[k][i] for k in range(len(v))) for i in range(len(v))]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(words_and_roots())
def test_weight_reflection_agrees_with_the_vector_action(case):
    """_reflect, the s_j that normal forms are built with, acts on weight
    coordinates as reflect acts on root coordinates.  The transposed Cartan
    entry would act on coweights, whose descents, and so whose normal forms,
    are the same: only this test tells them apart."""
    system, word, x = case
    v = coords(system, x)
    mu = functools.reduce(system._reflect, reversed(word), weight(system.cartan, v))
    assert mu == weight(system.cartan, reflect(system.cartan, word, v))


def enumerate_by_normalize(system, limit):
    """Reference enumeration: a BFS over words that normalizes every word
    times every letter."""
    seen = {(): WeylElement(())}
    frontier = [()]
    while frontier:
        nxt = []
        for word in frontier:
            for j in range(system.rank):
                w = system.normalize(word + (j,))
                if w.word not in seen:
                    seen[w.word] = w
                    nxt.append(w.word)
                    if len(seen) > limit:
                        return None
        frontier = nxt
    return sorted(seen.values(), key=lambda w: (len(w.word), w.word))


def test_weyl_enumerate_matches_a_bfs_over_normalize(monkeypatch):
    data = [split_datum(f, n) for f, n in (("A", 3), ("B", 3), ("C", 3), ("D", 4),
                                           ("G", 2), ("F", 4))]
    data += [su_datum(3, 3), su_datum(3, 4, 2), family_datum("3D4", 4),
             family_datum("Spin2n-", 5)]
    for datum in data:
        system = fold(datum)
        assert (system.weyl_enumerate()
                == enumerate_by_normalize(system, roots.MAX_WEYL_ORDER)), datum.label
    b3 = fold(split_datum("B", 3))
    for limit in (0, 1, 47, 48):
        monkeypatch.setattr(roots, "MAX_WEYL_ORDER", limit)
        expected = enumerate_by_normalize(b3, limit)
        if expected is None:
            with pytest.raises(RootSystemError, match="too large"):
                b3.weyl_enumerate()
        else:
            assert b3.weyl_enumerate() == expected


def test_every_normal_form_follows_the_one_descent_rule(monkeypatch):
    """normalize, longest_element and weyl_enumerate read one rule,
    _least_descent: with the greatest left descent in its place, the walk
    still lists what a BFS over normalize finds, w0 last."""
    def greatest_descent(self, winv):
        return next((j for j in reversed(range(self.rank)) if winv[j] < 0), None)

    monkeypatch.setattr(roots.RelativeRootSystem, "_least_descent", greatest_descent)
    for datum in (split_datum("B", 3), split_datum("G", 2), su_datum(3, 4, 2)):
        system = fold(datum)
        elements = system.weyl_enumerate()
        assert elements == enumerate_by_normalize(system, roots.MAX_WEYL_ORDER), datum.label
        assert elements[-1] == system.longest_element(), datum.label


def macdonald_sides(system, q, v):
    """Both sides of Macdonald's identity (Macdonald, "The Poincare series of
    a Coxeter group", 1972; Casselman, Compositio Math. 40, 1980)

        sum_w prod_{alpha > 0} c_alpha(w lambda) = sum_w q_w^{-1},

    at t_alpha = q^(-<lambda, alpha^vee>/2) = prod_i v_i^(c_i), where c is the
    coroot pairing vector of alpha.  With d = d_alpha, c_alpha(t) is
    (1 - q^-d t^2) / (1 - t^2) for an SL2-type root and
    (1 - q^-2d t)(1 + q^-d t) / ((1 - t)(1 + t)) for an SU21-type root, the
    inert Euler factors of its rank-one factor written out here.
    <w lambda, alpha^vee> = <lambda, (w^{-1} alpha)^vee> is read through the
    tables: t at root index x >= 0 is t_x, and at ~x it is 1 / t_x.  q_w is
    the product over a reduced word of q^d for an SL2-type simple root and
    q^(3d) for an SU21-type one."""
    roots = system.positive_roots
    t = [math.prod(Fraction(b) ** c for b, c in zip(v, system.coroot_pairing_vector(r)))
         for r in roots]

    def c(r, t):
        if r.rank_one_type == SU21:
            return ((1 - t / q ** (2 * r.d_alpha)) * (1 + t / q ** r.d_alpha)
                    / ((1 - t) * (1 + t)))
        return (1 - t * t / q ** r.d_alpha) / (1 - t * t)

    # c at every signed root index, laid out like a reflection table
    at = [c(r, x) for r, x in zip(roots, t)] + [c(r, 1 / x) for r, x in zip(roots, t)][::-1]
    q_s = [q ** (3 * r.d_alpha if r.rank_one_type == SU21 else r.d_alpha)
           for r in system.simple_roots]
    lhs = rhs = 0
    for w in system.weyl_enumerate():
        lhs += math.prod(at[x] for x in system.images(w.word[::-1], range(len(roots))))
        rhs += Fraction(1, math.prod(q_s[j] for j in w.word))
    return lhs, rhs


def test_macdonald_identity_holds_exactly():
    """Rank two to four, split and quasi-split, d' = 1 to 3; the v_i are
    distinct primes, so no t_alpha is +-1."""
    data = [split_datum(f, n) for f, n in (("A", 2), ("B", 3), ("C", 3), ("G", 2), ("D", 4))]
    data += [su_datum(2, 2), su_datum(3, 3, 2), su_datum(2, 3), su_datum(3, 4, 2),
             family_datum("3D4", 4), family_datum("Spin2n-", 4, 3),
             family_datum("Spin2n-", 5), family_datum("2E6", 6)]
    for datum in data:
        lhs, rhs = macdonald_sides(fold(datum), 3, (2, 3, 5, 7))
        assert lhs == rhs, datum.label
