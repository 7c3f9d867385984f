import itertools
import random
from fractions import Fraction

import pytest

from gkval import (
    GroupDatum,
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
from gkval.roots import MAX_NODES, _generate_roots, _integer_gram
from test_properties import positive_count


def split_system(family, rank):
    return restrict_roots(split_datum(family, rank))


def test_cartan_matrix_shapes():
    a = cartan_matrix("A", 3)
    assert a == [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    b = cartan_matrix("B", 2)
    assert b[0][1] == -2 and b[1][0] == -1
    g = cartan_matrix("G", 2)
    assert g[1][0] == -3


def test_cartan_matrix_rejects_bad_input():
    with pytest.raises(RootSystemError):
        cartan_matrix("E", 9)
    with pytest.raises(RootSystemError):
        cartan_matrix("Z", 4)
    with pytest.raises(RootSystemError):
        cartan_matrix("A", 13)


def test_datum_rejects_non_automorphism():
    a = tuple(tuple(r) for r in cartan_matrix("A", 3))
    with pytest.raises(RootSystemError):
        GroupDatum(a, (1, 0, 2), 2, 1)  # swaps an end with the middle


def test_datum_rejects_wrong_order():
    a = tuple(tuple(r) for r in cartan_matrix("A", 3))
    with pytest.raises(RootSystemError):
        GroupDatum(a, (2, 1, 0), 3, 1)


def test_datum_rejects_ragged_cartan():
    for cartan in (((2, -1), ()), ((2,), (-1, 2)), ((2, -1), (-1, 2, 0))):
        with pytest.raises(RootSystemError, match="malformed Cartan matrix"):
            GroupDatum(cartan, (0, 1), 1, 1)


def test_datum_keeps_tuples_whatever_it_is_given():
    """A datum built from lists equals, and hashes like, the one built from
    tuples, so it can key a cache."""
    lists = GroupDatum([[2, -1], [-1, 2]], [1, 0], 2, 1)
    tuples = GroupDatum(((2, -1), (-1, 2)), (1, 0), 2, 1)
    assert lists == tuples and hash(lists) == hash(tuples)
    assert lists.cartan == ((2, -1), (-1, 2)) and lists.automorphism == (1, 0)
    assert split_datum("A", 2) == GroupDatum(cartan_matrix("A", 2), range(2), 1, 1, "split-A2")


NOT_OF_FINITE_TYPE = {
    "affine-A1": [[2, -2], [-2, 2]],
    "affine-A2-cycle": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
    "affine-A2-twisted": [[2, -1], [-4, 2]],
    "hyperbolic": [[2, -3], [-3, 2]],
}


@pytest.mark.parametrize("cartan", NOT_OF_FINITE_TYPE.values(), ids=NOT_OF_FINITE_TYPE)
def test_datum_rejects_cartan_not_of_finite_type(cartan):
    n = len(cartan)
    with pytest.raises(RootSystemError, match="not of finite type"):
        GroupDatum(tuple(map(tuple, cartan)), tuple(range(n)), 1, 1)


def _bareiss_finite_type(a):
    """The finite-type test validation once ran: the integer Gram matrix is
    positive definite, decided by fraction-free (Bareiss) elimination, which
    leaves the k-th leading principal minor as the k-th pivot."""
    m, _ = _integer_gram(a)
    prev = 1
    for k in range(len(a)):
        piv = m[k][k]
        if piv <= 0:
            return False
        for i in range(k + 1, len(a)):
            m[i] = [(x * piv - m[i][k] * y) // prev for x, y in zip(m[i], m[k])]
        prev = piv
    return True


def _generalized_cartan_matrices(n):
    """Every n-node generalized Cartan matrix with off-diagonal entries in
    {0, -1, -2, -3}: each pair of nodes is unjoined, or joined both ways."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    bonds = [(0, 0)] + list(itertools.product((-1, -2, -3), repeat=2))
    for choice in itertools.product(bonds, repeat=len(pairs)):
        a = [[2 * (i == j) for j in range(n)] for i in range(n)]
        for (i, j), (x, y) in zip(pairs, choice):
            a[i][j], a[j][i] = x, y
        yield tuple(map(tuple, a))


def _validates(a):
    try:
        GroupDatum(a, tuple(range(len(a))), 1, 1)
    except RootSystemError as exc:
        assert str(exc) == "Cartan matrix is not of finite type"
        return False
    return True


@pytest.mark.parametrize("n, accepted", [(2, 6), (3, 31)])
def test_validation_accepts_what_the_gram_test_accepts(n, accepted):
    """Validation decides finite type by the bound on the number of roots; on
    every small generalized Cartan matrix it agrees with positive
    definiteness of the Gram matrix (Kac, Infinite-dimensional Lie algebras,
    where both characterize finite type)."""
    matrices = list(_generalized_cartan_matrices(n))
    assert len(matrices) == 10 ** (n * (n - 1) // 2)
    verdicts = [_validates(a) for a in matrices]
    assert verdicts == [_bareiss_finite_type(a) for a in matrices]
    assert sum(verdicts) == accepted


def test_split_a2_folding_is_identity():
    system = split_system("A", 2)
    assert len(system.positive_roots) == 3
    assert all(r.d_alpha == 1 for r in system.positive_roots)
    assert all(r.rank_one_type == SL2 for r in system.positive_roots)
    assert not system.has_divisible


def test_positive_root_counts_split():
    expected = {("A", 3): 6, ("B", 3): 9, ("C", 3): 9, ("D", 4): 12,
                ("F", 4): 24, ("G", 2): 6}
    for (fam, n), count in expected.items():
        assert len(split_system(fam, n).positive_roots) == count


def _all_roots_closure(a):
    """Root generation as first written: the closure of the simple roots under
    every simple reflection, both signs, one pairing dot product per step."""
    n = len(a)
    most = 2 * MAX_NODES ** 2
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for v in frontier:
            for j in range(n):
                pairing = sum(v[i] * a[i][j] for i in range(n))
                w = list(v)
                w[j] -= pairing
                tw = tuple(w)
                if tw not in seen:
                    seen.add(tw)
                    nxt.append(tw)
        if len(seen) > most:
            raise RootSystemError(f"more than {most} roots: the diagram is not "
                                  "of finite type")
        frontier = nxt
    return sorted(seen)


# every split type on at most MAX_NODES nodes
ALL_SPLIT = [(f, n) for f, least in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
             for n in range(least, MAX_NODES + 1)]
ALL_SPLIT += [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


@pytest.mark.parametrize("family, rank", ALL_SPLIT, ids=[f"{f}{n}" for f, n in ALL_SPLIT])
def test_generated_roots_are_the_positive_half_of_the_closure(family, rank):
    a = cartan_matrix(family, rank)
    got = _generate_roots(tuple(map(tuple, a)))
    assert list(got) == [r for r in _all_roots_closure(a) if all(c >= 0 for c in r)]
    assert len(got) == positive_count(family, rank)


def test_su_odd_fold_is_b_type_with_divisible_roots():
    system = restrict_roots(su_datum(2, 3))
    assert system.components[0][0] == "B2"
    assert system.has_divisible
    table = derived_table(system)
    assert table == {"long": 2, "short": 1}
    # the divisible (short) roots carry the unitary rank-one group
    for r in system.positive_roots:
        if r.length_class == "short":
            assert r.rank_one_type == SU21
        else:
            assert r.rank_one_type == SL2


def test_su_even_fold_is_c_type():
    system = restrict_roots(su_datum(3, 3))
    assert system.components[0][0] == "C3"
    assert not system.has_divisible
    assert derived_table(system) == {"short": 2, "long": 1}
    assert all(r.rank_one_type == SL2 for r in system.positive_roots)


def test_spin_minus_fold():
    system = restrict_roots(spin_minus_datum(5))
    assert system.components[0][0] == "B4"
    assert derived_table(system) == {"short": 2, "long": 1}


def test_triality_fold():
    system = restrict_roots(triality_datum())
    assert system.components[0][0] == "G2"
    assert derived_table(system) == {"long": 3, "short": 1}
    assert len(system.positive_roots) == 6


def test_e6_fold():
    system = restrict_roots(quasi_split_e6_datum())
    assert system.components[0][0] == "F4"
    assert derived_table(system) == {"short": 2, "long": 1}
    assert len(system.positive_roots) == 24


def test_tables_match_derived_all_families():
    for d_prime in (1, 2, 3):
        for family, ns in (
            ("SU(n,n+1)", range(2, 7)),
            ("SU(n,n)", range(2, 7)),
            ("Spin2n-", range(4, 7)),
            ("3D4", (4,)),
            ("2E6", (6,)),
        ):
            for n in ns:
                system = restrict_roots(family_datum(family, n, d_prime))
                assert derived_table(system) == proposition_table(
                    family, d_prime=d_prime
                ), (family, n, d_prime)


def test_split_table():
    assert proposition_table("split", d_prime=5) == {"all": 5}
    system = restrict_roots(split_datum("B", 3, res_degree=5))
    assert derived_table(system) == {"long": 5, "short": 5}


def test_res_degree_scales_degrees():
    system = restrict_roots(su_datum(2, 3, res_degree=3))
    assert derived_table(system) == {"long": 6, "short": 3}


def test_inversion_identity_and_simple():
    system = split_system("A", 2)
    assert system.inversion_set(system.normalize([])) == ()
    w = system.normalize([1])
    inv = system.inversion_set(w)
    assert len(inv) == 1 and inv[0].coords == (0, 1)


def test_longest_element_inverts_everything():
    for fam, rank in (("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3)):
        system = split_system(fam, rank)
        w0 = system.longest_element()
        assert len(system.inversion_set(w0)) == len(system.positive_roots)


def test_normalize_kills_squares():
    system = split_system("A", 2)
    assert system.normalize([1, 1]).word == ()
    assert system.normalize([0, 1, 1, 0]).word == ()


def test_normalize_is_lex_least():
    system = split_system("A", 2)
    # s1 s0 s1 = s0 s1 s0 in A2; the normal form starts with 0
    assert system.normalize([1, 0, 1]).word == (0, 1, 0)


def test_length_matches_inversions_exhaustive_rank2():
    for fam in ("A", "B", "G"):
        system = split_system(fam, 2)
        for w in system.weyl_enumerate():
            assert len(system.inversion_set(w)) == len(w.word)


def test_weyl_group_orders():
    orders = {("A", 2): 6, ("B", 2): 8, ("G", 2): 12}
    for (fam, rank), size in orders.items():
        assert len(split_system(fam, rank).weyl_enumerate()) == size


def test_length_matches_inversions_random_rank4():
    rng = random.Random(11)
    for fam in ("B", "D", "F"):
        system = split_system(fam, 4)
        for _ in range(60):
            word = [rng.randrange(4) for _ in range(rng.randrange(14))]
            w = system.normalize(word)
            assert len(system.inversion_set(w)) == len(w.word)


def test_inversion_cocycle():
    rng = random.Random(5)
    system = split_system("B", 3)
    for _ in range(80):
        word = [rng.randrange(3) for _ in range(rng.randrange(1, 10))]
        w = system.normalize(word)
        cut = rng.randrange(len(w.word) + 1)
        w1 = system.normalize(w.word[:cut])
        w2 = system.normalize(w.word[cut:])
        inv12 = {r.index for r in system.inversion_set(system.normalize(w1.word + w2.word))}
        if len(inv12) != len(w1.word) + len(w2.word):
            continue
        inv2 = {r.index for r in system.inversion_set(w2)}
        # w2^{-1} on root indices; a negative image ~i is no positive root's index
        moved = set(system.images(w2.word[::-1], [r.index for r in system.inversion_set(w1)]))
        assert inv2.isdisjoint(moved)
        assert inv12 == inv2 | moved


def test_normalize_is_idempotent_over_the_whole_group():
    """Every normal form is a fixed point of normalize, and a word one letter
    longer normalizes to the element with its inversion set, whichever
    normal form normalize returned last."""
    for fam, rank in (("B", 3), ("G", 2)):
        system = split_system(fam, rank)
        elements = system.weyl_enumerate()  # built without normalize
        by_inversions = {frozenset(system.inversion_set(w)): w for w in elements}
        for w in elements:
            assert system.normalize(w.word) == w
            assert system.normalize(list(w.word)) == w
            for j in range(rank):
                word = w.word + (j,)
                u = system.normalize(word)
                inversions = frozenset(system.inversion_set(WeylElement(word)))
                assert u == by_inversions[inversions]
                assert system.normalize(u.word) == u


def test_normalize_rejects_bad_index():
    system = split_system("A", 2)
    with pytest.raises(RootSystemError):
        system.normalize([2])


@pytest.mark.parametrize("letter", [2, -1, 1.0, 0.5, True,
                                    pytest.param(Fraction(1), id="Fraction(1)")])
def test_inversion_set_rejects_bad_index(letter):
    """A letter is an int in range: 1.0 and Fraction(1) equal one but do not
    index the tables, and True would be read as letter 1."""
    system = split_system("A", 2)
    with pytest.raises(RootSystemError, match="out of range"):
        system.normalize([0, letter])
    with pytest.raises(RootSystemError, match="out of range"):
        system.images([0, letter], [0])
    with pytest.raises(RootSystemError, match="out of range"):
        system.inversion_set(WeylElement((0, letter)))
