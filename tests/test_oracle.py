import hashlib
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionpairs.intervals import Interval, indecomposables
from torsionpairs.oracle import (
    BoundExceededError,
    _gluing_table,
    _is_extension_closed,
    _quotient_closed_subsets,
    _rank,
    bruteforce_torsion_pairs,
    check_tube_tp_truncated,
    enumerate_torsion_pairs_bruteforce,
    euler_form,
    ext_dim_matrix,
    hom_dim_matrix,
)
from torsionpairs.quiver import cyclic_an, linear_an, subquiver
from torsionpairs.torsion import TorsionPair, perp_left, perp_right
from torsionpairs.intervals import model_for
from torsionpairs.tube import TubeModule, all_tube_modules, coray, hom_dim_tube, ray

A2 = linear_an(2)


def iv(a, b):
    return Interval(a, b)


def fs(*pairs):
    return frozenset(iv(a, b) for a, b in pairs)


class TestHomMatrix:
    def test_interval_examples(self):
        assert hom_dim_matrix(iv(1, 2), iv(1, 1), A2) == 1
        assert hom_dim_matrix(iv(1, 1), iv(1, 2), A2) == 0

    def test_tube_example(self):
        assert hom_dim_matrix(TubeModule(1, 2, 2), TubeModule(2, 2, 2)) == 1

    def test_identity_always_solves(self):
        for X in indecomposables(linear_an(3)):
            assert hom_dim_matrix(X, X, linear_an(3)) >= 1
        assert hom_dim_matrix(TubeModule(2, 5, 3), TubeModule(2, 5, 3)) >= 1

    def test_needs_quiver_for_intervals(self):
        with pytest.raises(ValueError):
            hom_dim_matrix(iv(1, 1), iv(1, 1))


class TestEulerForm:
    def test_one_arrow(self):
        assert euler_form((1, 0), (0, 1), A2) == -1

    def test_zero_vector(self):
        assert euler_form((1, 1), (0, 0), A2) == 0

    def test_diagonal(self):
        assert euler_form((1, 1), (1, 1), A2) == 1

    def test_cyclic_rejected(self):
        with pytest.raises(ValueError):
            euler_form((1, 1), (1, 1), cyclic_an(2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            euler_form((1,), (1, 0), A2)


class TestBruteforce:
    def test_n1(self):
        pairs = enumerate_torsion_pairs_bruteforce(1)
        objs = frozenset(indecomposables(linear_an(1)))
        assert set(pairs) == {TorsionPair(frozenset(), objs), TorsionPair(objs, frozenset())}

    def test_n2_contents(self):
        everything = fs((1, 1), (1, 2), (2, 2))
        expected = {
            TorsionPair(frozenset(), everything),
            TorsionPair(everything, frozenset()),
            TorsionPair(fs((1, 1)), fs((1, 2), (2, 2))),
            TorsionPair(fs((1, 1), (1, 2)), fs((2, 2))),
            TorsionPair(fs((2, 2)), fs((1, 1))),
        }
        assert set(enumerate_torsion_pairs_bruteforce(2)) == expected

    def test_n3_count(self):
        assert len(enumerate_torsion_pairs_bruteforce(3)) == 14

    def test_deterministic(self):
        assert enumerate_torsion_pairs_bruteforce(3) == enumerate_torsion_pairs_bruteforce(3)

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            enumerate_torsion_pairs_bruteforce(7)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_perp_consistency(self, n):
        model = model_for(linear_an(n))
        for tp in enumerate_torsion_pairs_bruteforce(n):
            assert tp.free == perp_right(model, tp.torsion)
            assert tp.torsion == perp_left(model, tp.free)


class TestTruncatedTubeCheck:
    def test_rank_one_split(self):
        assert check_tube_tp_truncated(1, coray({1}, 1), ray(set(), 1), 4)
        assert check_tube_tp_truncated(1, coray(set(), 1), ray({1}, 1), 4)

    def test_rank_two_coray(self):
        torsion = coray({1}, 2)
        free = lambda X: X == TubeModule(2, 1, 2)
        assert check_tube_tp_truncated(2, torsion, free, 4)

    def test_finite_torsion_class_fails(self):
        # a finite torsion class on the tube cannot work; the first broken
        # axiom names U(1,2), whose canonical quotient U(1,2)/U(1,1) lands
        # back in the torsion class
        torsion = lambda X: X == TubeModule(1, 1, 1)
        free = lambda X: X != TubeModule(1, 1, 1)
        check = check_tube_tp_truncated(1, torsion, free, 4)
        assert not check
        assert TubeModule(1, 2, 1) in (
            check.witness if isinstance(check.witness, tuple) else (check.witness,)
        )
        # with an empty free class the canonical sequence check pinpoints
        # U(1,2) itself: its quotient by U(1,1) lands in the torsion class
        check2 = check_tube_tp_truncated(1, torsion, lambda X: False, 4)
        assert not check2
        assert check2.witness == TubeModule(1, 2, 1)

    def test_cap_too_small(self):
        with pytest.raises(ValueError):
            check_tube_tp_truncated(1, coray({1}, 1), ray(set(), 1), 1)


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=25, deadline=None)
def test_matrix_hom_is_symmetric_under_relabel(n, data):
    # rotating every vertex label of the cycle leaves Hom dimensions alone
    mods = [TubeModule(s, l, n) for s in range(1, n + 1) for l in range(1, 5)]
    X = data.draw(st.sampled_from(mods))
    Y = data.draw(st.sampled_from(mods))
    shift = data.draw(st.integers(min_value=0, max_value=n - 1))

    def rot(U):
        return TubeModule((U.socle + shift - 1) % n + 1, U.length, n)

    assert hom_dim_matrix(X, Y) == hom_dim_matrix(rot(X), rot(Y))


# -- integer elimination --------------------------------------------------


def _rank_by_fractions(rows):
    """Gauss-Jordan elimination over the rationals: the reference for _rank."""
    rows = [[Fraction(x) for x in row] for row in rows if any(row)]
    rank = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


@st.composite
def _integer_matrices(draw):
    """Up to 8 rows of up to 10 entries in -2..2, then zero rows, repeats
    and integer combinations of two rows (whose entries may leave -2..2),
    shuffled so the dependent rows are not always last."""
    ncols = draw(st.integers(1, 10))
    entry = st.integers(-2, 2)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=8))
    while len(rows) < 8 and draw(st.booleans()):
        kind = draw(st.sampled_from(("zero", "repeat", "combination")))
        if kind == "zero" or not rows:
            rows.append([0] * ncols)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c, d = draw(entry), draw(entry)
            rows.append([c * x + d * y for x, y in zip(a, b)])
    return draw(st.permutations(rows))


@given(_integer_matrices())
@settings(max_examples=300, deadline=None)
def test_integer_rank_matches_rational_elimination(rows):
    before = [row[:] for row in rows]
    assert _rank(rows) == _rank_by_fractions(rows)
    assert rows == before


@pytest.mark.parametrize("rows,rank", [
    ([], 0),
    ([[0, 0], [0, 0]], 0),
    ([[2, 4], [1, 2]], 1),
    ([[0, 2, -1], [2, -1, 0], [2, 1, -1]], 2),
    ([[2, 1], [1, 2]], 2),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], 3),
])
def test_integer_rank_examples(rows, rank):
    assert _rank(rows) == rank


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_matrix_hom_matches_the_closed_form_on_the_capped_tube(rank):
    # lengths up to 2 * rank + 1 reach dim Hom = 3, so the matrix systems
    # have nullity up to 3
    mods = all_tube_modules(rank, 2 * rank + 1)
    dims = Counter()
    for X in mods:
        for Y in mods:
            dim = hom_dim_matrix(X, Y)
            assert dim == hom_dim_tube(X, Y), (X, Y)
            dims[dim] += 1
    assert sum(dims.values()) == len(mods) ** 2
    assert max(dims) == 3


# -- exhaustive search ----------------------------------------------------


def _closed_by_every_pair(model, T):
    glued = (model.glue(bottom, top) for top in T for bottom in T)
    return all(X is None or X in T for X in glued)


@pytest.mark.parametrize("q", [linear_an(5), subquiver(linear_an(7), {1, 2, 3, 4, 6, 7})],
                         ids=["A5", "A4+A2"])
def test_gluing_table_agrees_with_every_pair(q):
    model = model_for(q)
    table = _gluing_table(model)
    verdicts = Counter()
    for T in _quotient_closed_subsets(q):
        closed = _is_extension_closed(table, T)
        assert closed == _closed_by_every_pair(model, T), sorted(T)
        verdicts[closed] += 1
    assert verdicts[True] and verdicts[False]


# SHA-256 of repr([(sorted(T), sorted(F)) for each pair]), recorded from
# the search when it still called model.glue and model.hom per pair
BRUTEFORCE_SHA256 = {
    1: "88353c553b3ee0ad3c197e342a629982e8eaef8e94233bc4e3a48434c590521b",
    2: "ee71501a3d68e7df47ef5489f6b80b5d2c3cf0ba1a027156459b3d6a863dc7a8",
    3: "1a4a53c6f228e1a0dd9a94260b5ee2e95f4d2b08ff88ef3c24b47af83b876675",
    4: "1c3e60ea9ca95495c86d75a013e4d1cb1e3c701f1ad775ed70565cc5b91f4012",
    5: "907678292916f6c99cdcc872ab752f2948d84b87adc16babf0a22d89469c42cb",
    6: "10716a5b14b298c1b90c82ae69244a21a822d52ac473041211d37b75f082dca4",
}


@pytest.mark.parametrize("n", sorted(BRUTEFORCE_SHA256))
def test_search_returns_the_recorded_pairs_in_order(n):
    pairs = bruteforce_torsion_pairs(linear_an(n))
    text = repr([(sorted(tp.torsion), sorted(tp.free)) for tp in pairs])
    assert hashlib.sha256(text.encode()).hexdigest() == BRUTEFORCE_SHA256[n]


@pytest.mark.parametrize("oracle_dim,X,Y,message", [
    pytest.param(hom_dim_matrix, TubeModule(1, 1, 2), TubeModule(1, 1, 3),
                 "modules live on cycles of different rank", id="hom-ranks"),
    pytest.param(hom_dim_matrix, iv(1, 1), iv(1, 2), "interval modules need their home quiver", id="hom-quiver"),
    pytest.param(ext_dim_matrix, iv(1, 1), iv(1, 2), "interval modules need their home quiver", id="ext-quiver"),
])
def test_matrix_oracles_check_their_arguments(oracle_dim, X, Y, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        oracle_dim(X, Y)
