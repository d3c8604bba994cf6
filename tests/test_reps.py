"""Tests for the representation layer: indicator functions, coset actions,
regular representations, orbit search, and the probes."""

import random
import re
from fractions import Fraction

import numpy as np
import pytest

from freebialg import reps as R
from freebialg import words as W
from freebialg.algebra import AlgebraElement, TensorElement
from freebialg.corpus import random_exact_scalar, random_reduced_word
from freebialg.scalars import QI
from freebialg.text import parse_word


# -- indicator functions --------------------------------------------------------


def test_f_eval_examples():
    f = R.PDFunction(2, 1)
    assert f(W.gen(2, 1, 5)) == 1
    assert f(W.unit(2)) == 1
    assert f(W.gen(2, 2) * W.gen(2, 1)) == 0


def test_f_eval_checks_ambient():
    with pytest.raises(ValueError):
        R.f_eval(R.PDFunction(2, 1), W.gen(3, 1))
    with pytest.raises(ValueError):
        R.PDFunction(2, 3)


def test_pd_function_reports_a_bad_rank_before_the_index():
    for n in (0, -1, 2.5):
        with pytest.raises(ValueError, match=f"finite rank must be a positive integer, got {n}"):
            R.PDFunction(n, 1)


def test_f_pullback_eval_checks_indices_as_pd_function_does():
    z = W.gen(4, 1)
    for n, i in ((2, 0), (2, 3), (0, 1), (-1, 1)):
        with pytest.raises(ValueError) as want:
            R.PDFunction(n, i)
        for args in ((n, i, 2, 1), (2, 1, n, i)):
            with pytest.raises(ValueError) as got:
                R.f_pullback_eval(*args, z)
            assert str(got.value) == str(want.value)


def test_f_pullback_examples():
    assert R.f_pullback_eval(2, 1, 3, 2, W.gen(6, 2)) == 1
    assert R.f_pullback_eval(2, 1, 3, 2, W.unit(6)) == 1
    assert R.f_pullback_eval(2, 1, 2, 1, W.gen(4, 3)) == 0


# -- probes -----------------------------------------------------------------------


def _oracle_probe(n, m, i, j, radius):
    """Independent disagreement scan: evaluate both indicators through raw
    letter arithmetic on signed integers, bypassing the packaged word maps."""

    def split(k):
        return (k - 1) // m + 1, (k - 1) % m + 1

    def cancel(seq):
        out = []
        for s in seq:
            if out and out[-1] == -s:
                out.pop()
            else:
                out.append(s)
        return out

    def power_of(seq, idx):
        return all(abs(s) == idx for s in seq)

    found = []
    for z in W.enumerate_ball(n * m, radius):
        letters = [s.gen * (1 if s.exp > 0 else -1) for s in z.letters()]
        p = cancel([split(abs(s))[0] * (1 if s > 0 else -1) for s in letters])
        q = cancel([split(abs(s))[1] * (1 if s > 0 else -1) for s in letters])
        pull = int(power_of(p, i) and power_of(q, j))
        direct = int(power_of(letters, m * (i - 1) + j))
        if pull != direct:
            found.append((z, pull, direct))
    return found


def test_claim_probe_agrees_at_radius_one():
    assert R.claim_probe_pd(2, 3, 1, 2, 1) == []
    assert R.claim_probe_pd(2, 2, 1, 1, 0) == []


def test_claim_probe_agrees_up_to_radius_two():
    # below length 3 no word can leave the cyclic subgroup while its pair
    # image stays inside the product subgroup; the run confirms it
    for n, m in ((2, 2), (2, 3)):
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                assert R.claim_probe_pd(n, m, i, j, 2) == []


def test_claim_probe_first_disagreements_at_radius_three():
    # frozen from the exhaustive scan, cross-checked by the letter oracle:
    # e.g. c2*c4^-1*c3 has pair image (a1, b1) but is not a power of c1
    witness = W.reduce(4, [(2, 1), (4, -1), (3, 1)])
    found = R.claim_probe_pd(2, 2, 1, 1, 3)
    assert (witness, 1, 0) in found
    assert len(found) == 4
    assert found == _oracle_probe(2, 2, 1, 1, 3)
    for n, m, count in ((2, 2, 4), (2, 3, 8)):
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                got = R.claim_probe_pd(n, m, i, j, 3)
                assert len(got) == count
                assert got == _oracle_probe(n, m, i, j, 3)
                # ints, not bools, as the public evaluators return: the
                # probe's JSON prints them
                assert {(type(pb), type(dv)) for _, pb, dv in got} == {(int, int)}


def test_claim_probe_reports_kernel_disagreement():
    found = R.claim_probe_pd(2, 2, 1, 1, 4)
    kernel = W.kernel_witness(2, 2, 1, 2, 1, 2)
    hits = [entry for entry in found if entry[0] == kernel]
    assert hits == [(kernel, 1, 0)]
    # every disagreement at this radius is a pullback-1, direct-0 word
    assert all(pb == 1 and dv == 0 for _, pb, dv in found)
    assert found == _oracle_probe(2, 2, 1, 1, 4)


# -- gram matrices ------------------------------------------------------------------


def test_gram_psd_hand_example():
    sample = [W.unit(2), W.gen(2, 1), W.gen(2, 2)]
    mn, ok = R.gram_psd(R.PDFunction(2, 1), sample)
    assert ok and abs(mn) < 1e-12
    # frozen matrix: [[1,1,0],[1,1,0],[0,0,1]] with eigenvalues {0, 1, 2}
    mat = np.array(
        [
            [R.f_eval(R.PDFunction(2, 1), s.inverse() * t) for t in sample]
            for s in sample
        ],
        dtype=float,
    )
    assert mat.tolist() == [[1, 1, 0], [1, 1, 0], [0, 0, 1]]
    assert np.allclose(np.linalg.eigvalsh(mat), [0, 1, 2])


def test_gram_psd_singleton():
    mn, ok = R.gram_psd(R.PDFunction(3, 2), [W.unit(3)])
    assert ok and abs(mn - 1) < 1e-12


def test_gram_psd_for_pullbacks():
    ball = W.enumerate_ball(4, 2)
    for i in (1, 2):
        for j in (1, 2):
            mn, ok = R.gram_psd(
                lambda z, i=i, j=j: R.f_pullback_eval(2, i, 2, j, z), ball
            )
            assert ok, (i, j, mn)


def _gram_inputs():
    """The nine evaluator and sample pairs of the reps.gram-psd check."""
    for n in (2, 3):
        ball = W.enumerate_ball(n, 2)
        for i in range(1, n + 1):
            yield R.PDFunction(n, i), ball
    ball4 = W.enumerate_ball(4, 2)
    for i in (1, 2):
        for j in (1, 2):
            yield (lambda z, i=i, j=j: R.f_pullback_eval(2, i, 2, j, z)), ball4


def test_gram_psd_lower_triangle_matches_the_full_matrix():
    inputs = list(_gram_inputs())
    assert len(inputs) == 9
    for f, sample in inputs:
        full = np.array([[float(f(s.inverse() * t)) for t in sample] for s in sample])
        assert (full == full.T).all()
        mn, ok = R.gram_psd(f, sample)
        # bit for bit: the lower triangle is all eigvalsh reads
        assert mn == float(np.linalg.eigvalsh(full)[0])
        assert ok


def test_gram_psd_requires_sample():
    with pytest.raises(ValueError):
        R.gram_psd(R.PDFunction(2, 1), [])


def _gram_labels():
    """The label routes of the nine matrices, in the order of ``_gram_inputs``."""
    for n in (2, 3):
        for i in range(1, n + 1):
            yield lambda w, i=i: R._coset_label(w.syllables, i)
    for i in (1, 2):
        for j in (1, 2):
            yield lambda z, i=i, j=j: R._pullback_label(2, 2, i, j, z)


def _quad(f, sample, v):
    """``v^T G v`` for ``G = [f(s^-1 t)]``, from the full matrix."""
    return sum(
        v[a] * f(s.inverse() * t) * v[b]
        for a, s in enumerate(sample)
        for b, t in enumerate(sample)
    )


def _table(values):
    """An evaluator with the given values on words and 0 elsewhere."""
    return lambda w: values.get(w, 0)


def test_gram_certificate_agrees_with_eigvalsh_on_the_check_matrices():
    for (f, sample), label in zip(_gram_inputs(), _gram_labels(), strict=True):
        assert R.gram_psd(f, sample)[1]
        assert R.gram_psd_certificate(f, sample) is None
        assert R.gram_exact_check(f, sample, label) == (True, None)


def test_gram_label_route_rejects_labels_that_do_not_fit():
    ball = W.enumerate_ball(2, 2)
    f = R.PDFunction(2, 1)
    for label in (
        lambda w: R._coset_label(w.syllables, 2),  # the other generator
        lambda w: w,  # every word its own coset
        lambda w: (),  # one coset
    ):
        # the matrix itself is positive semidefinite, so route 1 passes
        assert R.gram_exact_check(f, ball, label) == (False, None)
    pullback = lambda z: R.f_pullback_eval(2, 1, 2, 2, z)
    wrong = lambda z: R._pullback_label(2, 2, 1, 1, z)
    assert R.gram_exact_check(pullback, W.enumerate_ball(4, 2), wrong) == (False, None)


def test_gram_certificate_rejects_a_negative_direction():
    g1 = W.gen(2, 1)
    f = _table({W.unit(2): 1, g1: 2, g1.inverse(): 2})  # [[1, 2], [2, 1]]
    sample = [W.unit(2), g1]
    v = R.gram_psd_certificate(f, sample)
    assert all(type(c) is Fraction for c in v)
    assert _quad(f, sample, v) < 0
    assert not R.gram_psd(f, sample)[1]
    # route 1 alone fails: the entries are those of the one-coset label
    assert R.gram_exact_check(f, sample, lambda w: ()) == (False, v)


@pytest.mark.parametrize(
    "values,sample",
    [
        # [[0, 1], [1, 0]]: the first pivot is zero with an entry in its row
        ({"g1": 1}, ["1", "g1"]),
        # [[1, 1, 1], [1, 1, 0], [1, 0, 1]]: a zero pivot after one elimination
        ({"1": 1, "g1": 1, "g2": 1}, ["1", "g1", "g2"]),
    ],
)
def test_gram_certificate_finds_a_zero_pivot_with_a_live_row(values, sample):
    word = lambda text: parse_word(text, 2)
    table = {}
    for text, c in values.items():
        table[word(text)] = table[word(text).inverse()] = c
    f, sample = _table(table), [word(t) for t in sample]
    v = R.gram_psd_certificate(f, sample)
    assert v is not None and _quad(f, sample, v) < 0
    assert not R.gram_psd(f, sample)[1]


def test_psd_certificate_matches_eigvalsh_on_random_integer_matrices():
    # small integer matrices of size <= 5: a negative eigenvalue lies far below -1e-9
    rng = random.Random(11)
    for _ in range(600):
        size = rng.randint(1, 5)
        if rng.random() < 0.5:  # B^T B, then perhaps one diagonal entry lowered
            b = [[rng.randint(-1, 1) for _ in range(size)] for _ in range(rng.randint(1, size))]
            mat = [[sum(r[x] * r[y] for r in b) for y in range(size)] for x in range(size)]
            mat[0][0] -= rng.randint(0, 1)
        else:
            mat = [[0] * size for _ in range(size)]
            for x in range(size):
                for y in range(x + 1):
                    mat[x][y] = mat[y][x] = rng.randint(-1, 2)
        v = R._psd_certificate([row[: x + 1] for x, row in enumerate(mat)])
        psd = np.linalg.eigvalsh(np.array(mat, dtype=float))[0] >= -1e-9
        assert (v is None) == psd, mat
        if v is not None:
            quad = sum(v[x] * mat[x][y] * v[y] for x in range(size) for y in range(size))
            assert quad < 0, (mat, v)


# -- cosets --------------------------------------------------------------------------


def test_coset_normal_form_examples():
    c = R.coset_normal_form(2, 1, W.gen(2, 2) * W.gen(2, 1, 3))
    assert str(c) == "g2"
    c = R.coset_normal_form(2, 1, W.gen(2, 1, -2))
    assert c.is_unit
    w = W.reduce(3, [(2, 1), (3, 1), (2, -1)])
    c = R.coset_normal_form(3, 2, w)
    assert str(c) == "g2*g3"
    # a representative already canonical is returned as it is
    w = W.gen(2, 1) * W.gen(2, 2)
    assert R.coset_normal_form(2, 1, w) is w


def test_coset_equality_iff_same_right_coset():
    rng = random.Random(20)
    for _ in range(300):
        n = rng.randint(2, 3)
        i = rng.randint(1, n)
        w1 = random_reduced_word(rng, n, 4)
        w2 = random_reduced_word(rng, n, 4)
        same = R.coset_normal_form(n, i, w1) == R.coset_normal_form(n, i, w2)
        diff = W.multiply(w1.inverse(), w2)
        in_subgroup = diff.is_unit or (
            len(diff.syllables) == 1 and diff.syllables[0].gen == i
        )
        assert same == in_subgroup


def test_coset_rejects_noncanonical_rep():
    """The coset basis takes a canonical representative alone: a word that
    ends in a ``g_i`` syllable, a word of another rank or anything that is
    not a word is refused by name."""
    basis = R.PDFunction(2, 1)
    for bad in (
        W.gen(2, 1),
        W.gen(2, 1, -3),
        W.gen(2, 2) * W.gen(2, 1, -2),
        W.gen(3, 2),
        W.unit(W.INFINITE),
        (W.gen(2, 2),),
        "g2",
    ):
        with pytest.raises(ValueError, match=r"^label .* does not belong to PDFunction\(n=2, i=1\)$"):
            basis.check(bad)
        with pytest.raises(ValueError, match="does not belong to PDFunction"):
            R.SuppVector.basis_vector(basis, bad)
    # a word ending in another generator is canonical for this subgroup
    for good in (W.unit(2), W.gen(2, 2), W.gen(2, 1) * W.gen(2, 2, -1)):
        assert basis.check(good) is good


def test_coset_checks_its_rank_index_and_representative():
    for args, error in (
        ((2, 5, W.gen(2, 1)), "generator index 5 out of range for F2"),
        ((2, 0, W.unit(2)), "generator index 0 out of range for F2"),
        ((0, 1, W.unit(2)), "finite rank must be a positive integer, got 0"),
        ((None, 1, W.unit(W.INFINITE)), "finite rank must be a positive integer, got None"),
        ((2, 1, W.gen(3, 2)), "word lives in F3, expected F2"),
        ((2, 1, W.gen(W.INFINITE, 2)), "word lives in Finf, expected F2"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            R.coset_normal_form(*args)


def test_coset_normal_form_matches_the_public_constructor():
    """Every representative is a word of the ball's rank that the coset
    basis accepts, and a basis vector on it equals the public constructor's."""
    for i in (1, 2, 3):
        basis = R.PDFunction(3, i)
        for w in W.enumerate_ball(3, 3):
            c = R.coset_normal_form(3, i, w)
            assert type(c) is W.ReducedWord and c.ambient == W.Rank(3)
            assert basis.check(c) is c
            assert R.SuppVector.basis_vector(basis, c) == R.SuppVector(basis, {c: 1})
            assert R.coset_normal_form(3, i, c) is c


def test_coset_normal_form_checks_the_index():
    for i in (0, 3):
        with pytest.raises(ValueError, match=f"generator index {i} out of range for F2$"):
            R.coset_normal_form(2, i, W.gen(2, 1))


NOT_INT_INDICES = [1.5, 1.0, True]


@pytest.mark.parametrize("i", NOT_INT_INDICES)
def test_indices_that_are_not_ints_are_refused(i):
    # an exact type test, as Rank.allows makes: 1.0 == 1 and True == 1, but
    # neither is a generator index
    msg = f"^generator index {i} out of range for F2$"
    with pytest.raises(ValueError, match=msg):
        R.PDFunction(2, i)
    with pytest.raises(ValueError, match=msg):
        R.coset_normal_form(2, i, W.gen(2, 1))
    with pytest.raises(ValueError, match=msg):
        R.f_pullback_eval(2, i, 2, 1, W.gen(4, 1))
    with pytest.raises(ValueError, match=msg):
        R.f_pullback_eval(2, 1, 2, i, W.gen(4, 1))
    with pytest.raises(ValueError, match=msg):
        R.claim_probe_pd(2, 2, i, 1, 2)
    with pytest.raises(ValueError, match=msg):
        R.gns_coeff_check(2, i, W.gen(2, 1))
    with pytest.raises(ValueError, match=msg):
        R.fixed_vector_dim(2, i, 1, 2)
    with pytest.raises(ValueError, match=msg):
        R.fixed_vector_dim(2, 1, i, 2)
    # nor is a rank that is not exactly a positive int, or None where the rank
    # must be finite: it is reported as a rank, by every entry point, ahead of
    # the index, the word and the radius (2.0 == 2 matches the start pair)
    z = W.gen(4, 1)
    start = (W.unit(2), W.unit(2))
    on_f2 = AlgebraElement.from_word(W.unit(2))
    on_f4 = AlgebraElement.from_word(z)
    on_pairs = TensorElement.from_pair(W.unit(2), W.unit(2))
    base = R.coset_normal_form(2, 1, W.unit(2))
    on_cosets = R.SuppVector.basis_vector(R.PDFunction(2, 1), base)
    with pytest.raises(ValueError, match=msg):
        R.L_action(2, i, W.unit(2), on_cosets)
    for n in (i, 2.5, 2.0, 0, None):
        rank_msg = f"^finite rank must be a positive integer, got {n}$"
        for call in (
            lambda: R.PDFunction(n, 1),
            lambda: R.coset_normal_form(n, 1, W.gen(2, 2)),
            lambda: R.orbit_bfs(n, 2, start, 1),
            lambda: R.orbit_bfs(2, n, start, -1),
            lambda: R.f_pullback_eval(n, 1, 2, 1, z),
            lambda: R.f_pullback_eval(2, 1, n, 1, z),
            lambda: R.claim_probe_pd(n, 2, 1, 1, 2),
            lambda: R.claim_probe_pd(2, n, 1, 1, 2),
            lambda: R.fixed_vector_dim(n, 1, 1, 2),
            lambda: R.lambda_action(n, W.unit(2), on_f2),
            lambda: R.tensor_rep_action(n, 2, z, on_pairs),
            lambda: R.tensor_rep_action(2, n, z, on_pairs),
            lambda: R.U_apply(n, 2, W.unit(2), on_f4),
            lambda: R.U_apply(2, n, W.unit(2), on_f4),
            # the rank is named ahead of a vector of another space
            lambda: R.lambda_action(n, W.unit(2), on_cosets),
            lambda: R.tensor_rep_action(2, n, z, on_cosets),
            lambda: R.U_apply(n, 2, W.unit(2), on_cosets),
            lambda: R.L_action(n, 1, W.unit(2), on_cosets),
        ):
            with pytest.raises(ValueError, match=rank_msg):
                call()


# -- actions ------------------------------------------------------------------------------


def test_L_action_examples():
    basis = R.PDFunction(2, 1)
    e0 = R.SuppVector.basis_vector(basis, R.coset_normal_form(2, 1, W.unit(2)))
    assert R.L_action(2, 1, W.gen(2, 1), e0) == e0
    moved = R.L_action(2, 1, W.gen(2, 2), e0)
    assert moved == R.SuppVector.basis_vector(
        basis, R.coset_normal_form(2, 1, W.gen(2, 2))
    )
    v = e0 + moved.scale(QI(2))
    assert R.L_action(2, 1, W.unit(2), v) == v


def test_L_action_keeps_the_coefficient_mode():
    basis = R.PDFunction(2, 1)
    base, moved = _cosets(2, 1, W.unit(2), W.gen(2, 2))
    v = R.SuppVector(basis, {base: 0.5 + 1j}, exact=False)
    got = R.L_action(2, 1, W.gen(2, 2), v)
    assert not got.exact and got == R.SuppVector(basis, {moved: 0.5 + 1j}, exact=False)


def test_L_action_is_group_action():
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randint(2, 3)
        i = rng.randint(1, n)
        basis = R.PDFunction(n, i)
        v = R.SuppVector.basis_vector(
            basis, R.coset_normal_form(n, i, random_reduced_word(rng, n, 3))
        )
        x = random_reduced_word(rng, n, 4)
        y = random_reduced_word(rng, n, 4)
        assert R.L_action(n, i, x, R.L_action(n, i, y, v)) == R.L_action(n, i, x * y, v)


def test_L_action_lands_on_the_coset_of_x_w():
    """``L_action(x)`` moves ``e_[w]`` to one basis vector whose label is a
    canonical representative and lies in ``x w <g_i>``: membership is read
    off the indicator's syllable pattern, not the label route."""
    for n in (1, 2, 3):
        inner, outer = W.enumerate_ball(n, 2), W.enumerate_ball(n, 3)
        for i in range(1, n + 1):
            basis = R.PDFunction(n, i)
            for w in outer:
                e_w = R.SuppVector.basis_vector(basis, R.coset_normal_form(n, i, w))
                for x in inner:
                    got = R.L_action(n, i, x, e_w)
                    [(c, coeff)] = got.terms.items()
                    assert coeff == QI(1)
                    assert c.is_unit or c.syllables[-1].gen != i
                    assert R.f_eval(basis, W.multiply(x, w).inverse() * c) == 1


def test_lambda_action_examples():
    xi1 = AlgebraElement.from_word(W.unit(2))
    assert R.lambda_action(2, W.gen(2, 1), xi1) == AlgebraElement.from_word(W.gen(2, 1))
    v = AlgebraElement.from_word(W.gen(2, 2, -1))
    assert R.lambda_action(
        2, W.gen(2, 1, -1), R.lambda_action(2, W.gen(2, 1), v)
    ) == v
    assert R.lambda_action(2, W.gen(2, 1) * W.gen(2, 2), v) == AlgebraElement.from_word(
        W.gen(2, 1)
    )
    # an approximate vector stays approximate
    approx = (xi1 + v.scale(2)).to_approx()
    moved = R.lambda_action(2, W.gen(2, 2), approx)
    assert not moved.exact
    assert moved == (AlgebraElement.from_word(W.gen(2, 2)) + xi1.scale(2)).to_approx()


def test_tensor_rep_action_examples():
    v = TensorElement.from_pair(W.unit(2), W.unit(2))
    moved = R.tensor_rep_action(2, 2, W.gen(4, 1), v)
    assert moved == TensorElement.from_pair(W.gen(2, 1), W.gen(2, 1))
    assert R.tensor_rep_action(2, 2, W.unit(4), v) == v
    kernel = W.kernel_witness(2, 2, 1, 2, 1, 2)
    w = TensorElement.from_pair(W.gen(2, 2), W.gen(2, 1, -1))
    assert R.tensor_rep_action(2, 2, kernel, w) == w
    assert R.tensor_rep_action(2, 2, kernel, w.to_approx()) == w.to_approx()


def _random_vector(rng, ranks, exact):
    """A random element of the group algebra of ``F_n`` (one rank) or of
    ``F_n x F_m`` (two ranks), with up to four terms."""
    pairs = []
    for _ in range(rng.randint(0, 4)):
        words = tuple(random_reduced_word(rng, r, 3) for r in ranks)
        c = random_exact_scalar(rng)
        pairs.append((words if len(ranks) == 2 else words[0], c if exact else complex(c) / 3))
    if len(ranks) == 2:
        return TensorElement(ranks, pairs, exact)
    return AlgebraElement(ranks[0], pairs, exact)


# the label maps that built the three actions before they were engine products


def _reference_lambda_action(n, x, v):
    return AlgebraElement(n, [(W.multiply(x, g), c) for g, c in v.terms.items()], v.exact)


def _reference_tensor_rep_action(n, m, z, v):
    p, q = W.phi(n, m, z)
    pairs = [((W.multiply(p, g), W.multiply(q, h)), c) for (g, h), c in v.terms.items()]
    return TensorElement((n, m), pairs, v.exact)


def _reference_U_apply(n, m, x, v):
    return TensorElement((n, m), [(R.U_map(n, m, x, g), c) for g, c in v.terms.items()], v.exact)


def test_actions_match_their_label_maps():
    """Each action is the engine's product; it gives the terms, in the same
    order, that its label map gives, in either coefficient mode."""
    rng = random.Random(23)
    for case in range(300):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        exact = case % 2 == 0
        x = random_reduced_word(rng, n, 3)
        z = random_reduced_word(rng, n * m, 3)
        v = _random_vector(rng, (n,), exact)
        pv = _random_vector(rng, (n, m), exact)
        nv = _random_vector(rng, (n * m,), exact)
        # a kernel word shares the pair image of the unit, so U_apply merges their terms
        if n > 1 and m > 1:
            kernel = W.kernel_witness(n, m, 1, 2, 1, 2)
            nv = nv + AlgebraElement(n * m, [(kernel, 1), (W.unit(n * m), -2)], exact)
        for got, want in (
            (R.lambda_action(n, x, v), _reference_lambda_action(n, x, v)),
            (R.tensor_rep_action(n, m, z, pv), _reference_tensor_rep_action(n, m, z, pv)),
            (R.U_apply(n, m, x, nv), _reference_U_apply(n, m, x, nv)),
        ):
            assert type(got) is type(want) and got.space == want.space
            assert got.exact == exact
            assert list(got.terms.items()) == list(want.terms.items())


def test_U_apply_of_a_basis_vector_is_the_basis_map():
    """Two routes: the linear map on a basis element, through the engine,
    and the label map :func:`U_map` on its word."""
    rng = random.Random(24)
    for _ in range(200):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        x = random_reduced_word(rng, n, 3)
        g = random_reduced_word(rng, n * m, 4)
        got = R.U_apply(n, m, x, AlgebraElement.from_word(g))
        assert got == TensorElement.from_pair(*R.U_map(n, m, x, g))


def test_actions_refuse_a_wrong_basis_or_rank():
    coset = R.SuppVector.basis_vector(R.PDFunction(2, 1), R.coset_normal_form(2, 1, W.unit(2)))
    group = AlgebraElement.from_word(W.unit(2))
    g3 = W.gen(3, 1)
    with pytest.raises(ValueError, match=re.escape("not over the coset basis of F2/<g2>")):
        R.L_action(2, 2, W.gen(2, 1), coset)
    with pytest.raises(ValueError, match="acting word lives in F3, expected F2"):
        R.L_action(2, 1, g3, coset)
    with pytest.raises(ValueError, match=r"^vector is not over the coset basis of F2/<g1>$"):
        R.L_action(2, 1, W.gen(2, 1), group)
    with pytest.raises(ValueError, match="vector is not over the group basis of F3"):
        R.lambda_action(3, g3, group)
    with pytest.raises(ValueError, match="acting word lives in F3, expected F2"):
        R.lambda_action(2, g3, group)
    with pytest.raises(ValueError, match="vector is not over the pair basis of F2 x F2"):
        R.tensor_rep_action(2, 2, W.gen(4, 1), group)
    with pytest.raises(ValueError, match="vector is not over the group basis of F4"):
        R.U_apply(2, 2, W.unit(2), group)
    # a vector of another space, of the right rank, is refused as well
    pair = TensorElement.from_pair(W.unit(2), W.unit(2))
    for call, text in (
        (lambda: R.lambda_action(2, W.gen(2, 1), coset), "group basis of F2"),
        (lambda: R.lambda_action(2, W.gen(2, 1), pair), "group basis of F2"),
        (lambda: R.tensor_rep_action(2, 2, W.gen(4, 1), coset), "pair basis of F2 x F2"),
        (lambda: R.tensor_rep_action(2, 1, W.gen(2, 1), pair), "pair basis of F2 x F1"),
        (lambda: R.U_apply(2, 2, W.unit(2), pair), "group basis of F4"),
    ):
        with pytest.raises(ValueError, match=f"^vector is not over the {text}$"):
            call()


# -- matrix coefficients and fixed vectors ------------------------------------------------------


def test_gns_coeff_examples():
    assert R.gns_coeff_check(2, 1, W.gen(2, 1, 4))
    assert R.gns_coeff_check(2, 1, W.unit(2))
    assert R.gns_coeff_check(2, 1, W.gen(2, 2) * W.gen(2, 1))


def test_gns_coeff_full_balls():
    for n in (2, 3):
        ball = W.enumerate_ball(n, 4)
        for i in range(1, n + 1):
            for w in ball:
                assert R.gns_coeff_check(n, i, w)


def test_gns_coeff_fails_when_either_route_is_broken(monkeypatch):
    honest = R.f_eval
    with monkeypatch.context() as patch:
        patch.setattr(R, "f_eval", lambda f, w: 1 - honest(f, w))
        for i in (1, 2):
            assert not any(R.gns_coeff_check(2, i, w) for w in W.enumerate_ball(2, 2))
    # a label that strips no g_1 power separates g_1^k from the base coset
    monkeypatch.setattr(R, "_coset_label", lambda sylls, i: sylls)
    assert not any(R.gns_coeff_check(2, 1, W.gen(2, 1, k)) for k in (1, -1, 2))


def test_gns_coeff_refuses_a_bad_rank_or_index():
    with pytest.raises(ValueError, match="^word lives in F3, expected F2$"):
        R.gns_coeff_check(2, 1, W.gen(3, 1))
    for i in (0, 3):
        with pytest.raises(ValueError, match=f"generator index {i} out of range for F2$"):
            R.gns_coeff_check(2, i, W.gen(2, 1))
    with pytest.raises(ValueError, match="finite rank must be a positive integer, got 0"):
        R.gns_coeff_check(0, 1, W.gen(2, 1))


def test_fixed_vector_dims():
    assert R.fixed_vector_dim(2, 1, 1, 3) == 1
    assert R.fixed_vector_dim(2, 1, 2, 3) == 0
    assert R.fixed_vector_dim(3, 2, 2, 0) == 1
    for n in (2, 3):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                expected = 1 if i == j else 0
                for radius in range(4):
                    assert R.fixed_vector_dim(n, i, j, radius) == expected


def _reference_fixed_vector_dim(n, i, j, radius):
    """The count walked over the representative words ``coset_normal_form``
    returns, stepping by the word ``g_j`` and visiting the window in word order."""
    window = {R.coset_normal_form(n, i, w) for w in W.enumerate_ball(n, radius)}
    gj = W.gen(n, j)

    def step(c):
        return R.coset_normal_form(n, i, W.multiply(gj, c))

    visited = set()
    cycles = 0
    for start in sorted(window, key=W.ReducedWord.sort_key):
        if start in visited:
            continue
        path = [start]
        cur = step(start)
        while cur in window and cur not in visited and cur != start:
            path.append(cur)
            cur = step(cur)
        visited.update(path)
        if cur == start:
            cycles += 1
    return cycles


def test_fixed_vector_dim_matches_the_coset_walk():
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for radius in range(5):
                    expected = _reference_fixed_vector_dim(n, i, j, radius)
                    assert R.fixed_vector_dim(n, i, j, radius) == expected


def test_basis_descriptors_check_their_ranks_and_index():
    with pytest.raises(ValueError, match="^generator index 5 out of range for F2$"):
        R.PDFunction(2, 5)
    # an acting index out of range is refused by the basis the action names
    e0 = R.SuppVector.basis_vector(R.PDFunction(2, 1), R.coset_normal_form(2, 1, W.unit(2)))
    with pytest.raises(ValueError, match="^generator index 3 out of range for F2$"):
        R.L_action(2, 3, W.gen(2, 1), e0)


# -- cyclicity ------------------------------------------------------------------------------------


def test_cyclicity_check_examples():
    assert R.cyclicity_check(2, 2, 1, 2, W.gen(2, 2), W.gen(2, 1))
    assert R.cyclicity_check(2, 2, 1, 1, W.unit(2), W.unit(2))
    assert R.cyclicity_check(
        2, 3, 2, 1, W.gen(2, 1) * W.gen(2, 2), W.gen(3, 3, -1)
    )


def _cyclicity_via_vectors(n, m, i, j, x, y):
    """The cyclicity check along the vector route: the witness moves the base
    tensor ``e_[1] (x) e_[1]`` by the coset actions of its pair image, slot by
    slot, and an elementary tensor of basis vectors equals the target
    ``e_[x] (x) e_[y]`` exactly when both slots do."""
    p, q = W.phi(n, m, R._cyclicity_witness(n, m, i, j, x, y))
    slots = []
    for rank, k, image, target in ((n, i, p, x), (m, j, q, y)):
        basis = R.PDFunction(rank, k)
        base = R.SuppVector.basis_vector(basis, W.unit(rank))
        want = R.SuppVector.basis_vector(basis, R.coset_normal_form(rank, k, target))
        slots.append(R.L_action(rank, k, image, base) == want)
    return all(slots)


def _off_by_one_letter(n, m, i, j, x, y):
    # a wrong witness: the right one times a generator picked by the inputs,
    # so the two routes also meet failing cases
    z = W.cyclicity_witness(n, m, i, j, x, y)
    k = 1 + (x.letter_length + 2 * y.letter_length) % (n * m)
    return W.multiply(z, W.gen(n * m, k))


@pytest.mark.parametrize("witness", ["exact", "off-by-one"])
def test_cyclicity_check_matches_the_vector_route(monkeypatch, witness):
    if witness == "off-by-one":
        monkeypatch.setattr(R, "_cyclicity_witness", _off_by_one_letter)
    ball = W.enumerate_ball(2, 2)
    verdicts = []
    for i in (1, 2):
        for j in (1, 2):
            for x in ball:
                for y in ball:
                    got = R.cyclicity_check(2, 2, i, j, x, y)
                    assert got == _cyclicity_via_vectors(2, 2, i, j, x, y), (i, j, x, y)
                    verdicts.append(got)
    assert len(verdicts) == 4 * 17 * 17
    if witness == "exact":
        assert all(verdicts)
    else:
        assert True in verdicts and False in verdicts


def test_cyclicity_check_ball_product():
    ball = W.enumerate_ball(2, 3)
    for i in (1, 2):
        for j in (1, 2):
            for x in ball:
                for y in ball:
                    assert R.cyclicity_check(2, 2, i, j, x, y)


# -- orbits and intertwiner --------------------------------------------------------------------------


def test_orbit_bfs_radius_one():
    start = (W.unit(2), W.unit(2))
    orbit = R.orbit_bfs(2, 2, start, 1)
    assert len(orbit) == 9
    assert (W.gen(2, 1), W.gen(2, 2)) in orbit
    assert (W.gen(2, 1, -1), W.gen(2, 2, -1)) in orbit
    # signs are correlated through the generator images
    assert (W.gen(2, 1), W.gen(2, 2, -1)) not in orbit


def test_orbit_bfs_radius_zero():
    start = (W.gen(2, 1), W.gen(2, 2))
    assert R.orbit_bfs(2, 2, start, 0) == {start}


def test_orbit_bfs_reaches_commutator_pair():
    start = (W.unit(2), W.unit(2))
    orbit = R.orbit_bfs(2, 2, start, 4)
    commutator = W.reduce(2, [(1, 1), (2, 1), (1, -1), (2, -1)])
    assert (commutator, W.unit(2)) in orbit


def test_U_map_examples():
    assert R.U_map(2, 2, W.unit(2), W.gen(4, 1)) == (W.gen(2, 1), W.gen(2, 1))
    assert R.U_map(2, 2, W.gen(2, 2), W.unit(4)) == (W.gen(2, 2), W.unit(2))
    kernel = W.kernel_witness(2, 2, 1, 2, 1, 2)
    assert R.U_map(2, 2, W.unit(2), kernel) == R.U_map(2, 2, W.unit(2), W.unit(4))


def test_U_apply_merges_collisions():
    kernel = W.kernel_witness(2, 2, 1, 2, 1, 2)
    v = AlgebraElement.from_word(kernel) - AlgebraElement.from_word(W.unit(4))
    assert R.U_apply(2, 2, W.unit(2), v).is_zero


def test_intertwine_examples():
    assert R.intertwine_check(2, 2, W.unit(2), W.gen(4, 1), W.unit(4))
    assert R.intertwine_check(2, 2, W.gen(2, 1), W.unit(4), W.gen(4, 2))


def test_intertwine_seeded_corpus():
    rng = random.Random(22)
    for _ in range(200):
        x = random_reduced_word(rng, 2, 4)
        h = random_reduced_word(rng, 4, 4)
        g = random_reduced_word(rng, 4, 4)
        assert R.intertwine_check(2, 2, x, h, g)


def test_intertwine_fails_under_a_perturbed_U_map(monkeypatch):
    honest = R.U_map
    # one letter changes the length parity, so every case below is a counterexample
    letters = [W.gen(4, k, e) for k in range(1, 5) for e in (1, -1)]
    for slot in (0, 1):

        def perturbed(n, m, x, g, slot=slot):
            # not equivariant: one slot moves by g_1 on words of odd length
            pair = list(honest(n, m, x, g))
            if g.letter_length % 2:
                pair[slot] = W.multiply(pair[slot], W.gen(pair[slot].ambient, 1))
            return tuple(pair)

        with monkeypatch.context() as patch:
            patch.setattr(R, "U_map", perturbed)
            for x in W.enumerate_ball(2, 1):
                for g in W.enumerate_ball(4, 2):
                    assert not any(R.intertwine_check(2, 2, x, h, g) for h in letters)


def test_intertwine_refuses_bad_ranks():
    x, h, g, w3 = W.gen(2, 1), W.gen(4, 1), W.gen(4, 2), W.gen(3, 1)
    with pytest.raises(ValueError, match="ambient mismatch: F3 vs F4"):
        R.intertwine_check(2, 2, x, w3, g)
    with pytest.raises(ValueError, match="ambient mismatch: F4 vs F3"):
        R.intertwine_check(2, 2, x, h, w3)
    with pytest.raises(ValueError, match="ambient mismatch: F2 vs F3"):
        R.intertwine_check(2, 2, w3, h, g)
    with pytest.raises(ValueError, match="expected a word of rank 6, got ambient F4"):
        R.intertwine_check(2, 3, x, h, g)


def test_orbit_bfs_refusals():
    u2, u3 = W.unit(2), W.unit(3)
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        R.orbit_bfs(2, 2, (u2, u2), -1)
    with pytest.raises(ValueError, match="radius must be an int, got 2.0"):
        R.orbit_bfs(2, 2, (u2, u2), 2.0)
    for start in ((u3, u2), (u2, u3)):
        with pytest.raises(ValueError, match="start pair does not match the declared ranks"):
            R.orbit_bfs(2, 2, start, 1)


# -- vectors -------------------------------------------------------------------------------------------


def _cosets(n, i, *words):
    return [R.coset_normal_form(n, i, w) for w in words]


def test_supp_vector_inner_product():
    basis = R.PDFunction(2, 1)
    base, moved = _cosets(2, 1, W.unit(2), W.gen(2, 2))
    v = R.SuppVector(basis, {base: QI(0, 1), moved: QI(2)})
    w = R.SuppVector(basis, {base: QI(3)})
    assert v.inner(w) == QI(0, -3)
    assert v.inner(v) == QI(5)


def test_supp_vector_inner_product_conjugates_its_first_argument():
    # the loop runs over the smaller support, whichever argument holds it
    basis = R.PDFunction(2, 1)
    base, moved = _cosets(2, 1, W.unit(2), W.gen(2, 2))
    v = R.SuppVector(basis, {base: QI(0, 1), moved: QI(2)})
    w = R.SuppVector(basis, {base: QI(3)})
    assert w.inner(v) == QI(0, 3) == v.inner(w).conjugate()
    # a vector of another coset space, or an element of another type
    others = [
        R.SuppVector.basis_vector(b, *_cosets(b.n, b.i, W.unit(b.n)))
        for b in (R.PDFunction(2, 2), R.PDFunction(3, 1))
    ]
    others += [AlgebraElement.from_word(W.unit(2)), TensorElement.from_pair(W.unit(2), W.unit(2))]
    for other in others:
        with pytest.raises(ValueError, match="^elements live in different spaces$"):
            v.inner(other)


def test_supp_vector_inner_product_in_approximate_mode():
    """Two approximate vectors pair to a complex number; a vector of the
    other coefficient mode is refused as ``+`` refuses it."""
    basis = R.PDFunction(2, 1)
    base, moved = _cosets(2, 1, W.unit(2), W.gen(2, 2))
    exact = R.SuppVector(basis, {base: QI(0, 1), moved: QI(2)})
    approx = R.SuppVector(basis, {base: 1j, moved: 2.0}, exact=False)
    for a, b in ((exact, approx), (approx, exact)):
        with pytest.raises(ValueError, match="^cannot mix exact and approximate elements$"):
            a.inner(b)
    for other, want in (
        (approx, 5),
        (R.SuppVector(basis, {moved: 1.0}, exact=False), 2),
        (R.SuppVector(basis, {}, exact=False), 0),
    ):
        got = approx.inner(other)
        assert got == want and type(got) is complex


def test_supp_vector_text():
    """A coset vector prints each label as its representative word in brackets."""
    basis = R.PDFunction(2, 1)
    base, moved = _cosets(2, 1, W.unit(2), W.gen(2, 2))
    v = R.SuppVector.basis_vector(basis, moved)
    assert str(v) == "1*e[g2]"
    assert str(3 * v) == "3*e[g2]"
    assert str(v - v) == "0"
    assert str(R.SuppVector.basis_vector(basis, base)) == "1*e[1]"


def test_supp_vector_basis_mismatch():
    v = R.SuppVector.basis_vector(R.PDFunction(2, 1), *_cosets(2, 1, W.unit(2)))
    for basis in (R.PDFunction(2, 2), R.PDFunction(3, 1)):
        w = R.SuppVector.basis_vector(basis, *_cosets(basis.n, basis.i, W.unit(basis.n)))
        with pytest.raises(ValueError, match="elements live in different spaces"):
            v + w


def test_vectors_have_no_product_and_no_star():
    """A vector is scaled by scalars only: the product of two vectors and
    the star involution are refused, with the vector's basis named, and
    scalars act on either side."""
    basis = R.PDFunction(2, 1)
    label = R.coset_normal_form(2, 1, W.gen(2, 2))
    v = R.SuppVector.basis_vector(basis, label)
    with pytest.raises(TypeError, match=re.escape(f"SuppVector over {basis}")):
        v * v
    with pytest.raises(TypeError, match=re.escape(f"SuppVector over {basis}")):
        v.star()
    assert v * 3 == 3 * v == R.SuppVector(basis, {label: 3})
    assert (2 * v).inner(v) == QI(2)


# -- names the benchmark tracer wraps ------------------------------------------------------------


def test_bench_tracer_names_resolve():
    """``bench/tracer.py`` wraps library names given as strings; each must
    resolve, so a rename fails here and not only in a traced benchmark run.
    The modules are the ones already imported: importing ``freebialg`` anew
    would give the other tests' objects classes of another module."""
    import importlib
    import importlib.util
    from pathlib import Path
    from types import SimpleNamespace

    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    layers = ("scalars", "words", "algebra", "bialgebra", "reps", "morphisms", "corpus", "text", "cli")
    program = SimpleNamespace(**{name: importlib.import_module(f"freebialg.{name}") for name in layers})
    entries = tracer.wrap_spec(program)
    missing = [(layer, owner, attr) for layer, owner, attr, _, _ in entries if not hasattr(owner, attr)]
    assert entries and not missing
    # the names the per-layer reps metrics read
    names = {f"{layer}.{key}" for layer, _, _, _, key in entries}
    assert {
        "reps.coset_normal_form",
        "reps.suppvector.built",
        "reps.SuppVector.inner",
        "reps.claim_probe_pd",
        "reps.orbit_bfs",
        "reps.gram_psd",
    } <= names
