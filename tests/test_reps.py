"""Tests for the representation layer: indicator functions, coset actions,
regular representations, orbit search, and the probes."""

import random
import re

import numpy as np
import pytest

from freebialg import reps as R
from freebialg import words as W
from freebialg.corpus import random_reduced_word
from freebialg.scalars import QI


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


# -- cosets --------------------------------------------------------------------------


def test_coset_normal_form_examples():
    c = R.coset_normal_form(2, 1, W.gen(2, 2) * W.gen(2, 1, 3))
    assert str(c.rep) == "g2"
    c = R.coset_normal_form(2, 1, W.gen(2, 1, -2))
    assert c.rep.is_unit
    w = W.reduce(3, [(2, 1), (3, 1), (2, -1)])
    c = R.coset_normal_form(3, 2, w)
    assert str(c.rep) == "g2*g3"


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
    with pytest.raises(ValueError):
        R.Coset(2, 1, W.gen(2, 1))
    with pytest.raises(ValueError):
        R.Coset(2, 1, W.gen(2, 2) * W.gen(2, 1, -2))


def test_coset_normal_form_matches_the_public_constructor():
    for i in (1, 2, 3):
        for w in W.enumerate_ball(3, 3):
            c = R.coset_normal_form(3, i, w)
            public = R.Coset(3, i, c.rep)
            assert type(c) is R.Coset
            assert c == public and hash(c) == hash(public)
            assert (c.n, c.i) == (3, i)


# -- actions ------------------------------------------------------------------------------


def test_L_action_examples():
    basis = R.CosetBasis(2, 1)
    e0 = R.SuppVector.basis_vector(basis, R.coset_normal_form(2, 1, W.unit(2)))
    assert R.L_action(2, 1, W.gen(2, 1), e0) == e0
    moved = R.L_action(2, 1, W.gen(2, 2), e0)
    assert moved == R.SuppVector.basis_vector(
        basis, R.coset_normal_form(2, 1, W.gen(2, 2))
    )
    v = e0 + moved.scale(QI(2))
    assert R.L_action(2, 1, W.unit(2), v) == v


def test_L_action_is_group_action():
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randint(2, 3)
        i = rng.randint(1, n)
        basis = R.CosetBasis(n, i)
        v = R.SuppVector.basis_vector(
            basis, R.coset_normal_form(n, i, random_reduced_word(rng, n, 3))
        )
        x = random_reduced_word(rng, n, 4)
        y = random_reduced_word(rng, n, 4)
        assert R.L_action(n, i, x, R.L_action(n, i, y, v)) == R.L_action(n, i, x * y, v)


def test_lambda_action_examples():
    basis = R.GroupBasis(2)
    xi1 = R.SuppVector.basis_vector(basis, W.unit(2))
    assert R.lambda_action(2, W.gen(2, 1), xi1) == R.SuppVector.basis_vector(
        basis, W.gen(2, 1)
    )
    v = R.SuppVector.basis_vector(basis, W.gen(2, 2, -1))
    assert R.lambda_action(
        2, W.gen(2, 1, -1), R.lambda_action(2, W.gen(2, 1), v)
    ) == v
    assert R.lambda_action(2, W.gen(2, 1) * W.gen(2, 2), v) == R.SuppVector.basis_vector(
        basis, W.gen(2, 1)
    )


def test_tensor_rep_action_examples():
    basis = R.PairGroupBasis(2, 2)
    v = R.SuppVector.basis_vector(basis, (W.unit(2), W.unit(2)))
    moved = R.tensor_rep_action(2, 2, W.gen(4, 1), v)
    assert moved == R.SuppVector.basis_vector(basis, (W.gen(2, 1), W.gen(2, 1)))
    assert R.tensor_rep_action(2, 2, W.unit(4), v) == v
    kernel = W.kernel_witness(2, 2, 1, 2, 1, 2)
    w = R.SuppVector.basis_vector(basis, (W.gen(2, 2), W.gen(2, 1, -1)))
    assert R.tensor_rep_action(2, 2, kernel, w) == w


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


# -- cyclicity ------------------------------------------------------------------------------------


def test_cyclicity_check_examples():
    assert R.cyclicity_check(2, 2, 1, 2, W.gen(2, 2), W.gen(2, 1))
    assert R.cyclicity_check(2, 2, 1, 1, W.unit(2), W.unit(2))
    assert R.cyclicity_check(
        2, 3, 2, 1, W.gen(2, 1) * W.gen(2, 2), W.gen(3, 3, -1)
    )


def _cyclicity_via_vectors(n, m, i, j, x, y):
    """The cyclicity check along the vector route: move the base basis
    vector of the coset-pair space by the witness and compare it with the
    target basis vector."""
    basis = R.CosetPairBasis(R.CosetBasis(n, i), R.CosetBasis(m, j))
    base = (R.coset_normal_form(n, i, W.unit(n)), R.coset_normal_form(m, j, W.unit(m)))
    p, q = W.phi(n, m, R._cyclicity_witness(n, m, i, j, x, y))
    moved = R.SuppVector.basis_vector(basis, base).map_labels(
        lambda lbl: (
            R.coset_normal_form(n, i, W.multiply(p, lbl[0].rep)),
            R.coset_normal_form(m, j, W.multiply(q, lbl[1].rep)),
        )
    )
    target = R.SuppVector.basis_vector(
        basis, (R.coset_normal_form(n, i, x), R.coset_normal_form(m, j, y))
    )
    return moved == target


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
    basis = R.GroupBasis(4)
    kernel = W.kernel_witness(2, 2, 1, 2, 1, 2)
    v = R.SuppVector.basis_vector(basis, kernel) - R.SuppVector.basis_vector(
        basis, W.unit(4)
    )
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


# -- vectors -------------------------------------------------------------------------------------------


def test_supp_vector_inner_product():
    basis = R.GroupBasis(2)
    v = R.SuppVector(basis, {W.unit(2): QI(0, 1), W.gen(2, 1): QI(2)})
    w = R.SuppVector(basis, {W.unit(2): QI(3)})
    assert v.inner(w) == QI(0, -3)
    assert v.inner(v) == QI(5)


def test_supp_vector_basis_mismatch():
    v = R.SuppVector.basis_vector(R.GroupBasis(2), W.unit(2))
    w = R.SuppVector.basis_vector(R.GroupBasis(3), W.unit(3))
    with pytest.raises(ValueError):
        v + w


@pytest.mark.parametrize(
    "basis,label",
    [
        (R.CosetBasis(2, 1), R.coset_normal_form(2, 1, W.gen(2, 2))),
        (R.GroupBasis(2), W.gen(2, 2)),
        (R.PairGroupBasis(2, 3), (W.gen(2, 1), W.gen(3, 3, -1))),
        (
            R.CosetPairBasis(R.CosetBasis(2, 1), R.CosetBasis(3, 2)),
            (R.coset_normal_form(2, 1, W.gen(2, 2)), R.coset_normal_form(3, 2, W.gen(3, 1))),
        ),
    ],
    ids=lambda x: type(x).__name__,
)
def test_vectors_have_no_product_and_no_star(basis, label):
    """A vector is scaled by scalars only: the product of two vectors and
    the star involution are refused on every basis, with the vector's basis
    named, and scalars act on either side."""
    v = R.SuppVector.basis_vector(basis, label)
    with pytest.raises(TypeError, match=re.escape(f"SuppVector over {basis}")):
        v * v
    with pytest.raises(TypeError, match=re.escape(f"SuppVector over {basis}")):
        v.star()
    assert v * 3 == 3 * v == R.SuppVector(basis, {label: 3})
    assert (2 * v).inner(v) == QI(2)


# each pair basis with a label of it and a label with one slot of the wrong rank
_PAIR_BASES = [
    (R.PairGroupBasis(2, 3), (W.gen(2, 1), W.gen(3, 3, -1)), (W.gen(2, 1), W.gen(2, 2))),
    (
        R.CosetPairBasis(R.CosetBasis(2, 1), R.CosetBasis(3, 2)),
        (R.coset_normal_form(2, 1, W.gen(2, 2)), R.coset_normal_form(3, 2, W.gen(3, 1))),
        (R.coset_normal_form(2, 1, W.gen(2, 2)), R.coset_normal_form(2, 2, W.gen(2, 1))),
    ),
]


@pytest.mark.parametrize(
    "basis,label",
    [
        (basis, label)
        for basis, good, wrong_rank in _PAIR_BASES
        for label in (good[0], (1, 2), good[:1], good + good[:1], wrong_rank)
    ],
    ids=[
        f"{type(basis).__name__}-{kind}"
        for basis, _, _ in _PAIR_BASES
        for kind in ("bare", "ints", "1-tuple", "3-tuple", "wrong-rank")
    ],
)
def test_pair_bases_refuse_malformed_labels(basis, label):
    """A pair label is a tuple or list of two slots; anything else, or a
    slot of the wrong basis, is refused by name as on the one-slot bases."""
    with pytest.raises(ValueError, match=r"label .* does not belong to \w*Basis"):
        R.SuppVector.basis_vector(basis, label)


@pytest.mark.parametrize("basis,good,_", _PAIR_BASES, ids=lambda x: type(x).__name__)
def test_pair_bases_store_list_labels_as_tuples(basis, good, _):
    v = R.SuppVector.basis_vector(basis, list(good))
    assert [type(k) for k in v.terms] == [tuple]
    assert v == R.SuppVector.basis_vector(basis, good)
