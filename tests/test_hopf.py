from fractions import Fraction

import math
from functools import partial

import numpy as np
import pytest

from nlsl2.coefficients import alpha_from_beta, phi_eval
from nlsl2.halfint import HalfInt, halfint
from nlsl2.hopf import (
    Coproduct,
    InadmissibleProductError,
    antipode_realization,
    apply_antipode,
    cocommutativity_check,
    cocommutativity_residuals,
    deformed_coproduct,
    hopf_axiom_checks,
    primitive_coproduct,
    product_casimir_spectrum,
    quadratic_coproduct,
    transferred_coproduct,
    triple_coassociativity_residual,
)
from nlsl2 import cli, hopf
from nlsl2.repbuilder import (MatrixRep, _transferred_irrep, build_deformed, build_quadratic_explicit, build_sl2,
                              deformed_from_undeformed)
from nlsl2.structure import (Polynomial, StructureSpec, divided_difference, f2_polynomial, polynomial_transfer,
                             quadratic_ladder_factor, quadratic_radicand, quadratic_transfer)
from nlsl2.verifier import EPS, commutator_residuals, gate


def test_primitive_coproduct_realizes_kron_sum():
    r1, r2 = build_sl2("1/2"), build_sl2(1)
    pr = primitive_coproduct(r1, r2)
    assert pr.dim == 6
    expected = np.kron(r1.Jplus, np.eye(3)) + np.kron(np.eye(2), r2.Jplus)
    assert np.allclose(pr.DJp, expected)
    # Delta(C) commutes with every coproduct generator
    for mat in (pr.DJ3, pr.DJp, pr.DJm):
        assert np.linalg.norm(pr.DC @ mat - mat @ pr.DC) < 1e-12


def _kron_reference(a, b):
    """(DJ3, DJ+, DJ-, DC) of a (x) b from np.kron, in primitive_coproduct's term order."""
    a3, ap, am, ac = a
    b3, bp, bm, bc = b
    i1, i2 = np.eye(len(a3)), np.eye(len(b3))
    return (
        np.kron(a3, i2) + np.kron(i1, b3),
        np.kron(ap, i2) + np.kron(i1, bp),
        np.kron(am, i2) + np.kron(i1, bm),
        np.kron(ac, i2) + np.kron(i1, bc) + np.kron(ap, bm) + np.kron(am, bp) + 2 * np.kron(a3, b3),
    )


def _assert_casimir_close(got, ref):
    # Delta(C) is read off the Delta(J+) steps by the Casimir identity, so it rounds differently from the Kronecker
    # sum: off-diagonal entries are the same single products, diagonal ones move by at most 1 eps max|C| (1 (x) 0)
    assert np.abs(got - ref).max() <= 2 * EPS * np.abs(ref).max()


def _generators(rep):
    c = rep.j.mm1()
    return rep.J3, rep.Jplus, rep.Jminus, float(c) * np.eye(rep.dim)


@pytest.mark.parametrize("j1,j2", [("1/2", "1/2"), ("1/2", "1"), ("3/2", "2"), ("3", "5/2")])
def test_primitive_coproduct_equals_kron_sums(j1, j2):
    r1, r2 = build_sl2(halfint(j1)), build_sl2(halfint(j2))
    pr = primitive_coproduct(r1, r2)
    want = _kron_reference(_generators(r1), _generators(r2))
    for got, ref in zip((pr.DJ3, pr.DJp, pr.DJm), want):
        assert np.array_equal(got, ref)
    _assert_casimir_close(pr.DC, want[3])


@pytest.mark.parametrize("j", ["1/2", "1"])
def test_triple_product_equals_kron_sums_in_both_bracketings(j):
    rep = build_sl2(halfint(j))
    gens = _generators(rep)
    pair = _kron_reference(gens, gens)
    left = primitive_coproduct(primitive_coproduct(rep, rep), rep)
    right = primitive_coproduct(rep, primitive_coproduct(rep, rep))
    for pr, want in ((left, _kron_reference(pair, gens)), (right, _kron_reference(gens, pair))):
        for got, ref in zip((pr.DJ3, pr.DJp, pr.DJm), want):
            assert np.array_equal(got, ref)
        _assert_casimir_close(pr.DC, want[3])


def _relative(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def _joint_calculus(pr, g):
    """The dense V diag(g(c, m)) V^T of every M block, g at the exact Fractions c = J(J+1) and m = M."""
    out = np.zeros((pr.dim, pr.dim))
    for b in pr.blocks:
        m = Fraction(b.two_m, 2)
        vals = np.array([g(HalfInt(t).mm1(), m) for t in b.two_js], dtype=float)
        out[np.ix_(b.indices, b.indices)] = (b.V * vals) @ b.V.T
    return out


def _swap_matrix(d1, d2):
    """Permutation realizing v (x) w -> w (x) v."""
    return np.eye(d1 * d2)[np.arange(d1 * d2).reshape(d1, d2).T.ravel()]


@pytest.mark.parametrize("j1,j2", [("1", "1"), ("3", "5/2"), ("7/2", "1")])
def test_block_coproducts_match_dense_references(j1, j2):
    alpha = [Fraction(1), Fraction(1, 10), Fraction(1, 100)]
    pr = primitive_coproduct(build_sl2(halfint(j1)), build_sl2(halfint(j2)))

    def dd(c, m):
        x = m * (m + 1)
        return 0.0 if c == x else math.sqrt((phi_eval(alpha, c) - phi_eval(alpha, x)) / (c - x))

    factor = _joint_calculus(pr, dd)
    for order, want in (("source", pr.DJp @ factor), ("target", factor @ pr.DJp)):
        djp, djm, _ = deformed_coproduct(pr, alpha, order=order)
        assert _relative(djp, want) < 1e-13
        assert np.array_equal(djm, djp.T)

    a = 0.05

    def ladder(c, m):
        root = math.sqrt(max(1 - 16 * a * a * c / 3, 0.0))
        return math.sqrt(max(2 * a * (2 * m + 1) / 3 + root, 0.0))

    _, djp_a, _ = quadratic_coproduct(pr, a)
    assert _relative(djp_a, pr.DJp @ _joint_calculus(pr, ladder)) < 1e-13


def test_cocommutativity_check_matches_swap_conjugation():
    d = 3
    rng = np.random.default_rng(5)
    mats = [rng.standard_normal((d * d, d * d)), np.kron(np.arange(d * d).reshape(d, d), np.eye(d))]
    p = _swap_matrix(d, d)
    want = [float(np.linalg.norm(p @ mat @ p.T - mat)) for mat in mats]
    assert cocommutativity_check(mats, d) == want


def test_cocommutativity_check_matches_dense_swap_oracle():
    d = 5
    x = np.random.default_rng(11).standard_normal((d * d, d * d))
    p = _swap_matrix(d, d)
    want = np.linalg.norm(p @ x @ p.T - x)
    assert abs(cocommutativity_check([x], d)[0] - want) <= 1e-14 * want


def test_cocommutativity_check_single_entry_controls():
    # one entry delta off the swap-fixed positions ((a, a), (e, e)) leaves
    # its swap partner at 0, so the residual is sqrt(delta^2 + delta^2)
    d, delta = 5, 1e-9
    for a, b, c, e in ((0, 1, 2, 3), (2, 2, 1, 4), (4, 3, 3, 3), (1, 0, 0, 1)):
        x = np.zeros((d * d, d * d))
        x[a * d + b, c * d + e] = delta
        assert cocommutativity_check([x], d) == [math.sqrt(2 * delta * delta)]
        assert cocommutativity_check([x], d)[0] == pytest.approx(math.sqrt(2) * delta, rel=1e-15)
    for a, e in ((0, 0), (3, 1), (4, 4)):
        x = np.zeros((d * d, d * d))
        x[a * d + a, e * d + e] = delta
        assert cocommutativity_check([x], d) == [0.0]


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _factor_pairs():
    pairs = [("0", "0"), ("1/2", "1/2"), ("1", "1"), ("3", "5/2"), ("7/2", "1"), ("5", "5"), ("17/2", "5/2")]
    rep = build_sl2(1)
    return [(build_sl2(halfint(j1)), build_sl2(halfint(j2))) for j1, j2 in pairs] + [
        (primitive_coproduct(rep, rep), rep)]


def _products():
    return [primitive_coproduct(*pair) for pair in _factor_pairs()]


def test_eigh_reads_the_nonnegative_m_blocks_and_mirrors_the_rest(monkeypatch):
    received, eigh = [], np.linalg.eigh

    def counting(a):
        received.append(len(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    for pair in _factor_pairs():
        received.clear()
        pr = primitive_coproduct(*pair)
        last = len(pr.blocks) - 1
        assert sum(received) == sum(b.two_m >= 0 for b in pr.blocks)
        for k, b in enumerate(pr.blocks):
            mirror = pr.blocks[last - k]
            # the reflection (m1, m2) -> (-m1, -m2) maps block k onto block last - k, positions reversed; the
            # M = 0 block is its own mirror, formed directly
            assert mirror.two_m == -b.two_m
            if k != last - k:
                assert _same_bits(mirror.C, b.C[::-1, ::-1])
            if k < last:
                assert _same_bits(pr.steps[last - 1 - k], pr.steps[k].T[::-1, ::-1])
            if b.two_m >= 0:
                w, vecs = eigh(b.C)
                assert _same_bits(b.w, w) and _same_bits(b.V, vecs)
            else:
                assert _same_bits(b.w, mirror.w) and _same_bits(b.V, mirror.V[::-1])
            n, top = len(b.w), max(b.w)
            assert np.linalg.norm(b.C @ b.V - b.V * b.w) <= 1e-13 * top
            assert np.linalg.norm(b.V.T @ b.V - np.eye(n)) <= 1e-13
            assert b.two_js == tuple(s for s in pr.spins if s >= abs(b.two_m))


def test_casimir_blocks_are_the_casimir_identity_on_the_steps_and_their_mirrors():
    # Delta(C) = Delta(J-) Delta(J+) + Delta(J3)(Delta(J3) + 1): S_k^T S_k + M(M+1) I on each block with 2M >= 0
    # (M(M+1) alone on the top block), and a -M block is the reversed view of its mirror
    for pr in _products():
        last, top = len(pr.sizes) - 1, max(np.abs(c).max() for c in pr.cas)
        for k in range(len(pr.sizes) // 2, last + 1):
            m, s = pr.block_m[k] / 2, pr.steps[k] if k < last else np.zeros((0, 1))
            assert np.abs(pr.cas[k] - (s.T @ s + m * (m + 1) * np.eye(pr.sizes[k]))).max() <= 2 * EPS * top
            if k != last - k:
                assert _same_bits(pr.cas[last - k], pr.cas[k][::-1, ::-1])
        assert not any(c.flags.writeable for c in pr.cas)


def _former_dense(pr, parts):
    """Per-block np.ix_ assembly of blocks placed at (rows x cols)."""
    out = np.zeros((pr.dim, pr.dim))
    for rows, cols, block in parts:
        out[np.ix_(rows, cols)] = block
    return out


def _former_raise(pr, g, order):
    factors = [(b.V * np.array([g(t, b.two_m) for t in b.two_js], dtype=float)) @ b.V.T for b in pr.blocks]
    parts = [(hi.indices, lo.indices, s @ factors[k] if order == "source" else factors[k + 1] @ s)
             for k, (lo, hi, s) in enumerate(zip(pr.blocks, pr.blocks[1:], pr.steps))]
    djp = _former_dense(pr, parts)
    return djp, djp.T.copy(), factors


def _assert_transpose_pair(djp, djm):
    assert djm.flags.c_contiguous and djm.flags.writeable
    assert np.array_equal(djm, djp.T) and not np.shares_memory(djm, djp)


@pytest.mark.parametrize("order", ["source", "target"])
def test_deformed_coproduct_bitwise_equals_former_assembly(order):
    alpha = [Fraction(1), Fraction(1, 10), Fraction(1, 100)]
    for pr in _products():
        dd = divided_difference(alpha, max(pr.spins))
        want_p, want_m, _ = _former_raise(pr, lambda t, m: 0.0 if t == m else math.sqrt(dd(t, m)), order)
        djp, djm, dj3 = deformed_coproduct(pr, alpha, order=order)
        assert _same_bits(djp, want_p) and _same_bits(djm, want_m) and dj3 is pr.DJ3
        _assert_transpose_pair(djp, djm)


def test_quadratic_coproduct_bitwise_equals_former_assembly():
    for pr in _products():
        cmax = max(pr.spins) * (max(pr.spins) + 2) / 4
        a = 0.6 * math.sqrt(3 / (16 * cmax)) if cmax else 0.3
        roots = {t: math.sqrt(max(quadratic_radicand(a, t * (t + 2) / 4), 0.0)) for t in pr.spins}

        def ladder(t, m):
            return 0.0 if t == m else math.sqrt(max(quadratic_ladder_factor(a, roots[t], m / 2), 0.0))

        want_p, want_m, _ = _former_raise(pr, ladder, "source")
        parts = [(b.indices, b.indices, (b.V * np.array([roots[t] for t in b.two_js])) @ b.V.T) for b in pr.blocks]
        want_3 = pr.DJ3 - (1 / (4 * a)) * np.eye(pr.dim) + (1 / (4 * a)) * _former_dense(pr, parts)
        dj3, djp, djm = quadratic_coproduct(pr, a)
        # Delta(J3') is now diag(M) + V diag(gamma) V^T, which rounds differently
        assert np.abs(dj3 - want_3).max() <= gate(pr.dim, np.linalg.norm(want_3))
        assert _same_bits(djp, want_p) and _same_bits(djm, want_m)
        _assert_transpose_pair(djp, djm)


def _former_transferred(pr, t, order):
    """The former dense assembly of a transferred coproduct: the step products scattered into zeros and, for a
    shifted family, V diag(s) V^T scattered into zeros with diag(M) added on the diagonal."""
    djp, djm, _ = _former_raise(pr, lambda tt, m: 0.0 if tt == m else math.sqrt(t.factor(tt, m)), order)
    if t.shift is None:
        return djp, djm, pr.DJ3
    parts = [(b.indices, b.indices, (b.V * np.array([t.shift(tt) for tt in b.two_js])) @ b.V.T) for b in pr.blocks]
    dj3 = _former_dense(pr, parts)
    dj3.flat[::pr.dim + 1] += pr.two_m / 2.0
    return djp, djm, dj3


@pytest.mark.parametrize("order", ["source", "target"])
def test_coproduct_dense_bitwise_equals_former_assembly(order):
    alpha = [Fraction(1), Fraction(1, 10), Fraction(1, 100)]
    for pr in _products():
        cmax = max(pr.spins) * (max(pr.spins) + 2) / 4
        a = 0.6 * math.sqrt(3 / (16 * cmax)) if cmax else 0.3
        for t in (polynomial_transfer(alpha, max(pr.spins)), quadratic_transfer(a, max(pr.spins))):
            cop = transferred_coproduct(pr, t, order)
            assert (cop.j3 is None) == (t.shift is None)
            got, want = hopf._dense(cop), _former_transferred(pr, t, order)
            assert all(_same_bits(x, y) for x, y in zip(got, want))
            assert t.shift is not None or got[2] is pr.DJ3
            _assert_transpose_pair(*got[:2])


def test_dense_views_equal_the_former_assembly():
    for pr in _products():
        plus = [(hi.indices, lo.indices, s) for lo, hi, s in zip(pr.blocks, pr.blocks[1:], pr.steps)]
        assert _same_bits(pr.DJp, _former_dense(pr, plus))
        assert _same_bits(pr.DJm, _former_dense(pr, [(c, r, s.T) for r, c, s in plus]))
        assert _same_bits(pr.DC, _former_dense(pr, [(b.indices, b.indices, b.C) for b in pr.blocks]))


def test_product_casimir_spectrum_oracle():
    assert product_casimir_spectrum("1/2", "1/2") == [0.0, 2.0, 2.0, 2.0]
    got = sorted(np.concatenate([b.w for b in primitive_coproduct(build_sl2(1), build_sl2("3/2")).blocks]))
    assert np.allclose(got, product_casimir_spectrum(1, "3/2"), atol=1e-10)


def test_label_calculus_reproduces_casimir():
    # V diag(J(J+1)) V^T is each block's Delta(C), V diag(1) V^T the identity; the labels run block by block
    for pr in _products():
        two_j, two_m = np.array(pr.spins, dtype=int)[pr.rank], pr.two_m[pr.order]
        assert np.array_equal(two_m, np.concatenate([[b.two_m] * len(b.indices) for b in pr.blocks]))
        assert np.array_equal(two_j, np.concatenate([b.two_js for b in pr.blocks]))
        for b, c, one in zip(pr.blocks, hopf._label_calculus(pr, two_j * (two_j + 2) / 4.0),
                             hopf._label_calculus(pr, np.ones(pr.dim))):
            assert np.allclose(c, b.C, atol=1e-12) and np.allclose(one, np.eye(len(b.indices)), atol=1e-12)


def test_hopf_axioms_primitive():
    for j_str in ("1/2", "2"):
        report = hopf_axiom_checks(build_sl2(halfint(j_str)))
        assert report.all_passed
        # five numeric checks per generator, each under its gate; no exact label comparison is left
        assert {c.kind for c in report.checks} == {"numeric"} and len(report.checks) == 15
        assert all(c.residual <= c.bound for c in report.checks)


# 1 (x) 1 at beta = -0.1 is inadmissible: test_deformed_coproduct_rejects_inadmissible_component
@pytest.mark.parametrize("b,j1,j2", [(b, j1, j2) for b in (-0.1, -0.05)
                                     for j1, j2 in (("0", "0"), ("1/2", "1/2"), ("1/2", "1"), ("1", "1"))
                                     if (b, j1, j2) != (-0.1, "1", "1")])
def test_deformed_coproduct_is_algebra_map(j1, j2, b):
    pr = primitive_coproduct(build_sl2(halfint(j1)), build_sl2(halfint(j2)))
    beta = [Fraction(1), Fraction(b).limit_denominator(100)]
    cop = transferred_coproduct(pr, polynomial_transfer(alpha_from_beta(beta), max(pr.spins)))
    assert commutator_residuals(cop, beta, tol=1e-8).all_passed


def test_deformed_coproduct_rejects_inadmissible_component():
    # at beta = -0.1 the spin-2 component of 1 (x) 1 has a negative structure
    # function (unshifted bound is beta >= -1/16), so the product is rejected
    pr = primitive_coproduct(build_sl2(halfint(1)), build_sl2(halfint(1)))
    with pytest.raises(InadmissibleProductError) as exc:
        deformed_coproduct(pr, alpha_from_beta([Fraction(1), Fraction(-1, 10)]))
    assert exc.value.c == pytest.approx(6.0, abs=1e-9)
    assert isinstance(exc.value.c, Fraction) and exc.value.c == 6
    with pytest.raises(InadmissibleProductError) as exc:
        deformed_coproduct(pr, alpha_from_beta([Fraction(1), Fraction(-1, 10)]), order="target")
    assert exc.value.c == Fraction(6)


def _fraction_label_coproduct(pr, alpha, order):
    """Delta(J+) times the factor of exact Fraction labels (c, m) = (J(J+1), M),
    per (M -> M+1) block pair in deformed_coproduct's order of operations."""

    def g(c, m):
        x = m * (m + 1)
        if c == x:
            return 0.0
        dd = (phi_eval(alpha, c) - phi_eval(alpha, x)) / (c - x)
        if dd < 0:
            raise InadmissibleProductError("negative divided difference", c, m)
        return math.sqrt(dd)

    factors = []
    for b in pr.blocks:
        m = Fraction(b.two_m, 2)
        vals = np.array([g(Fraction(t * (t + 2), 4), m) for t in b.two_js], dtype=float)
        factors.append((b.V * vals) @ b.V.T)
    out = np.zeros((pr.dim, pr.dim))
    for k in range(len(pr.blocks) - 1):
        rows, cols = np.ix_(pr.blocks[k + 1].indices, pr.blocks[k].indices)
        step = pr.DJp[rows, cols]
        out[rows, cols] = step @ factors[k] if order == "source" else factors[k + 1] @ step
    return out


@pytest.mark.parametrize("order", ["source", "target"])
def test_deformed_coproduct_bitwise_equals_fraction_labels(order):
    alpha = [Fraction(1), Fraction(1, 10), Fraction(1, 100)]
    pr = primitive_coproduct(build_sl2(halfint(3)), build_sl2(halfint("5/2")))
    djp, djm, dj3 = deformed_coproduct(pr, alpha, order=order)
    assert np.array_equal(djp, _fraction_label_coproduct(pr, alpha, order))
    assert np.array_equal(djm, djp.T) and dj3 is pr.DJ3
    # the 1 (x) 1, beta = -1/10 rejection names the same exact label as the reference
    pr = primitive_coproduct(build_sl2(1), build_sl2(1))
    bad = alpha_from_beta([Fraction(1), Fraction(-1, 10)])
    with pytest.raises(InadmissibleProductError) as want:
        _fraction_label_coproduct(pr, bad, order)
    with pytest.raises(InadmissibleProductError) as exc:
        deformed_coproduct(pr, bad, order=order)
    assert (exc.value.c, exc.value.m) == (want.value.c, want.value.m) == (Fraction(6), Fraction(-2))
    assert isinstance(exc.value.c, Fraction) and isinstance(exc.value.m, Fraction)


@pytest.mark.parametrize("j1,j2", [("3", "5/2"), ("7/2", "1")])
def test_deformed_coproduct_matches_coupled_basis_oracle(j1, j2):
    # DJ+^ DJ-^ acts on |J, M> as F_alpha(J, M-1), which is 0 at M = -J
    alpha = [Fraction(1), Fraction(1, 10), Fraction(1, 100)]
    pr = primitive_coproduct(build_sl2(halfint(j1)), build_sl2(halfint(j2)))
    djp, djm, _ = deformed_coproduct(pr, alpha)
    prod = djp @ djm
    top = float(f2_polynomial(alpha, HalfInt(max(pr.spins)), -HalfInt(max(pr.spins))))
    for b in pr.blocks:
        got = np.linalg.eigvalsh(prod[np.ix_(b.indices, b.indices)])
        want = sorted(
            float(f2_polynomial(alpha, HalfInt(t), HalfInt(b.two_m - 2))) if b.two_m > -t else 0.0
            for t in b.two_js
        )
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * top)


def test_deformed_coproduct_target_order_is_not_homomorphism():
    pr = primitive_coproduct(build_sl2(halfint("1/2")), build_sl2(halfint("1/2")))
    beta = [Fraction(1), Fraction(-1, 10)]
    cop = transferred_coproduct(pr, polynomial_transfer(alpha_from_beta(beta), max(pr.spins)), order="target")
    report = commutator_residuals(cop, beta, tol=1e-8)
    assert not report.all_passed
    with pytest.raises(ValueError):
        deformed_coproduct(pr, [1], order="sideways")


def test_deformed_coproduct_cocommutative_on_equal_factors():
    d = build_sl2(halfint(1))
    pr = primitive_coproduct(d, d)
    mats = deformed_coproduct(pr, alpha_from_beta([Fraction(1), Fraction(-1, 20)]))
    assert max(cocommutativity_check(list(mats), d.dim)) < 1e-10


def test_cocommutativity_requires_equal_factors():
    pr = primitive_coproduct(build_sl2("1/2"), build_sl2(1))
    with pytest.raises(ValueError):
        cocommutativity_check([pr.DJ3], 2)


def test_swap_permutes_each_weight_block():
    # the swap v (x) w -> w (x) v keeps M, so it maps each block's states onto themselves, as an involution;
    # on V (x) V, V an irrep, that permutation reverses the block
    for j in ("0", "1/2", "3", "7/2", "11"):
        rep = build_sl2(halfint(j))
        pr = primitive_coproduct(rep, rep)
        p = _swap_matrix(rep.dim, rep.dim)
        assert np.array_equal(p @ p, np.eye(pr.dim)) and np.array_equal(p @ pr.DJ3 @ p.T, pr.DJ3)
        for b in pr.blocks:
            swapped = b.indices % rep.dim * rep.dim + b.indices // rep.dim
            p = np.searchsorted(b.indices, swapped)
            assert np.array_equal(b.indices[p], swapped) and np.array_equal(p[p], np.arange(len(b.indices)))
            assert np.array_equal(p, np.arange(len(b.indices))[::-1])


def test_quadratic_coproduct_closes_algebra():
    rep = build_sl2(halfint("1/2"))
    pr = primitive_coproduct(rep, rep)
    a = 0.2
    dj3, djp, djm = quadratic_coproduct(pr, a)
    assert np.linalg.norm(dj3 @ djp - djp @ dj3 - djp) < 1e-10
    comm = djp @ djm - djm @ djp
    assert np.linalg.norm(comm - (2 * dj3 + 4 * a * dj3 @ dj3)) < 1e-10


def test_quadratic_coproduct_rejects_large_alpha():
    rep = build_sl2(halfint(1))
    pr = primitive_coproduct(rep, rep)
    with pytest.raises(InadmissibleProductError):
        quadratic_coproduct(pr, 0.9)
    with pytest.raises(ValueError):
        quadratic_coproduct(pr, 0.0)


def test_antipode_realization_negates_generators():
    for j_str in ("1/2", "1", "3/2"):
        rep = build_sl2(halfint(j_str))
        w = antipode_realization(rep.j)
        assert np.allclose(apply_antipode(rep.J3, w), -rep.J3, atol=1e-12)
        assert np.allclose(apply_antipode(rep.Jplus, w), -rep.Jplus, atol=1e-12)
        assert np.allclose(apply_antipode(rep.Jminus, w), -rep.Jminus, atol=1e-12)


def test_antipode_is_antimultiplicative():
    rep = build_sl2(halfint(1))
    w = antipode_realization(rep.j)
    x, y = rep.Jplus, rep.J3
    assert np.allclose(apply_antipode(x @ y, w), apply_antipode(y, w) @ apply_antipode(x, w))


def test_quadratic_antipode_checks_pass():
    rep = build_sl2(halfint("1/2"))
    report = hopf_axiom_checks(rep, partial(quadratic_transfer, 0.2))
    assert report.all_passed
    names = [c.name for c in report.checks]
    assert "S(J+') realization vs formula" in names and "antipode axiom m(id x S)Delta(J+') = 0" in names


def test_triple_coassociativity():
    assert triple_coassociativity_residual("1/2", [Fraction(1), Fraction(-1, 10)]) < 1e-10


@pytest.mark.parametrize("j", ["1", "3/2"])
def test_triple_coassociativity_with_repeated_labels(j):
    # V^(x)3 holds each J below the top one more than once
    alpha = alpha_from_beta([Fraction(1), Fraction(-1, 100)])
    assert triple_coassociativity_residual(j, alpha) < 1e-10


def test_triple_coassociativity_rejects_inadmissible_component():
    # the J = 9/2 component of (3/2)^(x)3 needs beta >= -1/81
    with pytest.raises(InadmissibleProductError) as exc:
        triple_coassociativity_residual("3/2", alpha_from_beta([Fraction(1), Fraction(-1, 40)]))
    assert exc.value.c == Fraction(99, 4)


def test_primitive_coproduct_forms_no_dense_matrix():
    import tracemalloc

    r1, r2 = build_sl2(20), build_sl2(20)
    tracemalloc.start()
    try:
        pr = primitive_coproduct(r1, r2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one dense 1681 x 1681 float64 matrix alone takes 22.6 MB
    assert pr.dim == 1681 and peak < 8 * 2**20


def test_deformed_coproduct_leaves_dense_views_unbuilt():
    pr = primitive_coproduct(build_sl2(3), build_sl2("5/2"))
    djp, djm, dj3 = deformed_coproduct(pr, [Fraction(1), Fraction(1, 10), Fraction(1, 100)])
    assert dj3 is pr.DJ3
    assert not {"DJp", "DJm", "DC"} & set(vars(pr))


def test_dense_views_are_contiguous_copies_of_the_blocks():
    pr = primitive_coproduct(build_sl2(2), build_sl2("3/2"))
    steps = [s.copy() for s in pr.steps]
    cas = [b.C.copy() for b in pr.blocks]
    for name in ("DJ3", "DJp", "DJm", "DC"):
        view = getattr(pr, name)
        assert view.flags.c_contiguous and view.flags.writeable
        view[...] = 7.0
    assert all(np.array_equal(s, t) for s, t in zip(pr.steps, steps))
    assert all(np.array_equal(b.C, c) for b, c in zip(pr.blocks, cas))
    assert not any(s.flags.writeable for s in pr.steps)
    assert not any(b.C.flags.writeable for b in pr.blocks)


def test_quadratic_coproduct_with_negative_alpha_leaves_the_top_label_unread():
    # at J = M = 1 the ladder factor (2a/3)(2M+1) + s_J is negative for a = -0.28,
    # but Delta(J+) annihilates that state, so the transfer is never taken there
    rep = build_sl2(halfint("1/2"))
    pr = primitive_coproduct(rep, rep)
    a = -0.28
    dj3, djp, djm = quadratic_coproduct(pr, a)
    n3, n_p = np.linalg.norm(dj3), np.linalg.norm(djp)
    assert np.linalg.norm(dj3 @ djp - djp @ dj3 - djp) <= gate(pr.dim, n3 * n_p)
    rhs = 2 * dj3 + 4 * a * dj3 @ dj3
    assert np.linalg.norm(djp @ djm - djm @ djp - rhs) <= gate(pr.dim, max(n_p * n_p, np.linalg.norm(rhs)))
    assert hopf_axiom_checks(rep, partial(quadratic_transfer, a)).all_passed


def _coupled_reading(pr, djp, dj3, irrep):
    """(residual, scale) of V_{M+1}^T step_M V_M and V_M^T J3'_M V_M against irrep(J) in each J block.

    Entries diagonal in J must equal the irrep ladder at J up to the arbitrary eigenvector sign,
    those off it 0; the J3' block must be diag(J3' of irrep(J) at M)."""
    irreps = {t: irrep(HalfInt(t)) for t in set(pr.spins)}
    sq_res = sq_scale = 0.0
    for lo, hi in zip(pr.blocks, pr.blocks[1:]):
        got = np.abs(hi.V.T @ djp[np.ix_(hi.indices, lo.indices)] @ lo.V)
        want = np.zeros_like(got)
        for c, t in enumerate(lo.two_js):
            if t > lo.two_m:  # J+ of irrep t from m = M, at its superdiagonal index J - 1 - M
                want[hi.two_js.index(t), c] = irreps[t].ladder[1][(t - 2 - lo.two_m) // 2]
        sq_res += np.sum((got - want) ** 2)
        sq_scale += np.sum(want ** 2)
    for b in pr.blocks:
        got = b.V.T @ dj3[np.ix_(b.indices, b.indices)] @ b.V
        want = np.diag([irreps[t].ladder[0][(t - b.two_m) // 2] for t in b.two_js])
        sq_res += np.sum((got - want) ** 2)
        sq_scale += np.sum(want ** 2)
    return math.sqrt(sq_res), math.sqrt(sq_scale)


def _coupled_cases():
    alpha = [Fraction(1), Fraction(1, 10), Fraction(1, 100)]

    def poly(pr):
        djp, _, dj3 = deformed_coproduct(pr, alpha)
        return djp, dj3, lambda j: build_deformed(StructureSpec(Polynomial(alpha), j))

    def quad(share):
        def case(pr):  # alpha a share of the radicand bound 3/(16 c) at the top label
            top = max(pr.spins)
            a = share * math.sqrt(3 / (4 * top * (top + 2))) if top else share
            dj3, djp, _ = quadratic_coproduct(pr, a)
            return djp, dj3, lambda j: build_quadratic_explicit(build_sl2(j), a)
        return case

    return [("polynomial", poly), ("quadratic", quad(0.6)), ("quadratic_negative", quad(-0.6))]


@pytest.mark.parametrize("name,case", _coupled_cases(), ids=[n for n, _ in _coupled_cases()])
@pytest.mark.parametrize("j1,j2", [("1/2", "1/2"), ("1", "1"), ("3", "5/2"), ("7/2", "1"), ("5", "5")])
def test_coupled_basis_reads_the_family_irrep_in_each_j_block(name, case, j1, j2):
    r1, r2 = build_sl2(halfint(j1)), build_sl2(halfint(j2))
    pr = primitive_coproduct(r1, r2)
    djp, dj3, irrep = case(pr)
    resid, scale = _coupled_reading(pr, djp, dj3, irrep)
    assert resid <= gate(pr.dim, scale), (resid, gate(pr.dim, scale))
    # control: one tensor factor's ladder entry off by 1e-9 relative
    w, u = r1.ladder
    u = u.copy()
    u[len(u) // 2] *= 1 + 1e-9
    bad = primitive_coproduct(MatrixRep(r1.dim, r1.two_j, 0.0, "sl2", ladder=(w, u)), r2)
    djp, dj3, _ = case(bad)
    resid, scale = _coupled_reading(bad, djp, dj3, irrep)
    assert resid > gate(bad.dim, scale)


def _einsum_with_antipode(x, d, w, side):
    """m(id x S)X (side 'right') or m(S x id)X (side 'left') on V (x) V, S(B) = (W B W^T)^T, as one einsum.

    X = sum A_i (x) B_i goes to sum A_i S(B_i) or sum S(A_i) B_i, computed on the elementary tensors."""
    t = x.reshape(d, d, d, d)
    if side == "right":
        return np.einsum("ck,akbl,bl->ac", w, t, w)
    return np.einsum("pb,ca,acbe->pe", w, w, t)


def test_einsum_with_antipode_on_elementary_tensor():
    rep = build_sl2(halfint("1/2"))
    w = antipode_realization(rep.j)
    a, b = rep.Jplus, rep.J3
    x = np.kron(a, b)
    assert np.allclose(_einsum_with_antipode(x, 2, w, "right"), a @ apply_antipode(b, w), atol=1e-12)
    assert np.allclose(_einsum_with_antipode(x, 2, w, "left"), apply_antipode(a, w) @ b, atol=1e-12)


def _families():
    alpha = [Fraction(1), Fraction(1, 10), Fraction(1, 100)]
    return {
        "sl2": None,
        "polynomial": partial(polynomial_transfer, alpha),
        "quadratic": partial(quadratic_transfer, 0.05),
        "quadratic_negative": partial(quadratic_transfer, -0.05),
    }


@pytest.mark.parametrize("family", list(_families()))
@pytest.mark.parametrize("j", ["0", "1/2", "1", "7/2"])
def test_hopf_axiom_checks_pass_for_each_family(family, j):
    rep = build_sl2(halfint(j))
    report = hopf_axiom_checks(rep, _families()[family])
    assert report.all_passed and len(report.checks) == 15
    assert all(c.kind == "numeric" and c.residual <= c.bound for c in report.checks)


@pytest.mark.parametrize("noisy", [False, True], ids=["honest", "noisy"])
@pytest.mark.parametrize("j", ["1/2", "1", "7/2"])
@pytest.mark.parametrize("family", list(_families()))
def test_antipode_axiom_residuals_equal_the_einsum_form(monkeypatch, family, j, noisy):
    # the block residuals ||Delta'(X') vec(W)|| against the einsum on the dense Delta'(X'); with noise added to
    # every step and Delta'(J3') block the checks FAIL, and the two still agree
    rep = build_sl2(halfint(j))
    real, seen = hopf.transferred_coproduct, []

    def spy(pr, t, order="source"):
        cop = real(pr, t, order)
        if min(pr.d1, pr.d2) == 1:
            return cop
        if noisy:
            rng = np.random.default_rng(7)
            cop = Coproduct(pr, [s + rng.standard_normal(s.shape) for s in cop.steps],
                            [rng.standard_normal((len(b.indices),) * 2) for b in pr.blocks])
        seen.append(cop)
        return cop

    monkeypatch.setattr(hopf, "transferred_coproduct", spy)
    report = hopf_axiom_checks(rep, _families()[family])
    (cop,) = seen
    d, w = rep.dim, antipode_realization(rep.j)
    djp, djm, dj3 = hopf._dense(cop)
    got = {c.name: c for c in report.checks}
    for name, x in (("J3'", dj3), ("J+'", djp), ("J-'", djm)):
        scale = np.linalg.norm(x)
        for side, axiom in (("right", "m(id x S)"), ("left", "m(S x id)")):
            check = got[f"antipode axiom {axiom}Delta({name}) = 0"]
            want = np.linalg.norm(_einsum_with_antipode(x, d, w, side))
            assert abs(check.residual - want) <= 1e-14 * scale, (check.name, check.residual, want)
            assert check.bound == pytest.approx(gate(d * d, scale), rel=1e-14)
            assert noisy != check.passed


def test_transferred_irrep_is_the_family_irrep():
    # the checks read V(5/2) through the map built at the top 2J = 10 of V (x) V, the builders at 2J = 5
    rep = build_sl2(halfint("5/2"))
    alpha = [Fraction(1), Fraction(1, 10), Fraction(1, 100)]
    got = _transferred_irrep(rep.j, polynomial_transfer(alpha, 2 * rep.two_j))
    assert all(np.array_equal(x, y) for x, y in zip(got.ladder, deformed_from_undeformed(rep, alpha).ladder))
    got = _transferred_irrep(rep.j, quadratic_transfer(-0.05, 2 * rep.two_j))
    assert all(np.array_equal(x, y) for x, y in zip(got.ladder, build_quadratic_explicit(rep, -0.05).ladder))


@pytest.mark.parametrize("family,c,m", [
    (partial(polynomial_transfer, [Fraction(1), Fraction(-1, 5)]), Fraction(6), Fraction(-2)),
    (partial(quadratic_transfer, -0.3), Fraction(6), None),
])
def test_hopf_axiom_checks_build_the_map_for_the_labels_of_v_x_v(family, c, m):
    # both maps are admissible on the irrep V(1), not at J = 2 of V(1) (x) V(1): the checks build the map at
    # top = 2 * 2j themselves, so the label is named instead of reading past a table or a square root
    rep = build_sl2(1)
    assert _transferred_irrep(rep.j, family(rep.two_j)).dim == 3
    with pytest.raises(InadmissibleProductError) as exc:
        hopf_axiom_checks(rep, family)
    assert (exc.value.c, exc.value.m) == (c, m)


def _failed(report):
    return {c.name for c in report.checks if not c.passed}


ANTIPODE = [f"antipode axiom m({s})Delta({x}) = 0" for x in ("J3'", "J+'", "J-'") for s in ("id x S", "S x id")]


@pytest.mark.parametrize("family", list(_families()))
def test_antipode_checks_fail_with_s_realized_without_signs(monkeypatch, family):
    rep = build_sl2(1)
    t = _families()[family]
    real = hopf._antipode_vectors
    monkeypatch.setattr(hopf, "_antipode_vectors", lambda w, indices: tuple(np.abs(real(w, indices))))
    report = hopf_axiom_checks(rep, t)
    ladders = {n for n in ANTIPODE if "J3'" not in n}  # Delta(J3) is 0 on the M = 0 block, whatever S
    assert ladders <= _failed(report) <= set(ANTIPODE)
    # off by 3.8 to 5.6 against gates near 1e-14
    assert min(c.residual for c in report.checks if c.name in ladders) > 2


@pytest.mark.parametrize("family", list(_families()))
@pytest.mark.parametrize("j", ["1", "7/2"])
def test_counit_check_fails_with_one_entry_off(monkeypatch, family, j):
    rep = build_sl2(halfint(j))
    t = _families()[family]
    real = hopf.transferred_coproduct

    def off(pr, t, order="source"):
        cop = real(pr, t, order)
        if pr.d2 != 1:
            return cop
        # V (x) V(0): one step entry of Delta(J+'), and so of Delta(J-'), off by 1e-9 relative
        steps = [s.copy() for s in cop.steps]
        k = max(range(len(steps)), key=lambda i: steps[i].max())
        steps[k][np.unravel_index(np.argmax(steps[k]), steps[k].shape)] *= 1 + 1e-9
        return Coproduct(pr, steps, cop.j3)

    monkeypatch.setattr(hopf, "transferred_coproduct", off)
    assert _failed(hopf_axiom_checks(rep, t)) == {"counit (id x eps)Delta(J+') = J+'",
                                                   "counit (id x eps)Delta(J-') = J-'"}


@pytest.mark.parametrize("family", list(_families()))
@pytest.mark.parametrize("j", ["1", "7/2"])
def test_s_formula_check_fails_with_one_ladder_entry_off(monkeypatch, family, j):
    rep = build_sl2(halfint(j))
    t = _families()[family]
    real = hopf._transferred_irrep

    def off(j, t):
        irrep = real(j, t)
        w, u = irrep.ladder
        u = u.copy()
        u[len(u) // 2] *= 1 + 1e-9
        return MatrixRep(irrep.dim, irrep.two_j, irrep.gamma, irrep.family, ladder=(w, u))

    monkeypatch.setattr(hopf, "_transferred_irrep", off)
    failed = _failed(hopf_axiom_checks(rep, t))
    assert {"S(J+') realization vs formula", "S(J-') realization vs formula"} <= failed
    assert "S(J3') realization vs formula" not in failed and not failed & set(ANTIPODE)


def test_triple_coassociativity_fails_with_one_step_entry_off(monkeypatch):
    alpha = [Fraction(1), Fraction(-1, 10)]
    rep = build_sl2(halfint("1/2"))
    left = primitive_coproduct(primitive_coproduct(rep, rep), rep)
    bound = gate(left.dim, float(np.linalg.norm(deformed_coproduct(left, alpha)[0])))
    assert triple_coassociativity_residual("1/2", alpha) <= bound
    real, calls = hopf.transferred_coproduct, []

    def off(pr, t, order="source"):
        cop = real(pr, t, order)
        if not calls:  # the first bracketing, (V (x) V) (x) V
            steps = [s.copy() for s in cop.steps]
            k = len(steps) // 2
            steps[k][np.unravel_index(np.argmax(steps[k]), steps[k].shape)] *= 1 + 1e-9
            cop = Coproduct(pr, steps, cop.j3)
        calls.append(pr)
        return cop

    monkeypatch.setattr(hopf, "transferred_coproduct", off)
    assert triple_coassociativity_residual("1/2", alpha) > bound and len(calls) == 2


@pytest.mark.parametrize("j", ["1/2", "1", "3/2", "2", "5/2"])
def test_triple_bracketings_share_the_weight_blocks(j):
    # the block-by-block comparison of triple_coassociativity_residual needs the same states in each block
    rep = build_sl2(halfint(j))
    left = primitive_coproduct(primitive_coproduct(rep, rep), rep)
    right = primitive_coproduct(rep, primitive_coproduct(rep, rep))
    assert len(left.blocks) == len(right.blocks)
    assert all(np.array_equal(a.indices, b.indices) for a, b in zip(left.blocks, right.blocks))
    assert triple_coassociativity_residual(j, alpha_from_beta([Fraction(1), Fraction(-1, 1000)])) < 1e-10


def test_hopf_axiom_checks_form_no_dense_product_matrix():
    import tracemalloc

    rep = build_sl2(40)
    tracemalloc.start()
    try:
        report = hopf_axiom_checks(rep, partial(polynomial_transfer, [Fraction(1), Fraction(1, 10), Fraction(1, 100)]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # V(40) (x) V(40) has dimension 6561: one dense matrix on it takes 344 MB
    assert report.all_passed and peak < 100 * 2**20


ALPHA = [Fraction(1), Fraction(1, 10), Fraction(1, 100)]


def _equal_product_coproduct(j, family):
    """V(j) (x) V(j) and its Coproduct: the polynomial map at ALPHA, or the quadratic one at half its radicand bound."""
    rep = build_sl2(halfint(j))
    pr = primitive_coproduct(rep, rep)
    top = max(pr.spins)
    t = (polynomial_transfer(ALPHA, top) if family == "polynomial"
         else quadratic_transfer(0.5 * math.sqrt(3 / (4 * top * (top + 2))), top))
    return rep, transferred_coproduct(pr, t)


@pytest.mark.parametrize("family", ["polynomial", "quadratic"])
@pytest.mark.parametrize("j", ["1/2", "1", "7/2", "11"])
def test_cocommutativity_residuals_equal_the_dense_check(family, j):
    rep, cop = _equal_product_coproduct(j, family)
    got, want = cocommutativity_residuals(cop), cocommutativity_check(hopf._dense(cop), rep.dim)
    assert all(abs(g - w) <= 1e-14 * w for g, w in zip(got, want)), (got, want)
    assert family != "polynomial" or got[2] == 0.0  # Delta(J3) = diag(M) is swap-invariant


@pytest.mark.parametrize("family", ["polynomial", "quadratic"])
@pytest.mark.parametrize("j", ["1", "7/2"])
def test_cocommutativity_residuals_fail_with_one_step_entry_off(family, j):
    # one step entry off by 1e-9 relative, in a row whose state a (x) b has a != b, so its swap partner is
    # another entry, left as it is: both forms read the same nonzero residual, far above the gate
    rep, cop = _equal_product_coproduct(j, family)
    d, steps = rep.dim, [s.copy() for s in cop.steps]
    k = len(steps) // 2
    rows = cop.pr.blocks[k + 1].indices
    s = steps[k]
    r, c = max(((r, c) for r in range(s.shape[0]) for c in range(s.shape[1]) if rows[r] % d != rows[r] // d),
               key=lambda rc: abs(s[rc]))
    s[r, c] *= 1 + 1e-9
    bad = Coproduct(cop.pr, steps, cop.j3)
    got, want = cocommutativity_residuals(bad), cocommutativity_check(hopf._dense(bad), d)
    assert all(abs(g - w) <= 1e-14 * w for g, w in zip(got, want)), (got, want)
    scale = max(float(np.linalg.norm(x)) for x in hopf._dense(bad))
    assert got[0] == got[1] > 1e3 * gate(cop.pr.dim, scale)


def _former_cocommutativity_residuals(cop):
    """The residuals with the swap read as a permutation p_k of each block's states, by np.searchsorted."""
    pr, d = cop.pr, cop.pr.d1
    p = [np.searchsorted(b.indices, b.indices % d * d + b.indices // d) for b in pr.blocks]
    plus = hopf._norm(s[p[k + 1]][:, p[k]] - s for k, s in enumerate(cop.steps))
    return [plus, plus, 0.0 if cop.j3 is None else hopf._norm(x[p[k]][:, p[k]] - x for k, x in enumerate(cop.j3))]


@pytest.mark.parametrize("family,j", [("polynomial", "0")] + [(f, j) for f in ("polynomial", "quadratic")
                                                              for j in ("1/2", "7/2", "11")])
def test_cocommutativity_by_reversal_bitwise_equals_the_permutation(family, j):
    rep, cop = _equal_product_coproduct(j, family)
    got = cocommutativity_residuals(cop)
    assert got == _former_cocommutativity_residuals(cop)
    if not cop.steps:
        return
    # one step entry off by 1e-9 relative, away from the block's centre, so its swap partner is another entry
    steps = [s.copy() for s in cop.steps]
    k = len(steps) // 2
    s = steps[k]
    r, c = max(((r, c) for r in range(s.shape[0]) for c in range(s.shape[1]) if (2 * r + 1, 2 * c + 1) != s.shape),
               key=lambda rc: abs(s[rc]))
    s[r, c] *= 1 + 1e-9
    bad = Coproduct(cop.pr, steps, cop.j3)
    noisy = cocommutativity_residuals(bad)
    assert noisy == _former_cocommutativity_residuals(bad)
    scale = max(hopf._norm(steps), float(np.linalg.norm(cop.pr.two_m / 2.0)))
    assert noisy[0] > gate(cop.pr.dim, scale) >= got[0]


def test_cocommutativity_residuals_require_equal_factors():
    pr = primitive_coproduct(build_sl2("1/2"), build_sl2(1))
    with pytest.raises(ValueError):
        cocommutativity_residuals(transferred_coproduct(pr, polynomial_transfer(ALPHA, max(pr.spins))))
    # equal dimensions, but a reducible factor: its blocks are not reversed by the swap
    pr = primitive_coproduct(primitive_coproduct(build_sl2("1/2"), build_sl2("1/2")), build_sl2("3/2"))
    assert pr.d1 == pr.d2
    with pytest.raises(ValueError):
        cocommutativity_residuals(transferred_coproduct(pr, polynomial_transfer(ALPHA, max(pr.spins))))


def test_product_layer_builds_no_coupled_block(monkeypatch, capsys):
    def refuse(pr):
        raise AssertionError("a CoupledBlock was built")

    monkeypatch.setattr(hopf.ProductRep, "blocks", property(refuse))
    code = cli.run(["hopf", "--j1", "11", "--j2", "11", "--alpha=1/1,1/10,1/100", "--quadratic-alpha", "0.01"])
    assert code == cli.EXIT_OK and "35/35 checks passed" in capsys.readouterr().out
    pr = primitive_coproduct(build_sl2(3), build_sl2("5/2"))
    deformed_coproduct(pr, ALPHA)
    quadratic_coproduct(pr, 0.01)
    assert pr.DC.shape == (pr.dim, pr.dim)
    assert triple_coassociativity_residual(1, ALPHA) < 1e-12


def _first_bad_label(pr, h):
    """(c, m) of the first label with M < J, block by block in ascending M and ascending J, where the scalar h < 0."""
    for b in pr.blocks:
        for t in b.two_js:
            if t != b.two_m and h(t, b.two_m) < 0:
                return HalfInt(t).mm1(), Fraction(b.two_m, 2)
    return None


def _exact_divided_difference(alpha):
    def h(two_j, two_m):
        c, x = Fraction(two_j * (two_j + 2), 4), Fraction(two_m * (two_m + 2), 4)
        return (phi_eval(alpha, c) - phi_eval(alpha, x)) / (c - x)
    return h


@pytest.mark.parametrize("beta,j1,j2", [
    ([Fraction(1), Fraction(-1, 10)], "1", "1"),
    ([Fraction(1), Fraction(-1, 10)], "3", "5/2"),
    ([Fraction(1), Fraction(-1, 40)], "7/2", "3"),
    ([Fraction(1), Fraction(0), Fraction(-1, 50)], "5/2", "2"),
])
def test_batched_polynomial_transfer_names_the_first_bad_label(beta, j1, j2):
    # one factor call over all labels names the label the per-label reading, in ascending M, then J, met first
    alpha = alpha_from_beta(beta)
    pr = primitive_coproduct(build_sl2(halfint(j1)), build_sl2(halfint(j2)))
    want = _first_bad_label(pr, _exact_divided_difference(alpha))
    assert want is not None
    with pytest.raises(InadmissibleProductError) as exc:
        transferred_coproduct(pr, polynomial_transfer(alpha, max(pr.spins)))
    assert (exc.value.c, exc.value.m) == want
    assert isinstance(exc.value.c, Fraction) and isinstance(exc.value.m, Fraction)


def test_batched_quadratic_transfer_names_the_first_bad_label():
    # a = -0.17 on 1 (x) 1: the ladder factor 2a(2M+1)/3 + s_J is negative at J = 2, M = 1 only, inside the
    # radicand bound |a| <= 0.177 at J = 2; a = 0.2 is past it, and the top label is named with no M
    pr = primitive_coproduct(build_sl2(1), build_sl2(1))
    a = -0.17

    def h(two_j, two_m):
        return quadratic_ladder_factor(a, math.sqrt(quadratic_radicand(a, two_j * (two_j + 2) / 4)), two_m / 2) + 1e-12

    assert _first_bad_label(pr, h) == (Fraction(6), Fraction(1))
    for alpha, want in ((a, (Fraction(6), Fraction(1))), (0.2, (Fraction(6), None))):
        with pytest.raises(InadmissibleProductError) as exc:
            quadratic_coproduct(pr, alpha)
        assert (exc.value.c, exc.value.m) == want


@pytest.mark.parametrize("family", list(_families()))
@pytest.mark.parametrize("j", ["0", "1/2", "7/2"])
def test_hopf_axiom_checks_on_a_shared_coproduct_are_bitwise_their_own(family, j):
    rep = build_sl2(halfint(j))
    t = (_families()[family] or partial(polynomial_transfer, [1]))(2 * rep.two_j)
    cop = transferred_coproduct(primitive_coproduct(rep, rep), t)
    own = hopf_axiom_checks(rep, _families()[family])
    shared = hopf_axiom_checks(rep, _families()[family], cop=cop)

    def bits(report):
        return [(c.name, float(c.residual).hex(), float(c.bound).hex(), c.passed) for c in report.checks]

    assert bits(own) == bits(shared) and len(own.checks) == 15


@pytest.mark.parametrize("j", ["5/2", "5"])
def test_triple_coassociativity_reads_zero(j):
    # both bracketings give the same weight blocks, and the same values in them
    assert triple_coassociativity_residual(j, ALPHA) == 0.0
