from fractions import Fraction

import math
from dataclasses import replace
from functools import partial
from typing import NamedTuple

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
)
from nlsl2 import hopf
from nlsl2.repbuilder import (MatrixRep, _transferred_irrep, build_deformed, build_quadratic_explicit, build_sl2,
                              build_uq, deformed_from_undeformed, inverse_map_uq)
from nlsl2.structure import (HiggsShifted, Polynomial, StructureSpec, divided_difference, polynomial_transfer,
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


def _relative(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class _Block(NamedTuple):
    """The Delta(J3) = M block of a product space in its coupled basis."""

    two_m: int
    indices: np.ndarray  # product-basis states with this M, ascending
    w: np.ndarray  # numeric eigenvalues of the Delta(C) block, ascending
    V: np.ndarray  # the matching eigenvectors, as columns
    two_js: tuple  # exact label 2J of each column, ascending


def _blocks(pr):
    """Each M block of pr, read from pr.order, pr.sizes and pr._views(pr.vecs)."""
    n_m = pr.sizes.tolist()
    cuts = np.cumsum(n_m)[:-1]
    return [_Block(int(m), i, w, v, pr.spins[len(pr.spins) - n:]) for m, i, w, v, n in
            zip(pr.block_m, np.split(pr.order, cuts), np.split(pr.w, cuts), pr._views(pr.vecs, n_m), n_m)]


def _steps(pr):
    """The step S_k of the Kronecker sum np.kron(J+, 1) + np.kron(1, J+) from block k to block k+1."""
    d1, d2 = pr.d1, pr.d2
    djp = np.kron(build_sl2(HalfInt(d1 - 1)).Jplus, np.eye(d2)) + np.kron(np.eye(d1), build_sl2(HalfInt(d2 - 1)).Jplus)
    bs = _blocks(pr)
    return [djp[np.ix_(hi.indices, lo.indices)] for lo, hi in zip(bs, bs[1:])]


def _casimir_blocks(pr):
    """S_k^T S_k + M(M+1) I of each block k from the Kronecker-sum steps (M(M+1) I alone on the top block)."""
    steps = _steps(pr)
    out = []
    for k, b in enumerate(_blocks(pr)):
        s = steps[k] if k < len(steps) else np.zeros((0, len(b.indices)))
        c = s.T @ s
        c.flat[::len(b.indices) + 1] += b.two_m * (b.two_m + 2) / 4
        out.append(c)
    return out


def _joint_calculus(pr, g):
    """The dense V diag(g(c, m)) V^T of every M block, g at the exact Fractions c = J(J+1) and m = M."""
    out = np.zeros((pr.dim, pr.dim))
    for b in _blocks(pr):
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
    return [(build_sl2(halfint(j1)), build_sl2(halfint(j2))) for j1, j2 in pairs]


def _products():
    return [primitive_coproduct(*pair) for pair in _factor_pairs()]


def test_eigh_reads_the_nonnegative_m_blocks_and_mirrors_the_rest(monkeypatch):
    received, eigh = [], np.linalg.eigh

    def counting(a):
        received.append(len(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    for pair in _factor_pairs():
        hopf._kept.clear()  # a kept product would be returned without a build
        received.clear()
        pr = primitive_coproduct(*pair)
        blocks, steps, cas = _blocks(pr), _steps(pr), _casimir_blocks(pr)
        last = len(blocks) - 1
        assert sum(received) == sum(b.two_m >= 0 for b in blocks)
        for k, b in enumerate(blocks):
            mirror = blocks[last - k]
            # the reflection (m1, m2) -> (-m1, -m2) maps block k onto block last - k, positions reversed; the
            # M = 0 block is its own mirror, formed directly
            assert mirror.two_m == -b.two_m
            if k < last:
                assert _same_bits(steps[last - 1 - k], steps[k].T[::-1, ::-1])
            if b.two_m >= 0:
                w, vecs = eigh(cas[k])
                assert _same_bits(b.w, w) and _same_bits(b.V, vecs)
            else:
                assert _same_bits(b.w, mirror.w) and _same_bits(b.V, mirror.V[::-1])
            n, top = len(b.w), max(b.w)
            assert np.linalg.norm(cas[k] @ b.V - b.V * b.w) <= 1e-13 * top
            assert np.linalg.norm(b.V.T @ b.V - np.eye(n)) <= 1e-13
            assert b.two_js == tuple(s for s in pr.spins if s >= abs(b.two_m))


def _same_product(x, y):
    """Every field of two ProductReps bitwise equal."""
    lists = [(x.ladders, y.ladders), (x.vecs, y.vecs), (x.lift, y.lift)]
    return (x.d1, x.d2, x.spins, x.where) == (y.d1, y.d2, y.spins, y.where) and all(
        _same_bits(getattr(x, f), getattr(y, f)) for f in ("two_m", "block_m", "order", "sizes", "rank", "w", "slot")) \
        and all(len(a) == len(b) and all(map(_same_bits, a, b)) for a, b in lists)


def test_a_kept_product_is_bitwise_a_cold_build_with_its_own_dense_views(monkeypatch):
    monkeypatch.setattr(hopf, "_kept", {})
    for pair in _factor_pairs():
        cold = primitive_coproduct(*pair)
        again = primitive_coproduct(*pair)
        assert _same_product(again, cold) and again is not cold
        assert all(getattr(again, f) is getattr(cold, f) for f in ("vecs", "lift", "two_m", "ladders", "at"))
        assert again.DJp.flags.writeable and np.array_equal(again.DJp, cold.DJp)
        again.DJp[...] = 7.0  # the dense views are the caller's own
        assert _same_product(primitive_coproduct(*pair), cold) and not np.array_equal(cold.DJp, again.DJp)
    for pr in hopf._kept.values():  # a kept product holds no dense view
        assert not {"DJ3", "DJp", "DJm", "DC"} & set(vars(pr))


def test_a_kept_product_holds_its_coupled_basis_and_lifted_steps_only():
    # the eigenvectors, the steps lifted onto them, the labels and the factors' ladders: no step or Casimir stack
    fields = ("d1", "d2", "ladders", "two_m", "spins", "block_m", "order", "sizes", "rank", "w", "vecs", "lift",
              "where", "slot", "at")
    for pr in _products():
        assert tuple(vars(pr)) == fields
        assert [(len(x), x.shape[2]) for x in pr.lift] == [(len(v), v.shape[2]) for v in pr.vecs]


def test_lift_is_the_kronecker_sum_steps_times_the_eigenvectors():
    # S_k V_k holds at most two products a row: the stacked matmul over zero padding rounds it within 2 eps
    for pr in _products():
        blocks, n_m = _blocks(pr), pr.sizes.tolist()
        for s, lo, got in zip(_steps(pr), blocks, pr._views(pr.lift, n_m[1:])):
            assert np.abs(got - s @ lo.V).max() <= 2 * EPS * np.abs(s).max()


def test_the_most_recently_used_products_are_kept(monkeypatch):
    reps = [build_sl2(j) for j in range(4)]
    monkeypatch.setattr(hopf, "_kept", {})
    monkeypatch.setattr(hopf, "_KEPT", 2)

    def kept():
        return [(pr.d1 - 1) // 2 for pr in hopf._kept.values()]  # j of each kept V (x) V, least recently used first

    for j in (0, 1, 2):
        primitive_coproduct(reps[j], reps[j])
    assert kept() == [1, 2]
    first = primitive_coproduct(reps[1], reps[1])  # a hit: now the most recently used
    assert kept() == [2, 1]
    primitive_coproduct(reps[3], reps[3])  # V(2) (x) V(2) goes
    assert kept() == [1, 3] and primitive_coproduct(reps[1], reps[1]).vecs is first.vecs
    again = primitive_coproduct(reps[2], reps[2])  # built anew, equal bit for bit
    assert kept() == [1, 2] and _same_product(again, primitive_coproduct(reps[2], reps[2]))


def test_a_factor_of_another_family_with_an_sl2_ladder_is_still_refused():
    rep = build_sl2(2)
    primitive_coproduct(rep, rep)
    other = MatrixRep(rep.dim, rep.two_j, 0.0, "polynomial", ladder=rep.ladder)
    with pytest.raises(ValueError, match="sl2 irreps"):
        primitive_coproduct(other, rep)


def _former_dense(pr, parts):
    """Per-block np.ix_ assembly of blocks placed at (rows x cols)."""
    out = np.zeros((pr.dim, pr.dim))
    for rows, cols, block in parts:
        out[np.ix_(rows, cols)] = block
    return out


def _lift_residual(pr):
    """max over M of ||V_(M+1)^T S_M V_M - D_M||_F, D_M its entries that take a label J to the same J."""
    blocks, out = _blocks(pr), 0.0
    for lo, hi, s in zip(blocks, blocks[1:], _steps(pr)):
        e = hi.V.T @ s @ lo.V
        for c, t in enumerate(lo.two_js):
            if t in hi.two_js:
                e[hi.two_js.index(t), c] = 0.0
        out = max(out, float(np.linalg.norm(e)))
    return out


def _former_raise(pr, g, order):
    """(Delta'(J+), Delta'(J-), slack) by the former per-block assembly, S_M F_M or F_(M+1) S_M on the Kronecker-sum
    steps. F_(M+1) S_M equals S_M V_M diag(g(J, M+1)) V_M^T up to V_(M+1)^T S_M V_M being diagonal in J: the
    difference is V_(M+1) (diag(g) E - E diag(g)) V_M^T, E its part off that diagonal, so slack, 2 max|g| max ||E||,
    bounds its entries; 0 for order='source'."""
    blocks = _blocks(pr)
    vals = [np.array([g(t, b.two_m) for t in b.two_js], dtype=float) for b in blocks]
    factors = [(b.V * v) @ b.V.T for b, v in zip(blocks, vals)]
    parts = [(hi.indices, lo.indices, s @ factors[k] if order == "source" else factors[k + 1] @ s)
             for k, (lo, hi, s) in enumerate(zip(blocks, blocks[1:], _steps(pr)))]
    djp = _former_dense(pr, parts)
    top = max(np.abs(np.concatenate(vals)).max(), 0.0)
    return djp, djp.T.copy(), 0.0 if order == "source" else 2 * top * _lift_residual(pr)


def _assert_transpose_pair(djp, djm):
    assert djm.flags.c_contiguous and djm.flags.writeable
    assert np.array_equal(djm, djp.T) and not np.shares_memory(djm, djp)


def _assert_near(got, want, slack=0.0):
    """got within 4 eps of the largest entry of want, entrywise, and slack: a stacked matmul over zero-padded blocks
    may round differently from the same matmul block by block."""
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0) <= 4 * EPS * np.abs(want).max(initial=0) + slack


@pytest.mark.parametrize("order", ["source", "target"])
def test_deformed_coproduct_matches_former_assembly(order):
    alpha = [Fraction(1), Fraction(1, 10), Fraction(1, 100)]
    for pr in _products():
        dd = divided_difference(alpha, max(pr.spins))
        want_p, want_m, slack = _former_raise(pr, lambda t, m: 0.0 if t == m else math.sqrt(dd(t, m)), order)
        djp, djm, dj3 = deformed_coproduct(pr, alpha, order=order)
        _assert_near(djp, want_p, slack)
        _assert_near(djm, want_m, slack)
        assert dj3 is pr.DJ3
        _assert_transpose_pair(djp, djm)


def test_quadratic_coproduct_matches_former_assembly():
    for pr in _products():
        cmax = max(pr.spins) * (max(pr.spins) + 2) / 4
        a = 0.6 * math.sqrt(3 / (16 * cmax)) if cmax else 0.3
        roots = {t: math.sqrt(max(quadratic_radicand(a, t * (t + 2) / 4), 0.0)) for t in pr.spins}

        def ladder(t, m):
            return 0.0 if t == m else math.sqrt(max(quadratic_ladder_factor(a, roots[t], m / 2), 0.0))

        want_p, want_m, _ = _former_raise(pr, ladder, "source")
        parts = [(b.indices, b.indices, (b.V * np.array([roots[t] for t in b.two_js])) @ b.V.T) for b in _blocks(pr)]
        want_3 = pr.DJ3 - (1 / (4 * a)) * np.eye(pr.dim) + (1 / (4 * a)) * _former_dense(pr, parts)
        dj3, djp, djm = quadratic_coproduct(pr, a)
        # Delta(J3') is now diag(M) + V diag(gamma) V^T, which rounds differently
        assert np.abs(dj3 - want_3).max() <= gate(pr.dim, np.linalg.norm(want_3))
        _assert_near(djp, want_p)
        _assert_near(djm, want_m)
        _assert_transpose_pair(djp, djm)


def _former_transferred(pr, t, order):
    """The former dense assembly of a transferred coproduct: the step products scattered into zeros and, for a
    shifted family, V diag(s) V^T scattered into zeros with diag(M) added on the diagonal; and the slack of the
    steps (`_former_raise`)."""
    djp, djm, slack = _former_raise(pr, lambda tt, m: 0.0 if tt == m else math.sqrt(t.factor(tt, m)), order)
    if t.shift is None:
        return (djp, djm, pr.DJ3), slack
    parts = [(b.indices, b.indices, (b.V * np.array([t.shift(tt) for tt in b.two_js])) @ b.V.T) for b in _blocks(pr)]
    dj3 = _former_dense(pr, parts)
    dj3.flat[::pr.dim + 1] += pr.two_m / 2.0
    return (djp, djm, dj3), slack


@pytest.mark.parametrize("order", ["source", "target"])
def test_coproduct_dense_matches_former_assembly(order):
    alpha = [Fraction(1), Fraction(1, 10), Fraction(1, 100)]
    for pr in _products():
        cmax = max(pr.spins) * (max(pr.spins) + 2) / 4
        a = 0.6 * math.sqrt(3 / (16 * cmax)) if cmax else 0.3
        for t in (polynomial_transfer(alpha, max(pr.spins)), quadratic_transfer(a, max(pr.spins))):
            cop = transferred_coproduct(pr, t, order)
            assert (cop.j3 is None) == (t.shift is None)
            got, (want, slack) = hopf._dense(cop), _former_transferred(pr, t, order)
            for x, y in zip(got, want):
                _assert_near(x, y, slack)
            assert t.shift is not None or got[2] is pr.DJ3
            _assert_transpose_pair(*got[:2])


def _stacks_of(pr):
    """Each padded layout of pr and of its two transferred coproducts, with the rows of every block's view in it."""
    n_m = pr.sizes.tolist()
    cmax = max(pr.spins) * (max(pr.spins) + 2) / 4
    cops = [transferred_coproduct(pr, t) for t in (polynomial_transfer([Fraction(1), Fraction(1, 10)], max(pr.spins)),
                                                   quadratic_transfer(0.3 * math.sqrt(3 / (16 * cmax)) if cmax else 0.3,
                                                                      max(pr.spins)))]
    return [(pr.vecs, n_m), (pr.lift, n_m[1:]), *((c.stacks[0], n_m[1:]) for c in cops), (cops[1].stacks[1], n_m)]


def test_padding_slots_are_exactly_zero():
    for pr in _products():
        for stacks, rows in _stacks_of(pr):
            assert all(x.shape[2] % 8 == 0 for x in stacks)
            rest = [x.copy() for x in stacks]
            views = pr._views(rest, rows)
            assert [v.shape for v in views] == list(zip(rows, pr.sizes.tolist()))
            for view in views:
                view[...] = 0.0
            assert not any(x.any() for x in rest)


def test_stacks_are_read_only_and_shared_by_the_copies_of_a_kept_pair(monkeypatch):
    monkeypatch.setattr(hopf, "_kept", {})
    rep1, rep2 = build_sl2(20), build_sl2(20)
    first, again = primitive_coproduct(rep1, rep2), primitive_coproduct(rep1, rep2)
    assert again.vecs is first.vecs and again.lift is first.lift and again.at is first.at
    assert not any(x.flags.writeable for x in (*first.vecs, *first.lift))
    # one stack per size class, the size rounded up to a multiple of 8: at V(20) (x) V(20), sizes 1..41
    assert sorted(x.shape[1] for x in first.vecs) == [8, 16, 24, 32, 40, 48]
    assert [len(x) for x in first.vecs] == [16, 16, 16, 16, 16, 1]
    # the step from a block of 8 or fewer states to the next, of up to 9, takes 9 rows in the first stack
    assert [x.shape[1] for x in first.lift] == [9, 17, 25, 33, 41, 40]


def test_dense_positions_are_built_once_per_pair(monkeypatch):
    monkeypatch.setattr(hopf, "_kept", {})
    built, padded = [], hopf.ProductRep._at

    def counting(self, name):
        built.append(name not in self.at)
        return padded(self, name)

    monkeypatch.setattr(hopf.ProductRep, "_at", counting)
    rep1, rep2 = build_sl2(3), build_sl2("5/2")
    alpha = [Fraction(1), Fraction(1, 10), Fraction(1, 100)]
    pr = primitive_coproduct(rep1, rep2)
    assert pr.at == {} and not any(built)
    deformed_coproduct(pr, alpha)
    assert built == [True, False] and set(pr.at) == {"plus", "minus", "block"}
    at = dict(pr.at)
    for copy in (primitive_coproduct(rep1, rep2) for _ in range(3)):  # new ProductReps of the kept pair
        copy.DJp, copy.DJm, copy.DC, quadratic_coproduct(copy, 0.05)
        assert copy.at is pr.at and all(copy.at[k] is at[k] for k in at)
    assert built.count(True) == 1


def test_target_order_still_differs_from_source():
    alpha = [Fraction(1), Fraction(1, 10), Fraction(1, 100)]
    for pr in _products():
        if max(pr.sizes) < 2:  # 1 x 1 blocks: the factor is a number, and the two orders agree
            continue
        t = polynomial_transfer(alpha, max(pr.spins))
        source, target = (hopf._dense(transferred_coproduct(pr, t, order))[0] for order in ("source", "target"))
        assert np.abs(source - target).max() > 1e-3 * np.abs(source).max()
        assert transferred_coproduct(pr, t, "target").stacks is not None


def test_dense_views_equal_the_former_assembly():
    # the Kronecker-sum steps, and the Casimir identity on them, placed block by block
    for pr in _products():
        blocks = _blocks(pr)
        plus = [(hi.indices, lo.indices, s) for lo, hi, s in zip(blocks, blocks[1:], _steps(pr))]
        assert _same_bits(pr.DJp, _former_dense(pr, plus))
        assert _same_bits(pr.DJm, _former_dense(pr, [(c, r, s.T) for r, c, s in plus]))
        assert _same_bits(pr.DC, _former_dense(pr, [(b.indices, b.indices, c)
                                                    for b, c in zip(blocks, _casimir_blocks(pr))]))


def test_product_casimir_spectrum_oracle():
    assert product_casimir_spectrum("1/2", "1/2") == [0.0, 2.0, 2.0, 2.0]
    got = sorted(primitive_coproduct(build_sl2(1), build_sl2("3/2")).w)
    assert np.allclose(got, product_casimir_spectrum(1, "3/2"), atol=1e-10)


def test_label_calculus_reproduces_casimir():
    # V diag(J(J+1)) V^T is each block's Delta(C), V diag(1) V^T the identity; the labels run block by block
    for pr in _products():
        two_j, two_m = np.array(pr.spins, dtype=int)[pr.rank], pr.two_m[pr.order]
        blocks = _blocks(pr)
        assert np.array_equal(two_m, np.concatenate([[b.two_m] * len(b.indices) for b in blocks]))
        assert np.array_equal(two_j, np.concatenate([b.two_js for b in blocks]))
        n_m = pr.sizes.tolist()
        calc = partial(hopf._label_calculus, pr)
        for b, c, one in zip(blocks, pr._views(calc(pr.vecs, two_j * (two_j + 2) / 4.0), n_m),
                             pr._views(calc(pr.vecs, np.ones(pr.dim)), n_m)):
            assert np.allclose(c, pr.DC[np.ix_(b.indices, b.indices)], atol=1e-12)
            assert np.allclose(one, np.eye(len(b.indices)), atol=1e-12)
        for s, step in zip(pr._views(calc(pr.lift, np.ones(pr.dim)), n_m[1:]), _steps(pr), strict=True):
            assert np.allclose(s, step, atol=1e-12)  # S V V^T = S


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
    """Delta(J+) times the factor of exact Fraction labels (c, m) = (J(J+1), M), per (M -> M+1) block pair: S_M F_M
    or F_(M+1) S_M, the factor taken only on the blocks that order reads, in ascending M, then J; and the slack
    of `_former_raise`."""

    def g(c, m):
        x = m * (m + 1)
        if c == x:
            return 0.0
        dd = (phi_eval(alpha, c) - phi_eval(alpha, x)) / (c - x)
        if dd < 0:
            raise InadmissibleProductError("negative divided difference", c, m)
        return math.sqrt(dd)

    blocks, top = _blocks(pr), 0.0
    out = np.zeros((pr.dim, pr.dim))
    for lo, hi in zip(blocks, blocks[1:]):
        b = lo if order == "source" else hi
        vals = np.array([g(Fraction(t * (t + 2), 4), Fraction(b.two_m, 2)) for t in b.two_js], dtype=float)
        top = max(top, vals.max())
        rows, cols = np.ix_(hi.indices, lo.indices)
        step, factor = pr.DJp[rows, cols], (b.V * vals) @ b.V.T
        out[rows, cols] = step @ factor if order == "source" else factor @ step
    return out, 0.0 if order == "source" else 2 * top * _lift_residual(pr)


@pytest.mark.parametrize("order", ["source", "target"])
def test_deformed_coproduct_matches_fraction_labels(order):
    alpha = [Fraction(1), Fraction(1, 10), Fraction(1, 100)]
    pr = primitive_coproduct(build_sl2(halfint(3)), build_sl2(halfint("5/2")))
    djp, djm, dj3 = deformed_coproduct(pr, alpha, order=order)
    _assert_near(djp, *_fraction_label_coproduct(pr, alpha, order))
    assert np.array_equal(djm, djp.T) and dj3 is pr.DJ3
    # the 1 (x) 1, beta = -1/10 rejection names the same exact label as the reference: J = 2 at the first M the
    # order reads, the bottom block's M = -2 for 'source', M = -1 for 'target'
    pr = primitive_coproduct(build_sl2(1), build_sl2(1))
    bad = alpha_from_beta([Fraction(1), Fraction(-1, 10)])
    with pytest.raises(InadmissibleProductError) as want:
        _fraction_label_coproduct(pr, bad, order)
    with pytest.raises(InadmissibleProductError) as exc:
        deformed_coproduct(pr, bad, order=order)
    label = (Fraction(6), Fraction(-2) if order == "source" else Fraction(-1))
    assert (exc.value.c, exc.value.m) == (want.value.c, want.value.m) == label
    assert isinstance(exc.value.c, Fraction) and isinstance(exc.value.m, Fraction)


@pytest.mark.parametrize("j1,j2", [("3", "5/2"), ("7/2", "1")])
def test_deformed_coproduct_matches_coupled_basis_oracle(j1, j2):
    # DJ+^ DJ-^ acts on |J, M> as F_alpha(J, M-1), which is 0 at M = -J
    alpha = [Fraction(1), Fraction(1, 10), Fraction(1, 100)]
    pr = primitive_coproduct(build_sl2(halfint(j1)), build_sl2(halfint(j2)))
    djp, djm, _ = deformed_coproduct(pr, alpha)
    prod = djp @ djm

    def f(two_j, two_m):  # F_alpha(J, M) = phi(J(J+1)) - phi(M(M+1))
        return float(phi_eval(alpha, HalfInt(two_j).mm1()) - phi_eval(alpha, HalfInt(two_m).mm1()))

    top = f(max(pr.spins), -max(pr.spins))
    for b in _blocks(pr):
        got = np.linalg.eigvalsh(prod[np.ix_(b.indices, b.indices)])
        want = sorted(f(t, b.two_m - 2) if b.two_m > -t else 0.0 for t in b.two_js)
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
        for b in _blocks(pr):
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
    kept = [x.copy() for x in (*pr.ladders, *pr.vecs, *pr.lift)]
    for name in ("DJ3", "DJp", "DJm", "DC"):
        view = getattr(pr, name)
        assert view.flags.c_contiguous and view.flags.writeable
        view[...] = 7.0
    assert all(np.array_equal(x, y) for x, y in zip((*pr.ladders, *pr.vecs, *pr.lift), kept))
    arrays = [pr.two_m, pr.block_m, pr.order, pr.sizes, pr.rank, pr.w, pr.slot, *pr.ladders, *pr.vecs, *pr.lift]
    assert not any(x.flags.writeable for x in arrays)


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
    blocks = _blocks(pr)
    for lo, hi in zip(blocks, blocks[1:]):
        got = np.abs(hi.V.T @ djp[np.ix_(hi.indices, lo.indices)] @ lo.V)
        want = np.zeros_like(got)
        for c, t in enumerate(lo.two_js):
            if t > lo.two_m:  # J+ of irrep t from m = M, at its superdiagonal index J - 1 - M
                want[hi.two_js.index(t), c] = irreps[t].ladder[1][(t - 2 - lo.two_m) // 2]
        sq_res += np.sum((got - want) ** 2)
        sq_scale += np.sum(want ** 2)
    for b in blocks:
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
    assert not all(_same_bits(x, y) for x, y in zip(bad.lift, pr.lift))  # not the kept product of r1 (x) r2
    djp, dj3, _ = case(bad)
    resid, scale = _coupled_reading(bad, djp, dj3, irrep)
    assert resid > gate(bad.dim, scale)


def _copied(cop):
    """cop on copies of its stacks, so that its step and Delta'(J3') views may be edited."""
    return Coproduct(cop.pr, tuple(x and [y.copy() for y in x] for x in cop.stacks))


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
            cop = Coproduct(pr, ([x.copy() for x in cop.stacks[0]], [np.zeros(v.shape) for v in pr.vecs]))
            for s in cop.steps:
                s += rng.standard_normal(s.shape)
            for x in cop.j3:
                x[...] = rng.standard_normal(x.shape)
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
        cop = _copied(cop)
        steps = cop.steps
        k = max(range(len(steps)), key=lambda i: steps[i].max())
        steps[k][np.unravel_index(np.argmax(steps[k]), steps[k].shape)] *= 1 + 1e-9
        return cop

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
    bad = _copied(cop)
    d, steps = rep.dim, bad.steps
    k = len(steps) // 2
    rows = _blocks(cop.pr)[k + 1].indices
    s = steps[k]
    r, c = max(((r, c) for r in range(s.shape[0]) for c in range(s.shape[1]) if rows[r] % d != rows[r] // d),
               key=lambda rc: abs(s[rc]))
    s[r, c] *= 1 + 1e-9
    got, want = cocommutativity_residuals(bad), cocommutativity_check(hopf._dense(bad), d)
    assert all(abs(g - w) <= 1e-14 * w for g, w in zip(got, want)), (got, want)
    scale = max(float(np.linalg.norm(x)) for x in hopf._dense(bad))
    assert got[0] == got[1] > 1e3 * gate(cop.pr.dim, scale)


def _former_cocommutativity_residuals(cop):
    """The residuals with the swap read as a permutation p_k of each block's states, by np.searchsorted."""
    pr, d = cop.pr, cop.pr.d1
    p = [np.searchsorted(b.indices, b.indices % d * d + b.indices // d) for b in _blocks(pr)]
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
    bad = _copied(cop)
    steps = bad.steps
    k = len(steps) // 2
    s = steps[k]
    r, c = max(((r, c) for r in range(s.shape[0]) for c in range(s.shape[1]) if (2 * r + 1, 2 * c + 1) != s.shape),
               key=lambda rc: abs(s[rc]))
    s[r, c] *= 1 + 1e-9
    noisy = cocommutativity_residuals(bad)
    assert noisy == _former_cocommutativity_residuals(bad)
    scale = max(hopf._norm(steps), float(np.linalg.norm(cop.pr.two_m / 2.0)))
    assert noisy[0] > gate(cop.pr.dim, scale) >= got[0]


@pytest.mark.parametrize("j", ["1", "7/2"])
def test_one_lift_entry_off_fails_the_commutator_and_cocommutativity_checks(j):
    # every deformation reads the kept S V: one entry of it off by 1e-9 relative, in the step from M = 0 and off
    # its centre row, moves a row of Delta'(J+), which breaks [J+, J-] and, its swap partner row left as it is,
    # the swap symmetry
    rep = build_sl2(halfint(j))
    pr = primitive_coproduct(rep, rep)
    beta = [Fraction(1), Fraction(1, 10)]
    t = polynomial_transfer(alpha_from_beta(beta), max(pr.spins))
    lift = [x.copy() for x in pr.lift]
    view = pr._views(lift, pr.sizes[1:].tolist())[len(pr.sizes) // 2]
    r = max((r for r in range(len(view)) if 2 * r + 1 != len(view)), key=lambda r: np.abs(view[r]).max())
    view[r, np.argmax(np.abs(view[r]))] *= 1 + 1e-9
    for p, honest in ((pr, True), (replace(pr, lift=tuple(lift)), False)):
        cop = transferred_coproduct(p, t)
        comm = commutator_residuals(cop, beta)
        assert [c.passed for c in comm.checks] == [True, True, honest]  # [J3, J+-] keep their block structure
        scale = max(hopf._norm(cop.steps), hopf._norm(pr.two_m / 2.0))
        assert (max(cocommutativity_residuals(cop)) <= gate(pr.dim, scale)) == honest


def test_cocommutativity_residuals_require_equal_factors():
    pr = primitive_coproduct(build_sl2("1/2"), build_sl2(1))
    with pytest.raises(ValueError):
        cocommutativity_residuals(transferred_coproduct(pr, polynomial_transfer(ALPHA, max(pr.spins))))
    # every factor is an sl2 irrep, so no product has a reducible factor: a product or another family is refused
    rep, spec = build_sl2("1/2"), StructureSpec(Polynomial(ALPHA), halfint("1/2"))
    for factor, kind in ((primitive_coproduct(rep, rep), "ProductRep"), (build_deformed(spec), "Polynomial")):
        for pair in ((factor, rep), (rep, factor)):
            with pytest.raises(ValueError) as exc:
                primitive_coproduct(*pair)
            assert str(exc.value) == f"tensor factors must be sl2 irreps, not {kind!r}"


def _not_an_sl2_irrep(kind):
    rep = build_sl2(1)
    return {"ProductRep": lambda: primitive_coproduct(rep, rep),
            "Polynomial": lambda: deformed_from_undeformed(rep, ALPHA),
            "HiggsShifted": lambda: build_deformed(StructureSpec(HiggsShifted(-0.1, 0.0), halfint(1))),
            "QuadraticShifted": lambda: build_quadratic_explicit(rep, 0.05),
            "Uq": lambda: build_uq(1, 0.3)}[kind]()


@pytest.mark.parametrize("kind", ["ProductRep", "Polynomial", "HiggsShifted", "QuadraticShifted", "Uq"])
def test_primitive_coproduct_refuses_a_factor_that_is_not_an_sl2_irrep_before_building(monkeypatch, kind):
    factor, rep = _not_an_sl2_irrep(kind), build_sl2(1)
    built, real = [], hopf._coupled
    monkeypatch.setattr(hopf, "_coupled", lambda *a: built.append(a[::2]) or real(*a))
    monkeypatch.setattr(hopf, "_kept", {})
    for pair in ((factor, rep), (rep, factor), (factor, factor)):
        with pytest.raises(ValueError) as exc:
            primitive_coproduct(*pair)
        assert str(exc.value) == f"tensor factors must be sl2 irreps, not {kind!r}"
    assert built == [] and hopf._kept == {}
    # the sl2 irrep the Uq one maps back to is a factor like any other
    back = inverse_map_uq(build_uq(1, 0.3), 0.3) if kind == "Uq" else rep
    assert primitive_coproduct(back, rep).dim == 9 and built == [(2, 2)] and len(hopf._kept) == 1


@pytest.mark.parametrize("j1,j2", [("0", "0"), ("1/2", "1/2"), ("0", "3/2"), ("3", "5/2"), ("5/2", "3"),
                                   ("7/2", "1"), ("1", "7/2"), ("17/2", "5/2")])
def test_product_spins_are_the_clebsch_gordan_series_each_label_once(j1, j2):
    # V(j1) (x) V(j2) holds each J from |j1 - j2| to j1 + j2 once, so the block at M holds one state per J >= |M|
    a, b = halfint(j1).twice, halfint(j2).twice
    pr = primitive_coproduct(build_sl2(halfint(j1)), build_sl2(halfint(j2)))
    assert pr.spins == tuple(range(abs(a - b), a + b + 1, 2)) and all(type(s) is int for s in pr.spins)
    assert sum(s + 1 for s in pr.spins) == pr.dim == (a + 1) * (b + 1)
    assert pr.sizes.tolist() == [sum(s >= abs(m) for s in pr.spins) for m in pr.block_m.tolist()]
    starts = (np.cumsum(pr.sizes) - pr.sizes).tolist()
    for s, n in zip(starts, pr.sizes.tolist()):
        assert np.array(pr.spins)[pr.rank[s:s + n]].tolist() == list(pr.spins[len(pr.spins) - n:])


def _first_bad_label(pr, h):
    """(c, m) of the first label with M < J, block by block in ascending M and ascending J, where the scalar h < 0."""
    for b in _blocks(pr):
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
