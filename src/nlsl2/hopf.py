"""Tensor products, coproducts and Hopf-axiom checks.

`primitive_coproduct` is the one place that labels a product space. Delta(J3)
is diagonal, with each state's integral 2M read from the factors' ladders,
and the Clebsch-Gordan series gives the multiset of 2J. One stacked `eigh`
per block size diagonalizes Delta(C) in every M block; the ascending
eigenvectors take the ascending exact labels {J >= |M|}, of which deformed
coproducts are functions. Coassociativity of the primitive coproduct is
decided symbolically on label triples.

A product is stored on its weight blocks only: the Delta(C) block of each M
and the (M -> M+1) step block of Delta(J+), both assembled from the factors'
nonzeros with no dense matrix and no np.kron. Delta(J+) times a function of
the labels is formed one step block at a time. Every dense output is
scattered from block entries into zeros at cached flat positions; a
transpose scatters the same entries at the transposed positions. The
co-commutativity check reads each swap pair of entries once.

A deformed coproduct applies its family's `structure` transfer map at every
coupled label (2J, 2M); the map is defined for M < J, and at M = J, where
Delta(J+) annihilates the state, the factor is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .halfint import HalfInt, halfint
from .repbuilder import MatrixRep, build_sl2, ladder_vectors
from .structure import (CLAMP_TOL, InadmissibleLabelError, Transfer, polynomial_transfer, quadratic_ladder_factor,
                        quadratic_radicand, quadratic_shift, quadratic_transfer)
from .verifier import VerificationReport, gate


InadmissibleProductError = InadmissibleLabelError  # a coupled (J, M) label outside a transfer map's domain


# ---------------------------------------------------------------------------
# product representations


class CoupledBlock(NamedTuple):
    """The Delta(J3) = M block of a product space in its coupled basis."""

    two_m: int
    indices: np.ndarray  # product-basis states with this M, ascending
    w: np.ndarray  # numeric eigenvalues of the Delta(C) block, ascending
    V: np.ndarray  # the matching eigenvectors, as columns
    two_js: tuple  # exact label 2J of each column, ascending
    C: np.ndarray  # the Delta(C) block on `indices`, read-only


@dataclass
class ProductRep:
    """Primitive coproduct on V1 (x) V2, stored on its weight blocks with exact (J, M) labels.

    Delta(J3) is diag(M), Delta(C) is block-diagonal over M (`CoupledBlock.C`)
    and Delta(J+) maps the M block into the M+1 block only: steps[k] is its
    block from blocks[k] to blocks[k+1], read-only. The dense matrices DJ3,
    DJp, DJm and DC are built from these on first access; they are writable
    copies, so editing them leaves the blocks unchanged.
    """

    d1: int
    d2: int
    two_m: np.ndarray  # 2M of each basis state
    spins: tuple  # sorted multiset of 2J over the Clebsch-Gordan series
    blocks: list  # one CoupledBlock per M, ascending
    steps: list  # Delta(J+) from blocks[k] to blocks[k+1]

    @property
    def dim(self) -> int:
        return self.d1 * self.d2

    @cached_property
    def _step_at(self) -> tuple:
        """Flat dense positions of every step-block entry, in `steps` order, and of their transposes."""
        pairs = [(hi.indices, lo.indices) for lo, hi in zip(self.blocks, self.blocks[1:])]
        return _positions(pairs, self.dim, 1), _positions(pairs, 1, self.dim)

    @cached_property
    def _block_at(self) -> np.ndarray:
        """Flat dense positions of every entry of the M blocks, block by block."""
        return _positions([(b.indices, b.indices) for b in self.blocks], self.dim, 1)

    @cached_property
    def DJ3(self) -> np.ndarray:
        return np.diag(self.two_m / 2.0)

    @cached_property
    def DJp(self) -> np.ndarray:
        return _scatter(self.dim, self._step_at[0], _flat(self.steps))

    @cached_property
    def DJm(self) -> np.ndarray:
        return _scatter(self.dim, self._step_at[1], _flat(self.steps))

    @cached_property
    def DC(self) -> np.ndarray:
        return _scatter(self.dim, self._block_at, _flat(b.C for b in self.blocks))


def _positions(pairs, rs: int, cs: int) -> np.ndarray:
    """rows[i] * rs + cols[k] * cs for every entry of each (rows, cols) block, block by block, row-major."""
    return np.concatenate([np.empty(0, dtype=int)] + [np.add.outer(r * rs, c * cs).ravel() for r, c in pairs])


def _flat(blocks) -> np.ndarray:
    """The entries of every block, block by block, row-major: the order of `_positions`."""
    return np.concatenate([np.empty(0)] + [b.ravel() for b in blocks])


def _scatter(dim: int, at: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The dim x dim matrix holding vals at the flat positions `at` and zeros elsewhere."""
    out = np.zeros(dim * dim)
    out[at] = vals
    return out.reshape(dim, dim)


def _nonzeros(dim: int, at: np.ndarray, vals: np.ndarray) -> tuple:
    """(rows, cols, values) of the nonzeros of vals placed at the flat positions `at`."""
    nz = np.flatnonzero(vals)
    return at[nz] // dim, at[nz] % dim, vals[nz]


class _Factor(NamedTuple):
    """A tensor factor as nonzero lists (rows, cols, values) of J3, J+ and C."""

    j3: tuple
    plus: tuple
    cas: tuple
    two_m: np.ndarray
    spins: tuple

    @property
    def minus(self) -> tuple:
        rows, cols, vals = self.plus
        return cols, rows, vals

    @property
    def one(self) -> tuple:
        i = np.arange(len(self.two_m))
        return i, i, np.ones(len(i))


def _factor(x: Union[MatrixRep, ProductRep]) -> _Factor:
    """An sl2 irrep, read from its ladder, or a product, read from its blocks."""
    if isinstance(x, ProductRep):
        i = np.arange(x.dim)
        return _Factor((i, i, x.two_m / 2.0), _nonzeros(x.dim, x._step_at[0], _flat(x.steps)),
                       _nonzeros(x.dim, x._block_at, _flat(b.C for b in x.blocks)), x.two_m, x.spins)
    if x.family != "sl2":
        raise ValueError(f"tensor factors must be sl2 irreps or products, not {x.family!r}")
    w, u = ladder_vectors(x)
    i = np.arange(x.dim)
    c = np.full(x.dim, float(x.j.mm1()))
    return _Factor((i, i, w), (i[:-1], i[1:], u), (i, i, c),
                   np.arange(x.two_j, -x.two_j - 1, -2), (x.two_j,))


def primitive_coproduct(rep1: Union[MatrixRep, ProductRep],
                        rep2: Union[MatrixRep, ProductRep]) -> ProductRep:
    """Delta(X) = X (x) 1 + 1 (x) X for the generators, with the product Casimir.

    Each factor is an sl2 irrep or a ProductRep, so V (x) V (x) V can be built
    in either bracketing. Only the weight blocks are formed: every Kronecker
    term's products of nonzeros are added, term by term in a fixed order,
    into one flat buffer holding the Delta(C) blocks and one holding the
    Delta(J+) steps, each block at its own offset, so the values equal those
    of the dense Kronecker sums. The Delta(C) blocks of each size share one
    stacked `eigh`; a block's k-th eigenvector takes the k-th of the ascending
    labels {J in spins : J >= |M|}. This is exact because distinct values of
    J(J+1) lie at least 2 apart.
    """
    a, b = _factor(rep1), _factor(rep2)
    d1, d2 = len(a.two_m), len(b.two_m)
    two_m = np.add.outer(a.two_m, b.two_m).ravel()
    # weight blocks in ascending 2M, states in product-basis order inside each
    block_m, block_of, sizes = np.unique(two_m, return_inverse=True, return_counts=True)
    order = np.argsort(block_of, kind="stable")
    starts = np.concatenate(([0], np.cumsum(sizes)))
    pos = np.empty(len(two_m), dtype=int)
    pos[order] = np.arange(len(two_m)) - starts[block_of[order]]
    c_off = np.concatenate(([0], np.cumsum(sizes * sizes)))
    s_off = np.concatenate(([0], np.cumsum(sizes[1:] * sizes[:-1])))

    def kron(x, y):
        (r1, c1, v1), (r2, c2, v2) = x, y
        return np.add.outer(r1 * d2, r2).ravel(), np.add.outer(c1 * d2, c2).ravel(), np.outer(v1, v2).ravel()

    dc = np.zeros(c_off[-1])
    for coef, x, y in ((1.0, a.cas, b.one), (1.0, a.one, b.cas), (1.0, a.plus, b.minus),
                       (1.0, a.minus, b.plus), (2.0, a.j3, b.j3)):
        rows, cols, vals = kron(x, y)
        k = block_of[rows]
        dc[c_off[k] + pos[rows] * sizes[k] + pos[cols]] += coef * vals
    dp = np.zeros(s_off[-1])
    for x, y in ((a.plus, b.one), (a.one, b.plus)):
        rows, cols, vals = kron(x, y)
        k = block_of[cols]  # rows lie in block k + 1
        dp[s_off[k] + pos[rows] * sizes[k] + pos[cols]] += vals
    dc.flags.writeable = dp.flags.writeable = False

    spins = tuple(sorted(t for s1 in a.spins for s2 in b.spins for t in range(abs(s1 - s2), s1 + s2 + 1, 2)))
    blocks = [None] * len(sizes)
    for n in np.unique(sizes).tolist():  # one stacked eigh per block size
        ks = np.flatnonzero(sizes == n).tolist()
        cas = [dc[c_off[k]:c_off[k + 1]].reshape(n, n) for k in ks]
        for k, c, w, vecs in zip(ks, cas, *np.linalg.eigh(np.stack(cas))):
            blocks[k] = CoupledBlock(int(block_m[k]), order[starts[k]:starts[k + 1]], w, vecs,
                                     tuple(s for s in spins if s >= abs(block_m[k])), c)
    steps = [dp[s_off[k]:s_off[k + 1]].reshape(hi, lo)
             for k, (lo, hi) in enumerate(zip(sizes.tolist(), sizes[1:].tolist()))]
    return ProductRep(d1, d2, two_m, spins, blocks, steps)


def _block_factors(pr: ProductRep, g: Callable[[int, int], float]) -> list:
    """V diag(g) V^T of each M block, with g called on every label in order.

    g receives the ints (2J, 2M), block by block in ascending M and
    ascending J inside a block.
    """
    out = []
    for b in pr.blocks:
        vals = np.array([g(t, b.two_m) for t in b.two_js], dtype=float)
        out.append((b.V * vals) @ b.V.T)
    return out


def joint_calculus(pr: ProductRep, g: Callable[[Fraction, Fraction], float]) -> np.ndarray:
    """Apply a scalar function of (c, m) over the joint spectrum of (DC, DJ3).

    g is called with the exact Fractions c = J(J+1) and m = M of each coupled
    state, and V diag(g) V^T is written into each M block.
    """
    factors = _block_factors(pr, lambda two_j, two_m: g(HalfInt(two_j).mm1(), Fraction(two_m, 2)))
    return _scatter(pr.dim, pr._block_at, _flat(factors))


def product_casimir_spectrum(j1, j2) -> list[float]:
    """Clebsch-Gordan oracle: eigenvalues J(J+1), each with multiplicity 2J+1."""
    j1, j2 = halfint(j1), halfint(j2)
    vals = []
    for twoJ in range(abs(j1.twice - j2.twice), j1.twice + j2.twice + 1, 2):
        vals.extend([twoJ * (twoJ + 2) / 4.0] * (twoJ + 1))
    return sorted(vals)


def _transferred(pr: ProductRep, t: Transfer, order: str = "source") -> tuple:
    """(Delta(J+'), Delta(J-'), Delta(J3')) of the transfer map t by joint calculus on pr's coupled labels.

    Delta(J+) maps the M block into the M+1 block only, and the factor F = V diag(h^(1/2)) V^T (h = 0 at
    M = J) is block-diagonal over M, so order='source' gives S_M @ F_M and order='target' gives
    F_{M+1} @ S_M, with S_M the stored step block `pr.steps`. Delta(J3') is diag(M) + V diag(s_J) V^T,
    or pr.DJ3 when t has no shift.
    """
    if order not in ("source", "target"):
        raise ValueError("order must be 'source' or 'target'")
    f = _block_factors(pr, lambda two_j, two_m: 0.0 if two_j == two_m else math.sqrt(t.factor(two_j, two_m)))
    vals = _flat(s @ f[k] if order == "source" else f[k + 1] @ s for k, s in enumerate(pr.steps))
    djp, djm = (_scatter(pr.dim, at, vals) for at in pr._step_at)
    if t.shift is None:
        return djp, djm, pr.DJ3
    dj3 = _scatter(pr.dim, pr._block_at, _flat(_block_factors(pr, lambda two_j, _: t.shift(two_j))))
    dj3.flat[::pr.dim + 1] += pr.two_m / 2.0
    return djp, djm, dj3


def deformed_coproduct(pr: ProductRep, alpha: Sequence, order: str = "source"):
    """Coproduct of the polynomial-deformed generators on the product space.

    The square root of `structure.polynomial_transfer`, the divided difference
    (phi(c) - phi(m(m+1)))/(c - m(m+1)) exact at each label (c, m) = (J(J+1), M), is applied by joint
    calculus; a negative value below the highest weight raises InadmissibleProductError with the exact
    c and M. order='source' puts the factor right of Delta(J+), at the source state as on one irrep;
    order='target' puts it left, at the target state, which is not an algebra map in general.

    Returns (DJp_hat, DJm_hat, DJ3).
    """
    return _transferred(pr, polynomial_transfer(alpha, max(pr.spins)), order)


def quadratic_coproduct(pr: ProductRep, alpha: float):
    """Hopf maps of the quadratic family on the product space, `structure.quadratic_transfer` by joint calculus.

    Returns (DJ3_a, DJp_a, DJm_a), with DJ3_a = diag(M) + V diag(gamma_J) V^T.
    """
    djp, djm, dj3 = _transferred(pr, quadratic_transfer(alpha, max(pr.spins)))
    return dj3, djp, djm


def swap_matrix(d1: int, d2: int) -> np.ndarray:
    """Permutation realizing v (x) w -> w (x) v."""
    return np.eye(d1 * d2)[np.arange(d1 * d2).reshape(d1, d2).T.ravel()]


def cocommutativity_check(matrices: Sequence[np.ndarray], d: int) -> list[float]:
    """Swap-conjugation residuals ||P X P^T - X|| for coproduct matrices on V (x) V.

    With t[a, b] the d x d block <a b| X |. .>, P X P^T holds t[b, a]^T there, so
    the squared residual is sum_a ||t[a, a] - t[a, a]^T||^2 + 2 sum_{a<b}
    ||t[a, b] - t[b, a]^T||^2, read one slab of b >= a per a.
    """
    if any(mat.shape != (d * d, d * d) for mat in matrices):
        raise ValueError("cocommutativity_check requires equal tensor factors")
    out = []
    for mat in matrices:
        t, sq = mat.reshape(d, d, d, d), 0.0
        for a in range(d):
            diff = t[a, a:] - t[a:, a].transpose(0, 2, 1)
            sq += np.vdot(diff[0], diff[0]) + 2 * np.vdot(diff[1:], diff[1:])
        out.append(math.sqrt(sq))
    return out


# ---------------------------------------------------------------------------
# Hopf axioms


def antipode_realization(j) -> np.ndarray:
    """Matrix W with W J3 W^-1 = -J3^T and W J+- W^-1 = -J-+^T on the irrep.

    The antipode of any realized algebra element X is then (W X W^-1)^T,
    linear in X and antimultiplicative, sending each generator to its
    negative.
    """
    j = halfint(j)
    d = j.twice + 1
    w = np.zeros((d, d))
    for i in range(d):
        w[d - 1 - i, i] = (-1.0) ** i
    return w


def apply_antipode(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    return (w @ x @ np.linalg.inv(w)).T


def multiply_with_antipode(x: np.ndarray, d: int, w: np.ndarray, side: str = "right") -> np.ndarray:
    """Realize m(id (x) S) (side='right') or m(S (x) id) (side='left') on End(V (x) V).

    Any matrix on V (x) V is a sum of elementary tensors A_i (x) B_i; the map
    sends it to sum A_i S(B_i) (or sum S(A_i) B_i) with S realized by W. The
    result is decomposition-independent because the map is linear, so it is
    computed on the elementary-tensor basis E_ab (x) E_ce directly.
    """
    t = x.reshape(d, d, d, d)  # [a, c, b, e] = <a c| X |b e>
    winv = np.linalg.inv(w)
    if side == "right":  # sum_ab E_ab @ S(B_ab), S(B) = (w B winv)^T
        return np.einsum("ck,akbl,lb->ac", w, t, winv)
    if side == "left":  # sum_ab S(E_ab) @ B_ab
        return np.einsum("bp,qa,aqbe->pe", winv, w, t)
    raise ValueError("side must be 'right' or 'left'")


def hopf_axiom_checks(rep: MatrixRep, quadratic_alpha: Optional[float] = None,
                      tol: Optional[float] = None) -> VerificationReport:
    """Verify coassociativity, counit and antipode identities on one irrep.

    Coassociativity of the primitive generators is decided symbolically:
    both bracketings expand X (x) 1 + 1 (x) X into three-leg terms of unit
    coefficient, compared as sorted label triples. With quadratic_alpha
    set, the quadratic antipode maps are additionally realized by
    functional calculus and the antipode axiom is checked at matrix level
    on the product space (equal factors, so the trivial component is
    present). The checks of generator X are gated at ||X||, unless tol is given.
    """
    report = VerificationReport()
    eye = np.eye(rep.dim)
    gens = {"J+": rep.Jplus, "J-": rep.Jminus, "J3": rep.J3}

    def expand_left(l, r):
        """Apply Delta (x) id to the label term l (x) r."""
        return [(l, l, r)] if l == "1" else [(l, "1", r), ("1", l, r)]

    def expand_right(l, r):
        """Apply id (x) Delta to the label term l (x) r."""
        return [(l, r, r)] if r == "1" else [(l, r, "1"), (l, "1", r)]

    for name, x in gens.items():
        # labeled primitive coproduct: X (x) 1 + 1 (x) X
        delta = [((name, x), ("1", eye)), (("1", eye), (name, x))]
        labels = [(llab, rlab) for (llab, _), (rlab, _) in delta]
        left = sorted(t for l, r in labels for t in expand_left(l, r))
        right = sorted(t for l, r in labels for t in expand_right(l, r))
        report.add_exact(f"coassociativity Delta({name})", Fraction(0) if left == right else Fraction(1),
                         context="three-leg label sums")

        # counit: eps(generator) = 0, eps(1) = 1, applied legwise
        def eps(lab):
            return 1.0 if lab == "1" else 0.0

        id_eps = sum(eps(rlab) * l for (_, l), (rlab, _) in delta)
        eps_id = sum(eps(llab) * r for (llab, _), (_, r) in delta)
        bound = gate(rep.dim, float(np.linalg.norm(x)), tol)
        report.add_numeric(f"counit (id x eps)Delta({name}) = {name}", float(np.linalg.norm(id_eps - x)), bound)
        report.add_numeric(f"counit (eps x id)Delta({name}) = {name}", float(np.linalg.norm(eps_id - x)), bound)

        # antipode: S(generator) = -generator, S(1) = 1, multiplied out
        def s_of(lab, mat):
            return mat if lab == "1" else -mat

        anti_r = sum(l @ s_of(rlab, r) for (_, l), (rlab, r) in delta)
        anti_l = sum(s_of(llab, l) @ r for (llab, l), (_, r) in delta)
        report.add_numeric(f"antipode m(id x S)Delta({name}) = 0", float(np.linalg.norm(anti_r)), bound)
        report.add_numeric(f"antipode m(S x id)Delta({name}) = 0", float(np.linalg.norm(anti_l)), bound)

    if quadratic_alpha is not None:
        report.extend(quadratic_antipode_checks(rep, quadratic_alpha, tol))
    return report


def quadratic_antipode_checks(rep: MatrixRep, alpha: float, tol: Optional[float] = None) -> VerificationReport:
    """Antipode identities for the quadratic maps realized on an irrep.

    Checks that the conjugation-transpose realization of S reproduces the
    closed-form expressions for S(J3') and S(J+-'), and that the antipode axiom
    m(id (x) S) Delta(X') = 0 holds at matrix level on V (x) V. Each check is
    gated at the norm of the map it realizes, unless tol is given.
    """
    from .repbuilder import build_quadratic_explicit

    a = float(alpha)
    report = VerificationReport()
    j = rep.j
    s = math.sqrt(quadratic_radicand(a, float(j.mm1())))
    w = antipode_realization(j)

    quad = build_quadratic_explicit(rep, a)

    # closed forms: S(J3') = -J3 + gamma, S(J+-') = -(ladder factor at -J3)^(1/2) J+- in reversed order
    s_j3_formula = -rep.J3 + quadratic_shift(a, s) * np.eye(rep.dim)
    ladder_neg = np.array([quadratic_ladder_factor(a, s, -m) for m in np.diag(rep.J3)])
    if np.any(ladder_neg < -CLAMP_TOL):
        raise ValueError("negative entry under matrix square root")
    root = np.diag(np.sqrt(np.maximum(ladder_neg, 0.0)))
    s_jp_formula = -root @ rep.Jplus
    s_jm_formula = -rep.Jminus @ root

    for name, mat, formula in (("J3'", quad.J3, s_j3_formula), ("J+'", quad.Jplus, s_jp_formula),
                               ("J-'", quad.Jminus, s_jm_formula)):
        report.add_numeric(f"S({name}) realization vs formula", float(np.linalg.norm(apply_antipode(mat, w) - formula)),
                           gate(rep.dim, float(np.linalg.norm(mat)), tol), context=f"j={j} alpha={a}")

    # antipode axiom on the product space (equal factors)
    pr = primitive_coproduct(rep, rep)
    dj3_a, djp_a, djm_a = quadratic_coproduct(pr, a)
    for name, mat in (("J3'", dj3_a), ("J+'", djp_a), ("J-'", djm_a)):
        resid_r = float(np.linalg.norm(multiply_with_antipode(mat, rep.dim, w, side="right")))
        report.add_numeric(f"antipode axiom m(id x S)Delta({name}) = 0", resid_r,
                           gate(pr.dim, float(np.linalg.norm(mat)), tol), context=f"j={j} (x) j={j}, alpha={a}")
    return report


def triple_coassociativity_residual(j, alpha: Sequence) -> float:
    """Numeric coassociativity witness for the deformed coproduct on V^(x)3.

    Builds (V (x) V) (x) V and V (x) (V (x) V) with `primitive_coproduct`,
    deforms each with `deformed_coproduct`, and returns the largest
    difference of the primitive and deformed maps between the bracketings.
    Raises InadmissibleProductError when a component of V^(x)3 is
    inadmissible.
    """
    rep = build_sl2(halfint(j))
    left = primitive_coproduct(primitive_coproduct(rep, rep), rep)
    right = primitive_coproduct(rep, primitive_coproduct(rep, rep))
    resid = max(
        float(np.linalg.norm(left.DJ3 - right.DJ3)),
        float(np.linalg.norm(left.DJp - right.DJp)),
        float(np.linalg.norm(left.DC - right.DC)),
    )
    djp_l = deformed_coproduct(left, alpha)[0]
    djp_r = deformed_coproduct(right, alpha)[0]
    return max(resid, float(np.linalg.norm(djp_l - djp_r)))
