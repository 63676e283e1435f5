"""Tensor products, coproducts and Hopf-axiom checks.

`primitive_coproduct` is the one place that labels a product space. Delta(J3)
is diagonal, with each state's integral 2M read from the factors' ladders,
and the Clebsch-Gordan series gives the multiset of 2J. One stacked `eigh`
per block size diagonalizes Delta(C) in every M block; the ascending
eigenvectors take the ascending exact labels {J >= |M|}, of which deformed
coproducts are functions.

A product is stored on its weight blocks only: the Delta(C) block of each M
and the (M -> M+1) step block of Delta(J+), both assembled from the factors'
nonzeros with no dense matrix and no np.kron. Delta(J+) times a function of
the labels is formed one step block at a time. Every dense output is
scattered from block entries into zeros at cached flat positions; a
transpose scatters the same entries at the transposed positions. The
co-commutativity check reads each swap pair of entries once.

A deformed coproduct applies its family's `structure` transfer map at every
coupled label (2J, 2M); the map is defined for M < J, and at M = J, where
Delta(J+) annihilates the state, the factor is 0. `transferred_coproduct`
keeps the result on the same weight blocks, as a `Coproduct`: the step blocks
of Delta'(J+) and, for a shifted family, the Delta'(J3') block of each M.

`hopf_axiom_checks` tests one family's transfer map against the counit and antipode axioms, reading
the coproducts' weight blocks; coassociativity is left to `triple_coassociativity_residual`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .halfint import HalfInt, halfint
from .repbuilder import MatrixRep, _factors, _transferred_irrep, build_sl2
from .structure import InadmissibleLabelError, Transfer, polynomial_transfer, quadratic_transfer
from .verifier import VerificationReport, _block_norm, gate


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
    w, u = x.ladder
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


@dataclass(frozen=True)
class Coproduct:
    """A deformed coproduct on the weight blocks of the primitive product pr.

    steps[k] is Delta'(J+) from pr.blocks[k] to pr.blocks[k+1], and Delta'(J-) is its transpose. j3 is
    None when Delta'(J3') = Delta(J3) = diag(M); for a family that shifts the spectrum, j3[k] is the
    Delta'(J3') block of pr.blocks[k].
    """

    pr: ProductRep
    steps: list
    j3: Optional[list] = None

    def dense(self) -> tuple:
        """(Delta(J+'), Delta(J-'), Delta(J3')) as dense matrices, the blocks scattered into zeros.

        Without a shift Delta(J3') is pr.DJ3 itself.
        """
        pr = self.pr
        vals = _flat(self.steps)
        djp, djm = (_scatter(pr.dim, at, vals) for at in pr._step_at)
        if self.j3 is None:
            return djp, djm, pr.DJ3
        return djp, djm, _scatter(pr.dim, pr._block_at, _flat(self.j3))


def transferred_coproduct(pr: ProductRep, t: Transfer, order: str = "source") -> Coproduct:
    """The Coproduct of the transfer map t by joint calculus on pr's coupled labels.

    Delta(J+) maps the M block into the M+1 block only, and the factor F = V diag(h^(1/2)) V^T (h = 0 at
    M = J) is block-diagonal over M, so order='source' gives S_M @ F_M and order='target' gives
    F_{M+1} @ S_M, with S_M the stored step block `pr.steps`. A shift s gives the Delta(J3') blocks
    V diag(s_J) V^T + M I.
    """
    if order not in ("source", "target"):
        raise ValueError("order must be 'source' or 'target'")
    f = _block_factors(pr, lambda two_j, two_m: 0.0 if two_j == two_m else math.sqrt(t.factor(two_j, two_m)))
    steps = [s @ f[k] if order == "source" else f[k + 1] @ s for k, s in enumerate(pr.steps)]
    if t.shift is None:
        return Coproduct(pr, steps)
    j3 = _block_factors(pr, lambda two_j, _: t.shift(two_j))
    for b, x in zip(pr.blocks, j3):
        x.flat[::len(b.indices) + 1] += b.two_m / 2.0
    return Coproduct(pr, steps, j3)


def deformed_coproduct(pr: ProductRep, alpha: Sequence, order: str = "source"):
    """Coproduct of the polynomial-deformed generators on the product space.

    The square root of `structure.polynomial_transfer`, the divided difference
    (phi(c) - phi(m(m+1)))/(c - m(m+1)) exact at each label (c, m) = (J(J+1), M), is applied by joint
    calculus; a negative value below the highest weight raises InadmissibleProductError with the exact
    c and M. order='source' puts the factor right of Delta(J+), at the source state as on one irrep;
    order='target' puts it left, at the target state, which is not an algebra map in general.

    Returns the dense (DJp_hat, DJm_hat, DJ3) of `transferred_coproduct`.
    """
    return transferred_coproduct(pr, polynomial_transfer(alpha, max(pr.spins)), order).dense()


def quadratic_coproduct(pr: ProductRep, alpha: float):
    """Hopf maps of the quadratic family on the product space, `structure.quadratic_transfer` by joint calculus.

    Returns the dense (DJ3_a, DJp_a, DJm_a) of `transferred_coproduct`, with DJ3_a = diag(M) + V diag(gamma_J) V^T.
    """
    djp, djm, dj3 = transferred_coproduct(pr, quadratic_transfer(alpha, max(pr.spins))).dense()
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
    """Signed permutation W with W J3 W^T = -J3^T and W J+- W^T = -J-+^T on the irrep; W^-1 = W^T.

    The antipode of any realized algebra element X is then (W X W^T)^T,
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
    return (w @ x @ w.T).T


def _antipode_vectors(w: np.ndarray, indices: np.ndarray) -> tuple:
    """vec(W), vec(W^T) on the states `indices`: m(id x S)X = unvec(X vec W) W^T, m(S x id)X = W unvec(X^T vec W^T)."""
    return w.ravel()[indices], w.T.ravel()[indices]


def _counit_ladder(cop: Coproduct) -> tuple:
    """(diagonal of Delta'(J3'), superdiagonal of Delta'(J+')) on V (x) V(0) or V(0) (x) V: 1 x 1 blocks, V's basis."""
    at = np.array([b.indices[0] for b in cop.pr.blocks])  # ascending M: step k lands on the state at[k + 1]
    w = cop.pr.two_m / 2.0
    if cop.j3 is not None:
        w[at] = _flat(cop.j3)
    u = np.zeros(len(at) - 1)
    u[at[1:]] = _flat(cop.steps)
    return w, u


def hopf_axiom_checks(rep: MatrixRep, family: Optional[Callable[[int], Transfer]] = None,
                      tol: Optional[float] = None) -> VerificationReport:
    """Counit and antipode identities of one family's transferred generators on the sl2 irrep V = rep.

    family builds the family's `structure` map for labels 2J <= top, e.g. partial(polynomial_transfer, alpha)
    or partial(quadratic_transfer, a); it is called here at top = 2 * 2j, the largest label of V (x) V, and
    defaults to the undeformed sl2 map partial(polynomial_transfer, [1]). X' is the map on V, Delta' the map by
    joint calculus on a product's coupled labels, read from the weight blocks of its `Coproduct`. For each of
    X' = J3', J+', J-':
    - S(X') realized as (W X' W^T)^T against S(J3') = -J3 + s(C), S(J+') = -h(C, -J3)^(1/2) J+ (h at M < J);
    - m(id x S)Delta'(X') = 0 and m(S x id)Delta'(X') = 0 on V (x) V, whose J = 0 part gives eps(X') = 0; W is a
      signed permutation, so their norms are ||Delta'(X') vec(W)|| and ||Delta'(X')^T vec(W^T)||, on the M = 0 block;
    - the counit: Delta'(X') on V (x) V(0) and on V(0) (x) V, whose blocks are 1 x 1, equals X'.
    Coassociativity is inherited from Delta, as Delta' is a function of (Delta(C), Delta(J3));
    `triple_coassociativity_residual` is its witness. Checks are gated at ||X'|| on V and ||Delta'(X')|| on
    V (x) V, unless tol is given.
    """
    t = (family or partial(polynomial_transfer, [1]))(2 * rep.two_j)
    report = VerificationReport()
    j, d, w = rep.j, rep.dim, antipode_realization(rep.j)
    weights, u = rep.ladder
    irrep = _transferred_irrep(j, t)
    pr = primitive_coproduct(rep, rep)
    cop = transferred_coproduct(pr, t)
    k0 = next(k for k, b in enumerate(pr.blocks) if b.two_m == 0)
    v, v_t = _antipode_vectors(w, pr.blocks[k0].indices)
    # Delta'(J+') and Delta'(J-') = Delta'(J+')^T from the M = 0 block (none at j = 0), and Delta'(J3') there
    up, down = (cop.steps[k0], cop.steps[k0 - 1].T) if cop.steps else (np.zeros((0, len(v))),) * 2
    j3 = np.zeros((len(v),) * 2) if cop.j3 is None else cop.j3[k0]
    j3_scale = np.linalg.norm(pr.two_m / 2.0) if cop.j3 is None else _block_norm(cop.j3)
    counits = {side: _counit_ladder(transferred_coproduct(primitive_coproduct(*pair), t))
               for side, pair in (("id x eps", (rep, build_sl2(0))), ("eps x id", (build_sl2(0), rep)))}
    # S(J+') = -h(C, -J3)^(1/2) J+: the rows m = j, ..., -j+1 of J+ take h at 2M = -2m = -2j, ..., 2j-2
    s_plus = np.diag(-np.sqrt(_factors(j, t)[::-1]) * u, 1)
    gens = (("J3'", irrep.J3, np.diag(irrep.gamma - weights), j3, j3.T, j3_scale, 0),
            ("J+'", irrep.Jplus, s_plus, up, down, _block_norm(cop.steps), 1),
            ("J-'", irrep.Jminus, s_plus.T, down, up, _block_norm(cop.steps), 1))
    for name, x, formula, delta, delta_t, scale, k in gens:
        bound = gate(d, float(np.linalg.norm(x)), tol)
        report.add_numeric(f"S({name}) realization vs formula", float(np.linalg.norm(apply_antipode(x, w) - formula)),
                           bound, context=f"j={j}")
        for axiom, r in (("m(id x S)", delta @ v), ("m(S x id)", delta_t @ v_t)):
            report.add_numeric(f"antipode axiom {axiom}Delta({name}) = 0", float(np.linalg.norm(r)),
                               gate(d * d, float(scale), tol), context=f"j={j} (x) j={j}")
        for side, ladder in counits.items():
            report.add_numeric(f"counit ({side})Delta({name}) = {name}",
                               float(np.linalg.norm(ladder[k] - irrep.ladder[k])), bound, context=f"j={j} (x) j=0")
    return report


def triple_coassociativity_residual(j, alpha: Sequence) -> float:
    """Numeric coassociativity witness for the deformed coproduct on V^(x)3.

    Builds (V (x) V) (x) V and V (x) (V (x) V) with `primitive_coproduct`, deforms each with the polynomial
    `transferred_coproduct`, and returns the largest difference between the bracketings of Delta(J3), the
    Delta(C) blocks, the Delta(J+) steps and the deformed steps; equal 2M give both the same weight blocks.
    Raises InadmissibleProductError when a component of V^(x)3 is inadmissible.
    """
    rep = build_sl2(halfint(j))
    left = primitive_coproduct(primitive_coproduct(rep, rep), rep)
    right = primitive_coproduct(rep, primitive_coproduct(rep, rep))
    t = polynomial_transfer(alpha, max(left.spins))
    parts = [([p.two_m / 2.0], [b.C for b in p.blocks], p.steps, transferred_coproduct(p, t).steps)
             for p in (left, right)]
    return max(_block_norm(a - b for a, b in zip(x, y)) for x, y in zip(*parts))
