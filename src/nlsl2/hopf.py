"""Tensor products, coproducts and Hopf-axiom checks.

`primitive_coproduct` is the one place that labels a product space. Delta(J3) is diagonal, with each state's
integral 2M read from the factors' ladders, and the Clebsch-Gordan series gives the multiset of 2J; an M block
of size n holds its n largest entries. A product is stored on its weight blocks only: the (M -> M+1) step
block S_M of Delta(J+), assembled from the factors' J+ entries with no dense matrix and no np.kron, and the
Delta(C) block of each M, read off the steps: Delta is an algebra map, so the Casimir identity
C = J- J+ + J3(J3 + 1) gives S_M^T S_M + M(M+1) I. The reflection (m1, m2) -> (-m1, -m2) maps the -M block
onto the M block with its states reversed (Edmonds, eq. 3.5.17), so only the blocks with 2M >= 0 are formed
and diagonalized, one stacked `eigh` per run of one size; a -M block's Delta(C) is its mirror's reversed, with
the same eigenvalues and the eigenvectors reversed. Ascending eigenvectors take the ascending exact labels,
and each run with its mirrors shares one stacked matmul for each function of the labels; deformed coproducts
are such functions. So the coupled basis depends on the two factors only: the product of two irreps is built
once per process, and its read-only arrays are kept for later calls, for the 16 most recently used factor pairs.

A deformed coproduct applies its family's `structure` transfer map to all coupled labels (2J, 2M) in one call;
the map is defined for M < J, and at M = J, where Delta(J+) annihilates the state, the factor is 0.
`transferred_coproduct` keeps the result on the same weight blocks, as a `Coproduct`: the step blocks of
Delta'(J+) and, for a shifted family, the Delta'(J3') block of each M. On V (x) V, V an irrep, the swap
v (x) w -> w (x) v reverses each block, which `cocommutativity_residuals` reads. Dense matrices are scattered
from block entries at flat positions found by index arithmetic, only for the dense API the benchmark calls
(`deformed_coproduct`, `quadratic_coproduct`, `cocommutativity_check`).

`hopf_axiom_checks` tests one family's transfer map against the counit and antipode axioms, reading the
coproducts' weight blocks; coassociativity is left to `triple_coassociativity_residual`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .halfint import halfint
from .repbuilder import MatrixRep, _factors, _transferred_irrep, build_sl2
from .structure import InadmissibleLabelError, Transfer, polynomial_transfer, quadratic_transfer
from .verifier import VerificationReport, _norm, gate


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

    Delta(J3) is diag(M) and Delta(J+) maps the M block into the M+1 block
    only: steps[k] is its block from block k to block k+1.
    Delta(C) is block-diagonal over M: cas[k] = steps[k]^T steps[k] + M(M+1) I
    for 2M >= 0, and the reversed view of its mirror's for 2M < 0.
    An entry (ks, at, w, V) of `groups` holds a run of blocks of one size with
    2M >= 0 and their -M mirrors: block ks[i] has columns at[i], eigenvalues
    w[i] and eigenvectors V[i]. Every array here is read-only, and those of a
    product of two irreps are built once per process and shared by the
    ProductReps of the same factors (`primitive_coproduct`). `blocks` (one
    CoupledBlock per M) and the dense DJ3, DJp, DJm and DC are built from them
    on first read, per ProductRep; the dense ones are writable copies.
    """

    d1: int
    d2: int
    two_m: np.ndarray  # 2M of each basis state
    spins: tuple  # sorted multiset of 2J over the Clebsch-Gordan series
    block_m: np.ndarray  # 2M of each block, ascending
    cas: list  # Delta(C) on block k
    steps: list  # Delta(J+) from block k to block k+1
    order: np.ndarray  # the state at each coupled position (block column): block 0's states, block 1's, ...
    sizes: np.ndarray  # the size of each block
    rank: np.ndarray  # index into spins of the 2J at each coupled position: ascending M, then ascending J
    groups: list  # (ks, at, w, V) per run of blocks of one size, with their mirrors

    @cached_property
    def blocks(self) -> list:
        out, starts = [None] * len(self.sizes), np.cumsum(self.sizes) - self.sizes
        for ks, _, w, vecs in self.groups:
            for k, wk, v in zip(ks, w, vecs):
                out[k] = CoupledBlock(int(self.block_m[k]), self.order[starts[k]:starts[k] + len(wk)], wk, v,
                                      self.spins[len(self.spins) - len(wk):], self.cas[k])
        return out

    @property
    def dim(self) -> int:
        return self.d1 * self.d2

    def _entries(self, r: np.ndarray, c: np.ndarray) -> tuple:
        """States (rows, cols) of every entry of the blocks[r[i]] x blocks[c[i]] matrices in turn, row-major."""
        starts, nc, n = np.cumsum(self.sizes) - self.sizes, self.sizes[c], self.sizes[r] * self.sizes[c]
        e, nc = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n), np.repeat(nc, n)  # entry, row length
        return self.order[np.repeat(starts[r], n) + e // nc], self.order[np.repeat(starts[c], n) + e % nc]

    @cached_property
    def _step_at(self) -> tuple:
        """Flat dense positions of every step-block entry, in `steps` order, and of their transposes."""
        rows, cols = self._entries(np.arange(1, len(self.sizes)), np.arange(len(self.sizes) - 1))
        return rows * self.dim + cols, cols * self.dim + rows

    @cached_property
    def _block_at(self) -> np.ndarray:
        """Flat dense positions of every entry of the M blocks, block by block."""
        rows, cols = self._entries(*(np.arange(len(self.sizes)),) * 2)
        return rows * self.dim + cols

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
        return _scatter(self.dim, self._block_at, _flat(self.cas))


def _flat(blocks) -> np.ndarray:
    """The entries of every block, block by block, row-major: the order of `_step_at` and `_block_at`."""
    return np.concatenate([np.empty(0)] + [b.ravel() for b in blocks])


def _scatter(dim: int, at: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The dim x dim matrix holding vals at the flat positions `at` and zeros elsewhere."""
    out = np.zeros(dim * dim)
    out[at] = vals
    return out.reshape(dim, dim)


class _Factor(NamedTuple):
    """A tensor factor: the entry list (rows, cols, values) of its J+, with the 2M of each state and its 2J."""

    plus: tuple
    two_m: np.ndarray
    spins: tuple


def _factor(x: Union[MatrixRep, ProductRep]) -> _Factor:
    """An sl2 irrep, read from its J+ superdiagonal, or a product, read from its step blocks."""
    if isinstance(x, ProductRep):
        n = len(x.sizes)
        return _Factor((*x._entries(np.arange(1, n), np.arange(n - 1)), _flat(x.steps)), x.two_m, x.spins)
    if x.family != "sl2":
        raise ValueError(f"tensor factors must be sl2 irreps or products, not {x.family!r}")
    i = np.arange(x.dim)
    return _Factor((i[:-1], i[1:], x.ladder[1]), np.arange(x.two_j, -x.two_j - 1, -2), (x.two_j,))


_KEPT = 16  # products of two irreps kept for later calls; a benchmark pass cycles through at most 9 pairs
_kept: dict = {}  # each factor's (2j, J+ superdiagonal) -> ProductRep, least recently used first
_lock = threading.Lock()


def primitive_coproduct(rep1: Union[MatrixRep, ProductRep],
                        rep2: Union[MatrixRep, ProductRep]) -> ProductRep:
    """Delta(X) = X (x) 1 + 1 (x) X for the generators, with the product Casimir, on its weight blocks.

    Each factor is an sl2 irrep or a ProductRep, so V (x) V (x) V can be built in either bracketing. The two
    Kronecker terms of Delta(J+) are placed into one flat buffer of step blocks S_k (block k -> k+1), so the
    values equal those of the dense Kronecker sum. The 2M >= 0 blocks of Delta(C), S_k^T S_k + M(M+1) I, go
    into another and to `eigh`, one stacked call per run of one size on its slice; each -M block is the view of
    its mirror with the states reversed (Edmonds, eq. 3.5.17). A block's k-th eigenvector takes the k-th of the
    ascending labels {J in spins : J >= |M|}, the n largest for a block of size n: exactly, as distinct J(J+1)
    lie at least 2 apart.

    None of this depends on a deformation, so the product of two irreps is built once per process and kept,
    keyed by what `_factor` reads of each factor, for the 16 most recently used pairs. Each call returns a new
    ProductRep over the kept read-only arrays, with its own lists and dense views; a product with a ProductRep
    factor is built anew.
    """
    a, b = _factor(rep1), _factor(rep2)
    if isinstance(rep1, ProductRep) or isinstance(rep2, ProductRep):
        return _coupled(a, b)
    key = tuple((x.two_j, x.ladder[1].dtype.str, x.ladder[1].tobytes()) for x in (rep1, rep2))
    with _lock:
        pr = _kept.pop(key, None)
    if pr is None:  # built unlocked: two threads building one pair at once make equal read-only arrays
        pr = _coupled(a, b)
    with _lock:
        _kept[key] = pr  # the most recently used goes last
        while len(_kept) > _KEPT:
            del _kept[next(iter(_kept))]
    return replace(pr, cas=list(pr.cas), steps=list(pr.steps), groups=list(pr.groups))


def _coupled(a: _Factor, b: _Factor) -> ProductRep:
    """The ProductRep of a (x) b that `primitive_coproduct` describes."""
    d1, d2 = len(a.two_m), len(b.two_m)
    two_m = np.add.outer(a.two_m, b.two_m).ravel()
    # weight blocks in ascending 2M, states in product-basis order inside each; every 2M between the extremes occurs
    block_of = (two_m - two_m.min()) // 2
    sizes = np.bincount(block_of)
    block_m = two_m.min() + 2 * np.arange(len(sizes))
    order = np.argsort(block_of, kind="stable")
    starts = np.concatenate(([0], np.cumsum(sizes)))
    pos = np.empty(len(two_m), dtype=int)
    pos[order] = np.arange(len(two_m)) - starts[block_of[order]]
    s_off = np.concatenate(([0], np.cumsum(sizes[1:] * sizes[:-1])))
    dp = np.zeros(s_off[-1])
    i1, i2 = np.arange(d1), np.arange(d2)
    for (r1, c1, v1), (r2, c2, v2) in ((a.plus, (i2, i2, np.ones(d2))), ((i1, i1, np.ones(d1)), b.plus)):  # disjoint
        rows, cols = np.add.outer(r1 * d2, r2).ravel(), np.add.outer(c1 * d2, c2).ravel()
        k = block_of[cols]  # rows lie in block k + 1
        dp[s_off[k] + pos[rows] * sizes[k] + pos[cols]] = np.outer(v1, v2).ravel()
    dp.flags.writeable = False
    n_m, s_at = sizes.tolist(), s_off.tolist()
    steps = [dp[s_at[k]:s_at[k + 1]].reshape(n_m[k + 1], n_m[k]) for k in range(len(n_m) - 1)]

    last, half = len(sizes) - 1, len(sizes) // 2  # blocks k >= half have 2M >= 0
    c_off = [0, *np.cumsum(sizes[half:] ** 2).tolist()]  # of block half + i at c_off[i]
    dc = np.empty(c_off[-1])
    for lo, hi, s, m in zip(c_off, c_off[1:], [*steps[half:], np.zeros((0, 1))], block_m[half:].tolist()):
        n = s.shape[1]
        np.matmul(s.T, s, out=dc[lo:hi].reshape(n, n))
        dc[lo:hi:n + 1] += m * (m + 2) / 4  # M(M+1)
    dc.flags.writeable = False

    spins = tuple(sorted(t for s1 in a.spins for s2 in b.spins for t in range(abs(s1 - s2), s1 + s2 + 1, 2)))
    cas, groups = [None] * len(sizes), []
    cuts = [half, *(k for k in range(half + 1, len(n_m)) if n_m[k] != n_m[k - 1]), len(n_m)]
    for lo, hi in zip(cuts, cuts[1:]):
        n = n_m[lo]
        c = dc[c_off[lo - half]:c_off[hi - half]].reshape(hi - lo, n, n)
        w, vecs = np.linalg.eigh(c)
        own = int(2 * lo == last)  # the M = 0 block is its own mirror
        ks = (*range(lo, hi), *range(last - lo - own, last - hi, -1))
        for k, x in zip(ks, [*c, *c[own:, ::-1, ::-1]]):
            cas[k] = x
        groups.append((ks, starts[list(ks)][:, None] + np.arange(n), np.concatenate((w, w[own:])),
                       np.concatenate((vecs, vecs[own:, ::-1]))))
    rank = np.arange(len(two_m)) - np.repeat(starts[1:] - len(spins), sizes)  # a size-n block: the n largest 2J
    for x in (two_m, block_m, order, sizes, rank, *(a for g in groups for a in g[1:])):
        x.setflags(write=False)
    return ProductRep(d1, d2, two_m, spins, block_m, cas, steps, order, sizes, rank, groups)


def _label_calculus(pr: ProductRep, vals: np.ndarray) -> list:
    """V diag(vals) V^T of each M block, vals given at the coupled positions: one stacked matmul per group."""
    out = [None] * len(pr.sizes)
    for ks, at, _, vecs in pr.groups:
        for k, x in zip(ks, (vecs * vals[at][:, None, :]) @ vecs.transpose(0, 2, 1)):
            out[k] = x
    return out


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

    steps[k] is Delta'(J+) from the M block k of pr to block k+1, and Delta'(J-) is its transpose. j3 is
    None when Delta'(J3') = Delta(J3) = diag(M); for a family that shifts the spectrum, j3[k] is the
    Delta'(J3') block of block k.
    """

    pr: ProductRep
    steps: list
    j3: Optional[list] = None


def _dense(cop: Coproduct) -> tuple:
    """(Delta(J+'), Delta(J-'), Delta(J3')) of cop scattered into zeros; Delta(J3') is pr.DJ3 without a shift."""
    pr, vals = cop.pr, _flat(cop.steps)
    djp, djm = (_scatter(pr.dim, at, vals) for at in pr._step_at)
    return djp, djm, pr.DJ3 if cop.j3 is None else _scatter(pr.dim, pr._block_at, _flat(cop.j3))


def transferred_coproduct(pr: ProductRep, t: Transfer, order: str = "source") -> Coproduct:
    """The Coproduct of the transfer map t by joint calculus on pr's coupled labels.

    Delta(J+) maps the M block into the M+1 block only, and the factor F = V diag(h^(1/2)) V^T (h = 0 at
    M = J) is block-diagonal over M, so order='source' gives S_M @ F_M and order='target' gives
    F_{M+1} @ S_M, with S_M the stored step block `pr.steps`. A shift s gives the Delta(J3') blocks
    V diag(s_J) V^T + M I. t.factor is called once, on the labels with M < J in coupled-position order
    (ascending M, then ascending J), so it names the first inadmissible one; t.shift once, on pr.spins.
    """
    if order not in ("source", "target"):
        raise ValueError("order must be 'source' or 'target'")
    spins = np.array(pr.spins, dtype=int)
    two_j, two_m = spins[pr.rank], pr.two_m[pr.order]
    h, below = np.zeros(pr.dim), two_j != two_m
    h[below] = t.factor(two_j[below], two_m[below])
    f = _label_calculus(pr, np.sqrt(h))
    steps = [s @ f[k] if order == "source" else f[k + 1] @ s for k, s in enumerate(pr.steps)]
    if t.shift is None:
        return Coproduct(pr, steps)
    j3 = _label_calculus(pr, t.shift(spins)[pr.rank])
    for x, n, m in zip(j3, pr.sizes.tolist(), pr.block_m.tolist()):
        x.flat[::n + 1] += m / 2.0
    return Coproduct(pr, steps, j3)


def deformed_coproduct(pr: ProductRep, alpha: Sequence, order: str = "source"):
    """The dense (DJp_hat, DJm_hat, DJ3) of `transferred_coproduct` with `structure.polynomial_transfer`.

    A negative divided difference below the highest weight raises InadmissibleProductError with the exact
    c and M. order='target' puts the factor at the target state, which is not an algebra map in general.
    """
    return _dense(transferred_coproduct(pr, polynomial_transfer(alpha, max(pr.spins)), order))


def quadratic_coproduct(pr: ProductRep, alpha: float):
    """The dense (DJ3_a, DJp_a, DJm_a) of `transferred_coproduct` with `structure.quadratic_transfer`."""
    djp, djm, dj3 = _dense(transferred_coproduct(pr, quadratic_transfer(alpha, max(pr.spins))))
    return dj3, djp, djm


def cocommutativity_residuals(cop: Coproduct) -> list[float]:
    """Swap-conjugation residuals ||P X P^T - X|| of (Delta'(J+'), Delta'(J-'), Delta'(J3')) on V (x) V, by block.

    V is an irrep, so the states i1 (x) i2 of an M block have one i1 + i2 and ascending i1: the swap
    v (x) w -> w (x) v reverses each block. The residual of Delta'(J+') is ||S_k[::-1, ::-1] - S_k|| over its
    step blocks S_k, that of Delta'(J-') = Delta'(J+')^T the same, and that of Delta'(J3') the same over its
    M blocks (0 for diag(M)).
    """
    pr = cop.pr
    if pr.d1 != pr.d2 or len(pr.sizes) != 2 * pr.d1 - 1:
        raise ValueError("cocommutativity_residuals requires equal irreducible tensor factors")
    plus = _norm(s[::-1, ::-1] - s for s in cop.steps)
    return [plus, plus, 0.0 if cop.j3 is None else _norm(x[::-1, ::-1] - x for x in cop.j3)]


def cocommutativity_check(matrices: Sequence[np.ndarray], d: int) -> list[float]:
    """Swap-conjugation residuals ||P X P^T - X|| for dense coproduct matrices on V (x) V.

    With t[a, b] the d x d block <a b| X |. .>, P X P^T holds t[b, a]^T there, so
    the squared residual is sum_a ||t[a, a] - t[a, a]^T||^2 + 2 sum_{a<b}
    ||t[a, b] - t[b, a]^T||^2, read one slab of b >= a per a. Kept for the benchmark's dense API.
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
    at = cop.pr.order  # one state per block, ascending M: step k lands on the state at[k + 1]
    w = cop.pr.two_m / 2.0
    if cop.j3 is not None:
        w[at] = _flat(cop.j3)
    u = np.zeros(len(at) - 1)
    u[at[1:]] = _flat(cop.steps)
    return w, u


def hopf_axiom_checks(rep: MatrixRep, family: Optional[Callable[[int], Transfer]] = None,
                      tol: Optional[float] = None, cop: Optional[Coproduct] = None) -> VerificationReport:
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
    V (x) V, unless tol is given. cop is the family's Coproduct on V (x) V, built from the map at top, when the
    caller has it (`nlsl2 hopf` at j1 == j2); it is built here otherwise.
    """
    t = (family or partial(polynomial_transfer, [1]))(2 * rep.two_j)
    report = VerificationReport()
    j, d, w = rep.j, rep.dim, antipode_realization(rep.j)
    weights, u = rep.ladder
    irrep = _transferred_irrep(j, t)
    cop = cop or transferred_coproduct(primitive_coproduct(rep, rep), t)
    k0 = len(cop.pr.sizes) // 2  # the M = 0 block
    v, v_t = _antipode_vectors(w, cop.pr.order[cop.pr.sizes[:k0].sum():][:cop.pr.sizes[k0]])
    # Delta'(J+') and Delta'(J-') = Delta'(J+')^T from the M = 0 block (none at j = 0), and Delta'(J3') there
    up, down = (cop.steps[k0], cop.steps[k0 - 1].T) if cop.steps else (np.zeros((0, len(v))),) * 2
    j3 = np.zeros((len(v),) * 2) if cop.j3 is None else cop.j3[k0]
    j3_scale = _norm(cop.pr.two_m / 2.0) if cop.j3 is None else _norm(cop.j3)
    counits = {side: _counit_ladder(transferred_coproduct(primitive_coproduct(*pair), t))
               for side, pair in (("id x eps", (rep, build_sl2(0))), ("eps x id", (build_sl2(0), rep)))}
    # S(J+') = -h(C, -J3)^(1/2) J+: the rows m = j, ..., -j+1 of J+ take h at 2M = -2m = -2j, ..., 2j-2
    s_plus = np.diag(-np.sqrt(_factors(j, t)[::-1]) * u, 1)
    plus_scale = _norm(cop.steps)
    gens = (("J3'", irrep.J3, np.diag(irrep.gamma - weights), j3, j3.T, j3_scale, 0),
            ("J+'", irrep.Jplus, s_plus, up, down, plus_scale, 1),
            ("J-'", irrep.Jminus, s_plus.T, down, up, plus_scale, 1))
    for name, x, formula, delta, delta_t, scale, k in gens:
        bound = gate(d, _norm(x), tol)
        report.add_numeric(f"S({name}) realization vs formula", _norm(apply_antipode(x, w) - formula),
                           bound, context=f"j={j}")
        for axiom, r in (("m(id x S)", delta @ v), ("m(S x id)", delta_t @ v_t)):
            report.add_numeric(f"antipode axiom {axiom}Delta({name}) = 0", _norm(r),
                               gate(d * d, scale, tol), context=f"j={j} (x) j={j}")
        for side, ladder in counits.items():
            report.add_numeric(f"counit ({side})Delta({name}) = {name}",
                               _norm(ladder[k] - irrep.ladder[k]), bound, context=f"j={j} (x) j=0")
    return report


def triple_coassociativity_residual(j, alpha: Sequence) -> float:
    """Numeric coassociativity witness for the deformed coproduct on V^(x)3.

    Builds (V (x) V) (x) V and V (x) (V (x) V) with `primitive_coproduct`, deforms each with the polynomial
    `transferred_coproduct`, and returns the largest difference between the bracketings of Delta(J3), the
    Delta(C) blocks, the Delta(J+) steps and the deformed steps; equal 2M give both the same weight blocks.
    Raises InadmissibleProductError when a component of V^(x)3 is inadmissible.
    """
    rep = build_sl2(halfint(j))
    inner = primitive_coproduct(rep, rep)
    left, right = primitive_coproduct(inner, rep), primitive_coproduct(rep, inner)
    t = polynomial_transfer(alpha, max(left.spins))
    parts = [([p.two_m / 2.0], p.cas, p.steps, transferred_coproduct(p, t).steps)
             for p in (left, right)]
    return max(_norm(a - b for a, b in zip(x, y)) for x, y in zip(*parts))
