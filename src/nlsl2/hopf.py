"""Tensor products, coproducts and Hopf-axiom checks.

`primitive_coproduct` is the one place that labels a product space: Delta(J3) is diagonal, with each state's
integral 2M read from the factors' ladders, and an M block of size n holds the n largest 2J of the
Clebsch-Gordan series. A product is stored as its coupled basis: the eigenvectors V_M of each M block of
Delta(C), and the (M -> M+1) step S_M of Delta(J+) lifted onto them, S_M V_M. Both are built with no dense
matrix: S_M from the factors' J+ entries, the Delta(C) blocks read off it, and only the blocks with 2M >= 0 go to
`eigh`, the others being their mirrors (Edmonds, eq. 3.5.17); S_M and Delta(C) are dropped once lifted. V and
S V are kept zero-padded, stacked by size rounded up to a multiple of 8, so a function of the exact labels, as a
deformed coproduct is, costs a stacked matmul per stack. The product of two irreps is built once per process and
kept, for the 16 most recently used factor pairs.

`transferred_coproduct` applies a family's `structure` transfer map to the coupled labels (2J, 2M) in one call
(the factor is 0 at M = J) and keeps the result on the same weight blocks, as a `Coproduct`: Delta'(J+) is
S_M V_M diag(h^(1/2)) V_M^T in either order, the factor taken at (J, M) or (J, M+1). On V (x) V, V an
irrep, the swap v (x) w -> w (x) v reverses each block, which `cocommutativity_residuals` reads. Dense matrices
are scattered from the padded stacks, only for the dense API the benchmark calls (`deformed_coproduct`,
`quadratic_coproduct`, `cocommutativity_check`). `hopf_axiom_checks` tests one family's transfer map against
the counit and antipode axioms on weight blocks.

Tensor factors are sl2 irreps. Coassociativity is not checked: a deformed Delta'(X) is written through Delta(C),
Delta(J3) and Delta(J+-), so it is coassociative because the primitive Delta is.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Callable, Optional, Sequence

import numpy as np

from .halfint import HalfInt, halfint
from .repbuilder import MatrixRep, _factors, _transferred_irrep, build_sl2
from .structure import InadmissibleLabelError, Transfer, polynomial_transfer, quadratic_transfer
from .verifier import VerificationReport, _norm, gate


InadmissibleProductError = InadmissibleLabelError  # a coupled (J, M) label outside a transfer map's domain


# ---------------------------------------------------------------------------
# product representations


_PAD = 8  # a block of size n is stacked padded to p x p, p = 8 ceil(n / 8)


@dataclass
class ProductRep:
    """Primitive coproduct on V1 (x) V2, stored as its coupled basis with exact (J, M) labels.

    Delta(J3) is diag(M), and Delta(C) is block-diagonal over M with eigenvalue J(J+1) on label (J, M). A block of
    size n is kept zero-padded to p x p, p = 8 ceil(n / 8), in the stack of its size class p, as slot i of stack
    c, (c, i) = where[k]: its eigenvectors V_k are the columns of vecs[c][i], and lift[c][i] holds S_k V_k, S_k the
    block of Delta(J+) from block k to block k+1. slot maps each coupled position to its place in the stacks'
    (blocks, p) label rows, laid end to end. Every array is read-only and shared by the ProductReps of one factor
    pair (`primitive_coproduct`) with `at`, the dense positions (`_at`); the dense, writable DJ3, DJp, DJm and DC
    are built on first read, per ProductRep, from the factors' J+ superdiagonals `ladders`.
    """

    d1: int
    d2: int
    ladders: tuple  # (u1, u2): each factor's J+ superdiagonal
    two_m: np.ndarray  # 2M of each basis state
    spins: tuple  # 2J over the Clebsch-Gordan series, ascending
    block_m: np.ndarray  # 2M of each block, ascending
    order: np.ndarray  # the state at each coupled position (block column): block 0's states, block 1's, ...
    sizes: np.ndarray  # the size of each block
    rank: np.ndarray  # index into spins of the 2J at each coupled position: ascending M, then ascending J
    w: np.ndarray  # the Delta(C) eigenvalue at each coupled position
    vecs: tuple  # per stack, the eigenvectors of its blocks: (blocks, p, p)
    lift: tuple  # per stack, the Delta(J+) step times the eigenvectors of each of its blocks: (blocks, r, p)
    where: tuple  # (stack, slot) of each block
    slot: np.ndarray  # each coupled position's label slot
    at: dict  # 'plus', 'minus', 'block': see `_at`

    @property
    def dim(self) -> int:
        return self.d1 * self.d2

    def _views(self, stacks: list, rows: list) -> list:
        """The rows[k] x sizes[k] corner of block k's slot in stacks laid out as vecs or lift, for k < len(rows)."""
        return [stacks[c][i, :r, :n] for (c, i), r, n in zip(self.where, rows, self.sizes.tolist())]

    def _at(self, name: str) -> np.ndarray:
        """Flat dense positions of the padded entries (dim * dim on the padding) of stacks laid out as `lift`, as
        Delta(J+) ('plus') or its transpose ('minus'), or as `vecs` ('block'); all three built on the first read,
        into the shared `at`."""
        if name not in self.at:
            dim, states = self.dim, np.split(self.order, np.cumsum(self.sizes)[:-1])
            pos = (("plus", self.lift, [r[:, None] * dim + c for c, r in zip(states, states[1:])]),
                   ("minus", self.lift, [r[:, None] + c * dim for c, r in zip(states, states[1:])]),
                   ("block", self.vecs, [c[:, None] * dim + c for c in states]))
            for key, like, blocks in pos:
                out = [np.full(x.shape, dim * dim) for x in like]
                for view, b in zip(self._views(out, [len(b) for b in blocks]), blocks):
                    view[...] = b
                self.at[key] = np.concatenate([x.ravel() for x in out])
        return self.at[name]

    @cached_property
    def DJ3(self) -> np.ndarray:
        return np.diag(self.two_m / 2.0)

    @cached_property
    def DJp(self) -> np.ndarray:
        out, (r, c, v) = np.zeros((self.dim, self.dim)), _kron_sum(*self.ladders)
        out[r, c] = v
        return out

    @cached_property
    def DJm(self) -> np.ndarray:
        out, (r, c, v) = np.zeros((self.dim, self.dim)), _kron_sum(*self.ladders)
        out[c, r] = v
        return out

    @cached_property
    def DC(self) -> np.ndarray:
        """S_k^T S_k + M(M+1) I on each block k, S_k the step of DJp from block k (none from the top block)."""
        out, djp = np.zeros((self.dim, self.dim)), self.DJp
        states = np.split(self.order, np.cumsum(self.sizes)[:-1])
        for lo, hi, m in zip(states, [*states[1:], states[0][:0]], self.block_m.tolist()):
            s = djp[np.ix_(hi, lo)]
            c = s.T @ s
            c.flat[::len(lo) + 1] += m * (m + 2) / 4  # M(M+1)
            out[np.ix_(lo, lo)] = c
        return out


def _kron_sum(u1: np.ndarray, u2: np.ndarray) -> tuple:
    """(rows, cols, values) of the entries of J+ (x) 1 + 1 (x) J+ on V1 (x) V2, the factors' J+ superdiagonals u1
    and u2: the two terms' entries are disjoint."""
    d1, d2 = len(u1) + 1, len(u2) + 1
    i1, i2 = np.arange(d1), np.arange(d2)
    parts = [(np.add.outer(r1 * d2, r2).ravel(), np.add.outer(c1 * d2, c2).ravel(), np.outer(v1, v2).ravel())
             for (r1, c1, v1), (r2, c2, v2) in (((i1[:-1], i1[1:], u1), (i2, i2, np.ones(d2))),
                                                ((i1, i1, np.ones(d1)), (i2[:-1], i2[1:], u2)))]
    return tuple(np.concatenate(x) for x in zip(*parts))


def _scatter(pr: ProductRep, name: str, stacks: Sequence[np.ndarray]) -> np.ndarray:
    """The dim x dim matrix holding the entries of the padded stacks at pr._at(name), and zeros elsewhere."""
    out = np.zeros(pr.dim * pr.dim + 1)  # the last entry takes the padding
    out[pr._at(name)] = np.concatenate([x.ravel() for x in stacks])
    return out[:-1].reshape(pr.dim, pr.dim)


_KEPT = 16  # products kept for later calls; a benchmark pass cycles through at most 9 pairs
_kept: dict = {}  # each factor's (2j, J+ superdiagonal) -> ProductRep, least recently used first
_lock = threading.Lock()


def primitive_coproduct(rep1: MatrixRep, rep2: MatrixRep) -> ProductRep:
    """Delta(X) = X (x) 1 + 1 (x) X for the generators, with the product Casimir, in its coupled basis.

    Each factor is an sl2 irrep. The step S_k of Delta(J+) from block k to k+1 holds the entries of the dense
    Kronecker sum. The 2M >= 0 blocks of Delta(C), S_k^T S_k + M(M+1) I, go to `eigh`, one stacked call per run
    of one size; each -M block's eigenvectors are its mirror's with the states reversed (Edmonds, eq. 3.5.17). A
    block's k-th eigenvector takes the k-th of the ascending labels {J in spins : J >= |M|}, exactly, as distinct
    J(J+1) lie at least 2 apart. The steps are then lifted to S_k V_k, one stacked matmul per size class, and they
    and Delta(C) are dropped. The product is kept, keyed by each factor's 2j and J+ superdiagonal, for the 16 most
    recently used pairs, and each call returns a new ProductRep over its read-only arrays.
    """
    for x in (rep1, rep2):
        if (kind := x.family if isinstance(x, MatrixRep) else type(x).__name__) != "sl2":
            raise ValueError(f"tensor factors must be sl2 irreps, not {kind!r}")
    key = tuple((x.two_j, x.ladder[1].dtype.str, x.ladder[1].tobytes()) for x in (rep1, rep2))
    with _lock:
        pr = _kept.pop(key, None)
    if pr is None:  # built unlocked: two threads building one pair at once make equal read-only arrays
        pr = _coupled(rep1.two_j, rep1.ladder[1], rep2.two_j, rep2.ladder[1])
    with _lock:
        _kept[key] = pr  # the most recently used goes last
        while len(_kept) > _KEPT:
            del _kept[next(iter(_kept))]
    return replace(pr)


def _coupled(two_j1: int, u1: np.ndarray, two_j2: int, u2: np.ndarray) -> ProductRep:
    """The ProductRep of V(j1) (x) V(j2), with J+ superdiagonals u1 and u2, that `primitive_coproduct` describes."""
    d1, d2 = two_j1 + 1, two_j2 + 1
    two_m = np.add.outer(np.arange(two_j1, -d1, -2), np.arange(two_j2, -d2, -2)).ravel()
    # weight blocks in ascending 2M, states in product-basis order inside each; every 2M between the extremes occurs
    block_of = (two_m - two_m.min()) // 2
    sizes = np.bincount(block_of)
    block_m = two_m.min() + 2 * np.arange(len(sizes))
    order = np.argsort(block_of, kind="stable")
    starts = np.concatenate(([0], np.cumsum(sizes)))
    pos = np.empty(len(two_m), dtype=int)
    pos[order] = np.arange(len(two_m)) - starts[block_of[order]]
    n_m, last, half = sizes.tolist(), len(sizes) - 1, len(sizes) // 2  # blocks k >= half have 2M >= 0

    # one stack per padded size p, in ascending k; steps have r rows, the largest next-block size in the stack
    ps, rows, count, where = [], [], [], []
    for n, n1 in zip(n_m, [*n_m[1:], 0]):
        if (p := -(-n // _PAD) * _PAD) not in ps:
            ps.append(p), rows.append(0), count.append(0)
        c = ps.index(p)
        where.append((c, count[c]))
        count[c], rows[c] = count[c] + 1, max(rows[c], n1)
    cls, idx = map(np.array, zip(*where))
    width = np.array(ps)[cls]
    s_off = np.cumsum([0, *(m * r * p for m, r, p in zip(count, rows, ps))])
    dp, first = np.zeros(s_off[-1]), s_off[cls] + idx * np.array(rows)[cls] * width  # of each block's step slot
    r, c, v = _kron_sum(u1, u2)
    k = block_of[c]  # rows lie in block k + 1
    dp[first[k] + pos[r] * width[k] + pos[c]] = v
    plus = [dp[lo:hi].reshape(m, r, p) for lo, hi, m, r, p in zip(s_off, s_off[1:], count, rows, ps)]
    steps = [plus[c][i, :n1, :n0] for (c, i), n0, n1 in zip(where, n_m, n_m[1:])]

    c_off = [0, *np.cumsum(sizes[half:] ** 2).tolist()]  # of block half + i at c_off[i]
    dc = np.empty(c_off[-1])
    for lo, hi, s, m in zip(c_off, c_off[1:], [*steps[half:], np.zeros((0, 1))], block_m[half:].tolist()):
        n = s.shape[1]
        np.matmul(s.T, s, out=dc[lo:hi].reshape(n, n))
        dc[lo:hi:n + 1] += m * (m + 2) / 4  # M(M+1)

    spins = tuple(range(abs(two_j1 - two_j2), two_j1 + two_j2 + 1, 2))
    w, vecs = [None] * len(n_m), tuple(np.zeros((m, p, p)) for m, p in zip(count, ps))
    cuts = [half, *(k for k in range(half + 1, len(n_m)) if n_m[k] != n_m[k - 1]), len(n_m)]
    for lo, hi in zip(cuts, cuts[1:]):
        n = n_m[lo]
        wk, vk = np.linalg.eigh(dc[c_off[lo - half]:c_off[hi - half]].reshape(hi - lo, n, n))
        own = int(2 * lo == last)  # the M = 0 block is its own mirror
        ks = (*range(lo, hi), *range(last - lo - own, last - hi, -1))
        for k, y, v in zip(ks, [*wk, *wk[own:]], [*vk, *vk[own:, ::-1]]):
            (st, i), w[k] = where[k], y
            vecs[st][i, :n, :n] = v
    lift = tuple(s @ x for s, x in zip(plus, vecs))  # S_k V_k, exactly 0 on the padding
    w = np.concatenate(w)
    rank = np.arange(len(two_m)) - np.repeat(starts[1:] - len(spins), sizes)  # a size-n block: the n largest 2J
    slot = np.repeat(np.cumsum([0, *(m * p for m, p in zip(count, ps))])[cls] + idx * width, sizes) + pos[order]
    ladders = (u1.copy(), u2.copy())
    for x in (two_m, block_m, order, sizes, rank, w, slot, *ladders, *vecs, *lift):
        x.setflags(write=False)
    return ProductRep(d1, d2, ladders, two_m, spins, block_m, order, sizes, rank, w, vecs, lift, tuple(where), slot,
                      {})


def _label_calculus(pr: ProductRep, left: Sequence[np.ndarray], vals: np.ndarray,
                    add: Optional[np.ndarray] = None) -> list:
    """L diag(vals) V^T + diag(add) of every M block, L the block's slot in left (pr.vecs or pr.lift), vals and add
    (if given, with left pr.vecs) at the coupled positions: one stacked matmul per stack, zero on the padding. The
    stacks are views of one buffer: the allocator hands one large block out again on the next call, where it
    returns many separate ones to the system, to be faulted in again."""
    lab, out, lo = np.zeros((1 if add is None else 2, sum(len(v) * v.shape[1] for v in pr.vecs))), [], 0
    lab[:, pr.slot] = vals if add is None else (vals, add)
    buf = np.empty(sum(x.size for x in left))
    for x, v in zip(left, pr.vecs):
        m, p = v.shape[:2]
        y = buf[:x.size].reshape(x.shape)
        np.matmul(x * lab[0, lo:lo + m * p].reshape(m, 1, p), v.transpose(0, 2, 1), out=y)
        if add is not None:
            y.reshape(m, p * p)[:, ::p + 1] += lab[1, lo:lo + m * p].reshape(m, p)
        out.append(y)
        buf, lo = buf[x.size:], lo + m * p
    return out


def product_casimir_spectrum(j1, j2) -> list[float]:
    """Clebsch-Gordan oracle: eigenvalues J(J+1), each with multiplicity 2J+1."""
    j1, j2 = halfint(j1), halfint(j2)
    vals = []
    for twoJ in range(abs(j1.twice - j2.twice), j1.twice + j2.twice + 1, 2):
        vals.extend([twoJ * (twoJ + 2) / 4.0] * (twoJ + 1))
    return sorted(vals)


def casimir_spectrum_check(pr: ProductRep, tol: Optional[float] = None) -> VerificationReport:
    """pr's Delta(C) eigenvalues, sorted, against the Clebsch-Gordan oracle `product_casimir_spectrum`."""
    oracle = product_casimir_spectrum(HalfInt(pr.d1 - 1), HalfInt(pr.d2 - 1))
    report = VerificationReport()
    report.add_numeric("Delta(C) spectrum = Clebsch-Gordan J(J+1) pattern", np.abs(np.sort(pr.w) - oracle).max(),
                       gate(pr.dim, oracle[-1], tol))
    return report


@dataclass(frozen=True)
class Coproduct:
    """A deformed coproduct on the weight blocks of the primitive product pr.

    stacks is (plus, j3) in pr's padded layouts: plus laid out as pr.lift, holding Delta'(J+) from each M block to
    the next, and j3 as pr.vecs, holding the Delta'(J3') block of each M, or None when Delta'(J3') = Delta(J3) =
    diag(M). steps[k] and j3[k] view them: Delta'(J+) from block k to block k+1, whose transpose is Delta'(J-), and
    the Delta'(J3') block of block k.
    """

    pr: ProductRep
    stacks: tuple

    @cached_property
    def steps(self) -> list:
        return self.pr._views(self.stacks[0], self.pr.sizes[1:].tolist())

    @cached_property
    def j3(self) -> Optional[list]:
        return None if self.stacks[1] is None else self.pr._views(self.stacks[1], self.pr.sizes.tolist())


def _dense(cop: Coproduct) -> tuple:
    """(Delta(J+'), Delta(J-'), Delta(J3')) of cop scattered into zeros; Delta(J3') is pr.DJ3 without a shift."""
    pr, (plus, j3) = cop.pr, cop.stacks
    return (_scatter(pr, "plus", plus), _scatter(pr, "minus", plus),
            pr.DJ3 if j3 is None else _scatter(pr, "block", j3))


def transferred_coproduct(pr: ProductRep, t: Transfer, order: str = "source") -> Coproduct:
    """The Coproduct of the transfer map t by joint calculus on pr's coupled labels.

    The factor F = V diag(h^(1/2)) V^T (h = 0 at M = J) is block-diagonal over M, and Delta(J+) lifts block M to
    S_M V_M, which S_M maps label by label: V_(M+1)^T S_M V_M is diagonal in J. So order='source', S_M F_M, and
    order='target', F_(M+1) S_M (not an algebra map in general), are both S_M V_M diag(g) V_M^T, with g the
    h^(1/2) of each label (J, M) at (J, M) or at (J, M+1): one stacked matmul per stack of pr, and no eigenvector
    sign enters. A shift s gives the Delta(J3') blocks V diag(s_J) V^T + M I, one more stacked matmul. t.factor
    is called once, on the labels (J, M') it reads, those with M' < J in coupled-position order (ascending M, then
    J), so it names the first inadmissible one.
    """
    if order not in ("source", "target"):
        raise ValueError("order must be 'source' or 'target'")
    spins = np.array(pr.spins, dtype=int)
    two_j, two_m = spins[pr.rank], pr.two_m[pr.order]
    at = two_m + 2 * (order == "target")
    h, below = np.zeros(pr.dim), two_j > at
    h[below] = t.factor(two_j[below], at[below])
    plus = _label_calculus(pr, pr.lift, np.sqrt(h))
    return Coproduct(pr, (plus, None if t.shift is None else
                          _label_calculus(pr, pr.vecs, t.shift(spins)[pr.rank], two_m / 2.0)))


def deformed_coproduct(pr: ProductRep, alpha: Sequence, order: str = "source"):
    """The dense (DJp_hat, DJm_hat, DJ3) of `transferred_coproduct` with `structure.polynomial_transfer`.

    A negative divided difference below the highest weight raises InadmissibleProductError with the exact c and
    M. order='target' puts the factor at the target state, which is not an algebra map in general.
    """
    return _dense(transferred_coproduct(pr, polynomial_transfer(alpha, max(pr.spins)), order))


def quadratic_coproduct(pr: ProductRep, alpha: float):
    """The dense (DJ3_a, DJp_a, DJm_a) of `transferred_coproduct` with `structure.quadratic_transfer`."""
    djp, djm, dj3 = _dense(transferred_coproduct(pr, quadratic_transfer(alpha, max(pr.spins))))
    return dj3, djp, djm


def cocommutativity_residuals(cop: Coproduct) -> list[float]:
    """Swap-conjugation residuals ||P X P^T - X|| of (Delta'(J+'), Delta'(J-'), Delta'(J3')) on V (x) V, by block.

    V is an irrep, so the states i1 (x) i2 of an M block have one i1 + i2 and ascending i1: the swap reverses
    each block. The residual is ||S_k[::-1, ::-1] - S_k|| over the step blocks S_k of Delta'(J+') and of
    Delta'(J-') = Delta'(J+')^T, and the same over the M blocks of Delta'(J3') (0 for diag(M)).
    """
    pr = cop.pr
    if pr.d1 != pr.d2:
        raise ValueError("cocommutativity_residuals requires equal tensor factors")
    plus = _norm(s[::-1, ::-1] - s for s in cop.steps)
    return [plus, plus, 0.0 if cop.j3 is None else _norm(x[::-1, ::-1] - x for x in cop.j3)]


def cocommutativity_check(matrices: Sequence[np.ndarray], d: int) -> list[float]:
    """Swap-conjugation residuals ||P X P^T - X|| for dense coproduct matrices on V (x) V.

    With t[a, b] the d x d block <a b| X |. .>, P X P^T holds t[b, a]^T there, so the squared residual is
    sum_a ||t[a, a] - t[a, a]^T||^2 + 2 sum_{a<b} ||t[a, b] - t[b, a]^T||^2. Kept for the benchmark's dense API.
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

    The antipode of any realized algebra element X is then (W X W^T)^T, linear in X and antimultiplicative,
    sending each generator to its negative.
    """
    return np.flipud(np.diag((-1.0) ** np.arange(halfint(j).twice + 1)))  # W[d - 1 - i, i] = (-1)^i


def apply_antipode(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    return (w @ x @ w.T).T


def _antipode_vectors(w: np.ndarray, indices: np.ndarray) -> tuple:
    """vec(W), vec(W^T) on the states `indices`: m(id x S)X = unvec(X vec W) W^T, m(S x id)X = W unvec(X^T vec W^T)."""
    return w.ravel()[indices], w.T.ravel()[indices]


def _counit_ladder(cop: Coproduct) -> tuple:
    """(diagonal of Delta'(J3'), superdiagonal of Delta'(J+')) on V (x) V(0) or V(0) (x) V: 1 x 1 blocks, V's basis."""
    at, w = cop.pr.order, cop.pr.two_m / 2.0  # one state per block, ascending M: step k lands on the state at[k + 1]
    if cop.j3 is not None:
        w[at] = [x.item() for x in cop.j3]
    u = np.zeros(len(at) - 1)
    u[at[1:]] = [s.item() for s in cop.steps]
    return w, u


def hopf_axiom_checks(rep: MatrixRep, family: Optional[Callable[[int], Transfer]] = None,
                      tol: Optional[float] = None, cop: Optional[Coproduct] = None) -> VerificationReport:
    """Counit and antipode identities of one family's transferred generators on the sl2 irrep V = rep.

    family builds the family's `structure` map for labels 2J <= top, e.g. partial(polynomial_transfer, alpha);
    it is called at top = 2 * 2j, the largest label of V (x) V, and defaults to the sl2 map. X' is the map on V,
    Delta' the map on a product's coupled labels, read from its `Coproduct`. For each of X' = J3', J+', J-':
    - S(X') realized as (W X' W^T)^T against S(J3') = -J3 + s(C), S(J+') = -h(C, -J3)^(1/2) J+ (h at M < J);
    - m(id x S)Delta'(X') = 0 and m(S x id)Delta'(X') = 0 on V (x) V, whose J = 0 part gives eps(X') = 0: with W
      a signed permutation, ||Delta'(X') vec(W)|| and ||Delta'(X')^T vec(W^T)|| on the M = 0 block;
    - the counit: Delta'(X') on V (x) V(0) and on V(0) (x) V, whose blocks are 1 x 1, equals X'.
    Coassociativity is inherited from Delta, through which Delta' is written, and is not checked. Checks are gated
    at ||X'|| on V and ||Delta'(X')|| on V (x) V unless tol is given. cop is the family's Coproduct on V (x) V,
    when the caller has it (`nlsl2 hopf` at j1 == j2); it is built here otherwise.
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

