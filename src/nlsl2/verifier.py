"""Exact and numerical verification checks producing structured reports."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .coefficients import _epsilon_row, beta_from_alpha, format_rational, over_common_denominator
from .halfint import halfint
from .qdeform import QParam, q_bracket, q_brackets, uq_casimir_residuals
from .repbuilder import MatrixRep, ladder_products
from .structure import Polynomial, StructureSpec, ladder_numerators

if TYPE_CHECKING:
    from .hopf import Coproduct

EPS = float(np.finfo(float).eps)
MAX_TRUNC = 512  # terms of the q-series identity: above the default's 467 at the q-range edge; rows to 512 hold 40 MB


def gate(dim: int, scale: float, tol: Optional[float] = None) -> float:
    """A numeric check's bound: 8 eps dim scale, scale the norm of the identity's largest term, or tol."""
    return 8 * EPS * dim * scale if tol is None else tol


@dataclass
class Check:
    """One named verification: exact (no tolerance) or numeric (residual)."""

    name: str
    kind: str  # "exact" | "numeric"
    passed: bool
    residual: Optional[float] = None
    context: str = ""
    bound: Optional[float] = None  # the gate a numeric residual is held to
    discrepancy: Optional[str] = None  # exact nonzero mismatch, as 'p/q'

    def to_json_dict(self) -> dict:
        d = {"name": self.name, "kind": self.kind, "pass": self.passed, "context": self.context}
        if self.kind == "numeric":
            d["residual"], d["bound"] = self.residual, self.bound
        if self.discrepancy is not None:
            d["discrepancy"] = self.discrepancy
        return d


@dataclass
class VerificationReport:
    """A list of checks; serializable and renderable as a table."""

    checks: list = field(default_factory=list)

    def add_exact(self, name: str, discrepancy: Fraction | int, context: str = ""):
        ok = discrepancy == 0
        self.checks.append(
            Check(name, "exact", ok, context=context,
                  discrepancy=None if ok else format_rational(discrepancy))
        )

    def add_numeric(self, name: str, residual: float, bound: float, context: str = ""):
        passed = bool(-math.inf < residual <= bound < math.inf)  # a non-finite residual or bound FAILs
        self.checks.append(Check(name, "numeric", passed, float(residual), context, float(bound)))

    def extend(self, other: "VerificationReport"):
        self.checks.extend(other.checks)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "checks": [c.to_json_dict() for c in self.checks],
            "summary": {
                "total": len(self.checks),
                "passed": sum(c.passed for c in self.checks),
                "all_passed": self.all_passed,
            },
        }

    def render_table(self) -> str:
        lines = [f"{'check':<52} {'kind':<8} {'result':<6} residual"]
        for c in self.checks:
            res = "exact" if c.kind == "exact" else f"{c.residual:.3e} (gate {c.bound:.1e})"
            if c.discrepancy:
                res = f"off by {c.discrepancy}"
            lines.append(f"{c.name:<52} {c.kind:<8} {'pass' if c.passed else 'FAIL':<6} {res}")
        lines.append(f"{sum(c.passed for c in self.checks)}/{len(self.checks)} checks passed")
        return "\n".join(lines)


def exact_recurrence_check(alpha: Sequence, j) -> VerificationReport:
    """Ladder difference identity, exact on scaled integers.

    For every m in -j+1..j the drop F(j, m-1) - F(j, m) must equal the odd
    polynomial sum_p beta_p (2m)^(2p+1) with beta recovered from alpha. F
    comes as ints over phi's common denominator D (`ladder_numerators`),
    beta as ints over its own common denominator B, and each check compares
    the two sides cross-multiplied; a FAIL carries the exact Fraction
    difference.
    """
    j = halfint(j)
    b_num, b_den = over_common_denominator(beta_from_alpha(alpha))
    ns, d = ladder_numerators(StructureSpec(Polynomial(alpha), j))
    fs = [*reversed(ns), 0]  # D F(j, m) for m = -j, ..., j; F(m) of one step is F(m-1) of the next
    ts = range(2 - j.twice, j.twice + 1, 2)
    squares = [t * t for t in range(j.twice, -1, -2)]
    evens = [0] * len(squares)  # B sum_p beta_p t^(2p) at t = 2j, 2j-2, ..., by Horner in t^2
    for b in reversed(b_num):
        evens = [r * sq + b for r, sq in zip(evens, squares)]
    rhs = evens[1:len(evens) - 1 + j.twice % 2] + evens[::-1]  # over ts: even in t, so -t reuses t
    diffs = [(f_below - f_m) * b_den - r * t * d for f_below, f_m, r, t in zip(fs, fs[1:], rhs, ts)]
    # each m = t/2 as HalfInt prints it: t // 2 when j is an integer, else "t/2"
    name = f"ladder-difference j={j} m="
    div, suffix = (2, "") if j.twice % 2 == 0 else (1, "/2")
    context = "F(j,m-1)-F(j,m) vs odd polynomial in 2m"
    return VerificationReport([
        Check(f"{name}{t // div}{suffix}", "exact", not diff, None, context, None,
              format_rational(Fraction(diff, d * b_den)) if diff else None)
        for t, diff in zip(ts, diffs)
    ])


def _odd_series(two_j3: np.ndarray, beta: Sequence) -> np.ndarray:
    """sum_p beta_p (2 J3)^(2p+1) on the diagonal two_j3 of 2 J3."""
    target = np.zeros_like(two_j3)
    power = two_j3
    two_j3_sq = two_j3 * two_j3
    for p, b in enumerate(beta):
        if p > 0:
            power = power * two_j3_sq
        target = target + float(b) * power
    return target


def _norm(x) -> float:
    """`_norms` of one x."""
    return _norms(x)[0]


_RUN = 1 << 21  # entries of blocks joined for one dot product: 16 MiB of float64


def _run_norms(rows, width: int):
    """The blocks of rows, each row a tuple of `width` blocks of one size, joined column by column end to end into
    runs of _RUN or more entries but for the last, which may be shorter or empty, and the `_run_norm` of each run: a
    list of `width` at a time. A run is joined only when its blocks are in, sized as they are, so small blocks
    allocate no more than their own size; one run and its blocks are held at a time, as they are while it is
    joined."""
    cols, size = [[np.empty(0)] for _ in range(width)], 0
    for row in rows:
        for col, b in zip(cols, row):
            col.append(b)
        if (size := size + row[0].size) >= _RUN:
            yield [_run_norm(np.concatenate(col, axis=None)) for col in cols]
            cols, size = [[np.empty(0)] for _ in range(width)], 0
    yield [_run_norm(np.concatenate(col, axis=None)) for col in cols]


def _norms(*xs) -> list:
    """Frobenius norm of each x, an array or a block-diagonal matrix given as an iterable of its blocks (0 for none,
    as on V(0) (x) V(0)), read a run of blocks at a time (`_block_norms`).

    A run's norm is the plain one, as np.linalg.norm takes it, while its sum of squares is a finite float; when that
    sum overflows, it is taken in units of the run's max|x|. One np.errstate keeps the overflow silent for all.
    """
    with np.errstate(over="ignore"):
        return [_run_norm(x.ravel(order="K")) if isinstance(x, np.ndarray) else _block_norms(zip(x), 1)[0]
                for x in xs]


def _block_norms(rows, width: int) -> list:
    """The `_norms` of `width` block-diagonal matrices read side by side, rows giving a tuple of one block of each,
    all of one size: each the math.hypot of its runs' norms (`_run_norms`)."""
    with np.errstate(over="ignore"):
        return [math.hypot(*col) for col in zip(*_run_norms(rows, width))]


def _run_norm(run: np.ndarray) -> float:
    """The norm of one run of `_norms`."""
    sq, top = float(run.dot(run)), 1.0
    if not math.isfinite(sq) and np.isfinite(run).all():  # past the float range, with no inf or nan entry
        top = float(np.abs(run).max())
        run = run / top
        sq = float(run.dot(run))
    return top * math.sqrt(sq)


def commutator_residuals(rep: MatrixRep | Coproduct, beta: Sequence, tol: Optional[float] = None) -> VerificationReport:
    """Frobenius residuals of the two defining commutation relations, read from rep's stored form.

    An irrep (`repbuilder.MatrixRep`) is read from its ladder (w, u) = (diagonal of J3, superdiagonal of
    J+), J- = J+^T, in O(d): the residuals of [J3, J+] - J+ and [J3, J-] + J- both have the entries
    (w[:-1] - w[1:] - 1) * u, and [J+, J-] is the diagonal (u^2|0) - (0|u^2). A coproduct
    (`hopf.Coproduct`) is read from its step blocks B_k of Delta'(J+) between the weights
    w_k < w_(k+1) of its product: [J3, J+-] -+ J+- is (w_(k+1) - w_k - 1) B_k on each step, and on the
    block of w_k [J+, J-] - sum_p beta_p (2 J3)^(2p+1) is B_(k-1) B_(k-1)^T - B_k^T B_k - f(w_k) I.
    A coproduct of a shifted family, whose Delta'(J3') is not Delta(J3), raises ValueError. The `gate`
    scales are ||J3|| ||J+|| for [J3, J+-] and max(||J+ J-||, ||f(2 J3)||) for [J+, J-], all norms by `_norm`.
    """
    report = VerificationReport()
    # The defining relation is in the (possibly shifted) diagonal generator
    # itself, so the shift gamma stays inside J3 here.
    if isinstance(rep, MatrixRep):
        w, u = rep.ladder
        pm, mp = ladder_products(u)
        series = _odd_series(2 * w, beta)
        r_comm, n_pm = _norms(pm - mp - series, pm)
        plus, terms = (w[:-1] - w[1:] - 1) * u, (series, w, u)
        dim, where = rep.dim, f"{rep.family} j={rep.j}"
    else:
        if rep.j3 is not None:
            raise ValueError("commutator_residuals expects a coproduct whose Delta'(J3') is Delta(J3)")
        steps, w, sizes = rep.steps, rep.pr.block_m / 2.0, rep.pr.sizes
        ins, outs = [np.zeros((sizes[0], 0)), *steps], [*steps, np.zeros((0, sizes[-1]))]  # into and out of a block
        series = _odd_series(2 * w, beta)

        def blocks():  # each block's J+ J- formed once, for the residual and for its own norm, no list of them held
            for a, b, f in zip(ins, outs, series):
                pm = a @ a.T
                r = pm - b.T @ b
                r.flat[::len(r) + 1] -= f
                yield r, pm

        r_comm, n_pm = _block_norms(blocks(), 2)
        plus = ((hi - lo - 1) * b for lo, hi, b in zip(w, w[1:], steps))
        terms = series * np.sqrt(sizes), w * np.sqrt(sizes), steps
        dim, where = rep.pr.dim, f"product dim={rep.pr.dim}"
    r_plus, n_f, n_3, n_p = _norms(plus, *terms)  # [J3, J-] + J- has the same entries as [J3, J+] - J+
    report.add_numeric("[J3,J+] = +J+", r_plus, gate(dim, n_3 * n_p, tol), context=where)
    report.add_numeric("[J3,J-] = -J-", r_plus, gate(dim, n_3 * n_p, tol), context=where)
    report.add_numeric("[J+,J-] = sum_p beta_p (2 J3)^(2p+1)", r_comm, gate(dim, max(n_pm, n_f), tol),
                       context=f"{where} beta={[float(b) for b in beta]}")
    return report


def uq_checks(j, delta: float, tol: Optional[float] = None, rep: Optional[MatrixRep] = None) -> VerificationReport:
    """The three q-Casimir residuals of `qdeform.uq_casimir_residuals` at the HalfInt j, each gated at its own
    term's scale, after [J+, J-] = [2 J3] on the diagonal of rep (`repbuilder.build_uq` at j) when one is given: that
    one takes every term, tol too, in units of the largest entry, so its norms stay finite near the float range."""
    report = VerificationReport()
    if rep is not None:
        pm, mp = ladder_products(rep.ladder[1])
        target = q_brackets(np.arange(j.twice, -j.twice - 1, -2), delta)  # [2m], m = j, ..., -j
        top = max(np.abs(pm).max(), np.abs(target).max()) or 1.0
        report.add_numeric("[J+,J-] = [2 J3] diagonal", float(np.linalg.norm((pm - mp - target) / top)),
                           gate(rep.dim, max(np.linalg.norm(pm / top), np.linalg.norm(target / top)),
                                tol and tol / top), context=f"in units of max |entry| = {top:.6g}")
    spread, root, inversion = uq_casimir_residuals(j, QParam(delta))
    bracket = q_bracket(j.value + 0.5, delta)
    report.add_numeric("q-Casimir diagonal constant", spread, gate(j.twice + 1, bracket ** 2, tol))
    report.add_numeric("sqrt(Chat + [1/2]^2) = [j+1/2]", root, gate(j.twice + 1, bracket, tol))
    report.add_numeric("q-Casimir arcsinh relation", inversion, gate(j.twice + 1, j.value + 0.5, tol))
    return report


def q_series_identity_residual(j, m, delta: float, trunc: Optional[int] = None) -> float:
    """Truncation residual of the q-bracket ratio against the epsilon series.

    LHS is (cosh(d(2j+1)) - cosh(d(2m+1))) / (2 sinh^2 d (j-m)(j+m+1)); RHS is the divergence-free
    series (d + sum_k T_k) / sinh d to k = trunc, T_k = (2d)^(2k+1)/(2k+2)! sum_r eps_r(k) P_r, with
    P_r = sum_s (j(j+1))^s (m(m+1))^(r-s) = (c^(r+1) - x^(r+1)) / (4^r (c - x)), c = 4 j(j+1), x = 4 m(m+1).
    Each T_k is exact on integers (d read exactly) and rounded once, and fsum adds them, so no power of
    j(j+1) or eps_r(k) overflows where the series does not. Term k is of order x^(2k+2)/(2k+2)!,
    x = |d| (2j+1), so the default trunc, n/2 for the first even n >= x with x^n/n! <= eps e^x, leaves
    a tail below the LHS's rounding: at most 467 terms inside `qdeform.check_q_range`. A trunc past MAX_TRUNC
    raises ValueError.
    """
    j, m = halfint(j), halfint(m)
    if j == m:
        raise ValueError("q_series_identity_residual requires m != j")
    if delta == 0:
        raise ValueError("q_series_identity_residual requires delta != 0")
    jv, mv = j.value, m.value
    if trunc is None:
        x, n = abs(delta) * (2 * jv + 1), 2
        while n < x or n * math.log(x) - math.lgamma(n + 1) > x + math.log(EPS):
            n += 2
        trunc = n // 2
    if trunc > MAX_TRUNC:
        raise ValueError(f"the q-series identity at j={j}, delta={delta} needs {trunc} terms, past the cap of "
                         f"{MAX_TRUNC}")
    lhs = (math.cosh(delta * (2 * jv + 1)) - math.cosh(delta * (2 * mv + 1))) / (
        2 * math.sinh(delta) ** 2 * (jv - mv) * (jv + mv + 1)
    )
    c, x = j.twice * (j.twice + 2), m.twice * (m.twice + 2)
    sums = [(c ** (r + 1) - x ** (r + 1)) // (c - x) << 2 * (trunc - r) for r in range(1, trunc + 1)]  # 4^trunc P_r
    p, q = float(delta).as_integer_ratio()
    terms = []
    for k in range(1, trunc + 1):
        e, d = _epsilon_row(k)
        num = sum(map(operator.mul, e, sums)) * (2 * p) ** (2 * k + 1)
        terms.append(num / ((d * math.factorial(2 * k + 2) << 2 * trunc) * q ** (2 * k + 1)))
    return abs(lhs - (delta + math.fsum(terms)) / math.sinh(delta))


def q_shift_rigidity(j, delta: float) -> list[float]:
    """Real roots in gamma of the highest-weight condition [-2 gamma][2j+1] = 0.

    For real delta != 0, [2j+1] = sinh((2j+1) delta)/sinh(delta) is nonzero and
    sinh is injective, so [-2 gamma] = 0 holds only at gamma = 0: the roots are
    exactly [0.0], and the spectrum shift buys no new q-deformed representations.
    """
    halfint(j)  # rejects labels off the half-integer lattice
    if delta == 0:
        raise ValueError("q_shift_rigidity requires delta != 0")
    return [0.0]
