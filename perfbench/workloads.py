"""The benchmark's workloads: seeded inputs, the timed program calls, and their checks.

An operation builds one object through nlsl2's public API (one irrep, one
tensor product, or one CLI command) and is then checked against the oracles.
Only `run` is timed; `check` runs afterwards and raises oracles.Mismatch for
a wrong output or oracles.FalseFail when the program's own check says FAIL
on an object the oracles accept. Sizes are fixed per workload; the seed
picks the coefficients, so every seed costs about the same.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Union

import numpy as np

import oracles as orc

# (1, 21/400, 3/1600) is beta for alpha = (1, 1/10, 1/100), the ROADMAP's
# false-FAIL example; its inputs do not depend on the seed.
FIXED_ALPHA = (Fraction(1), Fraction(1, 10), Fraction(1, 100))
FIXED_BETA = (Fraction(1), Fraction(21, 400), Fraction(3, 1600))


@dataclass
class Program:
    """The loaded nlsl2 package, its CLI module and the CLI's --output file."""

    nl: object
    cli: object
    out_file: str
    expectations: list = field(default_factory=list)

    def lazy(self, fn, *args):
        """fn(*args) as a cached zero-argument function, evaluated by prepare() after set-up."""
        cached = functools.cache(functools.partial(fn, *args))
        self.expectations.append(cached)
        return cached

    def prepare(self):
        for cached in self.expectations:
            cached()

    def run_cli(self, argv) -> int:
        return self.cli.run(["--format", "json", "--output", self.out_file, *argv])

    def cli_payload(self) -> dict:
        with open(self.out_file) as fh:
            return json.load(fh)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    # basis states whose structure functions the op builds or checks, or a
    # function that gives them once prepare() has run
    states: Union[int, Callable[[], int]] = 0
    perturb: Optional[Callable[[object], object]] = None  # 1e-9 relative error in J+


@dataclass
class Workload:
    ops: list
    smallest: str
    largest: str
    max_order: int  # largest coefficient order, for warming the coefficient caches


def rational_text(values) -> str:
    return ",".join(f"{Fraction(v).numerator}/{Fraction(v).denominator}" for v in values)


def half(two_j: int) -> Fraction:
    return Fraction(two_j, 2)


def failed_checks(report) -> list:
    return [c["name"] for c in report["checks"] if not c["pass"]]


def scale_jplus(Jp, Jm):
    """Perturb J+ by 1e-9 relative in place, with J- kept its transpose.

    In place, so that the control adds no copies of the op's largest
    matrices to the process's peak memory; the output is dropped afterwards.
    """
    Jp *= 1 + 1e-9
    Jm *= 1 + 1e-9


def perturb_irrep(out):
    """out starts (J3, J+, J-, ...), as every irrep op returns it."""
    scale_jplus(out[1], out[2])
    return out


# ---------------------------------------------------------------------------
# irrep_ladder


def poly_beta(rng: random.Random, order: int) -> list:
    """Positive rational beta_0..beta_N; F >= 0 then holds at every j."""
    return [Fraction(rng.randint(10, 99), 10 ** (p + 2)) for p in range(order + 1)]


def higgs_window_beta(rng: random.Random, two_j: int) -> float:
    c = half(two_j) * (half(two_j) + 1)
    lo, hi = -1 / (4 * c), -1 / (4 * c + 1)
    return float(lo + (hi - lo) * Fraction(rng.randint(20, 80), 100))


def higgs_gammas(two_j: int, beta: float) -> list:
    """gamma = 0 and the pair with gamma^2 = -1/(4 beta) - j(j+1), which
    annihilates the lowest weight of the cubic algebra."""
    j = half(two_j)
    g = math.sqrt(-1 / (4 * Fraction(beta)) - j * (j + 1))
    return [0.0, g, -g]


def comm_scale(two_j: int, h, gamma: float) -> float:
    """Magnitude of the terms in the commutator checks, ||J+||^2 + ||h|| + ||J3|| ||J+||, in floats."""
    hs = [float(h(t)) for t in range(two_j, -two_j - 1, -2)]
    f_norm = sum(itertools.accumulate(hs[:-1]))
    h_norm = math.sqrt(sum(x * x for x in hs))
    j3_norm = math.sqrt(sum((t / 2 + gamma) ** 2 for t in range(-two_j, two_j + 1, 2)))
    return f_norm + h_norm + j3_norm * math.sqrt(f_norm)


def polynomial_op(prog: Program, name: str, beta, two_j: int, default_tol: bool = False) -> Op:
    nl = prog.nl
    alpha = nl.alpha_from_beta(beta)
    h = orc.h_polynomial(beta)
    expected = prog.lazy(orc.ladder_sums, two_j, h)
    d = two_j + 1
    gate = prog.lazy(lambda: {} if default_tol else {"tol": orc.tol(d, comm_scale(two_j, h, 0.0))})
    casimir = prog.lazy(lambda: float(orc.phi(alpha, half(two_j) * (half(two_j) + 1))))

    def run():
        j = half(two_j)
        rep = nl.build_deformed(nl.StructureSpec(nl.Polynomial(alpha), j))
        exact = nl.exact_recurrence_check(alpha, j)
        comm = nl.commutator_residuals(rep, beta, **gate())
        cas = nl.casimir_matrix(rep, alpha)
        return rep.J3, rep.Jplus, rep.Jminus, exact, comm, cas

    def check(out):
        J3, Jp, Jm, exact, comm, cas = out
        orc.check_irrep(J3, Jp, Jm, two_j, 0.0, *expected())
        orc.check_casimir(cas, casimir(), d)
        if len(exact.checks) != two_j or any(c.kind != "exact" for c in exact.checks):
            raise orc.Mismatch(f"exact_recurrence_check made {len(exact.checks)} checks, expected {two_j}")
        bad = [c.name for c in exact.checks + comm.checks if not c.passed]
        if bad:
            raise orc.FalseFail(bad)

    return Op(name, run, check, states=2 * d, perturb=perturb_irrep)


def higgs_op(prog: Program, name: str, beta: float, gamma: float, two_j: int) -> Op:
    nl = prog.nl
    h = orc.h_higgs(beta, gamma)
    expected = prog.lazy(orc.ladder_sums, two_j, h)
    d = two_j + 1
    gate = prog.lazy(lambda: {"tol": orc.tol(d, comm_scale(two_j, h, gamma))})
    coeffs = [1, beta]

    def run():
        rep = nl.build_deformed(nl.StructureSpec(nl.HiggsShifted(beta, gamma), half(two_j)))
        comm = nl.commutator_residuals(rep, coeffs, **gate())
        return rep.J3, rep.Jplus, rep.Jminus, comm

    def check(out):
        J3, Jp, Jm, comm = out
        orc.check_irrep(J3, Jp, Jm, two_j, gamma, *expected())
        bad = [c.name for c in comm.checks if not c.passed]
        if bad:
            raise orc.FalseFail(bad)

    return Op(name, run, check, states=d, perturb=perturb_irrep)


def uq_op(prog: Program, name: str, delta: float, two_j: int) -> Op:
    nl = prog.nl
    expected = prog.lazy(orc.uq_ladder, two_j, delta)
    d = two_j + 1

    def run():
        rep = nl.build_uq(half(two_j), delta)
        residual = nl.uq_casimir_relation(half(two_j), nl.QParam(delta))
        return rep.J3, rep.Jplus, rep.Jminus, residual

    def check(out):
        J3, Jp, Jm, residual = out
        orc.check_irrep(J3, Jp, Jm, two_j, 0.0, expected())
        casimir_scale = math.sinh(delta * (two_j + 1) / 2) ** 2 / math.sinh(delta) ** 2
        orc.expect_close("uq_casimir_relation", residual, d, casimir_scale)

    return Op(name, run, check, states=0, perturb=perturb_irrep)


def irrep_ladder(prog: Program, rng: random.Random) -> Workload:
    ops = []
    for two_j in (9, 40):
        beta = higgs_window_beta(rng, two_j)
        for label, gamma in zip(("0", "plus", "minus"), higgs_gammas(two_j, beta)):
            ops.append(higgs_op(prog, f"higgs_2j{two_j}_gamma_{label}", beta, gamma, two_j))
    ops.append(uq_op(prog, "uq_2j20", rng.uniform(0.1, 0.3), 20))
    ops.append(uq_op(prog, "uq_2j200", rng.uniform(0.01, 0.03), 200))
    for order, two_j in ((1, 8), (3, 64), (2, 250), (1, 500), (3, 1000)):
        ops.append(polynomial_op(prog, f"poly_N{order}_2j{two_j}", poly_beta(rng, order), two_j))
    # False FAIL: commutator_residuals' absolute 1e-10 default against entries ~ j^5.
    ops.append(polynomial_op(prog, "poly_fixed_2j200_default_tol", FIXED_BETA, 200, default_tol=True))
    return Workload(ops, smallest="poly_N1_2j8", largest="poly_N3_2j1000", max_order=3)


# ---------------------------------------------------------------------------
# coproduct


def coproduct_alpha(rng: random.Random) -> list:
    """Positive phi coefficients: every divided difference is then positive."""
    return [Fraction(rng.randint(50, 200), 100), Fraction(rng.randint(1, 20), 100),
            Fraction(rng.randint(1, 100), 10000)]


def quadratic_alpha(rng: random.Random, two_j_total: int) -> float:
    """alpha with 1 - 16 alpha^2 c_max / 3 > 0 at the top Casimir value."""
    cmax = two_j_total * (two_j_total + 2) / 4
    return math.sqrt(3 / (16 * cmax)) * rng.uniform(0.2, 0.8)


def product_op(prog: Program, name: str, two_j1: int, two_j2: int, alpha, quad: Optional[float]) -> Op:
    nl = prog.nl
    equal = two_j1 == two_j2
    f0 = orc.deformed_f([1])
    fa = orc.deformed_f(alpha)

    def run():
        rep1, rep2 = nl.build_sl2(half(two_j1)), nl.build_sl2(half(two_j2))
        pr = nl.primitive_coproduct(rep1, rep2)
        djp, djm, dj3 = nl.deformed_coproduct(pr, alpha)
        cocom = nl.cocommutativity_check([djp, djm, dj3], rep1.dim) if equal else None
        qc = nl.quadratic_coproduct(pr, quad) if quad is not None else None
        return pr, (djp, djm, dj3), cocom, qc

    def check(out):
        pr, (djp, djm, dj3), cocom, qc = out
        orc.check_product(pr.DJ3, pr.DJp, pr.DJm, two_j1, two_j2, f0, DC=pr.DC)
        orc.check_product(dj3, djp, djm, two_j1, two_j2, fa)
        if equal:
            for mat, res in zip((djp, djm, dj3), cocom):
                orc.expect_close("cocommutativity residual", res, pr.dim, float(np.linalg.norm(mat)))
        if quad is not None:
            orc.check_quadratic_product(*qc, two_j1, two_j2, quad)

    def perturb(out):
        djp, djm, _ = out[1]
        scale_jplus(djp, djm)
        return out

    return Op(name, run, check, states=0, perturb=perturb)


def hopf_cli_op(prog: Program, name: str, two_j: int) -> Op:
    """`nlsl2 hopf` with the fixed alpha; its 1e-8 absolute gate on the
    deformed-coproduct commutator fails from j1 = j2 = 10 on."""
    argv = ["hopf", "--j1", str(half(two_j)), "--j2", str(half(two_j)), f"--alpha={rational_text(FIXED_ALPHA)}"]
    nl = prog.nl

    def run():
        return prog.run_cli(argv)

    def check(code):
        report = prog.cli_payload()
        bad = failed_checks(report)
        if (code == 0) != (not bad):
            raise orc.Mismatch(f"exit code {code} disagrees with failed checks {bad}")
        if code == 0:
            return
        rep = nl.build_sl2(half(two_j))
        pr = nl.primitive_coproduct(rep, rep)
        djp, djm, dj3 = nl.deformed_coproduct(pr, list(FIXED_ALPHA))
        orc.check_product(pr.DJ3, pr.DJp, pr.DJm, two_j, two_j, orc.deformed_f([1]), DC=pr.DC)
        orc.check_product(dj3, djp, djm, two_j, two_j, orc.deformed_f(FIXED_ALPHA))
        raise orc.FalseFail(bad)

    return Op(name, run, check)


# One pass holds one j1 = j2 = 20 product (12-18 s here), so a run holds only
# two or three passes. The small pairs repeat within the pass so that a run
# still has enough samples of them, half before the large products and half
# after: host speed drifts over seconds, and a run then samples it at three
# moments rather than two.
SMALL_ROUNDS = 8


def coproduct(prog: Program, rng: random.Random) -> Workload:
    def op(two_j1, two_j2):
        small = (two_j1 + 1) * (two_j2 + 1) <= 108
        quad = quadratic_alpha(rng, two_j1 + two_j2) if small else None
        return product_op(prog, f"product_{two_j1}x{two_j2}", two_j1, two_j2, coproduct_alpha(rng), quad)

    large = [op(40, 40), op(20, 20), op(30, 12)]
    small = [op(17, 5), op(7, 7), op(9, 4)]
    rounds = small * (SMALL_ROUNDS // 2)
    ops = rounds + large + rounds + [hopf_cli_op(prog, "cli_hopf_fixed_2j22", 22)]
    return Workload(ops, smallest="product_9x4", largest="product_40x40", max_order=3)


# ---------------------------------------------------------------------------
# catalogue


def coeffs_ops(prog: Program, rng: random.Random, order: int) -> list:
    beta = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 99), 100) for _ in range(order + 1)]
    alpha = prog.nl.alpha_from_beta(beta)

    def forward_check(code):
        got = [Fraction(x) for x in prog.cli_payload()["alpha"]]
        orc.check_alpha(beta, got)

    def backward_check(code):
        got = [Fraction(x) for x in prog.cli_payload()["beta"]]
        if got != beta:
            raise orc.Mismatch(f"beta -> alpha -> beta is not exact at N={order}")

    fwd = ["coeffs", f"--alpha-from-beta={rational_text(beta)}"]
    bwd = ["coeffs", f"--beta-from-alpha={rational_text(alpha)}"]
    return [Op(f"coeffs_a_from_b_N{order}", lambda: prog.run_cli(fwd), forward_check),
            Op(f"coeffs_b_from_a_N{order}", lambda: prog.run_cli(bwd), backward_check)]


def uq_expected(two_j: int, delta: float):
    return orc.uq_ladder(two_j, delta), 0


def rep_op(prog: Program, name: str, argv, two_j: int, gamma: float, expected, states=0) -> Op:
    """`nlsl2 rep`; expected() gives the oracle's (F, total) for check_irrep."""

    def check(code):
        if code != 0:
            raise orc.Mismatch(f"rep exited {code}")
        p = prog.cli_payload()
        d = p["dim"]
        mats = [np.array(p[k], dtype=float).reshape(d, d) for k in ("J3", "Jplus", "Jminus")]
        orc.check_irrep(*mats, two_j, gamma, *expected())

    return Op(name, lambda: prog.run_cli(argv), check, states=states)


def verify_op(prog: Program, name: str, argv, rebuild: Callable[[], None], states: int) -> Op:
    """A `verify`/`hopf`/`qlimit` command: exit 0 with every check passing, or a
    false FAIL if `rebuild` shows the object is correct."""

    def check(code):
        report = prog.cli_payload()
        bad = failed_checks(report)
        if (code == 0) != (not bad) or report["summary"]["all_passed"] != (not bad):
            raise orc.Mismatch(f"exit code {code} disagrees with failed checks {bad}")
        if bad:
            rebuild()
            raise orc.FalseFail(bad)

    return Op(name, lambda: prog.run_cli(argv), check, states=states)


def families_op(prog: Program, name: str, family: str, two_j: int, grid) -> Op:
    flag = "--beta-grid" if family == "higgs" else "--alpha-grid"
    argv = ["families", "--family", family, "--j", str(half(two_j)), f"{flag}={','.join(repr(x) for x in grid)}"]
    count = orc.higgs_count if family == "higgs" else orc.quadratic_count
    counts = prog.lazy(lambda: [count(two_j, p) for p in grid])

    def states():
        """Higgs: 3 candidates screened inside the window (count 3), 1 elsewhere;
        quadratic: the ladder of each admissible candidate."""
        if family == "higgs":
            return sum((1 if c < 3 else 3) * (two_j + 1) for c in counts())
        return sum(two_j + 1 for c in counts() if c)

    def check(code):
        rows = prog.cli_payload()["rows"]
        if code != 0 or len(rows) != len(grid):
            raise orc.Mismatch(f"families exited {code} with {len(rows)} rows for {len(grid)} points")
        for param, row, want in zip(grid, rows, counts()):
            if row["param"] != param or row["count"] != want:
                raise orc.Mismatch(f"{family} j={half(two_j)} param={param}: count {row['count']}, expected {want}")
            for gamma, ok in zip(row["gammas"], row["admissible"]):
                if ok:
                    h = orc.h_higgs(param, gamma) if family == "higgs" else orc.h_quadratic(param, gamma)
                    orc.check_shift(two_j, h)

    return Op(name, lambda: prog.run_cli(argv), check, states=states)


def higgs_grid(rng: random.Random, two_j: int) -> list:
    """One beta in each region: inside the shifted window, between the window
    and 0, between the unshifted bound and the window, below that bound, and
    positive."""
    j = half(two_j)
    c = j * (j + 1)
    lo, hi, floor = -1 / (4 * c), -1 / (4 * c + 1), -1 / (4 * j * j)

    def inside(a, b):
        return float(a + (b - a) * Fraction(rng.randint(10, 90), 100))

    return [inside(lo, hi), inside(hi, Fraction(0)), inside(floor, lo), inside(2 * floor, floor),
            inside(Fraction(1, 100), Fraction(1))]


def quadratic_grid(rng: random.Random, two_j: int) -> list:
    """Points well inside the positivity bound |alpha| <= 3/(2(4j+1)) of both
    signs, one between it and the radicand bound alpha^2 <= 3/(16 j(j+1))
    (a shift exists, positivity fails), and two past the radicand bound."""
    j = two_j / 2
    inner = 3 / (2 * (4 * j + 1))
    outer = math.sqrt(3 / (16 * j * (j + 1)))
    return [inner * rng.uniform(0.1, 0.9), -inner * rng.uniform(0.1, 0.9),
            inner + (outer - inner) * rng.uniform(0.3, 0.7),
            outer * rng.uniform(1.05, 1.5), -outer * rng.uniform(1.05, 1.5)]


def catalogue(prog: Program, rng: random.Random) -> Workload:
    nl = prog.nl
    ops = []
    for order in (2, 5, 9, 14, 19, 24):
        ops.extend(coeffs_ops(prog, rng, order))

    # rep: polynomial, shifted Higgs, U_q and sl2 irreps as JSON
    for two_j in (12, 25):
        beta = poly_beta(rng, 2)
        argv = ["rep", "--family", "polynomial", "--j", str(half(two_j)),
                f"--alpha={rational_text(nl.alpha_from_beta(beta))}"]
        ops.append(rep_op(prog, f"rep_poly_2j{two_j}", argv, two_j, 0.0,
                          prog.lazy(orc.ladder_sums, two_j, orc.h_polynomial(beta)), states=two_j + 1))
    beta = higgs_window_beta(rng, 3)
    gamma = higgs_gammas(3, beta)[1]
    argv = ["rep", "--family", "higgs", "--j", "3/2", f"--beta={beta!r}", f"--gamma={gamma!r}"]
    ops.append(rep_op(prog, "rep_higgs_2j3", argv, 3, gamma, prog.lazy(orc.ladder_sums, 3, orc.h_higgs(beta, gamma)),
                      states=4))
    delta = rng.uniform(0.1, 0.5)
    ops.append(rep_op(prog, "rep_uq_2j20", ["rep", "--family", "uq", "--j", "10", f"--delta={delta!r}"],
                      20, 0.0, prog.lazy(uq_expected, 20, delta)))
    ops.append(rep_op(prog, "rep_sl2_2j15", ["rep", "--family", "sl2", "--j", "15/2"],
                      15, 0.0, prog.lazy(orc.ladder_sums, 15, orc.h_polynomial([1]))))

    # verify: seeded specs that pass, and the two fixed false FAILs
    def poly_rebuild(beta, alpha, two_j):
        def rebuild():
            rep = nl.build_deformed(nl.StructureSpec(nl.Polynomial(alpha), half(two_j)))
            orc.check_irrep(rep.J3, rep.Jplus, rep.Jminus, two_j, 0.0,
                            *orc.ladder_sums(two_j, orc.h_polynomial(beta)))
        return rebuild

    def higgs_rebuild(beta, gamma, two_j):
        def rebuild():
            rep = nl.build_deformed(nl.StructureSpec(nl.HiggsShifted(beta, gamma), half(two_j)))
            orc.check_irrep(rep.J3, rep.Jplus, rep.Jminus, two_j, gamma,
                            *orc.ladder_sums(two_j, orc.h_higgs(beta, gamma)))
        return rebuild

    def uq_rebuild(delta, two_j):
        def rebuild():
            rep = nl.build_uq(half(two_j), delta)
            orc.check_irrep(rep.J3, rep.Jplus, rep.Jminus, two_j, 0.0, orc.uq_ladder(two_j, delta))
            orc.expect_close("uq_casimir_relation", nl.uq_casimir_relation(half(two_j), nl.QParam(delta)),
                             two_j + 1, orc.q_brackets(delta, [two_j + 1])[0] ** 2)
        return rebuild

    for two_j in (6, 7):
        beta = poly_beta(rng, 2)
        alpha = nl.alpha_from_beta(beta)
        argv = ["verify", "--family", "polynomial", "--j", str(half(two_j)), f"--alpha={rational_text(alpha)}"]
        ops.append(verify_op(prog, f"verify_poly_2j{two_j}", argv, poly_rebuild(beta, alpha, two_j), 2 * (two_j + 1)))
    beta = higgs_window_beta(rng, 2)
    gamma = higgs_gammas(2, beta)[2]
    argv = ["verify", "--family", "higgs", "--j", "1", f"--beta={beta!r}", f"--gamma={gamma!r}"]
    ops.append(verify_op(prog, "verify_higgs_2j2", argv, higgs_rebuild(beta, gamma, 2), 3))
    delta = rng.uniform(0.1, 0.5)
    argv = ["verify", "--family", "uq", "--j", "3", f"--delta={delta!r}"]
    ops.append(verify_op(prog, "verify_uq_2j6", argv, uq_rebuild(delta, 6), 0))
    # False FAILs: absolute gates (1e-10 commutator and Casimir, 1e-12 q-Casimir)
    # against operands that grow like j^5 and e^(delta (2j+1)).
    argv = ["verify", "--family", "polynomial", "--j", "40", f"--alpha={rational_text(FIXED_ALPHA)}"]
    ops.append(verify_op(prog, "verify_poly_fixed_2j80", argv, poly_rebuild(FIXED_BETA, FIXED_ALPHA, 80), 162))
    argv = ["verify", "--family", "uq", "--j", "20", "--delta=0.3"]
    ops.append(verify_op(prog, "verify_uq_fixed_2j40", argv, uq_rebuild(0.3, 40), 0))

    # families: beta grids across the cubic window, alpha grids for the quadratic family
    for two_j in (1, 2, 5):
        ops.append(families_op(prog, f"families_higgs_2j{two_j}", "higgs", two_j, higgs_grid(rng, two_j)))
    for two_j in (2, 5):
        ops.append(families_op(prog, f"families_quadratic_2j{two_j}", "quadratic", two_j,
                               quadratic_grid(rng, two_j)))

    # hopf with the quadratic antipode, and qlimit, at small j
    for two_j1, two_j2 in ((1, 2), (2, 3)):
        a = quadratic_alpha(rng, 2 * two_j1)

        def rebuild(two_j1=two_j1, a=a):
            rep = nl.build_sl2(half(two_j1))
            pr = nl.primitive_coproduct(rep, rep)
            orc.check_quadratic_product(*nl.quadratic_coproduct(pr, a), two_j1, two_j1, a)

        argv = ["hopf", "--j1", str(half(two_j1)), "--j2", str(half(two_j2)), f"--quadratic-alpha={a!r}"]
        ops.append(verify_op(prog, f"hopf_quadratic_{two_j1}x{two_j2}", argv, rebuild, 0))
    for two_j in (1, 2, 4):
        delta = rng.uniform(0.1, 0.5)
        argv = ["qlimit", "--j", str(half(two_j)), f"--delta={delta!r}"]
        ops.append(verify_op(prog, f"qlimit_2j{two_j}", argv, uq_rebuild(delta, two_j), 0))
    return Workload(ops, smallest="coeffs_b_from_a_N2", largest="verify_poly_fixed_2j80", max_order=24)


WORKLOADS = {"irrep_ladder": irrep_ladder, "coproduct": coproduct, "catalogue": catalogue}


def self_test(prog: Program) -> list:
    """Negative controls the oracles must reject; returns what they let through.

    The 1e-9 relative J+ perturbation is applied to every op's own output on
    the first pass (Op.perturb); these controls cover the rest.
    """
    nl = prog.nl
    errors = []
    alpha = [Fraction(1), Fraction(1, 10), Fraction(1, 100)]
    pr = nl.primitive_coproduct(nl.build_sl2(2), nl.build_sl2(Fraction(3, 2)))
    djp, djm, dj3 = nl.deformed_coproduct(pr, alpha, order="target")
    try:
        orc.check_product(dj3, djp, djm, 4, 3, orc.deformed_f(alpha))
        errors.append("the order='target' deformed coproduct was not rejected")
    except orc.Mismatch:
        pass
    beta = [Fraction(1), Fraction(-3, 10), Fraction(7, 100)]
    wrong = nl.alpha_from_beta(beta)
    wrong[-1] += Fraction(1, 10**12)
    try:
        orc.check_alpha(beta, wrong)
        errors.append("an alpha off by 1e-12 in its last coefficient was not rejected")
    except orc.Mismatch:
        pass
    return errors
