"""End-to-end acceptance checks, one printed pass/fail line per criterion."""

import random
from fractions import Fraction

import numpy as np

from nlsl2 import (
    HalfInt,
    HiggsShifted,
    NonBijectiveError,
    Polynomial,
    QBase,
    QParam,
    QuadraticShifted,
    StructureSpec,
    alpha_from_beta,
    beta_from_alpha,
    build_deformed,
    build_quadratic_explicit,
    build_sl2,
    build_uq,
    casimir_matrix,
    cocommutativity_residuals,
    commutator_residuals,
    exact_recurrence_check,
    halfint,
    higgs_beta_window,
    higgs_gamma_roots,
    hopf_axiom_checks,
    inverse_map_polynomial,
    inverse_map_uq,
    phi_eval,
    power_sum_oracle,
    primitive_coproduct,
    product_casimir_spectrum,
    q_bracket,
    q_series_identity_residual,
    q_shift_rigidity,
    qbase_example_commutator,
    quadratic_gamma,
    transferred_coproduct,
    uq_casimir_relation,
)
from nlsl2.families import family_count
from nlsl2.structure import _float_closed_form, admissible, polynomial_transfer


def _verdict(num: int, desc: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _random_fraction(rng, max_num=6, max_den=12):
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def test_criterion_1_coefficient_round_trip():
    rng = random.Random(101)
    ok = True
    for _ in range(200):
        n = rng.randint(0, 8)
        beta = [_random_fraction(rng) for _ in range(n + 1)]
        back = beta_from_alpha(alpha_from_beta(beta))
        if back != beta:
            ok = False
            break
    _verdict(1, "beta -> alpha -> beta round trip exact for 200 random vectors, N <= 8", ok)


def test_criterion_2_ladder_recurrence_exact():
    rng = random.Random(202)
    ok = True
    for _ in range(50):
        n = rng.randint(0, 4)
        alpha = [_random_fraction(rng) for _ in range(n + 1)]
        for two_j in range(0, 26):
            report = exact_recurrence_check(alpha, HalfInt(two_j))
            if not report.all_passed:
                ok = False
                break
        if not ok:
            break
    _verdict(2, "ladder-difference recurrence exact for all 2j <= 25, 50 random alpha, N <= 4", ok)


def test_criterion_3_power_sum_consistency():
    # with beta a unit vector at index k, the structure function at integer
    # (j, m) must equal the telescoped odd power sum sum_{r=m+1}^{j} (2r)^(2k+1)
    def s_odd(p, n):
        # sum_{r=1}^{n} r^(2p+1), extended to negative n by S(n) = S(-n-1)
        return power_sum_oracle(p, n) if n >= 0 else power_sum_oracle(p, -n - 1)

    ok = True
    for k in range(0, 9):
        beta = [Fraction(0)] * k + [Fraction(1)]
        alpha = alpha_from_beta(beta)
        for j in range(0, 11):
            for m in range(-j, j + 1):
                lhs = phi_eval(alpha, j * (j + 1)) - phi_eval(alpha, m * (m + 1))
                rhs = 2 ** (2 * k + 1) * (s_odd(k, j) - s_odd(k, m))
                if lhs != rhs:
                    ok = False
    _verdict(3, "epsilon/power-sum closed forms match brute-force oracle, |j|,|m| <= 10, k <= 8", ok)


def test_criterion_4_cubic_family_counts():
    j = halfint("1/2")
    counts_ok = (
        family_count(j, -0.3) == 3
        and family_count(j, 0.5) == 1
        and family_count(j, -0.5) == 1
        and family_count(j, -2.0) == 0
    )
    annih_ok = True
    for sol in higgs_gamma_roots(j, -0.3):
        if not sol.admissible:
            annih_ok = False
        # lowering out of m = -j is F(j, -j-1)
        if abs(_float_closed_form(HiggsShifted(-0.3, sol.gamma), j, -j.value - 1)) > 1e-10:
            annih_ok = False
    _verdict(4, "cubic family counts {3,1,1,0} at j=1/2 and gamma-root lowest-weight annihilation",
             counts_ok and annih_ok)


def test_criterion_5_beta_window_endpoints():
    lo, hi = higgs_beta_window(halfint("1/2"))
    _verdict(5, "shifted-family beta window at j=1/2 is (-1/3, -1/4] exactly",
             lo == Fraction(-1, 3) and hi == Fraction(-1, 4))


def _random_admissible_specs():
    rng = random.Random(606)
    specs = []  # (rep, residual-producing check result)

    # polynomial family, including dim-41 cases
    while sum(1 for kind, _ in specs if kind == "poly") < 40:
        two_j = rng.choice([1, 2, 3, 4, 5, 8, 11, 16, 25, 40])
        n = rng.randint(0, 3)
        # higher coefficients scaled by powers of 1/(j(j+1)) so the structure
        # function stays O(j(j+1)) and the float residual stays meaningful
        jj1 = HalfInt(two_j).mm1()
        alpha = [Fraction(1)] + [
            Fraction(rng.randint(-2, 2), rng.randint(4, 12)) / jj1**k
            for k in range(1, n + 1)
        ]
        spec = StructureSpec(Polynomial(alpha), HalfInt(two_j))
        if not admissible(spec)[0]:
            continue
        rep = build_deformed(spec)
        res = commutator_residuals(rep, beta_from_alpha(alpha))
        specs.append(("poly", (rep.dim, max(c.residual for c in res.checks), res.all_passed)))

    # cubic family, all gamma branches
    while sum(1 for kind, _ in specs if kind == "higgs") < 25:
        j = halfint(rng.choice(["1/2", "1", "3/2", "2", "5/2"]))
        lo, hi = higgs_beta_window(j)
        if rng.random() < 0.5:
            b = rng.uniform(float(lo) * 0.999, float(hi))
        else:
            b = rng.uniform(-1 / (4 * j.value**2) * 0.95, 0.4)
        for sol in higgs_gamma_roots(j, b):
            if not sol.admissible:
                continue
            rep = build_deformed(StructureSpec(HiggsShifted(b, sol.gamma), j))
            res = commutator_residuals(rep, [Fraction(1), b])
            specs.append(("higgs", (rep.dim, max(c.residual for c in res.checks), res.all_passed)))

    # quadratic family
    while sum(1 for kind, _ in specs if kind == "quad") < 20:
        j = halfint(rng.choice(["1/2", "1", "3/2", "2", "5/2", "3"]))
        bound = 3 / (2 * (2 * j.twice + 1))
        a = rng.uniform(0.05, 0.95) * bound * rng.choice([1, -1])
        sol = quadratic_gamma(j, a)
        if not sol.admissible:
            continue
        rep = build_deformed(StructureSpec(QuadraticShifted(a, sol.gamma), j))
        comm = rep.Jplus @ rep.Jminus - rep.Jminus @ rep.Jplus
        target = 2 * rep.J3 + 4 * a * rep.J3 @ rep.J3
        r = float(np.linalg.norm(comm - target))
        specs.append(("quad", (rep.dim, r, r <= 1e-10)))

    # q-base polynomial family
    while sum(1 for kind, _ in specs if kind == "qbase") < 15:
        j = halfint(rng.choice(["1/2", "1", "3/2", "2", "5/2"]))
        d = rng.choice([0.1, 0.3, 1.0])
        b = rng.uniform(-0.2, 0.2)
        spec = StructureSpec(QBase([1.0, b / q_bracket(2.0, d)], d), j)
        if not admissible(spec)[0]:
            continue
        r = qbase_example_commutator(j, b, QParam(d))
        specs.append(("qbase", (j.twice + 1, r, r <= 1e-10)))

    return specs


def test_criterion_6_matrix_relations_random_specs():
    specs = _random_admissible_specs()
    ok = (
        len(specs) >= 100
        and all(passed for _, (_, _, passed) in specs)
        and max(dim for _, (dim, _, _) in specs) == 41
    )
    _verdict(6, "commutator residuals <= 1e-10 for 100 random admissible specs, dims up to 41", ok)


def test_criterion_7_casimir_scalar():
    ok = True
    for j_str, alpha in [("3/2", [1, Fraction(1, 10)]), ("5", [1, Fraction(-1, 200), Fraction(1, 900)])]:
        j = halfint(j_str)
        rep = build_deformed(StructureSpec(Polynomial(alpha), j))
        cas = casimir_matrix(rep, alpha)
        expected = float(phi_eval(alpha, j.mm1()))
        if np.linalg.norm(cas - expected * np.eye(rep.dim)) > 1e-12:
            ok = False
    for j_str in ["1/2", "2", "7/2"]:
        if uq_casimir_relation(halfint(j_str), QParam(0.3)) > 1e-12:
            ok = False
    _verdict(7, "deformed Casimir is phi(j(j+1)) I to 1e-12 and q-Casimir arcsinh relation to 1e-12", ok)


def test_criterion_8_q_deformed_commutator_and_series():
    ok = True
    for two_j in range(1, 11):
        j = HalfInt(two_j)
        for d in (0.1, 0.3, 1.0):
            # extended precision: the largest bracket entries (~1e4 at 2j=10,
            # delta=1) have double-precision granularity above the tolerance
            ld = np.longdouble
            rep = build_uq(j, d, dtype=ld)
            comm = rep.Jplus @ rep.Jminus - rep.Jminus @ rep.Jplus
            dd = ld(d)
            target = np.diag(np.sinh(dd * np.arange(two_j, -two_j - 1, -2, dtype=ld)) / np.sinh(dd))
            if np.linalg.norm(comm - target) > 1e-12:
                ok = False
    for two_j in range(1, 6):
        j = HalfInt(two_j)
        for two_m in range(-two_j, two_j, 2):
            if q_series_identity_residual(j, HalfInt(two_m), 0.3, trunc=25) > 1e-8:
                ok = False
    _verdict(8, "q-deformed commutator to 1e-12 (2j <= 10) and bracket-ratio series to 1e-8", ok)


def test_criterion_9_q_shift_rigidity():
    ok = True
    for two_j in range(1, 7):
        for d in (0.3, 1.0):
            roots = q_shift_rigidity(HalfInt(two_j), d)
            if len(roots) != 1 or abs(roots[0]) > 1e-12:
                ok = False
    _verdict(9, "only gamma = 0 solves the q-deformed highest-weight condition (2j <= 6)", ok)


def test_criterion_10_quadratic_family():
    ok = True
    for j_str in ("1/2", "1", "3/2", "2"):
        j = halfint(j_str)
        bound = 3 / (2 * (2 * j.twice + 1))
        a = 0.5 * bound
        sol = quadratic_gamma(j, a)
        if not sol.admissible or abs(_float_closed_form(QuadraticShifted(a, sol.gamma), j, -j.value - 1)) > 1e-10:
            ok = False
        rep = build_quadratic_explicit(build_sl2(j), a)
        res = commutator_residuals(rep, [])  # only the [J3, J+-] checks apply
        ladder_ok = all(c.passed for c in res.checks[:2])
        comm = rep.Jplus @ rep.Jminus - rep.Jminus @ rep.Jplus
        target = 2 * rep.J3 + 4 * a * rep.J3 @ rep.J3
        if not ladder_ok or np.linalg.norm(comm - target) > 1e-10:
            ok = False
        if abs(rep.gamma - sol.gamma) > 1e-10:
            ok = False
    boundary = quadratic_gamma(halfint("1/2"), 0.5)
    if abs(boundary.gamma - (-0.5)) > 1e-12:
        ok = False
    _verdict(10, "quadratic-family shifts, explicit construction, boundary gamma = -1/2", ok)


def test_criterion_11_hopf_structure():
    ok = True

    # formal coassociativity (exact) plus counit/antipode on irreps
    for j_str in ("1/2", "1", "3/2"):
        report = hopf_axiom_checks(build_sl2(halfint(j_str)), tol=1e-12)
        if not report.all_passed:
            ok = False

    # deformed coproduct is an algebra map at cubic beta in {-0.1, -0.05}
    for j1s, j2s in (("1/2", "1/2"), ("1/2", "1")):
        rep1, rep2 = build_sl2(halfint(j1s)), build_sl2(halfint(j2s))
        pr = primitive_coproduct(rep1, rep2)
        for b in (-0.1, -0.05):
            beta = [Fraction(1), Fraction(b).limit_denominator(100)]
            alpha = alpha_from_beta(beta)
            deformed = transferred_coproduct(pr, polynomial_transfer(alpha, max(pr.spins)))
            res = commutator_residuals(deformed, beta, tol=1e-8)
            if not res.all_passed:
                ok = False
            if j1s == j2s:
                if max(cocommutativity_residuals(deformed)) > 1e-10:
                    ok = False

    # product Casimir spectrum matches the Clebsch-Gordan oracle
    for j1s, j2s in (("1/2", "1/2"), ("1/2", "1"), ("1", "3/2")):
        pr = primitive_coproduct(build_sl2(halfint(j1s)), build_sl2(halfint(j2s)))
        spectrum = sorted(pr.w)
        oracle = product_casimir_spectrum(j1s, j2s)
        if max(abs(a - b) for a, b in zip(spectrum, oracle)) > 1e-8:
            ok = False

    _verdict(11, "Hopf axioms, deformed-coproduct homomorphism, co-commutativity, CG spectrum", ok)


def test_criterion_12_inverse_maps():
    ok = True
    for j_str, d in (("1/2", 0.3), ("2", 0.1), ("7/2", 1.0)):
        j = halfint(j_str)
        back = inverse_map_uq(build_uq(j, d), d)
        if np.linalg.norm(back.Jplus - build_sl2(j).Jplus) > 1e-10:
            ok = False
    for j_str, alpha in (("3/2", [1, Fraction(1, 20)]), ("3", [1, 0, Fraction(1, 500)])):
        j = halfint(j_str)
        rep = build_deformed(StructureSpec(Polynomial(alpha), j))
        back = inverse_map_polynomial(rep, alpha)
        if np.linalg.norm(back.Jplus - build_sl2(j).Jplus) > 1e-10:
            ok = False
    # non-bijective phi (cubic deformation with phi' changing sign) is rejected
    j = halfint("3/2")
    alpha_bad = [Fraction(1), Fraction(-1, 5)]  # phi'(x) = 1 - 2x/5 <= 0 at x >= 5/2
    rep = build_deformed(StructureSpec(Polynomial(alpha_bad), j))
    try:
        inverse_map_polynomial(rep, alpha_bad)
        ok = False
    except NonBijectiveError as exc:
        if not (2.5 - 1e-9 <= exc.witness_x <= float(j.mm1())):
            ok = False
    _verdict(12, "inverse maps round-trip to 1e-10; non-bijective phi rejected with witness", ok)
