"""The irrep checks, read from the ladder, against the dense formulas.

Every irrep is stored as its ladder (diagonal J3, superdiagonal J+,
J- = J+^T) and checked from those two vectors; the dense matmul formulas
below are the reference they must reproduce.
"""

import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import nlsl2.structure as structure
from nlsl2.cli import run
from nlsl2.coefficients import alpha_from_beta, beta_from_alpha, phi_eval
from nlsl2.families import higgs_beta_window, higgs_gamma_roots
from nlsl2.halfint import HalfInt, halfint
from nlsl2.qdeform import QParam, _q_bracket_values, q_beta_coeffs, q_bracket, uq_casimir_residuals
from nlsl2.repbuilder import (
    InadmissibleSpecError,
    MatrixRep,
    _ladder_casimir_diagonal,
    build_deformed,
    build_quadratic_explicit,
    build_sl2,
    build_uq,
    casimir_matrix,
    inverse_map_polynomial,
    inverse_map_uq,
)
from nlsl2.structure import (
    HiggsShifted,
    Polynomial,
    QBase,
    QuadraticShifted,
    StructureSpec,
    admissible,
    ladder_values,
    phi_ladder_numerators,
)
from nlsl2.verifier import commutator_residuals

EPS = np.finfo(float).eps
BETA = [Fraction(55, 100), Fraction(37, 1000), Fraction(21, 10000), Fraction(13, 100000)]


def dense_residuals(rep, beta):
    """The three commutator residuals by dense matmuls."""
    j3, jp, jm = rep.J3, rep.Jplus, rep.Jminus
    target = np.zeros_like(j3)
    two_j3 = 2 * j3
    power = two_j3.copy()
    two_j3_sq = two_j3 @ two_j3
    for p, b in enumerate(beta):
        if p > 0:
            power = power @ two_j3_sq
        target = target + float(b) * power
    residuals = [
        np.linalg.norm(j3 @ jp - jp @ j3 - jp),
        np.linalg.norm(j3 @ jm - jm @ j3 + jm),
        np.linalg.norm(jp @ jm - jm @ jp - target),
    ]
    scale = max(
        np.abs(j3).max() * np.abs(jp).max() + np.abs(jp).max(),
        np.abs(jp).max() ** 2,
        np.abs(target).max(),
    )
    return residuals, scale


def weights_desc(j):
    """m = j, j-1, ..., -j, the basis order of the matrices."""
    return [HalfInt(t) for t in range(j.twice, -j.twice - 1, -2)]


def poly_f(alpha, j, m):
    """Exact F(j, m) = phi(j(j+1)) - phi(m(m+1)), by `phi_eval` and not the scaled-integer kernel."""
    return phi_eval(alpha, j.mm1()) - phi_eval(alpha, m.mm1())


def dense_casimir(rep, alpha):
    up = np.diag([float(phi_eval(alpha, m.mm1())) for m in weights_desc(rep.j)])
    dn = np.diag([float(phi_eval(alpha, (m - 1).mm1())) for m in weights_desc(rep.j)])
    return 0.5 * (rep.Jplus @ rep.Jminus + rep.Jminus @ rep.Jplus + up + dn)


def dense_q_casimir(rep, delta):
    ms = [m.value for m in weights_desc(rep.j)]
    up = np.diag([q_bracket(m, delta) * q_bracket(m + 1, delta) for m in ms])
    dn = np.diag([q_bracket(m, delta) * q_bracket(m - 1, delta) for m in ms])
    return 0.5 * (rep.Jplus @ rep.Jminus + rep.Jminus @ rep.Jplus + up + dn)


def polynomial_rep(two_j, order):
    alpha = alpha_from_beta(BETA[: order + 1])
    return build_deformed(StructureSpec(Polynomial(alpha), HalfInt(two_j))), alpha


def ladder_cases():
    for two_j, order in ((1, 3), (8, 1), (64, 3), (250, 2)):
        rep, alpha = polynomial_rep(two_j, order)
        yield f"poly_2j{two_j}", rep, beta_from_alpha(alpha)
    j = halfint("9/2")
    lo, hi = higgs_beta_window(j)
    beta = lo + 0.4 * (hi - lo)
    sols = higgs_gamma_roots(j, beta)
    assert len(sols) == 3
    for sol in sols:
        rep = build_deformed(StructureSpec(HiggsShifted(beta, sol.gamma), j))
        yield f"higgs_gamma_{sol.gamma:+.3f}", rep, [1, beta]
    for two_j, delta in ((20, 0.2), (200, 0.02)):
        yield f"uq_2j{two_j}", build_uq(HalfInt(two_j), delta), q_beta_coeffs(QParam(delta), 8)


@pytest.mark.parametrize("name,rep,beta", list(ladder_cases()), ids=lambda x: x if isinstance(x, str) else "")
def test_commutator_residuals_match_dense_reference(name, rep, beta):
    reference, scale = dense_residuals(rep, beta)
    gate = 8 * EPS * rep.dim * scale
    report = commutator_residuals(rep, beta, tol=gate)
    for check, ref in zip(report.checks, reference):
        assert abs(check.residual - ref) <= gate, (name, check.name)
        assert check.passed == (ref <= gate), (name, check.name)


@pytest.mark.parametrize("two_j", [0, 1, 8, 64, 250])
def test_casimir_matrix_bitwise_equals_dense(two_j):
    rep, alpha = polynomial_rep(two_j, 3)
    assert np.array_equal(casimir_matrix(rep, alpha), dense_casimir(rep, alpha))


@pytest.mark.parametrize("two_j,delta", [(1, 0.5), (20, 0.2), (200, 0.02)])
def test_q_casimir_matrix_bitwise_equals_dense(two_j, delta):
    for dtype in (float, np.longdouble):
        rep = build_uq(HalfInt(two_j), delta, dtype=dtype)
        chat = np.diag(_ladder_casimir_diagonal(rep, _q_bracket_values(rep.j, delta)))
        assert np.array_equal(chat, dense_q_casimir(rep, delta))


@pytest.mark.parametrize("two_j", [1, 8, 64, 1000])
def test_build_deformed_superdiagonal_bitwise(two_j):
    rep, alpha = polynomial_rep(two_j, 3)
    j = HalfInt(two_j)
    want = [np.sqrt(float(poly_f(alpha, j, m))) for m in weights_desc(j)[1:]]
    assert np.array_equal(np.diag(rep.Jplus, 1), want)


def test_build_deformed_evaluates_each_phi_once(monkeypatch):
    # every X = 4 m(m+1) = t(t+2) handed to the integer phi kernel is one evaluation
    calls = []
    original = structure.phi_numerators

    def counting(alpha, xs):
        calls.extend(xs)
        return original(alpha, xs)

    monkeypatch.setattr(structure, "phi_numerators", counting)
    for two_j in (0, 1, 9, 10):
        calls.clear()
        j = HalfInt(two_j)
        build_deformed(StructureSpec(Polynomial([1, Fraction(1, 10)]), j))
        assert sorted(calls) == sorted({4 * m.mm1() for m in weights_desc(j)}), two_j


def test_ladder_values_match_closed_forms():
    j = halfint("7/2")
    alpha = [Fraction(1), Fraction(-1, 7), Fraction(1, 90)]
    ms = weights_desc(j)
    ns, d = phi_ladder_numerators(alpha, j)
    assert [Fraction(n, d) for n in ns] == [phi_eval(alpha, m.mm1()) for m in ms]
    assert ladder_values(StructureSpec(Polynomial(alpha), j)) == [poly_f(alpha, j, m) for m in ms[1:]]
    for fam in (HiggsShifted(-0.01, 0.3), QuadraticShifted(0.05, -0.1), QBase([1.0, 0.05], 0.3)):
        spec = StructureSpec(fam, j)
        assert ladder_values(spec) == [float(structure._float_closed_form(fam, j, m.value)) for m in ms[1:]]


FLOAT_FAMILIES = [HiggsShifted(-1e-7, 0.3), QuadraticShifted(0.05, -0.1), QBase([1.0, 0.05], 0.01)]


@pytest.mark.parametrize("fam", FLOAT_FAMILIES, ids=lambda fam: type(fam).__name__)
@pytest.mark.parametrize("two_j", [0, 1, 2, 7, 64, 1000])
def test_float_ladder_is_the_scalar_closed_form_bitwise(fam, two_j):
    # the array expression over m = j, ..., -j-1 against the closed form one float m at a time, boundary point
    # (the screen's scalar read) included
    spec = StructureSpec(fam, HalfInt(two_j))
    ms = np.arange(two_j, -two_j - 3, -2) / 2
    scalar = np.array([structure._float_closed_form(fam, spec.j, t / 2) for t in range(two_j, -two_j - 3, -2)])
    array = structure._float_closed_form(fam, spec.j, ms)
    assert bitwise_equal(array, scalar)
    values, d = structure.ladder_numerators(spec)
    assert d == 1 and bitwise_equal(values, scalar[1:-1])


@pytest.mark.parametrize("two_j", [0, 1, 2, 7, 64, 1000])
def test_sl2_and_uq_ladders_are_the_scalar_closed_forms_bitwise(two_j):
    j = HalfInt(two_j)
    sources = weights_desc(j)[1:]
    sl2 = np.array([(j.value - m.value) * (j.value + m.value + 1) for m in sources])
    assert bitwise_equal(structure.sl2_squares(j), sl2)
    assert bitwise_equal(build_sl2(j).ladder[1], np.sqrt(sl2))
    uq = np.array([q_bracket(j.value - m.value, 0.01) * q_bracket(j.value + m.value + 1, 0.01) for m in sources])
    assert bitwise_equal(build_uq(j, 0.01).ladder[1], np.sqrt(uq))


def test_inadmissible_polynomial_rejection_list_matches_admissible():
    spec = StructureSpec(Polynomial([1, Fraction(-1, 7)]), halfint(4))
    ok, offending = admissible(spec)
    assert not ok and offending == sorted(offending)
    with pytest.raises(InadmissibleSpecError) as exc:
        build_deformed(spec)
    assert exc.value.offending == offending
    # F(j, m) = (j-m)(j+m+1)(1 - (j(j+1) + m(m+1))/7) is negative exactly where the screen says
    assert offending == [m for m in weights_desc(spec.j)[:0:-1] if poly_f(spec.family.alpha, spec.j, m) < 0]


def test_weight_off_by_1e6_fails_on_the_ladder_path():
    rep = build_sl2(halfint(2))
    w, u = rep.ladder
    w = w.copy()
    w[0] += 1e-6
    shifted = MatrixRep(rep.dim, rep.two_j, 0.0, "sl2", ladder=(w, u))
    report = commutator_residuals(shifted, [Fraction(1)], tol=1e-10)
    assert [c.passed for c in report.checks] == [False, False, False]


DENSE = {"J3", "Jplus", "Jminus"}


def bitwise_equal(a, b):
    """Equal dtype, shape, values and signs of zero; compares long doubles without their padding bytes."""
    return (a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def builder_reps():
    sl2 = build_sl2(halfint("7/2"))
    yield "sl2", sl2
    yield "polynomial", polynomial_rep(64, 3)[0]
    j = halfint("9/2")
    lo, hi = higgs_beta_window(j)
    beta = lo + 0.4 * (hi - lo)
    gamma = next(sol.gamma for sol in higgs_gamma_roots(j, beta) if sol.gamma != 0)
    yield "higgs_shifted", build_deformed(StructureSpec(HiggsShifted(beta, gamma), j))
    yield "quadratic_explicit", build_quadratic_explicit(sl2, 0.05)
    yield "uq", build_uq(HalfInt(20), 0.2)
    yield "uq_longdouble", build_uq(HalfInt(20), 0.2, dtype=np.longdouble)


@pytest.mark.parametrize("name,rep", list(builder_reps()), ids=lambda x: x if isinstance(x, str) else "")
def test_dense_views_equal_the_former_assembly(name, rep):
    # the former _assemble: np.diag(weights), jp = np.diag(u, 1), Jminus = jp.T.copy()
    w, u = rep.ladder
    assert not DENSE & vars(rep).keys()
    weights = (np.arange(rep.two_j, -rep.two_j - 1, -2) / 2.0 + rep.gamma).astype(u.dtype)
    assert bitwise_equal(w, weights)
    jp = np.diag(u, 1)
    for got, want in ((rep.J3, np.diag(weights)), (rep.Jplus, jp), (rep.Jminus, jp.T.copy())):
        assert bitwise_equal(got, want), name
        assert got.flags.c_contiguous and got.flags.writeable
    assert rep.Jminus is rep.Jminus


def test_checks_and_inverse_maps_build_no_dense_field():
    rep, alpha = polynomial_rep(64, 3)
    repq = build_uq(HalfInt(20), 0.2)
    commutator_residuals(rep, beta_from_alpha(alpha))
    casimir_matrix(rep, alpha)
    back = inverse_map_polynomial(rep, alpha)
    uq_casimir_residuals(repq.j, QParam(0.2))
    backq = inverse_map_uq(repq, 0.2)
    for r in (rep, repq, back, backq):
        assert r.ladder is not None and not DENSE & vars(r).keys()


def test_editing_a_dense_view_leaves_the_ladder_rep_unchanged():
    rep = build_sl2(halfint(2))
    w, u = rep.ladder
    assert not w.flags.writeable and not u.flags.writeable
    rep.Jplus[0, 1] += 1.0
    assert rep.ladder[1][0] == 2.0
    assert commutator_residuals(rep, [Fraction(1)]).all_passed
    with pytest.raises(TypeError):
        MatrixRep(1, 0, 0.0, "sl2")


def test_verify_at_2j_4000_forms_no_dense_matrix(capsys):
    tracemalloc.start()
    try:
        code = run(["--format", "json", "verify", "--family", "polynomial", "--j", "2000",
                    "--alpha", "1,1/10,1/100"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    report = json.loads(capsys.readouterr().out)
    exact = [c for c in report["checks"] if c["kind"] == "exact"]
    assert len(exact) == 4000 and all(c["pass"] for c in exact)
    assert code == (0 if report["summary"]["all_passed"] else 1)
    assert peak < 32 * 2**20  # one 4001 x 4001 float64 matrix takes 128 MB
