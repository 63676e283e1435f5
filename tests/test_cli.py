import csv
import io
import json
import math
import os
import shlex
import stat
import subprocess
import sys
import threading
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import nlsl2.cli as cli
from nlsl2 import families, hopf, qdeform, repbuilder, verifier
from nlsl2.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, run
from nlsl2.coefficients import alpha_from_beta, beta_from_alpha, format_rational
from nlsl2.halfint import HalfInt
from nlsl2.repbuilder import MatrixRep
from nlsl2.structure import Polynomial, StructureSpec
from nlsl2.verifier import commutator_residuals


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeffs_alpha_from_beta_table(capsys):
    code, out, _ = _run(capsys, "coeffs", "--alpha-from-beta", "1,-3/10")
    assert code == EXIT_OK
    assert out.strip() == "1, -3/5"


def test_coeffs_round_trip_json(capsys):
    code, out, _ = _run(capsys, "--format", "json", "coeffs", "--beta-from-alpha", "1,-3/5")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["beta"] == ["1/1", "-3/10"]


def test_coeffs_requires_a_direction(capsys):
    code, _, err = _run(capsys, "coeffs")
    assert code == EXIT_USAGE
    assert "required" in err


def test_rep_json_output(capsys):
    code, out, _ = _run(capsys, "--format", "json", "rep", "--family", "sl2", "--j", "1/2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["dim"] == 2
    assert payload["Jplus"] == [0.0, 1.0, 0.0, 0.0]


def test_rep_inadmissible_is_usage_error(capsys):
    code, _, err = _run(capsys, "rep", "--family", "polynomial", "--j", "3/2", "--alpha", "1,-1")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_verify_polynomial_passes(capsys):
    code, out, _ = _run(capsys, "verify", "--family", "polynomial", "--j", "2", "--alpha", "1,1/10")
    assert code == EXIT_OK
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_impossible_tolerance_fails(capsys):
    # residuals are ~1e-16 but nonzero, so an absurd tolerance must flip to 1
    code, out, _ = _run(capsys, "--tol", "1e-30", "verify", "--family", "polynomial",
                        "--j", "2", "--alpha", "1,1/10")
    assert code == EXIT_CHECK_FAILED
    assert "FAIL" in out


def test_verify_uq(capsys):
    code, out, _ = _run(capsys, "verify", "--family", "uq", "--j", "3/2", "--delta", "0.3")
    assert code == EXIT_OK
    assert "arcsinh" in out


def test_families_csv(capsys):
    code, out, _ = _run(capsys, "--format", "csv", "families", "--family", "higgs",
                        "--j", "1/2", "--beta-grid=-0.3,0.5,-2")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["count"] for r in rows] == ["3", "1", "0"]


def test_families_quadratic_single(capsys):
    code, out, _ = _run(capsys, "--format", "json", "families", "--family", "quadratic",
                        "--j", "1/2", "--alpha", "0.5")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert abs(payload["rows"][0]["gammas"][0] + 0.5) < 1e-12


def test_hopf_checks(capsys):
    code, out, _ = _run(capsys, "hopf", "--j1", "1/2", "--j2", "1", "--alpha", "1,-1/5")
    assert code == EXIT_OK
    assert "Clebsch-Gordan" in out
    # Delta(J+') of the polynomial family against the antipode and the counit, no label-triple check left
    assert "polynomial: antipode axiom m(S x id)Delta(J+') = 0" in out
    assert "polynomial: counit (eps x id)Delta(J+') = J+'" in out
    assert "coassociativity" not in out


def test_hopf_alpha_checks_the_deformed_coproduct_on_weight_blocks(capsys, monkeypatch):
    taken = []
    real = verifier.commutator_residuals
    monkeypatch.setattr(verifier, "commutator_residuals", lambda rep, *a, **k: taken.append(rep) or real(rep, *a, **k))
    code, out, _ = _run(capsys, "--format", "json", "hopf", "--j1", "11", "--j2", "11",
                        "--alpha=1/1,1/10,1/100")
    assert len(taken) == 1 and isinstance(taken[0], hopf.Coproduct) and taken[0].j3 is None
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    comm = checks["deformed coproduct: [J+,J-] = sum_p beta_p (2 J3)^(2p+1)"]
    # rounding on terms of norm ~1.2e7 (the dense matmuls gave 3.4139e-8), which
    # the scale-relative gate admits; the Clebsch-Gordan block spectra accept it
    assert 1e-8 < comm["residual"] < 1e-7
    assert code == EXIT_OK and comm["pass"]


FIXED_ALPHA = [Fraction(1), Fraction(1, 10), Fraction(1, 100)]
COMM = "[J+,J-] = sum_p beta_p (2 J3)^(2p+1)"


def _ladder_off(build):
    """build, with the largest entry of J+ (and so of J-) off by 1e-9 relative."""
    def off(*args, **kwargs):
        rep = build(*args, **kwargs)
        w, u = rep.ladder
        u = u.copy()
        u[np.argmax(u)] *= 1 + 1e-9
        return MatrixRep(rep.dim, rep.two_j, rep.gamma, rep.family, ladder=(w, u))
    return off


def _coproduct_off(build):
    """build, with the largest step entry of Delta(J+) (and so of Delta(J-)) off by 1e-9 relative."""
    def off(*args, **kwargs):
        cop = build(*args, **kwargs)
        steps = [s.copy() for s in cop.steps]
        k = max(range(len(steps)), key=lambda i: steps[i].max())
        steps[k][np.unravel_index(np.argmax(steps[k]), steps[k].shape)] *= 1 + 1e-9
        return hopf.Coproduct(cop.pr, steps, cop.j3)
    return off


# Each of these was a false FAIL of an absolute gate on terms of norm up to 1e11.
@pytest.mark.parametrize("argv,module,name,off,flips", [
    pytest.param(None, repbuilder, "build_deformed", _ladder_off, [COMM], id="irrep_2j200_default_gate"),
    pytest.param(["verify", "--family", "polynomial", "--j", "40", "--alpha=1/1,1/10,1/100"], repbuilder,
                 "build_deformed", _ladder_off, [COMM, "Casimir = phi(j(j+1)) I"], id="verify_polynomial_j40"),
    pytest.param(["verify", "--family", "uq", "--j", "20", "--delta=0.3"], repbuilder, "build_uq", _ladder_off,
                 ["[J+,J-] = [2 J3] diagonal", "q-Casimir diagonal constant"], id="verify_uq_j20"),
    pytest.param(["hopf", "--j1", "11", "--j2", "11", "--alpha=1/1,1/10,1/100"], hopf, "transferred_coproduct",
                 _coproduct_off, ["deformed coproduct: " + COMM], id="hopf_alpha_j11"),
    pytest.param(["hopf", "--j1", "20", "--j2", "20", "--alpha=1/1,1/10,1/100"], hopf, "transferred_coproduct",
                 _coproduct_off, ["deformed coproduct: " + COMM, "co-commutativity of deformed coproduct"],
                 id="hopf_alpha_j20"),
    pytest.param(["qlimit", "--delta", "0.3", "--j", "40"], repbuilder, "build_uq", _ladder_off,
                 ["q-Casimir diagonal constant"], id="qlimit_j40"),
])
def test_former_false_fails_pass_and_fail_when_jplus_is_off(capsys, monkeypatch, argv, module, name, off, flips):
    def verdicts():
        if argv is None:
            rep = repbuilder.build_deformed(StructureSpec(Polynomial(FIXED_ALPHA), HalfInt(200)))
            return {c.name: c.passed for c in commutator_residuals(rep, beta_from_alpha(FIXED_ALPHA)).checks}
        code, out, _ = _run(capsys, "--format", "json", *argv)
        passed = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
        assert code == (EXIT_OK if all(passed.values()) else EXIT_CHECK_FAILED)
        return passed

    assert all(verdicts().values())
    monkeypatch.setattr(module, name, off(getattr(module, name)))
    passed = verdicts()
    assert not any(passed[n] for n in flips)


def _ones(n):
    return "--alpha=" + ",".join(["1"] * n)


# Terms past 1e154 whose plain sums of squares left the float range: residuals and gates read inf and FAILed
@pytest.mark.parametrize("argv,module,name,off,flips", [
    pytest.param(["verify", "--family", "polynomial", "--j", "100", _ones(45)], repbuilder, "build_deformed",
                 _ladder_off, [COMM, "Casimir = phi(j(j+1)) I"], id="verify_polynomial_j100"),
    pytest.param(["hopf", "--j1", "20", "--j2", "20", _ones(60)], hopf, "transferred_coproduct", _coproduct_off,
                 ["deformed coproduct: " + COMM], id="hopf_alpha_j20"),
])
def test_residuals_stay_finite_where_the_terms_square_past_a_float(capsys, monkeypatch, argv, module, name, off,
                                                                   flips):
    def verdicts():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, "--format", "json", *argv)
        checks = json.loads(out)["checks"]
        assert err == "" and code == (EXIT_OK if all(c["pass"] for c in checks) else EXIT_CHECK_FAILED)
        assert all(math.isfinite(c["residual"]) and math.isfinite(c["bound"]) for c in checks if "bound" in c)
        return {c["name"]: c["pass"] for c in checks}

    assert all(verdicts().values())
    monkeypatch.setattr(module, name, off(getattr(module, name)))
    passed = verdicts()
    assert not any(passed[n] for n in flips)


def test_hopf_casimir_spectrum_fails_with_one_factor_jplus_entry_off(capsys, monkeypatch):
    # Delta(C) is read off the Delta(J+) steps, so the spectrum check sees a factor's J+ that is not an sl2 ladder
    argv = ["--format", "json", "hopf", "--j1", "11", "--j2", "11"]
    name = "Delta(C) spectrum = Clebsch-Gordan J(J+1) pattern"
    code, out, _ = _run(capsys, *argv)
    assert code == EXIT_OK
    build, calls = repbuilder.build_sl2, []

    def first_off(j):  # only the first factor
        calls.append(j)
        return (_ladder_off(build) if len(calls) == 1 else build)(j)

    monkeypatch.setattr(repbuilder, "build_sl2", first_off)
    code, out, _ = _run(capsys, *argv)
    (check,) = [c for c in json.loads(out)["checks"] if c["name"] == name]
    assert code == EXIT_CHECK_FAILED and not check["pass"] and check["residual"] > 100 * check["bound"]


def test_qlimit(capsys):
    code, out, _ = _run(capsys, "qlimit", "--j", "1", "--delta", "0.3")
    assert code == EXIT_OK
    assert "rigidity" in out


def test_unknown_command_usage(capsys):
    code, _, _ = _run(capsys, "frobnicate")
    assert code == EXIT_USAGE


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = run(["--format", "json", "--output", str(target),
                "coeffs", "--alpha-from-beta", "1"])
    capsys.readouterr()
    assert code == EXIT_OK
    assert json.loads(target.read_text())["alpha"] == ["1/1"]


def test_python_dash_m_runs_the_cli_from_a_checkout():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "nlsl2", "coeffs", "--alpha-from-beta", "1,1/10"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1, 1/5"


@pytest.mark.parametrize("argv", [
    ["coeffs", "--alpha-from-beta=,"],
    ["coeffs", "--beta-from-alpha=,"],
    ["coeffs", "--alpha-from-beta=1/0"],
    ["coeffs", "--beta-from-alpha=1,2/0"],
    ["verify", "--family", "polynomial", "--j", "1", "--alpha=1/0"],
    ["verify", "--family", "polynomial", "--j", "1", "--alpha=,"],
    ["verify", "--family", "polynomial", "--j", "1", "--alpha="],
    ["verify", "--family", "polynomial", "--j", "1"],
    ["hopf", "--j1", "1/2", "--j2", "1/2", "--alpha=1/0"],
    ["hopf", "--j1", "1/2", "--j2", "1/2", "--alpha=,"],
    ["hopf", "--j1", "1", "--j2", "1", "--alpha="],
    ["rep", "--family", "qbase", "--j", "1", "--alpha=,"],
    ["families", "--family", "higgs", "--j", "1", "--beta-grid=,"],
    ["families", "--family", "quadratic", "--j", "1", "--alpha=1/0"],
    ["rep", "--family", "higgs", "--j", "1"],
    ["verify", "--family", "higgs", "--j", "1"],
    ["families", "--family", "higgs", "--j", "1"],
    ["rep", "--family", "quadratic", "--j", "1"],
], ids=" ".join)
def test_bad_coefficient_text_is_a_usage_error(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error: ")
    assert "Traceback" not in err


def _readme_cli_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line.split("#", 1)[0]) for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("argv", _readme_cli_commands(), ids=" ".join)
def test_readme_cli_examples_exit_zero(capsys, argv):
    assert argv[0] == "nlsl2"
    code, _, err = _run(capsys, *argv[1:])
    assert code == EXIT_OK, err


@pytest.mark.parametrize("argv", [
    ["coeffs", "--alpha-from-beta", "1,-3/10"],
    ["coeffs", "--beta-from-alpha", "1,-3/5"],
    ["rep", "--family", "polynomial", "--j", "5/2", "--alpha", "1,1/10"],
    ["rep", "--family", "uq", "--j", "2", "--delta", "0.3"],
    ["verify", "--family", "polynomial", "--j", "2", "--alpha", "1,1/10"],
    ["verify", "--family", "uq", "--j", "3/2"],
    ["families", "--family", "higgs", "--j", "1/2", "--beta-grid=-0.3,0.5,-2"],
    ["families", "--family", "quadratic", "--j", "1", "--alpha-grid=0.1,-0.2,0.9"],
    ["hopf", "--j1", "1/2", "--j2", "1", "--alpha", "1,-1/5", "--quadratic-alpha", "0.1"],
    ["qlimit", "--j", "1"],
], ids=" ".join)
def test_json_output_is_one_line_that_parses_to_the_payload(capsys, monkeypatch, argv):
    payloads = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit",
                        lambda args, payload, *rest: (payloads.append(payload()), emit(args, payload, *rest)))
    code, out, _ = _run(capsys, "--format", "json", *argv)
    assert code == EXIT_OK
    assert out.endswith("\n") and out.count("\n") == 1
    (payload,) = payloads
    assert json.loads(out) == payload


@pytest.mark.parametrize("argv", [
    ["qlimit", "--j", "800", "--delta", "0.5"],
    ["verify", "--family", "uq", "--j", "800", "--delta", "0.5"],
], ids=" ".join)
def test_float_overflow_is_a_usage_error(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["qlimit", "--j", "800", "--delta", "0.5"],
    ["qlimit", "--j", "356", "--delta", "1"],
    ["verify", "--family", "uq", "--j", "800", "--delta", "0.5"],
    ["rep", "--family", "uq", "--j", "800", "--delta", "-0.5"],
], ids=" ".join)
def test_q_number_overflow_is_one_error_line_naming_j_delta_and_the_limit(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.count("\n") == 1 and err.startswith("error: q-numbers at j=")
    j, delta = argv[argv.index("--j") + 1], argv[argv.index("--delta") + 1]
    assert f"j={j}, delta={float(delta)}" in err and "exceeds the limit" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("delta", [0.3, 1.0, 2.0])
def test_qlimit_past_its_term_cap_is_one_error_line(capsys, delta):
    # |delta|(2j+1) = 400 is inside the q-range (limit about 710), but the series would need 286 exact rows (2.6 s
    # at delta = 1); the default truncation stays within verifier.MAX_TRUNC = 256 up to |delta|(2j+1) = 351
    two_j = round(400 / delta) - 1
    start = time.perf_counter()
    code, out, err = _run(capsys, "qlimit", "--j", str(HalfInt(two_j)), "--delta", str(delta))
    assert time.perf_counter() - start < 5
    assert code == EXIT_USAGE and out == ""
    assert err.count("\n") == 1 and err.startswith("error: the q-series identity at j=")
    assert f"past the cap of {verifier.MAX_TRUNC}" in err
    with pytest.raises(ValueError, match="past the cap"):
        verifier.q_series_identity_residual(2, -2, 0.3, trunc=verifier.MAX_TRUNC + 1)


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unwritable_output_is_one_error_line_naming_the_path(tmp_path, capsys, fmt, where):
    target = tmp_path / "no" / "such" / "x.json" if where == "missing_dir" else tmp_path
    before = sorted(tmp_path.rglob("*"))
    code, out, err = _run(capsys, "--format", fmt, "--output", str(target), "coeffs", "--alpha-from-beta", "1")
    assert code == EXIT_USAGE and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and str(target) in err
    assert sorted(tmp_path.rglob("*")) == before


Q_CASIMIR = ["q-Casimir diagonal constant", "sqrt(Chat + [1/2]^2) = [j+1/2]", "q-Casimir arcsinh relation"]


@pytest.mark.parametrize("delta", [0.01, 0.1, 0.3, 0.5])
def test_q_casimir_checks_pass_up_to_2j_200(delta):
    for two_j in range(201):
        report = verifier.VerificationReport()
        cli._add_q_casimir_checks(report, HalfInt(two_j), delta, None)
        assert [c.name for c in report.checks] == Q_CASIMIR
        assert report.all_passed, (two_j, [c.to_json_dict() for c in report.checks])


# fs[0] = [j][j+1] enters only the first Casimir diagonal entry, which the two
# scalar identities read; fs[-1] enters only the last one.
@pytest.mark.parametrize("entry,flips", [(0, Q_CASIMIR), (-1, Q_CASIMIR[:1])])
@pytest.mark.parametrize("argv", [
    ["qlimit", "--j", "1/2", "--delta", "0.3"],
    ["qlimit", "--j", "40", "--delta", "0.01"],
    ["verify", "--family", "uq", "--j", "20", "--delta", "0.5"],
    ["verify", "--family", "uq", "--j", "100", "--delta", "0.5"],
], ids=" ".join)
def test_q_casimir_checks_fail_on_one_casimir_entry_off_by_1e9(capsys, monkeypatch, argv, entry, flips):
    def verdicts():
        code, out, _ = _run(capsys, "--format", "json", *argv)
        passed = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
        assert code == (EXIT_OK if all(passed.values()) else EXIT_CHECK_FAILED)
        return passed

    assert all(verdicts().values())
    values = qdeform._q_bracket_values

    def off(j, delta):
        fs = values(j, delta)
        fs[entry] *= 1 + 1e-9
        return fs

    monkeypatch.setattr(qdeform, "_q_bracket_values", off)
    passed = verdicts()
    assert [n for n in Q_CASIMIR if not passed[n]] == flips


def _former_text(fmt, payload, table):
    """What --format printed when every command built its JSON payload (with optional "csv"
    rows) and its table text up front, whatever the format."""
    if fmt == "json":
        return json.dumps({k: v for k, v in payload.items() if k != "csv"}, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        header, rows = payload.get("csv", (["value"], [[json.dumps(payload)]]))
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue().rstrip("\n") + "\n"
    return table + "\n"


def _coeffs_expected():
    out = alpha_from_beta([Fraction(1), Fraction(-3, 10), Fraction(1, 7)])
    text = [format_rational(v) for v in out]
    return {"alpha": text, "csv": (["alpha"], [[t] for t in text])}, ", ".join(str(v) for v in out)


def _rep_expected():
    rep = repbuilder.build_deformed(StructureSpec(Polynomial([Fraction(1), Fraction(1, 10)]), HalfInt(5)))
    w, u = rep.ladder
    table = (f"family={rep.family} j={rep.j} dim={rep.dim} gamma={rep.gamma}\n"
             f"J3 diag: {w.tolist()}\nJ+ superdiag: {u.tolist()}")
    return rep.to_json_dict(), table


def _families_expected():
    rows = families.scan(HalfInt(2), [-0.3, 0.5, -2.0, -0.05], "higgs")
    header, csv_rows = families.scan_csv_rows(rows)
    table = "\n".join(["  ".join(header)] + ["  ".join(str(v) for v in r) for r in csv_rows])
    return {"rows": rows, "csv": (header, csv_rows)}, table


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("argv,expected", [
    (["coeffs", "--alpha-from-beta", "1,-3/10,1/7"], _coeffs_expected),
    (["rep", "--family", "polynomial", "--j", "5/2", "--alpha", "1,1/10"], _rep_expected),
    (["verify", "--family", "polynomial", "--j", "2", "--alpha", "1,1/10"], None),
    (["families", "--family", "higgs", "--j", "1", "--beta-grid=-0.3,0.5,-2,-0.05"], _families_expected),
    (["hopf", "--j1", "1/2", "--j2", "1", "--alpha", "1,-1/5", "--quadratic-alpha", "0.1"], None),
    (["qlimit", "--j", "3/2", "--delta", "0.2"], None),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_each_format_prints_what_building_every_format_printed(capsys, monkeypatch, fmt, argv, expected):
    reports = []

    class Recorded(verifier.VerificationReport):
        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            reports.append(self)

    monkeypatch.setattr(verifier, "VerificationReport", Recorded)
    code, out, _ = _run(capsys, "--format", fmt, *argv)
    assert code == EXIT_OK
    if expected is None:  # the report the command built first is the one it prints
        payload, table = reports[0].to_json_dict(), reports[0].render_table()
    else:
        payload, table = expected()
    assert out == _former_text(fmt, payload, table)


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_output_over_a_longer_file_leaves_exactly_the_new_text(tmp_path, capsys, fmt):
    target = tmp_path / "out"
    long_argv = ["--format", fmt, "rep", "--family", "sl2", "--j", "5"]
    short_argv = ["--format", fmt, "coeffs", "--alpha-from-beta", "1"]
    assert run(["--output", str(target), *long_argv]) == EXIT_OK
    long_size = target.stat().st_size
    assert run(["--output", str(target), *short_argv]) == EXIT_OK
    assert run(short_argv) == EXIT_OK
    expected = capsys.readouterr().out.encode()
    assert len(expected) < long_size and target.read_bytes() == expected


@pytest.mark.parametrize("mask", [0o022, 0o077, 0o002])
def test_output_creates_a_missing_file_with_the_mode_open_gives(tmp_path, capsys, mask):
    reference, target = tmp_path / "reference", tmp_path / "target"
    old = os.umask(mask)
    try:
        with open(reference, "w"):
            pass
        assert run(["--output", str(target), "coeffs", "--alpha-from-beta", "1"]) == EXIT_OK
    finally:
        os.umask(old)
    assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)
    assert target.read_text() == "1\n"


def test_output_to_dev_null_exits_zero(capsys):
    assert run(["--output", os.devnull, "rep", "--family", "sl2", "--j", "3"]) == EXIT_OK
    assert capsys.readouterr().out == ""


def test_output_to_a_fifo_writes_the_text(tmp_path, capsys):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    try:
        code = run(["--output", str(fifo), "coeffs", "--alpha-from-beta", "1,1/10"])
    finally:
        reader.join(timeout=60)
    assert not reader.is_alive() and code == EXIT_OK and got == ["1, 1/5\n"]


def test_output_to_dev_stdout_into_a_pipe_exits_zero():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "nlsl2", "--output", "/dev/stdout", "coeffs", "--alpha-from-beta",
                           "1,1/10"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1, 1/5\n"


def test_hopf_quadratic_with_negative_alpha_exits_zero(capsys):
    # the ladder factor at J = M = 1 is negative for alpha = -0.28, where Delta(J+) annihilates the state
    code, out, err = _run(capsys, "hopf", "--j1", "1/2", "--j2", "1/2", "--quadratic-alpha=-0.28")
    assert code == EXIT_OK and err == ""
    assert "antipode axiom m(id x S)Delta(J+') = 0" in out


@pytest.mark.parametrize("j,alpha", [("1/2", "-0.45"), ("1", "-0.3")])
def test_hopf_quadratic_beyond_the_radicand_bound_names_the_product_radicand(capsys, j, alpha):
    # the S formula reads h at M < J only, so the transfer's radicand guard names the failure
    code, out, err = _run(capsys, "hopf", "--j1", j, "--j2", j, f"--quadratic-alpha={alpha}")
    assert code == EXIT_USAGE and out == "" and err.count("\n") == 1
    assert err.startswith("error: negative radicand") and "|alpha| <= 3/(2(4j+1))" in err


@pytest.mark.parametrize("argv,families", [
    ([], ["sl2"]),
    (["--alpha=1,1/10"], ["polynomial"]),
    (["--quadratic-alpha=0.05"], ["quadratic"]),
    (["--alpha=1,1/10", "--quadratic-alpha=-0.05"], ["polynomial", "quadratic"]),
], ids=lambda v: " ".join(v) if v and v[0].startswith("-") else None)
@pytest.mark.parametrize("j1,j2", [("3/2", "3/2"), ("1", "5/2")])
def test_hopf_runs_the_axiom_checks_once_per_family(capsys, argv, families, j1, j2):
    code, out, _ = _run(capsys, "--format", "json", "hopf", "--j1", j1, "--j2", j2, *argv)
    checks = json.loads(out)["checks"]
    assert code == EXIT_OK and all(c["pass"] for c in checks)
    for name in families:
        ours = [c for c in checks if c["name"].startswith(name + ": ")]
        assert len(ours) == 15 and all(c["kind"] == "numeric" for c in ours)
    deformed = 3 + (j1 == j2) if "polynomial" in families else 0  # commutators and co-commutativity
    assert len(checks) == 1 + 15 * len(families) + deformed


@pytest.mark.parametrize("j1,j2", [("1", "1/2"), ("1/2", "1")])
def test_hopf_reads_the_axioms_on_the_smaller_factor(capsys, j1, j2):
    # alpha = 1, -1/5 is admissible on 1 (x) 1/2 but not at J = 2 of 1 (x) 1, so the checks read
    # 1/2 (x) 1/2 whichever factor is named first
    code, out, err = _run(capsys, "--format", "json", "hopf", "--j1", j1, "--j2", j2, "--alpha", "1,-1/5")
    checks = [c for c in json.loads(out)["checks"] if c["name"].startswith("polynomial: ")]
    assert code == EXIT_OK and err == "" and len(checks) == 15 and all(c["pass"] for c in checks)
    assert {c["context"] for c in checks} == {"j=1/2", "j=1/2 (x) j=1/2", "j=1/2 (x) j=0"}


def test_hopf_leaves_out_a_family_inadmissible_on_the_check_product_alone(capsys):
    # phi = x^3 - 5x has a negative divided difference at J = 1 of 1 (x) 1, a label 1 (x) 3 does not
    # hold, and none on 1 (x) 3 itself
    code, out, err = _run(capsys, "--format", "json", "hopf", "--j1", "1", "--j2", "3", "--alpha=-5,0,1")
    checks = json.loads(out)["checks"]
    assert code == EXIT_OK and all(c["pass"] for c in checks)
    assert not any(c["name"].startswith("polynomial: ") for c in checks)
    assert sum(c["name"].startswith("deformed coproduct: ") for c in checks) == 3
    assert err == ("note: polynomial axiom checks left out, V(1) (x) V(1): "
                   "negative divided difference at J(J+1) = 2, M = 0\n")


@pytest.mark.parametrize("argv", [[], ["--alpha=1,1/10"], ["--quadratic-alpha=0.05"]])
def test_hopf_forms_no_product_larger_than_the_one_asked_for(capsys, monkeypatch, argv):
    dims, real = [], hopf.primitive_coproduct
    monkeypatch.setattr(hopf, "primitive_coproduct", lambda a, b: dims.append(real(a, b)) or dims[-1])
    code, _, _ = _run(capsys, "hopf", "--j1", "20", "--j2", "1/2", *argv)
    assert code == EXIT_OK and max(pr.dim for pr in dims) == 41 * 2


def _uq_verdict(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "--format", "json", *argv)
    assert err == ""
    checks = json.loads(out)["checks"]
    assert all(math.isfinite(c["residual"]) and math.isfinite(c["bound"]) for c in checks)
    return code, {c["name"]: c["pass"] for c in checks}


def test_verify_uq_gives_a_finite_verdict_where_the_entries_square_past_a_float(capsys, monkeypatch):
    # [j-m][j+m+1] reaches 1.4e307 at j = 354, delta = 1; its plain norm squared overflowed to inf
    argv = ["verify", "--family", "uq", "--j", "354", "--delta", "1"]
    code, passed = _uq_verdict(capsys, argv)
    assert code == EXIT_OK and all(passed.values())
    build_uq = repbuilder.build_uq

    def off(j, delta):
        rep = build_uq(j, delta)
        w, u = rep.ladder
        u = u.copy()
        u[np.argmax(u)] *= 1 + 1e-9
        return MatrixRep(rep.dim, rep.two_j, rep.gamma, rep.family, ladder=(w, u))

    monkeypatch.setattr(repbuilder, "build_uq", off)
    code, passed = _uq_verdict(capsys, argv)
    assert code == EXIT_CHECK_FAILED and not passed["[J+,J-] = [2 J3] diagonal"]


def test_qlimit_series_stays_finite_past_the_float_range_of_its_powers(capsys):
    # (j(j+1))^89 and 180! pass 1e308 at j = 150, delta = 0.3; the series they build does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "--format", "json", "qlimit", "--j", "150", "--delta", "0.3")
    assert code == EXIT_OK and err == ""
    (series,) = [c for c in json.loads(out)["checks"] if c["name"] == "series identity truncation"]
    assert series["pass"] and 0 < series["residual"] <= series["bound"] < math.inf


def test_hopf_cocommutativity_fails_with_one_step_entry_off(capsys, monkeypatch):
    # one step entry of Delta'(J+') off by 1e-9 relative, in a row whose state a (x) b has a != b, so its
    # swap partner, another entry, is left as it is
    real = hopf.transferred_coproduct

    def off(pr, t, order="source"):
        cop = real(pr, t, order)
        if pr.d1 != pr.d2 or pr.d1 == 1:
            return cop
        steps = [s.copy() for s in cop.steps]
        k, d = len(steps) // 2, pr.d1
        r = next(r for r, state in enumerate(pr.blocks[k + 1].indices) if state % d != state // d)
        steps[k][r, np.argmax(np.abs(steps[k][r]))] *= 1 + 1e-9
        return hopf.Coproduct(pr, steps, cop.j3)

    argv = ["--format", "json", "hopf", "--j1", "7/2", "--j2", "7/2", "--alpha=1/1,1/10,1/100"]
    code, out, _ = _run(capsys, *argv)
    assert code == EXIT_OK
    monkeypatch.setattr(hopf, "transferred_coproduct", off)
    code, out, _ = _run(capsys, *argv)
    (check,) = [c for c in json.loads(out)["checks"] if c["name"] == "co-commutativity of deformed coproduct"]
    assert code == EXIT_CHECK_FAILED and not check["pass"] and check["residual"] > 100 * check["bound"]


def test_hopf_at_equal_spins_builds_the_product_and_its_coproduct_once(capsys, monkeypatch):
    # the polynomial axiom checks read the Coproduct the commutator and co-commutativity checks read
    products, coproducts, axioms, commutators = [], [], [], []
    real_pr, real_cop, real_axioms, real_comm = (hopf.primitive_coproduct, hopf.transferred_coproduct,
                                                 hopf.hopf_axiom_checks, verifier.commutator_residuals)
    monkeypatch.setattr(hopf, "primitive_coproduct", lambda a, b: products.append(real_pr(a, b)) or products[-1])
    monkeypatch.setattr(hopf, "transferred_coproduct", lambda *a: coproducts.append(real_cop(*a)) or coproducts[-1])
    monkeypatch.setattr(hopf, "hopf_axiom_checks", lambda *a: axioms.append(a[-1]) or real_axioms(*a))
    monkeypatch.setattr(verifier, "commutator_residuals", lambda cop, *a, **k: commutators.append(cop)
                        or real_comm(cop, *a, **k))
    code, _, _ = _run(capsys, "hopf", "--j1", "3", "--j2", "3", "--alpha=1/1,1/10,1/100")
    assert code == EXIT_OK and sum(pr.dim == 49 for pr in products) == 1
    assert [cop.pr.dim for cop in coproducts] == [49, 7, 7]  # V (x) V, then the counit's V (x) V(0), V(0) (x) V
    assert axioms == commutators == coproducts[:1]


@pytest.mark.parametrize("j1,j2", [("3", "3"), ("40", "81/2")])
def test_hopf_builds_no_dense_positions(capsys, monkeypatch, j1, j2):
    # every check reads weight blocks: no kept product gets the dense positions `ProductRep._at` builds
    monkeypatch.setattr(hopf, "_kept", {})
    code, _, _ = _run(capsys, "hopf", "--j1", j1, "--j2", j2, "--alpha=1/1,1/10,1/100", "--quadratic-alpha=0.001")
    # V(j1) (x) V(j2), V (x) V for V = V(min(j1, j2)) (the same product at j1 == j2), V (x) V(0), V(0) (x) V
    assert code == EXIT_OK and len(hopf._kept) == 3 + (j1 != j2)
    assert all(pr.at == {} for pr in hopf._kept.values())


def _eigh_shapes(monkeypatch):
    """The stacked inputs `eigh` receives from here on, with no product kept before."""
    shapes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    monkeypatch.setattr(hopf, "_kept", {})
    return shapes


def test_hopf_builds_each_factor_pair_once_for_all_families(capsys, monkeypatch):
    # the coupled basis depends on the two factors only: both families read one V (x) V, V (x) V(0) and V(0) (x) V
    shapes = _eigh_shapes(monkeypatch)
    code, _, _ = _run(capsys, "hopf", "--j1", "3", "--j2", "3", "--alpha=1/1,1/10,1/100", "--quadratic-alpha=0.01")
    assert code == EXIT_OK
    # V(3) (x) V(3): one call per 2M >= 0 block, of sizes 7, ..., 1; each counit product: one on its four 1 x 1 blocks
    assert sorted(shapes) == sorted([(1, n, n) for n in range(1, 8)] + [(4, 1, 1)] * 2)


def test_hopf_at_equal_spins_forms_no_dense_product_matrix(capsys):
    import tracemalloc

    tracemalloc.start()
    try:
        code, _, _ = _run(capsys, "hopf", "--j1", "40", "--j2", "40", "--alpha=1/1,1/10,1/100")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # V(40) (x) V(40) has dimension 6561: the dense co-commutativity check took three 344 MB matrices
    assert code == EXIT_OK and peak < 200 * 2**20


def test_hopf_at_equal_spins_names_the_products_first_bad_label(capsys):
    # the product's coproduct is built before the axiom checks read it, so an inadmissible map is named at the
    # product's first bad label in ascending M, then ascending J, as deformed_coproduct names it
    code, out, err = _run(capsys, "hopf", "--j1", "2", "--j2", "2", "--alpha=1,-1/5")
    assert code == EXIT_USAGE and out == ""
    assert err == "error: negative divided difference at J(J+1) = 20, M = -4\n"


@pytest.mark.parametrize("argv,control", [
    (["rep", "--family", "higgs", "--j", "1", "--beta=-0.1", "--gamma=nan"], "--gamma=0"),
    (["verify", "--family", "higgs", "--j", "1", "--beta=-0.1", "--gamma=nan"], "--gamma=0"),
    (["rep", "--family", "qbase", "--j", "1", "--alpha=nan"], "--alpha=1"),
    (["hopf", "--j1", "1", "--j2", "1", "--quadratic-alpha=nan"], "--quadratic-alpha=0.05"),
    (["hopf", "--j1", "1", "--j2", "2", "--quadratic-alpha=nan"], "--quadratic-alpha=0.05"),
], ids=lambda v: v if isinstance(v, str) else " ".join(v))
def test_a_nan_parameter_is_one_error_line_and_its_finite_control_passes(capsys, argv, control):
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_USAGE and out == "" and err.startswith("error: ") and err.count("\n") == 1
    code, out, err = _run(capsys, *argv[:-1], control)
    assert code == EXIT_OK and out and err == ""


@pytest.mark.parametrize("family,name,value,count", [
    ("higgs", "beta", "nan", 0), ("quadratic", "alpha", "nan", 0), ("higgs", "beta", "-0.1", 1),
    ("quadratic", "alpha", "0.05", 1),
])
def test_families_counts_no_admissible_solution_at_a_nan_parameter(capsys, family, name, value, count):
    code, out, _ = _run(capsys, "--format", "json", "families", "--family", family, "--j", "1",
                        f"--{name}-grid={value}")
    (row,) = json.loads(out)["rows"]
    assert code == EXIT_OK and row["count"] == count and sum(row["admissible"]) == count


_QUADRATIC_GAMMA = "--gamma=-0.0671171376837526"  # quadratic_gamma(1, 0.05), the admissible shift


@pytest.mark.parametrize("argv,control", [
    (["rep", "--family", "quadratic", "--j", "1", "--alpha=0.05", "--gamma=inf"], _QUADRATIC_GAMMA),
    (["rep", "--family", "quadratic", "--j", "1", "--alpha=0.05", "--gamma=-inf"], _QUADRATIC_GAMMA),
    (["rep", "--family", "quadratic", "--j", "1", "--alpha=0.05", "--gamma=nan"], _QUADRATIC_GAMMA),
    (["rep", "--family", "higgs", "--j", "1", "--beta=-0.1", "--gamma=inf"], "--gamma=0"),
    (["verify", "--family", "higgs", "--j", "1", "--beta=-0.1", "--gamma=inf"], "--gamma=0"),
    (["rep", "--family", "qbase", "--j", "1", "--alpha=1,inf"], "--alpha=1,0"),
], ids=lambda v: v if isinstance(v, str) else " ".join(v))
def test_a_non_finite_float_family_parameter_is_refused_before_its_closed_form(capsys, argv, control):
    # no closed form runs on it: the only line on stderr is the error naming the option
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, *argv)
    name, value = argv[-1][2:].split("=")
    assert code == EXIT_USAGE and out == "" and not caught
    assert err == f"error: --{name} must be a finite number, not {float(value.split(',')[-1])}\n"
    code, out, err = _run(capsys, *argv[:-1], control)
    assert code == EXIT_OK and out and err == ""


@pytest.mark.parametrize("argv,control", [
    (["rep", "--family", "higgs", "--j", "1", "--gamma=0", "--beta=inf"], "--beta=-0.1"),
    (["rep", "--family", "higgs", "--j", "1", "--gamma=0", "--beta=nan"], "--beta=-0.1"),
    (["verify", "--family", "higgs", "--j", "1", "--gamma=0", "--beta=-inf"], "--beta=-0.1"),
    (["rep", "--family", "quadratic", "--j", "1", _QUADRATIC_GAMMA, "--alpha=inf"], "--alpha=0.05"),
    (["rep", "--family", "quadratic", "--j", "1", _QUADRATIC_GAMMA, "--alpha=nan"], "--alpha=0.05"),
    (["hopf", "--j1", "1", "--j2", "1", "--alpha=1,inf"], "--alpha=1,1/10"),
], ids=lambda v: v if isinstance(v, str) else " ".join(v))
def test_a_non_finite_rational_parameter_is_one_error_line(capsys, argv, control):
    # --beta, the quadratic --alpha and the hopf --alpha list are exact rationals, which inf and nan are not
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, *argv)
    value = argv[-1].split("=")[1].split(",")[-1]
    assert code == EXIT_USAGE and out == "" and not caught
    assert err == f"error: Invalid literal for Fraction: {value!r}\n"
    code, out, err = _run(capsys, *argv[:-1], control)
    assert code == EXIT_OK and out and err == ""


@pytest.mark.parametrize("argv", [
    ["rep", "--family", "uq", "--j", "1"], ["qlimit", "--j", "1"], ["verify", "--family", "uq", "--j", "1"],
], ids=" ".join)
def test_a_nan_delta_is_named_not_finite_and_an_infinite_one_still_overflows(capsys, argv):
    code, out, err = _run(capsys, *argv, "--delta=nan")
    assert code == EXIT_USAGE and out == ""
    assert err == "error: q-numbers at j=1: delta = nan is not a finite number\n"
    code, out, err = _run(capsys, *argv, "--delta=inf")
    assert code == EXIT_USAGE and out == "" and err.count("\n") == 1
    assert err.startswith("error: q-numbers at j=1, delta=inf overflow a float: |delta|(2j+1) = inf exceeds the limit")
    code, out, err = _run(capsys, *argv, "--delta=0.3")
    assert code == EXIT_OK and out and err == ""


_LAZY_PRODUCT_LAYER = """
import contextlib, io, json, sys
import nlsl2, nlsl2.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [nlsl2.cli.run(argv) for argv in (
        ["coeffs", "--alpha-from-beta", "1,1/10"], ["rep", "--family", "polynomial", "--j", "2", "--alpha", "1,1/10"],
        ["verify", "--family", "polynomial", "--j", "2", "--alpha", "1,1/10"],
        ["families", "--family", "higgs", "--j", "1", "--beta-grid=-0.1,-0.01"], ["qlimit", "--j", "1"])]
    loaded = "nlsl2.hopf" in sys.modules
    undir = sorted({*nlsl2.__all__, "hopf"} - set(dir(nlsl2)))
    star = {}
    exec("from nlsl2 import *", star)
    unresolved = [name for name in nlsl2.__all__ if getattr(nlsl2, name, None) is None]
    shared = nlsl2.primitive_coproduct is nlsl2.hopf.primitive_coproduct
    hopf_code = nlsl2.cli.run(["hopf", "--j1", "1", "--j2", "1", "--alpha=1,1/10", "--quadratic-alpha=0.05"])
print(json.dumps({"codes": codes, "loaded": loaded, "undir": undir, "unbound": sorted(set(nlsl2.__all__) - set(star)),
                  "unresolved": unresolved, "shared": shared, "hopf_code": hopf_code}))
"""


def test_commands_that_form_no_product_do_not_load_the_product_layer():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", _LAZY_PRODUCT_LAYER], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [EXIT_OK] * 5 and got["loaded"] is False and got["undir"] == []
    assert got["unbound"] == [] and got["unresolved"] == [] and got["shared"] is True
    assert got["hopf_code"] == EXIT_OK


def test_an_unknown_package_attribute_names_the_module_and_the_attribute():
    import nlsl2

    with pytest.raises(AttributeError, match="^module 'nlsl2' has no attribute 'no_such_name'$"):
        nlsl2.no_such_name
