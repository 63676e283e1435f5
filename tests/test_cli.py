import csv
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import nlsl2.cli as cli
from nlsl2 import hopf, repbuilder
from nlsl2.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, run
from nlsl2.coefficients import beta_from_alpha
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
    assert "coassociativity" in out


def test_hopf_alpha_checks_the_deformed_coproduct_on_weight_blocks(capsys, monkeypatch):
    import nlsl2.verifier as verifier

    taken = []
    real = verifier._weight_blocks
    monkeypatch.setattr(verifier, "_weight_blocks", lambda rep: taken.append(real(rep)) or taken[-1])
    code, out, _ = _run(capsys, "--format", "json", "hopf", "--j1", "11", "--j2", "11",
                        "--alpha=1/1,1/10,1/100")
    assert len(taken) == 1 and taken[0] is not None
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
    """build, with the largest entry of Delta(J+) and its transpose in Delta(J-) off by 1e-9 relative."""
    def off(*args, **kwargs):
        djp, djm, dj3 = build(*args, **kwargs)
        r, c = np.unravel_index(np.argmax(djp), djp.shape)
        djp[r, c] *= 1 + 1e-9
        djm[c, r] = djp[r, c]
        return djp, djm, dj3
    return off


# Each of these was a false FAIL of an absolute gate on terms of norm up to 1e11.
@pytest.mark.parametrize("argv,module,name,off,flips", [
    pytest.param(None, repbuilder, "build_deformed", _ladder_off, [COMM], id="irrep_2j200_default_gate"),
    pytest.param(["verify", "--family", "polynomial", "--j", "40", "--alpha=1/1,1/10,1/100"], repbuilder,
                 "build_deformed", _ladder_off, [COMM, "Casimir = phi(j(j+1)) I"], id="verify_polynomial_j40"),
    pytest.param(["verify", "--family", "uq", "--j", "20", "--delta=0.3"], repbuilder, "build_uq", _ladder_off,
                 ["[J+,J-] = [2 J3] diagonal", "q-Casimir arcsinh relation"], id="verify_uq_j20"),
    pytest.param(["hopf", "--j1", "11", "--j2", "11", "--alpha=1/1,1/10,1/100"], hopf, "deformed_coproduct",
                 _coproduct_off, ["deformed coproduct: " + COMM], id="hopf_alpha_j11"),
    pytest.param(["hopf", "--j1", "20", "--j2", "20", "--alpha=1/1,1/10,1/100"], hopf, "deformed_coproduct",
                 _coproduct_off, ["deformed coproduct: " + COMM, "co-commutativity of deformed coproduct"],
                 id="hopf_alpha_j20"),
    pytest.param(["qlimit", "--delta", "0.3", "--j", "40"], repbuilder, "build_uq", _ladder_off,
                 ["q-Casimir arcsinh relation"], id="qlimit_j40"),
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
    ["verify", "--family", "polynomial", "--j", "1"],
    ["hopf", "--j1", "1/2", "--j2", "1/2", "--alpha=1/0"],
    ["hopf", "--j1", "1/2", "--j2", "1/2", "--alpha=,"],
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
    monkeypatch.setattr(cli, "_emit", lambda args, payload, table: (payloads.append(payload), emit(args, payload, table)))
    code, out, _ = _run(capsys, "--format", "json", *argv)
    assert code == EXIT_OK
    assert out.endswith("\n") and out.count("\n") == 1
    (payload,) = payloads
    assert json.loads(out) == {k: v for k, v in payload.items() if k != "csv"}
