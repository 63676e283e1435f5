"""Command-line front end: build reps, verify identities, scan families."""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import stat
import sys
from fractions import Fraction

import numpy as np

from . import families as fam_mod
from . import qdeform
from . import repbuilder, verifier
from .coefficients import alpha_from_beta, beta_from_alpha, format_rational, parse_rational, phi_eval
from .halfint import halfint
from .structure import (HiggsShifted, InadmissibleLabelError, Polynomial, QBase, QuadraticShifted, StructureSpec,
                        polynomial_transfer, quadratic_transfer)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _rational_list(text: str, parse=parse_rational) -> list:
    values = [parse(tok) for tok in (text or "").split(",") if tok.strip()]
    if not values:
        raise ValueError(f"expected a comma-separated list of numbers, got {text!r}")
    return values


def _float_list(text: str) -> list[float]:
    return _rational_list(text, float)


def _scalar(args, name: str) -> Fraction:
    text = getattr(args, name)
    if text is None:
        raise ValueError(f"--{name} is required for the {args.family} family")
    return parse_rational(text)


def _finite(name: str, value: float) -> float:
    """value, or a ValueError naming --name unless it is finite, before a float family's closed form reads it."""
    if not math.isfinite(value):
        raise ValueError(f"--{name} must be a finite number, not {value}")
    return value


def _emit(args, payload, table, rows=None):
    """Print payload() as JSON, table() as text or rows() = (header, rows) as CSV (default: a JSON "value" column).

    Only the asked-for text is built. --output is rewritten in place, then a regular file is cut to the new
    length, since truncating an existing file to zero first made each write several times slower on ext4.
    """
    if args.format == "json":
        text = json.dumps(payload(), sort_keys=True)  # no indent: the C encoder, one line
    elif args.format == "csv":
        header, body = rows() if rows else (["value"], [[json.dumps(payload())]])
        buf = io.StringIO()
        csv.writer(buf).writerows([header, *body])
        text = buf.getvalue().rstrip("\n")
    else:
        text = table()
    if not args.output:
        print(text)
        return
    try:
        fd = os.open(args.output, os.O_WRONLY | os.O_CREAT, 0o666)
    except OSError as exc:
        raise ValueError(f"cannot write --output {args.output}: {exc.strerror}") from None
    with os.fdopen(fd, "w") as fh:
        fh.write(text + "\n")
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _build_spec(args) -> StructureSpec:
    j = halfint(args.j)
    if args.family == "polynomial":
        return StructureSpec(Polynomial(_rational_list(args.alpha)), j)
    if args.family == "higgs":
        return StructureSpec(HiggsShifted(float(_scalar(args, "beta")), _finite("gamma", args.gamma)), j)
    if args.family == "quadratic":
        return StructureSpec(QuadraticShifted(float(_scalar(args, "alpha")), _finite("gamma", args.gamma)), j)
    if args.family == "qbase":
        return StructureSpec(QBase([_finite("alpha", a) for a in _float_list(args.alpha)], args.delta), j)
    raise ValueError(f"unknown family {args.family!r}")


def cmd_coeffs(args) -> int:
    if args.alpha_from_beta:
        out, label = alpha_from_beta(_rational_list(args.alpha_from_beta)), "alpha"
    elif args.beta_from_alpha:
        out, label = beta_from_alpha(_rational_list(args.beta_from_alpha)), "beta"
    else:
        print("coeffs: one of --alpha-from-beta / --beta-from-alpha is required", file=sys.stderr)
        return EXIT_USAGE
    _emit(args, lambda: {label: list(map(format_rational, out))}, lambda: ", ".join(map(str, out)),
          lambda: ([label], [[format_rational(v)] for v in out]))
    return EXIT_OK


def cmd_rep(args) -> int:
    j = halfint(args.j)
    if args.family == "sl2":
        rep = repbuilder.build_sl2(j)
    elif args.family == "uq":
        rep = repbuilder.build_uq(j, args.delta)
    else:
        rep = repbuilder.build_deformed(_build_spec(args))

    def table():
        w, u = rep.ladder
        head = f"family={rep.family} j={rep.j} dim={rep.dim} gamma={rep.gamma}"
        return f"{head}\nJ3 diag: {w.tolist()}\nJ+ superdiag: {u.tolist()}"

    _emit(args, rep.to_json_dict, table)
    return EXIT_OK


def _add_q_casimir_checks(report, j, delta: float, tol):
    """The three q-Casimir residuals of `qdeform.uq_casimir_residuals`, each gated at its own term's scale."""
    spread, root, inversion = qdeform.uq_casimir_residuals(j, qdeform.QParam(delta))
    bracket = qdeform.q_bracket(j.value + 0.5, delta)
    report.add_numeric("q-Casimir diagonal constant", spread, verifier.gate(j.twice + 1, bracket ** 2, tol))
    report.add_numeric("sqrt(Chat + [1/2]^2) = [j+1/2]", root, verifier.gate(j.twice + 1, bracket, tol))
    report.add_numeric("q-Casimir arcsinh relation", inversion, verifier.gate(j.twice + 1, j.value + 0.5, tol))


def cmd_verify(args) -> int:
    j = halfint(args.j)
    report = verifier.VerificationReport()
    if args.family == "polynomial":
        alpha = _rational_list(args.alpha)
        report.extend(verifier.exact_recurrence_check(alpha, j))
        rep = repbuilder.build_deformed(StructureSpec(Polynomial(alpha), j))
        beta = beta_from_alpha(alpha)
        report.extend(verifier.commutator_residuals(rep, beta, tol=args.tol))
        cas = repbuilder._ladder_casimir_diagonal(rep, repbuilder._phi_values(rep, alpha))
        expected = float(phi_eval(alpha, j.mm1()))
        report.add_numeric("Casimir = phi(j(j+1)) I", verifier._norm(cas - expected),
                           verifier.gate(rep.dim, abs(expected) * math.sqrt(rep.dim), args.tol))
    elif args.family == "higgs":
        rep = repbuilder.build_deformed(_build_spec(args))
        beta = [Fraction(1), _scalar(args, "beta")]
        report.extend(verifier.commutator_residuals(rep, beta, tol=args.tol))
    elif args.family == "uq":
        rep = repbuilder.build_uq(j, args.delta)
        pm, mp = repbuilder.ladder_products(rep.ladder[1])
        target = qdeform.q_brackets(np.arange(j.twice, -j.twice - 1, -2), args.delta)  # [2m], m = j, ..., -j
        top = max(np.abs(pm).max(), np.abs(target).max()) or 1.0  # norms in units of the largest entry stay finite
        report.add_numeric("[J+,J-] = [2 J3] diagonal", float(np.linalg.norm((pm - mp - target) / top)),
                           verifier.gate(rep.dim, max(np.linalg.norm(pm / top), np.linalg.norm(target / top)),
                                         args.tol and args.tol / top), context=f"in units of max |entry| = {top:.6g}")
        _add_q_casimir_checks(report, j, args.delta, args.tol)
    else:
        print(f"verify: unsupported family {args.family!r}", file=sys.stderr)
        return EXIT_USAGE
    _emit(args, report.to_json_dict, report.render_table)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def cmd_families(args) -> int:
    j = halfint(args.j)
    name = "beta" if args.family == "higgs" else "alpha"
    text = getattr(args, f"{name}_grid")
    grid = _float_list(text) if text else [float(_scalar(args, name))]
    rows = fam_mod.scan(j, grid, args.family)
    flat = functools.partial(fam_mod.scan_csv_rows, rows)

    def table():
        header, body = flat()
        return "\n".join("  ".join(map(str, r)) for r in (header, *body))

    _emit(args, lambda: {"rows": rows}, table, flat)
    return EXIT_OK


def cmd_hopf(args) -> int:
    from . import hopf as hopf_mod  # the product layer, loaded by the first hopf command only

    j1, j2 = halfint(args.j1), halfint(args.j2)
    rep1, rep2 = repbuilder.build_sl2(j1), repbuilder.build_sl2(j2)
    pr = hopf_mod.primitive_coproduct(rep1, rep2)
    report = verifier.VerificationReport()

    spectrum = np.sort(pr.w)
    oracle = hopf_mod.product_casimir_spectrum(j1, j2)
    report.add_numeric("Delta(C) spectrum = Clebsch-Gordan J(J+1) pattern", np.abs(spectrum - oracle).max(),
                       verifier.gate(pr.dim, oracle[-1], args.tol))

    # the Hopf axioms of each given family (sl2 when none is) on V(j) (x) V(j), j = min(j1, j2), no larger than
    # the product asked for; at j1 != j2 its labels are not the product's, so a family inadmissible at one of
    # them is left out with a note instead of failing a product it deforms
    families, cop = {}, None
    if args.alpha is not None:
        alpha = _rational_list(args.alpha)
        families["polynomial"] = functools.partial(polynomial_transfer, alpha)
        if j1 == j2:  # the product is the axiom checks' V (x) V: its coproduct is built once, for both
            cop = hopf_mod.transferred_coproduct(pr, polynomial_transfer(alpha, max(pr.spins)))
    if args.quadratic_alpha is not None:
        families["quadratic"] = functools.partial(quadratic_transfer, args.quadratic_alpha)
    rep = rep1 if j1 <= j2 else rep2
    for name, family in (families or {"sl2": None}).items():
        try:
            checks = hopf_mod.hopf_axiom_checks(rep, family, args.tol, cop if name == "polynomial" else None)
        except InadmissibleLabelError as exc:
            if j1 == j2:
                raise
            print(f"note: {name} axiom checks left out, V({rep.j}) (x) V({rep.j}): {exc}", file=sys.stderr)
            continue
        for check in checks.checks:
            check.name = f"{name}: {check.name}"
            report.checks.append(check)

    if args.alpha is not None:
        cop = cop or hopf_mod.transferred_coproduct(pr, polynomial_transfer(alpha, max(pr.spins)))
        for check in verifier.commutator_residuals(cop, beta_from_alpha(alpha), tol=args.tol).checks:
            check.name = "deformed coproduct: " + check.name
            report.checks.append(check)
        if j1 == j2:  # Delta'(J3') is diag(M)
            scale = max(verifier._norm(cop.steps), verifier._norm(pr.two_m / 2))
            report.add_numeric("co-commutativity of deformed coproduct",
                               max(hopf_mod.cocommutativity_residuals(cop)), verifier.gate(pr.dim, scale, args.tol))
    _emit(args, report.to_json_dict, report.render_table)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def cmd_qlimit(args) -> int:
    j, delta = halfint(args.j), args.delta
    report = verifier.VerificationReport()
    _add_q_casimir_checks(report, j, delta, args.tol)
    if j.twice > 0:
        # the larger of the two cosh terms on the left, at m = -j
        scale = math.cosh(delta * (j.twice + 1)) / (4 * j.value * math.sinh(delta) ** 2)
        report.add_numeric("series identity truncation", verifier.q_series_identity_residual(j, -j, delta),
                           verifier.gate(j.twice + 1, scale, args.tol))
    roots = verifier.q_shift_rigidity(j, delta)
    report.add_exact("shift rigidity: only gamma = 0", Fraction(max(map(abs, roots))), context=f"roots: {roots}")
    _emit(args, report.to_json_dict, report.render_table)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlsl2", description="Nonlinear sl(2) representations: build, verify, enumerate, Hopf-check")
    parser.add_argument("--format", choices=["json", "csv", "table"], default="table")
    parser.add_argument("--output", default=None, help="write to file instead of stdout")
    parser.add_argument("--tol", type=float, help="absolute tolerance overriding every numeric gate")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="convert between beta and alpha coefficient vectors")
    p.add_argument("--alpha-from-beta", metavar="B0,B1,...")
    p.add_argument("--beta-from-alpha", metavar="A1,A2,...")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("rep", help="build a representation and emit its matrices")
    p.add_argument("--family", required=True,
                   choices=["sl2", "polynomial", "higgs", "quadratic", "qbase", "uq"])
    p.add_argument("--j", required=True, help="spin, e.g. 3/2")
    p.add_argument("--alpha", help="phi coefficients (polynomial/qbase) or scalar (quadratic)")
    p.add_argument("--beta", help="cubic-family deformation parameter")
    p.add_argument("--gamma", type=float, default=0.0, help="spectrum shift")
    p.add_argument("--delta", type=float, default=0.3, help="q = e^delta")
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("verify", help="run the verification suite for a spec")
    p.add_argument("--family", required=True, choices=["polynomial", "higgs", "uq"])
    p.add_argument("--j", required=True)
    p.add_argument("--alpha")
    p.add_argument("--beta")
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=0.3)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("families", help="enumerate admissible shifted families")
    p.add_argument("--family", required=True, choices=["higgs", "quadratic"])
    p.add_argument("--j", required=True)
    p.add_argument("--beta")
    p.add_argument("--beta-grid", metavar="B1,B2,...")
    p.add_argument("--alpha")
    p.add_argument("--alpha-grid", metavar="A1,A2,...")
    p.set_defaults(func=cmd_families)

    p = sub.add_parser("hopf", help="tensor-product and Hopf-axiom checks")
    p.add_argument("--j1", required=True)
    p.add_argument("--j2", required=True)
    p.add_argument("--alpha", help="phi coefficients for the deformed coproduct")
    p.add_argument("--quadratic-alpha", type=float, default=None)
    p.set_defaults(func=cmd_hopf)

    p = sub.add_parser("qlimit", help="q-deformation identities and shift rigidity")
    p.add_argument("--j", required=True)
    p.add_argument("--delta", type=float, default=0.3)
    p.set_defaults(func=cmd_qlimit)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
