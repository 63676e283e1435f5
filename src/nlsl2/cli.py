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

from . import coefficients, repbuilder, structure, verifier  # each layer loads on first use
from . import families as fam_mod, hopf as hopf_mod

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer whose reader has gone


def _rational_list(text: str, parse=None) -> list:
    values = [(parse or coefficients.parse_rational)(tok) for tok in (text or "").split(",") if tok.strip()]
    if not values:
        raise ValueError(f"expected a comma-separated list of numbers, got {text!r}")
    return values


def _float_list(name: str, text: str) -> list[float]:
    return [_finite(name, v) for v in _rational_list(text, float)]


def _flag(args, name: str, *others: str) -> str:
    """The text of --name, or a ValueError naming it and any flag that stands in for it when neither is given."""
    if (text := getattr(args, name)) is None:
        raise ValueError(f"{' or '.join(f'--{n}' for n in (name, *others))} is required for the {args.family} family")
    return text


def _scalar(args, name: str, *others: str) -> Fraction:
    return coefficients.parse_rational(_flag(args, name, *others))


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


def _spin(text: str):
    """--j (--j1, --j2) as a HalfInt; `halfint` loads on the first command that reads a spin."""
    from .halfint import halfint
    return halfint(text)


def _build_spec(args) -> structure.StructureSpec:
    j = _spin(args.j)
    if args.family == "polynomial":
        shape = structure.Polynomial(_rational_list(_flag(args, "alpha")))
    elif args.family == "higgs":
        shape = structure.HiggsShifted(float(_scalar(args, "beta")), _finite("gamma", args.gamma))
    elif args.family == "quadratic":
        shape = structure.QuadraticShifted(float(_scalar(args, "alpha")), _finite("gamma", args.gamma))
    elif args.family == "qbase":
        shape = structure.QBase(_float_list("alpha", _flag(args, "alpha")), args.delta)
    else:
        raise ValueError(f"unknown family {args.family!r}")
    return structure.StructureSpec(shape, j)


def cmd_coeffs(args) -> int:
    if args.alpha_from_beta:
        out, label = coefficients.alpha_from_beta(_rational_list(args.alpha_from_beta)), "alpha"
    elif args.beta_from_alpha:
        out, label = coefficients.beta_from_alpha(_rational_list(args.beta_from_alpha)), "beta"
    else:
        print("coeffs: one of --alpha-from-beta / --beta-from-alpha is required", file=sys.stderr)
        return EXIT_USAGE
    _emit(args, lambda: {label: list(map(coefficients.format_rational, out))}, lambda: ", ".join(map(str, out)),
          lambda: ([label], [[coefficients.format_rational(v)] for v in out]))
    return EXIT_OK


def cmd_rep(args) -> int:
    j = _spin(args.j)
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


def cmd_verify(args) -> int:
    j = _spin(args.j)
    report = verifier.VerificationReport()
    if args.family == "polynomial":
        alpha = _rational_list(_flag(args, "alpha"))
        report.extend(verifier.exact_recurrence_check(alpha, j))
        rep = repbuilder.build_deformed(structure.StructureSpec(structure.Polynomial(alpha), j))
        beta = coefficients.beta_from_alpha(alpha)
        report.extend(verifier.commutator_residuals(rep, beta, tol=args.tol))
        cas = repbuilder._ladder_casimir_diagonal(rep, repbuilder._phi_values(rep, alpha))
        expected = float(coefficients.phi_eval(alpha, j.mm1()))
        report.add_numeric("Casimir = phi(j(j+1)) I", verifier._norm(cas - expected),
                           verifier.gate(rep.dim, abs(expected) * math.sqrt(rep.dim), args.tol))
    elif args.family == "higgs":
        rep = repbuilder.build_deformed(_build_spec(args))
        beta = [Fraction(1), _scalar(args, "beta")]
        report.extend(verifier.commutator_residuals(rep, beta, tol=args.tol))
    elif args.family == "uq":
        report.extend(verifier.uq_checks(j, args.delta, args.tol, repbuilder.build_uq(j, args.delta)))
    else:
        print(f"verify: unsupported family {args.family!r}", file=sys.stderr)
        return EXIT_USAGE
    _emit(args, report.to_json_dict, report.render_table)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def cmd_families(args) -> int:
    j = _spin(args.j)
    name = "beta" if args.family == "higgs" else "alpha"
    text = getattr(args, f"{name}_grid")
    grid = _float_list(f"{name}-grid", text) if text else [float(_scalar(args, name, f"{name}-grid"))]
    rows = fam_mod.scan(j, grid, args.family)
    flat = functools.partial(fam_mod.scan_csv_rows, rows)

    def table():
        header, body = flat()
        return "\n".join("  ".join(map(str, r)) for r in (header, *body))

    _emit(args, lambda: {"rows": rows}, table, flat)
    return EXIT_OK


def cmd_hopf(args) -> int:
    j1, j2 = _spin(args.j1), _spin(args.j2)
    rep1, rep2 = repbuilder.build_sl2(j1), repbuilder.build_sl2(j2)
    pr = hopf_mod.primitive_coproduct(rep1, rep2)
    report = verifier.VerificationReport()
    report.extend(hopf_mod.casimir_spectrum_check(pr, args.tol))

    # the Hopf axioms of each given family (sl2 when none is) on V(j) (x) V(j), j = min(j1, j2), no larger than
    # the product asked for; at j1 != j2 its labels are not the product's, so a family inadmissible at one of
    # them is left out with a note instead of failing a product it deforms
    families, cop = {}, None
    if args.alpha is not None:
        alpha = _rational_list(args.alpha)
        families["polynomial"] = functools.partial(structure.polynomial_transfer, alpha)
        if j1 == j2:  # the product is the axiom checks' V (x) V: its coproduct is built once, for both
            cop = hopf_mod.transferred_coproduct(pr, structure.polynomial_transfer(alpha, max(pr.spins)))
    if args.quadratic_alpha is not None:
        families["quadratic"] = functools.partial(structure.quadratic_transfer,
                                                  _finite("quadratic-alpha", args.quadratic_alpha))
    rep = rep1 if j1 <= j2 else rep2
    for name, family in (families or {"sl2": None}).items():
        try:
            checks = hopf_mod.hopf_axiom_checks(rep, family, args.tol, cop if name == "polynomial" else None)
        except structure.InadmissibleLabelError as exc:
            if j1 == j2:
                raise
            print(f"note: {name} axiom checks left out, V({rep.j}) (x) V({rep.j}): {exc}", file=sys.stderr)
            continue
        for check in checks.checks:
            check.name = f"{name}: {check.name}"
            report.checks.append(check)

    if args.alpha is not None:
        cop = cop or hopf_mod.transferred_coproduct(pr, structure.polynomial_transfer(alpha, max(pr.spins)))
        for check in verifier.commutator_residuals(cop, coefficients.beta_from_alpha(alpha), tol=args.tol).checks:
            check.name = "deformed coproduct: " + check.name
            report.checks.append(check)
        if j1 == j2:  # Delta'(J3') is diag(M)
            scale = max(verifier._norm(cop.steps), verifier._norm(pr.two_m / 2))
            report.add_numeric("co-commutativity of deformed coproduct",
                               max(hopf_mod.cocommutativity_residuals(cop)), verifier.gate(pr.dim, scale, args.tol))
    _emit(args, report.to_json_dict, report.render_table)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def cmd_qlimit(args) -> int:
    j, delta = _spin(args.j), args.delta
    report = verifier.uq_checks(j, delta, args.tol)
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
        if args.tol is not None and not 0 <= args.tol < math.inf:  # NaN or < 0 FAILs every check, inf passes any
            parser.error(f"argument --tol: must be a finite number >= 0, not {args.tol}")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout: what is left goes to devnull, so exit writes no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
