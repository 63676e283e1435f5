"""Each command holds up to its size limit.

With warnings as errors, every run either exits 0 or 1 with finite residuals and bounds (a
table with no inf or nan for `rep`), or exits 2 with one `error:` line. The grid runs the
irreps up to 2j = 4000, the U_q and q-base families at the largest 2j that
`qdeform.check_q_range` accepts and the next one at three deltas, `qlimit` at that edge, products up to
j1 = j2 = 60 and V(40) (x) V(81/2), and a negative spin for each command that builds an irrep.
"""

import json
import math
import re
import warnings

import pytest

from nlsl2.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, run
from nlsl2.halfint import HalfInt
from nlsl2.qdeform import check_q_range

DELTAS = (0.3, 1.0, -3.0)
ALPHA = "--alpha=1/1,1/10,1/100"
# a negative spin, rejected where each irrep is assembled
NEGATIVE_SPIN = (["rep", "--family", "sl2", "--j=-1"], ["rep", "--family", "uq", "--j=-1"],
                 ["verify", "--family", "uq", "--j=-1"], ["qlimit", "--j=-1"], ["hopf", "--j1=-1", "--j2=1"])


def _q_edge(delta):
    """The largest 2j whose q-numbers `check_q_range` accepts at delta."""
    two_j, rejected = 0, 10**7
    while rejected - two_j > 1:
        mid = (two_j + rejected) // 2
        try:
            check_q_range(HalfInt(mid), delta)
            two_j = mid
        except ValueError:
            rejected = mid
    return two_j


def _runs():
    for two_j in (0, 1, 7, 4000):
        j = ["--j", str(HalfInt(two_j))]
        for family in (["sl2"], ["polynomial", ALPHA], ["higgs", "--beta=1/100"], ["quadratic", "--alpha=1e-4"],
                       ["qbase", "--alpha=1,0.1", "--delta=0.3"], ["uq", "--delta=0.3"]):
            yield ["rep", "--family", *family, *j]
        for family in (["polynomial", ALPHA], ["higgs", "--beta=1/100"], ["uq", "--delta=0.3"]):
            yield ["verify", "--family", *family, *j]
    for delta in DELTAS:
        edge = _q_edge(delta)
        for two_j in (edge, edge + 1):
            j = ["--j", str(HalfInt(two_j)), f"--delta={delta}"]
            yield ["rep", "--family", "uq", *j]
            yield ["rep", "--family", "qbase", "--alpha=1,0.1", *j]
            yield ["verify", "--family", "uq", *j]
        yield ["qlimit", "--j", str(HalfInt(edge + 1)), f"--delta={delta}"]
    for delta in (0.3, 1.0, 2.0):  # at the edge the series needs its most terms, about 467 exact rows eps_r(k)
        yield ["qlimit", "--j", str(HalfInt(_q_edge(delta))), f"--delta={delta}"]
    # the series needs exact eps_r(k) rows to k of about 0.7 |delta|(2j+1), each built from the one before
    for two_j, delta in ((1, 0.3), (7, 1.0), (40, 1.0), (7, -3.0), (300, 0.3)):
        yield ["qlimit", "--j", str(HalfInt(two_j)), f"--delta={delta}"]
    products = [(j1, j2, q) for j1, j2 in (("0", "0"), ("1/2", "1/2"), ("3", "5/2"), ("1/2", "11"), ("11", "11"))
                for q in ("0.01", "-0.01")]
    # +-0.01 is inadmissible at the top 2J = 160 of V(40) (x) V(40); +-0.001 is admissible there and at the top
    # 2J = 240 of V(60) (x) V(60), whose checks, co-commutativity included, read weight blocks only
    products += [(j1, j2, q) for j1, j2 in (("40", "81/2"), ("40", "40"), ("60", "60")) for q in ("0.001", "-0.001")]
    for j1, j2, quadratic in products:
        yield ["hopf", "--j1", j1, "--j2", j2, ALPHA, f"--quadratic-alpha={quadratic}"]
    yield from NEGATIVE_SPIN


@pytest.mark.parametrize("argv", list(_runs()), ids=" ".join)
def test_every_run_gives_a_finite_verdict_or_one_error_line(capsys, argv):
    table = argv[0] == "rep"  # a rep's JSON holds its dense matrices; the table holds its ladder
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["--format", "table" if table else "json", *argv])
    out, err = capsys.readouterr()
    if argv in NEGATIVE_SPIN:
        assert (code, err) == (EXIT_USAGE, "error: spin label j must be >= 0\n")
    if code == EXIT_USAGE:
        assert out == "" and err.count("\n") == 1 and err.startswith("error: "), err
        return
    assert code in (EXIT_OK, EXIT_CHECK_FAILED) and err == ""
    if table:
        assert code == EXIT_OK and not re.search(r"\b(inf|nan)\b", out)
        return
    checks = json.loads(out)["checks"]
    numeric = [c for c in checks if c["kind"] == "numeric"]
    assert all(math.isfinite(c["residual"]) and math.isfinite(c["bound"]) for c in numeric)
    assert (code == EXIT_OK) == all(c["pass"] for c in checks)

