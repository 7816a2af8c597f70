"""Acceptance battery: one test per criterion, exact equality throughout.

Every check here is tolerance-zero by design: all arithmetic in the
package is rational.  Each test prints its PASS/FAIL line so a verbose run
reads as a report.
"""

import hashlib
import io
from contextlib import redirect_stdout

from soergelkit import cli
from soergelkit.selftest import (
    criterion_1_coinvariant_dimensions,
    criterion_2_demazure_calculus,
    criterion_3_bott_samelson_oracle,
    criterion_4_hom_formula,
    criterion_5_degrading,
    criterion_6_endomorphism_ring,
    criterion_7_tate_structures,
    criterion_8_duality_square,
    criterion_9_dual_homological,
)

SEED = 42


def _check(result):
    print(result.line())
    assert result.passed, result.details
    return result


def test_criterion_01_coinvariant_dimensions():
    r = _check(criterion_1_coinvariant_dimensions())
    assert r.details["dims"] == {"2": 2, "3": 6, "4": 24}


def test_criterion_02_demazure_calculus():
    r = _check(criterion_2_demazure_calculus())
    # full staircase bases up to rank 4 were exercised
    assert r.details["squares"] == (2 * 1) + (6 * 2) + (24 * 3)
    assert r.details["braids"] == 6 * 1 + 24 * 2


def test_criterion_03_bott_samelson_oracle():
    r = _check(criterion_3_bott_samelson_oracle())
    assert r.details["words_checked"]["3"] == 31  # all words of length <= 4
    assert r.details["words_checked"]["4"] == 6


def test_criterion_04_hom_formula():
    r = _check(criterion_4_hom_formula())
    assert r.details["pairs"] == 36


def test_criterion_05_degrading():
    _check(criterion_5_degrading(SEED))


def test_criterion_06_endomorphism_ring():
    r = _check(criterion_6_endomorphism_ring())
    assert r.details["graded_dims"]["3"] == "1+2v^2+2v^4+v^6"


def test_criterion_07_tate_structures():
    r = _check(criterion_7_tate_structures(SEED))
    # 7 of the 200 seeded graded complexes minimise to zero and are skipped
    assert r.details["weight_cases"] == 193


def test_criterion_08_duality_square():
    r = _check(criterion_8_duality_square(SEED))
    assert r.details["ranks"]["2"] == {"cases": 500, "failures": 0}
    assert r.details["ranks"]["3"] == {"cases": 500, "failures": 0}


def test_criterion_09_dual_homological():
    r = _check(criterion_9_dual_homological())
    assert r.details["dim_rank2"] == 5
    assert all(r.details["koszulity"][k]["koszul"] for k in ("1", "2", "3"))


def test_selftest_report_is_pinned():
    """Two full selftest invocations produce byte-identical reports."""

    def run():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["selftest", "--seed", "42"])
        return code, buf.getvalue()

    code1, out1 = run()
    code2, out2 = run()
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    assert '"all_passed":true' in out1
    # the golden CLI outputs show only dimensions; this pins every structure
    # constant and count in the battery report
    assert hashlib.sha256(out1.encode()).hexdigest() == (
        "d62c4baa082a873163ab3dce2ea10cadc2a09c4d4063fdbd184b5807672476bc"
    )
