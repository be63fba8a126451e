"""Table 1 through the supported range, i = 0..12 (ranks 1..13).

Acceptance criteria 1 and 2 stop at i = 8; this runs the report itself to
its maximum index, so the rank-13 rows of the golden table stay covered.
"""
from rigidcalc import INFINITY, run_table1
from rigidcalc.table1 import MAX_SUPPORTED_INDEX


def test_every_row_through_rank_thirteen():
    assert MAX_SUPPORTED_INDEX == 12
    report = run_table1(MAX_SUPPORTED_INDEX)
    assert report.all_match
    assert [row.rank for row in report.rows] == list(range(1, 14))
    for row in report.rows:
        assert row.rigidity_index == 2, row.i
        assert row.irreducible, row.i
        assert row.regular_certificate.witness == INFINITY, row.i
