"""Every run of ``golden_reports.py`` against its checked-in digest: counts
and notes exactly, ``max_residual`` within 1e-13 absolute."""

import json

import pytest

from golden_reports import GOLDEN, digest, runs

RUNS = runs()


@pytest.mark.parametrize("run", RUNS)
def test_reports_equal_golden(run, request):
    golden = json.loads(GOLDEN.read_text())[run]
    # the default battery's reports come from the session's one run of it
    reports = request.getfixturevalue("default_battery") if run == "default-seed0" else None
    fresh = digest(*RUNS[run], reports)
    assert list(fresh) == list(golden)
    for suite, doc in fresh.items():
        want = golden[suite]
        res, ref = doc.pop("max_residual"), want.pop("max_residual")
        assert doc == want, (run, suite)
        assert (res is None) == (ref is None), (run, suite)
        assert res is None or abs(res - ref) <= 1e-13, (run, suite, res, ref)
