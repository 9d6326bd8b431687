"""Every bundled reference case must pass from a fresh build."""

import pytest

from pairgraph.reference_cases import CASES, run_all
from pairgraph.errors import ValidationError


@pytest.mark.parametrize("case_id", CASES)
def test_reference_case(case_id):
    for name, ok, detail in CASES[case_id]():
        assert ok, f"{case_id}: {name} {detail}"


def test_run_all_aggregates():
    ok, results = run_all()
    assert ok
    assert len(results) == len(CASES)


def test_unknown_case_rejected():
    with pytest.raises(ValidationError, match=r"unknown reference case 'not-a-case'; known: \['z12-degrees', "):
        run_all("not-a-case")
