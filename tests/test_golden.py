"""Recompute committed trial records, so a change that should keep every
record the same is checked on every run, not only by hand."""

import json
import os

import pytest

from arw.experiments import MPolicy, run_trial

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden_records.json")

with open(GOLDEN) as fh:
    _DOC = json.load(fh)


@pytest.mark.parametrize(
    "want",
    _DOC["records"],
    ids=[f"d{r['d']}-n{r['n']}-t{r['trial_index']}" for r in _DOC["records"]],
)
def test_run_trial_reproduces_golden_record(want):
    got = run_trial(want["d"], want["n"], MPolicy.parse(_DOC["m_policy"]), want["seed"],
                    want["trial_index"])
    assert not got.error
    for col in ("dim_HL", "M", "k", "r", "certified"):
        assert getattr(got, col) == want[col], col
    # BLAS kernels of another machine may differ in the last bit
    for col in ("alpha", "beta", "min_domain_vol", "sum_diameters"):
        assert getattr(got, col) == pytest.approx(want[col], rel=1e-12, abs=0.0), col


def test_golden_records_cover_the_planned_cases():
    cases = {}
    for rec in _DOC["records"]:
        cases.setdefault((rec["d"], rec["n"]), []).append(rec["trial_index"])
    assert cases == {(2, 5): [0, 1, 2], (2, 65): [0, 1, 2], (2, 325): [0, 1, 2], (3, 9): [0, 1]}
