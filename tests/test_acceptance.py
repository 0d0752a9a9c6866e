"""Acceptance gate: every criterion must pass inside its time limit.

Run with `pytest -v tests/test_acceptance.py` for one line per criterion,
or `quasi3 selftest` for the same checks through the CLI.
"""

import pytest

from quasi3 import quasi
from quasi3.acceptance import ALL_CRITERIA


@pytest.mark.parametrize(
    "index", range(1, len(ALL_CRITERIA) + 1), ids=lambda i: f"criterion_{i}"
)
def test_criterion(index):
    result = ALL_CRITERIA[index - 1]()
    status = "PASS" if result.passed else "FAIL"
    print(
        f"[{status}] criterion {result.index}: {result.title} "
        f"({result.seconds:.2f}s of {result.limit:.0f}s) {result.detail}"
    )
    assert result.passed, f"criterion {result.index}: {result.detail}"
    assert result.within_limit, (
        f"criterion {result.index} took {result.seconds:.2f}s, "
        f"limit {result.limit:.0f}s"
    )


def test_criterion_6_fails_when_the_delta_cross_check_disagrees(monkeypatch):
    # Delta^(2m+1) is the only one-element input; a wrong verdict from the
    # full-slice route must make the criterion fail, not pass unread
    exact = quasi.independent_modulo_ideal
    monkeypatch.setattr(
        quasi,
        "independent_modulo_ideal",
        lambda polys, m: len(polys) != 1 and exact(polys, m),
    )
    result = ALL_CRITERIA[5]()
    assert not result.passed
    assert result.detail.startswith("exact routes read")
