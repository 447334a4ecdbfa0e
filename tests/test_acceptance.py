"""End-to-end acceptance runs.

Each test executes one named reproduction check and prints a one-line
verdict so the full record is visible in the pytest output (run with -s
or read the captured output of failures).
"""

import pytest

from veronese.checks import CHECK_NAMES, run_check


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_acceptance(name: str):
    result = run_check(name)
    print(f"ACCEPTANCE {result.verdict}")
    assert result.ok, f"{result.name}: {result.detail}"
    assert result.within_budget, (
        f"{result.name}: took {result.elapsed:.2f} s, budget {result.budget:.0f} s"
    )
