"""Recorded CLI runs replayed through main(argv): stdout, stderr and exit code
must match byte for byte.

The cases, their inputs and their outputs live in tests/golden/;
tests/golden/record.py rewrites cases.json from the current code.
"""

import json
from pathlib import Path

import pytest

from golden.record import run

CASES = json.loads((Path(__file__).parent / "golden" / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_replay(case):
    assert run(case["argv"], case["stdin"]) == (case["code"], case["stdout"], case["stderr"])
