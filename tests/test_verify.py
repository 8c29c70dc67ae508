"""Every differential suite of ``fibword verify``, one test each."""

import pytest

from fibword.verify import SUITES


@pytest.mark.parametrize("suite", [suite for _, suite in SUITES], ids=[name for name, _ in SUITES])
def test_suite_is_ok(suite):
    ok, detail = suite()
    assert ok, detail
