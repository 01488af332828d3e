"""The parameter census of ``census.py``: every command's bytes and exit
codes on the fixed grid are those pinned there."""

import pytest

import census


@pytest.mark.parametrize("command", list(census.DIGESTS))
def test_census_digest_is_pinned(command):
    sha, codes = census.run(command)
    assert codes == census.EXIT_COUNTS[command]
    assert sha == census.DIGESTS[command]
