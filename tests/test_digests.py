"""Byte-identity across commits: ``run_all``'s artifacts match the committed digests."""

import json

import pytest

from digests import CELLS, DIGESTS_PATH, cell_digests, fingerprint

COMMITTED = json.loads(DIGESTS_PATH.read_text())


@pytest.mark.parametrize("name", list(CELLS))
def test_artifacts_match_committed_digests(tmp_path, name):
    host = fingerprint()
    if host != COMMITTED["fingerprint"]:
        pytest.skip(f"digests were made on {COMMITTED['fingerprint']}, this host is {host}; "
                    f"regenerate them with tests/digests.py to compare here")
    assert cell_digests(name, tmp_path) == COMMITTED["cells"][name]
