"""Byte-identity across commits: ``run_all``'s artifacts match the committed digests."""

import json

import pytest

from digests import ARTIFACTS, CELLS, DIGESTS_PATH, cell_digests, fingerprint, moves

COMMITTED = json.loads(DIGESTS_PATH.read_text())


@pytest.mark.parametrize("name", list(CELLS))
def test_artifacts_match_committed_digests(tmp_path, name):
    host = fingerprint()
    if host != COMMITTED["fingerprint"]:
        pytest.skip(f"digests were made on {COMMITTED['fingerprint']}, this host is {host}; "
                    f"regenerate them with tests/digests.py to compare here")
    assert cell_digests(name, tmp_path) == COMMITTED["cells"][name]


def test_regeneration_names_every_move():
    same = dict.fromkeys(ARTIFACTS, "0" * 64)
    committed = {"kept": same, "edited": same, "gone": same}
    cells = {"kept": same, "edited": {**same, "prune.npz": "1" * 64}, "added": same}
    assert moves(committed, cells) == ["added: new cell", "gone: dropped cell",
                                       "edited: prune.npz moved"]
    assert moves(committed, committed) == []
