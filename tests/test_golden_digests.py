"""Cross-commit byte identity: every run-directory file against its golden digest.

Criterion 10 compares two runs of one commit; this compares a run with the
digests ``tests/golden/regenerate.py`` recorded on an earlier commit.  Byte
identity is promised per numpy version only, so when the digests differ
under a numpy other than the recorded one the test skips and names both
versions; under the recorded numpy a difference fails.
"""

import json

import pytest
from golden.regenerate import CONFIGS, GOLDEN, run_digests, versions

RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", CONFIGS)
def test_run_directory_matches_golden_digests(name, tmp_path):
    got = run_digests(name, tmp_path / name)
    want = RECORDED["runs"][name]
    if got == want:
        return
    moved = sorted(f for f in want.keys() | got.keys() if want.get(f) != got.get(f))
    now = versions()
    message = (
        f"{name}: {moved} differ from {GOLDEN.name}, recorded with numpy "
        f"{RECORDED['numpy']} (Python {RECORDED['python']}); this run used numpy "
        f"{now['numpy']} (Python {now['python']})"
    )
    if now["numpy"] != RECORDED["numpy"]:
        pytest.skip(message + "; byte identity is promised per numpy version only")
    pytest.fail(message)
