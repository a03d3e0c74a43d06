"""The committed lint baseline is what the checker says today.

``baselines/lint/game-all-targets.sarif`` is the portability lint of
the game corpus over every registered target.  Any change to a verdict,
a message or a location shows up here as a byte difference; a
deliberate change regenerates the file with::

    python -m repro.tools.check --corpus game --all-targets \\
        --format sarif --out baselines/lint/game-all-targets.sarif \\
        --fail-on error
"""

import pathlib

from repro.tools import check

BASELINE = (
    pathlib.Path(__file__).resolve().parents[2]
    / "baselines" / "lint" / "game-all-targets.sarif"
)


def test_all_targets_sarif_matches_the_committed_baseline(tmp_path):
    out = tmp_path / "lint-all-targets.sarif"
    check.main([
        "--corpus", "game", "--all-targets", "--format", "sarif",
        "--out", str(out), "--fail-on", "error",
    ])
    assert out.read_bytes() == BASELINE.read_bytes()
