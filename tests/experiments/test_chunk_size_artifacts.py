"""``--chunk-size`` with each paper artifact: the same text, or a clean refusal.

A streamed cell keeps only metric counts.  The artifacts that read
per-instance answers are refused up front (exit 2, before any cell
runs); every other artifact prints exactly what the default run prints.
"""

import pytest

from repro.cli import main
from repro.experiments.registry import ARTIFACT_IDS, PER_INSTANCE_ARTIFACTS


@pytest.mark.parametrize("artifact", ARTIFACT_IDS)
def test_chunk_size_gives_identical_text_or_a_clean_refusal(artifact, capsys):
    args = ["run", artifact, "--max-instances", "20", "--no-cache", "--no-record"]
    assert main(args) == 0
    default = capsys.readouterr().out
    code = main([*args, "--chunk-size", "50"])
    captured = capsys.readouterr()
    if artifact in PER_INSTANCE_ARTIFACTS:
        assert code == 2
        assert captured.out == ""
        assert artifact in captured.err and "--chunk-size" in captured.err
    else:
        assert code == 0
        assert captured.out == default
