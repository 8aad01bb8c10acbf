"""The benchmark's traced repetition (`perfbench/traced.py`) mirrors the
census and the actions export through the engine's public functions; these
tests fail as soon as the engine's API drifts from that mirror."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from hgcensus import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import common
    import traced

    return common, traced


@pytest.mark.parametrize("degree", [4, 6, 8, 16])
def test_the_traced_census_gives_the_census_row_and_classes(perfbench, census, degree):
    _, traced = perfbench
    got = traced.traced_degree(traced.Tracer(), degree)
    c = census(degree)
    assert got["row"] == cli._row_dict(c.row)
    assert got["classes"] == [[cls.label, len(cls.members)] for cls in c.classes]


def test_the_traced_actions_replay_writes_the_cli_files(perfbench, tmp_path, capsys):
    common, traced = perfbench
    cache, out_dir = tmp_path / "cache", tmp_path / "out"
    out_dir.mkdir()
    assert cli.main(["enumerate", "--degrees", "4", "--cache-dir", str(cache)]) == 0
    argv = ["actions", "--degree", "4", "--all-braces", "--cache-dir", str(cache)]
    got = traced.traced_command(traced.Tracer(), cli.main, argv, out_dir)
    assert got["rc"] == 0, got["err"]
    payload = json.loads((cache / "degree-004.json").read_text())
    want = common.action_outputs(argv, payload)
    assert want and sorted(got["files"]) == sorted(want)
    # the replay's bytes are the CLI's own
    assert cli.main(argv) == 0
    for name in want:
        assert (out_dir / name).read_bytes() == (cache / "actions" / name).read_bytes(), name
