"""Command-line interface: parsing, caching, determinism, exports, diffs."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from hgcensus import __version__
from hgcensus.cli import SCHEMA_VERSION, main, parse_degrees
from hgcensus.errors import StructureError


def _run(capsys, *argv) -> tuple[int, str, str]:
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_parse_degrees_forms():
    assert parse_degrees("8") == [8]
    assert parse_degrees("2-5") == [2, 3, 4, 5]
    assert parse_degrees("4,6,8") == [4, 6, 8]
    assert parse_degrees("2-4,9,3") == [2, 3, 4, 9]
    for bad in ("", "x", "5-3", "2-,", ","):
        with pytest.raises(StructureError):
            parse_degrees(bad)


def test_csv_row_for_degree_15(tmp_path, capsys):
    rc, out, _ = _run(
        capsys, "enumerate", "--degrees", "15", "--format", "csv",
        "--cache-dir", str(tmp_path),
    )
    assert rc == 0
    assert out == "15,1,8,8,1,1,8,8,8\n"


def test_markdown_and_json_formats(tmp_path, capsys):
    rc, out, _ = _run(
        capsys, "enumerate", "--degrees", "4", "--format", "md",
        "--cache-dir", str(tmp_path),
    )
    assert rc == 0
    assert out.startswith("|")
    assert "| 4 |" in out
    rc, out, _ = _run(
        capsys, "enumerate", "--degrees", "4", "--format", "json",
        "--cache-dir", str(tmp_path),
    )
    assert rc == 0
    rows = json.loads(out)
    assert rows[0]["degree"] == 4


def test_warm_rerun_is_byte_identical_and_does_not_rewrite(tmp_path, capsys):
    args = ("enumerate", "--degrees", "4-6", "--format", "csv",
            "--cache-dir", str(tmp_path))
    rc1, out1, _ = _run(capsys, *args)
    assert rc1 == 0
    artifacts = sorted(tmp_path.glob("degree-*.json"))
    assert [p.name for p in artifacts] == [
        "degree-004.json", "degree-005.json", "degree-006.json",
    ]
    stamps = {p.name: (p.stat().st_mtime_ns, p.read_bytes()) for p in artifacts}
    rc2, out2, _ = _run(capsys, *args)
    assert rc2 == 0
    assert out2 == out1
    for p in sorted(tmp_path.glob("degree-*.json")):
        mtime, blob = stamps[p.name]
        assert p.stat().st_mtime_ns == mtime  # untouched, not rewritten
        assert p.read_bytes() == blob


def test_cold_runs_in_separate_dirs_agree(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        rc, _, _ = _run(capsys, "enumerate", "--degrees", "4,6", "--format", "csv",
                        "--cache-dir", str(d))
        assert rc == 0
    for name in ("degree-004.json", "degree-006.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_timings_sidecar_exists_but_is_not_an_artifact(tmp_path, capsys):
    _run(capsys, "enumerate", "--degrees", "4", "--format", "csv",
         "--cache-dir", str(tmp_path))
    sidecar = tmp_path / "timings.json"
    assert sidecar.exists()
    data = json.loads(sidecar.read_text())
    assert data["seconds"]["4"] >= 0.0


def test_artifact_schema_and_cache_gate(tmp_path, capsys):
    _run(capsys, "enumerate", "--degrees", "4", "--format", "csv",
         "--cache-dir", str(tmp_path))
    path = tmp_path / "degree-004.json"
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["degree"] == 4
    assert payload["row"]["types"] == 2
    assert len(payload["classes"]) >= 1
    member = payload["classes"][0]["members"][0]
    assert {"label", "type", "class_size", "normalizer_order", "regular",
            "almost_classical", "bijective_correspondence",
            "intermediate_fields", "hopf_subalgebras", "generators"} <= set(member)
    # a stale schema version forces recomputation
    payload["schema_version"] = SCHEMA_VERSION + 1
    path.write_text(json.dumps(payload))
    _run(capsys, "enumerate", "--degrees", "4", "--format", "csv",
         "--cache-dir", str(tmp_path))
    assert json.loads(path.read_text())["schema_version"] == SCHEMA_VERSION


def test_cache_from_other_engine_code_is_recomputed(tmp_path, capsys):
    _run(capsys, "enumerate", "--degrees", "4", "--format", "csv",
         "--cache-dir", str(tmp_path))
    path = tmp_path / "degree-004.json"
    fresh = path.read_text()
    stale = json.loads(fresh)
    assert stale["engine_version"].startswith(__version__ + "+")
    stale["engine_version"] = __version__
    stale["row"]["hgs_total"] += 1
    path.write_text(json.dumps(stale))
    rc, out, err = _run(capsys, "enumerate", "--degrees", "4", "--format", "csv",
                        "--cache-dir", str(tmp_path))
    assert rc == 0
    assert "cache hit" not in err
    assert out == "4,2,10,8,6,4,6,6,7\n"
    assert path.read_text() == fresh
    assert not list(tmp_path.glob(".*.tmp"))  # atomic writes leave no temp files


def test_full_cache_satisfies_skipped_rerun(tmp_path, capsys):
    _run(capsys, "enumerate", "--degrees", "6", "--format", "csv",
         "--cache-dir", str(tmp_path))
    path = tmp_path / "degree-006.json"
    before = path.stat().st_mtime_ns
    rc, out, _ = _run(capsys, "enumerate", "--degrees", "6", "--format", "csv",
                      "--skip-ac", "--cache-dir", str(tmp_path))
    assert rc == 0
    assert path.stat().st_mtime_ns == before  # full result already covers this
    # but a skipped cache does not satisfy a full request
    skinny = tmp_path / "skinny"
    _run(capsys, "enumerate", "--degrees", "6", "--skip-ac", "--format", "csv",
         "--cache-dir", str(skinny))
    row = json.loads((skinny / "degree-006.json").read_text())["row"]
    assert row["ac_hgs"] is None
    rc, out, _ = _run(capsys, "enumerate", "--degrees", "6", "--format", "csv",
                      "--cache-dir", str(skinny))
    assert rc == 0
    row = json.loads((skinny / "degree-006.json").read_text())["row"]
    assert row["ac_hgs"] is not None


def test_degree16_degrades_to_unknowns(tmp_path, capsys):
    rc, out, _ = _run(capsys, "enumerate", "--degrees", "16", "--format", "csv",
                      "--cache-dir", str(tmp_path))
    assert rc == 0
    assert out == "16,14,?,?,?,?,?,?,?\n"
    payload = json.loads((tmp_path / "degree-016.json").read_text())
    assert payload["row"]["partial"] is True
    assert payload["row"]["hgs_total"] is None


def test_diff_agrees_on_clean_degrees(tmp_path, capsys):
    _run(capsys, "enumerate", "--degrees", "2-6", "--format", "csv",
         "--cache-dir", str(tmp_path))
    rc, out, _ = _run(capsys, "diff", "--degrees", "2-6", "--cache-dir", str(tmp_path))
    assert rc == 0
    assert "MISMATCH" not in out
    assert "0 mismatched" in out


def test_diff_flags_disputed_cell_without_failing(tmp_path, capsys):
    _run(capsys, "enumerate", "--degrees", "12", "--format", "csv",
         "--cache-dir", str(tmp_path))
    rc, out, _ = _run(capsys, "diff", "--degrees", "12", "--cache-dir", str(tmp_path))
    assert rc == 0
    assert "DISPUTED" in out
    assert "ac_sbracoids" in out
    assert "MISMATCH" not in out


def test_diff_detects_a_doctored_cache(tmp_path, capsys):
    _run(capsys, "enumerate", "--degrees", "5", "--format", "csv",
         "--cache-dir", str(tmp_path))
    path = tmp_path / "degree-005.json"
    payload = json.loads(path.read_text())
    payload["row"]["hgs_total"] += 1
    path.write_text(json.dumps(payload))
    rc, out, _ = _run(capsys, "diff", "--degrees", "5", "--cache-dir", str(tmp_path))
    assert rc == 1
    assert "MISMATCH" in out


def test_diff_without_cache_points_to_enumerate(tmp_path, capsys):
    rc, _, err = _run(capsys, "diff", "--degrees", "9", "--cache-dir", str(tmp_path))
    assert rc == 2
    assert "enumerate" in err


def test_actions_sweep_writes_brace_and_solution_per_regular_member(tmp_path, capsys):
    _run(capsys, "enumerate", "--degrees", "6", "--format", "csv",
         "--cache-dir", str(tmp_path))
    rc, out, _ = _run(capsys, "actions", "--degree", "6", "--all-braces",
                      "--cache-dir", str(tmp_path))
    assert rc == 0
    braces = sorted((tmp_path / "actions").glob("*-brace.json"))
    ybes = sorted((tmp_path / "actions").glob("*-ybe.json"))
    assert len(braces) == 6  # one per regular record of the degree
    assert len(ybes) == 6
    for path in braces:
        data = json.loads(path.read_text())
        assert data["kind"] == "skew_brace"
        assert data["order"] == 6


def test_exported_flip_solution_at_degree_4(tmp_path, capsys):
    _run(capsys, "enumerate", "--degrees", "4", "--format", "csv",
         "--cache-dir", str(tmp_path))
    rc, _, _ = _run(capsys, "actions", "--degree", "4", "--all-braces",
                    "--cache-dir", str(tmp_path))
    assert rc == 0
    flips = 0
    for bpath in (tmp_path / "actions").glob("*-brace.json"):
        brace = json.loads(bpath.read_text())
        if brace["additive"] != brace["circle"]:
            continue
        ypath = bpath.with_name(bpath.name.replace("-brace", "-ybe"))
        sol = json.loads(ypath.read_text())
        # both operations agree and are commutative, so the map is the flip
        r = sol["r"]
        for x in range(4):
            for y in range(4):
                assert r[4 * x + y] == [y, x]
        flips += 1
    assert flips >= 1  # the pure-translation members produce these


def test_actions_single_class_writes_a_bracoid(tmp_path, capsys):
    _run(capsys, "enumerate", "--degrees", "4", "--format", "csv",
         "--cache-dir", str(tmp_path))
    payload = json.loads((tmp_path / "degree-004.json").read_text())
    label = payload["classes"][0]["label"]
    rc, out, _ = _run(capsys, "actions", "--degree", "4", "--class", label,
                      "--cache-dir", str(tmp_path))
    assert rc == 0
    bracoid = json.loads((tmp_path / "actions" / f"{label}-bracoid.json").read_text())
    assert bracoid["kind"] == "skew_bracoid"
    assert bracoid["degree"] == 4


def test_actions_unknown_label_lists_known_ones(tmp_path, capsys):
    _run(capsys, "enumerate", "--degrees", "4", "--format", "csv",
         "--cache-dir", str(tmp_path))
    rc, _, err = _run(capsys, "actions", "--degree", "4", "--class", "d4-o999-s1-c1",
                      "--cache-dir", str(tmp_path))
    assert rc == 2
    assert "d4-" in err  # real labels offered


def test_actions_before_enumerate_fails_with_guidance(tmp_path, capsys):
    rc, _, err = _run(capsys, "actions", "--degree", "9", "--all-braces",
                      "--cache-dir", str(tmp_path))
    assert rc == 2
    assert "enumerate" in err


def test_unsupported_degree_is_a_clean_error(tmp_path, capsys):
    rc, _, err = _run(capsys, "enumerate", "--degrees", "17", "--format", "csv",
                      "--cache-dir", str(tmp_path))
    assert rc == 2
    assert "error:" in err


def test_verify_2pq_reports_all_witnesses(capsys):
    rc, out, _ = _run(capsys, "verify-2pq", "--p", "5", "--q", "3")
    assert rc == 0
    for token in ("M2", "M3", "M4", "J2", "J3", "720", "1200",
                  "all witnesses verified"):
        assert token in out


def test_verify_2pq_rejects_bad_pair(capsys):
    rc, _, err = _run(capsys, "verify-2pq", "--p", "3", "--q", "5")
    assert rc == 2
    assert "error:" in err


def test_catalog_list(capsys):
    rc, out, _ = _run(capsys, "catalog", "list", "--order", "8")
    assert rc == 0
    for name in ("C8", "C4xC2", "C2xC2xC2", "D4", "Q8"):
        assert name in out


def test_list_classes_goes_to_stderr(tmp_path, capsys):
    rc, out, err = _run(capsys, "enumerate", "--degrees", "4", "--format", "csv",
                        "--list-classes", "--cache-dir", str(tmp_path))
    assert rc == 0
    assert out == "4,2,10,8,6,4,6,6,7\n"
    assert "d4-" in err


def test_emit_actions_during_enumerate(tmp_path, capsys):
    rc, _, _ = _run(capsys, "enumerate", "--degrees", "4", "--format", "csv",
                    "--emit-actions", "--cache-dir", str(tmp_path))
    assert rc == 0
    braces = list((tmp_path / "actions").glob("*-brace.json"))
    assert len(braces) == 4  # brace count at this order
