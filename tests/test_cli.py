"""Command-line interface: parsing, caching, determinism, exports, diffs."""

from __future__ import annotations

import builtins
import gc
import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from hgcensus import __version__, build_degree_census, cli, table
from hgcensus.actions import brace_from_regular, bracoid_from_subgroup, ybe_solution
from hgcensus.catalog import groups_of_order
from hgcensus.cli import SCHEMA_VERSION, RunConfig, _census_payload, _dump_canonical, main, parse_degrees
from hgcensus.errors import StructureError
from hgcensus.holomorph import HolomorphContext
from hgcensus.iso import IsoSearch
from hgcensus.perm import PermGroup, format_cycles, parse_cycles


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


@pytest.mark.parametrize(
    "name, broken",
    [
        ("degree-004.json", lambda payload: []),
        ("degree-004.json", lambda payload: {**payload, "flags": []}),
        ("degree-004.json", lambda payload: {**payload, "row": None}),
        ("degree-004.json", lambda payload: {**payload, "classes": {}}),
        ("timings.json", lambda payload: {"seconds": [1]}),
    ],
)
def test_a_cache_file_of_the_wrong_shape_is_not_used(tmp_path, capsys, name, broken):
    args = ("--degrees", "4", "--cache-dir", str(tmp_path))
    _run(capsys, "enumerate", *args, "--format", "csv")
    path = tmp_path / "degree-004.json"
    fresh = path.read_text()
    (tmp_path / name).write_text(json.dumps(broken(json.loads(fresh))))
    if name == "timings.json":
        path.unlink()
    else:
        rc, out, err = _run(capsys, "diff", *args)
        assert (rc, out) == (2, "") and "no usable results" in err
        rc, out, err = _run(capsys, "actions", "--degree", "4", "--all-braces",
                            "--cache-dir", str(tmp_path))
        assert (rc, out) == (2, "") and "no usable results" in err
    rc, out, err = _run(capsys, "enumerate", *args, "--format", "csv")
    assert rc == 0 and "cache hit" not in err
    assert out == "4,2,10,8,6,4,6,6,7\n"
    assert path.read_text() == fresh
    assert set(json.loads((tmp_path / "timings.json").read_text())["seconds"]) == {"4"}


@pytest.mark.parametrize(
    "broken, field",
    [
        (lambda payload: {**payload, "row": {}}, "row lacks 'ac_hgs'"),
        (lambda payload: {**payload, "classes": [{}]}, "class 0 lacks 'label'"),
        (lambda payload: {**payload, "classes": [{**payload["classes"][0], "members": [{}]}]},
         "class 0 member 0 lacks 'almost_classical'"),
    ],
)
@pytest.mark.parametrize("command", [["diff", "--degrees", "4"], ["actions", "--degree", "4", "--all-braces"]])
def test_a_cache_lacking_a_field_is_refused_by_file_and_field(tmp_path, capsys, broken, field, command):
    # unchecked, these stopped on a bare KeyError: "error: 'types'"
    args = ("--cache-dir", str(tmp_path))
    _run(capsys, "enumerate", "--degrees", "4", "--format", "csv", *args)
    path = tmp_path / "degree-004.json"
    fresh = path.read_text()
    path.write_text(json.dumps(broken(json.loads(fresh))))
    rc, out, err = _run(capsys, *command, *args)
    assert (rc, out) == (2, "")
    assert err.startswith("error: no usable results") and str(path) in err and field in err
    assert not (tmp_path / "actions").exists()
    # enumerate does not serve it either: it recomputes the same bytes
    rc, out, err = _run(capsys, "enumerate", "--degrees", "4", "--format", "csv", *args)
    assert (rc, out) == (0, "4,2,10,8,6,4,6,6,7\n") and "cache hit" not in err
    assert path.read_text() == fresh


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


def test_enumerate_says_why_a_degree_stopped(tmp_path, capsys):
    # the budget stop goes to stderr, never into the degree artifact;
    # a skip flag gets a line of its own
    _, _, err = _run(capsys, "enumerate", "--degrees", "16", "--cache-dir", str(tmp_path))
    stop = "C2xC2xC2xC2: group too large to table densely (spent 322560, budget 6000)"
    assert f"degree 16: table budget stopped at {stop}\n" in err
    assert "left cells unknown" not in err
    artifact = (tmp_path / "degree-016.json").read_text()
    assert "322560" not in artifact and "too large" not in artifact
    _, _, err = _run(capsys, "enumerate", "--degrees", "4", "--skip-bc", "--cache-dir", str(tmp_path))
    assert "degree 4: --skip-bc left cells unknown\n" in err
    assert "budget stopped" not in err


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


def test_artifact_generators_rebuild_every_record(census):
    # the printed generators, parsed back and closed by the tuple search,
    # give the rows the enumeration found by coset fill in the dense table
    checked = 0
    for n in range(2, 13):
        for rec in census(n).records:
            perms = rec.ctx.perms
            text = [format_cycles(perms[g].tolist()) for g in rec.gens]
            group = PermGroup([parse_cycles(s, n) for s in text], n)
            assert np.array_equal(group.elements, perms[rec.indices]), (n, rec.type_name)
            checked += 1
    assert checked == sum(len(census(n).records) for n in range(2, 13))


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


def test_actions_on_a_warm_cache_never_import_numpy_ma(tmp_path, capsys):
    # a plain `np.unique` imports `numpy.ma` (10-12 ms) on its first call in
    # a process; the export's transitivity and regularity checks sort
    # instead, so a fresh interpreter that only runs `actions` never loads it
    _run(capsys, "enumerate", "--degrees", "2-8", "--format", "csv", "--cache-dir", str(tmp_path))
    script = (
        "import sys\n"
        "from hgcensus.cli import main\n"
        "for n in range(2, 9):\n"
        f"    assert main(['actions', '--degree', str(n), '--all-braces', '--cache-dir', {str(tmp_path)!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert len(list((tmp_path / "actions").glob("*-brace.json"))) > 0
    assert done.stdout.splitlines()[-1] == "False"


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
    # checked before any work: degree 5 is neither computed nor written
    cache = tmp_path / "cache"
    rc, out, err = _run(capsys, "enumerate", "--degrees", "5,17", "--format", "csv",
                        "--cache-dir", str(cache))
    assert rc == 2
    assert "error:" in err and "order 17" in err
    assert out == ""
    assert not cache.exists()  # no degree-005.json, no timings.json


@pytest.mark.parametrize("budget", ["nan", "inf", "-inf"])
def test_a_time_budget_that_is_not_finite_is_a_clean_error(tmp_path, capsys, budget):
    # NaN compares false with everything, so it used to pass the positivity
    # check, run with no time limit and write "NaN" into the JSON artifact
    cache = tmp_path / "cache"
    rc, out, err = _run(capsys, "enumerate", "--degrees", "2-3", f"--time-budget={budget}",
                        "--cache-dir", str(cache))
    assert rc == 2
    assert err.startswith("error:") and "time budget" in err
    assert out == ""
    assert not cache.exists()


@pytest.mark.parametrize("argv", [["diff", "--degrees", "1"], ["actions", "--degree", "1", "--all-braces"],
                                  ["diff", "--degrees", "5,17"], ["actions", "--degree", "17", "--all-braces"]])
def test_diff_and_actions_refuse_a_bad_degree_without_advising_enumerate(tmp_path, capsys, argv):
    rc, _, err = _run(capsys, *argv, "--cache-dir", str(tmp_path))
    assert rc == 2
    assert "error:" in err and "enumerate" not in err


def test_malformed_cycle_notation_in_the_cache_is_a_clean_error(tmp_path, capsys):
    _run(capsys, "enumerate", "--degrees", "4", "--format", "csv",
         "--cache-dir", str(tmp_path))
    path = tmp_path / "degree-004.json"
    payload = json.loads(path.read_text())
    (cls,) = [c for c in payload["classes"] if c["label"] == "d4-o4-s1-c1"]
    cls["members"][0]["generators"][0] = "(0 1) (2 3)"
    path.write_text(json.dumps(payload))
    rc, _, err = _run(capsys, "actions", "--degree", "4", "--class", "d4-o4-s1-c1",
                      "--cache-dir", str(tmp_path))
    assert rc == 2
    assert "error: bad cycle notation" in err


# (class, member index, generators, part of the message).  Unchecked, the
# first case wrote an order-4 bracoid under the order-12 label, and the
# others sit in the last class `--all-braces` exports, after files an
# unchecked export would already have written
_TAMPERED = {
    "order-4-group-under-an-order-12-label": ("d4-o12-s3-c1", 0, ["(0 1 2 3)"], "order 4"),
    "order-2-group-under-an-order-4-label": ("d4-o4-s1-c2", 1, ["(0 1)(2 3)"], "order 2"),
    "generators-not-a-list": ("d4-o4-s1-c2", 1, 5, "not a list"),
    "generators-not-strings": ("d4-o4-s1-c2", 1, [[1, 0, 3, 2]], "not a list"),
    # regular and cyclic of order 4, as the class says, but outside Hol(C4)
    "generator-outside-the-holomorph": ("d4-o4-s1-c2", 0, ["(0 1 3 2)"], "does not lie in Hol(C4)"),
}


@pytest.mark.parametrize("case,mode", [(case, "--class") for case in _TAMPERED] + [
    (case, "--all-braces") for case in _TAMPERED if _TAMPERED[case][0] != "d4-o12-s3-c1"])
def test_tampered_members_are_refused_before_any_file_is_written(tmp_path, capsys, case, mode):
    label, j, gens, message = _TAMPERED[case]
    _run(capsys, "enumerate", "--degrees", "4", "--format", "csv", "--cache-dir", str(tmp_path))
    path = tmp_path / "degree-004.json"
    payload = json.loads(path.read_text())
    (cls,) = [c for c in payload["classes"] if c["label"] == label]
    cls["members"][j]["generators"] = gens
    path.write_text(json.dumps(payload))
    target = ["--class", label] if mode == "--class" else ["--all-braces"]
    rc, out, err = _run(capsys, "actions", "--degree", "4", *target, "--cache-dir", str(tmp_path))
    assert rc == 2
    assert err.startswith("error: ") and message in err
    assert out == "" and not (tmp_path / "actions").exists()


def test_census_and_export_never_list_automorphisms_by_backtracking(tmp_path, capsys, monkeypatch):
    # the backtracking listing (a descent that does not stop at the first
    # map) is the tests' reference only; Aut(N) is rebuilt under the guard
    # for each command, since tables cache it
    descend = IsoSearch._descend

    def guarded(self, cols, start, phi, gen_img, first):
        if not first:
            raise AssertionError("backtracking automorphism listing on an engine path")
        return descend(self, cols, start, phi, gen_img, first)

    monkeypatch.setattr(IsoSearch, "_descend", guarded)
    for g in groups_of_order(8):
        monkeypatch.setattr(g, "_aut", None)
    rc, _, _ = _run(capsys, "enumerate", "--degrees", "8", "--format", "csv",  # build_degree_census(8)
                    "--cache-dir", str(tmp_path))
    assert rc == 0
    label = json.loads((tmp_path / "degree-008.json").read_text())["classes"][-1]["label"]
    for g in groups_of_order(8):
        monkeypatch.setattr(g, "_aut", None)
    rc, out, _ = _run(capsys, "actions", "--degree", "8", "--class", label,
                      "--cache-dir", str(tmp_path))
    assert rc == 0 and out


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


def test_verify_2pq_beyond_the_table_budget_is_a_clean_error(capsys, monkeypatch):
    # the witnesses are built before any line is written, so a budget stop
    # prints nothing to stdout
    monkeypatch.setattr(table, "DEFAULT_TABLE_BUDGET", 100)
    rc, out, err = _run(capsys, "verify-2pq", "--p", "5", "--q", "3")
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "budget 100" in err


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
    rc, _, err = _run(capsys, "enumerate", "--degrees", "4", "--format", "csv",
                      "--emit-actions", "--cache-dir", str(tmp_path))
    assert rc == 0
    braces = list((tmp_path / "actions").glob("*-brace.json"))
    assert len(braces) == 4  # brace count at this order
    assert "degree 4: wrote 8 action file(s)" in err
    # a second run finds every file in place and still counts it
    rc, _, err = _run(capsys, "enumerate", "--degrees", "4", "--format", "csv",
                      "--emit-actions", "--cache-dir", str(tmp_path))
    assert rc == 0 and "degree 4: wrote 8 action file(s)" in err


def test_canonical_writer_matches_json_dumps(census):
    # the writer must give the bytes of json.dumps(indent=2, sort_keys=True)
    c = census(6)
    regular = next(rec for rec in c.records if rec.regular)
    brace = brace_from_regular(regular.ctx.group, regular.rep)
    bracoid = bracoid_from_subgroup(c.records[-1].ctx.group, c.records[-1].rep)
    solution = ybe_solution(brace)
    payloads = [
        _census_payload(c, RunConfig(degrees=[6])),
        bracoid.to_json_dict(),
        brace.to_json_dict(),
        solution.to_json_dict(),
        {},
        {"empty_list": [], "empty_dict": {}, "none": None, "float": 0.1, "neg": -2.5e-300},
        {"bools": [True, False, 1, 0], "mixed": [1, None, [2, [], {}], {"b": "é\n", "a": (3, 4)}]},
        {"nested": [[1, 2], [3]], "deep": {"x": {"y": []}}},
        {3: "c", 1: "a", 10: "b"},
    ]
    for p in payloads:
        assert _dump_canonical(p) == json.dumps(p, indent=2, sort_keys=True) + "\n"
    # arrays are written as their .tolist(), which is what to_json_dict holds
    a = np.arange(-7, 8).reshape(3, 5)
    arrays = [np.arange(5), a[:0], a[:, :0], np.zeros((2, 0, 3), dtype=np.int64),
              np.arange(24).reshape(2, 3, 4), a > 0, a / 2, np.array(4)]
    for dtype in (np.int16, np.int32, np.int64, np.uint8):
        b = np.abs(a).astype(dtype)
        arrays += [b, b.T, b[:1], b[:, :1], b[::2, ::-2]]
    assert not arrays[-4].flags.c_contiguous  # a transposed view
    artifacts = [bracoid, brace, solution]
    assert not solution.rho.flags.c_contiguous  # rho is tau.T
    for p in [x.payload() for x in artifacts] + [{"x": x, "n": 1} for x in arrays]:
        lists = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in p.items()}
        assert _dump_canonical(p) == json.dumps(lists, indent=2, sort_keys=True) + "\n"
    for x in artifacts:
        assert x.to_json_dict() == {k: v.tolist() if isinstance(v, np.ndarray) else v
                                    for k, v in x.payload().items()}


def test_identical_bytes_leave_the_file_in_place(tmp_path):
    path = tmp_path / "a.json"
    cli._write_atomic(path, "[1, 2]\n")  # a missing file is created
    assert path.read_text() == "[1, 2]\n"
    before = path.stat()
    cli._write_atomic(path, "[1, 2]\n")
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    cli._write_atomic(path, "[1, 3]\n")  # same size, other bytes: replaced
    assert path.read_text() == "[1, 3]\n" and path.stat().st_ino != before.st_ino
    cli._write_atomic(path, "[1]\n")
    assert path.read_text() == "[1]\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]


@pytest.mark.parametrize("text", ["{}\n", ""])  # a FIFO's size is 0
def test_a_fifo_at_the_target_is_replaced_unopened(tmp_path, monkeypatch, text):
    # reading a FIFO with no writer would block: the writer must not open it
    path = tmp_path / "a.json"
    os.mkfifo(path)
    opened = []

    def guard(real):
        def open_(file, *args, **kwargs):
            if Path(os.fsdecode(file)) == path:
                opened.append(file)
                raise AssertionError("the FIFO was opened")
            return real(file, *args, **kwargs)
        return open_

    monkeypatch.setattr(io, "open", guard(io.open))
    monkeypatch.setattr(builtins, "open", guard(builtins.open))
    monkeypatch.setattr(os, "open", guard(os.open))
    cli._write_atomic(path, text)
    monkeypatch.undo()
    assert not opened
    assert stat.S_ISREG(path.stat().st_mode) and path.read_text() == text


def test_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    path = tmp_path / "a.json"
    path.write_text("old\n")

    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename refused"):
        cli._write_atomic(path, "new\n")
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]


def test_class_then_all_braces_lists_every_file_and_rewrites_none(census, tmp_path, capsys):
    d = 6
    payload = _census_payload(census(d), RunConfig(degrees=[d]))
    (tmp_path / f"degree-{d:03d}.json").write_text(_dump_canonical(payload))
    cls = next(c for c in payload["classes"] if c["regular"])
    regular = [f"{m['label']}-{kind}.json" for c in payload["classes"]
               for m in c["members"] if m["regular"] for kind in ("brace", "ybe")]
    own = [f"{cls['label']}-bracoid.json"] + [n for n in regular if n.startswith(cls["label"] + "-")]
    cache = ["--cache-dir", str(tmp_path)]
    rc, out, _ = _run(capsys, "actions", "--degree", str(d), "--class", cls["label"], *cache)
    assert rc == 0 and out.splitlines() == [str(tmp_path / "actions" / n) for n in own]
    kept = {n: (tmp_path / "actions" / n).stat() for n in own}
    rc, out, _ = _run(capsys, "actions", "--degree", str(d), "--all-braces", *cache)
    assert rc == 0 and out.splitlines() == [str(tmp_path / "actions" / n) for n in regular]
    for n, st in kept.items():  # written again with the same bytes: left in place
        now = (tmp_path / "actions" / n).stat()
        assert (now.st_ino, now.st_mtime_ns) == (st.st_ino, st.st_mtime_ns), n


def test_enumerate_frees_each_census_before_the_next_degree(tmp_path, capsys, monkeypatch):
    # a finished degree's census (and its holomorph tables) must not stay
    # alive while the next degree is built
    built = []

    def build(degree, **options):
        assert all(ref() is None for ref in built), degree
        census = build_degree_census(degree, **options)
        built.append(weakref.ref(census))
        return census

    monkeypatch.setattr(cli, "build_degree_census", build)
    gc.disable()
    try:
        rc, _, _ = _run(capsys, "enumerate", "--degrees", "4-6", "--format", "csv", "--cache-dir", str(tmp_path))
    finally:
        gc.enable()
    assert rc == 0 and len(built) == 3


# the benchmark's pinned artifact digests, read and never written here
_REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
_ENGINE_VERSION_LINE = re.compile(rb'^  "engine_version": .*$', re.MULTILINE)


@pytest.mark.parametrize("degree", [*range(2, 17), 41, 77])
def test_artifacts_match_the_pinned_reference_digests(census, degree):
    # the bytes `enumerate` writes, with the engine_version line masked as
    # the benchmark masks it, hash to the digest pinned for the degree
    pinned = json.loads(_REFERENCE.read_text())["artifacts"][f"degree-{degree:03d}.json"]
    text = _dump_canonical(_census_payload(census(degree), RunConfig(degrees=[degree])))
    assert hashlib.sha256(_ENGINE_VERSION_LINE.sub(b"", text.encode())).hexdigest() == pinned


def _export_every_class(census, cache: Path, degrees) -> None:
    """A cache of the session's censuses, then `actions --class` for every
    class and `actions --all-braces` for every degree, as the benchmark runs them."""
    for d in degrees:
        payload = _census_payload(census(d), RunConfig(degrees=[d]))
        (cache / f"degree-{d:03d}.json").write_text(_dump_canonical(payload))
        for target in [["--class", cls["label"]] for cls in payload["classes"]] + [["--all-braces"]]:
            argv = ["actions", "--degree", str(d), *target, "--cache-dir", str(cache)]
            assert main(argv) == 0, argv


def test_action_files_match_the_pinned_reference_digests(census, tmp_path, capsys):
    # all 383 action files of degrees 2-15 hash to the digests the benchmark pins
    pinned = json.loads(_REFERENCE.read_text())["actions"]
    _export_every_class(census, tmp_path, range(2, 16))
    capsys.readouterr()
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (tmp_path / "actions").iterdir()}
    assert len(pinned) == 383 and written == pinned


def test_export_builds_no_holomorph(census, tmp_path, capsys, monkeypatch):
    # the export reads N's catalog table only: every command at degree 8
    # succeeds with holomorph construction refused
    census(8)  # the census itself builds them, before the guard

    def refuse(self, group):
        raise AssertionError("holomorph built on the export path")

    monkeypatch.setattr(HolomorphContext, "__init__", refuse)
    _export_every_class(census, tmp_path, [8])


def test_export_of_the_order_1344_class_builds_no_square_table(census, tmp_path, capsys, monkeypatch):
    # Hol(C2^3) acts by its own 1344 rows: no table of 1344^2 cells is built
    payload = _census_payload(census(8), RunConfig(degrees=[8]))
    (tmp_path / "degree-008.json").write_text(_dump_canonical(payload))
    label = next(c["label"] for c in payload["classes"] if c["order"] == 1344)
    acting = []

    def bracoid(N, M):
        acting.append(M)
        return bracoid_from_subgroup(N, M)

    monkeypatch.setattr(cli, "bracoid_from_subgroup", bracoid)
    tracemalloc.start()
    try:
        assert main(["actions", "--degree", "8", "--class", label, "--cache-dir", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [M] = acting
    assert M.order == 1344 and M._table is None
    assert peak < 1344**2 * 2


def test_actions_on_a_budget_stopped_degree_is_a_clean_error(census, tmp_path, capsys):
    # degree 16's cached row keeps the type count only, and no classes
    payload = _census_payload(census(16), RunConfig(degrees=[16]))
    assert payload["row"]["partial"] and not payload["classes"]
    (tmp_path / "degree-016.json").write_text(_dump_canonical(payload))
    for target in (["--all-braces"], ["--class", "d16-o16-s1-c1"]):
        rc, out, err = _run(capsys, "actions", "--degree", "16", *target, "--cache-dir", str(tmp_path))
        assert rc == 2 and out == ""
        assert err == "error: degree 16: the cached row is partial, so it has no classes to export\n"
    assert not (tmp_path / "actions").exists()
