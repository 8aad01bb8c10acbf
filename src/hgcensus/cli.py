"""Command line driver: census runs, caching, diffing, artifact export.

Per-degree results persist as canonical JSON (sorted keys, fixed
indent), so identical configuration and code reproduce identical bytes.
Wall-clock timings are deliberately kept out of those artifacts; they go
to a sidecar log, `timings.json`, which is the one file in the cache
directory that is not deterministic.  Every file is written through a
temporary file and a rename, so a reader never sees half of one, and a
regular file already holding the same bytes is left in place.  Action
artifacts give the writer their integer tables as arrays, each written
with one `str.format` over a template of its shape.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import stat
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .actions import brace_from_regular, bracoid_from_subgroup, ybe_solution
from .catalog import catalog_orders, groups_of_order, invariants
from .counts import DegreeCensus, DegreeReportRow, build_degree_census
from .degree2pq import build_family, witness_M_series, witness_four_types
from .enumeration import DEFAULT_NODE_BUDGET, DEFAULT_TIME_BUDGET
from .errors import BudgetError, ConsistencyError, StructureError, UnsupportedOrderError
from .expected import MAX_EXPECTED_DEGREE, expected_row, is_disputed, DISPUTED
from .holomorph import in_holomorph
from .perm import PermGroup, format_cycles, parse_cycles
from .table import GroupTable

SCHEMA_VERSION = 1
CACHE_ENV = "HGCENSUS_CACHE_DIR"
DEFAULT_CACHE = "hgcensus-cache"

_HEADERS = (
    "Degree",
    "Types",
    "#HGS",
    "#Sbracoids",
    "#Gal",
    "#Sbraces",
    "#AC HGS",
    "#AC Sbracoids",
    "#BC HGS",
)


@functools.cache
def _engine_version() -> str:
    """Package version plus a digest of the package's sources and catalog.

    Any edit to the engine code or the catalog data changes the digest, so
    a cache written by other code is recomputed instead of served.
    """
    pkg = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(pkg.glob("*.py")) + [pkg / "catalog_data.txt"]:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return f"{__version__}+{digest.hexdigest()[:16]}"


@dataclass
class RunConfig:
    """Options shared by the cache-backed subcommands."""

    degrees: list[int]
    fmt: str = "md"
    cache_dir: Path = Path(DEFAULT_CACHE)
    node_budget: int = DEFAULT_NODE_BUDGET
    time_budget: float = DEFAULT_TIME_BUDGET
    skip_ac: bool = False
    skip_bc: bool = False
    list_classes: bool = False
    emit_actions: bool = False

    def validate(self) -> None:
        """Check the options, every degree against the catalog included,
        before any command computes or reads anything."""
        if not self.degrees:
            raise StructureError("no degrees requested")
        for d in self.degrees:
            if d < 2:
                raise StructureError(f"degree {d} is below 2")
            if d not in catalog_orders():
                raise UnsupportedOrderError(d, catalog_orders())
        if self.node_budget <= 0:
            raise StructureError("node budget must be positive")
        if not 0 < self.time_budget < math.inf:  # NaN fails every comparison
            raise StructureError(f"time budget must be positive and finite, not {self.time_budget}")
        if self.fmt not in ("json", "csv", "md"):
            raise StructureError(f"unknown format {self.fmt!r}")


def parse_degrees(spec: str) -> list[int]:
    """Parse "8", "4,6,8", "2-12", or mixtures like "2-6,9"."""
    out: set[int] = set()
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo_s, _, hi_s = part.partition("-")
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise StructureError(f"bad degree range {part!r}") from None
            if lo > hi:
                raise StructureError(f"empty degree range {part!r}")
            out.update(range(lo, hi + 1))
        else:
            try:
                out.add(int(part))
            except ValueError:
                raise StructureError(f"bad degree {part!r}") from None
    if not out:
        raise StructureError(f"no degrees in {spec!r}")
    return sorted(out)


def _default_cache_dir() -> Path:
    return Path(os.environ.get(CACHE_ENV, DEFAULT_CACHE))


def _degree_path(cache_dir: Path, degree: int) -> Path:
    return cache_dir / f"degree-{degree:03d}.json"


def _dump_canonical(payload: dict) -> str:
    """`json.dumps(payload, indent=2, sort_keys=True)` plus a newline, byte
    for byte, where every numpy array stands for its `.tolist()`.  That call
    takes Python's pure-Python encoder; this writer hands every scalar to
    the C encoder and writes each integer array with one `str.format` of
    its cells, so no nested list is built or scanned."""
    return _canonical(payload, "\n") + "\n"


def _canonical(value, pad: str) -> str:
    """`value` as indented JSON whose closing bracket follows `pad`."""
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (
            json.dumps(k if isinstance(k, str) else json.dumps(k)) + ": " + _canonical(v, inner)
            for k, v in sorted(value.items())
        )
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "iu" and value.ndim:
            return _layout(value.shape, pad).format(*value.ravel().tolist())
        return _canonical(value.tolist(), pad)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join(_canonical(v, inner) for v in value) + pad + "]"
    return json.dumps(value)


def _layout(shape: tuple[int, ...], pad: str) -> str:
    """The indented JSON of an array of this shape with a `{}` for each
    cell, in row-major order: the whole array is then one `str.format`."""
    if not shape[0]:
        return "[]"
    inner = pad + "  "
    item = _layout(shape[1:], inner) if len(shape) > 1 else "{}"
    return "[" + inner + ("," + inner).join([item] * shape[0]) + pad + "]"


def _same_bytes(path: Path, data: bytes) -> bool:
    """Whether `path` is a regular file holding exactly `data`.  Only a
    regular file of that size is opened, so a FIFO there is never read."""
    try:
        st = os.stat(path)
        return stat.S_ISREG(st.st_mode) and st.st_size == len(data) and path.read_bytes() == data
    except OSError:
        return False


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temporary file and a rename; a file already holding
    these bytes is left in place, so a deterministic artifact written again
    costs one read and no rename."""
    data = text.encode()
    if _same_bytes(path, data):
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _row_dict(row: DegreeReportRow) -> dict:
    d: dict = {"degree": row.degree, "partial": row.partial}
    for cell in DegreeReportRow.CELLS:
        d[cell] = getattr(row, cell)
    return d


def _census_payload(census: DegreeCensus, cfg: RunConfig) -> dict:
    rec_index = {id(rec): i for i, rec in enumerate(census.records)}
    classes = []
    for cls in census.classes:
        members = []
        seen_per_type: dict[str, int] = {}
        for tname, rec in cls.members:
            i = rec_index[id(rec)]
            j = seen_per_type.get(tname, 0)
            seen_per_type[tname] = j + 1
            bc_pair = census.bc_counts[i]
            members.append(
                {
                    "label": f"{cls.label}-{tname}-m{j}",
                    "type": tname,
                    "class_size": rec.class_size,
                    "normalizer_order": rec.normalizer_order,
                    "regular": rec.regular,
                    "almost_classical": census.ac_flags[i],
                    "bijective_correspondence": census.bc_flags[i],
                    "intermediate_fields": bc_pair[0] if bc_pair else None,
                    "hopf_subalgebras": bc_pair[1] if bc_pair else None,
                    "generators": [format_cycles(rec.ctx.perms[g].tolist()) for g in rec.gens],
                }
            )
        classes.append(
            {
                "label": cls.label,
                "order": cls.order,
                "stabilizer_order": cls.stabilizer_order,
                "regular": cls.regular,
                "members": members,
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "engine_version": _engine_version(),
        "degree": census.row.degree,
        "flags": {
            "skip_ac": cfg.skip_ac,
            "skip_bc": cfg.skip_bc,
            "node_budget": cfg.node_budget,
            "time_budget": cfg.time_budget,
        },
        "types": [g.name for g in groups_of_order(census.row.degree)],
        "row": _row_dict(census.row),
        "classes": classes,
    }


# keys of a cached artifact that a cache hit, `diff`, `actions` and
# `--list-classes` read
_ROW_KEYS = frozenset(("degree", *DegreeReportRow.CELLS))
_CLASS_KEYS = frozenset(("label", "order", "stabilizer_order", "regular", "members"))
_MEMBER_KEYS = frozenset((
    "label", "type", "class_size", "regular", "almost_classical", "bijective_correspondence", "generators",
))


def _missing(entry, keys: frozenset) -> Optional[str]:
    """Why `entry` is not a dict holding every key in `keys`, else None."""
    if not isinstance(entry, dict):
        return "is not an object"
    if keys <= entry.keys():
        return None
    return f"lacks {min(keys - entry.keys())!r}"


def _payload_fault(payload: dict) -> str:
    """The first entry of the row, the classes or their members that lacks
    a key the commands read, described; "" when there is none."""
    if fault := _missing(payload["row"], _ROW_KEYS):
        return f"row {fault}"
    for i, cls in enumerate(payload["classes"]):
        if fault := _missing(cls, _CLASS_KEYS):
            return f"class {i} {fault}"
        if not isinstance(cls["members"], list):
            return f"class {i} members are not a list"
        for j, member in enumerate(cls["members"]):
            if fault := _missing(member, _MEMBER_KEYS):
                return f"class {i} member {j} {fault}"
    return ""


def _read_payload(path: Path) -> tuple[Optional[dict], str]:
    """The cached payload at `path` and "" when it is present, of the
    artifact's shape and version-compatible, else None and the reason."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None, "missing or unreadable"
    shape = {"row": dict, "flags": dict, "classes": list}
    if not isinstance(payload, dict) or not all(isinstance(payload.get(k), t) for k, t in shape.items()):
        return None, "not of the artifact's shape"
    if payload.get("schema_version") != SCHEMA_VERSION:
        return None, "of another schema version"
    if payload.get("engine_version") != _engine_version():
        return None, "from other engine code"
    fault = _payload_fault(payload)
    return (None, fault) if fault else (payload, "")


def _cache_satisfies(payload: dict, cfg: RunConfig) -> bool:
    """Whether a cached payload already covers what cfg asks for.

    A cache computed with more columns or bigger budgets is accepted
    as-is; one whose skipped or budget-starved cells the current run
    would fill forces a recompute.
    """
    flags = payload["flags"]
    if flags.get("skip_ac", False) and not cfg.skip_ac:
        return False
    if flags.get("skip_bc", False) and not cfg.skip_bc:
        return False
    row = payload["row"]
    starved = row.get("hgs_total") is None or (
        row.get("bc_hgs") is None and not flags.get("skip_bc", False)
    )
    if starved and (
        cfg.node_budget > flags.get("node_budget", 0)
        or cfg.time_budget > flags.get("time_budget", 0)
    ):
        return False
    return True


def _cell_str(value) -> str:
    return "?" if value is None else str(value)


def _emit_rows(rows: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(rows, indent=2, sort_keys=True) + "\n")
        return
    if fmt == "csv":
        for r in rows:
            cells = [r["degree"]] + [r[c] for c in DegreeReportRow.CELLS]
            out.write(",".join(_cell_str(c) for c in cells) + "\n")
        return
    out.write("| " + " | ".join(_HEADERS) + " |\n")
    out.write("|" + " --- |" * len(_HEADERS) + "\n")
    for r in rows:
        cells = [r["degree"]] + [r[c] for c in DegreeReportRow.CELLS]
        out.write("| " + " | ".join(_cell_str(c) for c in cells) + " |\n")


def _print_classes(payload: dict, out) -> None:
    for cls in payload["classes"]:
        parts = []
        for m in cls["members"]:
            tags = ""
            if m["almost_classical"]:
                tags += ",AC"
            if m["bijective_correspondence"]:
                tags += ",BC"
            parts.append(f"{m['type']}:{m['class_size']}{tags}")
        kind = "regular" if cls["regular"] else f"stab={cls['stabilizer_order']}"
        out.write(
            f"  {cls['label']}  order={cls['order']} {kind}  members=[{'; '.join(parts)}]\n"
        )


def _merge_timings(cache_dir: Path, new_seconds: dict[str, float]) -> None:
    path = cache_dir / "timings.json"
    try:
        body = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        body = None
    # a sidecar of any other shape counts as empty
    seconds = body.get("seconds") if isinstance(body, dict) else None
    if not isinstance(seconds, dict):
        seconds = {}
    seconds.update(new_seconds)
    body = {"engine_version": _engine_version(), "seconds": seconds}
    _write_atomic(path, json.dumps(body, indent=2, sort_keys=True) + "\n")


def _rebuild_member(degree: int, cls: dict, member: dict) -> tuple[GroupTable, PermGroup]:
    """N's catalog table and a cached member's subgroup, checked against its class.

    The generators must be a list of cycle-notation strings, each lying in
    Hol(N) (`holomorph.in_holomorph`), so the closure stays inside Hol(N).
    Their closure must have the class's order and stabilizer order, and
    order = degree * stabilizer order makes it transitive.  Anything else
    raises StructureError.
    """
    N = next((g for g in groups_of_order(degree) if g.name == member["type"]), None)
    if N is None:
        raise LookupError(f"no group named {member['type']!r} of order {degree}")
    texts = member["generators"]
    if not isinstance(texts, list) or not all(isinstance(s, str) for s in texts):
        raise StructureError(f"{member['label']}: generators are not a list of cycle notations")
    gens = np.array([parse_cycles(s, degree) for s in texts], dtype=np.int64).reshape(-1, degree)
    if not in_holomorph(N, gens).all():
        raise StructureError(f"{member['label']}: a generator does not lie in Hol({N.name})")
    M = PermGroup(gens, degree)
    stab = int(np.count_nonzero(M.elements[:, 0] == 0))
    if (M.order, stab) != (cls["order"], cls["stabilizer_order"]) or M.order != degree * stab:
        raise StructureError(
            f"{member['label']}: generators give order {M.order} and stabilizer order {stab}, "
            f"class {cls['label']} has {cls['order']} and {cls['stabilizer_order']}"
        )
    return N, M


def _export_actions(degree: int, classes: list[dict], cache_dir: Path, bracoids: bool) -> list[Path]:
    """Bracoid artifact for each class representative when `bracoids`,
    brace and solution artifacts for every regular member, written to the
    cache's `actions` directory.

    Each exported member is rebuilt once, on N's catalog table, and every
    artifact is built and validated before the first file is written.
    """
    artifacts = []
    for cls in classes:
        for i, member in enumerate(cls["members"]):
            rep = bracoids and i == 0
            if not (rep or member["regular"]):
                continue
            N, M = _rebuild_member(degree, cls, member)
            if rep:
                artifacts.append((f"{cls['label']}-bracoid.json", bracoid_from_subgroup(N, M)))
            if member["regular"]:
                brace = brace_from_regular(N, M)
                artifacts.append((f"{member['label']}-brace.json", brace))
                artifacts.append((f"{member['label']}-ybe.json", ybe_solution(brace)))
    out_dir = cache_dir / "actions"
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, artifact in artifacts:
        path = out_dir / name
        _write_atomic(path, _dump_canonical(artifact.payload()))
        written.append(path)
    return written


def cmd_enumerate(cfg: RunConfig, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    cfg.validate()
    cfg.cache_dir.mkdir(parents=True, exist_ok=True)
    rows: list[dict] = []
    payloads: list[dict] = []
    new_seconds: dict[str, float] = {}
    for degree in cfg.degrees:
        path = _degree_path(cfg.cache_dir, degree)
        payload, _ = _read_payload(path)
        if payload is not None and _cache_satisfies(payload, cfg):
            err.write(f"degree {degree}: cache hit ({path.name})\n")
        else:
            started = time.perf_counter()
            census = build_degree_census(
                degree,
                node_budget=cfg.node_budget,
                time_budget=cfg.time_budget,
                skip_ac=cfg.skip_ac,
                skip_bc=cfg.skip_bc,
            )
            elapsed = round(time.perf_counter() - started, 3)
            new_seconds[str(degree)] = elapsed
            payload, stop = _census_payload(census, cfg), census.stop
            del census  # its holomorph tables must not stay alive through the next degree
            _write_atomic(path, _dump_canonical(payload))
            err.write(f"degree {degree}: computed in {elapsed}s -> {path.name}\n")
            if stop is not None:
                err.write(f"degree {degree}: {stop}\n")
            skipped = [flag for flag, on in (("--skip-ac", cfg.skip_ac), ("--skip-bc", cfg.skip_bc)) if on]
            if skipped:
                err.write(f"degree {degree}: {' and '.join(skipped)} left cells unknown\n")
        rows.append(payload["row"])
        payloads.append(payload)
    if new_seconds:
        _merge_timings(cfg.cache_dir, new_seconds)
    _emit_rows(rows, cfg.fmt, out)
    if cfg.list_classes:
        for payload in payloads:
            err.write(f"degree {payload['degree']} classes:\n")
            _print_classes(payload, err)
    if cfg.emit_actions:
        for payload in payloads:
            count = len(_export_actions(payload["degree"], payload["classes"], cfg.cache_dir, False))
            err.write(f"degree {payload['degree']}: wrote {count} action file(s)\n")
    return 0


def _require_payload(cfg: RunConfig, degree: int) -> dict:
    path = _degree_path(cfg.cache_dir, degree)
    payload, fault = _read_payload(path)
    if payload is None:
        raise LookupError(
            f"no usable results for degree {degree} at {path} ({fault}); run "
            f"`hgcensus enumerate --degrees {degree}` first"
        )
    return payload


def cmd_diff(cfg: RunConfig, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    cfg.validate()
    matched = mismatched = unknown = disputed = 0
    for degree in cfg.degrees:
        payload = _require_payload(cfg, degree)
        row = payload["row"]
        reference: dict[str, Optional[int]]
        if degree <= MAX_EXPECTED_DEGREE:
            exp = expected_row(degree)
            reference = {c: getattr(exp, c) for c in DegreeReportRow.CELLS}
        else:
            reference = {c: None for c in DegreeReportRow.CELLS}
        row_notes = []
        for cell in DegreeReportRow.CELLS:
            got = row[cell]
            want = reference[cell]
            if want is None:
                unknown += 1
                row_notes.append(f"{cell}: no reference (computed {_cell_str(got)})")
            elif got is None:
                unknown += 1
                row_notes.append(f"{cell}: not computed (reference {want})")
            elif got == want:
                matched += 1
            elif is_disputed(degree, cell):
                disputed += 1
                note = DISPUTED[(degree, cell)]
                row_notes.append(
                    f"{cell}: DISPUTED reference={want} computed={got} ({note})"
                )
            else:
                mismatched += 1
                row_notes.append(f"{cell}: MISMATCH reference={want} computed={got}")
        if row_notes:
            out.write(f"degree {degree}:\n")
            for line in row_notes:
                out.write(f"  {line}\n")
        else:
            out.write(f"degree {degree}: all cells match\n")
    out.write(
        f"summary: {matched} matched, {mismatched} mismatched, "
        f"{disputed} disputed, {unknown} unknown\n"
    )
    return 1 if mismatched else 0


def cmd_actions(
    cfg: RunConfig,
    degree: int,
    label: Optional[str] = None,
    all_braces: bool = False,
    out=None,
    err=None,
) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    replace(cfg, degrees=[degree]).validate()
    payload = _require_payload(cfg, degree)
    if not payload["classes"]:  # a budget stop keeps the type count only
        raise LookupError(f"degree {degree}: the cached row is partial, so it has no classes to export")
    if all_braces:
        written = _export_actions(degree, payload["classes"], cfg.cache_dir, False)
    else:
        cls = next((c for c in payload["classes"] if c["label"] == label), None)
        if cls is None:
            known = ", ".join(c["label"] for c in payload["classes"])
            raise LookupError(
                f"no class labeled {label!r} at degree {degree}; known labels: {known}"
            )
        written = _export_actions(degree, [cls], cfg.cache_dir, True)
        err.write(f"  {label}: wrote {len(written)} artifact file(s)\n")
    for path in written:
        out.write(f"{path}\n")
    return 0


def cmd_verify_2pq(p: int, q: int, out=None) -> int:
    out = out or sys.stdout
    fam = build_family(p, q)
    # every witness is built before any line is written, so a budget
    # stop leaves no partial report
    four = witness_four_types(fam)
    series = witness_M_series(fam)
    out.write(
        f"family p={p} q={q}: degree {2 * p * q}, {len(fam.members)} group types, "
        f"q divides p-1: {'yes' if fam.k is not None else 'no'}\n"
    )
    for name in sorted(four):
        rep = four[name]
        out.write(
            f"  {name}: host={rep.host} order={rep.subgroup.order} "
            f"normalizer={rep.normalizer_order} type={rep.abstract}\n"
        )
    for rep in series:
        out.write(
            f"  {rep.name}: host={rep.host} order={rep.subgroup.order} "
            f"type={rep.abstract} stabilizer-matched\n"
        )
    out.write("all witnesses verified\n")
    return 0


def cmd_catalog_list(order: int, out=None) -> int:
    out = out or sys.stdout
    for g in groups_of_order(order):
        inv = invariants(g)
        out.write(
            f"{g.name}  order={inv.order} abelian={'yes' if inv.abelian else 'no'} "
            f"exponent={inv.exponent} center={inv.center_order}\n"
        )
    return 0


@functools.cache  # parse_args leaves the parser unchanged: build it once per process
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hgcensus",
        description="Census of structures on transitive holomorph subgroups.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_cache(p):
        p.add_argument(
            "--cache-dir",
            type=Path,
            default=None,
            help=f"result cache directory (default ${CACHE_ENV} or ./{DEFAULT_CACHE})",
        )

    pe = sub.add_parser("enumerate", help="run the census over degrees")
    pe.add_argument("--degrees", required=True, help='e.g. "8", "2-12", "4,6,8"')
    pe.add_argument("--format", dest="fmt", choices=("json", "csv", "md"), default="md")
    pe.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    pe.add_argument("--time-budget", type=float, default=DEFAULT_TIME_BUDGET)
    pe.add_argument("--skip-ac", action="store_true", help="leave the AC columns unknown")
    pe.add_argument("--skip-bc", action="store_true", help="leave the BC column unknown")
    pe.add_argument("--list-classes", action="store_true", help="print per-class detail")
    pe.add_argument(
        "--emit-actions", action="store_true", help="also export brace/solution files"
    )
    add_cache(pe)

    pd = sub.add_parser("diff", help="compare cached results with the reference table")
    pd.add_argument("--degrees", required=True)
    add_cache(pd)

    pa = sub.add_parser("actions", help="export bracoid/brace/solution artifacts")
    pa.add_argument("--degree", type=int, required=True)
    target = pa.add_mutually_exclusive_group(required=True)
    target.add_argument("--class", dest="label", help="class label from the cache")
    target.add_argument(
        "--all-braces",
        action="store_true",
        help="braces + solutions for every regular record of the degree",
    )
    add_cache(pa)

    pv = sub.add_parser("verify-2pq", help="verify the order-2pq witness subgroups")
    pv.add_argument("--p", type=int, required=True)
    pv.add_argument("--q", type=int, required=True)

    pc = sub.add_parser("catalog", help="inspect the group catalog")
    csub = pc.add_subparsers(dest="catalog_command", required=True)
    pcl = csub.add_parser("list", help="list the group types of one order")
    pcl.add_argument("--order", type=int, required=True)

    return ap


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cache_dir = args.cache_dir if args.cache_dir is not None else _default_cache_dir()
    cfg = RunConfig(
        degrees=parse_degrees(args.degrees) if hasattr(args, "degrees") else [],
        cache_dir=cache_dir,
    )
    for name in ("fmt", "node_budget", "time_budget", "skip_ac", "skip_bc",
                 "list_classes", "emit_actions"):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    return cfg


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "enumerate":
            return cmd_enumerate(_config_from_args(args))
        if args.command == "diff":
            return cmd_diff(_config_from_args(args))
        if args.command == "actions":
            cfg = RunConfig(degrees=[args.degree], cache_dir=args.cache_dir or _default_cache_dir())
            return cmd_actions(cfg, args.degree, label=args.label, all_braces=args.all_braces)
        if args.command == "verify-2pq":
            return cmd_verify_2pq(args.p, args.q)
        if args.command == "catalog":
            return cmd_catalog_list(args.order)
    except (StructureError, UnsupportedOrderError, LookupError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable command dispatch")


if __name__ == "__main__":
    sys.exit(main())


__all__ = [
    "SCHEMA_VERSION",
    "CACHE_ENV",
    "RunConfig",
    "parse_degrees",
    "build_parser",
    "cmd_enumerate",
    "cmd_diff",
    "cmd_actions",
    "cmd_verify_2pq",
    "cmd_catalog_list",
    "main",
]
