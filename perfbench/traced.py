"""One traced repetition in a fresh interpreter.

Usage: python3 perfbench/traced.py SPEC.json RESULT.json

`census` mode mirrors `build_degree_census` through the engine's public
functions, in its order and with its budget rules, and records a span
around each call.  `export` mode replays the read-path commands: `enumerate`
and `diff` go through `hgcensus.cli.main`, and `actions` is rebuilt from
`parse_cycles`, `PermGroup`, `build_holomorph`, `bracoid_from_subgroup`,
`brace_from_regular` and `ybe_solution` the way the CLI calls them.  Spans
and their counters stay in memory and are written out at the end;
`run.py` checks the rows and bytes against the untraced repetitions.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from child import run_cli
from common import degree_file, dump_canonical, load_spec, option, sha256, write_result


class Tracer:
    """Nested wall-clock spans with counters, one list per process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        op = self.spans[parent]["op"] if parent is not None else sid
        rec = {"id": sid, "name": name, "parent": parent, "op": op, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def _integral(value: Fraction, what: str, degree: int) -> int:
    if value.denominator != 1:
        raise ArithmeticError(f"non-integral {what} {value} at degree {degree}")
    return int(value)


def _weighted(records, weights, flags) -> Fraction:
    return sum((w * r.class_size for r, w, f in zip(records, weights, flags) if f), Fraction(0))


def traced_degree(tr: Tracer, degree: int) -> dict:
    """Row of one degree, computed layer by layer under spans."""
    from hgcensus.catalog import automorphism_group, groups_of_order
    from hgcensus.classify import classify_degree
    from hgcensus.counts import (
        DegreeReportRow,
        bijective_correspondence,
        hgs_count_for_class,
        is_almost_classical,
    )
    from hgcensus.enumeration import (
        DEFAULT_NODE_BUDGET,
        DEFAULT_TIME_BUDGET,
        enumerate_transitive_classes,
    )
    from hgcensus.holomorph import build_holomorph
    from hgcensus.errors import BudgetError

    with tr.span("census.degree", degree=degree) as deg:
        with tr.span("catalog.groups"):
            groups = groups_of_order(degree)
        for g in groups:
            with tr.span("catalog.aut") as a:
                a["aut_elements"] = automorphism_group(g).order
        contexts = []
        for g in groups:
            with tr.span("holomorph.build") as a:
                ctx = build_holomorph(g)
                a["elements"] = ctx.hol.order
            contexts.append(ctx)

        blank = {cell: None for cell in DegreeReportRow.CELLS}
        row = dict(blank, degree=degree, types=len(groups), partial=True)
        records = []
        try:
            for ctx in contexts:
                with tr.span("table.build") as a:
                    try:
                        table = ctx.table()
                    except BudgetError:
                        a["refused"] = 1
                        raise
                    a["cells"] = table.order**2
                    a["bytes_computed"] = table.order**2 * table.mul.itemsize
                with tr.span("enumeration") as a:
                    recs = enumerate_transitive_classes(ctx, DEFAULT_NODE_BUDGET, DEFAULT_TIME_BUDGET)
                    a["records"] = len(recs)
                    a["class_size_sum"] = sum(r.class_size for r in recs)
                records.extend(recs)
        except BudgetError:
            deg["known"] = 0
            return {"row": row, "classes": []}

        with tr.span("classify") as a:
            classes = classify_degree(records)
            a["classes"] = len(classes)
        hgs = gal = 0
        with tr.span("counts.weights") as a:
            for cls in classes:
                hgs += hgs_count_for_class(cls)
                if cls.regular:
                    gal += hgs_count_for_class(cls, galois_only=True)
            a["aut_marked_sum"] = sum(cls.aut_marked_order for cls in classes)
        weight_of = {
            id(rec): Fraction(cls.aut_marked_order, rec.ctx.aut.order)
            for cls in classes
            for _, rec in cls.members
        }
        weights = [weight_of[id(rec)] for rec in records]
        with tr.span("counts.ac") as a:
            ac_flags = [is_almost_classical(rec) for rec in records]
            a["ac_records"] = len(records)
        with tr.span("counts.bc") as a:
            try:
                bc_flags = []
                fields_sum = hopf_sum = 0
                for rec in records:
                    ok, fields, hopfs = bijective_correspondence(rec)
                    bc_flags.append(ok)
                    fields_sum += fields
                    hopf_sum += hopfs
                bc_hgs = _integral(_weighted(records, weights, bc_flags), "correspondence count", degree)
                a.update(fields_sum=fields_sum, hopf_sum=hopf_sum)
            except BudgetError:
                a["budget_stops"] = 1
                bc_hgs = None
        cells = DegreeReportRow(
            degree=degree,
            types=len(groups),
            hgs_total=hgs,
            sbracoids_total=len(records),
            gal_hgs=gal,
            sbraces=sum(1 for rec in records if rec.regular),
            ac_hgs=_integral(_weighted(records, weights, ac_flags), "almost-classical count", degree),
            ac_sbracoids=sum(1 for f in ac_flags if f),
            bc_hgs=bc_hgs,
            partial=bc_hgs is None,
        )
        cells.validate()
        deg["known"] = 1
        row = {"degree": degree, "partial": cells.partial}
        row.update({cell: getattr(cells, cell) for cell in DegreeReportRow.CELLS})
        return {"row": row, "classes": [[cls.label, len(cls.members)] for cls in classes]}


class ActionsReplay:
    """`hgcensus actions` rebuilt from public functions, one per command."""

    def __init__(self, tr: Tracer, degree: int, out_dir: Path):
        self.tr = tr
        self.degree = degree
        self.out_dir = out_dir
        self.contexts: dict = {}
        self.written: dict[str, bytes] = {}

    def context(self, type_name: str):
        from hgcensus.catalog import automorphism_group, groups_of_order
        from hgcensus.holomorph import build_holomorph

        ctx = self.contexts.get(type_name)
        if ctx is None:
            with self.tr.span("catalog.groups"):
                group = next(g for g in groups_of_order(self.degree) if g.name == type_name)
            with self.tr.span("catalog.aut") as a:
                a["aut_elements"] = automorphism_group(group).order
            with self.tr.span("holomorph.build") as a:
                ctx = build_holomorph(group)
                a["elements"] = ctx.hol.order
            self.contexts[type_name] = ctx
        return ctx

    def subgroup(self, member: dict):
        from hgcensus.perm import PermGroup, parse_cycles

        ctx = self.context(member["type"])
        with self.tr.span("perm.rebuild"):
            gens = [parse_cycles(s, self.degree) for s in member["generators"]]
            group = PermGroup(gens, self.degree)
            group.elements  # the closure runs here, not inside the action functions
        return ctx, group

    def write(self, name: str, obj) -> None:
        with self.tr.span("cli.write") as a:
            data = dump_canonical(obj.to_json_dict()).encode()
            (self.out_dir / name).write_bytes(data)
            a["bytes"] = len(data)
        self.written[name] = data

    def member_braces(self, cls: dict) -> None:
        from hgcensus.actions import brace_from_regular, ybe_solution

        for member in cls["members"]:
            if not member["regular"]:
                continue
            ctx, group = self.subgroup(member)
            with self.tr.span("actions.brace") as a:
                brace = brace_from_regular(ctx, group)
                a["braces"] = 1
            self.write(f"{member['label']}-brace.json", brace)
            with self.tr.span("actions.ybe") as a:
                solution = ybe_solution(brace)
                a["ybe_triples"] = brace.order**3
            self.write(f"{member['label']}-ybe.json", solution)

    def run(self, payload: dict, label: str | None) -> None:
        from hgcensus.actions import bracoid_from_subgroup

        if label is None:
            for cls in payload["classes"]:
                self.member_braces(cls)
            return
        cls = next(c for c in payload["classes"] if c["label"] == label)
        ctx, group = self.subgroup(cls["members"][0])
        with self.tr.span("actions.bracoid") as a:
            bracoid = bracoid_from_subgroup(ctx, group)
            a["bracoids"] = 1
        self.write(f"{label}-bracoid.json", bracoid)
        self.member_braces(cls)


def traced_command(tr: Tracer, main, argv: list[str], out_dir: Path) -> dict:
    kind = {"enumerate": "cli.enumerate_hit", "diff": "cli.diff"}.get(argv[0])
    if kind is not None:
        with tr.span("read.command"):
            with tr.span(kind):
                rc, _, out, err = run_cli(main, argv)
        return {"argv": argv, "rc": rc, "out": out, "err": err[-4000:], "stable": True}
    degree = int(option(argv, "--degree"))
    label = option(argv, "--class") if "--class" in argv else None
    replay = ActionsReplay(tr, degree, out_dir)
    rc, err = 0, ""
    with tr.span("read.command"):
        try:
            with tr.span("cli.read"):
                payload = json.loads((Path(option(argv, "--cache-dir")) / degree_file(degree)).read_text())
            replay.run(payload, label)
        except Exception:
            rc, err = -1, traceback.format_exc()
    files = {name: sha256(data) for name, data in replay.written.items()}
    return {"argv": argv, "rc": rc, "out": "", "err": err[-4000:], "stable": True, "files": files}


def main() -> int:
    spec = load_spec(sys.argv[1])
    from hgcensus import cli
    from hgcensus.catalog import catalog_orders

    catalog_orders()  # the untraced set-up; spans start after it
    tr = Tracer()
    result: dict = {}
    if spec["census"]:
        result["degrees"] = {}
        for d in cli.parse_degrees(spec["census"]):
            try:
                result["degrees"][str(d)] = traced_degree(tr, d)
            except Exception:
                result["degrees"][str(d)] = {"error": traceback.format_exc()[-4000:]}
    out_dir = Path(spec["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    result["commands"] = [traced_command(tr, cli.main, argv, out_dir) for argv in spec["commands"]]
    result["spans"] = tr.spans
    write_result(sys.argv[2], result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
