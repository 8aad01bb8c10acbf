"""The census benchmark: one workload per call, closed loop, one client.

Usage:
  python3 perfbench/run.py --workload census-small --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 15

Each repetition is a fresh single-threaded interpreter (`child.py`), run one
at a time, so no process cache carries work from one repetition to the
next.  With `--trace 1` the untraced repetitions are followed by a traced
one (`traced.py`) whose spans give the per-layer metrics.  Every
repetition passes the correctness gate; the last stdout line is the
result as JSON, and any failed operation makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

from common import (
    PARTIAL_CELLS,
    READ_PASSES,
    READ_SECONDS,
    REFERENCE,
    ROOT,
    SRC,
    WORKLOADS,
    action_outputs,
    artifact_digest,
    census_argv,
    degree_file,
    option,
    read_commands,
    sha256,
)

HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench-out"
RUN_LIMIT_S = 170.0
EXTRA_READS = 2  # census workloads: interpreters that only sample the read path
WARM_BUILDS = 2  # export-warm: census_s is the median of this many cache builds
MIN_REPS = 2
MAX_REPS = 12
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

E2E_UNITS = {
    "setup_s": "s",
    "census_s": "s",
    "export_s": "s",
    "peak_rss_mb": "MB",
    "cells_known_frac": "frac",
    "ops_ok_frac": "frac",
}

# per-layer metric -> (span name, counter attribute or None for self time)
LAYER_SPANS = {
    "catalog.groups_s": ("catalog.groups", None),
    "catalog.aut_s": ("catalog.aut", None),
    "catalog.aut_elements": ("catalog.aut", "aut_elements"),
    "holomorph.build_s": ("holomorph.build", None),
    "holomorph.elements": ("holomorph.build", "elements"),
    "table.build_s": ("table.build", None),
    "table.cells": ("table.build", "cells"),
    "table.bytes_computed": ("table.build", "bytes_computed"),
    "table.refused": ("table.build", "refused"),
    "enumeration.s": ("enumeration", None),
    "enumeration.records": ("enumeration", "records"),
    "enumeration.class_size_sum": ("enumeration", "class_size_sum"),
    "classify.s": ("classify", None),
    "classify.classes": ("classify", "classes"),
    "counts.weights_s": ("counts.weights", None),
    "counts.aut_marked_sum": ("counts.weights", "aut_marked_sum"),
    "counts.ac_s": ("counts.ac", None),
    "counts.ac_records": ("counts.ac", "ac_records"),
    "counts.bc_s": ("counts.bc", None),
    "counts.bc_fields_sum": ("counts.bc", "fields_sum"),
    "counts.bc_hopf_sum": ("counts.bc", "hopf_sum"),
    "counts.bc_budget_stops": ("counts.bc", "budget_stops"),
    "perm.rebuild_s": ("perm.rebuild", None),
    "actions.bracoid_s": ("actions.bracoid", None),
    "actions.bracoids": ("actions.bracoid", "bracoids"),
    "actions.brace_s": ("actions.brace", None),
    "actions.braces": ("actions.brace", "braces"),
    "actions.ybe_s": ("actions.ybe", None),
    "actions.ybe_triples": ("actions.ybe", "ybe_triples"),
    "cli.write_s": ("cli.write", None),
    "cli.write_bytes": ("cli.write", "bytes"),
    "cli.enumerate_hit_s": ("cli.enumerate_hit", None),
    "cli.diff_s": ("cli.diff", None),
}
DERIVED_UNITS = {"holomorph.useful_frac": "frac", "trace.overhead_s": "s"}


def layer_unit(name: str) -> str:
    if name in DERIVED_UNITS:
        return DERIVED_UNITS[name]
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "bytes" if name.endswith("bytes") or name.endswith("bytes_computed") else "count"


class ChildFailed(RuntimeError):
    pass


class Gate:
    """Counts operations and failures; every failure keeps its reason."""

    def __init__(self, reference: dict):
        from hgcensus.expected import expected_row, is_disputed

        self.expected_row = expected_row
        self.is_disputed = is_disputed
        self.reference = reference
        self.first_bytes: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.known = 0
        self.requested = 0

    def op(self, what: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"{what}: {e}" for e in errors)

    def same_bytes(self, name: str, digest: str) -> list[str]:
        """Digest must match the first repetition's bytes for this file."""
        first = self.first_bytes.setdefault(name, digest)
        return [] if first == digest else [f"{name} differs from the first repetition"]

    def row_errors(self, degree: int, row: dict) -> list[str]:
        exp = self.expected_row(degree)
        keep = PARTIAL_CELLS.get(degree)
        errors = []
        for cell in exp.CELLS:
            got, want = row.get(cell), getattr(exp, cell)
            if keep is not None and cell not in keep:
                if got is not None:
                    errors.append(f"{cell}={got} should be unknown")
            elif keep is not None and got is None:
                errors.append(f"{cell} should be known")
            elif got is not None and got != want and not self.is_disputed(degree, cell):
                errors.append(f"{cell}={got}, expected {want}")
        if keep is not None and not row.get("partial"):
            errors.append("row should be partial")
        return errors

    def count_cells(self, row: dict) -> None:
        cells = self.expected_row(row["degree"]).CELLS
        self.requested += len(cells)
        self.known += sum(1 for c in cells if row.get(c) is not None)

    def artifact(self, cache: Path, degree: int) -> tuple[list[str], dict | None]:
        """Errors in one degree artifact, and its payload when readable."""
        path = cache / degree_file(degree)
        if not path.is_file():
            return [f"missing {path.name}"], None
        payload = json.loads(path.read_text())
        errors = self.row_errors(degree, payload["row"])
        if artifact_digest(path) != self.reference["artifacts"].get(path.name):
            errors.append(f"{path.name} differs from the reference bytes")
        errors += self.same_bytes(path.name, sha256(path.read_bytes()))
        return errors, payload

    def command_errors(self, cmd: dict, payloads: dict[int, dict]) -> list[str]:
        argv = cmd["argv"]
        errors = [] if cmd["rc"] == 0 else [f"exit code {cmd['rc']}: {cmd['err'].strip()[-300:]}"]
        if not cmd["stable"]:
            errors.append("a later pass gave another exit code or output")
        if errors:
            return errors
        if argv[0] == "enumerate":
            degree = int(option(argv, "--degrees"))
            if "cache hit" not in cmd["err"]:
                errors.append("not served from the cache")
            rows = json.loads(cmd["out"])
            if rows != [payloads[degree]["row"]]:
                errors.append("printed row differs from the artifact")
            errors += self.row_errors(degree, rows[0])
        elif argv[0] == "diff":
            if ", 0 mismatched," not in cmd["out"]:
                errors.append("diff reports a mismatch")
        else:
            payload = payloads[int(option(argv, "--degree"))]
            want = set(action_outputs(argv, payload))
            got = cmd["files"]
            for name in sorted(want - set(got)):
                errors.append(f"missing {name}")
            for name in sorted(set(got) - want):
                errors.append(f"unexpected {name}")
            for name in sorted(want & set(got)):
                if got[name] != self.reference["actions"].get(name):
                    errors.append(f"{name} differs from the reference bytes")
                errors += self.same_bytes("actions/" + name, got[name])
        return errors


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool, work: Path):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        work.mkdir(parents=True)
        self.started = time.perf_counter()
        self.gate = Gate(json.loads(REFERENCE.read_text()))
        self.samples: dict[str, list[float]] = {k: [] for k in ("setup_s", "census_s", "export_s")}
        self.rss = []
        self.spans: list[dict] = []
        self.traced_total = 0.0
        self.payloads: dict[int, dict] = {}

    # -- processes -------------------------------------------------------------

    def env(self) -> dict:
        env = dict(os.environ)
        env.pop("HGCENSUS_CACHE_DIR", None)
        env["PYTHONPATH"] = str(SRC)
        for var in THREAD_VARS:
            env[var] = "1"
        return env

    def spawn(self, script: str, spec: dict, tag: str) -> dict:
        spec_path = self.work / f"{tag}.spec.json"
        out_path = self.work / f"{tag}.result.json"
        budget = max(5.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        cmd = [sys.executable, str(HERE / script), str(spec_path), str(out_path)]
        spec["t0"] = time.perf_counter()
        spec_path.write_text(json.dumps(spec))
        try:
            proc = subprocess.run(
                cmd, env=self.env(), cwd=ROOT, capture_output=True, text=True, timeout=budget
            )
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{tag}: no result within {budget:.0f} s") from None
        if proc.returncode != 0 or not out_path.is_file():
            raise ChildFailed(f"{tag}: exit code {proc.returncode}: {proc.stderr.strip()[-1500:]}")
        return json.loads(out_path.read_text())

    # -- repetitions -----------------------------------------------------------

    def census_rep(self, i: int) -> None:
        """Census into an empty cache, then repeated passes of hits + diff."""
        rng = random.Random(self.seed * 1000 + i)
        degrees = self.spec["census"]
        cache = self.work / f"cache-{i}"
        spec = {
            "census": census_argv(degrees, cache, rng),
            "commands": read_commands(degrees, None, cache, rng),
            "passes": READ_PASSES,
            "min_seconds": READ_SECONDS,
        }
        try:
            res = self.spawn("child.py", spec, f"rep-{i}")
        except ChildFailed as exc:
            for d in degrees:
                self.gate.op(f"rep {i} degree {d}", [str(exc)])
            raise
        self.samples["setup_s"].append(res["setup_s"])
        self.samples["census_s"].append(res["census_s"])
        self.samples["export_s"].append(statistics.median(res["pass_s"]))
        self.rss.append(res["peak_rss_mb"])
        self.check_census(f"rep {i}", res, cache, degrees)
        self.last_cache = cache

    def read_rep(self, k: int) -> None:
        """Set-up, then the read path on the last repetition's cache."""
        rng = random.Random(self.seed * 1000 + 500 + k)
        degrees = self.spec["census"]
        spec = {
            "commands": read_commands(degrees, None, self.last_cache, rng),
            "passes": READ_PASSES,
            "min_seconds": READ_SECONDS,
        }
        try:
            res = self.spawn("child.py", spec, f"read-{k}")
        except ChildFailed as exc:
            for d in degrees:
                self.gate.op(f"read {k} degree {d}", [str(exc)])
            raise
        self.samples["setup_s"].append(res["setup_s"])
        self.samples["export_s"].append(statistics.median(res["pass_s"]))
        errors: dict[int, list[str]] = {d: [] for d in degrees}
        self.check_reads(res["commands"], self.payloads, errors)
        for d in degrees:
            self.gate.op(f"read {k} degree {d}", errors[d])

    def check_census(self, what: str, res: dict, cache: Path, degrees: list[int]) -> None:
        errors: dict[int, list[str]] = {d: [] for d in degrees}
        if res["census_rc"] != 0:
            for d in degrees:
                errors[d].append(f"census exit code {res['census_rc']}: {res['census_log'][-300:]}")
        payloads = {}
        for d in degrees:
            artifact_errors, payload = self.gate.artifact(cache, d)
            errors[d] += artifact_errors
            if payload is not None:
                payloads[d] = payload
                self.gate.count_cells(payload["row"])
        self.payloads.update(payloads)
        self.check_reads(res["commands"], payloads, errors)
        for d in degrees:
            self.gate.op(f"{what} degree {d}", errors[d])

    def check_reads(self, commands: list[dict], payloads: dict, errors: dict) -> None:
        """Gate the read-path commands of a census workload, per degree."""
        for cmd in commands:
            d = int(option(cmd["argv"], "--degrees"))
            if d in payloads:
                errors[d] += self.gate.command_errors(cmd, payloads)
            else:
                errors[d].append(f"{cmd['argv'][0]} ran without an artifact")

    def build_warm_cache(self, k: int) -> Path:
        """Census of the workload's degrees into a cache the export can read."""
        degrees = self.spec["census"]
        cache = self.work / f"warm-{k}"
        rng = random.Random(self.seed * 1000 + 700 + k)
        spec = {"census": census_argv(degrees, cache, rng), "passes": 0}
        res = self.spawn("child.py", spec, f"warm-{k}")
        self.samples["setup_s"].append(res["setup_s"])
        self.samples["census_s"].append(res["census_s"])
        errors = [] if res["census_rc"] == 0 else [f"exit code {res['census_rc']}"]
        for d in degrees:
            artifact_errors, payload = self.gate.artifact(cache, d)
            errors += artifact_errors
            if payload is not None:
                self.payloads[d] = payload
                self.gate.count_cells(payload["row"])
        self.gate.op(f"warm-cache census {k}", errors)
        if errors:
            raise ChildFailed("the warm cache could not be built")
        return cache

    def export_rep(self, i: int, cache: Path) -> None:
        """Every read-path command once, on the warm cache."""
        shutil.rmtree(cache / "actions", ignore_errors=True)
        rng = random.Random(self.seed * 1000 + i)
        commands = read_commands(self.spec["census"], self.payloads, cache, rng)
        try:
            res = self.spawn("child.py", {"commands": commands, "passes": 1}, f"rep-{i}")
        except ChildFailed as exc:
            for argv in commands:
                self.gate.op(f"rep {i} {' '.join(argv[:4])}", [str(exc)])
            raise
        self.samples["setup_s"].append(res["setup_s"])
        self.samples["export_s"].append(res["pass_s"][0])
        self.rss.append(res["peak_rss_mb"])
        for cmd in res["commands"]:
            self.gate.op(f"rep {i} {' '.join(cmd['argv'][:5])}", self.gate.command_errors(cmd, self.payloads))

    # -- traced repetition -------------------------------------------------------

    def traced(self, census: bool, commands: list[list[str]], tag: str) -> None:
        degrees = list(self.spec["census"]) if census else []
        random.Random(self.seed * 1000 + 999).shuffle(degrees)
        spec = {
            "census": ",".join(str(d) for d in degrees),
            "commands": commands,
            "out_dir": str(self.work / f"{tag}-actions"),
        }
        res = self.spawn("traced.py", spec, tag)
        offset = len(self.spans)
        for s in res["spans"]:
            s["id"] += offset
            s["op"] += offset
            if s["parent"] is not None:
                s["parent"] += offset
            s["tag"] = tag
        self.spans += res["spans"]
        self.traced_total += sum(
            s["end"] - s["start"] for s in res["spans"] if s["parent"] is None
        )
        for d, got in res.get("degrees", {}).items():
            d = int(d)
            errors = [got["error"]] if "error" in got else []
            if not errors and got["row"] != self.payloads[d]["row"]:
                errors.append(f"traced row {got['row']} differs from the untraced row")
            untraced = [[c["label"], len(c["members"])] for c in self.payloads[d]["classes"]]
            if not errors and got["classes"] != untraced:
                errors.append("traced classes differ from the untraced artifact")
            self.gate.op(f"traced degree {d}", errors)
        for cmd in res["commands"]:
            self.gate.op(f"traced {' '.join(cmd['argv'][:5])}", self.gate.command_errors(cmd, self.payloads))

    # -- repetition loop --------------------------------------------------------

    def reps(self, one) -> None:
        """Closed loop: the next repetition starts when the last has ended."""
        start = time.perf_counter()
        n = 0
        while n < MAX_REPS:
            one(n)
            n += 1
            spent = time.perf_counter() - start
            if n >= MIN_REPS and spent + spent / n > self.seconds:
                break

    def run(self) -> None:
        if self.spec["export"] == "light":
            self.reps(self.census_rep)
            # the read path is short, so more interpreters sample it
            for k in range(EXTRA_READS):
                self.read_rep(k)
            if self.trace:
                rng = random.Random(self.seed * 1000 + 998)
                commands = read_commands(self.spec["census"], None, self.last_cache, rng)
                self.traced(True, commands, "traced")
        else:
            for k in range(WARM_BUILDS):
                cache = self.build_warm_cache(k)
            self.reps(lambda i: self.export_rep(i, cache))
            if self.trace:
                self.traced(True, [], "traced-census")
                rng = random.Random(self.seed * 1000 + 998)
                commands = read_commands(self.spec["census"], self.payloads, cache, rng)
                self.traced(False, commands, "traced-export")

    # -- metrics -----------------------------------------------------------------

    def end_to_end(self) -> dict:
        g = self.gate
        values = {
            "setup_s": _median(self.samples["setup_s"]),
            "census_s": _median(self.samples["census_s"]),
            "export_s": _median(self.samples["export_s"]),
            "peak_rss_mb": _median(self.rss),
            "cells_known_frac": g.known / g.requested if g.requested else None,
            "ops_ok_frac": 1.0 - g.failed / g.attempted if g.attempted else None,
        }
        return _with_units(values, E2E_UNITS.get)

    def per_layer(self) -> dict:
        by_id = {s["id"]: s for s in self.spans}
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        values: dict[str, float] = {}
        for metric, (span_name, attr) in LAYER_SPANS.items():
            total = 0.0 if attr is None else 0
            for s in self.spans:
                if s["name"] != span_name:
                    continue
                if attr is None:
                    total += s["end"] - s["start"] - child_time.get(s["id"], 0.0)
                else:
                    total += s["attrs"].get(attr, 0)
            values[metric] = total
        useful = built = 0
        for s in self.spans:
            if s["name"] == "holomorph.build":
                elements = s["attrs"].get("elements", 0)
                built += elements
                if by_id[s["op"]]["attrs"].get("known", 1):
                    useful += elements
        values["holomorph.useful_frac"] = useful / built if built else 0.0
        untraced = (_median(self.samples["census_s"]) or 0.0) + (_median(self.samples["export_s"]) or 0.0)
        values["trace.overhead_s"] = self.traced_total - untraced
        return _with_units(values, layer_unit)


def _median(samples: list[float]) -> float | None:
    return statistics.median(samples) if samples else None


def _with_units(values: dict, unit) -> dict:
    """Metrics as {"value", "unit"}; a metric without a sample is left out."""
    return {k: {"value": v, "unit": unit(k)} for k, v in values.items() if v is not None}


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = "missing"
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": cpu,
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool, work: Path) -> Bench:
    bench = Bench(name, seed, seconds, trace, work)
    try:
        bench.run()
    except ChildFailed as exc:
        bench.gate.errors.append(str(exc))
        bench.gate.failed = max(bench.gate.failed, 1)
        bench.gate.attempted = max(bench.gate.attempted, 1)
    return bench


def report(bench: Bench, trace: bool, env: dict) -> dict:
    g = bench.gate
    metrics = bench.per_layer() if trace else bench.end_to_end()
    record = {
        "workload": bench.name,
        "seed": bench.seed,
        "trace": int(trace),
        "env": env,
        "samples": bench.samples,
        "metrics": metrics,
        "errors": g.errors,
    }
    if trace:
        record["spans"] = bench.spans
    (OUT / f"{bench.name}-seed{bench.seed}-trace{int(trace)}.json").write_text(json.dumps(record))
    for err in g.errors[:20]:
        print(f"FAIL {err}", file=sys.stderr)
    for key, m in metrics.items():
        print(f"{bench.name} {key} {m['value']} {m['unit']}")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "hgcensus" / "__init__.py").is_file():
        print(f"error: the engine sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the gate reads the engine's reference table

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            trace = args.trace == 1 or len(names) > 1
            bench = run_workload(name, args.seed, args.seconds, trace, work / name)
            if len(names) == 1:
                result["metrics"] = report(bench, args.trace == 1, env)
            else:
                for trace in (False, True):
                    for key, m in report(bench, trace, env).items():
                        result["metrics"][f"{name}/{key}"] = m
            result["attempted"] += bench.gate.attempted
            result["failed"] += bench.gate.failed
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
