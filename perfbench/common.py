"""Workload definitions and helpers shared by the benchmark's processes.

`run.py` drives the benchmark; `child.py` runs one untraced repetition and
`traced.py` one traced repetition, each in a fresh interpreter.  All three
import this module, so nothing here imports the engine.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# The engine's cache-satisfaction key; masked before pinning artifact bytes
# so that the reference survives a change of how the engine names itself.
_ENGINE_VERSION_LINE = re.compile(rb'^  "engine_version": .*$', re.MULTILINE)

# Degrees whose rows stop on a budget by design: the cells that stay known.
PARTIAL_CELLS = {16: ("types",)}

# A census repetition replays its read path for at least this many passes
# and this many seconds, and keeps the median pass.
READ_PASSES = 5
READ_SECONDS = 0.5

WORKLOADS = {
    # degrees 2-16 in one enumerate command, then enumerate hits + diff
    "census-small": {"census": list(range(2, 17)), "export": "light"},
    # degrees 41 and 77 in one enumerate command, then enumerate hits + diff
    "census-large": {"census": [41, 77], "export": "light"},
    # census of 2-15 into a warm cache, then every export command on it
    "export-warm": {"census": list(range(2, 16)), "export": "full"},
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_digest(path: Path) -> str:
    """Digest of a degree artifact with its engine_version line masked."""
    return sha256(_ENGINE_VERSION_LINE.sub(b"", path.read_bytes()))


def dump_canonical(payload: dict) -> str:
    """The CLI's artifact encoding: sorted keys, indent 2, final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def degree_file(degree: int) -> str:
    return f"degree-{degree:03d}.json"


def census_argv(degrees: list[int], cache_dir: Path, rng: random.Random) -> list[str]:
    order = list(degrees)
    rng.shuffle(order)
    spec = ",".join(str(d) for d in order)
    return ["enumerate", "--degrees", spec, "--format", "csv", "--cache-dir", str(cache_dir)]


def read_commands(
    degrees: list[int],
    payloads: dict[int, dict] | None,
    cache_dir: Path,
    rng: random.Random,
) -> list[list[str]]:
    """The read path over a warm cache, in a seeded order.

    Always: one `enumerate` (a cache hit) and one `diff` per degree.  With
    `payloads` given, also `actions --class` for every class and
    `actions --all-braces` for every degree.
    """
    cache = ["--cache-dir", str(cache_dir)]
    cmds = []
    for d in degrees:
        cmds.append(["enumerate", "--degrees", str(d), "--format", "json"] + cache)
        cmds.append(["diff", "--degrees", str(d)] + cache)
        if payloads is not None:
            for cls in payloads[d]["classes"]:
                cmds.append(["actions", "--degree", str(d), "--class", cls["label"]] + cache)
            cmds.append(["actions", "--degree", str(d), "--all-braces"] + cache)
    rng.shuffle(cmds)
    return cmds


def _regular_outputs(cls: dict) -> list[str]:
    out = []
    for m in cls["members"]:
        if m["regular"]:
            out += [f"{m['label']}-brace.json", f"{m['label']}-ybe.json"]
    return out


def action_outputs(argv: list[str], payload: dict) -> list[str]:
    """File names an `actions` command must write, from the degree artifact."""
    if "--all-braces" in argv:
        return [name for cls in payload["classes"] for name in _regular_outputs(cls)]
    label = argv[argv.index("--class") + 1]
    cls = next(c for c in payload["classes"] if c["label"] == label)
    return [f"{label}-bracoid.json"] + _regular_outputs(cls)


def option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def load_spec(path: str) -> dict:
    return json.loads(Path(path).read_text())


def write_result(path: str, result: dict) -> None:
    Path(path).write_text(json.dumps(result))
