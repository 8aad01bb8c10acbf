"""One untraced repetition in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC.json RESULT.json

Times set-up (interpreter start, `import hgcensus`, first catalog load),
then the census command and the read-path commands, each through the
in-process `hgcensus.cli.main`.  Checking is left to `run.py`; this
process only records exit codes, output and the digests of the files each
command reports writing, outside the timed regions.
"""

from __future__ import annotations

import io
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from common import load_spec, sha256, write_result


def run_cli(main, argv: list[str]) -> tuple[int, float, str, str]:
    """(exit code, seconds, stdout, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc = -1
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    return rc, elapsed, out.getvalue(), err.getvalue()


def written_files(stdout: str) -> dict[str, str]:
    """Digest of every file an `actions` command lists on stdout."""
    files = {}
    for line in stdout.splitlines():
        path = Path(line.strip())
        files[path.name] = sha256(path.read_bytes()) if path.is_file() else ""
    return files


def main() -> int:
    spec = load_spec(sys.argv[1])
    from hgcensus import cli
    from hgcensus.catalog import catalog_orders

    catalog_orders()
    result: dict = {"setup_s": time.perf_counter() - spec["t0"]}

    if spec.get("census"):
        rc, elapsed, _, err = run_cli(cli.main, spec["census"])
        result.update(census_s=elapsed, census_rc=rc, census_log=err[-4000:])

    commands = []
    pass_s: list[float] = []
    p = 0
    while p < spec.get("passes", 0) or sum(pass_s) < spec.get("min_seconds", 0.0):
        total = 0.0
        for i, argv in enumerate(spec["commands"]):
            rc, elapsed, out, err = run_cli(cli.main, argv)
            total += elapsed
            if p == 0:
                entry = {"argv": argv, "rc": rc, "out": out, "err": err[-4000:], "stable": True}
                if argv[0] == "actions":
                    entry["files"] = written_files(out)
                commands.append(entry)
            elif rc != commands[i]["rc"] or out != commands[i]["out"]:
                commands[i]["stable"] = False
        pass_s.append(total)
        p += 1
    result.update(commands=commands, pass_s=pass_s)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    write_result(sys.argv[2], result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
