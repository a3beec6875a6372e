"""Regenerate the golden outputs in perfbench/golden/ from the cpgroups CLI.

Run from the repository root:  python3 perfbench/make_golden.py

Each CLI golden is the exact stdout of one command; manifest.json records
the argv and exit code of each.  symmetric:7 cannot go through
``cpgroups analyze`` (it exits 3 at the distance-matrix cap), so its facts
and the ``is_simple`` flags of the large groups come from the library.
Goldens are written once, at the commit the benchmark is defined on, and
every later commit is checked against them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "perfbench" / "golden"

CLI_GOLDENS = {
    "classify-200.records": ["classify", "--max-order", "200", "--format", "records"],
    "verify-subgroup-closure.txt": ["verify", "subgroup-closure"],
    "verify-problem1.txt": ["verify", "problem1"],
    "analyze-psl2-17.records": ["analyze", "psl2:17", "--format", "records"],
    "analyze-alternating-7.records": ["analyze", "alternating:7", "--format", "records"],
}


def _cli(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "cpgroups.cli", *argv],
        cwd=ROOT, env=env, capture_output=True, check=False,
    )


def large_group_facts() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import symmetric7_facts

    import cpgroups as cg

    facts = {"is_simple": {}}
    for spec in ("psl2:17", "alternating:7"):
        facts["is_simple"][spec] = cg.group_from_spec(spec).is_simple()
    facts["symmetric:7"] = symmetric7_facts(cg.symmetric(7))
    facts["is_simple"]["symmetric:7"] = facts["symmetric:7"]["is_simple"]
    return facts


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for filename, argv in CLI_GOLDENS.items():
        proc = _cli(argv)
        if proc.returncode not in (0, 1):
            sys.stderr.write(proc.stderr.decode())
            return 1
        (GOLDEN / filename).write_bytes(proc.stdout)
        manifest[filename] = {"argv": ["cpgroups", *argv], "exit": proc.returncode}
        print(f"{filename}: {len(proc.stdout)} bytes, exit {proc.returncode}")
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    facts = large_group_facts()
    (GOLDEN / "large-groups.json").write_text(json.dumps(facts, indent=2) + "\n")
    print("large-groups.json:", json.dumps(facts["is_simple"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
