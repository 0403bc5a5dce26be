"""Print a digest of every CLI command's artifacts, to show two checkouts write the same bytes.

Runs ``cnot.cli.run`` for each command below on each shipped scenario, each
into its own directory under one temporary directory:

    solve
    verify  --checks eq,purity,ma,dc,deriv
    welfare
    jko     --tau 0.1 --steps 20 --init two_bumps
    sweep   --param kernel.kappa --values 0.5,1,2,4

One line per run: the command, the scenario, the exit code and a sha256
prefix over the sorted relative paths and bytes of the run's output
directory.  The last line digests all of them.  A command that raises
instead of returning an exit code makes the tool fail.  ``uniform`` has no
kernel, so its sweep exits 1.

    python3 tools/cli_digest.py            # from the checkout to check

Run it in two checkouts and compare the last lines; ``diff`` the full
outputs to find the first run that differs.  It takes about a second.
"""
from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from cnot.cli import run  # noqa: E402

SCENARIOS = ROOT / "scenarios"
COMMANDS = (
    ("solve", []),
    ("verify", ["--checks", "eq,purity,ma,dc,deriv"]),
    ("welfare", []),
    ("jko", ["--tau", "0.1", "--steps", "20", "--init", "two_bumps"]),
    ("sweep", ["--param", "kernel.kappa", "--values", "0.5,1,2,4"]),
)


def directory_digest(out: Path) -> str:
    """sha256 over each file's relative path, byte length and bytes, in
    sorted path order."""
    digest = hashlib.sha256()
    files = sorted((p.relative_to(out).as_posix(), p) for p in out.rglob("*") if p.is_file())
    for rel, path in files:
        data = path.read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def main() -> int:
    overall = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in sorted(SCENARIOS.glob("*.json")):
            for command, args in COMMANDS:
                out = Path(tmp) / f"{scenario.stem}-{command}"
                code = run(command, ["--scenario", str(scenario), "--out", str(out), *args])
                line = f"{scenario.stem} {command} exit={code} {directory_digest(out)[:16]}"
                print(line, flush=True)
                overall.update((line + "\n").encode())
    print(f"overall {overall.hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
