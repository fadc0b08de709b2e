"""Byte comparison of the output files of two source trees.

    python scripts/report_delta.py OLD_SRC NEW_SRC [--samples N]

OLD_SRC and NEW_SRC are directories that hold an ``adcap`` package (a
checkout's ``src``).  For each configuration in CONFIGS, each tree's
``adc run`` runs in its own process (``python -m adcap.cli`` with that tree
on ``PYTHONPATH``) on that tree's bundled feeder and scenario, with
``--seed 0 --dump-trace --samples N`` (default 200), into a temporary
folder.  Every file the two runs write is compared byte for byte;
``report.md`` is compared without its ``- wall clock:`` lines, which change
from run to run.

Printed: one line per configuration, then each file that differs or that
only one tree wrote.  Exit status 0 when every file matches, 2 when any
differs; the last line names each differing file.  A run that fails ends
the script with its error.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = (
    ("--method", "all", "--sparse-terms", "31", "--workers", "1"),
    ("--method", "all", "--sparse-terms", "31", "--workers", "2"),
    ("--method", "all", "--sparse-terms", "auto", "--workers", "1"),
    ("--method", "all", "--sparse-terms", "auto", "--workers", "2"),
    ("--method", "spce", "--sparse-terms", "31"),
    ("--method", "pce"),
)
WALL_CLOCK = b"- wall clock:"


def _compared_bytes(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name == "report.md":
        lines = data.splitlines(keepends=True)
        data = b"".join(line for line in lines if not line.startswith(WALL_CLOCK))
    return data


def differing_files(old_dir, new_dir) -> list:
    """Sorted names of the files that differ between two output folders,
    or that only one of them holds."""
    old, new = Path(old_dir), Path(new_dir)
    names = {p.name for p in old.iterdir()} | {p.name for p in new.iterdir()}
    return sorted(
        name for name in names
        if not ((old / name).is_file() and (new / name).is_file()
                and _compared_bytes(old / name) == _compared_bytes(new / name))
    )


def run_tree(src: str, flags, samples: int, out: Path):
    """``adc run`` of the tree at ``src`` with ``flags`` on its bundled data."""
    data = Path(src) / "adcap" / "data"
    subprocess.run(
        [sys.executable, "-m", "adcap.cli", "run",
         "--feeder", str(data / "ieee13_mod.json"),
         "--scenario", str(data / "scenario_ieee13.json"),
         "--seed", "0", "--dump-trace", "--samples", str(samples), "--out", str(out),
         *flags],
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
        check=True, stdout=subprocess.DEVNULL,
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--samples", type=int, default=200,
                    help="Monte Carlo and surrogate samples per run (default 200)")
    args = ap.parse_args(argv)

    breaches = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, flags in enumerate(CONFIGS):
            old, new = Path(tmp, f"{k}-old"), Path(tmp, f"{k}-new")
            run_tree(args.old_src, flags, args.samples, old)
            run_tree(args.new_src, flags, args.samples, new)
            bad = differing_files(old, new)
            config = " ".join(flags)
            print(f"{config}: {len(bad)} of {len(list(new.iterdir()))} files differ")
            for name in bad:
                print(f"  {name}")
            breaches += [f"{config}: {name}" for name in bad]
    if breaches:
        print("FAIL: " + "; ".join(breaches))
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
