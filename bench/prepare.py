"""Set-up of a workload: import measure_lab and write the documents the
workload reads.

Run as a script, it times one set-up in a fresh interpreter and prints the
seconds, which is how ``run.py`` samples ``setup_s``:

    python3 bench/prepare.py <workload> <directory>
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Two-letter full shifts {0, 1} over Pisot bases; their limit coefficients
# have the closed form of oracles.cosine_product.
SHIFT_BASES = {
    "goldshift": [-1, -1, 1],
    "tribshift": [-1, -1, -1, 1],
    "plasticshift": [-1, -1, 0, 1],
}

# Per workload: whether it reads the bundled fixture documents from set-up
# (the fixtures workload has its own `examples --dir` operation write
# them), and which full-shift documents it reads.
INPUTS = {
    "fixtures": (False, ()),
    "deep": (True, ("goldshift",)),
    "high-degree": (False, ("tribshift", "plasticshift")),
}


def import_package():
    """Import the package from this checkout's sources, never from an
    installed copy."""
    if not (SRC / "measure_lab" / "__init__.py").is_file():
        raise SystemExit(f"measure_lab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import measure_lab.cli

    return measure_lab.cli


def full_shift(minpoly) -> dict:
    return {
        "beta": {"minpoly": list(minpoly)},
        "alphabet": [0, 1],
        "states": ["s"],
        "edges": [{"from": "s", "to": "s", "label": a} for a in (0, 1)],
        "initial": ["s"],
        "terminal": ["s"],
    }


def write_inputs(workload: str, directory: Path) -> None:
    from measure_lab.fixtures import materialize

    fixtures, shifts = INPUTS[workload]
    directory.mkdir(parents=True, exist_ok=True)
    if fixtures:
        materialize(directory)
    for name in shifts:
        (directory / f"{name}.json").write_text(json.dumps(full_shift(SHIFT_BASES[name]), indent=2) + "\n")


def main(argv: list[str]) -> int:
    workload, directory = argv
    start = time.perf_counter()
    import_package()
    write_inputs(workload, Path(directory))
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
