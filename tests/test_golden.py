"""Golden ``--json`` reports: the CLI output on a fixed corpus, byte for byte.

Each file in ``tests/golden`` holds the exact standard output of one
``cli.run`` call listed in ``CASES``.  A change that alters any byte of any
report fails here.  To record the reports of the current code (only when a
report is meant to change), run ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

from gainbalance.cli import run
from gainbalance.graphcore import grid_faces

GOLDEN = Path(__file__).parent / "golden"

# Grid(3,3) gain files.  Each plants non-identity gains on forest edges, so
# the switching and the certificate's original gain both matter: one Z3
# edge, two Z2xZ3 edges, and two free-group words on the same face, whose
# certificate gain depends on the order of the product.
GAIN_FILES = {
    "gains": "group Z 3\ngain h1_1 1\n",
    "product_gains": "group Z 2 x Z 3\ngain h1_1 1 2\ngain v1_1 0 1\n",
    "free_gains": "group free a b\ngain h0_0 a -b\ngain h1_0 b\n",
}
GRID_BASIS = "".join(" ".join(sorted(face)) + "\n" for face in grid_faces(3, 3))

CLASSIFY_HOSTS = ("W4", "2C4", "K4dd", "C3(3,3,2)", "K4(2,1)", "Fan(1;1,1)")


def _cases() -> list[list[str]]:
    cases = []
    for gains in GAIN_FILES:
        cases += [
            ["balance", "Grid(3,3)", f"{{{gains}}}", "--json"],
            ["circle-test", "Grid(3,3)", f"{{{gains}}}", "{basis}", "--json"],
            ["cycle-test", "Grid(3,3)", f"{{{gains}}}", "{basis}", "--json"],
        ]
    for host in CLASSIFY_HOSTS:
        for group_class in ("contains-z3", "groups:Z5"):
            for test in ("circle", "cycle"):
                cases.append(["classify", host, "--class", group_class, "--test", test, "--json"])
    cases += [
        ["minor", "W6", "--target", "W4", "--json"],
        ["oracle", "2C4", "--group", "Z3", "--json"],
        ["oracle", "2C4", "--group", "Z2xZ3", "--json"],
        ["witness", "--family", "W6", "--json"],
        ["atlas", "--max-edges", "5", "--group", "Z3", "--json"],
    ]
    return cases


CASES = _cases()


def case_name(argv: list[str]) -> str:
    words = [w.strip("{}") for w in argv if w not in ("{gains}", "{basis}") and not w.startswith("--")]
    return re.sub(r"[^A-Za-z0-9]+", "_", "-".join(words)).strip("_")


def report(argv: list[str], directory: Path) -> str:
    """Standard output of ``cli.run`` on ``argv``, with the Grid(3,3) gain
    and basis files written to ``directory``."""
    files = {"basis": directory / "grid.basis"}
    files["basis"].write_text(GRID_BASIS)
    for name, text in GAIN_FILES.items():
        files[name] = directory / f"grid.{name}"
        files[name].write_text(text)
    args = [a.format(**files) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(args)
    assert code == 0, f"{args} exited with {code}"
    return out.getvalue()


@pytest.mark.parametrize("argv", CASES, ids=case_name)
def test_json_report_matches_golden(argv, tmp_path):
    expected = (GOLDEN / f"{case_name(argv)}.json").read_bytes()
    assert report(argv, tmp_path).encode() == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for argv in CASES:
            (GOLDEN / f"{case_name(argv)}.json").write_bytes(report(argv, Path(tmp)).encode())
