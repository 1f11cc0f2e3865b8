"""One row per checked command line of ``python -m geocard.cli``, run from the
repository root under ``-X dev -W error`` with the checkout's ``src`` first on
``PYTHONPATH``. A row gives the arguments, stdin file and extra environment, and
pins the exit code, the exact stderr and, unless ``golden`` is False, stdout byte
for byte to the file under ``tests/data`` that names the row. Standard library only:

    python tests/test_goldens.py            # every row; a unified diff per failing row
    python tests/test_goldens.py --write    # first rewrite each golden from its row
    PYTHONPATH=src python3 tests/test_golden_traces.py  # golden_traces.jsonl, no row
"""

import difflib
import os
import shlex
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).parents[1]
DATA = ROOT / "tests" / "data"


class Row(NamedTuple):
    name: str  # the golden file under tests/data, or a label when golden is False
    argv: str
    golden: bool = True
    code: int = 0
    stderr: str = ""
    stdin: str | None = None
    env: dict = {}


JRC_A3 = "--scenario src/geocard/data/scenarios/jrc_a3.json"
PAD = "--scenario tests/data/scenario_eccentric_pad.json"
TERZAGHI = ("eval BEARING_CAPACITY_TERZAGHI general_shear_failure_strip --in 'c_prime=0 kPa' "
            "--in 'phi_prime=30 deg' --in 'gamma=18 kN/m^3' --in 'B=2 m' --in 'q=18 kPa'")
NOT_FINITE = "error: 'B' is not a finite number\n"
BAD_CARDS = "24 of 24 card file(s) failed validation\n"

ROWS = [
    *(Row(f"{name}_expected.jsonl", "serve", stdin=f"{name}_requests.jsonl") for name in (
        "golden_transcript", "golden_session", "golden_arguments", "hostile_transcript")),
    Row("golden_cli_terzaghi_report.md", f"{TERZAGHI} --format report"),
    Row("golden_cli_terzaghi.json", f"{TERZAGHI} --format json"),
    Row("golden_cli_coupled.json", "eval BENCH_COUPLED_PRESSURE coupled --in 'p=100 kPa' "
        "--in 'a=20 kPa' --format json", env={"GEOCARD_CATALOG_DIR": "perfbench"}),
    Row("golden_cli_vesic_override.json", "eval BEARING_CAPACITY_VESIC general "
        "--in 'phi_prime=30 deg' --in 'c_prime=5 kPa' --in 'gamma=18 kN/m^3' --in 'B=2 m' "
        "--in 'L=3 m' --in 'D_f=1 m' --in 'q=18 kPa' --override 'beta=5 deg' --format json"),
    Row("golden_cli_ec7_phi0.json", "eval BEARING_CAPACITY_EUROCODE7 drained "
        "--in 'phi_prime_d=0 rad' --in 'c_prime_d=50 kPa' --in 'c_u_d=0 kPa' "
        "--in 'gamma=18 kN/m^3' --in 'B=2 m' --in 'L=2 m' --in 'q=0 kPa' --format json"),
    Row("eval-furlong", TERZAGHI.replace("B=2 m", "B=2 furlong"), golden=False, code=1,
        stderr="error: unknown unit: 'furlong' for input 'B'\n"),
    Row("eval-bare-number", TERZAGHI.replace("phi_prime=30 deg", "phi_prime=30"),
        golden=False, code=1, stderr="error: value(s) need a unit tag: phi_prime\n"),
    Row("golden_cli_ec7_design.json", f"ec7 design {JRC_A3} --da all --format json"),
    Row("golden_cli_ec7_check.json", f"ec7 check {JRC_A3} --da all --B '2.0 m' --format json"),
    Row("golden_cli_ec7_design_summary.txt", f"ec7 design {JRC_A3} --da all"),
    Row("golden_cli_ec7_check_summary.txt", f"ec7 check {JRC_A3} --da all --B '2 m'"),
    Row("golden_cli_ec7_design_tight.json",
        f"ec7 design {JRC_A3} --da all --tolerance 1e-9 --format json"),
    Row("design-tolerance-5e-17",
        f"ec7 design {JRC_A3} --da DA2 --tolerance 5e-17 --format json", golden=False),
    *(Row(f"golden_cli_ec7_design_{drainage}.json",
          f"ec7 design {PAD} --da all --drainage {drainage} --format json")
      for drainage in ("drained", "undrained")),
    Row("golden_cli_ec7_check_undrained_da2.json",
        f"ec7 check {PAD} --da DA2 --B '2.5 m' --drainage undrained --format json"),
    Row("check-inf", f"ec7 check {PAD} --da DA2 --B '1e999 m'", False, 1, NOT_FINITE),
    Row("check-da9-inf", f"ec7 check {PAD} --da DA9 --B '1e999 m'", False, 1, NOT_FINITE),
    Row("check-negative", f"ec7 check {PAD} --da DA2 --B '-1e-3 m'", False, 1,
        "error: width must be positive, got -0.001\n"),
    Row("golden_validate_bad_cards.txt", "validate tests/data/bad_cards", True, 1, BAD_CARDS),
    Row("validate-ascii", "validate tests/data/bad_cards", False, 1, BAD_CARDS,
        env={"PYTHONIOENCODING": "ascii"}),
]
BY_NAME = {row.name: row for row in ROWS}


def run(row: Row) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "geocard.cli",
         *shlex.split(row.argv)],
        cwd=ROOT, env={**os.environ, **row.env, "PYTHONPATH": path}, capture_output=True,
        input=(DATA / row.stdin).read_bytes() if row.stdin else b"", timeout=120)


def diff(row: Row, proc: subprocess.CompletedProcess) -> str:
    """A unified diff of each stream whose bytes differ from the row's; "" if none."""
    streams = [("exit code", b"%d\n" % row.code, b"%d\n" % proc.returncode),
               ("stderr", row.stderr.encode(), proc.stderr)]
    if row.golden:
        streams.append(("stdout", (DATA / row.name).read_bytes(), proc.stdout))
    text = ""
    for label, want, got in streams:
        if want != got:
            want, got = (data.decode("utf-8", "backslashreplace").splitlines(keepends=True)
                         for data in (want, got))
            text += f"{label} differs\n" + "".join(
                line if line.endswith("\n") else line + "\n"
                for line in difflib.unified_diff(want, got, f"expected {label}", f"got {label}"))
    return text


def pytest_generate_tests(metafunc):
    if "row" in metafunc.fixturenames:
        metafunc.parametrize("row", ROWS, ids=[row.name for row in ROWS])


def test_row(row):
    text = diff(row, run(row))
    assert not text, f"python -m geocard.cli {row.argv}\n{text}"


def test_row_names_are_unique():
    assert len(BY_NAME) == len(ROWS)


def test_every_golden_is_a_rows_stdin_or_stdout():
    named = {row.name for row in ROWS if row.golden} | {row.stdin for row in ROWS}
    pinned = {p.name for p in DATA.iterdir() if p.name.startswith(("golden_", "hostile_"))}
    assert pinned - named == {"golden_traces.jsonl"}


def test_every_file_a_row_names_exists():
    named = [row.name for row in ROWS if row.golden] + [row.stdin for row in ROWS if row.stdin]
    assert [name for name in named if not (DATA / name).is_file()] == []


def test_no_row_expects_a_traceback():
    assert [row.name for row in ROWS if "Traceback" in row.stderr] == []


def main(write: bool) -> int:
    failed = 0
    for row in ROWS:
        proc = run(row)
        if write and row.golden and not diff(row._replace(golden=False), proc):
            (DATA / row.name).write_bytes(proc.stdout)
        text = diff(row, proc)
        failed += bool(text)
        print(f"FAIL {row.name}: python -m geocard.cli {row.argv}\n{text}" if text
              else f"ok   {row.name}")
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows match")
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--write"]):
        sys.exit("usage: python tests/test_goldens.py [--write]")
    sys.exit(main(write=sys.argv[1:] == ["--write"]))
