"""The benchmark's workloads: seeded inputs, worker specs and output checks.

Why these four:

* bundled      -- the paper's own use, a small yearly budget audit through
                  the CLI; four imperfect fits at N~64 dominate it.
* audit-long   -- the same CLI call on 10^3 rows; two fits at N~1000. When a
                  fit change helps many small fits but hurts few large ones,
                  bundled and audit-long disagree.
* battery-long -- the library path (load_csv, run_battery) on 10^4 x 2 rows:
                  ingest, digit rendering and histograms, no fit, no report.
* law-table    -- a fresh interpreter per operation computing the n-th digit
                  law for n = 2..8; the only workload deep positions reach.

Inputs are generated here with random.Random(seed), never with
digitaudit's own generators, so a change to the program cannot change its
workload. Report bytes have no cheap independent oracle, so the CLI
workloads compare digests kept in reference.json; audit-long therefore
draws its input from AUDIT_CLASSES seeded variants (seed modulo
AUDIT_CLASSES), each with stored digests.
"""

from __future__ import annotations

import hashlib
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle

AUDIT_CLASSES = 32
LOW, DECADES = 7000.0, 3  # log-uniform over [7000, 7e6)
BATTERY_REGIMES = [("early", 1, 3333), ("middle", 3334, 6666), ("late", 6667, 10_000)]
BUNDLED_FILES = ("synthetic_budget.csv", "regimes_three_phase.csv")
CLI_OUTDIR = "out"


@dataclass
class Prepared:
    spec: dict  # worker spec fields for this workload
    inputs: dict[str, str]  # input file name -> sha256
    check: Callable[[dict], str | None] | None  # summary -> failure reason or None
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # worker operation kind: cli, battery or law
    rows_per_op: int  # input rows per operation (law-table: table rows n = 2..8)
    workers: int  # fresh processes a run is split into
    prepare: Callable[[Path, int, Path, dict | None], Prepared]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def log_uniform_cell(rng: random.Random) -> str:
    """A log-uniform value as a plain decimal with 12 significant digits."""
    mantissa, exponent = format(LOW * 10.0 ** (DECADES * rng.random()), ".11e").split("e")
    digits, point = mantissa.replace(".", ""), int(exponent) + 1
    return f"{digits[:point]}.{digits[point:]}"


def write_series_csv(path: Path, rng: random.Random, rows: int, labels: list[str]) -> dict:
    """Years 1..rows, one seeded log-uniform column per label."""
    years = list(range(1, rows + 1))
    columns = {label: [] for label in labels}
    lines = ["year," + ",".join(labels)]
    for year in years:
        cells = [log_uniform_cell(rng) for _ in labels]
        for label, cell in zip(labels, cells):
            columns[label].append(cell)
        lines.append(f"{year}," + ",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"years": years, "columns": columns}


def cli_check(inputs: dict, ref: dict):
    """Check of one CLI operation against reference digests (and regime counts)."""
    def check(summary):
        if inputs != ref["inputs"]:
            return f"inputs {inputs} differ from the reference's {ref['inputs']}"
        if summary["rc"] != 0:
            return f"exit code {summary['rc']}"
        diff = oracle.compare(ref["files"], summary["files"], "files")
        if diff:
            return diff
        expected = ref.get("regime_counts")
        if expected is not None:
            if not summary["regime_counts"]:
                return "report has no regime counts"
            for section, counts in summary["regime_counts"].items():
                if counts != expected:
                    return f"{section}: {counts} != {expected}"
        return None
    return check


def prepare_bundled(work: Path, seed: int, root: Path, reference: dict | None) -> Prepared:
    data = root / "src" / "digitaudit" / "data"
    for name in BUNDLED_FILES:
        shutil.copyfile(data / name, work / name)
    inputs = {name: sha256(work / name) for name in BUNDLED_FILES}
    return Prepared(
        spec={"argv": ["analyze", "--input", BUNDLED_FILES[0], "--regimes", BUNDLED_FILES[1],
                       "--outdir", CLI_OUTDIR],
              "outdir": CLI_OUTDIR},
        inputs=inputs,
        check=cli_check(inputs, reference["bundled"]) if reference else None,
    )


def prepare_audit_long(work: Path, seed: int, root: Path, reference: dict | None) -> Prepared:
    variant = seed % AUDIT_CLASSES
    write_series_csv(work / "long.csv", random.Random(variant), 1000, ["value"])
    inputs = {"long.csv": sha256(work / "long.csv")}
    ref = reference["audit-long"]["classes"][str(variant)] if reference else None
    return Prepared(
        spec={"argv": ["analyze", "--input", "long.csv", "--outdir", CLI_OUTDIR],
              "outdir": CLI_OUTDIR},
        inputs=inputs,
        check=cli_check(inputs, ref) if ref else None,
        details={"input_variant": variant},
    )


def prepare_battery_long(work: Path, seed: int, root: Path, reference: dict | None) -> Prepared:
    table = write_series_csv(work / "battery.csv", random.Random(seed), 10_000, ["a", "b"])
    regimes = ["name,start_year,end_year"] + [f"{n},{lo},{hi}" for n, lo, hi in BATTERY_REGIMES]
    (work / "regimes.csv").write_text("\n".join(regimes) + "\n", encoding="utf-8")
    expected = oracle.battery(table["years"], table["columns"], BATTERY_REGIMES)
    return Prepared(
        spec={"csv": "battery.csv", "regimes": "regimes.csv"},
        inputs={name: sha256(work / name) for name in ("battery.csv", "regimes.csv")},
        check=lambda summary: oracle.compare(expected, summary),
    )


def prepare_law_table(work: Path, seed: int, root: Path, reference: dict | None) -> Prepared:
    expected = {"values": oracle.law_table()}
    return Prepared(
        spec={"lawop": str(Path(__file__).resolve().parent / "lawop.py")},
        inputs={},
        check=lambda summary: oracle.compare(expected, summary, rel_tol=1e-15),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bundled", "cli", 64, 4, prepare_bundled),
        Workload("audit-long", "cli", 1000, 2, prepare_audit_long),
        Workload("battery-long", "battery", 10_000, 2, prepare_battery_long),
        Workload("law-table", "law", len(oracle.LAW_POSITIONS), 2, prepare_law_table),
    )
}
