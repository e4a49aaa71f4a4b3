#!/usr/bin/env python3
"""Regenerate reference.json: the digests the CLI workloads must reproduce.

    python3 perfbench/make_reference.py

Runs each CLI input once through the benchmark's own worker and stores the
input and output sha256 digests: the bundled audit and every audit-long
input variant. Run it only when a change is meant to alter report bytes,
and say so in that change: the benchmark then checks the new bytes.
"""

import json
import shutil
import sys

import run
from workloads import AUDIT_CLASSES, prepare_audit_long, prepare_bundled

BUNDLED_REGIME_COUNTS = {"I": 14, "II": 20, "III": 30}


def reference_entry(name, prepare, seed):
    work = run.WORK / "reference" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    prepared = prepare(work, seed, run.ROOT, None)
    spec = dict(prepared.spec, kind="cli", src=str(run.SRC), trace=False, budget_s=0.0, min_ops=1)
    result = run.Runner(work).worker(0, spec)
    if result is None:
        raise SystemExit(f"{name}: worker failed")
    op = result["ops"][0]
    if op["error"] or op["summary"]["rc"] != 0:
        raise SystemExit(f"{name}: {op['error'] or op['summary']}")
    return {"inputs": prepared.inputs, "files": op["summary"]["files"]}, op["summary"]


def main():
    bundled, summary = reference_entry("bundled", prepare_bundled, 0)
    for section, counts in summary["regime_counts"].items():
        if counts != BUNDLED_REGIME_COUNTS:
            raise SystemExit(f"bundled {section}: {counts} != {BUNDLED_REGIME_COUNTS}")
    bundled["regime_counts"] = BUNDLED_REGIME_COUNTS
    classes = {}
    for variant in range(AUDIT_CLASSES):
        classes[str(variant)], _ = reference_entry(f"audit-long-{variant}", prepare_audit_long, variant)
        print(f"audit-long variant {variant} done", file=sys.stderr)
    reference = {"bundled": bundled, "audit-long": {"classes": classes}}
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
