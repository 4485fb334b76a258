"""Rewrite expected_analyze.json, the stored ``analyze`` reports.

    python3 perfbench/make_expected.py

Run it only when the cli-analyze catalog in workloads.py changes, and read
the diff: the stored reports are the answers every later run is checked
against.  Reports do not depend on the seed, because the seed only
orders the point files.  Facts known from theory are checked here:
grids have m collinear points and no 5-hole, Horton sets no 7-hole.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import OUT, load_program
from workloads import EXPECTED_ANALYZE, analyze_catalog, run_analyze


def main() -> int:
    hf = load_program()
    workdir = OUT / "expected"
    workdir.mkdir(parents=True, exist_ok=True)
    reports = {}
    try:
        for label, pts in analyze_catalog(hf.generators, tiny=False):
            path = str(workdir / f"{label}.txt")
            hf.cli.write_point_file(path, pts)
            code, text = run_analyze(hf, path)
            if code != 0:
                print(f"{label}: exit {code}", file=sys.stderr)
                return 1
            fields = dict(line.split(": ", 1) for line in text.splitlines())
            if label.startswith("grid"):
                m = int(label[4:])
                known = fields["max_collinear"] == str(m)
                known = known and fields["largest_hole"] in ("3", "4")
            elif label.startswith("horton"):
                known = fields["largest_hole"] != "7"
            else:
                known = True
            if not known:
                print(f"{label}: report contradicts theory:\n{text}", file=sys.stderr)
                return 1
            reports[label] = text
            print(f"{label}: {text.splitlines()[1:]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    EXPECTED_ANALYZE.write_text(json.dumps(reports, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
