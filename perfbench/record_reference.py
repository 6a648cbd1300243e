#!/usr/bin/env python3
"""Record reference.json: the outputs of each workload's fixed-seed command.

    python3 perfbench/record_reference.py

Run it only at a commit whose estimates are the accepted reference; the
benchmark compares every run's warm-up command against this file.
"""

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402


def main() -> int:
    work = ROOT / ".perfbench" / "reference-work"
    shutil.rmtree(work, ignore_errors=True)
    reference = {}
    try:
        for name in wl.WORKLOADS:
            csv_paths = wl.write_inputs(name, wl.REFERENCE_SEED, work / name)
            argv = wl.prepare_command(name, wl.REFERENCE_SEED, 0, csv_paths, work / name)
            if wl.cli.main(argv) != 0:
                print(f"{name}: the reference command failed", file=sys.stderr)
                return 1
            record = wl.read_outputs(name, work / name / "out-0")
            problems = wl.consistency_problems(name, record)
            if problems:
                print(f"{name}: {problems}", file=sys.stderr)
                return 1
            reference[name] = record
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wl.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
