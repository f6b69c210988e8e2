"""Record the check-batch digests of the current package version.

    python3 bench/record_reference.py

`bench/run.py` compares every run's check batch with `reference.json`:
exactly at a recorded `__version__`, by Wilson intervals at any other. Run
this once after a change that bumps `__version__` and has passed that
interval check. A version already recorded is never overwritten: a change
of records without a version bump is a regression, not a new reference.
"""

import json
import sys

import run


def main() -> int:
    version = run.budget_builder.__version__
    reference = run.load_reference() if run.REFERENCE_FILE.exists() else {}
    if version in reference:
        print(f"reference for v{version} already recorded", file=sys.stderr)
        return 1
    entry = {}
    for w in run.WORKLOADS.values():
        batch = run.check_batch(w)
        if batch["problems"]:
            print("\n".join(batch["problems"]), file=sys.stderr)
            return 1
        entry[w.name] = {"digest": batch["digest"], "cells": batch["cells"],
                         "rows": len(batch["rows"]), "seed": run.REFERENCE_SEED}
    reference[version] = entry
    with open(run.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded v{version} for {', '.join(entry)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
