"""Write reference.json from the records of untraced benchmark runs.

    python3 perfbench/reference.py

Run it from the root of a gzlss checkout after ``run.py --trace 0`` runs
of the seeds to cover.  It collects, per workload and seed, the output
digest and the quality figures from ``.perfbench/results/*-trace0.json``.
Every record must be correct and of the current source tree; run it on the
machine that made them, whose platform (CPU, NumPy, BLAS) it records.
``run.py`` then reports ``outputs_changed`` and ``quality_drop_pts`` against
this file.
"""

from __future__ import annotations

import glob
import json
import os
import sys

import run


def main() -> int:
    source = run.source_digest()
    outputs: dict[str, dict[int, dict]] = {}
    for path in sorted(glob.glob(os.path.join(run.STATE, "results", "*-trace0.json"))):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        if not record.get("correct") or len(record.get("digest", ())) != 1:
            print(f"error: {path} is not a correct run with one digest", file=sys.stderr)
            return 1
        if record.get("source") != source:
            print(f"error: {path} is of another source tree", file=sys.stderr)
            return 1
        outputs.setdefault(record["workload"], {})[record["seed"]] = {
            "digest": record["digest"][0], **record["quality"]}
    outputs = {w: {str(k): seeds[k] for k in sorted(seeds)}
               for w, seeds in sorted(outputs.items())}
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"source": source, "platform": run.platform_key(run.machine()),
                   "outputs": outputs}, fh, indent=1)
        fh.write("\n")
    print(f"{run.REFERENCE}: "
          + ", ".join(f"{w} {len(seeds)} seeds" for w, seeds in outputs.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
