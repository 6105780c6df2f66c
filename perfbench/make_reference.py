"""Write ``reference.json``: the seed-0 outputs of every workload.

The committed file was written from the library as it stood before any
performance work, so later changes are held to the results they started
from.  Rewrite it only when a change of results is intended and reviewed:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import worker  # puts the checkout's src on the path
from studies import WORKLOADS
from tracing import NullTracer


def main() -> None:
    worker.TMP_ROOT.mkdir(exist_ok=True)
    reference = {}
    for workload in WORKLOADS.values():
        inputs_dir = Path(tempfile.mkdtemp(prefix="inputs-", dir=worker.TMP_ROOT))
        try:
            inputs = workload.make_inputs(0, inputs_dir)
            _, reference[workload.name] = worker.run_study(workload, inputs, NullTracer())
        finally:
            shutil.rmtree(inputs_dir, ignore_errors=True)
    path = Path(__file__).with_name("reference.json")
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
