"""Record the reference outputs of the fixed-input workloads.

    python3 perfbench/make_reference.py

Runs one operation of `acceptance-studies` and of `solve-l7` and writes the
values their correctness gates compare against to perfbench/reference.json.
Run it only on a commit whose numbers are trusted.
"""

import json
import os
import tempfile

import run

_, workloads = run.import_program()
reference = {}
with tempfile.TemporaryDirectory(dir=run.HERE) as workdir:
    for cls in (workloads.AcceptanceStudies, workloads.SolveL7):
        workload = cls(workdir, {})
        reference[cls.name] = workload.summary(workload.run())
with open(os.path.join(run.HERE, "reference.json"), "w") as handle:
    json.dump(reference, handle, indent=1)
    handle.write("\n")
