"""The benchmark's workloads: a level-2 warm-up, the timed operation and the
correctness gate that checks each operation's output outside the timed region.

Both workloads run the paper's fixed closed-form disc problem, so the seed
selects nothing: every seed gives the same inputs.
"""

import math
import os

from ptcontrol import cli, error

REL_TOL = 1e-9


def _rel_gap(value, reference):
    return abs(value - reference) / max(abs(reference), 1e-300)


class AcceptanceStudies:
    """The four studies of tests/test_acceptance.py, each writing its CSV."""

    name = "acceptance-studies"
    # variant, levels, bounds, least-squares EOC band (A1, A3, A2, A4)
    STUDIES = (
        ("cellwise", (2, 7), (-1.0, 1.0), (0.85, 1.30)),
        ("variational", (2, 6), (-0.2, 0.2), (1.70, 2.35)),
        ("postproc", (2, 6), (-0.2, 0.2), (1.70, 2.35)),
        ("greens", (2, 6), (-1.0, 1.0), (1.60, 2.35)),
    )

    def __init__(self, workdir, reference):
        self.workdir = workdir
        self.reference = reference.get(self.name)
        self.first_csv = None

    def _studies(self, prefix, top=None):
        return {
            variant: cli.StudyConfig(
                variant=variant, level_min=lo, level_max=hi if top is None else top,
                lower=lower, upper=upper,
                out=os.path.join(self.workdir, f"{prefix}-{variant}.csv"))
            for variant, (lo, hi), (lower, upper), _ in self.STUDIES
        }

    def warmup(self):
        for config in self._studies("warmup", top=2).values():
            cli.run_study(config)

    def run(self):
        return {variant: cli.run_study(config)
                for variant, config in self._studies("op").items()}

    def summary(self, records):
        return {variant: [r.error for r in rows] for variant, rows in records.items()}

    def check(self, records):
        failures = []
        for variant, _, _, (low, high) in self.STUDIES:
            slope = error.eoc_least_squares([(r.h, r.error) for r in records[variant]])
            if not low <= slope <= high:
                failures.append(f"{variant}: ls-eoc {slope:.3f} outside [{low}, {high}]")
        for variant, errors in self.summary(records).items():
            expected = self.reference[variant]
            if len(errors) != len(expected) or any(
                    _rel_gap(e, r) > REL_TOL for e, r in zip(errors, expected)):
                failures.append(f"{variant}: errors differ from the reference")
        csv = {}
        for variant, config in self._studies("op").items():
            with open(config.out, "rb") as handle:
                csv[variant] = handle.read()
        if self.first_csv is None:
            self.first_csv = csv
        elif csv != self.first_csv:
            failures.append("CSV bytes differ from the run's first operation")
        return failures


class SolveL7:
    """`cli.run_solve`: variational control, level 7, with the field dump."""

    name = "solve-l7"

    def __init__(self, workdir, reference):
        self.reference = reference.get(self.name)
        self.out = os.path.join(workdir, "solve-l7.txt")

    def _config(self, level):
        return cli.StudyConfig(variant="variational", level_min=level, level_max=level,
                               lower=-0.2, upper=0.2, out=self.out)

    def warmup(self):
        cli.run_solve(self._config(2))

    def run(self):
        return cli.run_solve(self._config(7))

    def summary(self, solution):
        with open(self.out) as handle:
            lines = handle.read().splitlines()
        n_cells = solution.adjoint.mesh.n_cells
        return {
            "coefficient": float(solution.coefficients[0]),
            "control_sum": math.fsum(float(line.split()[2]) for line in lines[-n_cells:]),
            "dump_lines": len(lines),
        }

    def check(self, solution):
        failures = []
        mesh = solution.adjoint.mesh
        tol = self._config(7).tol
        if not solution.residual <= tol:
            failures.append(f"residual {solution.residual:.3e} > tol {tol:g}")
        got = self.summary(solution)
        if got["dump_lines"] != 3 + mesh.n_vertices + 1 + mesh.n_cells:
            failures.append(f"dump has {got['dump_lines']} lines")
        for key in ("coefficient", "control_sum"):
            if _rel_gap(got[key], self.reference[key]) > REL_TOL:
                failures.append(f"{key} {got[key]!r} differs from the reference")
        return failures


WORKLOADS = {w.name: w for w in (AcceptanceStudies, SolveL7)}
