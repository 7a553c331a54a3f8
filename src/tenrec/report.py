"""Run results: recovered tensors and per-iteration trace; CSV writers."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field


@dataclass
class RecoveryReport:
    """Outcome of one solver run.

    ``tensors`` maps result names to arrays ('Z' for completion; 'L', 'E',
    'N' for robust PCA).  ``trace`` holds one dict per iteration, keyed by
    the solver's CSV columns (``TRACE_COLUMNS_COMPLETION`` or
    ``TRACE_COLUMNS_RPCA``).  A report holds no score: :mod:`tenrec.metrics`
    measures a recovery against its ground truth.
    """

    tensors: dict
    trace: list
    converged: bool = False
    iterations: int = 0
    notes: dict = field(default_factory=dict)


TRACE_COLUMNS_COMPLETION = ("iter", "inf_norm_diff", "lagrangian", "seconds")
TRACE_COLUMNS_RPCA = TRACE_COLUMNS_COMPLETION + ("E_l1", "N_fro", "residual_fro")


def write_trace_csv(path, trace, columns):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in trace:
            writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c] for c in columns])


def metric_row(method, sr_or_noise, values):
    """One metrics-table row: the two labels, then ``values`` as given, in its order."""
    return {"method": method, "sr_or_noise": sr_or_noise, **values}


def write_metrics_csv(path, rows):
    """Write ``rows`` under a header taken from the first row's keys."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
