"""Benchmark harness — experiment drivers for every table and figure.

Each driver regenerates one artifact of the paper's evaluation section:

* :func:`repro.bench.experiments.table1` — erasure characterization matrix;
* :func:`repro.bench.experiments.fig4a` — erasure implementations on PSQL;
* :func:`repro.bench.experiments.fig4b` — profile × workload completion times;
* :func:`repro.bench.experiments.fig4c` — scalability in record count;
* :func:`repro.bench.experiments.table2` — space factors.

Drivers accept scale parameters (records / transactions) defaulting to the
paper's; ``benchmarks/`` wires them into pytest-benchmark and prints the
same rows/series the paper reports.
"""

from repro.bench.experiments import (
    ErasureConfig,
    fig4a,
    fig4b,
    fig4c,
    table1,
    table2,
)
from repro.bench.reporting import (
    render_fig4a,
    render_fig4b,
    render_fig4c,
    render_table1,
    render_table2,
)

__all__ = [
    "ErasureConfig",
    "table1",
    "table2",
    "fig4a",
    "fig4b",
    "fig4c",
    "render_table1",
    "render_table2",
    "render_fig4a",
    "render_fig4b",
    "render_fig4c",
]
