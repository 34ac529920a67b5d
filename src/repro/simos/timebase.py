"""Wall-clock vs per-thread CPU time accounting.

The third SMTsm factor is ``TotalTime / AvgThrdTime`` — elapsed wall
time over average per-thread CPU time (paper Eq. 1).  It "measures
scalability limitations manifested through sleeping or Amdahl's law, as
opposed to busy waiting" (§II): spinning threads are *on CPU* and do
not move this ratio; blocked threads and serial bottlenecks do.

:func:`account_run` decomposes a run into a serial phase (one runnable
thread, the rest asleep) and a parallel phase (all threads runnable for
their runnable fraction) and returns the times exactly as a
``getrusage``-style interface would report them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.simos.sync import SyncProfile
from repro.util.validation import check_positive


@dataclass(frozen=True)
class TimeAccounting:
    """Times for one run interval."""

    wall_time_s: float
    serial_time_s: float
    parallel_time_s: float
    total_cpu_s: float
    n_threads: int

    @property
    def avg_thread_cpu_s(self) -> float:
        return self.total_cpu_s / self.n_threads

    @property
    def scalability_ratio(self) -> float:
        """TotalTime / AvgThrdTime — the metric's third factor."""
        return self.wall_time_s / self.avg_thread_cpu_s

    def __post_init__(self):
        check_positive("wall_time_s", self.wall_time_s)
        if self.n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {self.n_threads}")
        if self.total_cpu_s <= 0:
            raise ValueError(f"total_cpu_s must be > 0, got {self.total_cpu_s}")
        if self.total_cpu_s > self.wall_time_s * self.n_threads * (1 + 1e-9):
            raise ValueError(
                "total CPU time cannot exceed wall time x threads: "
                f"{self.total_cpu_s} > {self.wall_time_s} * {self.n_threads}"
            )


def account_run(
    useful_instructions: float,
    parallel_useful_rate: float,
    serial_rate: float,
    sync: SyncProfile,
    n_threads: int,
) -> TimeAccounting:
    """Account a run of ``useful_instructions`` units of work.

    ``parallel_useful_rate`` is the aggregate *useful* instruction
    throughput (instructions/s, spin cycles excluded) during the
    parallel phase; ``serial_rate`` is the single-thread throughput
    during serial sections.
    """
    check_positive("useful_instructions", useful_instructions)
    check_positive("parallel_useful_rate", parallel_useful_rate)
    check_positive("serial_rate", serial_rate)
    if n_threads < 1:
        raise ValueError(f"n_threads must be >= 1, got {n_threads}")

    s = sync.serial_fraction
    serial_time = s * useful_instructions / serial_rate
    parallel_time = (1.0 - s) * useful_instructions / parallel_useful_rate
    wall = serial_time + parallel_time

    runnable = sync.runnable_fraction(n_threads)
    # Serial phase: exactly one thread on CPU.  Parallel phase: every
    # thread on CPU for its runnable fraction (spinning counts as busy —
    # it is already inside ``runnable``; only blocking/I-O sleep).
    total_cpu = serial_time * 1.0 + parallel_time * n_threads * runnable
    return TimeAccounting(
        wall_time_s=wall,
        serial_time_s=serial_time,
        parallel_time_s=parallel_time,
        total_cpu_s=total_cpu,
        n_threads=n_threads,
    )


def account_runs(
    useful_instructions: np.ndarray,
    parallel_useful_rate: np.ndarray,
    serial_rate: np.ndarray,
    serial_fraction: np.ndarray,
    runnable: np.ndarray,
    n_threads: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`account_run` over many runs at once, as arrays.

    Takes each run's ``sync.serial_fraction`` and
    ``sync.runnable_fraction(n)`` in place of the profile, evaluates the
    scalar formulas in the same operation order (so every element equals
    the scalar result bit for bit), and returns ``(wall, serial,
    parallel, total_cpu)`` seconds.  The scalar validations all run: the
    first run that fails one raises the scalar function's error.
    """
    for name, values in (
        ("useful_instructions", useful_instructions),
        ("parallel_useful_rate", parallel_useful_rate),
        ("serial_rate", serial_rate),
    ):
        bad = ~((values > 0.0) & np.isfinite(values))
        if bad.any():
            check_positive(name, float(values[np.argmax(bad)]))
    if (n_threads < 1).any():
        raise ValueError(f"n_threads must be >= 1, got {int(n_threads.min())}")

    s = serial_fraction
    serial_time = s * useful_instructions / serial_rate
    parallel_time = (1.0 - s) * useful_instructions / parallel_useful_rate
    wall = serial_time + parallel_time
    total_cpu = serial_time * 1.0 + parallel_time * n_threads * runnable

    bad = ~((wall > 0.0) & np.isfinite(wall)) | ~(total_cpu > 0) | (
        total_cpu > wall * n_threads * (1 + 1e-9)
    )
    if bad.any():
        i = int(np.argmax(bad))
        TimeAccounting(  # raises the scalar validation error
            wall_time_s=float(wall[i]),
            serial_time_s=float(serial_time[i]),
            parallel_time_s=float(parallel_time[i]),
            total_cpu_s=float(total_cpu[i]),
            n_threads=int(n_threads[i]),
        )
    return wall, serial_time, parallel_time, total_cpu
