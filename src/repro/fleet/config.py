"""Fleet simulation configuration.

One frozen dataclass carries every knob of the simulated datacenter:
fleet composition, trace shape, scheduling policy and fault severity.
Every scalar field is
overridable from ``REPRO_FLEET_<FIELD>`` environment variables through
the shared :func:`repro.util.config.dataclass_from_env` helper — the
same machinery :class:`repro.serve.ServeConfig` uses for
``REPRO_SERVE_*``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

from repro.util.config import dataclass_from_env
from repro.util.validation import check_fraction, check_positive

__all__ = ["FleetConfig", "parse_arch_mix", "ARRIVALS", "MIXES"]

#: Supported arrival processes for the synthetic trace.
ARRIVALS = ("poisson", "uniform")
#: Supported workload-mix distributions.
MIXES = ("uniform", "zipf")


def parse_arch_mix(spec: str) -> List[Tuple[str, int]]:
    """Parse an architecture-mix spec into ``[(arch_name, weight), ...]``.

    The spec is a comma-separated list of ``name`` or ``name:weight``
    entries, e.g. ``"power7"`` (homogeneous) or ``"power7:3,nehalem:1"``
    (three POWER7 chips for every Nehalem).  Weights must be positive
    integers; names are validated against the arch registry by the
    perf model, not here.
    """
    entries: List[Tuple[str, int]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            name, _, weight_text = part.partition(":")
            try:
                weight = int(weight_text)
            except ValueError:
                raise ValueError(
                    f"bad arch-mix weight in {part!r} (want name:integer)"
                ) from None
        else:
            name, weight = part, 1
        name = name.strip().lower()
        if not name:
            raise ValueError(f"empty arch name in arch-mix spec {spec!r}")
        if weight < 1:
            raise ValueError(f"arch-mix weight must be >= 1, got {weight}")
        entries.append((name, weight))
    if not entries:
        raise ValueError(f"arch-mix spec {spec!r} names no architectures")
    return entries


@dataclass(frozen=True)
class FleetConfig:
    """Everything a fleet simulation can be tuned with (docs/fleet.md).

    The defaults describe the *reference fleet* the benchmarks and the
    ranking regression test use: 24 POWER7 chips under a Poisson trace
    offered at 1.05x the fleet's max-level capacity.
    """

    chips: int = 24                     # fleet size (one node per chip)
    jobs: int = 2000                    # trace length
    arch_mix: str = "power7"            # see parse_arch_mix()
    policy: str = "smtsm"               # placement policy name
    seed: int = 11                      # root of every RNG stream
    severity: float = 0.0               # repro.faults noise_profile severity
    arrival: str = "poisson"            # arrival process: poisson|uniform
    load: float = 1.05                  # offered load vs max-level capacity
    job_size_sigma: float = 0.35        # lognormal sigma of job sizes
    mix: str = "uniform"                # workload-mix distribution
    workloads: str = ""                 # comma-separated names; "" = POWER7 set
    queue_depth: int = 8                # per-node queue bound (admission)
    crash_prob: float = 0.002           # per-completion node-crash prob at severity 1
    hang_prob: float = 0.02             # per-dispatch node-hang prob at severity 1
    restart_s: float = 30.0             # node downtime after a crash
    hang_s: float = 5.0                 # extra service time on a hang
    measure_interval_s: float = 0.1     # wall time per online counter sample

    def __post_init__(self):
        if self.chips < 1:
            raise ValueError(f"chips must be >= 1, got {self.chips}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        parse_arch_mix(self.arch_mix)
        if self.arrival not in ARRIVALS:
            raise ValueError(
                f"unknown arrival process {self.arrival!r}; use one of {ARRIVALS}"
            )
        if self.mix not in MIXES:
            raise ValueError(
                f"unknown workload mix {self.mix!r}; use one of {MIXES}"
            )
        check_fraction("severity", self.severity)
        check_positive("load", self.load)
        if self.job_size_sigma < 0:
            raise ValueError(
                f"job_size_sigma must be >= 0, got {self.job_size_sigma}"
            )
        if self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        check_fraction("crash_prob", self.crash_prob)
        check_fraction("hang_prob", self.hang_prob)
        check_positive("restart_s", self.restart_s)
        if self.hang_s < 0:
            raise ValueError(f"hang_s must be >= 0, got {self.hang_s}")
        check_positive("measure_interval_s", self.measure_interval_s)

    def workload_names(self) -> Tuple[str, ...]:
        """The catalog names jobs are sampled from (declaration order)."""
        if self.workloads.strip():
            names = tuple(
                n.strip() for n in self.workloads.split(",") if n.strip()
            )
            if not names:
                raise ValueError(f"workloads spec {self.workloads!r} is empty")
            return names
        from repro.workloads.catalog import POWER7_SET

        return POWER7_SET

    @classmethod
    def from_env(
        cls,
        base: Optional["FleetConfig"] = None,
        *,
        env: Optional[Mapping[str, str]] = None,
    ) -> "FleetConfig":
        """Build a config from ``REPRO_FLEET_*`` variables over ``base``."""
        return dataclass_from_env(cls, "REPRO_FLEET", env=env, base=base)
