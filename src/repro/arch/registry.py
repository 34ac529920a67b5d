"""Architecture registry: look up machine models by name."""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.arch.machine import Architecture
from repro.arch.armsmt import armsmt
from repro.arch.generic import generic_core
from repro.arch.nehalem import nehalem
from repro.arch.power5 import power5
from repro.arch.power7 import power7

_BUILDERS: Dict[str, Callable[[], Architecture]] = {
    "power5": power5,
    "power7": power7,
    "nehalem": nehalem,
    "armsmt": armsmt,
    "generic": generic_core,
}

#: One built instance per registered name, so every caller in a process
#: shares it and the identity-keyed memos (serial rates, run-cache
#: fingerprints) and the columnar engine's per-architecture grouping hit
#: across calls.  The builder is stored beside the instance: a name
#: re-registered with a new builder rebuilds instead of reusing it.
_INSTANCES: Dict[str, Tuple[Callable[[], Architecture], Architecture]] = {}


def register_architecture(name: str, builder: Callable[[], Architecture]) -> None:
    """Register a custom architecture builder under ``name``.

    Raises if the name is taken — shadowing a built-in machine silently
    would make experiment configs ambiguous.
    """
    key = name.lower()
    if key in _BUILDERS:
        raise ValueError(f"architecture {name!r} is already registered")
    _BUILDERS[key] = builder


def get_architecture(name: str) -> Architecture:
    """The named architecture (case-insensitive), built once per process."""
    key = name.lower()
    try:
        builder = _BUILDERS[key]
    except KeyError:
        raise KeyError(
            f"unknown architecture {name!r}; known: {sorted(_BUILDERS)}"
        ) from None
    hit = _INSTANCES.get(key)
    if hit is not None and hit[0] is builder:
        return hit[1]
    arch = builder()
    _INSTANCES[key] = (builder, arch)
    return arch


def list_architectures() -> List[str]:
    return sorted(_BUILDERS)
