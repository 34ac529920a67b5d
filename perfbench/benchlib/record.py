"""What every benchmark record carries: source identity and host."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
from pathlib import Path
from typing import Any, Dict, Optional

#: Build leftovers git never tracks; skipped when hashing the source.
_UNTRACKED_DIRS = ("__pycache__",)
_UNTRACKED_SUFFIXES = (".pyc", ".pyo")


def git_sha(root: Path) -> Optional[str]:
    """HEAD of the git checkout rooted exactly at ``root``, else None."""
    try:
        top = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(top) != 2 or Path(top[0]).resolve() != root.resolve():
        return None
    return top[1]


def git_tree_id(path: Path) -> Optional[str]:
    """The git tree object id of a directory, computed without git.

    Equals ``git rev-parse HEAD:<path>`` for a clean checkout, so a
    record made in an exported copy (no ``.git``) still names the exact
    source it measured.  Returns None for a directory with no files.
    """
    entries = []
    for entry in os.scandir(path):
        if entry.is_dir():
            if entry.name in _UNTRACKED_DIRS:
                continue
            sub = git_tree_id(Path(entry.path))
            if sub is not None:
                entries.append((entry.name.encode() + b"/", b"40000",
                                bytes.fromhex(sub)))
        elif not entry.name.endswith(_UNTRACKED_SUFFIXES):
            data = Path(entry.path).read_bytes()
            mode = b"100755" if os.access(entry.path, os.X_OK) else b"100644"
            entries.append((entry.name.encode(), mode,
                            hashlib.sha1(_object(b"blob", data)).digest()))
    if not entries:
        return None
    # git orders tree entries by name, with directories compared as "name/".
    body = b"".join(mode + b" " + key.rstrip(b"/") + b"\0" + oid
                    for key, mode, oid in sorted(entries))
    return hashlib.sha1(_object(b"tree", body)).hexdigest()


def _object(kind: bytes, body: bytes) -> bytes:
    return kind + b" " + str(len(body)).encode() + b"\0" + body


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def stamp(root: Path, *, workload: str, seed: int, seconds: float,
          trace: bool) -> Dict[str, Any]:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(root),
        "src_tree": git_tree_id(root / "src"),
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def cpu_ticks() -> Optional[list]:
    """Aggregate CPU time counters of the host (``/proc/stat``), or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(start: Optional[list], end: Optional[list]) -> Optional[float]:
    """Share of CPU time the hypervisor took from this VM between two
    :func:`cpu_ticks` readings (field 8 of the ``cpu`` line)."""
    if not start or not end or len(start) < 8 or len(end) < 8:
        return None
    delta = [b - a for a, b in zip(start, end)]
    total = sum(delta[:8])
    return delta[7] / total if total > 0 else None


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live child process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
