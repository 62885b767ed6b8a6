"""Multi-dimensional resource quantities.

Three dimensions: CPU millicores, memory bytes, whole GPU devices.

The config's parsers read each quantity once (a repeated memory string
once) and hold it to a non-negative int, not a bool. From there on every
figure, a pod's request and a namespace quota included, is a plain
``(cpu, memory, gpu)`` int triple, added and subtracted with
``add_triples`` and ``subtract_triples``. A ``ResourceVector`` is only a
node's capacity, built once per node; it checks its fields by the same
rules, so a profile's capacities are held to them too.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence, Tuple

from .errors import OvercommitError

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB
TIB = 1024 * GIB

_MEMORY_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(Ki|Mi|Gi|Ti)?B?\s*$")
_MEMORY_UNITS = {None: 1, "Ki": KIB, "Mi": MIB, "Gi": GIB, "Ti": TIB}

DIMENSIONS = ("cpu_millicores", "memory_bytes", "gpu_count")

Triple = Tuple[int, int, int]
ZERO: Triple = (0, 0, 0)


def parse_memory(value) -> int:
    """Parse a memory quantity: plain byte count or '<n>GiB'-style string."""
    if isinstance(value, bool):
        raise ValueError(f"not a memory quantity: {value!r}")
    if isinstance(value, int):
        if value < 0:
            raise ValueError(f"memory must be >= 0, got {value}")
        return value
    if isinstance(value, str):
        m = _MEMORY_RE.match(value)
        if not m:
            raise ValueError(f"bad memory quantity: {value!r}")
        size = float(m.group(1)) * _MEMORY_UNITS[m.group(2)]
        if not math.isfinite(size):
            raise ValueError(f"memory quantity too large: {value!r}")
        return int(size)
    raise ValueError(f"not a memory quantity: {value!r}")


@dataclass(frozen=True, slots=True)
class ResourceVector:
    cpu_millicores: int = 0
    memory_bytes: int = 0
    gpu_count: int = 0

    def __post_init__(self):
        for dim, v in zip(DIMENSIONS, (self.cpu_millicores, self.memory_bytes, self.gpu_count)):
            if type(v) is not int and (not isinstance(v, int) or isinstance(v, bool)):
                raise ValueError(f"{dim} must be an integer, got {v!r}")
            if v < 0:
                raise ValueError(f"{dim} must be >= 0, got {v}")

    def as_tuple(self) -> tuple:
        return (self.cpu_millicores, self.memory_bytes, self.gpu_count)

    def as_list(self) -> list:
        return [self.cpu_millicores, self.memory_bytes, self.gpu_count]


def add_triples(a: Sequence[int], b: Sequence[int]) -> Triple:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def subtract_triples(a: Sequence[int], b: Sequence[int]) -> Triple:
    """Component-wise difference; going negative is an accounting bug."""
    cpu, memory, gpu = a[0] - b[0], a[1] - b[1], a[2] - b[2]
    if cpu < 0 or memory < 0 or gpu < 0:
        raise OvercommitError(f"resource underflow: {tuple(a)} - {tuple(b)}")
    return (cpu, memory, gpu)
