"""Desk-scale cluster profiles shipped with the simulator.

"expanse-sscu" mirrors one scalable compute unit of a batch-first HPC
machine: uniform dual-EPYC standard nodes plus a few V100 GPU nodes, scaled
down by a divisor so runs stay small. "nautilus-mini" is a deliberately
heterogeneous mix, from tiny 4-core boxes to a 96-core multi-terabyte node,
with several GPU generations told apart by labels.
"""

from __future__ import annotations

from typing import List

from .cluster import NodeSpec
from .resources import GIB, ResourceVector


def expanse_sscu(cluster_id: str, divisor: int = 14) -> List[NodeSpec]:
    if divisor < 1:
        raise ValueError("divisor must be >= 1")
    standard = max(1, 56 // divisor)
    gpu = max(1, 4 // divisor)
    nodes: List[NodeSpec] = []
    for i in range(1, standard + 1):
        nodes.append(
            NodeSpec(
                node_id=f"{cluster_id}-std-{i:02d}",
                cluster_id=cluster_id,
                capacity=ResourceVector(128_000, 256 * GIB, 0),
                labels={"node-class": "standard", "memory": "large"},
            )
        )
    for i in range(1, gpu + 1):
        nodes.append(
            NodeSpec(
                node_id=f"{cluster_id}-gpu-{i:02d}",
                cluster_id=cluster_id,
                capacity=ResourceVector(40_000, 384 * GIB, 4),
                labels={"node-class": "gpu", "accelerator": "gpu", "gpu-model": "v100"},
            )
        )
    return nodes


def nautilus_mini(cluster_id: str) -> List[NodeSpec]:
    """The mix is fixed, so the profile takes no divisor."""
    def node(suffix, cpu, mem, gpu, labels):
        return NodeSpec(
            node_id=f"{cluster_id}-{suffix}",
            cluster_id=cluster_id,
            capacity=ResourceVector(cpu, mem, gpu),
            labels=labels,
        )

    return [
        node("tiny-01", 4_000, 16 * GIB, 0, {"node-class": "tiny"}),
        node("tiny-02", 4_000, 16 * GIB, 0, {"node-class": "tiny"}),
        node(
            "gpu-1080-01", 32_000, 128 * GIB, 2,
            {"node-class": "gpu", "accelerator": "gpu", "gpu-model": "gtx-1080"},
        ),
        node(
            "gpu-1080-02", 32_000, 128 * GIB, 2,
            {"node-class": "gpu", "accelerator": "gpu", "gpu-model": "gtx-1080"},
        ),
        node(
            "gpu-a100-01", 96_000, 512 * GIB, 4,
            {
                "node-class": "gpu", "accelerator": "gpu",
                "gpu-model": "a100", "memory": "large",
            },
        ),
        node("bigmem-01", 96_000, 4096 * GIB, 0, {"node-class": "bigmem", "memory": "large"}),
    ]


PROFILES = {
    "expanse-sscu": expanse_sscu,
    "nautilus-mini": nautilus_mini,
}

# The profiles that take a `divisor` keyword.
SCALED_PROFILES = frozenset({"expanse-sscu"})
