"""The benchmark's workloads: one training recipe, three configurations.

Every workload follows the ``repro.cli train`` recipe (batch 64, lr 0.03,
``clip_grad_norm=5``, ``biasing_drop_period=max(3, epochs // 3)``,
dataset scale 1.0).  The benchmark's ``--seed`` only generates the input
data (``make_data``); the program's own seed (model init, shuffling,
selection streams) is a fixed part of the workload, as on the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# The program seed every workload trains with (``repro.cli train --seed``'s
# default).
PROGRAM_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    method: str  # "full" | "nessa"
    epochs: int
    target: float  # test accuracy that time_to_target_s waits for
    datasets: int  # input datasets per invocation (see perfbench/README.md)
    why: str
    nessa: dict = field(default_factory=dict)  # NeSSAConfig overrides

    @property
    def subset_fraction(self) -> float | None:
        return self.nessa.get("subset_fraction")


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="full-cifar10",
            dataset="cifar10",
            method="full",
            epochs=10,
            target=0.90,
            datasets=3,
            why="single-worker full-data baseline: conv fwd/bwd, optimizer and "
            "eval do all the work; selection, parallel and pipeline are bypassed",
        ),
        Workload(
            name="nessa-int8-cifar10",
            dataset="cifar10",
            method="nessa",
            epochs=20,
            target=0.90,
            # Datasets reach 0.90 between epochs 4 and 8; five of them keep
            # the invocation's time_to_target_s mean steady across seeds.
            datasets=5,
            nessa={"subset_fraction": 0.28, "quantized_scoring": "int8"},
            why="headline config: serial proxy pass + int8 selection on a 28% "
            "subset; where proxy, qscore and cache changes show",
        ),
        Workload(
            name="nessa-overlap-svhn",
            dataset="svhn",
            method="nessa",
            epochs=20,
            target=0.80,
            datasets=3,
            nessa={
                "subset_fraction": 0.15,
                "overlap": True,
                "stale_feedback": "stale",
                "workers": 2,
                "prefetch_depth": 2,
            },
            why="concurrent path: fork pool + shared memory, overlap thread and "
            "prefetching loader, fp32 scoring, resnet18, 15% subset",
        ),
    ]
}
