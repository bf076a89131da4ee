"""The benchmark's workloads: inputs, model and training configuration.

Every workload runs at P = 2 from one launcher process and is built
only from a seed, so the same seed always gives the same inputs.  Each
``build`` call returns a :class:`Job`: what ``train_distributed`` needs,
plus the references the correctness checks compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Type

import numpy as np

from repro.data import VideoFeatureDataset, cifar10_like
from repro.data.loader import Batch, Dataset
from repro.nn.losses import SoftmaxCrossEntropyLoss
from repro.nn.models import SequenceLSTMClassifier
from repro.nn.models.mlp import MLPClassifier
from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.training.config import TrainingConfig

WORLD_SIZE = 2

#: Input sizes per workload.  ``full`` is what the benchmark measures;
#: ``tiny`` only proves that every path runs (the self-test uses it).
#: ``train``/``eval`` count videos or images, ``epochs`` fixes the step
#: budget: at ``full`` the ucf101 workloads run 1 x 80 steps and
#: ``cifar-mlp-zero1`` runs 3 x 51 steps per training run.
SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "ucf101": {
        "full": {"train": 2560, "eval": 1024, "epochs": 1},
        "tiny": {"train": 640, "eval": 64, "epochs": 1},
    },
    "cifar": {
        "full": {"train": 3264, "eval": 1632, "epochs": 3},
        "tiny": {"train": 640, "eval": 160, "epochs": 1},
    },
}


@dataclass
class Job:
    """One training run's inputs, built from one seed."""

    model_factory: Callable[[], Module]
    model_class: Type[Module]
    train: Dataset
    eval: Dataset
    loss: SoftmaxCrossEntropyLoss
    config: TrainingConfig
    #: Held-out loss of the untrained model; a trained run must beat it.
    untrained_loss: float
    #: Optimizer-state bytes of one dense (unsharded) replica, when the
    #: workload shards them; each ZeRO-1 rank must hold exactly 1/P.
    dense_state_bytes: Optional[int] = None


class _VideoView(Dataset):
    """A subset of a :class:`VideoFeatureDataset` that keeps its lengths."""

    def __init__(self, base: VideoFeatureDataset, indices: np.ndarray) -> None:
        self.base = base
        self.indices = indices

    def __len__(self) -> int:
        return int(self.indices.size)

    def example_sizes(self) -> np.ndarray:
        return self.base.lengths[self.indices]

    def get_batch(self, indices) -> Batch:
        return self.base.get_batch(self.indices[np.asarray(indices, dtype=np.int64)])


def _untrained_loss(model: Module, loss: SoftmaxCrossEntropyLoss, data: Dataset) -> float:
    """Loss of the untrained model on (up to) the first 256 held-out examples."""
    batch = data.get_batch(np.arange(min(len(data), 256)))
    value, _grad = loss(model.forward(batch.inputs), batch.targets)
    return float(value)


def _ucf101(mode: str, seed: int, size: str) -> Job:
    p = SIZES["ucf101"][size]
    # length_scale 0.1 keeps UCF101's relative length spread (median ~17
    # frames) so a bucketed batch's LSTM cost differs between ranks.  At
    # signal 0.5 the held-out loss after the step budget (~1.5 nats, from
    # ~2.3 untrained) is still falling and varies little between seeds.
    videos = VideoFeatureDataset(
        num_videos=p["train"] + p["eval"], feature_dim=32, num_classes=10,
        length_scale=0.1, signal=0.5, seed=seed,
    )
    order = np.arange(len(videos))
    train = _VideoView(videos, order[: p["train"]])
    held_out = _VideoView(videos, order[p["train"]:])

    def model_factory() -> Module:
        return SequenceLSTMClassifier(
            feature_dim=32, hidden_dim=64, num_classes=10, seed=seed + 1
        )

    exchange = (
        {"mode": "majority"}
        if mode == "majority"
        else {"mode": "sync", "sync_style": "horovod", "allreduce_algorithm": "ring"}
    )
    config = TrainingConfig(
        world_size=WORLD_SIZE,
        comm_backend="process",
        epochs=p["epochs"],
        global_batch_size=32,
        learning_rate=0.05,
        optimizer="momentum",
        # One model sync, after the final epoch, as in Fig. 13.
        model_sync_period_epochs=p["epochs"],
        seed=seed,
        eval_batch_size=64,
        bucket_by_length=True,
        **exchange,
    )
    loss = SoftmaxCrossEntropyLoss()
    return Job(
        model_factory=model_factory,
        model_class=SequenceLSTMClassifier,
        train=train,
        eval=held_out,
        loss=loss,
        config=config,
        untrained_loss=_untrained_loss(model_factory(), loss, held_out),
    )


def _cifar_zero1(seed: int, size: str) -> Job:
    p = SIZES["cifar"][size]
    # signal 0.1 keeps the held-out loss well above 0 after the step
    # budget (at signal 3.0 it is 0.0000 within 6 epochs).
    images = cifar10_like(
        num_examples=p["train"] + p["eval"], image_size=16, signal=0.1, seed=seed
    )
    train, held_out = images.split(p["eval"] / (p["train"] + p["eval"]), seed=seed)

    def model_factory() -> Module:
        # 768 -> 514 -> 10: 400,416 float64 parameters (3.2 MB).  The
        # width makes every 1 MB fusion bucket's length even, so each
        # rank owns exactly half of the optimizer state.
        return MLPClassifier(3 * 16 * 16, (514,), 10, seed=seed + 1)

    config = TrainingConfig(
        world_size=WORLD_SIZE,
        comm_backend="shm",
        epochs=p["epochs"],
        global_batch_size=64,
        learning_rate=1e-3,
        optimizer="adam",
        mode="sync",
        sharding="zero1",
        allreduce_algorithm="ring",
        fusion_threshold_bytes=1 << 20,
        pipeline_chunks=2,
        seed=seed,
        eval_batch_size=256,
    )
    loss = SoftmaxCrossEntropyLoss()
    return Job(
        model_factory=model_factory,
        model_class=MLPClassifier,
        train=train,
        eval=held_out,
        loss=loss,
        config=config,
        untrained_loss=_untrained_loss(model_factory(), loss, held_out),
        dense_state_bytes=_dense_adam_state_bytes(model_factory()),
    )


def _dense_adam_state_bytes(model: Module) -> int:
    optimizer = Adam(model, 1e-3)
    for param in model.parameters():
        param.grad[...] = 0.0
    optimizer.step()
    return optimizer.state_bytes()


#: Workload name -> job builder ``(seed, size) -> Job``.
WORKLOADS: Dict[str, Callable[[int, str], Job]] = {
    "ucf101-lstm-majority": lambda seed, size: _ucf101("majority", seed, size),
    "ucf101-lstm-sync": lambda seed, size: _ucf101("sync", seed, size),
    "cifar-mlp-zero1": _cifar_zero1,
}


def build(name: str, seed: int, size: str = "full") -> Job:
    """The job of workload ``name`` with inputs drawn from ``seed``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    if size not in ("full", "tiny"):
        raise ValueError(f"unknown size {size!r}; use 'full' or 'tiny'")
    return WORKLOADS[name](seed, size)
