"""Desk-scale end-to-end study: does Jacobian-informed training beat plain
value regression on function, Jacobian, and Gauss-Newton accuracy?

Fixed-seed pipeline on the 17x17 reaction-diffusion problem: generate
train/test data with compressed Jacobians, build derivative-informed bases,
train reduced-basis networks under the l2 and full-H1 losses for several
weight seeds, and compare accuracies.
"""

from dataclasses import dataclass, field

import numpy as np

from .bases import derivative_informed_bases
from .datagen import generate_dataset
from .metrics import evaluate
from .models import Grid, PriorConfig, RDModel
from .netop import MLPSpec, NetworkWeights, OperatorModel
from .training import LossConfig, train


@dataclass(frozen=True)
class StudyConfig:
    grid_n: int = 17
    n_train: int = 256
    n_test: int = 256
    rank: int = 25
    delta: float = 1.0
    gamma: float = 0.1
    c_nl: float = 1.0
    rank_in: int = 50
    rank_out: int = 25
    hidden_width: int = 50
    hidden_layers: int = 6
    epochs: int = 100
    batch_size: int = 32
    train_data_seed: int = 101
    test_data_seed: int = 202
    weight_seeds: tuple = (1, 2, 3, 4, 5)


@dataclass
class StudyResult:
    per_seed: list = field(default_factory=list)

    def accuracy(self, loss_name, metric):
        return np.array([rec[loss_name][metric] for rec in self.per_seed])


def build_data(cfg):
    grid = Grid(cfg.grid_n)
    model = RDModel(grid=grid, c_nl=cfg.c_nl)
    prior = PriorConfig(delta=cfg.delta, gamma=cfg.gamma, grid=grid)
    train_ds = generate_dataset(model, prior, cfg.n_train, rank=cfg.rank,
                                seed=cfg.train_data_seed)
    test_ds = generate_dataset(model, prior, cfg.n_test, rank=cfg.rank,
                               seed=cfg.test_data_seed)
    return train_ds, test_ds


def make_dipnet(bases, cfg, weight_seed):
    widths = (bases.rank_in,) + (cfg.hidden_width,) * cfg.hidden_layers \
        + (bases.rank_out,)
    spec = MLPSpec.dense(widths, init_seed=weight_seed)
    return OperatorModel(kind="reduced_basis", spec=spec,
                         weights=NetworkWeights.init(spec), bases=bases)


def run_study(cfg=None, losses=("l2", "h1_full"), progress=None):
    """Train one reduced-basis net per (seed, loss) and evaluate it.

    Returns a StudyResult whose per-seed records map loss name to the
    l2 / h1 / gn accuracies of the trained network.
    """
    cfg = cfg or StudyConfig()
    train_ds, test_ds = build_data(cfg)
    bases = derivative_informed_bases(train_ds, rank_in=cfg.rank_in,
                                      rank_out=cfg.rank_out)
    result = StudyResult()
    for seed in cfg.weight_seeds:
        record = {}
        for loss_name in losses:
            model = make_dipnet(bases, cfg, weight_seed=seed)
            loss_cfg = LossConfig(variant=loss_name)
            model, _ = train(train_ds, model, loss_cfg, epochs=cfg.epochs,
                             batch_size=cfg.batch_size, seed=seed)
            record[loss_name] = evaluate(
                model, test_ds, metrics=("l2", "h1", "gn", "rgn")).accuracies
            if progress is not None:
                progress(seed, loss_name, record[loss_name])
        result.per_seed.append(record)
    return result
