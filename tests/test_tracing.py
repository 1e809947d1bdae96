"""The benchmark's traced run still finds every layer it wraps.

perfbench/tracing.py patches derivop's module attributes by name, and a
traced benchmark run fails if one is missing or records no span.  These
checks fail the test suite first.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from derivop import datagen, models

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracing = load_tracing()
    for module_name, attrs in tracing.TRACED.items():
        module = importlib.import_module(f"derivop.{module_name}")
        for attr in attrs:
            assert callable(getattr(module, attr)), f"{module_name}.{attr}"
    assert callable(models.spla.splu)


def test_one_factorization_per_newton_step_and_operator():
    tracing = load_tracing()
    grid = models.Grid(9)
    model = models.RDModel(grid=grid)
    prior = models.PriorConfig(delta=1.0, gamma=0.1, grid=grid)
    models.sample_prior(prior, np.random.default_rng(0))  # caches its factor
    models.solve_state(model, np.zeros(model.d_m))  # caches the predictor
    with tracing.Tracer().installed() as tracer:
        ds = datagen.generate_dataset(model, prior, 3, rank=4, seed=2)
    table = tracing.SpanTable(tracer.spans)
    # One stacked solve; state_jacobian once per iteration of its loop.
    assert table.count("models.solve_state") == 1
    stacked = table.count("models.state_jacobian", parent="models.solve_state")
    iterations = ds.meta["newton_iterations_per_sample"]
    assert stacked == max(iterations) >= 1
    operators = table.count("models.jacobian_operator")
    assert operators == 3
    # Each row factors its own dR/du in every iteration it takes.
    assert table.count("models.splu") == sum(iterations) + operators
    assert models.spla.splu is models._banded_cholesky  # patch undone
