"""Self-test of the benchmark's output checks: each check passes on a
correct pipeline output and fails on a deliberately wrong one.

Run from the root of the checkout: python3 -m pytest perfbench/test_checks.py
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from derivop import bases, datagen, metrics, models, netop  # noqa: E402

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402

GRID = models.Grid(17)
MODEL = models.RDModel(grid=GRID)  # 25 sensors
PRIOR = models.PriorConfig(delta=1.0, gamma=0.1, grid=GRID)


@pytest.fixture(scope="module")
def exact():
    """rank = d_Q: the sketch covers the map."""
    return datagen.generate_dataset(MODEL, PRIOR, 4, rank=25, seed=5)


@pytest.fixture(scope="module")
def sketch():
    """rank 5 < d_Q: the randomized range finder compresses."""
    return datagen.generate_dataset(MODEL, PRIOR, 4, rank=5, seed=6)


def copy(ds):
    return datagen.Dataset(m=ds.m.copy(), q=ds.q.copy(), jac_u=ds.jac_u.copy(),
                           jac_sigma=ds.jac_sigma.copy(),
                           jac_v=ds.jac_v.copy(), meta=dict(ds.meta))


def test_factors(exact, sketch):
    for ds in (exact, sketch):
        checks.check_factors(ds)
    swapped = copy(sketch)
    swapped.jac_sigma[1, :2] = swapped.jac_sigma[1, 1::-1]
    with pytest.raises(CheckFailed, match="descending"):
        checks.check_factors(swapped)
    scaled = copy(exact)
    scaled.jac_v[2, :, 0] *= 1.0 + 1e-6
    with pytest.raises(CheckFailed, match="orthonormal"):
        checks.check_factors(scaled)


@pytest.mark.parametrize("case", ["exact", "sketch"])
def test_jacobians_fd(case, request):
    ds = request.getfixturevalue(case)
    checks.check_jacobians_fd(MODEL, ds, range(2), 2, seed=0)
    perturbed = copy(ds)
    perturbed.jac_sigma[1, 0] *= 1.01
    with pytest.raises(CheckFailed, match="sample 1"):
        checks.check_jacobians_fd(MODEL, perturbed, range(2), 2, seed=0)


@pytest.mark.parametrize("factor", [1.001, 0.9])
def test_dense_svd(sketch, factor):
    J = checks.dense_jacobian(MODEL, sketch.m[0])
    checks.check_dense_svd(J, sketch.jacobian(0))
    sigma = sketch.jac_sigma[0].copy()
    sigma[0] *= factor
    with pytest.raises(CheckFailed):
        checks.check_dense_svd(J, replace(sketch.jacobian(0), sigma=sigma))


def test_threads(exact):
    threaded = datagen.generate_dataset(MODEL, PRIOR, 2, rank=25, seed=5,
                                        threads=2)
    checks.check_threads(exact, threaded)
    threaded.jac_v[1, 3, 2] = np.nextafter(threaded.jac_v[1, 3, 2], np.inf)
    with pytest.raises(CheckFailed, match="jac_v"):
        checks.check_threads(exact, threaded)


def test_round_trip(exact, tmp_path):
    datagen.save_dataset(exact, tmp_path / "ds")
    checks.check_round_trip(exact, tmp_path / "ds")
    path = tmp_path / "ds" / "jac_V.bin"
    raw = bytearray(path.read_bytes())
    raw[100] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckFailed, match="does not load"):
        checks.check_round_trip(exact, tmp_path / "ds")


@pytest.fixture(scope="module")
def nets(exact):
    pair = bases.derivative_informed_bases(exact, rank_in=10, rank_out=5)
    out = {}
    for kind, widths, b in (("reduced_basis", (10, 8, 8, 5), pair),
                            ("generic", (289, 8, 8, 25), None)):
        spec = netop.MLPSpec.dense(widths, init_seed=3)
        out[kind] = netop.OperatorModel(kind=kind, spec=spec, bases=b,
                                        weights=netop.NetworkWeights.init(spec))
    return out


@pytest.mark.parametrize("kind", ["reduced_basis", "generic"])
@pytest.mark.parametrize("metric", ["h1", "gn"])
def test_eval_bruteforce(exact, nets, kind, metric):
    report = metrics.evaluate(nets[kind], exact)
    checks.check_eval_bruteforce(nets[kind], exact, report, range(2))
    report.per_sample[metric] = report.per_sample[metric].copy()
    report.per_sample[metric][1] *= 1.0 + 1e-3
    with pytest.raises(CheckFailed, match=f"sample 1.*{metric} error"):
        checks.check_eval_bruteforce(nets[kind], exact, report, range(2))


def test_dino_beats_l2():
    # Accuracies of the order the two nets reach on dino-pipeline.
    dino = {"l2": 0.9843, "h1": 0.4314, "gn": 0.6602}
    l2 = {"l2": 0.9769, "h1": -0.1265, "gn": -0.2263}
    checks.check_dino_beats_l2(dino, l2, margin=0.01)
    with pytest.raises(CheckFailed, match="h1 error"):
        checks.check_dino_beats_l2(l2, dino, margin=0.01)
    worse_l2 = dict(dino, l2=l2["l2"] - 0.02)
    with pytest.raises(CheckFailed, match="L2 error"):
        checks.check_dino_beats_l2(worse_l2, l2, margin=0.01)


@pytest.mark.parametrize("losses", [[1.0, 1.2], [1.0, float("nan"), 0.5], [1.0]])
def test_loss_falls(losses):
    checks.check_loss_falls("net", [1.0, 0.4, 0.5])
    with pytest.raises(CheckFailed):
        checks.check_loss_falls("net", losses)
