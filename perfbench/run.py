#!/usr/bin/env python3
"""End-to-end benchmark of the derivop pipeline.

Usage (from the root of a derivop checkout):

    python3 perfbench/run.py --workload dino-pipeline --seed 1 --seconds 30 --trace 0

A run first runs the workload's full pipeline once (generate -> bases ->
train -> evaluate); the checks and the DINO error metrics use this pass.
It then repeats timed rounds for at least ``--seconds`` seconds and
MIN_ROUNDS rounds.  Each round times one call of every stage, so each time
is a median over rounds spread across the whole run, and each call is
scaled to reference units by the reference runs around it (speed.py).
The last line of standard output is one JSON object.  With ``--trace 0`` it holds the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the rounds wrap
derivop's public functions and it holds the per-layer metrics.  See
perfbench/README.md.
"""

import os

# One BLAS thread; set before numpy loads OpenBLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
if not (SRC / "derivop" / "__init__.py").is_file():
    sys.exit(f"perfbench: no derivop sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from derivop import bases, datagen, metrics, models, netop, training  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402


@dataclass(frozen=True)
class Workload:
    grid_n: int
    sensors_per_side: int
    rank: int
    n_train: int
    n_test: int
    rank_in: int
    rank_out: int
    gen_chunk: int  # samples generated per timed round
    epochs: dict  # net label -> epochs of one timed training call
    data_seed: int = None  # seed of the checked pass's data; None: --seed


WORKLOADS = {
    # The study problem at the limited-data end: rank = d_Q = 25, so the
    # Jacobian sketch covers the whole map.
    "dino-pipeline": Workload(grid_n=17, sensors_per_side=5, rank=25,
                              n_train=128, n_test=64, rank_in=50, rank_out=25,
                              gen_chunk=16,
                              epochs={"l2": 30, "h1": 6, "ms": 5,
                                      "generic": 2}),
    # A 4x finer mesh with 100 sensors and rank 20 < d_Q: the randomized
    # range finder compresses, and mesh-size-dependent costs (assembly, LU,
    # d_M x d_M Gram matrices) dominate; training and evaluation are small.
    # Nets trained on 48 samples differ in L2 error by 19 % across data
    # seeds (quartile distance over median), so the checked pass uses fixed
    # data; the chunks generated in the rounds still follow --seed.
    "fine-sketch": Workload(grid_n=33, sensors_per_side=10, rank=20,
                            n_train=48, n_test=16, rank_in=40, rank_out=20,
                            gen_chunk=4,
                            epochs={"l2": 80, "h1": 16, "ms": 16,
                                    "generic": 1},
                            data_seed=0),
}

PRIOR_DELTA, PRIOR_GAMMA = 1.0, 0.1
HIDDEN_WIDTH, HIDDEN_LAYERS = 50, 6
BATCH_SIZE = 16
WEIGHT_SEED = 1
MS_K = 10
NETS = {
    "l2": ("dipnet", training.LossConfig(variant="l2")),
    "h1": ("dipnet", training.LossConfig(variant="h1_full")),
    "ms": ("dipnet", training.LossConfig(variant="h1_truncated_ms", k=MS_K,
                                         ms_rescale=True)),
    "generic": ("generic", training.LossConfig(variant="h1_truncated")),
}
# The l2 and h1 nets of the checked pass train this long, enough to reach
# the accuracy regime the paper reports; the others train as in a round
# (at least two epochs, so that the loss can be seen to fall).
ACCURACY_EPOCHS = {"l2": 100, "h1": 100}
MIN_ROUNDS = 5
# Operations of the checked pass and of a round: generate calls, one bases
# build, one train and one evaluate call per net, and (rounds) a set-up probe.
OPS_PREPARE = 2 + 1 + 2 * len(NETS)
OPS_ROUND = 1 + 1 + 2 * len(NETS) + 1
FD_SAMPLES, FD_DIRECTIONS = 3, 2
THREAD_SAMPLES = 4
EVAL_CHECK_SAMPLES = 2
L2_MARGIN = 0.01


def data_seeds(wl, seed):
    """Train and test dataset seeds of the checked pass."""
    if wl.data_seed is not None:
        seed = wl.data_seed
    return 2 * seed + 1, 2 * seed + 2


def chunk_seed(seed, index):
    """Dataset seed of the samples generated in timed round ``index``."""
    return 10**6 + 10**3 * seed + index


def setup(wl):
    """Build the workload's problem and push one sample through the
    forward model and its Jacobian, so lazy set-up is paid here."""
    grid = models.Grid(wl.grid_n)
    obs = models.lower_half_observation_nodes(grid, wl.sensors_per_side)
    model = models.RDModel(grid=grid, obs_nodes=obs)
    prior = models.PriorConfig(delta=PRIOR_DELTA, gamma=PRIOR_GAMMA, grid=grid)
    m = models.sample_prior(prior, np.random.default_rng(0))
    u = models.solve_state(model, m)
    models.jacobian_operator(model, m, u).apply(m)
    return model, prior


def probe_setup(workload):
    """Wall time of a fresh process that imports derivop and runs setup()."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0


def make_net(label, pair, ds):
    arch = NETS[label][0]
    if arch == "dipnet":
        d_in, d_out, kind = pair.rank_in, pair.rank_out, "reduced_basis"
    else:
        d_in, d_out, kind, pair = ds.d_m, ds.d_q, "generic", None
    widths = (d_in,) + (HIDDEN_WIDTH,) * HIDDEN_LAYERS + (d_out,)
    spec = netop.MLPSpec.dense(widths, init_seed=WEIGHT_SEED)
    return netop.OperatorModel(kind=kind, spec=spec,
                               weights=netop.NetworkWeights.init(spec),
                               bases=pair)


class Bench:
    """A workload's checked pass and its timed rounds."""

    def __init__(self, name, seed, tracer):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.tracer = tracer
        self.model, self.prior = setup(self.wl)
        self.done = 0  # operations completed
        self.rounds = 0
        self.times = defaultdict(list)  # stage -> [(seconds, reference index)]
        self.refs = []  # reference kernel times, in run order
        self.flops = defaultdict(int)
        self.chunks = []
        self.nets, self.histories, self.reports = {}, {}, {}

    def _op(self, fn, *args, **kwargs):
        result = fn(*args, **kwargs)
        self.done += 1
        return result

    def _timed(self, stage, fn, *args, **kwargs):
        """One operation as a stage call, between two reference runs."""
        if not self.refs:
            self.refs.append(speed.reference_seconds())
        with self.tracer.span(stage) as row:
            result = self._op(fn, *args, **kwargs)
        self.times[stage].append(
            (row[tracing.END] - row[tracing.START], len(self.refs) - 1))
        self.refs.append(speed.reference_seconds())
        return result

    def _train(self, label, epochs, run):
        cfg = NETS[label][1]
        net = make_net(label, self.pair, self.train_ds)
        return run(training.train, self.train_ds, net, cfg, epochs=epochs,
                   batch_size=BATCH_SIZE, seed=WEIGHT_SEED)

    def prepare(self):
        """The full pipeline once, untimed: datasets, bases, trained nets
        and their evaluation, which the checks and error metrics use."""
        wl = self.wl
        train_seed, test_seed = data_seeds(wl, self.seed)
        self.train_ds = self._op(datagen.generate_dataset, self.model,
                                 self.prior, wl.n_train, rank=wl.rank,
                                 seed=train_seed)
        self.test_ds = self._op(datagen.generate_dataset, self.model,
                                self.prior, wl.n_test, rank=wl.rank,
                                seed=test_seed)
        self.pair = self._op(bases.derivative_informed_bases, self.train_ds,
                             rank_in=wl.rank_in, rank_out=wl.rank_out)
        for label in NETS:
            epochs = ACCURACY_EPOCHS.get(label, max(wl.epochs[label], 2))
            self.nets[label], self.histories[label] = \
                self._train(label, epochs, self._op)
            self.reports[label] = self._op(metrics.evaluate, self.nets[label],
                                           self.test_ds)

    def round(self):
        """One timed call of every stage."""
        wl = self.wl
        self._timed("setup", probe_setup, self.name)
        self.chunks.append(self._timed(
            "generate", datagen.generate_dataset, self.model, self.prior,
            wl.gen_chunk, rank=wl.rank, seed=chunk_seed(self.seed, self.rounds)))
        self._timed("bases", bases.derivative_informed_bases, self.train_ds,
                    rank_in=wl.rank_in, rank_out=wl.rank_out)
        for label in NETS:
            flops0 = netop.PENALTY_FLOPS.count
            self._train(label, wl.epochs[label],
                        lambda *a, **k: self._timed(f"train.{label}", *a, **k))
            self.flops[label] += netop.PENALTY_FLOPS.count - flops0
        for label, net in self.nets.items():
            self._timed(f"eval.{label}", metrics.evaluate, net, self.test_ds)
        self.rounds += 1

    def stage_seconds(self, stage):
        """Median time of a stage call over the rounds, in reference units:
        each call's time over the mean of the reference runs before and
        after it, times speed.NOMINAL_S."""
        return speed.NOMINAL_S * statistics.median(
            t / (0.5 * (self.refs[i] + self.refs[i + 1]))
            for t, i in self.times[stage])

    def check(self):
        """Run every output check; returns the failure messages."""
        failures = []

        def run(name, fn, *args):
            try:
                detail = fn(*args)
            except checks.CheckFailed as exc:
                failures.append(f"{name}: {exc}")
            except Exception:  # noqa: BLE001 - report and run the other checks
                failures.append(f"{name}: {traceback.format_exc()}")
            else:
                note = "" if detail is None else f" (worst {detail:.2e})"
                print(f"check {name}: ok{note}")

        wl, model, train_ds = self.wl, self.model, self.train_ds
        train_seed, _ = data_seeds(wl, self.seed)
        for name, ds in (("train", train_ds), ("test", self.test_ds),
                         *((f"round{i}", c) for i, c in enumerate(self.chunks))):
            run(f"factors_{name}", checks.check_factors, ds)
        run("jacobian_fd", checks.check_jacobians_fd, model, train_ds,
            range(FD_SAMPLES), FD_DIRECTIONS, self.seed)
        run("dense_svd", lambda: checks.check_dense_svd(
            checks.dense_jacobian(model, train_ds.m[0]), train_ds.jacobian(0)))
        run("threads", lambda: checks.check_threads(
            train_ds, datagen.generate_dataset(
                model, self.prior, THREAD_SAMPLES, rank=wl.rank,
                seed=train_seed, threads=2)))
        run("round_trip", self._check_round_trip)
        for label in ("h1", "generic"):
            run(f"eval_{label}", checks.check_eval_bruteforce, self.nets[label],
                self.test_ds, self.reports[label], range(EVAL_CHECK_SAMPLES))
        run("dino_vs_l2", checks.check_dino_beats_l2,
            self.reports["h1"].accuracies, self.reports["l2"].accuracies,
            L2_MARGIN)
        for label, history in self.histories.items():
            run(f"loss_{label}", checks.check_loss_falls, label,
                history.train_loss)
        return failures

    def _check_round_trip(self):
        path = OUT / f"roundtrip-{os.getpid()}"
        try:
            datagen.save_dataset(self.train_ds, path)
            checks.check_round_trip(self.train_ds, path)
        finally:
            shutil.rmtree(path, ignore_errors=True)

    def end_to_end(self):
        """End-to-end metrics: stage times in reference units, medians over
        rounds, and the DINO errors of the checked pass."""
        wl, t = self.wl, self.stage_seconds
        out = {
            "setup_s": t("setup"),
            "gen_samples_per_s": wl.gen_chunk / t("generate"),
            "bases_s": t("bases"),
        }
        for label in NETS:
            out[f"train_{label}_samples_per_s"] = \
                wl.epochs[label] * wl.n_train / t(f"train.{label}")
        out["eval_samples_per_s"] = \
            len(NETS) * wl.n_test / sum(t(f"eval.{label}") for label in NETS)
        acc = self.reports["h1"].accuracies
        for name in ("l2", "h1", "gn"):
            out[f"dino_{name}_err"] = 1.0 - acc[name]
        out["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return out

    def per_layer(self, table):
        """Per-layer metrics from the spans of traced rounds."""
        wl, n = self.wl, self.rounds
        samples = n * wl.gen_chunk
        solves = table.count("models.solve_state", stage="generate")
        iters = table.count("models.state_jacobian",
                            parent="models.solve_state")
        residuals = table.count("models.residual", parent="models.solve_state")
        out = {
            "models.solve_state_ms": table.mean_ms("models.solve_state",
                                                   stage="generate"),
            "models.newton_iters": iters / solves,
            # Trial steps, accepted or not; equals the Newton count when no
            # step backtracks, as on both workloads today.
            "models.line_search_trials": (residuals - solves) / solves,
        }
        for name in ("residual", "state_jacobian", "parameter_jacobian",
                     "splu", "sample_prior", "jacobian_operator"):
            out[f"models.{name}_ms"] = table.mean_ms(f"models.{name}")
        out.update({
            "linalg.randomized_svd_ms": table.mean_ms("linalg.randomized_svd"),
            "linalg.solves_per_sample":
                table.columns("linalg.solve", stage="generate") / samples,
            "linalg.solve_ms": 1e3 * table.total("linalg.solve")
                / table.columns("linalg.solve"),
            "datagen.self_ms_per_sample":
                1e3 * table.total_self("datagen.generate_dataset") / samples,
            "datagen.reduce_dataset_ms":
                table.mean_ms("datagen.reduce_dataset"),
            "bases.input_gram_ms": table.mean_ms("bases.input_gram"),
            "bases.output_gram_ms": table.mean_ms("bases.output_gram"),
            "linalg.symmetric_eig_topk_ms":
                table.mean_ms("linalg.symmetric_eig_topk"),
        })
        for label in NETS:
            stage = f"train.{label}"
            epochs = n * wl.epochs[label]
            out[f"netop.loss_and_grad_ms.{label}"] = \
                table.mean_ms("netop.loss_and_grad", stage=stage)
            if label != "l2":
                out[f"netop.penalty_flops.{label}"] = \
                    self.flops[label] / (epochs * wl.n_train)
            out[f"training.self_ms_per_epoch.{label}"] = \
                1e3 * table.total_self("training.train", stage=stage) / epochs
        out["training.adam_step_ms"] = table.mean_ms("training.adam_step")
        out["netop.forward_ms"] = table.mean_ms("netop.forward", stage="eval")
        out["netop.parametric_jacobian_ms"] = \
            table.mean_ms("netop.parametric_jacobian", stage="eval")
        for name, fn in (("l2", "l2_accuracy"), ("h1", "h1_seminorm_accuracy"),
                         ("grad", "gradient_accuracy"),
                         ("gn", "gauss_newton_accuracies")):
            out[f"metrics.{name}_ms"] = table.mean_ms(f"metrics.{fn}")
        return out


def trace_report(table, tracer, stages, stem):
    """Self times, stage coverage and tracing overhead of a traced run."""
    layer_spans = sum(1 for row in tracer.spans if row[tracing.PARENT] >= 0)
    coverage = table.stage_coverage()
    del coverage["setup"]  # runs in a child process, where nothing is traced
    total = sum(entry["seconds"] for entry in coverage.values())
    cost = tracing.span_cost()
    overhead = {"layer_spans": layer_spans, "span_cost_us": 1e6 * cost,
                "estimated_share": layer_spans * cost / total}
    untraced = OUT / f"{stem}-stages.json"
    if untraced.is_file():
        # A stages file left by an older benchmark version may lack them.
        base = json.loads(untraced.read_text()).get("stages", {})
        overhead["vs_untraced"] = {name: stages[name] / base[name] - 1.0
                                   for name in stages if name in base}
    return {"self_s": table.self_times(), "stages": coverage,
            "overhead": overhead}


def write_json(path, payload):
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n")


def declared(kind):
    """name -> unit of the metrics BENCHMARK.json declares under ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        setup(WORKLOADS[args.workload])
        return 0
    units = declared("per_layer" if args.trace else "end_to_end")
    tracer = tracing.Tracer()
    bench = Bench(args.workload, args.seed, tracer)
    failures = []
    attempted = OPS_PREPARE
    try:
        bench.prepare()
        start = time.perf_counter()
        with tracer.installed() if args.trace else nullcontext():
            while (bench.rounds < MIN_ROUNDS
                   or time.perf_counter() - start < args.seconds):
                attempted += OPS_ROUND
                bench.round()
        failures += bench.check()
    except Exception:  # noqa: BLE001 - a failed operation ends the run
        failures.append(traceback.format_exc())
    failed = attempted - bench.done
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)

    values = {}
    stem = f"{args.workload}-seed{args.seed}"
    if not failed:
        table = tracing.SpanTable(tracer.spans)
        stages = {name: bench.stage_seconds(name) for name in bench.times}
        for name, seconds in stages.items():
            raw = statistics.median(t for t, _ in bench.times[name])
            print(f"stage {name}: {seconds:.4f} s in reference units, "
                  f"{raw:.4f} s raw (medians over {bench.rounds} rounds)")
        print(f"reference kernel: median {statistics.median(bench.refs):.4f} s, "
              f"nominal {speed.NOMINAL_S} s")
        if args.trace:
            values = bench.per_layer(table)
            report = trace_report(table, tracer, stages, stem)
            write_json(OUT / f"{stem}-trace.json", {
                "workload": args.workload, "seed": args.seed,
                "rounds": bench.rounds, "per_layer": values, **report,
                "fields": tracing.FIELDS, "spans": tracer.spans})
            print(f"tracing overhead: {json.dumps(report['overhead'])}")
        else:
            values = bench.end_to_end()
            write_json(OUT / f"{stem}-stages.json", {
                "stages": stages, "references": bench.refs,
                "calls": {name: calls for name, calls in bench.times.items()}})
        if set(values) != set(units):
            raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} "
                               "differ from BENCHMARK.json")
    correct = not failures
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units if name in values}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
