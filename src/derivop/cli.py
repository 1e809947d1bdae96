"""Command-line front end: generate -> bases -> train -> eval.

Every subcommand is a pure function of its flags and the referenced input
directories; reruns with identical flags reproduce outputs byte for byte.
"""

import argparse
import sys

from . import bases as bases_mod
from . import datagen, metrics, netop, training
from .models import Grid, PriorConfig, RDModel, ToyMap


def build_parser():
    parser = argparse.ArgumentParser(
        prog="derivop",
        description="Jacobian-compressed operator-learning pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a training dataset")
    gen.add_argument("--problem", choices=["rd", "toy"], default="rd")
    gen.add_argument("--grid", type=int, default=17,
                     help="nodes per side (rd problem)")
    gen.add_argument("--cnl", type=float, default=1.0,
                     help="cubic reaction coefficient")
    gen.add_argument("--delta", type=float, default=1.0)
    gen.add_argument("--gamma", type=float, default=0.1)
    gen.add_argument("--n", type=int, required=True, help="number of samples")
    gen.add_argument("--rank", type=int, default=None,
                     help="Jacobian SVD rank (default d_Q)")
    gen.add_argument("--oversample", type=int, default=10)
    gen.add_argument("--power-iters", type=int, default=1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    bas = sub.add_parser("bases", help="compute reduced bases from a dataset")
    bas.add_argument("--data", required=True)
    bas.add_argument("--method", choices=["derivative", "pca"],
                     default="derivative")
    bas.add_argument("--rank-in", type=int, default=None)
    bas.add_argument("--rank-out", type=int, default=None)
    bas.add_argument("--out", required=True)

    trn = sub.add_parser("train", help="train a neural operator")
    trn.add_argument("--data", required=True)
    trn.add_argument("--holdout", default=None,
                     help="optional dataset for per-epoch monitoring")
    trn.add_argument("--arch", choices=["dipnet", "generic"], required=True)
    trn.add_argument("--loss",
                     choices=["l2", "h1full", "h1trunc", "h1truncms"],
                     required=True)
    trn.add_argument("--bases", default=None,
                     help="basis directory (required for dipnet)")
    trn.add_argument("--hidden-width", type=int, default=None,
                     help="default: latent output width")
    trn.add_argument("--hidden-layers", type=int, default=6)
    trn.add_argument("--epochs", type=int, default=100)
    trn.add_argument("--batch-size", type=int, default=32)
    trn.add_argument("--lr", type=float, default=1e-3)
    trn.add_argument("--h1-weight", type=float, default=1.0)
    trn.add_argument("--k", type=int, default=None, help="MS subset size")
    trn.add_argument("--ms-mode", choices=["dependent", "independent"],
                     default="dependent")
    trn.add_argument("--ms-rescale", action="store_true")
    trn.add_argument("--ms-redraw", choices=["batch", "epoch"],
                     default="batch")
    trn.add_argument("--seed", type=int, default=0)
    trn.add_argument("--out", required=True)

    evl = sub.add_parser("eval", help="evaluate a trained model")
    evl.add_argument("--run", required=True, help="training run directory")
    evl.add_argument("--data", required=True, help="test dataset directory")
    evl.add_argument("--metrics", default=",".join(metrics.METRICS))
    evl.add_argument("--noise-pct", type=float, default=0.01)
    evl.add_argument("--noise-seed", type=int, default=0)
    evl.add_argument("--n-misfit", type=int, default=4)
    evl.add_argument("--out", required=True)
    return parser


_LOSS_NAMES = {"l2": "l2", "h1full": "h1_full", "h1trunc": "h1_truncated",
               "h1truncms": "h1_truncated_ms"}


def cmd_generate(args):
    if args.problem == "toy":
        model = ToyMap.default()
        prior = None
    else:
        grid = Grid(args.grid)
        model = RDModel(grid=grid, c_nl=args.cnl)
        prior = PriorConfig(delta=args.delta, gamma=args.gamma, grid=grid)
    ds = datagen.generate_dataset(
        model, prior, args.n, rank=args.rank, seed=args.seed,
        oversample=args.oversample, power_iters=args.power_iters)
    datagen.save_dataset(ds, args.out)
    print(f"wrote dataset: N={ds.n_samples} d_M={ds.d_m} d_Q={ds.d_q} "
          f"r={ds.rank} -> {args.out}")


def cmd_bases(args):
    ds = datagen.load_dataset(args.data)
    if args.method == "derivative":
        pair = bases_mod.derivative_informed_bases(
            ds, rank_in=args.rank_in, rank_out=args.rank_out)
    else:
        pair = bases_mod.pca_bases(ds, rank_in=args.rank_in,
                                   rank_out=args.rank_out)
    bases_mod.save_bases(pair, args.out)
    print(f"wrote {pair.tag} bases: rank_in={pair.rank_in} "
          f"rank_out={pair.rank_out} -> {args.out}")


def cmd_train(args):
    if args.hidden_layers < 0:
        raise ValueError(f"--hidden-layers must be >= 0, got "
                         f"{args.hidden_layers}")
    ds = datagen.load_dataset(args.data)
    holdout = datagen.load_dataset(args.holdout) if args.holdout else None
    variant = _LOSS_NAMES[args.loss]
    cfg = training.LossConfig(variant=variant, h1_weight=args.h1_weight,
                              k=args.k, ms_mode=args.ms_mode,
                              ms_rescale=args.ms_rescale,
                              ms_redraw=args.ms_redraw)
    if args.arch == "dipnet":
        if args.bases is None:
            raise ValueError("--arch dipnet requires --bases")
        pair = bases_mod.load_bases(args.bases)
        d_in, d_out = pair.rank_in, pair.rank_out
    else:
        pair = None
        d_in, d_out = ds.d_m, ds.d_q
    width = d_out if args.hidden_width is None else args.hidden_width
    widths = (d_in,) + (width,) * args.hidden_layers + (d_out,)
    spec = netop.MLPSpec.dense(widths, init_seed=args.seed)
    model = netop.OperatorModel(
        kind="reduced_basis" if args.arch == "dipnet" else "generic",
        spec=spec, weights=netop.NetworkWeights.init(spec), bases=pair)
    model, history = training.train(
        ds, model, cfg, epochs=args.epochs, batch_size=args.batch_size,
        seed=args.seed, holdout=holdout, alpha=args.lr)
    netop.save_model(model, f"{args.out}/model")
    training.write_history(history, f"{args.out}/history.jsonl")
    final = history.train_loss[-1] if history.train_loss else float("nan")
    print(f"trained {args.arch}/{args.loss}: {args.epochs} epochs, "
          f"final train loss {final:.6g} -> {args.out}")


def cmd_eval(args):
    model = netop.load_model(f"{args.run}/model")
    ds = datagen.load_dataset(args.data)
    selected = [m.strip() for m in args.metrics.split(",") if m.strip()]
    config = {"run": args.run, "data": args.data, "metrics": selected}
    report = metrics.evaluate(model, ds, metrics=selected,
                              noise_pct=args.noise_pct, seed=args.noise_seed,
                              n_misfit=args.n_misfit, config=config)
    report.save(args.out)
    summary = " ".join(f"{k}=" + ("n/a" if v is None else f"{v:.4f}")
                       for k, v in report.accuracies.items())
    print(f"eval: {summary} -> {args.out}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"generate": cmd_generate, "bases": cmd_bases,
                "train": cmd_train, "eval": cmd_eval}
    try:
        handlers[args.command](args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
