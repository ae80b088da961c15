"""Command-line interface.

Subcommands cover algebra inspection (show, check), the two training
demos (train-xor, train-synth-images) and the parameter-count report.
Exit codes: 0 success, 1 quality-gate failure, 2 usage or validation
error. The default seed is 42; the KHNN_SEED environment variable
overrides it when --seed is absent.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .algebra import (check_alternative, check_associative, check_commutative,
                      check_unit, load_algebra, multiplication_table, predefined,
                      predefined_names, write_atomic)
from .datasets import XOR_X, XOR_Y, motif_splits
from .layers import Activation, Dense, GlobalMaxPool, HyperConv2D, HyperDense
from .model import Sequential
from .training import Adam, SGD, TrainingDiverged, evaluate, fit

DEFAULT_SEED = 42


class CliError(Exception):
    """Validation failure mapped to exit code 2."""


def _resolve_algebra(ref):
    try:
        return predefined(ref)
    except KeyError:
        pass
    if os.path.exists(ref):
        return load_algebra(ref)
    raise CliError(f"unknown algebra {ref!r} and no such file; predefined "
                   f"names: {', '.join(predefined_names())}")


def _seed_from(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("KHNN_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise CliError(f"KHNN_SEED={env!r} is not an integer") from exc
    return DEFAULT_SEED


def _make_optimizer(kind, lr, adam_lr=0.001):
    if kind == "adam":
        return Adam(lr=adam_lr if lr is None else lr)
    return SGD(lr=0.015 if lr is None else lr)


def cmd_algebra_show(args):
    algebra = _resolve_algebra(args.algebra)
    table = multiplication_table(algebra)
    n = algebra.dim
    label = algebra.name or args.algebra
    print(f"{label} (dim {n})")
    headers = [f"e{j}" for j in range(n)]
    width = max(len(cell) for row in table for cell in row)
    width = max(width, max(len(h) for h in headers))
    lead = max(len(h) for h in headers)
    print(" " * lead + " | " + "  ".join(h.ljust(width) for h in headers).rstrip())
    print("-" * lead + "-+-" + "-" * ((width + 2) * n - 2))
    for i, row in enumerate(table):
        print(f"e{i}".ljust(lead) + " | "
              + "  ".join(cell.ljust(width) for cell in row).rstrip())
    return 0


def cmd_algebra_check(args):
    algebra = _resolve_algebra(args.algebra)
    unit = check_unit(algebra)
    print(f"dim:         {algebra.dim}")
    print(f"unit:        {unit}")
    print(f"associative: {check_associative(algebra)}")
    print(f"commutative: {check_commutative(algebra)}")
    print(f"alternative: {check_alternative(algebra)}")
    return 0 if unit else 1


def _xor_model(algebra, seed):
    return Sequential([
        HyperDense(4, algebra=algebra),
        Activation("tanh"),
        Dense(1),
        Activation("sigmoid"),
    ], seed=seed)


def cmd_train_xor(args):
    algebra = _resolve_algebra(args.algebra)
    seed = _seed_from(args)
    model = _xor_model(algebra, seed)
    optimizer = _make_optimizer(args.optimizer, args.lr)
    history = fit(model, XOR_X, XOR_Y, epochs=args.epochs, optimizer=optimizer)
    os.makedirs(args.out, exist_ok=True)
    history.to_csv(os.path.join(args.out, "history.csv"))

    pred = model.predict(XOR_X)
    rounded = (pred >= 0.5).astype(int).ravel()
    targets = XOR_Y.astype(int).ravel()
    print("prediction  rounded  target")
    for p, r, t in zip(pred.ravel(), rounded, targets):
        print(f"{p:10.6f}  {r:7d}  {t:6d}")
    correct = int((rounded == targets).sum())
    print(f"correct: {correct}/{len(targets)}")
    print(f"history: {os.path.join(args.out, 'history.csv')}")
    return 0 if correct == len(targets) else 1


def cmd_train_synth_images(args):
    algebra = _resolve_algebra(args.algebra)
    seed = _seed_from(args)
    model = Sequential([
        HyperConv2D(args.filters, (3, 3), algebra=algebra),
        GlobalMaxPool(),
        Dense(1),
        Activation("sigmoid"),
    ], seed=seed + 1)
    (x_train, y_train), val, (x_test, y_test) = motif_splits(
        seed=seed, alpha_zero=args.alpha_zero)
    # one full-batch step per epoch, so the default step size is larger
    # than the optimizer's mini-batch default
    optimizer = _make_optimizer(args.optimizer, args.lr, adam_lr=0.01)
    history = fit(model, x_train, y_train, epochs=args.epochs,
                  optimizer=optimizer, validation=val, verbose=True)
    os.makedirs(args.out, exist_ok=True)
    history.to_csv(os.path.join(args.out, "history.csv"))

    test_loss, test_acc = evaluate(model, x_test, y_test)
    write_atomic(os.path.join(args.out, "eval.csv"),
                 f"loss,accuracy\n{test_loss:.9g},{test_acc:.9g}\n")
    print(f"test loss {test_loss:.6f}  test accuracy {test_acc:.4f}")
    print(f"outputs: {os.path.join(args.out, 'history.csv')}, "
          f"{os.path.join(args.out, 'eval.csv')}")
    return 0


def cmd_param_report(args):
    for flag in ("units", "filters", "kernel", "width"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise CliError(f"--{flag} must be >= 1, got {value}")
    algebra = _resolve_algebra(args.algebra)
    n = algebra.dim
    # the hyper layer and its real twin, of the same output width; their
    # parameter shapes come from the layers, which allocate nothing here
    if args.units is not None:
        layers = (HyperDense(args.units, algebra=algebra), Dense(args.units * n))
        in_shape = (args.width,)
        label = f"dense, units={args.units}, input width={args.width}"
    else:
        k = args.kernel
        layers = (HyperConv2D(args.filters, k, algebra=algebra),
                  HyperConv2D(args.filters * n, k, algebra="reals"))
        in_shape = (k, k, args.width)
        label = (f"conv2d, filters={args.filters}, kernel={k}x{k}, "
                 f"input channels={args.width}")
    (hyper_w, bias), (real_w, real_bias) = (
        [math.prod(shape) for shape in layer.param_shapes(in_shape)]
        for layer in layers)
    name = algebra.name or args.algebra
    print(f"algebra: {name} (dim {n})")
    print(f"layer:   {label}")
    print(f"{'':14}{'hyper':>10}{'real':>10}")
    print(f"{'weights':14}{hyper_w:>10}{real_w:>10}")
    print(f"{'biases':14}{bias:>10}{real_bias:>10}")
    print(f"weight ratio (real/hyper): {real_w // hyper_w}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="khnn",
        description="Neural-network layers over structure-constants algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("algebra-show", help="print a multiplication table")
    show.add_argument("algebra", help="predefined name or algebra JSON file")
    show.set_defaults(func=cmd_algebra_show)

    check = sub.add_parser("algebra-check", help="report algebra laws")
    check.add_argument("algebra", help="predefined name or algebra JSON file")
    check.set_defaults(func=cmd_algebra_check)

    def training_flags(p, epochs):
        p.add_argument("--epochs", type=int, default=epochs)
        p.add_argument("--lr", type=float, default=None,
                       help="learning rate (default: optimizer-specific)")
        p.add_argument("--optimizer", choices=("sgd", "adam"), default="adam")
        p.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (default {DEFAULT_SEED}, or KHNN_SEED)")
        p.add_argument("--out", default=".", help="output directory for CSVs")

    xor = sub.add_parser("train-xor", help="train the four-point parity demo")
    xor.add_argument("--algebra", default="quaternions")
    training_flags(xor, epochs=500)
    xor.set_defaults(func=cmd_train_xor)

    synth = sub.add_parser("train-synth-images",
                           help="train on the synthetic 4-channel motif images")
    synth.add_argument("--algebra", default="quaternions")
    synth.add_argument("--filters", type=int, default=8)
    synth.add_argument("--alpha-zero", action="store_true",
                       help="clear channel 0 (the unit axis) in the generator")
    training_flags(synth, epochs=30)
    synth.set_defaults(func=cmd_train_synth_images)

    report = sub.add_parser("param-report",
                            help="compare hyper vs real parameter counts")
    report.add_argument("--algebra", default="quaternions")
    group = report.add_mutually_exclusive_group(required=True)
    group.add_argument("--units", type=int, default=None)
    group.add_argument("--filters", type=int, default=None)
    report.add_argument("--kernel", type=int, default=3,
                        help="square kernel size for the conv comparison")
    report.add_argument("--width", type=int, required=True,
                        help="input width (dense) or input channels (conv)")
    report.set_defaults(func=cmd_param_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1
    except (CliError, ValueError) as exc:   # AlgebraError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
