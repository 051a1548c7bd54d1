"""Command line entry point for the three experiment drivers."""

import argparse
import logging
import sys
from dataclasses import fields

from . import harness

RUNNERS = {
    "exp-k": harness.run_exp_k,
    "exp-H": harness.run_exp_H,
    "exp-rb": harness.run_exp_rb,
}


def _counts(text):
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected comma separated integers, got %r" % text) from None


def _add_common(sub):
    sub.add_argument("--config", help="JSON file with config keys; flags override")
    sub.add_argument("--p", type=int, help="fine mesh exponent, h = 2^-p")
    sub.add_argument("--q", type=int, help="coarse mesh exponent, H = 2^-q")
    sub.add_argument("--kmax", type=int, help="largest patch size for exp-k")
    sub.add_argument("--tau", type=float, help="time step")
    sub.add_argument("--T", type=float, help="final time")
    sub.add_argument("--seed", type=int, help="coefficient seed")
    sub.add_argument("--contrast-lo", dest="lo", type=float, help="coefficient lower bound")
    sub.add_argument("--contrast-hi", dest="hi", type=float, help="coefficient upper bound")
    sub.add_argument("--law", choices=harness.LAWS, help="value distribution")
    sub.add_argument("--block", type=int, help="block granularity in fine cells (0: per element)")
    sub.add_argument("--M", type=_counts, help="comma separated snapshot counts for exp-rb")
    sub.add_argument("--scale", choices=harness.SCALES, help="problem size preset")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--svg", action="store_const", const=True, help="also write an SVG plot")
    sub.add_argument("--cache", help="corrector cache directory")
    sub.add_argument("--workers", type=int, choices=[1],
                     help="patch solves run serially; only 1 is accepted")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sdwave",
        description="Multiscale experiments for the strongly damped wave equation",
    )
    subparsers = parser.add_subparsers(dest="experiment", required=True)
    for name, help_text in (
        ("exp-k", "localization error against the patch size"),
        ("exp-H", "convergence against the coarse mesh width"),
        ("exp-rb", "reduced-basis compression error"),
    ):
        _add_common(subparsers.add_parser(name, help=help_text))
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)

    # every config field has a flag of the same dest
    overrides = {f.name: getattr(args, f.name) for f in fields(harness.ExperimentConfig)
                 if getattr(args, f.name) is not None}

    cfg = harness.config_from_sources(args.experiment, args.config, overrides)
    rows, meta = RUNNERS[args.experiment](cfg)
    name = args.experiment.replace("-", "_")
    paths = harness.emit(rows, cfg.out, name, svg=cfg.svg, meta=meta)
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
