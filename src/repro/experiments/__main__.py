"""Run experiments from the command line: ``python -m repro.experiments fig8``.

Exits 1 when any claim check of the run fails, and 2 on a usage error —
among them ``--scale`` for an experiment whose ``run`` takes no scale.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import ConfigurationError
from . import experiment_ids, get_experiment
from .base import scale_kwargs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate a figure/table from the paper.",
    )
    parser.add_argument("experiment", nargs="?", help="experiment id (see --list)")
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument(
        "--scale", type=float, default=None,
        help="relation-size scale, for experiments whose run takes one",
    )
    parser.add_argument(
        "--all", action="store_true", help="run every registered experiment"
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="also write <id>.txt and <id>.tsv files into DIR",
    )
    arguments = parser.parse_args(argv)

    if arguments.list:
        print("\n".join(experiment_ids()))
        return 0
    if arguments.all:
        selected = experiment_ids()
    elif arguments.experiment:
        selected = [arguments.experiment]
    else:
        parser.print_help()
        return 2
    runs = []
    for experiment_id in selected:
        run = get_experiment(experiment_id)
        try:
            runs.append((run, scale_kwargs(experiment_id, run,
                                           arguments.scale)))
        except ConfigurationError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    failed = []
    for run, kwargs in runs:
        result = run(**kwargs)
        print(result.render())
        if arguments.all:
            print()
        if arguments.out:
            txt_path, tsv_path = result.save(arguments.out)
            if not arguments.all:
                print(f"\nwrote {txt_path} and {tsv_path}")
        failed.extend(f"{result.experiment_id}: {description}"
                      for description, passed in result.checks if not passed)
    if failed:
        print("failed checks:", *failed, sep="\n  ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
