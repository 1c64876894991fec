"""Do a pfgr run's set-up and exit: import pfgr and build the certified model.

Usage: python3 perfbench/setup_probe.py PFGR-ARGS...

The arguments are parsed exactly as the pfgr command line parses them, and
the model is generated with the same call `pfgr.cli.run` makes.  A suite
selection that needs no model (the window suite) stops after the import.
The caller times this process from launch to exit.
"""

import sys

from pfgr import cli, geometry


def main(argv):
    args = cli.build_parser().parse_args(argv)
    config = cli.config_from_args(args)
    config.validate()
    if "geometry" in config.suites or "mf" in config.suites:
        geometry.random_model(config.seed, field=config.make_field(), q=config.q,
                              d=config.d, census_qs=config.census_qs)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
