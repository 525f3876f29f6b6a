"""Command-line front end.

Subcommands mirror the experiment drivers: ``probe``, ``rate``,
``lowerbound``, ``regret``, and ``check``.  Every flag can also come from a
JSON config file (``--config``); explicit flags win: a flag's ``dest`` is the
``ExperimentConfig`` field it sets, whose kind (``config.FIELDS``) gives the
flag's type and choices.  Exit code 0 iff all assertions of
the invoked experiment pass, 1 if one fails, and 2 for input
the experiment cannot run with (a config or domain error, reported in one
line on stderr).  ``--log-level`` sends the ``zograd`` loggers' records
at that level and above to stderr, so stdout stays one line.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
from typing import Optional, Sequence

from ..core import DomainError
from .config import FIELDS, ConfigError, ExperimentConfig, read_config_file
from .experiments import (
    lower_bound_experiment,
    probe_experiment,
    rate_experiment,
    regret_experiment,
)
from .probes import SE_SLACK, VAR_FACTOR


LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


# command -> (help, its flags): a word ``name`` is a flag --name and ``flag=field`` a flag --flag; each sets
# that config field and takes the field's type and choices.  Probes draw on streams of their own.  ``check``
# takes no flags but --log-level.
COMMANDS = {
    "probe": ("bias/variance probe of one oracle over a delta grid",
              "reps=probe_reps oracle=oracle_spec delta_grid"),
    "rate": ("optimization-error rate fit over a horizon grid",
             "reps=replications class=problem_class estimator noise sigma horizons tol=tolerance"),
    "lowerbound": ("hard-pair floor experiment", "reps=replications class=problem_class p q c1 c2 n"),
    "regret": ("cumulative-regret rate fit",
               "reps=replications class=problem_class p q estimator sigma horizons tol=tolerance"),
    "check": ("run the full property suite; exit 0 iff all pass", None),
}


@functools.cache  # built once per process and command: every default is None, so no call leaves state in it
def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI's parser: with ``command``, of that subcommand alone, which
    parses an argv that starts with it as the full parser does; without,
    of all of them, for ``--help`` and an argv whose first word is no command."""
    parser = argparse.ArgumentParser(
        prog="zograd",
        description="Biased noisy gradient oracles: estimator probes, rate and regret "
        "experiments, and minimax floor checks.",
    )
    # the full parser's metavar is its choices, so the one-command parser's usage reads the same
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if command is None else "{" + ",".join(COMMANDS) + "}")
    for name, (text, words) in COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=text)
        p.add_argument("--log-level", type=str.upper, choices=LOG_LEVELS, default=None,
                       help="log the zograd package's records at this level and above to stderr")
        if words is None:
            continue
        p.add_argument("--config", help="JSON config file; explicit flags override it")
        for word in f"seed=master_seed out workers {words}".split():
            flag, _, dest = word.partition("=")
            dest = dest or flag
            kind = FIELDS[dest][0]
            p.add_argument(f"--{flag.replace('_', '-')}", dest=dest, type=kind.read,
                           choices=kind.names or None, default=None, help=_HELP.get(flag))
    return parser


_HELP = {"seed": "master seed", "out": "CSV output path (JSON summary sits next to it)",
         "oracle": "oracle spec, e.g. 'one-point,fn=quadratic,sigma=1.0'"}


def _load_config(args: argparse.Namespace, experiment: str) -> ExperimentConfig:
    """The config file's fields, then every flag that was given (not None),
    each under its ``dest``.  A regret run whose (p, q) are given and whose
    estimator neither a flag nor the file names runs the matching cell."""
    data = read_config_file(args.config) if args.config else {}
    data.update((k, v) for k, v in vars(args).items() if v is not None and k not in ("command", "config", "log_level"))
    cfg = ExperimentConfig.from_dict({**data, "experiment": experiment})
    if experiment == "regret" and "estimator" not in data:
        return _pick_regret_estimator(cfg)
    return cfg


def _pick_regret_estimator(cfg: ExperimentConfig) -> ExperimentConfig:
    """``cfg`` on the estimator cell that matches its (p, q), where both are
    given.  Only for an unnamed estimator: a named one wins, and the
    experiment checks its (p, q)."""
    if cfg.p is None or cfg.q is None:
        return cfg
    table = {(2.0, 2.0): "smoothing", (1.0, 2.0): "one-point"}
    est = table.get((float(cfg.p), float(cfg.q)))
    if est is None:
        raise ConfigError(f"p/q: no estimator cell for (p={cfg.p}, q={cfg.q})")
    return cfg.with_overrides(estimator=est)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    if args.log_level is None:
        return _main(args)
    # attached for this call only, so repeated calls in one process do not stack handlers
    logger, handler = logging.getLogger("zograd"), logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s:%(name)s:%(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(args.log_level)
    try:
        return _main(args)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _main(args: argparse.Namespace) -> int:
    try:
        if args.command == "check":
            from .checks import run_checks  # only the check suite compiles it

            return run_checks()
        cfg = _load_config(args, args.command)
        if args.command == "probe":
            report = probe_experiment(cfg)
            print(f"{report.experiment_id}: envelopes {'OK' if report.passed else 'VIOLATED'}")
            for row in report.details["rows"]:
                print(
                    f"  delta={row['delta']:g} "
                    f"bias={row['bias']:.4g} (<= {row['c1_bound']:.4g} + {SE_SLACK:g}se "
                    f"{SE_SLACK * row['bias_se']:.2g}) var={row['var']:.4g} (<= {VAR_FACTOR:g}*"
                    f"{row['c2_bound']:.4g} + {SE_SLACK:g}se {SE_SLACK * row['var_se']:.2g})"
                )
        elif args.command == "rate":
            report = rate_experiment(cfg)
            fit = report.fit
            print(
                f"{report.experiment_id}: exponent {fit.exponent:.4f} "
                f"(target {report.target_exponent:.4f} +- {cfg.tolerance}), "
                f"r^2 {fit.r_squared:.4f} -> {'PASS' if report.passed else 'FAIL'}"
            )
        elif args.command == "lowerbound":
            report = lower_bound_experiment(cfg)
            d = report.details
            print(
                f"{report.experiment_id}: mean {d['mean_error']:.5g} + 3se "
                f"{d['mean_plus_3se']:.5g} vs floor {d['floor']:.5g} "
                f"(exact-oracle sanity {d['exact_oracle_error']:.2g}) -> "
                f"{'PASS' if report.passed else 'FAIL'}"
            )
        elif args.command == "regret":
            report = regret_experiment(cfg)
            d = report.details
            print(
                f"{report.experiment_id}: regret growth exponent "
                f"{d['regret_growth_exponent']:.4f} (target {d['target_growth_exponent']:.4f} "
                f"+- {cfg.tolerance}) -> {'PASS' if report.passed else 'FAIL'}"
            )
    except (ConfigError, DomainError) as exc:  # on one line, whatever line breaks a named key holds
        print("config error:" if isinstance(exc, ConfigError) else "domain error:", *str(exc).splitlines(),
              file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # a closed form that inputs of extreme magnitude take out of float range
        print(f"domain error: the inputs take a closed form out of float range ({exc})", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
