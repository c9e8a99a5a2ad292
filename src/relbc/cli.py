"""Command-line entry point.

Subcommands: ``simulate`` (Monte Carlo reliability runs), ``bind-oracle``
(exact binding search), ``chsh`` (restricted-game value and ceiling),
``bounds`` (binding-ceiling tables), ``verify-transcript`` (replay an
exported transcript).  Machine-readable JSON/CSV is the primary output;
``--pretty`` renders the same data as text tables.

Each subcommand imports only the layers it runs: ``simulate`` the Monte
Carlo layer (``relbc.analysis``, with numpy), ``bind-oracle`` and
``chsh`` the exact oracles, and ``bounds`` the closed forms
(``relbc.formulas``) alone.

``simulate`` runs the event engine only for output it prints: every
trial under ``--engine events``, whose first ``analysis.COMM_SAMPLES``
runs are also the cost samples of a table (``--out-csv`` or ``--pretty``,
whose rows have the cost columns); under the walk, those cost samples
alone; and one run for ``--transcript-out``.  Its one work-budget check
counts exactly those runs.

Exit codes: 0 success, 1 validation error, 2 enumeration-budget refusal.
All randomness flows from the ``--seed`` argument through named substreams
(per trial, per station, per node), so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import tree as tt
from .field import Field
from .protocol import KIND_TREE, KINDS, Transcript, resolve, verify_tree
from .sim import ResourceGuardError

OUT_DIR_ENV = "RELBC_OUT_DIR"


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the bad field."""


# Every key a config file may hold, with its default; a flag of the same
# name overrides it.  N is the pruning lag.
CONFIG_DEFAULTS = {
    "protocol": KIND_TREE, "k": 10, "q": 97, "p": 0.0, "m": 1, "n_stations": 3, "N": 2,
    "seed": None, "trials": 1000, "engine": "fast", "out_csv": None, "out_json": None,
}


@dataclass
class ExperimentConfig:
    protocol: str
    k: int
    q: int
    p: float
    m: int
    n_stations: int
    prune_lag: int
    seed: Optional[int]
    trials: int
    engine: str = "fast"
    out_csv: Optional[str] = None
    out_json: Optional[str] = None

    def validate(self) -> None:
        errs = self._type_errors()
        if errs:
            raise ConfigError("; ".join(errs))
        if self.protocol not in KINDS:
            errs.append(f"protocol: must be one of {KINDS}, got {self.protocol!r}")
        if self.k < 1:
            errs.append(f"k: must be >= 1, got {self.k}")
        try:
            Field(self.q)
        except ValueError as exc:
            errs.append(f"q: {exc}")
        if not 0.0 <= self.p <= 1.0:
            errs.append(f"p: must be in [0,1], got {self.p}")
        if self.m < 1:
            errs.append(f"m: must be >= 1, got {self.m}")
        if self.protocol == KIND_TREE:
            try:
                tt.check_tree_stations(self.n_stations)
            except ValueError as exc:
                errs.append(str(exc))
        if self.prune_lag < 1:
            errs.append(f"N: pruning lag must be >= 1, got {self.prune_lag}")
        if self.seed is None:
            errs.append("seed: required for simulation (reproducibility contract)")
        elif self.seed < 0:
            errs.append(f"seed: must be >= 0, got {self.seed}")
        if self.trials < 1:
            errs.append(f"trials: must be >= 1, got {self.trials}")
        if self.engine not in ("fast", "events"):
            errs.append(f"engine: must be 'fast' or 'events', got {self.engine!r}")
        if errs:
            raise ConfigError("; ".join(errs))

    def _type_errors(self) -> list[str]:
        """One message per field whose value has the wrong JSON type; a
        config file can hold any type, and bools are not numbers here."""
        def is_int(v) -> bool:
            return isinstance(v, int) and not isinstance(v, bool)

        checks = [
            ("protocol", self.protocol, isinstance(self.protocol, str), "a string"),
            ("k", self.k, is_int(self.k), "an integer"),
            ("q", self.q, is_int(self.q), "an integer"),
            ("p", self.p, is_int(self.p) or isinstance(self.p, float), "a number"),
            ("m", self.m, is_int(self.m), "an integer"),
            ("n_stations", self.n_stations, is_int(self.n_stations), "an integer"),
            ("N", self.prune_lag, is_int(self.prune_lag), "an integer"),
            ("seed", self.seed, self.seed is None or is_int(self.seed), "an integer"),
            ("trials", self.trials, is_int(self.trials), "an integer"),
            ("engine", self.engine, isinstance(self.engine, str), "a string"),
            ("out_csv", self.out_csv, self.out_csv is None or isinstance(self.out_csv, str), "a string"),
            ("out_json", self.out_json, self.out_json is None or isinstance(self.out_json, str), "a string"),
        ]
        return [f"{name}: expected {want}, got {value!r:.40}" for name, value, ok, want in checks if not ok]

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "ExperimentConfig":
        doc = {}
        if args.config:
            try:
                doc = json.loads(Path(args.config).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"config: {exc}") from exc
            if not isinstance(doc, dict):
                raise ConfigError("config: top level must be a JSON object")
            unknown = [key for key in doc if key not in CONFIG_DEFAULTS]
            if unknown:
                raise ConfigError("; ".join(f"config: unknown key {key!r:.40}" for key in unknown))
        def pick(name, default):
            cli_val = getattr(args, name, None)
            return doc.get(name, default) if cli_val is None else cli_val
        fields = {name: pick(name, default) for name, default in CONFIG_DEFAULTS.items()}
        fields["prune_lag"] = fields.pop("N")
        cfg = cls(**fields)
        cfg.validate()
        cfg.p = float(cfg.p)  # a config file's 0 or 1 reports as --p does
        cfg.protocol, cfg.k, cfg.n_stations = resolve(cfg.protocol, cfg.k, cfg.n_stations)
        return cfg


def _out_path(path: str) -> Path:
    base = os.environ.get(OUT_DIR_ENV)
    p = Path(path)
    if base and not p.is_absolute():
        return Path(base) / p
    return p


def _emit(text: str, path: Optional[str], flag: str = "out") -> None:
    """Write ``text`` to ``path``, or print it when no path is given; a
    path that cannot be written is bad input naming its ``flag``, and so
    is a stdout that cannot be written, named ``stdout``."""
    if path:
        target = _out_path(path)
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)
        except OSError as exc:
            raise ConfigError(f"{flag}: {exc}") from exc
    else:
        try:
            if sys.stdout is None:  # Python's stdout when fd 1 was closed at start-up
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            print(text, end="" if text.endswith("\n") else "\n", flush=True)
        except OSError as exc:
            raise ConfigError(f"stdout: {exc}") from exc


def _check_out_path(path: str, flag: str) -> None:
    """Refuse, before any work, an output path that ``_emit`` cannot write:
    a directory, a path below a file, or one that may not be written."""
    target = _out_path(path)
    parent = target.parent
    while not parent.exists() and parent != parent.parent:
        parent = parent.parent  # _emit makes the missing directories
    if target.is_dir():
        code = errno.EISDIR
    elif not parent.is_dir():
        code = errno.ENOTDIR
    elif not os.access(target if target.exists() else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ConfigError(f"{flag}: {OSError(code, os.strerror(code), str(target))}")


def _pretty_table(rows: list[dict]) -> str:
    cols = list(dict.fromkeys(c for r in rows for c in r))  # every row's, first seen first
    widths = {c: max(len(c), *(len(_fmt(r.get(c))) for r in rows)) for c in cols}
    lines = ["  ".join(c.ljust(widths[c]) for c in cols)]
    lines.append("  ".join("-" * widths[c] for c in cols))
    for r in rows:
        lines.append("  ".join(_fmt(r.get(c)).ljust(widths[c]) for c in cols))
    return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return "" if v is None else str(v)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import analysis, formulas  # loaded only by the commands that use them

    cfg = ExperimentConfig.from_args(args)
    # Every output path is tried before any work, and nothing is written
    # until every output is built, so a refusal leaves no file behind.
    for flag, path in (("transcript-out", args.transcript_out), ("out-csv", cfg.out_csv),
                       ("out-json", cfg.out_json)):
        if path:
            _check_out_path(path, flag)
    # Only a printed table (CSV or --pretty) has the cost columns, so only
    # then do the cost samples run.
    table = bool(cfg.out_csv or args.pretty)
    comm_samples = min(cfg.trials, analysis.COMM_SAMPLES) if table else 0
    # Every work budget is checked here, before the walk or any run starts,
    # on exactly the event-engine runs that follow.
    events = cfg.engine == "events"
    analysis.check_budget(
        cfg.protocol, cfg.k,
        walk_trials=0 if events else cfg.trials,
        event_runs=(cfg.trials if events else comm_samples) + bool(args.transcript_out),
        n_stations=cfg.n_stations, prune_lag=cfg.prune_lag,
    )
    if table:
        # a cost formula too large for a float is bad input, refused before the walk
        formulas.comm_bits_formula(cfg.protocol, cfg.k, cfg.q, cfg.prune_lag)
    rep = analysis.monte_carlo_reliability(
        cfg.protocol,
        cfg.k,
        cfg.p,
        cfg.m,
        cfg.trials,
        cfg.seed,
        n_stations=cfg.n_stations,
        engine=cfg.engine,
        q_modulus=cfg.q,
        prune_lag=cfg.prune_lag,
        comm_samples=comm_samples,
    )
    outputs: list[tuple[str, Optional[str], str]] = []  # (text, path, flag)
    if args.transcript_out:
        from .sim import LossModel, run_protocol
        res = run_protocol(
            cfg.protocol, cfg.k, Field(cfg.q), d=args.commit_bit,
            seed=cfg.seed, trial=0, loss=LossModel(p=cfg.p, m=cfg.m),
            n_stations=cfg.n_stations, prune_lag=cfg.prune_lag,
        )
        outputs.append((res.transcript.to_json() + "\n", args.transcript_out, "transcript-out"))
    if table:
        row = analysis.report_row(rep, cfg.q, cfg.prune_lag, rep.comm_bits_mean)
        if cfg.out_csv:
            outputs.append((analysis.rows_to_csv([row]), cfg.out_csv, "out-csv"))
        if args.pretty:
            outputs.append((_pretty_table([row]), None, "out"))
    # --pretty replaces stdout only: --out-json is written whenever given
    if cfg.out_json or not args.pretty:
        outputs.append((rep.to_json() + "\n", cfg.out_json, "out-json"))
    # stdout's text first, so a stdout that fails leaves no file behind
    for text, path, flag in sorted(outputs, key=lambda out: out[1] is not None):
        _emit(text, path, flag)
    return 0


def _search_budget(budget: Optional[int], default: int) -> int:
    """``--budget``, or the search's own default when it is not given."""
    if budget is None:
        return default
    # a budget below 1 admits no search at all: bad input, not a refusal
    if budget < 1:
        raise ConfigError(f"budget: must be >= 1, got {budget}")
    return budget


def cmd_bind_oracle(args: argparse.Namespace) -> int:
    # the exact oracles load only for the two commands that search
    from . import adversary

    budget = _search_budget(args.budget, adversary.DEFAULT_BUDGET)
    field = Field(args.q)
    report = adversary.brute_force_binding(args.protocol, args.k, field, budget=budget)
    if args.pretty:
        _emit(_pretty_table([json.loads(report.to_json())]), None)
    else:
        _emit(report.to_json() + "\n", args.out)
    return 0


def _parse_y_dist(text: str, q: int) -> tuple[Fraction, ...]:
    try:
        entries = tuple(Fraction(t.strip()) for t in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"y-dist: {exc}") from exc
    if len(entries) != q:
        raise ConfigError(f"y-dist: need {q} entries, got {len(entries)}")
    return entries


def cmd_chsh(args: argparse.Namespace) -> int:
    from . import games

    if args.uniform and args.y_dist is not None:
        raise ConfigError(
            "y-dist: --uniform and --y-dist each set the second input's distribution; give one"
        )
    budget = _search_budget(args.budget, games.DEFAULT_BUDGET)
    field = Field(args.q)
    support = None if args.support is None else tuple(_int_list(args.support, "support"))
    y_dist = None if args.y_dist is None else _parse_y_dist(args.y_dist, args.q)
    # The search budget is checked on the sizes alone, before a default
    # support or a uniform distribution of q entries is built.
    games.check_budget(
        args.q,
        args.q if support is None else len(support),
        args.q if y_dist is None else sum(1 for p in y_dist if p > 0),
        budget,
    )
    if support is None:
        support = tuple(range(args.q))
    if y_dist is not None:
        spec = games.GameSpec(field, support, y_dist)
    else:
        spec = games.GameSpec.uniform(field, support)
    value = games.chsh_value(spec, budget=budget)
    out = value.to_json(spec)
    if args.pretty:
        doc = json.loads(out)
        _emit(
            f"q={doc['q']}  |S|={len(doc['S'])}  p={doc['p']}\n"
            f"value = {doc['value']} ({doc['value_float']:.6g})\n"
            f"bound = {doc['bound']:.6g}   gap = {doc['gap']:.6g}\n",
            None,
        )
    else:
        _emit(out + "\n", args.out)
    return 0


def _int_list(text: str, name: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def cmd_bounds(args: argparse.Namespace) -> int:
    from . import formulas

    rows = formulas.bound_table(
        _int_list(args.k, "k"), _int_list(args.q, "q"), _int_list(args.n, "n"), args.invert_epsilon
    )
    if args.pretty:
        _emit(_pretty_table(rows), None)
    else:
        _emit(json.dumps(rows, indent=2) + "\n", args.out)
    return 0


def cmd_verify_transcript(args: argparse.Namespace) -> int:
    try:
        text = Path(args.transcript).read_text()
        tr = Transcript.from_json(text)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"transcript: {exc}") from exc
    verdict = verify_tree(tr, tr.liveness(), tt.make_coloring(tr.k, tr.n_stations), Field(tr.q))
    _emit(
        json.dumps(
            {
                "outcome": verdict.outcome,
                "revealed": verdict.revealed,
                "reason": verdict.reason,
            },
            indent=2,
        )
        + "\n",
        args.out,
    )
    return 0


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors (an unknown flag, a bad
    value, a missing required flag) raise ConfigError, so they exit 1
    like any other bad input instead of argparse's exit 2, and whose
    help text goes to stdout as every other output does."""

    def error(self, message: str):
        raise ConfigError(message)

    def print_help(self, file=None):
        """``--help`` prints through ``_emit``, so a stdout that cannot be
        written exits 1 as it does for any other output."""
        if file is None:
            _emit(self.format_help(), None)
        else:
            super().print_help(file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="relbc",
        description="Relativistic bit-commitment laboratory: simulators, "
        "exact cheating oracles and bound tables.",
    )
    sub = parser.add_subparsers(dest="command")

    sim = sub.add_parser("simulate", help="Monte Carlo reliability runs")
    sim.add_argument("--config", help="JSON config file; flags override it")
    sim.add_argument("--protocol", choices=KINDS)
    sim.add_argument("--k", type=int)
    sim.add_argument("--q", type=int)
    sim.add_argument("--p", type=float)
    sim.add_argument("--m", type=int)
    sim.add_argument("--n-stations", type=int, dest="n_stations")
    sim.add_argument("--N", type=int, dest="N", help="pruning information lag")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--trials", type=int)
    sim.add_argument("--engine", choices=("fast", "events"))
    sim.add_argument("--out-csv", dest="out_csv",
                     help="also write the report row, cost columns included, as CSV")
    sim.add_argument("--out-json", dest="out_json", help="write the JSON report here, not to stdout")
    sim.add_argument("--transcript-out", help="also export one replayable transcript")
    sim.add_argument("--commit-bit", type=int, default=0, choices=(0, 1))
    sim.add_argument("--pretty", action="store_true",
                     help="print the report row, cost columns included, as a table")
    sim.set_defaults(func=cmd_simulate)

    bo = sub.add_parser("bind-oracle", help="exact sum-binding search")
    bo.add_argument("--protocol", choices=KINDS, required=True)
    bo.add_argument("--k", type=int, default=2)
    bo.add_argument("--q", type=int, required=True)
    bo.add_argument("--budget", type=int)
    bo.add_argument("--out")
    bo.add_argument("--pretty", action="store_true")
    bo.set_defaults(func=cmd_bind_oracle)

    ch = sub.add_parser("chsh", help="restricted-game classical value")
    ch.add_argument("--q", type=int, required=True)
    ch.add_argument("--support", help="comma-separated residues for the first input")
    ch.add_argument("--uniform", action="store_true",
                    help="uniform second-input distribution (the default; "
                         "not with --y-dist)")
    ch.add_argument("--y-dist", dest="y_dist",
                    help="comma-separated rationals, one per residue")
    ch.add_argument("--budget", type=int)
    ch.add_argument("--out")
    ch.add_argument("--pretty", action="store_true")
    ch.set_defaults(func=cmd_chsh)

    bd = sub.add_parser("bounds", help="binding-ceiling tables")
    bd.add_argument("--k", default="2", help="comma-separated list")
    bd.add_argument("--q", default="97", help="comma-separated list")
    bd.add_argument("--n", default="3", help="comma-separated station counts")
    bd.add_argument("--invert-epsilon", type=float,
                    help="also report the minimal modulus hitting this target, per (n, k)")
    bd.add_argument("--out")
    bd.add_argument("--pretty", action="store_true")
    bd.set_defaults(func=cmd_bounds)

    vt = sub.add_parser("verify-transcript", help="replay an exported transcript")
    vt.add_argument("transcript")
    vt.add_argument("--out")
    vt.set_defaults(func=cmd_verify_transcript)

    return parser


def dispatch(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except ResourceGuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
