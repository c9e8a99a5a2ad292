"""The four benchmark workloads.

Each workload imports only the layers it drives (inside ``setup``), runs a
fixed list of short operations per pass, times each operation around the
library calls that make it up, and checks every output.  Checks run
outside the timed region.  Inputs come from the workload seed through
``random.Random("<workload>:<seed>")``, which is the same in every
process; the library only ever sees the derived values.

On a shared host the speed of a core changes every few tens of
milliseconds with its neighbours' load, by up to half.  So each op's time
is divided by that of a fixed probe loop timed right next to it and
reported at a reference speed (``OpClock``); the ratio follows the
program, not the host.

Why these four, and which layer metric should move which end-to-end
metric, is written down in NOTES.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from tracing import null_span


@dataclass
class Op:
    name: str
    seconds: float              # wall time
    problems: list[str]
    outcome: object = None      # compared across passes and traced/untraced
    timed_out: bool = False
    ref_seconds: float = 0.0    # at the reference host speed, see OpClock


# ---------------------------------------------------------------------------
# host speed

# What the probe takes on the reference host: a 2-vCPU Xeon VM, Python
# 3.11, when no neighbour slows it.  It only fixes the unit; a change to
# the program moves the ratio of its ops to the probe, a busy host does not.
REF_PROBE_S = 1.5e-3
_PROBE_TABLE = {i: (i * 31) % 1000 for i in range(4096)}


class _Cell:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v


def probe_seconds() -> float:
    """Time a fixed mix of interpreter work and SHA-256, about 1.5 ms."""
    t0 = time.perf_counter()
    acc, table = 0, _PROBE_TABLE
    for i in range(1500):
        cell = _Cell(table[(i * 7919) & 4095])
        acc = (acc + cell.v * 3) % 1000003
        acc ^= hash((acc, i)) & 15
    digest = b"probe"
    for _ in range(600):
        digest = hashlib.sha256(digest).digest()
    return time.perf_counter() - t0


class OpClock(list):
    """The ops of one pass, scaled to the reference host speed.

    After every ``group`` ops it times the probe and scales those ops by
    REF_PROBE_S over the mean of this probe and the one before them.
    """

    def __init__(self, group: int = 1):
        super().__init__()
        self.group = group
        self.pending: list[Op] = []
        self.last_probe = probe_seconds()

    def append(self, op: Op) -> None:
        super().append(op)
        self.pending.append(op)
        if len(self.pending) >= self.group:
            self.tick()

    def tick(self) -> None:
        probe = probe_seconds()
        scale = REF_PROBE_S / ((self.last_probe + probe) / 2)
        for op in self.pending:
            op.ref_seconds = op.seconds * scale
        self.pending.clear()
        self.last_probe = probe

    def settled(self) -> "OpClock":
        if self.pending:
            self.tick()
        return self


def _rss_mb(ru_maxrss_kib: int) -> float:
    return ru_maxrss_kib / 1024.0


class Workload:
    name = ""
    targets: list = []          # wrapped in a traced run, see tracing.Target
    # False: every pass gets the same inputs.  True: pass i gets inputs of
    # its own, the same for its untraced and traced runs.
    inputs_vary_by_pass = False
    min_passes = 1

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self) -> None:
        """Imports plus the one-time lazy work before the first timed op."""

    def run_pass(self, tracer, index: int) -> list[Op]:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks over the whole run, made after the last pass."""
        return []

    def peak_rss_mb(self) -> float:
        return _rss_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    def figures(self, passes) -> dict:
        """The workload's own figures, under the names its design uses."""
        raise NotImplementedError


@dataclass
class Pass:
    """What a checked pass keeps, so memory does not grow with run length."""

    seconds: array      # per op at the reference speed, in pass order
    wall: array         # per op, wall time
    names: tuple
    timeouts: int

    @classmethod
    def of(cls, ops: list[Op]) -> "Pass":
        return cls(array("d", (op.ref_seconds for op in ops)),
                   array("d", (op.seconds for op in ops)), tuple(op.name for op in ops),
                   sum(op.timed_out for op in ops))


def pass_seconds(passes: list[Pass]) -> float:
    """Median over the passes of a pass's time at the reference speed."""
    return statistics.median(sum(p.seconds) for p in passes)


def _timed(fn: Callable, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# mc-sweep: the criterion-6 loss-tolerance sweep on the vectorised walk


def _walk_count(extra_round: int):
    # trial-rounds walked: one abort round per trial, k (+1 for the tree's
    # reveal round) rounds each; the round count is the first argument
    def count(args, kwargs, result):
        return {"walk.trial_rounds": result.size * (args[0] + extra_round)}

    return count


def _steady_hazard(counts: dict[int, int], trials: int, k: int, m: int) -> float:
    """Per-round abort rate past a burn-in of 2m+2 rounds: aborts over
    survivor exposure, the estimator the criterion-6 slope is defined on."""
    burn = min(2 * m + 2, k)
    alive = trials - sum(c for r, c in counts.items() if r < burn)
    aborts = exposure = 0
    for r in range(burn, k + 2):
        exposure += alive
        aborts += counts.get(r, 0)
        alive -= counts.get(r, 0)
    return aborts / exposure if exposure else 0.0


class McSweep(Workload):
    """The criterion-6 sweep, cut into short estimates pooled over passes.

    Each pass runs the chain point and the three k=200 tree points at
    TRIALS trials each, on seeds of its own; the checks pool every
    untraced pass, so a run checks at least MIN_POOLED trials per point.
    """

    name = "mc-sweep"
    MPS = (0.005, 0.01, 0.02)
    M, K = 5, 200
    TRIALS = 10_000             # per point and pass
    MIN_POOLED = 100_000        # per point, over the run
    min_passes = MIN_POOLED // TRIALS   # untraced passes are pooled
    CHAIN = ("fq", 69, 0.01, 1)
    # A gate checked on every run of every seed needs a far smaller false
    # alarm rate than the 95% interval the report carries.
    CHAIN_ALPHA = 1e-6
    inputs_vary_by_pass = True
    targets = [
        ("relbc.analysis", "monte_carlo_reliability", "analysis.monte_carlo_reliability", None),
        ("relbc.analysis", "tree_abort_rounds", "analysis.tree_abort_rounds", _walk_count(1)),
        ("relbc.analysis", "chain_abort_rounds", "analysis.chain_abort_rounds", _walk_count(0)),
    ]

    def setup(self):
        from relbc import analysis

        self.an = analysis
        self.seed_base = self.rng.randrange(2**30)
        self.points = [("chain", self.CHAIN)] + [
            (f"tree_mp{mp}", ("tree", self.K, mp / self.M, self.M)) for mp in self.MPS
        ]
        # point -> [trials, survivors, abort counts per round, formula]
        self.pooled = {name: [0, 0, {}, None] for name, _ in self.points}
        analysis.monte_carlo_reliability("tree", 4, 0.01, self.M, 64, 0)
        analysis.monte_carlo_reliability("fq", 4, 0.01, 1, 64, 0)

    def run_pass(self, tracer, index):
        ops = OpClock()
        for j, (name, args) in enumerate(self.points):
            seed = self.seed_base + index * len(self.points) + j
            rep, seconds = _timed(self.an.monte_carlo_reliability, *args, self.TRIALS, seed)
            counts = {r: round(f * rep.trials) for r, f in rep.abort_round_freq.items()}
            if tracer is None:
                pool = self.pooled[name]
                pool[0] += rep.trials
                pool[1] += round(rep.p_ok_mc * rep.trials)
                for r, c in counts.items():
                    pool[2][r] = pool[2].get(r, 0) + c
                pool[3] = rep.p_ok_formula
            ops.append(Op(name, seconds, [], (rep.p_ok_mc, sorted(counts.items()))))
        return ops.settled()

    def finish(self):
        an, problems = self.an, []
        trials, n_ok, _, _ = self.pooled["chain"]
        lo, hi = an.clopper_pearson(n_ok, trials, alpha=self.CHAIN_ALPHA)
        target = (1 - self.CHAIN[2]) ** self.CHAIN[1]
        if not lo <= target <= hi:
            problems.append(f"chain interval [{lo}, {hi}] misses {target}")

        xs, ys = [], []
        for mp in self.MPS:
            trials, n_ok, counts, formula = self.pooled[f"tree_mp{mp}"]
            p_ok = n_ok / trials
            sigma = math.sqrt(max(p_ok * (1 - p_ok), 1e-12) / trials)
            if p_ok < formula - 3 * sigma:
                problems.append(f"mp={mp}: p_ok_mc {p_ok} below formula {formula} - 3 sigma")
            hazard = _steady_hazard(counts, trials, self.K, self.M)
            if hazard <= 0:
                return problems + [f"mp={mp}: no aborts past the burn-in"]
            xs.append(math.log(mp))
            ys.append(math.log(hazard))
        slope = self.slope = statistics.linear_regression(xs, ys).slope
        if abs(slope - 2.0) > 0.15:
            problems.append(f"abort-rate slope {slope} not within 2 +- 0.15")
        return problems

    def figures(self, passes):
        rounds = self.TRIALS * (self.CHAIN[1] + len(self.MPS) * (self.K + 1))
        return {"mc.trial_rounds_per_s": rounds / pass_seconds(passes),
                "mc.pooled_trials": self.pooled["chain"][0],
                "mc.slope": getattr(self, "slope", None)}


# ---------------------------------------------------------------------------
# events: event-driven tree runs at k=18 through sim.run_protocol


def _records_count(args, kwargs, result):
    return {"runs": 1, "nodes_scheduled": len(result.transcript.records)}


def _coloring_count(args, kwargs, result):
    return {"coloring.entries": len(getattr(result, "assignment", ()))}


class Events(Workload):
    name = "events"
    K, Q, N, P, M = 18, 101, 2, 0.02, 5
    # Runs per pass.  Each seed gives its own abort pattern, and a run's
    # cost follows the nodes it schedules; at 100 runs a pass's work varied
    # by several percent from seed to seed, at 1000 that averages out.
    BATCH = 1000
    PROBE_EVERY = 20            # runs, about 25 ms
    targets = [
        ("relbc.sim", "run_protocol", "sim.run_protocol", _records_count),
        ("relbc.field:Field", "sample_hashed", "field.sample_hashed", None),
        ("relbc.field", "derived_rng", "field.derived_rng", None),
        ("relbc.sim", "derived_rng", "field.derived_rng", None),
        ("relbc.tree", "make_coloring", "tree.make_coloring", _coloring_count),
        ("relbc.sim", "validate_causality", "sim.validate_causality", None),
        ("relbc.protocol", "verify_tree", "protocol.verify_tree", None),
        ("relbc.sim", "verify_tree", "protocol.verify_tree", None),
    ]

    def setup(self):
        from relbc import field, protocol, sim, tree

        self.sim, self.protocol, self.tree = sim, protocol, tree
        self.field = field.Field(self.Q)
        self.loss = sim.LossModel(p=self.P, m=self.M)
        self.geometry = sim.Geometry(n_stations=3)
        self.lib_seed = self.rng.randrange(2**31)
        self.d_offset = self.rng.randrange(2)
        self.events_slot = self.rng.randrange(10)
        self.roundtrip_slot = (self.events_slot + 1 + self.rng.randrange(9)) % 10
        self.cost_cap = self.K * 2 ** (self.N + 2) * math.log2(self.Q)
        # the first run pays for whatever the library builds once per depth
        self._run(0, 0, False)

    def _run(self, trial, d, collect):
        return self.sim.run_protocol(
            "tree", self.K, self.field, d=d, seed=self.lib_seed, trial=trial,
            loss=self.loss, prune_lag=self.N, collect_events=collect,
        )

    def run_pass(self, tracer, index):
        span = tracer.span if tracer else null_span
        sim, protocol = self.sim, self.protocol
        ops = OpClock(self.PROBE_EVERY)
        for trial in range(self.BATCH):
            if tracer:
                tracer.run_id = trial
            d = (trial + self.d_offset) % 2
            collect = trial % 10 == self.events_slot
            roundtrip = trial % 10 == self.roundtrip_slot
            t0 = time.perf_counter()
            res = self._run(trial, d, collect)
            violations = sim.validate_causality(res.events, self.geometry) if collect else []
            replay = None
            if roundtrip:
                with span("protocol.transcript_roundtrip"):
                    back = protocol.Transcript.from_json(res.transcript.to_json())
                coloring = self.tree.make_coloring(self.K, 3)
                replay = protocol.verify_tree(back, back.liveness(), coloring, self.field)
            seconds = time.perf_counter() - t0

            v, tr = res.verdict, res.transcript
            problems = []
            if v.outcome == "accept" and v.revealed != d:
                problems.append(f"trial {trial}: accept reveals {v.revealed}, committed {d}")
            elif v.outcome == "abort" and tr.abort_round is None:
                problems.append(f"trial {trial}: abort without an abort round")
            elif v.outcome not in ("accept", "abort"):
                problems.append(f"trial {trial}: honest run gave {v.outcome}")
            if collect and (not res.events or violations):
                problems.append(f"trial {trial}: event log empty or {len(violations)} violations")
            if replay is not None and (replay.outcome, replay.revealed) != (v.outcome, v.revealed):
                problems.append(f"trial {trial}: replayed transcript gave {replay.outcome}")
            if sim.comm_cost(tr, self.field) > self.cost_cap:
                problems.append(f"trial {trial}: cost above k*2^(N+2)*log2(q)")
            ops.append(Op("run", seconds, problems,
                          (v.outcome, v.revealed, tr.abort_round, len(tr.records))))
        return ops.settled()

    def figures(self, passes):
        runs = sorted(t * 1e3 for p in passes for t in p.wall)
        return {
            "events.runs_per_s": self.BATCH / pass_seconds(passes),
            "events.run_ms_p50": statistics.median(runs),
            "events.run_ms_p99": runs[min(len(runs) - 1, int(0.99 * len(runs)))],
            "events.run_samples": len(runs),
        }


# ---------------------------------------------------------------------------
# exact: exhaustive binding oracles and the restricted CHSH value


def _search_size(args, kwargs, result):
    return {"search_size": result[0].search_size}


def _game_tables(args, kwargs, result):
    spec = args[0]
    return {"game_tables": spec.field.q ** len(spec.support)}


class Exact(Workload):
    """The exact oracles at sizes that take milliseconds, not seconds.

    The depth-2 tree oracle runs at q=2, reduced and unreduced (the
    unreduced search must find the same optimum).  At q=3 one call takes
    about 8 s: a run would hold two, and probes 8 s apart say little about
    the host's speed in between.
    """

    name = "exact"
    targets = [
        ("relbc.adversary", "brute_force_tree", "adversary.brute_force_tree", _search_size),
        ("relbc.adversary", "brute_force_chain", "adversary.brute_force_chain", None),
        ("relbc.adversary", "brute_force_single", "adversary.brute_force_single", None),
        ("relbc.games", "chsh_value", "games.chsh_value", _game_tables),
    ]

    def setup(self):
        # The oracles take no random input: the seed only names the run.
        from relbc import adversary, field, games

        self.adv, self.games = adversary, games
        self.f2, self.f3, self.f5 = field.Field(2), field.Field(3), field.Field(5)
        self.spec = games.GameSpec.uniform(self.f5)
        # one untimed pass of warm-up
        self.run_pass(None, -1)

    def run_pass(self, tracer, index):
        adv, games = self.adv, self.games
        ops = OpClock()

        (report, detail), seconds = _timed(adv.brute_force_tree, self.f2, 2, reduced=True)
        problems = []
        strat = adv.argmax_strategy_table(self.f2, detail)
        try:
            adv.audit_information_constraint(strat)
        except AssertionError as exc:
            problems.append(f"argmax strategy fails the audit: {exc}")
        replayed = sum(adv.strategy_eval(strat))
        if abs(replayed - report.sum) > 1e-9:
            problems.append(f"tree argmax replays to {replayed}, oracle says {report.sum}")
        honest = sum(adv.strategy_eval(adv.honest_strategy_table(self.f2)))
        if not honest - 1e-9 <= report.sum <= 2.0:
            problems.append(f"tree sum {report.sum} outside [{honest}, 2]")
        ops.append(Op("brute_force_tree", seconds, problems, (report.sum, report.strategy_id)))
        reduced_sum = report.sum

        (report, _), seconds = _timed(adv.brute_force_tree, self.f2, 2, reduced=False)
        problems = [] if abs(report.sum - reduced_sum) <= 1e-9 else [
            f"unreduced tree sum {report.sum} differs from reduced {reduced_sum}"]
        ops.append(Op("brute_force_tree_unreduced", seconds, problems,
                      (report.sum, report.strategy_id)))

        report, seconds = _timed(adv.brute_force_chain, self.f3, 2)
        late = sum(adv.eval_chain_strategy(adv.late_decision_chain(self.f3), self.f3))
        problems = [] if late - 1e-9 <= report.sum <= 2.0 else [
            f"chain sum {report.sum} outside [{late}, 2]"]
        ops.append(Op("brute_force_chain", seconds, problems, (report.sum, report.strategy_id)))

        report, seconds = _timed(adv.brute_force_single, self.f5)
        # answering a constant opens d=0 always and d=1 once in q: (q+1)/q
        floor = 1 + 1 / self.f5.q
        problems = [] if floor - 1e-9 <= report.sum <= min(2.0, report.bound) else [
            f"single sum {report.sum} outside [{floor}, {min(2.0, report.bound)}]"]
        ops.append(Op("brute_force_single", seconds, problems, (report.sum, report.strategy_id)))

        value, seconds = _timed(games.chsh_value, self.spec)
        bound = games.chsh_bound(float(self.spec.max_y_prob), len(self.spec.support))
        problems = []
        if float(value.value) > bound + 1e-12:
            problems.append(f"chsh value {value.value} above bound {bound}")
        if games.win_probability(self.spec, value.f, value.g) != value.value:
            problems.append("chsh optimum does not replay to its value")
        ops.append(Op("chsh_value", seconds, problems, str(value.value)))
        return ops.settled()

    def figures(self, passes):
        return {
            "exact.oracle_solve_s": statistics.median(
                sum(t for t, n in zip(p.seconds, p.names) if n != "chsh_value") for p in passes),
            "exact.game_solve_s": statistics.median(
                t for p in passes for t, n in zip(p.seconds, p.names) if n == "chsh_value"),
        }


# ---------------------------------------------------------------------------
# cli: the README's commands, each a fresh interpreter


CMD_LIMIT_S = 10.0    # wall limit per command; a command past it is killed

# The README's k=200 command, exactly as written.  It does not finish yet:
# measure_comm_bits builds the whole 2^200-node coloring.  That known
# timeout is reported in cli.timeouts and counted at CMD_LIMIT_S, not as a
# failed check; any other timeout fails.
K200 = ("simulate", "--protocol", "tree", "--k", "200", "--q", "101", "--p", "0.002",
        "--m", "5", "--seed", "7", "--trials", "100000")


def _json_field(key: str):
    return lambda out: json.loads(out)[key]


def _table_shape(out: str):
    lines = out.splitlines()
    return ("epsilon_bound" in lines[0].split(), len(lines) - 2)


class Cli(Workload):
    name = "cli"
    KNOWN_TIMEOUTS = {"simulate_k200"}

    def setup(self):
        import relbc.cli  # noqa: F401  (what every command imports first)

        self.sim_seed = self.rng.randrange(1000)
        self.out_root = self.root / ".perfbench_out"
        self.out_root.mkdir(exist_ok=True)
        self.max_child_rss_mb = 0.0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.root / "src"), os.environ.get("PYTHONPATH")) if p
        )

    # (name, arguments, read the outcome from stdout, test of the outcome).
    # Outcomes are compared across passes, so none may carry a Monte Carlo
    # estimate: analysis salts its streams per process.  "{seed}" is the
    # workload's own seed for the transcript run.
    COMMANDS = [
        ("simulate_k200", K200,
         lambda out: 0.0 <= json.loads(out)["p_ok_mc"] <= 1.0, lambda ok: ok),
        ("bind_oracle", ("bind-oracle", "--protocol", "single", "--q", "2"),
         _json_field("sum"), lambda s: s == 1.5),
        ("chsh", ("chsh", "--q", "2", "--uniform"),
         _json_field("value"), lambda v: Fraction(v) == Fraction(3, 4)),
        ("bounds", ("bounds", "--k", "1,10,100", "--q", "97,1009",
                    "--invert-epsilon", "1e-6", "--pretty"),
         _table_shape, lambda shape: shape == (True, 9)),
        ("simulate_transcript", ("simulate", "--protocol", "tree", "--k", "10", "--q", "97",
                                 "--p", "0", "--seed", "{seed}", "--trials", "1",
                                 "--transcript-out", "run.json"),
         _json_field("p_ok_mc"), lambda p: p == 1.0),
        ("verify_transcript", ("verify-transcript", "run.json"),
         _json_field("outcome"), lambda o: o == "accept"),
    ]

    def run_pass(self, tracer, index):
        span = tracer.span if tracer else null_span
        workdir = Path(tempfile.mkdtemp(dir=self.out_root))
        self.env["RELBC_OUT_DIR"] = str(workdir)
        ops = []
        try:
            for name, args, read, expected in self.COMMANDS:
                args = [a.replace("{seed}", str(self.sim_seed)) for a in args]
                with span(f"cli.cmd.{name}"):
                    code, seconds, rss_mb, timed_out = self._child(args, workdir)
                problems, outcome = [], "timeout"
                if timed_out:
                    seconds = CMD_LIMIT_S
                    if name not in self.KNOWN_TIMEOUTS:
                        problems.append(f"{name}: killed at the {CMD_LIMIT_S}s limit")
                else:
                    self.max_child_rss_mb = max(self.max_child_rss_mb, rss_mb)
                    outcome = code
                    if code != 0:
                        problems.append(f"{name}: exit {code}")
                    else:
                        try:
                            outcome = read((workdir / "stdout").read_text())
                        except (ValueError, KeyError, IndexError) as exc:
                            problems.append(f"{name}: unreadable output ({exc})")
                        else:
                            if not expected(outcome):
                                problems.append(f"{name}: unexpected output {outcome!r}")
                # wall time, unscaled: the command runs in another process,
                # often on the other core, whose speed a probe here misses
                ops.append(Op(name, seconds, problems, outcome, timed_out, seconds))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return ops

    def _child(self, args, workdir: Path):
        """Run one command; returns (exit code, wall s, peak RSS MB, timed out)."""
        argv = [sys.executable, "-m", "relbc.cli", *args]
        with open(workdir / "stdout", "wb") as out, open(workdir / "stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=workdir, env=self.env, stdout=out, stderr=err)
            timed_out = True
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    timed_out = not select.select([pidfd], [], [], CMD_LIMIT_S)[0]
                finally:
                    os.close(pidfd)
            finally:
                if timed_out:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, seconds, _rss_mb(usage.ru_maxrss), timed_out

    def peak_rss_mb(self):
        return self.max_child_rss_mb

    def figures(self, passes):
        return {"cli.wall_s": pass_seconds(passes)}


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (McSweep, Events, Exact, Cli)
}
