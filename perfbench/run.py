"""relbc benchmark: one workload per invocation, result as the last line.

    python3 perfbench/run.py --workload events --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from its
``src/``.  ``--trace 0`` measures the end-to-end metrics with nothing
instrumented; ``--trace 1`` runs each pass untraced and then traced,
checks that both give identical outcomes, and reports the per-layer
metrics and the tracing overhead.  ``--workload all`` runs every workload
in turn and prints each metric by name with its unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records how the run was made (seed, nproc, versions, hash seed, commit).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

# One thread: keep BLAS pools out of this process and its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from tracing import Tracer  # noqa: E402
from workloads import REF_PROBE_S, WORKLOADS, Cli, Pass, pass_seconds, probe_seconds  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this fresh interpreter and exit")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up time


def timed_setup(wl) -> float:
    """One set-up, at the reference host speed (see workloads.OpClock)."""
    before = probe_seconds()
    t0 = time.perf_counter()
    wl.setup()
    seconds = time.perf_counter() - t0
    return seconds * REF_PROBE_S / ((before + probe_seconds()) / 2)


def setup_samples(wl, first: float) -> list[float]:
    """This process's set-up time plus set-ups in fresh interpreters.

    Imports can only be timed once per process, so further samples come
    from children run one at a time; short set-ups get more samples.
    """
    samples = [first]
    while len(samples) < 5 or (len(samples) < 9 and sum(samples) < 2.0):
        out = subprocess.run(
            [sys.executable, __file__, "--workload", wl.name, "--seed", str(wl.seed),
             "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# passes


def run_passes(wl, seconds: float, tracer):
    """Run passes until ``seconds`` have gone by and the workload's
    ``min_passes`` are done.

    Without a tracer every pass is untraced; with one, each pass is run
    untraced and then traced on the same inputs.  A pass must reproduce
    the outcomes of the first pass on the same inputs op for op, which is
    also the traced-equals-untraced check.  Returns the passes by kind,
    the ops attempted and the failed checks.
    """
    kinds = ("plain", "traced") if tracer else ("plain",)
    passes = {k: [] for k in kinds}
    attempted, problems = 0, []
    reference = {}
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        for kind in kinds:
            if kind == "traced":
                tracer.install(wl.targets)
            try:
                ops = wl.run_pass(tracer if kind == "traced" else None, index)
            finally:
                if kind == "traced":
                    tracer.uninstall()
                    tracer.fold()
            expected = reference.setdefault(
                index if wl.inputs_vary_by_pass else 0, [op.outcome for op in ops])
            for op, outcome in zip(ops, expected):
                if op.outcome != outcome:
                    op.problems.append(f"{op.name}: outcome differs from the first pass")
                if op.problems:
                    problems.append(op.problems)
            attempted += len(ops)
            passes[kind].append(Pass.of(ops))
        index += 1
        if time.perf_counter() >= deadline and index >= wl.min_passes:
            final = wl.finish()
            if final:
                problems.append(final)
            return passes, attempted, problems


# ---------------------------------------------------------------------------
# metrics


def end_to_end(wl, samples, passes) -> dict:
    return {
        "setup_s": (statistics.median(samples), "s"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
        "pass_s": (pass_seconds(passes), "s"),
    }


def per_layer(wl, samples, passes, tracer) -> dict:
    stats, counters, largest = tracer.stats["pass"], tracer.counters, tracer.largest
    runs = counters["runs"]

    def calls_per_run(name):
        return stats[name].calls / runs if runs else 0.0

    def mean(name, scale, self_time=False):
        st = stats[name]
        if not st.calls:
            return 0.0
        return (st.self_ns if self_time else st.total_ns) / st.calls * scale

    coloring_ns = max(tracer.stats[p]["tree.make_coloring"].max_ns for p in ("setup", "pass"))
    walk_ns = stats["analysis.tree_abort_rounds"].total_ns + stats["analysis.chain_abort_rounds"].total_ns
    walk_rounds = counters["walk.trial_rounds"]
    traced = passes["traced"]
    is_cli = isinstance(wl, Cli)

    m = {
        "field.sample_hashed.calls_per_run": (calls_per_run("field.sample_hashed"), "count"),
        "field.sample_hashed.us": (mean("field.sample_hashed", 1e-3), "us"),
        "field.derived_rng.calls_per_run": (calls_per_run("field.derived_rng"), "count"),
        "field.derived_rng.us": (mean("field.derived_rng", 1e-3), "us"),
        "tree.make_coloring.s": (coloring_ns * 1e-9, "s"),
        "tree.coloring.entries": (largest["coloring.entries"], "count"),
        "sim.run_protocol.self_ms": (mean("sim.run_protocol", 1e-6, self_time=True), "ms"),
        "sim.nodes_scheduled_per_run": (counters["nodes_scheduled"] / runs if runs else 0.0, "count"),
        "sim.validate_causality.ms": (mean("sim.validate_causality", 1e-6), "ms"),
        "protocol.verify_tree.us": (mean("protocol.verify_tree", 1e-3), "us"),
        "protocol.transcript_roundtrip.us": (mean("protocol.transcript_roundtrip", 1e-3), "us"),
        "analysis.tree_abort_rounds.s": (mean("analysis.tree_abort_rounds", 1e-9), "s"),
        "analysis.chain_abort_rounds.s": (mean("analysis.chain_abort_rounds", 1e-9), "s"),
        "analysis.walk.ns_per_trial_round": (walk_ns / walk_rounds if walk_rounds else 0.0, "ns"),
        "analysis.monte_carlo_reliability.self_s": (
            mean("analysis.monte_carlo_reliability", 1e-9, self_time=True), "s"),
        "adversary.brute_force_tree.s": (mean("adversary.brute_force_tree", 1e-9), "s"),
        "adversary.brute_force_tree.search_size": (largest["search_size"], "count"),
        "adversary.brute_force_chain.s": (mean("adversary.brute_force_chain", 1e-9), "s"),
        "adversary.brute_force_single.s": (mean("adversary.brute_force_single", 1e-9), "s"),
        "games.chsh_value.s": (mean("games.chsh_value", 1e-9), "s"),
        "games.chsh_value.tables": (largest["game_tables"], "count"),
        "cli.import_s": (statistics.median(samples) if is_cli else 0.0, "s"),
    }
    for name, *_ in Cli.COMMANDS:
        m[f"cli.cmd.{name}_s"] = (mean(f"cli.cmd.{name}", 1e-9), "s")
    m["cli.timeouts"] = (sum(p.timeouts for p in traced) / len(traced), "count")
    m["trace.overhead_pct"] = (
        (pass_seconds(traced) / pass_seconds(passes["plain"]) - 1.0) * 100.0, "%")
    return m


# ---------------------------------------------------------------------------
# run metadata


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_metadata(args) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(ROOT),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
    }


# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own interpreter, then one table of metrics."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        lines = proc.stdout.splitlines()
        res = json.loads(lines[-1])
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}  {json.loads(lines[-2])['figures']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:44s} {v['value']:>16.6g} {v['unit']}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "relbc" / "__init__.py").is_file():
        print(f"perfbench: no relbc sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)

    wl = WORKLOADS[args.workload](ROOT, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": timed_setup(wl)}))
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(wl.targets)
    try:
        first = timed_setup(wl)
    finally:
        if tracer:
            tracer.uninstall()
            tracer.fold()
            tracer.phase = "pass"
    src = sys.modules["relbc"].__file__
    if not src.startswith(str(ROOT / "src")):
        print(f"perfbench: relbc was imported from {src}, not this checkout", file=sys.stderr)
        return 1
    samples = setup_samples(wl, first)
    passes, attempted, problems = run_passes(wl, args.seconds, tracer)
    for op_problems in problems[:20]:
        print("check failed: " + "; ".join(op_problems), file=sys.stderr)

    meta = run_metadata(args)
    if tracer:
        metrics = per_layer(wl, samples, passes, tracer)
        tracer.write(OUT_DIR / f"spans-{wl.name}.jsonl", meta)
    else:
        metrics = end_to_end(wl, samples, passes["plain"])
    figures = wl.figures(passes["plain"])
    figures["pass_wall_s_median"] = statistics.median(sum(p.wall) for p in passes["plain"])
    figures["passes"] = len(passes["plain"])
    print(json.dumps({"meta": meta, "figures": figures}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
