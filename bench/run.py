"""Seeded end-to-end benchmark of the contrablock CLI.

Run from the repository root:

    python3 bench/run.py --workload vc-enumerate --seed 1 --seconds 20 --trace 0

One client runs the workload's seeded corpus through ``contrablock.cli.main``
in this process, one query after another (a closed loop on one thread),
capturing stdout, timing each call and checking each answer.  Whole passes
over the corpus repeat until the timed query time reaches ``--seconds``;
every pass runs the same queries, so the metrics do not depend on where the
time limit falls.  Later passes must print the same bytes as the first,
and after the last pass the first pass's output is checked against
bench-local oracles, so that their memory stays out of ``peak_rss_mb``.

At least five passes run, and each query's latency is its median over the
passes.  Every reported time is normalized by a gauge timed after each
query (see ``GAUGE_SECONDS``); the report keeps the wall-clock figures.
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs
one untraced pass, whose output is the one checked, then alternates untraced passes with traced
ones, in which every public contrablock function is wrapped in a span, at
least three of each.  It reports per-layer metrics for one corpus pass (the
median over the traced passes) and the tracing overhead.  The last
stdout line is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full report (run metadata, digests, slowest queries) and
the spans go to ``.bench_out/`` under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import corpus
import oracle
from spans import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 15
MIN_PASSES = 5  # per-query medians over five passes ride out slow spells of the machine
MIN_TRACED_PASSES = 3
LAYERS = ("cli", "graphs", "vertex_cover", "bipartite_contraction", "contraction_vc",
          "transversal", "reductions")
TRACED_FUNCTIONS = (
    "cli.main", "graphs.parse_graph", "graphs.contract_set", "graphs.Graph.from_edges",
    "graphs.bipartition", "graphs.induced_subgraph", "graphs.shortest_odd_cycle",
    "bipartite_contraction.bc_decide", "vertex_cover.vc_branching",
    "vertex_cover.vc_with_modulator", "vertex_cover.vc_bipartite", "vertex_cover.maximum_matching",
    "contraction_vc.algorithm1", "contraction_vc.two_approx_drop",
    "transversal.odd_cycle_transversal", "transversal.feedback_vertex_set",
    "transversal.min_transversal", "transversal.contains", "transversal.find_dropping_edge",
    "reductions.verify_claims", "reductions.brute_force_sat", "reductions.parse_cnf",
)
BUILDERS = ("reductions.build_double_copy_instance", "reductions.build_subdivided_clique_instance",
            "reductions.build_path_instance")

# The machine the benchmark was written on shares its cores with other
# tenants, and its speed drifts: ten runs in a row saw the same workload's
# throughput move between 38 and 62 queries per second.  So every time the
# benchmark reports is normalized by a gauge, a fixed bench-local graph
# computation timed after each query.  A time t measured while the gauge
# takes g seconds is reported as t * GAUGE_SECONDS / g: seconds on a machine
# where the gauge takes GAUGE_SECONDS, which is about its time on the
# machine the benchmark was written on.  The report keeps the raw figures.
# The gauge is a breadth-first odd-cycle search, dict and set work like the
# program's; it followed the program's speed better than a bitmask cover
# search (see README.md).
GAUGE_SECONDS = 4.8e-4
_GAUGE_RNG = random.Random(0)
_GAUGE_GRAPH = (20, [e for e in combinations(range(20), 2) if _GAUGE_RNG.random() < 0.15])


def gauge() -> float:
    """Seconds for one run of the gauge computation, with the collector off
    so that the program's heap does not change it."""
    gc.disable()
    try:
        start = time.perf_counter()
        oracle.odd_cycle_packing(*_GAUGE_GRAPH)
        return time.perf_counter() - start
    finally:
        gc.enable()


def normalize(latencies: list[float], gauges: list[float]) -> list[float]:
    """Each latency scaled by the gauge's median over the nine samples
    around it."""
    return [t * GAUGE_SECONDS / statistics.median(gauges[max(0, i - 4):i + 5])
            for i, t in enumerate(latencies)]


def import_cli():
    """Import contrablock afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "contrablock" or m.startswith("contrablock.")]:
        del sys.modules[name]
    cli = importlib.import_module("contrablock.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"contrablock imported from {cli.__file__}, not from {SRC}")
    return cli


def run_query(cli, argv) -> tuple[float, str, str | None]:
    """(seconds, stdout, error) of one in-process CLI call; error is None
    when the call returned exit code 0."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            error = f"exit code {code}: {err.getvalue().strip()[:200]}"
    except SystemExit as exc:
        error = f"exit {exc.code}: {err.getvalue().strip()[:200]}"
    except Exception as exc:  # a crashing query is a counted failure, not a benchmark crash
        error = f"raised {exc!r}"
    return time.perf_counter() - start, out.getvalue(), error


def setup(warmup_argv: list[str]):
    """Import contrablock afresh and run the warm-up query, several times;
    returns the last cli module and the median set-up time, normalized and
    raw."""
    times, gauges = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cli = import_cli()
        run_query(cli, warmup_argv)
        times.append(time.perf_counter() - start)
        gauges.append(statistics.median(gauge() for _ in range(9)))
    setup_s = statistics.median(normalize(times, gauges))
    return cli, setup_s, statistics.median(times)


@dataclass
class Pass:
    wall: list[float]  # seconds per query
    gauges: list[float]  # gauge seconds after each query
    layer_self: list[dict]  # traced passes: per query, self seconds by span name

    @property
    def latencies(self) -> list[float]:
        return normalize(self.wall, self.gauges)

    @property
    def speed(self) -> float:
        """Factor that turns this pass's wall seconds into normalized ones."""
        return GAUGE_SECONDS / statistics.median(self.gauges)


class Runner:
    """Runs passes over one corpus and keeps the error of every query run."""

    def __init__(self, cli, queries):
        self.cli = cli
        self.queries = queries
        self.reference: list[str] | None = None  # stdout of the first pass
        self.errors: list[list[str | None]] = []  # per pass, per query
        self.labels: list[str] = []  # argv of every query run, by query number

    def run_pass(self, recorder: SpanRecorder | None = None) -> Pass:
        wall, gauges, outputs, errors, layer_self = [], [], [], [], []
        for i, q in enumerate(self.queries):
            if recorder is not None:
                recorder.begin_query(len(self.labels))
                before = list(recorder.self_s)
            self.labels.append(q.label)
            seconds, out, error = run_query(self.cli, q.argv)
            if recorder is not None:
                layer_self.append({recorder.names[j]: s - before[j]
                                   for j, s in enumerate(recorder.self_s) if s > before[j]})
            wall.append(seconds)
            gauges.append(gauge())
            outputs.append(out)
            if error is None and self.reference is not None and out != self.reference[i]:
                error = "output differs from first pass"
            errors.append(error)
        if self.reference is None:
            self.reference = outputs
        self.errors.append(errors)
        return Pass(wall, gauges, layer_self)

    def verdict(self) -> tuple[int, int, list[dict]]:
        """Check the first pass's output with the oracles; returns (attempted,
        failed, first failures).  A query whose output fails its check fails
        in every pass, since every pass printed the same bytes."""
        checks = []
        for q, out, error in zip(self.queries, self.reference, self.errors[0]):
            if error is None:
                try:
                    error = q.check(out)
                except ValueError as exc:  # output the check could not parse
                    error = f"unreadable output: {exc}"
            checks.append(error)
        attempted, failed, failures = 0, 0, []
        for errors in self.errors:
            for q, run_error, check_error in zip(self.queries, errors, checks):
                error = run_error or check_error
                attempted += 1
                if error is not None:
                    failed += 1
                    if len(failures) < 20:
                        failures.append({"query": q.label, "error": error})
        return attempted, failed, failures

    def output_sha256(self) -> str:
        return hashlib.sha256("".join(self.reference).encode()).hexdigest()


def slowest(queries, passes: list[Pass], count=5) -> list[dict]:
    """The slowest queries by median wall time, with the per-layer self time
    of their first traced run when there is one."""
    wall = median_latencies([p.wall for p in passes])
    rows = []
    for i in sorted(range(len(queries)), key=lambda i: -wall[i])[:count]:
        row = {"argv": queries[i].label, "wall_ms": wall[i] * 1e3}
        if passes[0].layer_self:
            row["self_s"] = dict(sorted(passes[0].layer_self[i].items(), key=lambda kv: -kv[1]))
        rows.append(row)
    return rows


def run_metadata(seed: int, trace: bool) -> dict:
    src_lines = sum(
        sum(1 for line in p.read_text(encoding="utf-8").splitlines() if line.strip())
        for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "trace": trace,
        "src_lines": src_lines,
    }


def git_sha() -> str:
    """HEAD commit read from ``.git`` without running git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kilobytes on Linux


def end_to_end(latencies: list[float], setup_s: float) -> dict:
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "queries_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "latency_p90_ms": {"value": deciles[8] * 1e3, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def snapshot(rec: SpanRecorder):
    return list(rec.calls), list(rec.self_s), Counter(rec.branches), Counter(rec.calls_from)


def layer_metrics(rec: SpanRecorder, traces, before, after) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the spans recorded between two snapshots."""
    calls = {n: after[0][i] - before[0][i] for i, n in enumerate(rec.names)}
    self_s = {n: after[1][i] - before[1][i] for i, n in enumerate(rec.names)}
    branches, calls_from = after[2] - before[2], after[3] - before[3]
    out = {}
    for fn in TRACED_FUNCTIONS:
        out[f"{fn}.calls"] = (calls[fn], "count")
        out[f"{fn}.self_s"] = (self_s[fn], "s")
    out["reductions.build_instance.calls"] = (sum(calls[b] for b in BUILDERS), "count")
    out["reductions.build_instance.self_s"] = (sum(self_s[b] for b in BUILDERS), "s")
    for label in traces:
        out[f"contraction_vc.branch.{label}"] = (branches[label], "count")
    runs = calls["contraction_vc.algorithm1"]
    subsets = calls_from["graphs.contract_set", "contraction_vc"]
    out["contraction_vc.subsets_per_query"] = (subsets / runs if runs else 0.0, "ratio")
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = (
            sum(s for n, s in self_s.items() if n.startswith(layer + ".")), "s")
    return out


def median_latencies(passes: list[list[float]]) -> list[float]:
    """Each query's median latency over the passes: a burst of load from
    another process slows a few queries of one pass and drops out here."""
    return [statistics.median(p[i] for p in passes) for i in range(len(passes[0]))]


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        spans_path: Path | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, full report).  A traced run
    writes its spans to ``spans_path`` when one is given."""
    OUT.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(prefix="inputs-", dir=OUT)
    try:
        # Generating and writing the corpus is the benchmark's own work, so
        # set-up time leaves it out.
        built = corpus.build(workload, seed, directory, tiny)
        built.write()
        # Keep the collector from rescanning the benchmark's own long-lived
        # objects (corpus, checks) inside timed set-ups and queries.
        gc.collect()
        gc.freeze()
        cli, setup_s, setup_wall = setup(built.queries[0].argv)
        rss_after_setup = peak_rss_mb()
        runner = Runner(cli, built.queries)
        untraced = [runner.run_pass()]
        measured = sum(untraced[0].wall)
        report = {"workload": workload, "metadata": run_metadata(seed, trace),
                  "queries_per_pass": len(built.queries), "input_sha256": built.input_sha256,
                  "waits": "none: one client thread, no queues or worker pools"}
        if not trace:
            while measured < seconds or len(untraced) < MIN_PASSES:
                untraced.append(runner.run_pass())
                measured += sum(untraced[-1].wall)
            metrics = end_to_end(median_latencies([p.latencies for p in untraced]), setup_s)
            report["wall_metrics"] = end_to_end(median_latencies([p.wall for p in untraced]), setup_wall)
            report["slowest"] = slowest(built.queries, untraced)
        else:
            modules = [sys.modules[f"contrablock.{m}"] for m in LAYERS] + [sys.modules["contrablock"]]
            rec = SpanRecorder(modules)
            traces = sys.modules["contrablock.contraction_vc"].TRACES
            traced, per_pass = [], []
            # Untraced and traced passes alternate, so that both see the same
            # spells of machine load and their difference is the tracing cost.
            while measured < seconds or len(traced) < MIN_TRACED_PASSES:
                untraced.append(runner.run_pass())
                with rec:
                    before = snapshot(rec)
                    traced.append(runner.run_pass(rec))
                    per_pass.append(layer_metrics(rec, traces, before, snapshot(rec)))
                measured += sum(untraced[-1].wall) + sum(traced[-1].wall)
            metrics = {
                name: {"value": statistics.median(
                    m[name][0] * (p.speed if unit == "s" else 1) for m, p in zip(per_pass, traced)),
                    "unit": unit}
                for name, (_, unit) in per_pass[0].items()
            }
            untraced_qps = len(built.queries) / sum(median_latencies([p.latencies for p in untraced[1:]]))
            traced_qps = len(built.queries) / sum(median_latencies([p.latencies for p in traced]))
            metrics["trace.queries_per_s_untraced"] = {"value": untraced_qps, "unit": "1/s"}
            metrics["trace.queries_per_s_traced"] = {"value": traced_qps, "unit": "1/s"}
            metrics["trace.overhead_frac"] = {"value": 1 - traced_qps / untraced_qps, "unit": "ratio"}
            report["slowest"] = slowest(built.queries, traced)
            if spans_path is not None:
                rec.write_spans(str(spans_path), runner.labels)
                report["spans"] = {"file": spans_path.name, "stored": len(rec.span_id),
                                   "dropped": rec.dropped}
        rss_after_passes = peak_rss_mb()
        attempted, failed, failures = runner.verdict()
        report["peak_rss_mb"] = {"after_setup": rss_after_setup, "after_passes": rss_after_passes,
                                 "after_checks": peak_rss_mb()}
        report["gauge_s"] = statistics.median(g for p in untraced for g in p.gauges)
        report["passes"] = len(runner.errors)
        report["output_sha256"] = runner.output_sha256()
        report["failures"] = failures
        report["metrics"] = metrics
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        return result, report
    finally:
        gc.unfreeze()
        shutil.rmtree(directory, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "contrablock" / "__init__.py").is_file():
        print(f"error: no contrablock sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace),
                         spans_path=OUT / f"spans-{args.workload}.tsv")
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes={report['passes']} "
          f"queries_per_pass={report['queries_per_pass']}")
    print(f"input_sha256={report['input_sha256']} output_sha256={report['output_sha256']}")
    print(f"report={path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
