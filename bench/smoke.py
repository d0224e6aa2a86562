"""Smoke test of the benchmark itself.

Run from the repository root:

    python3 bench/smoke.py

Runs every workload on its tiny corpus and checks that no query fails, that
the input and output digests repeat for the same seed, that a traced run
prints the same bytes as an untraced one, that another seed changes the
inputs, and that the span recorder restores every function it patched.
Exits 1 and lists the problems when a check fails.
"""

from __future__ import annotations

import sys

import corpus
import run
from spans import SpanRecorder

SEED = 7


def _bindings(modules) -> dict:
    """Every attribute of the modules and of the classes they define."""
    owners = list(modules) + [obj for m in modules for obj in vars(m).values()
                              if isinstance(obj, type) and obj.__module__.startswith("contrablock")]
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def check_restore(problems: list[str]) -> None:
    run.import_cli()
    modules = [sys.modules[f"contrablock.{m}"] for m in run.LAYERS] + [sys.modules["contrablock"]]
    before = _bindings(modules)
    with SpanRecorder(modules):
        if _bindings(modules) == before:
            problems.append("span recorder patched nothing")
    after = _bindings(modules)
    changed = sorted(key[1] for key, value in before.items() if after.get(key) is not value)
    if changed or after.keys() != before.keys():
        problems.append(f"span recorder left patched names behind: {changed[:5]}")


def check_workload(workload: str, problems: list[str]) -> None:
    first, rep1 = run.run(workload, SEED, 0, trace=False, tiny=True)
    second, rep2 = run.run(workload, SEED, 0, trace=False, tiny=True)
    traced, rep3 = run.run(workload, SEED, 0, trace=True, tiny=True)
    other, rep4 = run.run(workload, SEED + 1, 0, trace=False, tiny=True)
    for name, result, report in (("untraced", first, rep1), ("repeat", second, rep2),
                                 ("traced", traced, rep3), ("other seed", other, rep4)):
        if result["failed"] or not result["correct"]:
            problems.append(f"{workload} {name}: failed_frac = {result['failed']}/{result['attempted']}, "
                            f"{report['failures'][:3]}")
    if (rep1["input_sha256"], rep1["output_sha256"]) != (rep2["input_sha256"], rep2["output_sha256"]):
        problems.append(f"{workload}: digests differ between two runs of seed {SEED}")
    if rep3["output_sha256"] != rep1["output_sha256"]:
        problems.append(f"{workload}: traced output digest differs from the untraced one")
    if rep4["input_sha256"] == rep1["input_sha256"]:
        problems.append(f"{workload}: seeds {SEED} and {SEED + 1} give the same inputs")
    for fn in run.TRACED_FUNCTIONS:
        if f"{fn}.calls" not in traced["metrics"]:
            problems.append(f"{workload}: traced run lacks {fn}")
    leftovers = [f"{m.__name__}.{name}" for m in list(sys.modules.values())
                 if m is not None and m.__name__.startswith("contrablock")
                 for name, obj in vars(m).items() if hasattr(obj, "__wrapped__")]
    if leftovers:
        problems.append(f"{workload}: wrapped functions left after the traced run: {leftovers[:5]}")
    print(f"{workload}: {first['attempted']} queries per untraced run, "
          f"output {rep1['output_sha256'][:12]}, inputs {rep1['input_sha256'][:12]}")


def main() -> int:
    if not (run.SRC / "contrablock" / "__init__.py").is_file():
        print(f"error: no contrablock sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    problems: list[str] = []
    check_restore(problems)
    for workload in corpus.WORKLOADS:
        check_workload(workload, problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke test passed" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
