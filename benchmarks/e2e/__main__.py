"""Command line of the end-to-end benchmark.

    PYTHONPATH=src python -m benchmarks.e2e [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--quick]
    python3 benchmarks/e2e/__main__.py ...        # what BENCHMARK.json runs

Without ``--workload`` every workload runs in turn, each in its own
process.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when an op failed or the correctness gate found a mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _parser(default_seed: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="lookup | explore | curate | served (default: all)")
    parser.add_argument("--seed", type=int, default=default_seed)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds, turned into whole script rounds "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, prints the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="tiny tables, one measured round: a smoke run, not a measurement")
    return parser


def _pinned_environment() -> dict[str, str] | None:
    """The environment to re-execute under, or None when already pinned.

    ``PYTHONHASHSEED=0`` fixes set/dict-of-str iteration order, which the
    engine's merge order (and so its timing) depends on; the server child
    inherits it together with the import path.
    """
    if os.environ.get("PYTHONHASHSEED") == "0" and __package__:
        return None
    env = dict(os.environ, PYTHONHASHSEED="0")
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def main(argv: list[str]) -> int:
    env = _pinned_environment()
    if env is not None:
        os.chdir(ROOT)
        os.execve(sys.executable, [sys.executable, "-m", "benchmarks.e2e", *argv], env)

    from benchmarks.e2e import runner
    from benchmarks.e2e.spec import DEFAULT_SEED, WORKLOADS

    args = _parser(DEFAULT_SEED).parse_args(argv)

    if args.workload is None:
        status = 0
        combined: dict[str, object] = {}
        for name in WORKLOADS:
            done = subprocess.run(
                [sys.executable, "-m", "benchmarks.e2e", "--workload", name, *argv],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            *report, last = done.stdout.rstrip("\n").split("\n")
            print("\n".join(report), flush=True)
            combined[name] = json.loads(last) if done.returncode in (0, 1) else None
            status = status or done.returncode
        print(json.dumps(combined))
        return status

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.quick:
        workload, rounds = workload.quick(), 1
    else:
        seconds = args.seconds
        if seconds is None:
            seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        rounds = workload.rounds_for(seconds)
    run = runner.run_traced if args.trace else runner.run_untraced
    outcome = run(workload, args.seed, rounds)
    result = outcome["result"]
    print("\n".join(outcome["lines"]))
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:14.4f} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
