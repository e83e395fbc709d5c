"""A/A noise protocol: two alternating sets of full runs of the same checkout.

    PYTHONPATH=src python -m benchmarks.e2e.aa --runs 10 [--output DIR]

Every run plays the four workloads at ``BENCHMARK.json``'s ``run_seconds``.
Run ``i`` of either set uses seed ``DEFAULT_SEED + i`` (another seed every
run, as the driver does), and the sets alternate which goes first.  For
every workload and end-to-end metric the report gives each set's median
and quartiles, the relative IQR (``statistics.quantiles(n=4)``: (Q3 - Q1)
/ median) and the A-to-B median gap signed so that positive is *worse*,
next to the bound ``BENCHMARK.json`` states, and flags what breaks the
issue's noise rule:

``gap``     the A-to-B median gap exceeds the bound (the driver rejects this);
``spread``  a relative IQR exceeds the bound (the driver rejects this);
``iqr``     a relative IQR above 10 %, the issue's limit for a listed metric;
``3iqr``    the bound is inside three relative IQRs, so one set of runs
            cannot tell a regression of the bound's size from noise.

The last row of each workload, ``(calib_ms)``, is not a metric: it is the
fastest calibration loop of each run (a fixed pure-Python loop, see
``runner.calibrate``), so its spread is the machine's own.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e.spec import DEFAULT_SEED, ROOT, WORKLOADS
from benchmarks.e2e.stats import relative_iqr

Samples = dict[str, dict[str, dict[str, list[float]]]]
MAX_IQR = 0.10
CALIB = "(calib_ms)"


def _run(workload: str, seed: int) -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, check=False, cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout}")
    result = json.loads(done.stdout.rstrip("\n").rsplit("\n", 1)[-1])
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    calib = re.search(r" calib_ms=([0-9.]+)", done.stdout)
    if calib is not None:
        values[CALIB] = float(calib.group(1))
    return values


def report(samples: Samples) -> str:
    """The A/A table for ``samples[workload][set][metric] -> values``.

    A metric in ``samples`` that ``BENCHMARK.json`` no longer lists was a
    candidate the run demoted; its row stays as the evidence.
    """
    listed = {m["name"]: m
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    lines = []
    for workload, sets in samples.items():
        lines.append(f"== {workload} ({len(next(iter(sets['A'].values())))} runs per set)")
        lines.append(f"{'metric':26s} {'median A':>11s} {'q1':>10s} {'q3':>10s} {'iqr%':>6s}"
                     f" {'median B':>11s} {'iqr%':>6s} {'gap%':>7s} {'bound%':>7s}")
        for name, a in sets["A"].items():
            b = sets["B"][name]
            q1, _q2, q3 = statistics.quantiles(a, n=4)
            med_a, med_b = statistics.median(a), statistics.median(b)
            row = (f"{name:26s} {med_a:11.4f} {q1:10.4f} {q3:10.4f} "
                   f"{100 * relative_iqr(a):6.2f} {med_b:11.4f} {100 * relative_iqr(b):6.2f}")
            spread = max(relative_iqr(a), relative_iqr(b))
            if name == CALIB:
                lines.append(f"{row} {'':7s} {'':7s}  the machine, not a metric")
                continue
            if name not in listed:
                lines.append(f"{row} {'':7s} {'':7s}  demoted to client.{name}"
                             f" (iqr {100 * spread:.1f} %)")
                continue
            worse = 1 if listed[name]["better"] == "lower" else -1
            gap = worse * (med_b - med_a) / med_a
            bound = listed[name]["bound"]
            flags = [flag for flag, broken in (
                ("gap", gap > bound), ("spread", spread > bound),
                ("iqr", spread > MAX_IQR), ("3iqr", 3 * spread > bound),
            ) if broken]
            lines.append(f"{row} {100 * gap:7.2f} {100 * bound:7.1f}"
                         + (f"  <-- {' '.join(flags)}" if flags else ""))
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.aa", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10, help="runs per set (>= 5)")
    parser.add_argument("--output", type=Path, default=None,
                        help="directory for aa_report.txt and aa_raw.json")
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5")
    samples: Samples = {name: {"A": {}, "B": {}} for name in WORKLOADS}
    for i in range(args.runs):
        for side in ("AB", "BA")[i % 2]:
            for name in WORKLOADS:
                for metric, value in _run(name, DEFAULT_SEED + i).items():
                    samples[name][side].setdefault(metric, []).append(value)
                print(f"run {i} set {side} {name} done", file=sys.stderr, flush=True)
                if args.output is not None:  # a long protocol keeps what it has
                    args.output.mkdir(parents=True, exist_ok=True)
                    (args.output / "aa_raw.json").write_text(json.dumps(samples, indent=1) + "\n")
    text = report(samples)
    print(text)
    if args.output is not None:
        (args.output / "aa_report.txt").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
