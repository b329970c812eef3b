"""The benchmark of record: six workloads, end-to-end metrics, layer ledger.

    python3 perf/run.py [--workload W] [--seed 11] [--repeats 3]
                        [--scale 1.0] [--trace] [--out F]
    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perf/run.py --compare A.json B.json

The first form runs the matrix: every (workload, repeat) in a fresh
subprocess (``perf/single.py``), strictly one at a time, round-robin over
the workloads inside each repeat; the reported value of an end-to-end
metric is the median of its repeats.  ``--trace`` adds one traced run per
workload for the per-layer ledger.  The result is printed, written to
``--out`` (default ``perf/out/latest.json``) and summarised as one row
appended to ``perf/history.jsonl``.

The second form is one sample for an outside driver: ``--seconds`` picks
the scale at which the reference host measures for that long, the last
line of standard output is one JSON object, and nothing else is kept.

This file imports nothing from ``repro``; metric names, units, directions
and bounds are read from ``BENCHMARK.json`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    # ``python perf/run.py`` puts perf/ first on the path, where trace.py
    # would shadow the standard library's module of that name.
    sys.path[0] = ROOT

from perf.workloads import WORKLOADS  # noqa: E402

_SINGLE = os.path.join(ROOT, "perf", "single.py")
_HISTORY = os.path.join(ROOT, "perf", "history.jsonl")
_DEFAULT_OUT = os.path.join(ROOT, "perf", "out", "latest.json")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, scale: float, *flags: str) -> dict:
    """One ``perf/single.py`` subprocess; returns the JSON line it prints."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, _SINGLE, "--workload", workload, "--seed", str(seed)]
    cmd += ["--scale", repr(scale), *flags]
    done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: run exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(workload: str, seed: int, scale: float, extra_setups: int = 0) -> dict:
    """One untraced run; ``setup_s`` becomes the median over this run's
    own set-up and ``extra_setups`` set-up-only runs."""
    run = run_child(workload, seed, scale)
    if "end_to_end" not in run:
        raise SystemExit(f"{workload}: nothing was measured\n{run.get('first_error', '')}")
    setups = [run["end_to_end"]["setup_s"]]
    for __ in range(extra_setups):
        setups.append(run_child(workload, seed, scale, "--setup-only")["setup_s"])
    run["end_to_end"]["setup_s"] = statistics.median(setups)
    return run


def _host_meta() -> dict:
    def git(*args: str) -> str:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
        )
        return done.stdout.strip() if done.returncode == 0 else ""

    return {
        "when": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(git("status", "--porcelain")),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def run_matrix(names, seed: int, scale: float, repeats: int, trace: bool, spec: dict) -> dict:
    runs = {name: [] for name in names}
    for repeat in range(repeats):
        for name in names:
            print(f"[repeat {repeat + 1}/{repeats}] {name}", file=sys.stderr)
            runs[name].append(measure(name, seed, scale))
    traced = {}
    if trace:
        for name in names:
            print(f"[traced] {name}", file=sys.stderr)
            traced[name] = run_child(name, seed, scale, "--trace")
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    doc = {
        "meta": {**_host_meta(), "seed": seed, "scale": scale, "repeats": repeats},
        "workloads": {},
    }
    for name in names:
        all_runs = runs[name] + ([traced[name]] if name in traced else [])
        attempted = sum(r["attempted"] for r in all_runs)
        failed = sum(r["failed"] for r in all_runs)
        entry = {
            "why": why[name],
            "input_sha256": sorted({r["input_sha256"] for r in all_runs}),
            "matches_out": sorted({r["matches_out"] for r in all_runs}),
            "oracle_checked": sum(r["oracle_checked"] for r in all_runs),
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "unsustainable": any(r["unsustainable"] for r in runs[name]),
            "latency_samples": min(r["latency_samples"] for r in runs[name]),
            "end_to_end": {},
        }
        for metric in spec["end_to_end"]:
            samples = [r["end_to_end"][metric["name"]] for r in runs[name]]
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"],
                "median": statistics.median(samples),
                "min": min(samples),
                "max": max(samples),
                "samples": samples,
            }
        if name in traced:
            entry["per_layer"] = {
                key: {"unit": units[key], "value": value}
                for key, value in traced[name]["per_layer"].items()
            }
        doc["workloads"][name] = entry
    doc["meta"]["numpy"] = runs[names[0]][0]["numpy"]
    return doc


def print_doc(doc: dict) -> None:
    meta = doc["meta"]
    print(
        f"seed {meta['seed']}  scale {meta['scale']}  repeats {meta['repeats']}  "
        f"git {meta['git_sha'][:12]}{'+dirty' if meta['dirty'] else ''}  "
        f"nproc {meta['nproc']}  python {meta['python']}  numpy {meta['numpy']}"
    )
    for name, entry in doc["workloads"].items():
        print(f"\n== {name} ==  {entry['why']}")
        print(f"  input_sha256    {' '.join(entry['input_sha256'])}")
        print(f"  matches_out     {' '.join(map(str, entry['matches_out']))}")
        print(
            f"  failed_share    {entry['failed_share']:.6g}  "
            f"({entry['failed']} failed of {entry['attempted']} attempted, "
            f"{entry['oracle_checked']} tuples checked against the oracle)"
        )
        if entry["unsustainable"]:
            print("  UNSUSTAINABLE open pass: latencies count as missing")
        print(f"  {'end-to-end metric':<20}{'unit':>6}{'median':>14}{'min':>14}{'max':>14}{'n':>4}")
        for metric, row in entry["end_to_end"].items():
            print(
                f"  {metric:<20}{row['unit']:>6}{row['median']:>14.6g}"
                f"{row['min']:>14.6g}{row['max']:>14.6g}{len(row['samples']):>4}"
            )
        print(f"  latency samples per run: {entry['latency_samples']}")
        if "per_layer" in entry:
            print(f"  {'per-layer metric (traced run)':<48}{'unit':>8}{'value':>16}")
            for metric, row in entry["per_layer"].items():
                print(f"  {metric:<48}{row['unit']:>8}{row['value']:>16.6g}")


def append_history(doc: dict) -> None:
    row = dict(doc["meta"])
    row["workloads"] = {
        name: {
            **{metric: r["median"] for metric, r in entry["end_to_end"].items()},
            "failed_share": entry["failed_share"],
        }
        for name, entry in doc["workloads"].items()
    }
    with open(_HISTORY, "a") as fh:
        fh.write(json.dumps(row) + "\n")


# ----------------------------------------------------------------------
# One sample for an outside driver
# ----------------------------------------------------------------------
def run_sample(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    w = WORKLOADS[workload]
    scale = seconds / w.ref_seconds
    if trace:
        run = run_child(workload, seed, scale, "--trace")
        if "per_layer" not in run:
            raise SystemExit(f"{workload}: nothing was measured\n{run.get('first_error', '')}")
        # A layer that does not run on this workload reads 0.
        values = {m["name"]: run["per_layer"].get(m["name"], 0) for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        run = measure(workload, seed, scale, extra_setups=w.setup_repeats - 1)
        values = run["end_to_end"]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for key in ("input_sha256", "matches_out", "oracle_checked", "unsustainable"):
        print(f"{key:<16}{run[key]}")
    for name, value in values.items():
        print(f"{name:<48}{units[name]:>8}{value:>16.6g}")
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


# ----------------------------------------------------------------------
# Comparing two documents
# ----------------------------------------------------------------------
def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Per (workload, metric) verdict of B against base A; returns the
    number of ``worse`` verdicts (a higher ``failed_share`` is one)."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    worse = 0
    for name, base in a["workloads"].items():
        new = b["workloads"].get(name)
        if new is None:
            continue
        print(f"\n== {name} ==")
        for metric in spec["end_to_end"]:
            row_a = base["end_to_end"][metric["name"]]
            row_b = new["end_to_end"][metric["name"]]
            bound = metric["bound"]
            ratio = row_b["median"] / row_a["median"]
            gain = ratio - 1.0 if metric["better"] == "higher" else 1.0 - ratio
            spread = max((r["max"] - r["min"]) / r["median"] for r in (row_a, row_b))
            latency = metric["name"].startswith("latency")
            if latency and new["unsustainable"] and not base["unsustainable"]:
                verdict = "worse (unsustainable open pass: latency missing)"
            elif spread > bound:
                verdict = f"unresolved (min-max spread {spread:.1%} > bound)"
            elif gain < -bound:
                verdict = "worse"
            elif gain > bound:
                verdict = "better"
            else:
                verdict = "within_bound"
            worse += verdict.startswith("worse")
            print(
                f"  {metric['name']:<18} {row_b['median']:>12.6g} / {row_a['median']:>12.6g} "
                f"{metric['unit']:<5} = {ratio:6.3f} of base  (bound {bound:.0%})  {verdict}"
            )
        verdict = "worse" if new["failed_share"] > base["failed_share"] else "within_bound"
        worse += verdict == "worse"
        print(
            f"  {'failed_share':<18} {new['failed_share']:>12.6g} / {base['failed_share']:>12.6g} "
            f"{'':<5} ({new['failed']} of {new['attempted']} / "
            f"{base['failed']} of {base['attempted']})  {verdict}"
        )
    return worse


# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS), help="default: all six")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0)
    parser.add_argument("--out", help=f"result document (default {_DEFAULT_OUT})")
    parser.add_argument("--seconds", type=float, help="one sample measuring this long")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        return 1 if compare(*args.compare, spec) else 0
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise SystemExit("src/repro not found: run from a checkout of the repository")
    if args.seconds is not None:
        if args.workload is None:
            parser.error("--seconds needs --workload")
        line = run_sample(args.workload, args.seed, args.seconds, bool(args.trace), spec)
        print(json.dumps(line))
        return 0
    names = [args.workload] if args.workload else list(WORKLOADS)
    doc = run_matrix(names, args.seed, args.scale, args.repeats, bool(args.trace), spec)
    print_doc(doc)
    out = args.out or _DEFAULT_OUT
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
    append_history(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
