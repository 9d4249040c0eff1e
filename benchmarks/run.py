#!/usr/bin/env python3
"""Benchmark of the higherop workbench.

Usage:
  python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs whole rounds of a workload's jobs, one child interpreter per job and
one child at a time, for about S seconds; a round is started only if it
is expected to end in time, and at least one round runs.  Every child
starts cold, under an address-space limit, and times only its call into
higherop.  Each answer is checked here against closed forms and
brute-force counts (checks.py).  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics, or with --trace 1 the per-layer metrics of
BENCHMARK.json.  A fuller report goes to benchmarks/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Below the 5.4 GiB dense boundary that classifier (4,3) asks for, and
# above every passing job (the largest peaks near 0.35 GB resident).
ADDRESS_LIMIT = int(2.5 * 2**30)
SETUP_PROBES = 3  # import-only children per untraced round, for setup_s
DEADLINE_S = 170  # the whole run, children included, ends before this


def classifier(n, k, dmax=None):
    return {"name": f"classifier ({n},{k},{'full' if dmax is None else dmax})",
            "call": "classifier", "n": n, "k": k, "dmax": dmax}


def cli(*argv, expect):
    return {"name": " ".join(argv), "call": "cli", "argv": ["--json", *argv],
            "expect": expect}


VERIFY_ALL = cli("--cache-dir", "{cache}", "verify", "all", expect="verify-all")

WORKLOADS = {
    "classifier-sweep": [
        classifier(2, 3), classifier(5, 2), classifier(1, 5), classifier(2, 5, 0),
        classifier(2, 4, 1), classifier(3, 3, 2), classifier(4, 3),
    ],
    "operad-axioms": [
        {"name": "axioms Ass over Ord(3), K=3", "call": "axioms", "operad": "ass",
         "n": 3, "K": 3, "corrupt": False,
         "rate": ["operads.pairs_per_s", "operads.assoc_pairs", "operads.assoc_s"]},
        {"name": "axioms des_1(End_2), K=3", "call": "axioms", "operad": "end",
         "n": 1, "K": 3, "x_size": 2, "corrupt": True,
         "rate": ["operads.instances_per_s", "operads.assoc_instances", "operads.assoc_s"]},
    ],
    "cli-session": [
        VERIFY_ALL,
        VERIFY_ALL,
        cli("verify", "eckmann-hilton", "--n", "1", "--kmax", "5", expect=[1, 5]),
        cli("verify", "eckmann-hilton", "--n", "4", "--kmax", "5", expect=[4, 5]),
        cli("verify", "monad-laws", "--n", "2", "--vmax", "3", "--kmax", "3",
            expect="monad-laws"),
        cli("sym", "--n", "2", "--K", "5", expect=[2, 5]),
    ],
}


class HarnessError(RuntimeError):
    """A child could not be run or gave no result; no figures are printed."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HIGHEROP_CACHE"}
    env["PYTHONPATH"] = SRC
    # one BLAS thread: its buffers then fit the address-space limit on any
    # core count (higherop's hot paths are integer numpy and never call BLAS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(job: dict, seed: int, trace: bool, deadline: float) -> dict:
    """Run one job in a fresh interpreter; its parsed result."""
    spec = {**job, "seed": seed, "trace": trace, "src": SRC,
            "address_limit": ADDRESS_LIMIT}
    spec["spawned"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{job['name']} did not end before the run's deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{job['name']} exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def check_job(job: dict, answer, session: dict) -> list[str]:
    """Independent checks of one job's answer (see checks.py)."""
    if job["call"] == "classifier":
        return checks.check_homology(answer, job["n"], job["k"], job["dmax"] is None)
    if job["call"] == "axioms":
        size = (checks.end_component_size(job["x_size"]) if job["operad"] == "end"
                else (lambda m: 1))
        return checks.check_axioms(answer, job["n"], job["K"], size)
    if answer["code"] != 0:
        return [f"exit code {answer['code']}"]
    report = json.loads(answer["stdout"])
    expect = job["expect"]
    if expect == "monad-laws":
        return checks.check_monad_laws(report)
    if expect != "verify-all":
        return checks.check_class_counts(report["data"], *expect)
    bad = checks.check_verify_all(report["data"])
    entries = {f: os.stat(os.path.join(session["cache"], f)).st_mtime_ns
               for f in os.listdir(session["cache"])}
    if len(entries) != 5:
        bad.append(f"{len(entries)} cache entries after verify all, want 5")
    if "cold" not in session:
        session["cold"] = (checks.strip_timing(answer["stdout"]), entries)
        return bad
    report_text, cold_entries = session["cold"]
    if checks.strip_timing(answer["stdout"]) != report_text:
        bad.append("warm verify all report differs from the cold one")
    if entries != cold_entries:
        bad.append("warm verify all rewrote cache entries instead of reading them")
    return bad


def run_round(jobs, rng, seed, trace, work, deadline) -> list[dict]:
    """Every job once, in a seeded order, each in its own child."""
    order = list(jobs)
    rng.shuffle(order)
    session = {"cache": tempfile.mkdtemp(prefix="cache-", dir=work)}
    records = []
    for job in order:
        if job is VERIFY_ALL:
            temper = "warm" if any(r["job"].startswith("verify all") for r in records) else "cold"
            job = {**job, "name": f"verify all ({temper})",
                   "argv": [session["cache"] if a == "{cache}" else a for a in job["argv"]]}
        result = spawn(job, seed, trace, deadline)
        record = {"job": job["name"], **{k: result[k] for k in
                  ("setup_s", "solve_s", "peak_rss_mb", "error", "layers", "paths")
                  if k in result}}
        if "error" not in result:
            record["problems"] = check_job(job, result["answer"], session)
            if "corrupted" in result["answer"]:
                record["corrupted"] = result["answer"]["corrupted"]
        records.append(record)
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = spawn({"name": "setup probe", "call": "setup"}, seed, trace, deadline)
            records.append({"job": None, **probe})
    return records


def per_job(records, key) -> dict:
    """Median over rounds of one figure, per job."""
    values: dict = {}
    for r in records:
        if r["job"] is not None and key in r:
            values.setdefault(r["job"], []).append(r[key])
    return {job: statistics.median(v) for job, v in values.items()}


def layer_metrics(records, jobs, names) -> tuple[dict, dict]:
    """Per-layer figures: each job's median over rounds, summed over jobs.

    A rate is count / seconds of the one job named with it.  Metrics that
    no job reached are reported as 0 and listed as absent.
    """
    per_metric: dict = {}
    for r in records:
        for metric, value in r.get("layers", {}).items():
            per_metric.setdefault(metric, {}).setdefault(r["job"], []).append(value)
    medians = {m: {job: statistics.median(v) for job, v in by_job.items()}
               for m, by_job in per_metric.items()}
    values = {m: sum(by_job.values()) for m, by_job in medians.items()}
    bases = {}
    for job in jobs:
        if "rate" not in job:
            continue
        rate, count, seconds = job["rate"]
        n = medians.get(count, {}).get(job["name"])
        secs = medians.get(seconds, {}).get(job["name"])
        if n and secs:
            values[rate] = n / secs
            bases[rate] = {"job": job["name"], count: n, seconds: secs}
    values["traced_solve_s"] = sum(per_job(records, "solve_s").values())
    absent = sorted(m for m in names if m not in values)
    return {m: values.get(m, 0) for m in names}, {"absent": absent, "rate_bases": bases}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "higherop", "__init__.py")):
        print(f"no higherop sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    jobs = WORKLOADS[args.workload]
    trace = bool(args.trace)

    start = time.monotonic()
    deadline = start + DEADLINE_S
    rng = random.Random(args.seed)
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(HERE, ".work"))
    records: list = []
    rounds = 0
    longest = 0.0
    try:
        while True:
            began = time.monotonic()
            records += run_round(jobs, rng, args.seed, trace, work, deadline)
            rounds += 1
            longest = max(longest, time.monotonic() - began)
            now = time.monotonic()
            if now + longest > min(start + args.seconds, deadline):
                break
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    job_records = [r for r in records if r["job"] is not None]
    failed = [r for r in job_records if "error" in r]
    problems = [f"{r['job']}: {p}" for r in job_records for p in r.get("problems", ())]
    solve = per_job(records, "solve_s")
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        values, extra = layer_metrics(records, jobs, names)
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = {"solve_s": sum(solve.values()),
                  "setup_s": statistics.median(r["setup_s"] for r in records),
                  "peak_rss_mb": max(r["peak_rss_mb"] for r in records)}
        extra = {}
    metrics = {m: {"value": values[m], "unit": units[m]} for m in names}

    summary = {"workload": args.workload, "seed": args.seed, "trace": trace,
               "rounds": rounds, "seconds": time.monotonic() - start,
               "solve_s_per_job": solve, "failed": [[r["job"], r["error"]] for r in failed],
               "problems": problems, "metrics": metrics, **extra, "records": records}
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    out = os.path.join(HERE, "results",
                       f"{args.workload}-seed{args.seed}{'-trace' if trace else ''}.json")
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)

    print(f"{args.workload}, seed {args.seed}: {rounds} round(s), "
          f"{len(job_records)} jobs attempted, {len(failed)} failed")
    for job, secs in solve.items():
        print(f"  {secs:10.4f} s  {job}")
    for (job, error), times in Counter(map(tuple, summary["failed"])).items():
        print(f"  failed {times}x: {job}: {error}")
    for p in problems:
        print(f"  WRONG: {p}")
    for m in names:
        print(f"{m:36s} {values[m]:16.6f} {units[m]}")
    print(f"report: {os.path.relpath(out, ROOT)}")
    print(json.dumps({"correct": not problems, "attempted": len(job_records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
