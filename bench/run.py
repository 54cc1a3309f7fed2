#!/usr/bin/env python3
"""The simulator's end-to-end benchmark.

    python bench/run.py                      # four workloads x 5 repeats
    python bench/run.py --trace              # + one traced child per workload
    python bench/run.py --smoke              # ~1/10 sizes, 1 repeat
    python bench/run.py --compare A.json B.json
    python bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last form is the one the PR driver uses: one workload, repeated in
fresh child interpreters for about S seconds, with one JSON object as
the last line of output.  Every child runs alone; there is never more
than one alive.  See README.md for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import metrics as m

BENCH_DIR = m.BENCH_DIR
ROOT = m.ROOT
OUT_DIR = BENCH_DIR / "out"
EXPECTED_DIR = BENCH_DIR / "expected"

DEFAULT_SEED = 1999
DEFAULT_REPEATS = 5
#: Repeats in the driver's form.  Sizes are chosen so that three children
#: fit in ``run_seconds`` with a fifth to spare: a count that flips with
#: the host's speed would add its own noise to every median.
DRIVER_REPEATS = 3
SMOKE_SCALE = 0.1
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 100
#: The armed and the bare run of the same cells: their simulated
#: statistics must be identical.
TWINS = ("fabric_knee", "fabric_knee_bare")


class BenchError(Exception):
    """The benchmark could not produce a result."""


# -- children ----------------------------------------------------------------
class Children:
    """Spawns workload children one at a time and keeps their scratch
    files in one directory that is removed on exit."""

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale
        self.scratch = OUT_DIR / f"tmp-{os.getpid()}"

    def __enter__(self) -> "Children":
        self.scratch.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def run(self, workload: str, traced: bool = False) -> Dict[str, object]:
        result_path = self.scratch / f"{workload}.json"
        log_path = self.scratch / f"{workload}.log"
        result_path.unlink(missing_ok=True)
        command = [
            sys.executable,
            str(BENCH_DIR / "child.py"),
            "--workload", workload,
            "--seed", str(self.seed),
            "--scale", str(self.scale),
            "--result", str(result_path),
            "--postmortem-dir", str(self.scratch),
        ]
        if traced:
            command += ["--trace-out", str(OUT_DIR / f"trace-{workload}.json")]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        # One load-generating process, one thread.
        for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[variable] = "1"
        with open(log_path, "w", encoding="utf-8") as log:
            # subprocess.run kills and reaps the child on timeout or on
            # any exception (Ctrl-C included) before it returns.
            try:
                status = subprocess.run(
                    command + ["--spawned-at", repr(time.time())],
                    cwd=ROOT,
                    env=env,
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    timeout=CHILD_TIMEOUT_S,
                ).returncode
            except subprocess.TimeoutExpired:
                raise BenchError(
                    f"{workload}: child exceeded {CHILD_TIMEOUT_S}s and was killed"
                ) from None
        if status != 0 or not result_path.exists():
            tail = log_path.read_text(encoding="utf-8")[-2000:]
            raise BenchError(f"{workload}: child exited {status}\n{tail}")
        with open(result_path, encoding="utf-8") as handle:
            return json.load(handle)


# -- checks made on whole workloads --------------------------------------------
def digest_check(
    workload: str, runs: Sequence[Dict[str, object]], seed: int, scale: float
) -> Optional[Dict[str, object]]:
    """Simulated statistics: identical in every child (the traced one
    too: its wrappers must not change what is simulated), and equal to
    the committed digest when this seed has one."""
    name = f"{workload}.digest"
    stats = [m.simulated_statistics(run["counts"]) for run in runs]
    for other in stats[1:]:
        if other != stats[0]:
            return _check(name, False, "; ".join(m.differing(stats[0], other)))
    expected_path = EXPECTED_DIR / f"seed-{seed}.json"
    if scale != 1.0 or not expected_path.exists():
        print(f"  {name}: no committed digest for seed {seed} at scale "
              f"{scale:g} — op skipped")
        return None
    with open(expected_path, encoding="utf-8") as handle:
        expected = json.load(handle)[workload]
    if m.digest(stats[0]) == expected["sha256"]:
        return _check(name, True)
    return _check(name, False, "; ".join(m.differing(expected["stats"], stats[0])))


def twin_check(results: Dict[str, List[Dict[str, object]]]) -> Dict[str, object]:
    armed, bare = (
        m.simulated_statistics(results[name][0]["counts"]) for name in TWINS
    )
    return _check(
        "fabric_knee.armed_equals_bare",
        armed == bare,
        "; ".join(m.differing(armed, bare)),
    )


def _check(name: str, ok: bool, detail: str = "") -> Dict[str, object]:
    return {"name": name, "ok": ok, "detail": detail}


def summarise(
    workload: str,
    runs: Sequence[Dict[str, object]],
    traced: Optional[Dict[str, object]],
    seed: int,
    scale: float,
    definitions: Dict[str, object],
    twins: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The record of one workload in a result file: end-to-end metrics
    from the untraced ``runs``, per-layer metrics from the ``traced``
    child when there is one, ops from every child that ran."""
    children = list(runs) + ([traced] if traced else [])
    extra = [digest_check(workload, children, seed, scale), twins]
    checked = m.ops(children + [{"checks": [c for c in extra if c]}])
    for run in children:
        checked["attempted"] += 1
        if run["runner_status"]:
            checked["failed"] += 1
            checked["failures"].append(
                f"{workload}: runner exited {run['runner_status']}"
            )
    stats = m.simulated_statistics(runs[0]["counts"])
    record = {
        "end_to_end": m.end_to_end(runs),
        "ops": checked,
        "simulated": stats,
        "sha256": m.digest(stats),
        "runs": [
            {key: run[key] for key in ("timing", "peak_rss_mb", "slices_ms")}
            for run in runs
        ],
    }
    if traced:
        # Imported here: the end-to-end run never depends on the wrap table.
        import layers

        values = m.per_layer(
            traced, record["end_to_end"]["run_wall_s"]["value"], layers.LAYERS
        )
        record["per_layer"] = {
            d["name"]: values.get(d["name"], 0) for d in definitions["per_layer"]
        }
        # Whole-process, by wrap target: a 0 here is a wrap that never ran.
        record["span_calls"] = traced["trace"]["total_calls"]
    return record


# -- printing ---------------------------------------------------------------
def print_workload(
    name: str, record: Dict[str, object], definitions: Dict[str, object]
) -> None:
    print(f"\n== {name} ==")
    bounds = {d["name"]: d for d in definitions["end_to_end"]}
    for metric, entry in record["end_to_end"].items():
        notes = [f"{len(entry['samples'])} repeats"]
        if "n" in entry:
            notes.append(f"{entry['n']} slices")
        if entry.get("percentile", 95) != 95:
            notes.append(f"reported at p{entry['percentile']}: too few slices for p95")
        if "user_sim_s" in entry:
            notes.append(f"{entry['user_sim_s']:g} user·sim-s")
        rule = bounds.get(metric)
        notes.append(
            f"{rule['better']} is better, bound {rule['bound']:.0%}"
            if rule
            else "not gated"
        )
        print(f"  {metric:<24} {entry['value']:>12.4f} {entry['unit']:<4} "
              f"({', '.join(notes)})")
    checked = record["ops"]
    frac = checked["failed"] / checked["attempted"]
    print(f"  {'ops_failed_frac':<24} {frac:>12.4f}      "
          f"({checked['failed']} of {checked['attempted']} checks failed)")
    for failure in checked["failures"]:
        print(f"    FAILED {failure}")
    if "per_layer" in record:
        units = {d["name"]: d["unit"] for d in definitions["per_layer"]}
        print("  per layer (traced run):")
        for metric, value in record["per_layer"].items():
            shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
            print(f"    {metric:<40} {shown:>16} {units[metric]}")


def git_sha() -> str:
    # The driver's checkout is no repository; looking for one above it
    # would read outside the checkout.
    if not (ROOT / ".git").exists():
        return "nogit"
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "nogit"


def write_result(
    seed: int,
    scale: float,
    repeats: int,
    workloads: Dict[str, object],
    suffix: str = "",
    **extra: object,
) -> Path:
    document = {
        "schema": 1,
        "sha": git_sha(),
        "seed": seed,
        "scale": scale,
        "repeats": repeats,
        "workloads": workloads,
        **extra,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{document['sha']}-seed{document['seed']}{suffix}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    return path


# -- the three ways to run -----------------------------------------------------
def run_all(args, definitions: Dict[str, object]) -> int:
    """Every workload, repeats interleaved so drift lands on all alike."""
    names = [w["name"] for w in definitions["workloads"]]
    scale = SMOKE_SCALE if args.smoke else 1.0
    repeats = 1 if args.smoke else args.repeats
    results: Dict[str, List[Dict[str, object]]] = {name: [] for name in names}
    traced: Dict[str, Dict[str, object]] = {}
    trace_errors: List[str] = []
    with Children(args.seed, scale) as children:
        for repeat in range(repeats):
            for name in names:
                print(f"repeat {repeat + 1}/{repeats}: {name}", flush=True)
                results[name].append(children.run(name))
        if args.trace:
            # A traced child that fails (a wrap target gone) costs the
            # per-layer numbers, not the end-to-end ones above.
            for name in names:
                print(f"traced: {name}", flush=True)
                try:
                    traced[name] = children.run(name, traced=True)
                except BenchError as error:
                    trace_errors.append(str(error))

    if args.write_expected:
        return write_expected(results, args.seed)

    twins = twin_check(results)
    records = {}
    for name in names:
        records[name] = summarise(
            name, results[name], traced.get(name), args.seed, scale, definitions,
            twins if name == TWINS[0] else None,
        )
        print_workload(name, records[name], definitions)
    armed, bare = (
        records[name]["end_to_end"]["run_ref_s"]["value"] for name in TWINS
    )
    print(f"\narmed_over_bare = {armed / bare:.3f} "
          f"(run_ref_s {TWINS[0]} {armed:.3f} s ÷ {TWINS[1]} {bare:.3f} s; not gated)")
    path = write_result(
        args.seed, scale, repeats, records, armed_over_bare=armed / bare
    )
    print(f"results written to {path.relative_to(ROOT)}")
    for error in trace_errors:
        print(f"bench: traced run failed: {error}", file=sys.stderr)
    if trace_errors:
        return 2
    failed = sum(record["ops"]["failed"] for record in records.values())
    return 1 if failed else 0


def write_expected(results: Dict[str, List[Dict[str, object]]], seed: int) -> int:
    EXPECTED_DIR.mkdir(exist_ok=True)
    expected = {}
    for name, runs in results.items():
        stats = m.simulated_statistics(runs[0]["counts"])
        expected[name] = {"sha256": m.digest(stats), "stats": stats}
    path = EXPECTED_DIR / f"seed-{seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"expected digests written to {path.relative_to(ROOT)}")
    return 0


def run_one(args, definitions: Dict[str, object]) -> int:
    """The PR driver's form: one workload for about ``--seconds``, and a
    JSON object on the last line."""
    name = args.workload
    if name not in [w["name"] for w in definitions["workloads"]]:
        raise BenchError(f"unknown workload {name!r}")
    seconds = args.seconds if args.seconds is not None else definitions["run_seconds"]
    runs: List[Dict[str, object]] = []
    traced: Optional[Dict[str, object]] = None
    with Children(args.seed, 1.0) as children:
        if args.trace:
            runs.append(children.run(name))
            traced = children.run(name, traced=True)
        else:
            # Three fresh children; fewer when the host is too slow for
            # the next one to end within the time asked for.
            started = time.monotonic()
            last = 0.0
            while len(runs) < DRIVER_REPEATS and (
                not runs or time.monotonic() - started + last <= seconds
            ):
                began = time.monotonic()
                runs.append(children.run(name))
                last = time.monotonic() - began
    record = summarise(name, runs, traced, args.seed, 1.0, definitions)
    print_workload(name, record, definitions)
    write_result(args.seed, 1.0, len(runs), {name: record}, suffix=f"-{name}")
    if traced:
        kind, values = "per_layer", record["per_layer"]
    else:
        kind = "end_to_end"
        values = {k: entry["value"] for k, entry in record["end_to_end"].items()}
    reported = {
        d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
        for d in definitions[kind]
    }
    checked = record["ops"]
    print(json.dumps({
        "correct": checked["failed"] == 0,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": reported,
    }))
    return 0


def compare(paths: Sequence[str], definitions: Dict[str, object]) -> int:
    """Every end-to-end metric of two result files, side by side; exit 1
    on a beyond-bound regression or a rise in failed ops."""
    documents = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    base, change = documents
    print(f"base   {paths[0]}  ({base['sha']}, seed {base['seed']}, "
          f"{base['repeats']} repeats)")
    print(f"change {paths[1]}  ({change['sha']}, seed {change['seed']}, "
          f"{change['repeats']} repeats)")
    bad = 0
    for name in base["workloads"]:
        if name not in change["workloads"]:
            print(f"\n== {name} == missing from {paths[1]}")
            bad += 1
            continue
        print(f"\n== {name} ==")
        a, b = base["workloads"][name], change["workloads"][name]
        for rule in definitions["end_to_end"]:
            metric = rule["name"]
            verdict = m.classify(
                a["end_to_end"][metric], b["end_to_end"][metric],
                rule["better"], rule["bound"],
            )
            bad += verdict["status"] == "regression"
            q = verdict["base_quartiles"] + verdict["change_quartiles"]
            print(
                f"  {metric:<24} {a['end_to_end'][metric]['value']:>11.4f} "
                f"[{q[0]:.4f} {q[2]:.4f}] -> "
                f"{b['end_to_end'][metric]['value']:>11.4f} "
                f"[{q[3]:.4f} {q[5]:.4f}] {rule['unit']:<4} "
                f"x{verdict['ratio']:.3f} of base, spread {verdict['spread']:.1%}, "
                f"bound {rule['bound']:.0%}: {verdict['status']}"
            )
        frac_a = a["ops"]["failed"] / a["ops"]["attempted"]
        frac_b = b["ops"]["failed"] / b["ops"]["attempted"]
        rose = frac_b > frac_a
        bad += rose
        print(f"  {'ops_failed_frac':<24} {frac_a:>11.4f} -> {frac_b:>11.4f} "
              f"({a['ops']['failed']}/{a['ops']['attempted']} -> "
              f"{b['ops']['failed']}/{b['ops']['attempted']}): "
              f"{'regression' if rose else 'no rise'}")
        if a["sha256"] != b["sha256"]:
            print("  simulated statistics differ: "
                  + "; ".join(m.differing(a["simulated"], b["simulated"])))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1),
                        const=1, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--workload")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--write-expected", action="store_true",
                        help="record this seed's simulated statistics under "
                        "bench/expected/ instead of checking them")
    args = parser.parse_args(argv)
    # A terminated benchmark must not leave its child running: turn the
    # signal into an exception so subprocess.run kills and reaps it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        definitions = m.load_definitions()
        if args.compare:
            return compare(args.compare, definitions)
        if not (ROOT / "src" / "repro").is_dir():
            raise BenchError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        if args.workload:
            return run_one(args, definitions)
        return run_all(args, definitions)
    except (BenchError, OSError) as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
