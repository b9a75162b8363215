"""paulievo benchmark: one workload, measured from outside the package.

    python3 perfbench/run.py --workload tfim12_threshold --seed 1 \
        --seconds 35 --trace 0

Every repetition runs in a fresh interpreter (``worker.py``) with one
compute thread, one at a time, for about ``--seconds``.  With
``--trace 0`` the repetitions call ``run_itpp`` and the checkpoint functions
untraced and the end-to-end metrics are reported; with ``--trace 1`` untraced
and traced repetitions alternate, the traced loop must reproduce the
untraced energies and term counts bit for bit, and the per-layer metrics
are reported.  Human-readable lines come first; the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOAD_NAMES = ("tfim12_threshold", "tfim40_fixedk", "checkpoint_roundtrip")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "step_s.mean": "s",
    "step_s.p90": "s",
    "peak_rss_mb": "MB",
    "final_rel_error": "ratio",
}

PER_LAYER = {
    "propagate.gate_s": "s",
    "propagate.gates": "count",
    "propagate.term_gates": "count",
    "propagate.term_gates_per_s": "1/s",
    "propagate.gate_growth": "ratio",
    "propagate.peak_step_terms": "count",
    "propagate.retained_terms": "count",
    "propagate.retained_frac": "ratio",
    "propagate.record_s": "s",
    "propagate.estimator_s": "s",
    "propagate.computed_bytes": "B",
    "opsum.truncate_gate_s": "s",
    "opsum.truncate_step_s": "s",
    "opsum.normalize_s": "s",
    "opsum.dropped_terms.threshold": "count",
    "opsum.dropped_terms.fixedk": "count",
    "opsum.discarded_weight.threshold": "sum_c2",
    "opsum.discarded_weight.fixedk": "sum_c2",
    "opsum.save_rows_per_s": "1/s",
    "opsum.load_rows_per_s": "1/s",
    "opsum.checkpoint_bytes": "B",
    "models.build_s": "s",
    "oracle.reference_s": "s",
    "trace_overhead_frac": "ratio",
}

# set-up is repeated in set-up-only interpreters until there are this many
# samples, so its median does not rest on one or two repetitions
MIN_SETUPS = 5
# the whole run must end within 180 s; no repetition starts that would
# probably cross this
HARD_LIMIT_S = 165.0

SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    """A repetition could not run; no result is printed."""


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload: str, seed: int, mode: str, rep: int, deadline: float) -> dict:
    """Run one repetition in a fresh interpreter and return its result."""
    remaining = deadline - _monotonic()
    if remaining <= 0:
        raise BenchError("out of time before a repetition could start")
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--root", ROOT, "--rep", str(rep),
           "--spawned-at", repr(_monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=remaining)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{mode} repetition timed out") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} repetition exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile, linear between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def check_reps(plain: list[dict], traced: list[dict]) -> tuple[int, int, list]:
    """Total the checked operations of every repetition, plus one for each
    repetition that must reproduce the first untraced one exactly: untraced
    repetitions are deterministic, and traced ones must match them."""
    attempted = sum(r["attempted"] for r in plain + traced)
    failed = sum(r["failed"] for r in plain + traced)
    messages = [m for r in plain + traced for m in r["messages"]]
    first = plain[0]
    for label, rep in [("untraced", r) for r in plain[1:]] + \
                      [("traced", r) for r in traced]:
        attempted += 1
        if rep["energies"] != first["energies"] or rep["counts"] != first["counts"]:
            failed += 1
            messages.append(f"{label} repetition differs from the first "
                            "untraced one in energies or term counts")
    return attempted, failed, messages


def _pooled(reps: list[dict], key: str) -> list[float]:
    return [value for r in reps for value in r[key]]


def end_to_end(plain: list[dict], setups: list[float]) -> dict:
    steps = _pooled(plain, "step_s")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(_pooled(plain, "wall_s")),
        "step_s.mean": statistics.fmean(steps),
        "step_s.p90": percentile(steps, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "final_rel_error": plain[0]["final_rel_error"],
    }


def _layers(rep: dict) -> dict:
    own = rep["self_s"]
    c = rep["counters"]
    gate_s = own.get("gate", 0.0)
    save_s, load_s = own.get("save", 0.0), own.get("load", 0.0)
    rows_saved = rep["rows"] * len(rep["save_s"])
    rows_loaded = rep["rows"] * len(rep["load_s"])
    return {
        "propagate.gate_s": gate_s,
        "propagate.gates": c["gates"],
        "propagate.term_gates": c["term_gates"],
        "propagate.term_gates_per_s": c["term_gates"] / gate_s if gate_s else 0.0,
        "propagate.gate_growth": c["terms_out"] / c["term_gates"] if c["term_gates"] else 0.0,
        "propagate.peak_step_terms": c["peak_step_terms"],
        "propagate.retained_terms": c["retained_terms"],
        "propagate.retained_frac": c["retained_sum"] / c["peak_sum"] if c["peak_sum"] else 0.0,
        "propagate.record_s": own.get("record", 0.0),
        "propagate.estimator_s": own.get("estimator", 0.0),
        "propagate.computed_bytes": c["computed_bytes"],
        "opsum.truncate_gate_s": own.get("truncate_gate", 0.0),
        "opsum.truncate_step_s": own.get("truncate_step", 0.0),
        "opsum.normalize_s": own.get("normalize", 0.0),
        "opsum.dropped_terms.threshold": c["dropped_terms.threshold"],
        "opsum.dropped_terms.fixedk": c["dropped_terms.fixedk"],
        "opsum.discarded_weight.threshold": c["discarded_weight.threshold"],
        "opsum.discarded_weight.fixedk": c["discarded_weight.fixedk"],
        "opsum.save_rows_per_s": rows_saved / save_s if save_s else 0.0,
        "opsum.load_rows_per_s": rows_loaded / load_s if load_s else 0.0,
        "opsum.checkpoint_bytes": rep["checkpoint_bytes"],
        "models.build_s": own.get("build", 0.0),
        "oracle.reference_s": own.get("reference", 0.0),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    each = [_layers(r) for r in traced]
    out = {name: statistics.median(layer[name] for layer in each)
           for name in each[0]}
    out["trace_overhead_frac"] = (
        statistics.median(_pooled(traced, "wall_s"))
        / statistics.median(_pooled(plain, "wall_s")) - 1.0
    )
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run repetitions for ``seconds``; returns (plain, traced, setups)."""
    start = _monotonic()
    deadline = start + HARD_LIMIT_S
    plain: list[dict] = []
    traced: list[dict] = []
    rep = 0
    while True:
        plain.append(spawn(workload, seed, "run", rep, deadline))
        if trace:
            traced.append(spawn(workload, seed, "trace", rep, deadline))
        rep += 1
        elapsed = _monotonic() - start
        per_rep = elapsed / rep
        setups = [r["setup_s"] for r in plain + traced]
        # the set-up-only interpreters still needed after this repetition
        top_up = max(0, MIN_SETUPS - len(setups)) * statistics.median(setups)
        # another repetition only if the run, set-ups included, ends nearer
        # to ``seconds`` with it than without it, so a run lasts ``seconds``
        # give or take half a repetition
        if elapsed + top_up + per_rep / 2 >= seconds \
                or elapsed + per_rep > HARD_LIMIT_S:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, "setup", rep, deadline)["setup_s"])
        rep += 1
    return plain, traced, setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "paulievo")):
        print(f"no package source at {os.path.join(ROOT, 'src', 'paulievo')}",
              file=sys.stderr)
        return 2
    try:
        plain, traced, setups = measure(args.workload, args.seed, args.seconds,
                                        bool(args.trace))
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    finally:
        # each repetition removes its own directory; drop the parent if empty
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(ROOT, ".perfbench_work"))

    attempted, failed, messages = check_reps(plain, traced)
    if args.trace:
        metrics, units = per_layer(plain, traced), PER_LAYER
    else:
        metrics, units = end_to_end(plain, setups), END_TO_END
    steps = len(_pooled(plain, "step_s"))
    print(f"workload {args.workload} seed {args.seed} h {plain[0]['h']!r}: "
          f"{len(plain)} untraced, {len(traced)} traced repetitions, "
          f"{len(setups)} set-ups, {steps} step samples")
    for name in units:
        print(f"  {name:34s} {metrics[name]:.6g} {units[name]}")
    saves, loads = _pooled(plain, "save_s"), _pooled(plain, "load_s")
    if saves:
        print(f"  {'save_s':34s} {statistics.median(saves):.6g} s "
              f"({len(saves)} saves of {plain[0]['rows']} rows)")
        print(f"  {'load_s':34s} {statistics.median(loads):.6g} s "
              f"({len(loads)} loads)")
    # printed only: on a host whose speed flips between two levels within
    # seconds the median step sits between them and moves with the mix, so
    # it spreads more from run to run than the mean the JSON carries
    print(f"  {'step_s.p50':34s} "
          f"{statistics.median(_pooled(plain, 'step_s')):.6g} s")
    print(f"  {'steps':34s} {steps} count")
    print(f"  {'failed_frac':34s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations)")
    for message in messages[:20]:
        print(f"  check failed: {message}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
