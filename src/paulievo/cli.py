"""Batch experiment runner: configuration, subcommands, CSV artifacts.

Subcommands: ``run-itpp`` (sparse propagation), ``exact`` (dense reference
curves), ``bdg`` (free-fermion ground energies), ``sweep`` (one run per
point of an axis), ``resume`` (continue from a checkpoint).

Configuration is a flat INI file (sections ``model`` / ``schedule`` /
``truncation`` / ``output`` / ``run``); every key can be overridden by the
command-line flag of the same name; :func:`_coerce` reads flag and file
text by the same rules.  An input error ends a command with exit status 2
and the reason on stderr (a sweep records a failing point and goes on).
All trajectory CSVs carry a versioned schema header and state the time
convention: the tau column is the accumulated imaginary time, equal to the
inverse temperature of the approximated thermal state.  Pipelines are
deterministic; rerunning a command reproduces its CSV byte for byte apart
from the wall-time column.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .models import Hamiltonian, TfimParams, build_tfim, hamiltonian_from_file
from .opsum import (
    FixedK,
    PauliSum,
    Threshold,
    TraceCollapseError,
    WeightCutoff,
    load_pauli_sum,
    save_pauli_sum,
)
from .oracle import (
    SizeGuardError,
    bdg_ground_energy,
    dense_exact_ite,
    dense_trotter_ite,
    ground_energy,
)
from .propagate import (
    ScheduleConfig,
    TrajectoryRecord,
    relative_error,
    run_itpp,
)

SCHEMA_TRAJECTORY = "itpp-trajectory v1"
SCHEMA_SUMMARY = "itpp-summary v1"
SCHEMA_SWEEP = "itpp-sweep v1"
TAU_CONVENTION = (
    "accumulated tau equals the inverse temperature beta; "
    "state ~ exp(-tau*H)"
)

CONFIG_SECTIONS = {
    "model": ("kind", "N", "J", "h", "terms_file"),
    "schedule": ("delta_tau", "tau_final"),
    "truncation": ("truncation",),
    "output": ("out_dir", "checkpoint_every"),
    "run": ("observables", "record_per_gate", "stop_after_step",
            "dense_guard"),
}


class ConfigError(ValueError):
    pass


def parse_number(text: str) -> float:
    """Parse a float, accepting power notation like ``2^-7`` or ``2**-7``.

    A number beyond the float range (``10^400``, ``1e400``) or a power with
    no real value (``-8^0.5``) is a :class:`ConfigError`; ``inf`` and
    ``nan`` spelled out pass through for the caller to judge.
    """
    text = text.strip()
    try:
        for sep in ("**", "^"):
            if sep in text:
                base, _, exp = text.partition(sep)
                value = float(base) ** float(exp)
                break
        else:
            value = float(text)
    except OverflowError:
        raise ConfigError(f"{text!r} is beyond the float range") from None
    if isinstance(value, complex):
        raise ConfigError(f"{text!r} is not a real number")
    if math.isinf(value) and "inf" not in text.lower():
        raise ConfigError(f"{text!r} is beyond the float range")
    return value


def _number(what: str, value: str) -> float:
    """:func:`parse_number`, naming ``what`` when ``value`` is unusable."""
    try:
        return parse_number(value)
    except ValueError as err:
        raise ConfigError(f"{what}: {err}") from None


def _whole_number(what: str, value: str) -> int:
    """``value`` as a count; ``2.5`` and ``-3`` are errors, not 2 and -3."""
    number = _number(what, value)
    if not number.is_integer() or number < 0:
        raise ConfigError(
            f"{what} needs a non-negative whole number, not {value!r}"
        )
    return int(number)


def parse_policy(spec: str):
    """Parse a truncation spec: ``none``, ``threshold=DELTA``,
    ``fixed_k=K``, ``weight=W``, or a comma-separated combination applied
    in order."""
    spec = spec.strip()
    if spec.lower() in ("", "none"):
        return None
    policies = []
    for part in spec.split(","):
        name, _, value = part.partition("=")
        name = name.strip().lower()
        what = f"truncation part {part!r}"
        if not value:
            raise ConfigError(f"{what} needs a value")
        if name == "threshold":
            policies.append(Threshold(_number(what, value)))
        elif name == "fixed_k":
            policies.append(FixedK(_whole_number(what, value)))
        elif name == "weight":
            policies.append(WeightCutoff(_whole_number(what, value)))
        else:
            raise ConfigError(f"unknown truncation kind {name!r}")
    return policies[0] if len(policies) == 1 else policies


def policy_text(policy) -> str:
    if policy is None:
        return "none"
    if isinstance(policy, (list, tuple)):
        return ",".join(policy_text(p) for p in policy)
    if isinstance(policy, Threshold):
        return f"threshold={policy.delta!r}"
    if isinstance(policy, FixedK):
        return f"fixed_k={policy.k}"
    if isinstance(policy, WeightCutoff):
        return f"weight={policy.max_weight}"
    raise TypeError(f"unknown policy {policy!r}")


@dataclass
class RunConfig:
    """Everything one propagation run needs; all fields deterministic."""

    kind: str = "tfim"
    N: int = 10
    J: float = 1.0
    h: float = 0.5
    terms_file: str = ""
    delta_tau: float = 0.04
    tau_final: float = 10.0
    truncation: str = "none"
    observables: str = ""
    out_dir: str = "itpp-run"
    checkpoint_every: int = 0
    record_per_gate: bool = False
    stop_after_step: int = 0
    dense_guard: int = 14

    def schedule(self) -> ScheduleConfig:
        return ScheduleConfig(delta_tau=self.delta_tau,
                              tau_final=self.tau_final)

    def policy(self):
        return parse_policy(self.truncation)

    def hamiltonian(self) -> Hamiltonian:
        if self.kind == "tfim":
            return build_tfim(TfimParams(N=self.N, J=self.J, h=self.h))
        if self.kind == "terms":
            # the config echo does not keep blanks around a name
            name = self.terms_file
            if not name or name != name.strip():
                raise ConfigError("model kind 'terms' needs a terms_file with "
                                  f"no blank at either end, not {name!r}")
            try:
                return hamiltonian_from_file(name)
            except OSError as err:
                raise ConfigError(f"cannot read terms_file: {err}") from None
        raise ConfigError(f"unknown model kind {self.kind!r}")

    def model_text(self) -> str:
        if self.kind == "tfim":
            return f"tfim N={self.N} J={self.J!r} h={self.h!r}"
        return f"terms file={self.terms_file}"

    def observable_sums(self, n_qubits: int) -> list[tuple[str, PauliSum]]:
        out = []
        for text in filter(None, (s.strip() for s in
                                  self.observables.split(","))):
            out.append((text, PauliSum.from_terms(n_qubits, [(1.0, text)])))
        return out


def _config_parser() -> configparser.ConfigParser:
    # values are taken as written: no %-interpolation, so a '%' in a path
    # round-trips through the echo without escaping
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys like N and J are case-sensitive
    return parser


def load_config_file(path: str) -> dict:
    """Read the INI config into a flat ``{field: string}`` dict."""
    parser = _config_parser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    flat = {}
    for section, keys in CONFIG_SECTIONS.items():
        if not parser.has_section(section):
            continue
        for key, value in parser.items(section):
            if key not in keys:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}]"
                )
            flat[key] = value
    return flat


_FIELD_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _coerce(key: str, text: str):
    """The one rule turning flag or config-file text into a field value."""
    kind = _FIELD_TYPES[key]
    if kind is bool:
        value = _BOOLEANS.get(text.strip().lower())
        if value is None:
            raise ConfigError(
                f"{key} needs one of {'/'.join(_BOOLEANS)}, not {text!r}"
            )
        return value
    if kind is int:
        return _whole_number(key, text)
    if kind is float:
        return _number(key, text)
    return text


def _config_from_texts(texts: dict) -> RunConfig:
    return RunConfig(**{k: _coerce(k, text) for k, text in texts.items()})


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then config-file values, then explicit CLI flags."""
    config = getattr(args, "config", None)
    texts = load_config_file(config) if config else {}
    for key in _FIELD_TYPES:
        text = getattr(args, key, None)
        if text is not None:
            texts[key] = text
    return _config_from_texts(texts)


def write_config_echo(cfg: RunConfig, path: str) -> None:
    parser = _config_parser()
    for section, keys in CONFIG_SECTIONS.items():
        parser.add_section(section)
        for key in keys:
            parser.set(section, key, str(getattr(cfg, key)))
    with open(path, "w") as f:
        parser.write(f)


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv_field(text: str, *, quoted: bool = False) -> str:
    """One CSV field, RFC 4180 style: quoted when ``quoted`` or when it holds
    a quote, comma or line break, with each inner quote doubled."""
    if quoted or any(c in text for c in '",\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def reference_for(cfg: RunConfig, hamiltonian: Hamiltonian):
    """Ground-energy reference for the relative-error column.

    Exact diagonalization inside the dense guard, the free-fermion solution
    beyond it (TFIM only); generic models beyond the guard get no reference.
    """
    if hamiltonian.n_qubits <= cfg.dense_guard:
        return ground_energy(hamiltonian, max_qubits=cfg.dense_guard), "ed"
    if cfg.kind == "tfim":
        return bdg_ground_energy(TfimParams(N=cfg.N, J=cfg.J, h=cfg.h)), "bdg"
    return None, "none"


def trajectory_header(cfg: RunConfig, reference, ref_source,
                      obs_labels) -> list[str]:
    lines = [
        f"# schema: {SCHEMA_TRAJECTORY}",
        f"# tau_convention: {TAU_CONVENTION}",
        f"# model: {cfg.model_text()}",
        f"# delta_tau: {_fmt(cfg.delta_tau)}",
        f"# tau_final: {_fmt(cfg.tau_final)}",
        f"# policy: {policy_text(cfg.policy())}",
        f"# reference_energy: {_fmt(reference)} (source: {ref_source})",
    ]
    cols = ["tau", "energy", "rel_error", "n_terms", "purity", "wall_time_s"]
    cols += [f"obs:{label}" for label in obs_labels]
    lines.append(",".join(cols))
    return lines


def record_row(record) -> str:
    cells = [
        _fmt(record.tau),
        _fmt(record.energy),
        _fmt(record.relative_error),
        _fmt(record.n_terms),
        _fmt(record.purity),
        _fmt(record.wall_time_s),
    ]
    cells += [_fmt(v) for v in record.observable_values]
    return ",".join(cells)


def write_trajectory(path: str, header: list[str], rows: list[str]) -> None:
    with open(path, "w") as f:
        for line in header + rows:
            f.write(line + "\n")


def write_summary(path: str, entries: dict) -> None:
    with open(path, "w") as f:
        f.write(f"schema = {SCHEMA_SUMMARY}\n")
        for key, value in entries.items():
            f.write(f"{key} = {_fmt(value)}\n")


def run_single(cfg: RunConfig, *, resume_from=None) -> dict:
    """Execute one propagation run and write its artifacts.

    Returns the summary dict.  ``resume_from`` is ``(state, start_step,
    kept_rows)`` when continuing from a checkpoint; the kept rows are
    written first, then one :func:`record_row` per new record.  The
    summary's ``final_*`` values and ``total_wall_time_s`` are the cells of
    the last row written and ``max_n_terms`` the largest ``n_terms`` cell,
    so a resume that has no step left still reports its final values.  A
    ``stop_after_step`` writes the checkpoint at that step and reports
    ``interrupted`` only when steps were left to run.
    """
    hamiltonian = cfg.hamiltonian()
    schedule = cfg.schedule()
    policy = cfg.policy()
    reference, ref_source = reference_for(cfg, hamiltonian)
    obs = cfg.observable_sums(hamiltonian.n_qubits)

    os.makedirs(cfg.out_dir, exist_ok=True)
    write_config_echo(cfg, os.path.join(cfg.out_dir, "config.ini"))
    ckpt_path = os.path.join(cfg.out_dir, "checkpoint.psum")

    initial_state, start_step, kept_rows = resume_from or (None, 0, [])

    stopped = False

    def callback(step, state, record):
        nonlocal stopped
        stop = 0 < cfg.stop_after_step <= step
        if stop or (cfg.checkpoint_every
                    and step % cfg.checkpoint_every == 0):
            tmp = ckpt_path + ".tmp"  # renamed whole, never left half written
            save_pauli_sum(state, tmp, {"step": step, "tau": repr(record.tau)})
            os.replace(tmp, ckpt_path)
        stopped = stop and step < schedule.n_steps
        return stop

    status = "completed"
    error_text = ""
    try:
        _, trajectory = run_itpp(
            hamiltonian, schedule, policy,
            observables=[s for _, s in obs],
            reference_energy=reference,
            record_per_gate=cfg.record_per_gate,
            initial_state=initial_state,
            start_step=start_step,
            step_callback=callback,
        )
    except TraceCollapseError as err:
        status = "trace-collapse"
        error_text = str(err)
        trajectory = err.trajectory or ()
    if stopped:
        status = "interrupted"
    rows = kept_rows + [record_row(record) for record in trajectory]

    summary = {
        "status": status,
        "model": cfg.model_text(),
        "policy": policy_text(policy),
        "delta_tau": cfg.delta_tau,
        "tau_final": cfg.tau_final,
        "n_steps_total": schedule.n_steps,
        "reference_energy": reference,
        "reference_source": ref_source,
    }
    if rows:
        cells = [row.split(",") for row in rows]
        tau, energy, rel_error, n_terms, purity, wall = cells[-1][:6]
        summary.update({
            "final_tau": tau,
            "final_energy": energy,
            "final_rel_error": rel_error,
            "final_n_terms": n_terms,
            "final_purity": purity,
            "max_n_terms": max(int(c[3]) for c in cells),
            "total_wall_time_s": wall,
        })
    if error_text:
        summary["error"] = error_text
    header = trajectory_header(cfg, reference, ref_source,
                               [label for label, _ in obs])
    write_trajectory(os.path.join(cfg.out_dir, "trajectory.csv"), header, rows)
    write_summary(os.path.join(cfg.out_dir, "summary.txt"), summary)
    return summary


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def report(summary: dict) -> int:
    """Print a run's status and final values; exit status 1 on a collapse."""
    print(f"status = {summary['status']}")
    if "final_energy" in summary:
        print(f"final_energy = {summary['final_energy']}")
        print(f"final_n_terms = {summary['final_n_terms']}")
    if summary["status"] == "trace-collapse":
        print(f"error: {summary['error']}", file=sys.stderr)
        return 1
    return 0


def cmd_run_itpp(args) -> int:
    return report(run_single(build_run_config(args)))


def cmd_resume(args) -> int:
    run_dir = args.run_dir
    config_path = os.path.join(run_dir, "config.ini")
    ckpt_path = os.path.join(run_dir, "checkpoint.psum")
    traj_path = os.path.join(run_dir, "trajectory.csv")
    if not os.path.exists(ckpt_path):
        raise ConfigError(f"no checkpoint in {run_dir}")
    texts = load_config_file(config_path)
    texts["stop_after_step"] = args.stop_after_step
    # the run continues in the directory given, not in the out_dir the echo
    # recorded: the directory may have moved since, and the echo does not
    # keep blanks around a name
    texts["out_dir"] = run_dir
    cfg = _config_from_texts(texts)
    state, extras = load_pauli_sum(ckpt_path)
    if "step" not in extras:
        raise ConfigError(f"checkpoint {ckpt_path} has no 'step = ' header")
    step = _whole_number("checkpoint header step", extras["step"])
    # checked before run_single rewrites anything in the run directory
    hamiltonian = cfg.hamiltonian()
    if state.n_qubits != hamiltonian.n_qubits:
        raise ConfigError(
            f"checkpoint has {state.n_qubits} qubits but the model in "
            f"{config_path} has {hamiltonian.n_qubits}"
        )
    # the same expression run_itpp records at the end of a step
    tau = step * cfg.delta_tau
    if extras.get("tau") != repr(tau):
        raise ConfigError(
            f"checkpoint tau {extras.get('tau')} at step {step} does not "
            f"match delta_tau = {cfg.delta_tau!r} in {config_path} "
            f"(expected {tau!r})"
        )
    # every row recorded up to the checkpointed step, per-gate rows
    # included, has a tau no larger than the step's
    kept_rows = []
    if os.path.exists(traj_path):
        with open(traj_path) as f:
            kept_rows = [
                line.rstrip("\n") for lineno, line in enumerate(f, start=1)
                if not line.startswith(("#", "tau,"))
                and _number(f"{traj_path}:{lineno}",
                            line.split(",", 1)[0]) <= tau]
    return report(run_single(cfg, resume_from=(state, step, kept_rows)))


def cmd_exact(args) -> int:
    cfg = build_run_config(args)
    hamiltonian = cfg.hamiltonian()
    schedule = cfg.schedule()
    reference, ref_source = reference_for(cfg, hamiltonian)
    obs = cfg.observable_sums(hamiltonian.n_qubits)
    observables = [hamiltonian.to_sum()] + [s for _, s in obs]
    os.makedirs(cfg.out_dir, exist_ok=True)
    taus = [k * cfg.delta_tau for k in range(schedule.n_steps + 1)]
    curves = []
    try:
        if args.method in ("exact", "both"):
            curves.append(("exact_ite.csv", dense_exact_ite(
                hamiltonian, taus, observables, max_qubits=cfg.dense_guard)))
        if args.method in ("trotter", "both"):
            curves.append(("trotter_ite.csv", dense_trotter_ite(
                hamiltonian, schedule, observables,
                max_qubits=cfg.dense_guard)))
    except SizeGuardError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    header = trajectory_header(cfg, reference, ref_source,
                               [label for label, _ in obs])
    for filename, curve in curves:
        rows = []
        for tau, values, purity in zip(curve.taus, curve.values,
                                       curve.purities):
            energy = values[0]
            # n_terms has no dense meaning; wall time is not tracked
            rows.append(record_row(TrajectoryRecord(
                tau, energy, relative_error(energy, reference), None, purity,
                None, tuple(values[1:]))))
        path = os.path.join(cfg.out_dir, filename)
        write_trajectory(path, header, rows)
        print(f"wrote {path}")
    return 0


def cmd_bdg(args) -> int:
    n_values = [_whole_number("--N", v) for v in args.N.split(",")]
    J, h = _number("--J", args.J), _number("--h", args.h)
    rows = []
    for n in n_values:
        e0 = bdg_ground_energy(TfimParams(N=n, J=J, h=h))
        rows.append((n, J, h, e0))
        print(f"E0(N={n}, J={_fmt(J)}, h={_fmt(h)}) = {_fmt(e0)}")
    if args.csv:
        with open(args.csv, "w") as f:
            f.write("N,J,h,E0\n")
            for n, j, h, e0 in rows:
                f.write(f"{n},{_fmt(j)},{_fmt(h)},{_fmt(e0)}\n")
        print(f"wrote {args.csv}")
    return 0


SWEEP_AXES = ("threshold", "N", "K", "delta_tau")


def cmd_sweep(args) -> int:
    base = build_run_config(args)
    values = [v for v in (s.strip() for s in args.values.split(",")) if v]
    if not values:
        raise ConfigError("empty sweep axis")
    os.makedirs(base.out_dir, exist_ok=True)
    results = []
    for raw in values:
        cfg = replace(base)
        try:
            if args.axis == "threshold":
                delta = _number("axis threshold", raw)
                cfg.truncation = f"threshold={delta!r}"
            elif args.axis == "K":
                cfg.truncation = f"fixed_k={_whole_number('axis K', raw)}"
            else:  # N and delta_tau are RunConfig fields of the same name
                setattr(cfg, args.axis, _coerce(args.axis, raw))
            cfg.out_dir = os.path.join(
                base.out_dir, "points", f"{args.axis}={raw}"
            )
            summary = run_single(cfg)
            results.append((raw, summary, None))
        except Exception as err:  # per-point failures must not end the sweep
            results.append((raw, None, f"{type(err).__name__}: {err}"))
    sweep_path = os.path.join(base.out_dir, "sweep.csv")
    with open(sweep_path, "w") as f:
        f.write(f"# schema: {SCHEMA_SWEEP}\n")
        f.write(f"# axis: {args.axis}\n")
        f.write("value,status,final_tau,final_energy,final_rel_error,"
                "final_n_terms,max_n_terms,error\n")
        for raw, summary, error in results:
            if summary is None:
                f.write(f"{_csv_field(raw)},failed,,,,,,"
                        f"{_csv_field(error, quoted=True)}\n")
            else:
                f.write(",".join([
                    _csv_field(raw),
                    summary["status"],
                    _fmt(summary.get("final_tau")),
                    _fmt(summary.get("final_energy")),
                    _fmt(summary.get("final_rel_error")),
                    _fmt(summary.get("final_n_terms")),
                    _fmt(summary.get("max_n_terms")),
                    "",
                ]) + "\n")
    print(f"wrote {sweep_path}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI config file")
    p.add_argument("--kind", choices=("tfim", "terms"),
                   help="model kind (default tfim)")
    p.add_argument("--N", help="TFIM chain length")
    p.add_argument("--J", help="TFIM coupling")
    p.add_argument("--h", help="TFIM transverse field")
    p.add_argument("--terms-file", dest="terms_file",
                   help="plain-text Hamiltonian term file")
    p.add_argument("--delta-tau", dest="delta_tau", help="Trotter step size")
    p.add_argument("--tau-final", dest="tau_final",
                   help="final imaginary time")
    p.add_argument("--dense-guard", dest="dense_guard",
                   help="dense-oracle qubit ceiling (default 14)")
    p.add_argument("--out-dir", dest="out_dir", help="artifact directory")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--truncation",
                   help="none | threshold=D | fixed_k=K | weight=W, "
                        "comma-combinable (powers like 2^-7 accepted)")
    p.add_argument("--observables",
                   help="comma-separated Pauli strings for extra columns")
    p.add_argument("--checkpoint-every", dest="checkpoint_every",
                   help="checkpoint every S Trotter steps (0 = off)")
    p.add_argument("--record-per-gate", dest="record_per_gate",
                   action="store_const", const="true",
                   help="record a trajectory row after every gate")
    p.add_argument("--stop-after-step", dest="stop_after_step",
                   help="checkpoint and exit after S steps")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paulievo",
        description="Sparse Pauli dynamics with imaginary-time propagation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run-itpp", help="propagate and record a trajectory")
    _add_model_flags(p_run)
    _add_run_flags(p_run)
    p_run.set_defaults(func=cmd_run_itpp)

    p_exact = sub.add_parser("exact", help="dense reference curves")
    _add_model_flags(p_exact)
    p_exact.add_argument("--method", choices=("exact", "trotter", "both"),
                         default="both")
    p_exact.set_defaults(func=cmd_exact)

    p_bdg = sub.add_parser("bdg", help="free-fermion TFIM ground energy")
    p_bdg.add_argument("--N", required=True,
                       help="chain length, or comma list of lengths")
    p_bdg.add_argument("--J", default="1.0")
    p_bdg.add_argument("--h", default="0.5")
    p_bdg.add_argument("--csv", help="also write (N,J,h,E0) rows here")
    p_bdg.set_defaults(func=cmd_bdg)

    p_sweep = sub.add_parser("sweep", help="one run per point of an axis")
    _add_model_flags(p_sweep)
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values (2^-k accepted)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_res = sub.add_parser("resume", help="continue from a checkpoint")
    p_res.add_argument("run_dir")
    p_res.add_argument("--stop-after-step", dest="stop_after_step",
                       default="0")
    p_res.set_defaults(func=cmd_resume)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:  # ConfigError and every other input error
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
