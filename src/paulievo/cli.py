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
import itertools
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

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
    DEFAULT_MAX_QUBITS,
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
# the trajectory columns: the fields of a TrajectoryRecord, in its order,
# before one column per observable
COLUMNS = ("tau", "energy", "rel_error", "n_terms", "purity", "wall_time_s")
SWEEP_KEYS = ("value", "status", "final_tau", "final_energy",
              "final_rel_error", "final_n_terms", "max_n_terms", "error")
TAU_CONVENTION = (
    "accumulated tau equals the inverse temperature beta; "
    "state ~ exp(-tau*H)"
)


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


def _setting(default, section: str, help: str, **flag):
    """A field's default, INI section, and flag help and keywords."""
    return field(default=default, metadata={
        "section": section, "flag": {"help": help, **flag}})


@dataclass
class RunConfig:
    """Everything one propagation run needs; all fields deterministic.

    Each field is one setting: a config key in its section and a
    ``--<name>`` flag.  The fields are ordered by section, the order of
    the ``config.ini`` echo.
    """

    kind: str = _setting("tfim", "model", "model kind (default tfim)",
                         choices=("tfim", "terms"))
    N: int = _setting(10, "model", "TFIM chain length")
    J: float = _setting(1.0, "model", "TFIM coupling")
    h: float = _setting(0.5, "model", "TFIM transverse field")
    terms_file: str = _setting("", "model",
                               "plain-text Hamiltonian term file")
    delta_tau: float = _setting(0.04, "schedule", "Trotter step size")
    tau_final: float = _setting(10.0, "schedule", "final imaginary time")
    truncation: str = _setting(
        "none", "truncation", "none | threshold=D | fixed_k=K | weight=W, "
        "comma-combinable (powers like 2^-7 accepted)")
    out_dir: str = _setting("itpp-run", "output", "artifact directory")
    checkpoint_every: int = _setting(
        0, "output", "checkpoint every S Trotter steps (0 = off)")
    observables: str = _setting(
        "", "run", "comma-separated Pauli strings for extra columns")
    record_per_gate: bool = _setting(
        False, "run", "record a trajectory row after every gate",
        action="store_const", const="true")
    stop_after_step: int = _setting(0, "run",
                                    "checkpoint and exit after S steps")
    dense_guard: int = _setting(
        DEFAULT_MAX_QUBITS, "run",
        f"dense-oracle qubit ceiling (default {DEFAULT_MAX_QUBITS})")

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
        labels = filter(None, (s.strip() for s in self.observables.split(",")))
        return [(text, PauliSum.from_terms(n_qubits, [(1.0, text)]))
                for text in labels]


_FIELDS = {f.name: f for f in fields(RunConfig)}
CONFIG_SECTIONS = {
    section: tuple(f.name for f in group) for section, group in
    itertools.groupby(_FIELDS.values(), lambda f: f.metadata["section"])}


def _config_parser() -> configparser.ConfigParser:
    # values are taken as written (no %-interpolation: a '%' in a path
    # round-trips through the echo), and a [DEFAULT] section, whose keys
    # would reach every other, is refused like any undeclared section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.optionxform = str  # keys like N and J are case-sensitive
    return parser


def load_config_file(path: str) -> dict:
    """Read the INI config into a flat ``{field: string}`` dict."""
    parser = _config_parser()
    try:
        read = parser.read(path)
    except configparser.Error as err:
        raise ConfigError(f"config file {path}: {err}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    flat = {}
    for section in parser.sections():
        if section not in CONFIG_SECTIONS:
            raise ConfigError(f"unknown section [{section}] in {path}")
        for key, value in parser.items(section):
            if key not in CONFIG_SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in section "
                                  f"[{section}] of {path}")
            flat[key] = value
    return flat


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _coerce(key: str, text: str):
    """The one rule turning flag or config-file text into a field value."""
    kind = type(_FIELDS[key].default)
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
    texts = load_config_file(args.config) if args.config else {}
    for key in _FIELDS:
        if getattr(args, key) is not None:
            texts[key] = getattr(args, key)
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
    return [
        f"# schema: {SCHEMA_TRAJECTORY}",
        f"# tau_convention: {TAU_CONVENTION}",
        f"# model: {cfg.model_text()}",
        f"# delta_tau: {_fmt(cfg.delta_tau)}",
        f"# tau_final: {_fmt(cfg.tau_final)}",
        f"# policy: {policy_text(cfg.policy())}",
        f"# reference_energy: {_fmt(reference)} (source: {ref_source})",
        ",".join([*COLUMNS, *(f"obs:{label}" for label in obs_labels)]),
    ]


def record_row(record: TrajectoryRecord) -> str:
    *cells, observable_values = (getattr(record, f.name)
                                 for f in fields(record))
    return ",".join(_fmt(v) for v in (*cells, *observable_values))


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
        *final, wall = cells[-1][:len(COLUMNS)]
        summary.update(zip([f"final_{c}" for c in COLUMNS], final))
        summary["max_n_terms"] = max(int(c[3]) for c in cells)
        summary["total_wall_time_s"] = wall
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
    # included, has a tau no larger than the step's; the trajectory is
    # written only when a run ends, so a killed run may leave a checkpoint
    # whose rows were never written
    if not os.path.exists(traj_path):
        raise ConfigError(f"{traj_path} is missing; the checkpoint is at "
                          f"step {step} (tau {tau!r})")
    kept_rows = []
    last = None
    reached = False
    with open(traj_path) as f:
        for lineno, line in enumerate(f, start=1):
            if line.startswith(("#", "tau,")):
                continue
            where = f"{traj_path}:{lineno}"
            value = _number(where, line.split(",", 1)[0])
            if not math.isfinite(value):
                raise ConfigError(f"{where}: tau {value!r} is not finite")
            last = value
            reached |= value == tau
            if value <= tau:
                kept_rows.append(line.rstrip("\n"))
    if not reached:
        raise ConfigError(
            f"{traj_path} has no row at the checkpoint's step {step} "
            f"(tau {tau!r}); its last tau is {last!r}"
        )
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
        # n_terms has no dense meaning; wall time is not tracked
        rows = [record_row(TrajectoryRecord(
                    tau, values[0], relative_error(values[0], reference),
                    None, purity, None, tuple(values[1:])))
                for tau, values, purity in zip(curve.taus, curve.values,
                                               curve.purities)]
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
            # the error field of a point that ran stays empty, even when
            # its summary holds a trace collapse
            results.append({**run_single(cfg), "value": raw, "error": ""})
        except Exception as err:  # per-point failures must not end the sweep
            results.append({"value": raw, "status": "failed",
                            "error": f"{type(err).__name__}: {err}"})
    sweep_path = os.path.join(base.out_dir, "sweep.csv")
    with open(sweep_path, "w") as f:
        f.write(f"# schema: {SCHEMA_SWEEP}\n")
        f.write(f"# axis: {args.axis}\n")
        f.write(",".join(SWEEP_KEYS) + "\n")
        for result in results:
            # a failed point's error is quoted whatever it holds
            f.write(",".join(
                _csv_field(_fmt(result.get(key)),
                           quoted=key == "error" and bool(result["error"]))
                for key in SWEEP_KEYS) + "\n")
    print(f"wrote {sweep_path}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_setting_flag(p: argparse.ArgumentParser, name: str,
                      **override) -> None:
    p.add_argument("--" + name.replace("_", "-"),
                   **{**_FIELDS[name].metadata["flag"], **override})


def _add_setting_flags(p: argparse.ArgumentParser) -> None:
    """``--config`` and a flag per setting; a flag not given is ``None``,
    so the config file's value or the default stands."""
    p.add_argument("--config", help="INI config file")
    for name in _FIELDS:
        _add_setting_flag(p, name)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paulievo",
        description="Sparse Pauli dynamics with imaginary-time propagation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run-itpp", help="propagate and record a trajectory")
    _add_setting_flags(p_run)
    p_run.set_defaults(func=cmd_run_itpp)

    p_exact = sub.add_parser("exact", help="dense reference curves")
    _add_setting_flags(p_exact)
    p_exact.add_argument("--method", choices=("exact", "trotter", "both"),
                         default="both")
    p_exact.set_defaults(func=cmd_exact)

    p_bdg = sub.add_parser("bdg", help="free-fermion TFIM ground energy")
    p_bdg.add_argument("--N", required=True,
                       help="chain length, or comma list of lengths")
    p_bdg.add_argument("--J", default=str(RunConfig.J))
    p_bdg.add_argument("--h", default=str(RunConfig.h))
    p_bdg.add_argument("--csv", help="also write (N,J,h,E0) rows here")
    p_bdg.set_defaults(func=cmd_bdg)

    p_sweep = sub.add_parser("sweep", help="one run per point of an axis")
    _add_setting_flags(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values (2^-k accepted)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_res = sub.add_parser("resume", help="continue from a checkpoint")
    p_res.add_argument("run_dir")
    _add_setting_flag(p_res, "stop_after_step", default="0")
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
