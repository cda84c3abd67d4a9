"""Command line interface.

Exit codes: 0 for success or a positive decision, 1 for a negative
decision (aspherical, non-generic, no common refinement, failed
deformation), 2 for invalid input.  All artifacts are canonical JSON:
sorted keys, two-space indent, trailing newline, rationals as num/den
strings, so identical runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from collections import namedtuple

from .boxorder import Params
from .combinatorics import enumerate_multipartitions
from .deform import ORACLE_BOUND, RETRY_BOUND, DeformationError, localize
from .loci import (
    IndexMode,
    Stability,
    genericity_witness,
    spherical_report,
    theta_of_p,
)
from .mporder import OrderInstance, relation_p
from .poset import Relation, common_refinement, refuse_constant, to_dot
from .scalars import KappaMode, parse_scalar

MAX_ELL_DEFAULT = 4
MAX_N_DEFAULT = 8


def canonical_dumps(payload: dict | Relation, handle=None) -> str | None:
    """The canonical JSON text of an artifact, or None once it is written to
    the text stream handle; a Relation writes its own, row by row."""
    out = io.StringIO() if handle is None else handle
    if isinstance(payload, Relation):
        payload.dump(out)
    else:
        out.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return out.getvalue() if handle is None else None


def _read_json(path: str):
    """The JSON value held in a job file; NaN and Infinity are not JSON."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle, parse_constant=refuse_constant)


def _read_relation(path: str) -> Relation:
    """The relation a file holds, read from its handle.  A pipe cannot seek
    back for the full parse, so its bytes are read whole first and decoded as
    the file's handle decodes them; io.StringIO would hold 4 bytes a character."""
    with open(path, encoding="utf-8") as handle:
        if not handle.seekable():
            handle = io.TextIOWrapper(io.BytesIO(handle.buffer.read()), encoding="utf-8")
        return Relation.load(handle)


def _length(source, key: str) -> int | None:
    """len(source[key]) when source is a JSON object holding a list there."""
    if isinstance(source, dict) and isinstance(source.get(key), list):
        return len(source[key])
    return None


def _guard_sizes(ells: list, n, max_n) -> None:
    """Refuse oversized raw sizes before any scalar is parsed; parsing reports non-ints."""
    if any(type(ell) is int and ell > MAX_ELL_DEFAULT for ell in ells):
        raise ValueError(f"ell > {MAX_ELL_DEFAULT} refused by the size guard")
    cap = MAX_N_DEFAULT if max_n is None else max_n
    if type(n) is type(cap) is int and n > cap:
        raise ValueError(f"n > {cap} refused by the size guard (--max-n raises it)")


def _run_enumerate(job: argparse.Namespace) -> tuple[dict, int]:
    labels = enumerate_multipartitions(job.ell, job.n)
    return {"ell": job.ell, "n": job.n, "labels": [mp.to_json() for mp in labels]}, 0


def _run_order(job: argparse.Namespace) -> tuple[Relation, int]:
    rel = relation_p(OrderInstance(job.params, job.n))
    if job.dot is not None:
        with open(job.dot, "w", encoding="utf-8") as handle:
            handle.write(to_dot(rel))
    return rel, 0


def _run_spherical(job: argparse.Namespace) -> tuple[dict, int]:
    report = spherical_report(job.params, job.n)
    return report, 0 if report["spherical"] else 1


def _run_generic(job: argparse.Namespace) -> tuple[dict, int]:
    witness = genericity_witness(job.theta, job.n, job.index_mode)
    artifact = {
        "generic": witness is None,
        "index_mode": job.index_mode.value,
        "witness": witness,
    }
    return artifact, 0 if witness is None else 1


def _run_theta(job: argparse.Namespace) -> tuple[dict, int]:
    return theta_of_p(job.params).to_json(), 0


def _run_localize(job: argparse.Namespace) -> tuple[dict, int]:
    try:
        cert = localize(job.params, job.n, index_mode=job.index_mode,
                        oracle_bound=job.oracle_bound, retry_bound=job.retry_bound)
        return cert.to_json(), 0
    except DeformationError as err:
        return {"failed": "deformation", **err.diagnostics}, 1


def _run_common_refinement(job: argparse.Namespace) -> tuple[dict | Relation, int]:
    result = common_refinement(*map(_read_relation, job.inputs))
    if result.order is not None:
        return result.order, 0
    return {"cycle": result.cycle}, 1


# Every argument a subcommand may take -> its add_argument keywords.
_ARGUMENTS = {
    "--ell": {"type": int, "required": True},
    "--n": {"type": int, "required": True},
    "--kappa": {"required": True, "help": "rational like 1/2, or 'formal'"},
    "--h": {"help": "comma list of scalars, e.g. 1/4,-1/4 or 0,1/2k"},
    "--theta": {"required": True, "help": "comma list of scalars"},
    "--index-mode": {"choices": [m.value for m in IndexMode], "default": IndexMode.LITERAL.value},
    "--out": {"help": "write the JSON artifact here instead of stdout"},
    "--max-n": {"type": int, "help": "raise the size guard"},
    "--dot": {"help": "also write the Hasse diagram as DOT"},
    "--oracle-bound": {"type": int, "default": ORACLE_BOUND},
    "--retry-bound": {"type": int, "default": RETRY_BOUND},
    "inputs": {"nargs": 2, "metavar": "RELATION_JSON"},
}

# Top-level job keys of flags; kappa rides in params or theta, other flags are options by dest.
_TOP_LEVEL = {"--ell": "ell", "--n": "n", "--kappa": None, "--h": "params",
              "--theta": "theta", "inputs": "inputs"}


# A subcommand: help, handler returning (artifact, exit code), the job
# attributes it requires, and arguments in the order argparse reports them missing.
Command = namedtuple("Command", "help handler required arguments")


COMMANDS = {
    "enumerate": Command("list all multipartitions of n", _run_enumerate, ("ell", "n"),
                         "--ell --n --out --max-n"),
    "order": Command("compute the order relation on multipartitions", _run_order,
                     ("n", "params"), "--ell --n --kappa --h --out --max-n --dot"),
    "spherical": Command("list aspherical hyperplanes through p", _run_spherical,
                         ("n", "params"), "--ell --n --kappa --h --out --max-n"),
    "generic": Command("check genericity of a stability vector", _run_generic, ("n", "theta"),
                       "--ell --n --kappa --theta --index-mode --out --max-n"),
    "theta": Command("read the stability vector off p", _run_theta, ("params",),
                     "--ell --kappa --h --out"),
    "localize": Command("deform p and emit a certificate", _run_localize, ("n", "params"),
                        "--ell --n --kappa --h --index-mode --out --max-n "
                        "--oracle-bound --retry-bound"),
    "common-refinement": Command("minimum common refinement of two relation files",
                                 _run_common_refinement, ("inputs",), "inputs --out"),
}


def run(job: argparse.Namespace) -> int:
    if job.command not in COMMANDS:
        raise ValueError(f"unknown command: {job.command}")
    command = COMMANDS[job.command]
    missing = [name for name in command.required if getattr(job, name) in (None, ())]
    if missing:
        raise ValueError(f"{job.command} needs {', '.join(missing)}")
    if job.command == "common-refinement" and len(job.inputs) != 2:
        raise ValueError("common-refinement needs two relation files")
    artifact, code = command.handler(job)
    if job.out is None:
        canonical_dumps(artifact, sys.stdout)
    else:
        with open(job.out, "w", encoding="utf-8") as handle:
            canonical_dumps(artifact, handle)
    return code


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 2 with one `cherloc: ...` line."""

    def error(self, message: str):
        self.exit(2, f"cherloc: {message}\n")


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for argv: every subcommand, but only the one that argv
    names (its first token that is not an option) gets its arguments."""
    chosen = next((token for token in argv if not token.startswith("-")), None)
    parser = _Parser(
        prog="cherloc",
        description="Exact multipartition box orders, aspherical loci, and "
        "deformation certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        for argument in command.arguments.split() if name == chosen else ():
            sp.add_argument(argument, **_ARGUMENTS[argument])
    sp = sub.add_parser("job", help="run a JobSpec JSON file")
    if chosen == "job":
        sp.add_argument("jobfile")
    return parser


def _scalars(text: str | None, flag: str, mode: KappaMode, ell: int) -> tuple:
    """The comma list of --flag, of length ell; an omitted or empty --h is all zeros."""
    if flag == "h" and not text:
        entries = [mode.zero()] * ell
    else:
        entries = [parse_scalar(chunk, mode) for chunk in text.split(",")]
    if len(entries) != ell:
        raise ValueError(f"--{flag} length must equal --ell")
    return tuple(entries)


def _job_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """The job argparse read, size-guarded, with params or theta built from kappa."""
    given = vars(args)
    _guard_sizes([given.get("ell")], given.get("n"), given.get("max_n"))
    if "kappa" in given:
        mode = KappaMode.from_label(args.kappa)
        if "h" in given:
            args.params = Params(mode, _scalars(args.h, "h", mode, args.ell))
        else:
            args.theta = Stability(_scalars(args.theta, "theta", mode, args.ell))
    return _typed(args)


def _job_from_json(data) -> argparse.Namespace:
    """The job a job file holds: every flag read under its job key, with the type, default
    and choices of its _ARGUMENTS entry; keys no flag of the command has are refused."""
    if not isinstance(data, dict):
        raise ValueError("a job file must hold a JSON object")
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ValueError("job options must be a JSON object")
    ells = [data.get("ell"), _length(data.get("params"), "h"), _length(data.get("theta"), "theta")]
    _guard_sizes(ells, data.get("n"), options.get("max_n"))
    command = _field(data, "command", {})
    keys = {flag: _TOP_LEVEL.get(flag, flag[2:].replace("-", "_")) for flag in _ARGUMENTS}
    flags = COMMANDS[command].arguments.split() if command in COMMANDS else ()
    top = ["command", "options", *(keys[flag] for flag in flags if flag in _TOP_LEVEL)]
    under = [keys[flag] for flag in flags if flag not in _TOP_LEVEL]
    foreign = [key for key in data if key not in top] + [key for key in options if key not in under]
    if flags and foreign:
        raise ValueError(f"{command} takes no job field {foreign[0]!r}")
    params = Params.from_json(data["params"]) if data.get("params") else None
    theta = Stability.from_json(data["theta"]) if data.get("theta") else None
    if type(ells[0]) is int and any(size not in (None, ells[0]) for size in ells[1:]):
        raise ValueError("job field 'ell' must equal the lengths of params.h and theta.theta")
    job = argparse.Namespace(command=command, params=params, theta=theta)
    for flag, key in keys.items():
        where = data if flag in _TOP_LEVEL else options
        if key not in (None, "params", "theta"):
            setattr(job, key, _field(where, key, _ARGUMENTS[flag]))
    return _typed(job)


def _field(data: dict, key: str, argument: dict):
    """data[key] checked against a flag's add_argument keywords, or their default when absent."""
    value = data.get(key)
    if value is None:
        return argument.get("default")
    kind = list if "nargs" in argument else argument.get("type", str)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"job field {key!r} must be of type {kind.__name__}")
    if kind is list and not all(isinstance(path, str) for path in value):
        raise ValueError(f"job field {key!r} must list file paths")
    if "choices" in argument and value not in argument["choices"]:
        raise ValueError(f"job field {key!r} must be one of {argument['choices']}")
    return value


def _typed(job: argparse.Namespace) -> argparse.Namespace:
    """job with index_mode an IndexMode and inputs a tuple, where it has them."""
    if hasattr(job, "index_mode"):
        job.index_mode = IndexMode(job.index_mode)
    if getattr(job, "inputs", None) is not None:
        job.inputs = tuple(job.inputs)
    return job


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    try:
        if args.command == "job":
            job = _job_from_json(_read_json(args.jobfile))
        else:
            job = _job_from_args(args)
        return run(job)
    except RecursionError:
        print("cherloc: input nested too deeply", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError) as err:
        message = f"missing field {err}" if isinstance(err, KeyError) else err
        print(f"cherloc: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
