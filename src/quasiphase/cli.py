"""Command-line front end: build operator files, push them through
channels, sample phase-space distributions, and run the verification suite.

Every artifact is written atomically (temp file in the destination
directory, then os.replace), so an interrupted run never leaves a partial
file behind.  Exit codes: 0 on success, 1 for domain failures (truncation,
singular P, failed verification), 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .analysis import (
    CHECK_NAMES,
    VerifyConfig,
    report_to_json,
    report_to_text,
    verify_suite,
)
from .channels import apply, channel_diagnostics, spec_from_json
from .errors import QuasiphaseError, SpecParseError, ValidationError
from .fock import (
    as_density,
    coherent_state,
    displaced_parity,
    fock_state,
    operator_from_json,
    operator_to_json,
    thermal_state,
)
from .phasespace import (
    PhaseGrid,
    distribution_to_csv,
    integrate,
    negativity,
    sample,
)

__all__ = ["parse_state_spec", "build_parser", "main"]

PSD_FLAG_TOLERANCE = 1e-8

STATE_FORMS = ("vacuum", "fock:n", "coherent:re,im", "thermal:nbar",
               "parity:re,im", "file:path")


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from exc


def _write_atomic(path: str, text: str) -> None:
    target = os.path.abspath(path)
    directory = os.path.dirname(target)
    os.makedirs(directory, exist_ok=True)
    handle = tempfile.NamedTemporaryFile("w", encoding="utf-8", dir=directory,
                                         prefix=".quasiphase-", delete=False)
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, target)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def _number_field(spec: str, token: str, position: int, kind: type):
    """`token` as a float or int, or SpecParseError naming its position."""
    try:
        return kind(token)
    except ValueError:
        what = "an integer" if kind is int else "a real number"
        raise SpecParseError(
            f"state spec {spec!r}: expected {what} at position {position}, got {token!r}") from None


def _pair_field(spec: str, body: str, position: int) -> complex:
    parts = body.split(",")
    if len(parts) != 2:
        raise SpecParseError(
            f"state spec {spec!r}: expected 're,im' at position {position}")
    re = _number_field(spec, parts[0], position, float)
    im = _number_field(spec, parts[1], position + len(parts[0]) + 1, float)
    return complex(re, im)


def parse_state_spec(spec: str, dim: int):
    """Build an operator from the textual grammar.

    Forms: vacuum | fock:n | coherent:re,im | thermal:nbar | parity:re,im
    | file:path.  The file form ignores `dim` (the file carries its own).
    Parse failures raise SpecParseError naming the offending position;
    construction failures (truncation, bad levels) surface verbatim.
    """
    text = spec.strip()
    head, sep, body = text.partition(":")
    position = len(head) + 1
    if head == "vacuum":
        if sep:
            raise SpecParseError(
                f"state spec {spec!r}: 'vacuum' takes no argument "
                f"(position {position})")
        return fock_state(0, dim)
    if not sep:
        raise SpecParseError(
            f"state spec {spec!r}: unknown form at position 0; expected one "
            f"of {', '.join(STATE_FORMS)}")
    if head == "fock":
        return fock_state(_number_field(spec, body, position, int), dim)
    if head == "coherent":
        return coherent_state(_pair_field(spec, body, position), dim)[0]
    if head == "thermal":
        return thermal_state(_number_field(spec, body, position, float), dim)
    if head == "parity":
        return displaced_parity(_pair_field(spec, body, position), dim)
    if head == "file":
        if not body:
            raise SpecParseError(
                f"state spec {spec!r}: empty path at position {position}")
        return operator_from_json(_read_text(body))
    raise SpecParseError(
        f"state spec {spec!r}: unknown form {head!r} at position 0; expected "
        f"one of {', '.join(STATE_FORMS)}")


def _meta_path(out: str, tag: str) -> str:
    return os.path.splitext(out)[0] + f".{tag}.json"


def _cmd_state(args) -> int:
    op = parse_state_spec(args.spec, args.dim)
    _write_atomic(args.out, operator_to_json(op))
    return 0


def _cmd_channel(args) -> int:
    spec = spec_from_json(_read_text(args.channel))
    state = operator_from_json(_read_text(args.state))
    out = apply(spec, state)
    diag = channel_diagnostics(state, out)
    diag["psd_negative"] = bool(diag["psd_floor_out"] < -PSD_FLAG_TOLERANCE)
    _write_atomic(args.out, operator_to_json(out))
    _write_atomic(_meta_path(args.out, "diag"), json.dumps(diag, indent=2) + "\n")
    return 0


def _cmd_dist(args) -> int:
    state = operator_from_json(_read_text(args.state))
    try:  # a PSD file's grid must keep its trace, whatever it is; a non-PSD
        # operator (parity:) has no trace to keep
        state = as_density(state, trace_tolerance=float("inf"))
    except ValidationError:
        pass
    grid = PhaseGrid(half_extent=args.grid_extent, spacing=args.grid_step)
    dist = sample(state, args.kind, grid)
    report = negativity(dist)
    meta = {
        "kind": dist.kind,
        "source_label": dist.source_label,
        "dim": state.dim,
        "grid": {"half_extent": grid.half_extent, "spacing": grid.spacing},
        "integral": integrate(dist),
        "negativity": {
            "min_value": report.min_value,
            "negative_volume": report.negative_volume,
        },
    }
    _write_atomic(args.out, distribution_to_csv(dist))
    _write_atomic(_meta_path(args.out, "meta"), json.dumps(meta, indent=2) + "\n")
    return 0


def _parse_tolerances(pairs) -> dict:
    tolerances = {}
    for pair in pairs or ():
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise SpecParseError(
                f"tolerance override {pair!r} must look like name=value")
        try:
            tolerances[name] = float(value)
        except ValueError:
            raise SpecParseError(
                f"tolerance override {pair!r}: {value!r} is not a number"
            ) from None
    return tolerances


def _cmd_verify(args) -> int:
    only = None
    if args.only:
        only = tuple(name for chunk in args.only for name in chunk.split(",") if name)
    config = VerifyConfig(dim=args.dim, grid_extent=args.grid_extent,
                          grid_step=args.grid_step, seed=args.seed,
                          tolerances=_parse_tolerances(args.tol), only=only)
    report = verify_suite(config)
    text = report_to_text(report)
    _write_atomic(os.path.join(args.out, "verify_report.json"),
                  report_to_json(report))
    _write_atomic(os.path.join(args.out, "verify_report.txt"), text)
    sys.stdout.write(text)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasiphase",
        description="Truncated Fock-space states, Gaussian channels, and "
                    "phase-space distributions.")
    sub = parser.add_subparsers(dest="command", required=True)

    state = sub.add_parser("state", help="build an operator file from a spec")
    state.add_argument("spec", help=f"one of: {', '.join(STATE_FORMS)}")
    state.add_argument("--dim", type=int, default=64,
                       help="Fock-space dimension (default 64)")
    state.add_argument("--out", required=True, help="output operator JSON path")
    state.set_defaults(func=_cmd_state)

    channel = sub.add_parser(
        "channel", help="apply a channel spec to an operator file")
    channel.add_argument("channel", help="channel spec JSON path")
    channel.add_argument("state", help="input operator JSON path")
    channel.add_argument("--out", required=True, help="output operator JSON path")
    channel.set_defaults(func=_cmd_channel)

    dist = sub.add_parser(
        "dist", help="sample a quasiprobability distribution on a grid")
    dist.add_argument("kind", choices=("P", "W", "Q"))
    dist.add_argument("state", help="operator JSON path")
    dist.add_argument("--grid-extent", type=float, default=5.0)
    dist.add_argument("--grid-step", type=float, default=0.05)
    dist.add_argument("--out", required=True, help="output CSV path")
    dist.set_defaults(func=_cmd_dist)

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--dim", type=int, default=64)
    verify.add_argument("--grid-extent", type=float, default=5.0)
    verify.add_argument("--grid-step", type=float, default=0.05)
    verify.add_argument("--seed", type=int, default=7)
    verify.add_argument("--tol", action="append", metavar="NAME=VALUE",
                        help="per-check tolerance override, repeatable")
    verify.add_argument("--only", action="append", metavar="NAME[,NAME...]",
                        help=f"run a subset of: {', '.join(CHECK_NAMES)}")
    verify.add_argument("--out", default=".",
                        help="directory for verify_report.{json,txt}")
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QuasiphaseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
