"""The three benchmark workloads, built from a seed.

Each workload is one single-threaded client in a closed loop: it sends the
next op only after the previous one returned.  A workload's constructor is
its set-up (input generation); `ops()` yields the ops forever, one pass
after another, and every op carries its own output check.

* verify    - the north-star contract run, verify_suite at dim 64.
* certify   - the criterion 9 and 10 routes: dense superoperator, Tikhonov
              inverse, dilation oracles, characteristic-function quadrature.
* cli_files - in-process CLI requests that write and read operator JSON,
              channel diagnostics and 1.9 MB distribution CSVs, with a fixed
              share of malformed requests.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Per-check names of verify_suite, as the per-layer metrics name them.
CHECK_NAMES = (
    "husimi_equals_wigner_of_smoothed",
    "weierstrass_halfstep_matches_smoothed_wigner",
    "coherent_projection_route_agreement",
    "parity_smooths_to_coherent_state",
    "parity_double_smooth_gaussian_mixture",
    "amplified_vacuum_is_thermal",
    "amplified_parity_is_half_vacuum",
    "photon_number_laws",
    "smoothed_image_wigner_positive",
    "double_smoothed_image_wigner_positive",
)


@dataclass
class Outcome:
    """What an op's check found.

    `checks` holds (label, deviation, tolerance) triples the op must meet;
    `problems` holds failures that have no tolerance.  `gauges` are
    per-layer readings (the last value wins) and `counts` per-layer counters
    (summed over ops).
    """

    checks: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    gauges: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.problems) or not all(
            dev <= tol for _, dev, tol in self.checks)


@dataclass
class Op:
    """One request: `key` names its input, the same on every pass."""

    key: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def _seed_for_program(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


class Verify:
    """Repeated verify_suite(dim=64, R=5, h=0.05) with the default threads."""

    name = "verify"
    pass_len = 1

    def __init__(self, qp, seed: int, workdir: str, tracer):
        self.analysis = qp.analysis
        self.program_seed = _seed_for_program(np.random.default_rng(seed))
        self.config = qp.analysis.VerifyConfig(
            dim=64, grid_extent=5.0, grid_step=0.05, seed=self.program_seed)

    def _check(self, report) -> Outcome:
        out = Outcome(checks=[(c.name, c.deviation, c.tolerance)
                              for c in report.checks])
        out.problems += [f"{c.name}: {c.note}" for c in report.checks if c.note]
        if not report.passed:
            out.problems.append("report.passed is False")
        return out

    def ops(self):
        while True:
            yield Op("suite", lambda: self.analysis.verify_suite(self.config),
                     self._check)

    def per_check(self) -> dict:
        """Runtime and deviation of each check, run alone on one thread."""
        analysis = self.analysis
        fields = analysis.VerifyConfig.__dataclass_fields__
        extra = {"threads": 1} if "threads" in fields else {}
        metrics = {}
        for name in CHECK_NAMES:
            if name not in getattr(analysis, "CHECK_NAMES", ()):
                continue
            config = analysis.VerifyConfig(
                dim=64, grid_extent=5.0, grid_step=0.05,
                seed=self.program_seed, only=(name,), **extra)
            (check,) = analysis.verify_suite(config).checks
            metrics[f"analysis.check.{name}.s"] = check.runtime_s
            metrics[f"analysis.check.{name}.dev"] = check.deviation
        return metrics


class Certify:
    """Criterion 9 and 10 routes, one route call per op."""

    name = "certify"
    WORK_DIM = 40
    ORACLE_DIM = 64
    EPSILON = 1e-10
    DILATION_TOLERANCE = 1e-6
    QUADRATURE_TOLERANCE = 5e-3
    KRAUS_TOLERANCE = 1e-10
    W_POINTS = (0.0, 0.5, 0.5 + 0.5j, 1.0j, -0.7 + 0.2j, 1.2 - 0.4j)

    def __init__(self, qp, seed: int, workdir: str, tracer):
        self.qp = qp
        rng = np.random.default_rng(seed)
        fock, channels = qp.fock, qp.channels
        self.spec = channels.smoothing_channel()
        self.battery = qp.analysis.default_battery(
            dim=self.WORK_DIM, seed=_seed_for_program(rng))
        self.profile_index = int(rng.integers(len(self.battery)))
        self.betagrid = qp.phasespace.PhaseGrid(half_extent=5.0, spacing=0.05)
        self.w_states = (fock.fock_state(1, 32),
                         fock.coherent_state(0.9, 32)[0],
                         fock.thermal_state(1.0, 32))
        self.residual_bound = qp.analysis.RESIDUAL_BOUND
        self.pass_ops = self._pass()
        self.pass_len = len(self.pass_ops)

    def _pass(self) -> list:
        # Round trips come first so each run starts with the cold dense
        # superoperator and the cold Cholesky factor, as a user process does.
        ops = [self._roundtrip(n) for n in range(4)]
        ops += [self._classicality(i) for i in range(len(self.battery))]
        ops.append(self._profile())
        ops += [self._dilation(n) for n in range(9)]
        ops += [self._quadrature(alpha) for alpha in self.W_POINTS]
        ops.append(self._kraus())
        return ops

    def ops(self):
        while True:
            yield from self.pass_ops

    def _roundtrip(self, n: int) -> Op:
        fock, channels = self.qp.fock, self.qp.channels
        dim, spec = self.WORK_DIM, self.spec

        def run():
            state = fock.fock_state(n, dim)
            forward = channels.superoperator_of(spec, dim).apply_matrix(state.matrix)
            image = channels.apply(spec, state)
            image = fock.crop(image, min(image.dim, dim))
            forward_dev = fock.trace_distance(fock.TruncatedOperator(forward), image)
            back = channels.inverse_apply(spec, image, epsilon=self.EPSILON)
            return forward_dev, back.residual, fock.trace_distance(back.operator, state)

        def check(value) -> Outcome:
            forward_dev, residual, roundtrip = value
            return Outcome(
                checks=[("superoperator_vs_kernel", forward_dev, self.residual_bound),
                        ("inverse_forward_residual", residual, self.residual_bound)],
                gauges={f"analysis.inverse.roundtrip_td.fock{n}": roundtrip})

        return Op(f"roundtrip:fock{n}", run, check)

    def _classicality(self, index: int) -> Op:
        analysis, channels = self.qp.analysis, self.qp.channels
        state = self.battery[index]

        def run():
            # The full grown image, as criterion 9 passes it.
            image = channels.apply(self.spec, state)
            return [analysis.classicality_check(image, order=order,
                                                epsilon=self.EPSILON,
                                                work_dim=self.WORK_DIM)
                    for order in (1, 2)]

        def check(reports) -> Outcome:
            out = Outcome()
            for report in reports:
                if report.verdict not in ("CertifiedClassical", "Inconclusive"):
                    out.problems.append(f"unknown verdict {report.verdict!r}")
                if not (math.isfinite(report.residual)
                        and math.isfinite(report.min_eigenvalue_of_inverse)):
                    out.problems.append("non-finite classicality report")
            certified = reports[0].verdict == "CertifiedClassical"
            out.gauges[f"analysis.classicality.certified.{index}"] = float(certified)
            return out

        return Op(f"classicality:{index}", run, check)

    def _profile(self) -> Op:
        analysis, channels = self.qp.analysis, self.qp.channels
        state = self.battery[self.profile_index]

        def run():
            return analysis.nonclassicality_profile(
                channels.apply(self.spec, state), order=1, work_dim=self.WORK_DIM)

        def check(ladder) -> Outcome:
            out = Outcome()
            epsilons = [e for e, _ in ladder]
            if len(ladder) != 4 or epsilons != sorted(epsilons, reverse=True):
                out.problems.append(f"unexpected epsilon ladder {epsilons}")
            if not all(math.isfinite(s) and s >= 0.0 for _, s in ladder):
                out.problems.append("profile score negative or non-finite")
            return out

        return Op("profile", run, check)

    def _dilation(self, n: int) -> Op:
        fock, channels = self.qp.fock, self.qp.channels

        def run():
            state = fock.fock_state(n, self.ORACLE_DIM)
            # Ancilla headroom grows with the amplified photon number.
            amp = fock.trace_distance(
                channels.amplifier_apply(2.0, state),
                channels.amplifier_dilated(2.0, state, anc_dim=4 * (n + 1) + 48))
            att = fock.trace_distance(channels.attenuator_apply(0.5, state),
                                      channels.attenuator_dilated(0.5, state))
            return amp, att

        def check(value) -> Outcome:
            amp, att = value
            return Outcome(checks=[("amplifier_dilation", amp, self.DILATION_TOLERANCE),
                                   ("attenuator_dilation", att, self.DILATION_TOLERANCE)])

        return Op(f"dilation:fock{n}", run, check)

    def _quadrature(self, alpha: complex) -> Op:
        phasespace = self.qp.phasespace

        def run():
            return max(abs(phasespace.w_at(state, alpha)
                           - phasespace.w_char_at(state, alpha, self.betagrid))
                       for state in self.w_states)

        def check(dev) -> Outcome:
            return Outcome(checks=[("w_at_vs_w_char_at", dev, self.QUADRATURE_TOLERANCE)])

        return Op(f"quadrature:{alpha}", run, check)

    def _kraus(self) -> Op:
        channels = self.qp.channels
        dim = self.ORACLE_DIM
        low = 3 * dim // 4

        def run():
            kraus = channels.attenuator_kraus(0.5, dim)
            total = sum(k.conj().T @ k for k in kraus.matrices)
            block = float(np.max(np.abs(total[:low, :low] - np.eye(low))))
            return block, kraus.completeness_residual

        def check(value) -> Outcome:
            block, reported = value
            return Outcome(checks=[("kraus_low_block", block, self.KRAUS_TOLERANCE),
                                   ("kraus_completeness", reported, self.KRAUS_TOLERANCE)])

        return Op("kraus", run, check)


class CliFiles:
    """CLI requests through quasiphase.cli.main in a scratch directory.

    A valid request is state -> channel (smoothing spec) -> dist W on the
    image -> dist Q on the input, on the default grid.  Every block holds
    each valid menu entry once, in menu order, plus MALFORMED_PER_BLOCK
    malformed requests at seeded places; the malformed kinds rotate in a
    seeded order so every kind recurs at the same rate.  The seed draws the
    random state, the coherent phase and the malformed inputs; the order
    stays fixed because the peak RSS depends on it.  A malformed request
    fails only if the CLI accepts it.  Whether it was refused with a typed
    error (exit 1 or 2) or with an exception escaping cli.main is counted
    in cli.error_path.typed.
    """

    name = "cli_files"
    MALFORMED_PER_BLOCK = 1
    INTEGRAL_TOLERANCE = 1e-3
    TRACE_DEFICIT_TOLERANCE = 1e-8
    MALFORMED_KINDS = ("ragged_operator", "amplifier_kappa_text",
                       "unknown_state_form", "truncated_channel_json")

    def __init__(self, qp, seed: int, workdir: str, tracer):
        self.cli = qp.cli
        self.tracer = tracer
        self.dir = workdir
        self.rng = np.random.default_rng(seed)
        fock, channels = qp.fock, qp.channels
        os.makedirs(workdir, exist_ok=True)
        self.smoothing = self._write("smoothing.json",
                                     channels.spec_to_json(channels.smoothing_channel()))
        random_path = self._write("random.json", fock.operator_to_json(
            fock.random_density(64, rank=3, support=10, rng=self.rng)))
        phase = self.rng.uniform(0.0, 2.0 * math.pi)
        # Four Fock requests, whose time goes mostly to the CSV export, fill
        # the middle of every block, so the median request stays inside one
        # cost group instead of on the edge between two.
        self.menu = [
            "fock:1", "fock:2", "fock:3", "fock:4", "thermal:0.6",
            f"file:{random_path}",
            f"coherent:{0.9 * math.cos(phase)!r},{0.9 * math.sin(phase)!r}",
        ]
        self.malformed = self._malformed_inputs(fock, random_path)
        self.pass_len = len(self.menu) + self.MALFORMED_PER_BLOCK

    def _path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def _write(self, name: str, text: str) -> str:
        with open(self._path(name), "w", encoding="utf-8") as handle:
            handle.write(text)
        return self._path(name)

    def _malformed_inputs(self, fock, state_path: str) -> dict:
        rng = self.rng
        payload = json.loads(fock.operator_to_json(
            fock.random_density(6, rank=2, rng=rng)))
        row = int(rng.integers(6))
        payload["re"][row] = payload["re"][row][:-1]
        ragged = self._write("ragged.json", json.dumps(payload))
        amplifier = self._write("amplifier_text.json",
                                '{"kind":"amplifier","kappa":"big"}')
        with open(self.smoothing, encoding="utf-8") as handle:
            spec_text = handle.read()
        cut = int(rng.integers(1, len(spec_text) - 1))
        truncated = self._write("truncated_channel.json", spec_text[:cut])
        form = ("squeezed:0.3", "cat:1.0,0.0", "number:2", "gkp:0.5")[int(rng.integers(4))]
        junk = self._path("rejected.json")
        return {
            "ragged_operator": ["dist", "W", ragged, "--out", self._path("rejected.csv")],
            "amplifier_kappa_text": ["channel", amplifier, state_path, "--out", junk],
            "unknown_state_form": ["state", form, "--out", junk],
            "truncated_channel_json": ["channel", truncated, state_path, "--out", junk],
        }

    def _main(self, argv) -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                return self.cli.main(argv)
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 2

    def ops(self):
        kinds = list(self.rng.permutation(self.MALFORMED_KINDS))
        turn = 0
        while True:
            block = [self._valid(spec) for spec in self.menu]
            for place in sorted(self.rng.choice(len(block) + self.MALFORMED_PER_BLOCK,
                                                self.MALFORMED_PER_BLOCK, replace=False)):
                block.insert(place, self._malformed(kinds[turn % len(kinds)]))
                turn += 1
            yield from block

    def _valid(self, spec: str) -> Op:
        state, image = self._path("state.json"), self._path("image.json")
        image_w, state_q = self._path("image_w.csv"), self._path("state_q.csv")
        steps = (("state", ["state", spec, "--dim", "64", "--out", state]),
                 ("channel", ["channel", self.smoothing, state, "--out", image]),
                 ("dist", ["dist", "W", image, "--out", image_w]),
                 ("dist", ["dist", "Q", state, "--out", state_q]))

        def run():
            codes = []
            for command, argv in steps:
                with self.tracer.span(f"cli.{command}"):
                    codes.append(self._main(argv))
            return codes

        def check(codes) -> Outcome:
            out = Outcome()
            if codes != [0, 0, 0, 0]:
                out.problems.append(f"{spec}: exit codes {codes}")
                return out
            for csv_path, operator_path in ((image_w, image), (state_q, state)):
                meta = _read_json(_sidecar(csv_path, "meta"))
                trace = _operator_trace(operator_path)
                out.checks.append((f"{meta['kind']}_integral_vs_trace",
                                   abs(meta["integral"] - trace),
                                   self.INTEGRAL_TOLERANCE))
            diag = _read_json(_sidecar(image, "diag"))
            out.checks.append(("channel_trace_deficit", diag["trace_deficit"],
                               self.TRACE_DEFICIT_TOLERANCE))
            written = (state, image, _sidecar(image, "diag"), image_w,
                       _sidecar(image_w, "meta"), state_q, _sidecar(state_q, "meta"))
            out.counts["cli.bytes_written"] = float(sum(map(os.path.getsize, written)))
            return out

        return Op(f"request:{spec}", run, check)

    def _malformed(self, kind: str) -> Op:
        argv = self.malformed[kind]

        def run():
            # The outcome, typed exit or escaped exception, is the result.
            try:
                return self._main(argv)
            except Exception as exc:  # noqa: BLE001 - recorded, not raised
                return type(exc).__name__

        def check(result) -> Outcome:
            out = Outcome(counts={"cli.error_path.attempted": 1.0})
            if result == 0:
                out.problems.append(f"malformed {kind} request accepted")
            out.counts["cli.error_path.typed"] = float(result in (1, 2))
            return out

        return Op(f"malformed:{kind}", run, check)


def _sidecar(path: str, tag: str) -> str:
    """Path of the JSON record the CLI writes beside an output file."""
    return os.path.splitext(path)[0] + f".{tag}.json"


def _read_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _operator_trace(path: str) -> float:
    real = _read_json(path)["re"]
    return float(sum(real[i][i] for i in range(len(real))))


WORKLOADS = {w.name: w for w in (Verify, Certify, CliFiles)}
