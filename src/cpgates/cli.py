"""Command-line front end.

All angles cross this boundary in units of pi (gate angles, phases,
targets, and the zeta/delta_t entries of trap config files).  Every
subcommand prints its resolved configuration to stderr before computing;
numeric results go to --out files or stdout in the formats owned by the
library modules, so identical arguments and seeds produce byte-identical
outputs.

Exit codes: 0 success, 1 validation error, 2 non-convergence or
truncation-guard failure.

Start-up is most of a run's wall time, so this module loads only numpy
and ``errors``, and each subcommand imports the modules it runs at the
top of its ``cmd_*`` function: printing a scan does not load the solver
or the ion-trap model.
"""

from __future__ import annotations

import argparse
import functools
import io
import re
import sys
from dataclasses import replace
from math import pi

import numpy as np

from .errors import TruncationError, ValidationError

_RESIDUAL_TOL = 1e-10
_FIDELITY_TOL = 1e-12
#: leakage below the square of the double rounding unit is rounding noise
#: of the top Fock amplitudes; it is printed as 0, so that equivalent
#: computations give the same output bytes
_LEAKAGE_FLOOR = np.finfo(float).eps ** 2


def _print_config(args: argparse.Namespace) -> None:
    items = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    print("config: " + " ".join(f"{k}={v}" for k, v in items.items()), file=sys.stderr)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_sequence(args):
    from .seqio import read_sequence

    seq = read_sequence(args.seq)
    if getattr(args, "theta_over_pi", None) is not None:
        seq = replace(seq, target_theta=args.theta_over_pi * pi)
    return seq


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    from .gates import FAMILY_BROADBAND, FAMILY_PASSBAND
    from .seqio import sequence_to_csv
    from .solver import SolverConfig, solve_with_escalation

    theta = args.theta_over_pi * pi
    family = {"bb": FAMILY_BROADBAND, "pb": FAMILY_PASSBAND}[args.family]
    orders = args.order if family == FAMILY_BROADBAND else (args.order, args.order2)
    if family == FAMILY_PASSBAND and args.order2 is None:
        raise ValidationError("passband solves need --order2")
    if family == FAMILY_BROADBAND and args.order2 is not None:
        raise ValidationError("broadband solves take no --order2; it is the passband order")
    if args.log and args.verbose:
        raise ValidationError("--log and --verbose both take the restart log: give one")
    config = SolverConfig(
        residual_tolerance=args.tolerance,
        max_newton_iters=args.max_iters,
        max_restarts=args.stage_restarts,
        rng_seed=args.seed,
    )
    # the log file is written after the search, so a solve that fails
    # validation leaves none behind
    log = io.StringIO() if args.log else (sys.stderr if args.verbose else None)
    result = solve_with_escalation(family, orders, theta, config, log=log)
    if args.log:
        _emit(log.getvalue(), args.log)
    if not result.converged:
        print(f"did not converge: best D={result.residual_D:.3e} after gate counts "
              f"{list(result.attempted_gate_counts)}", file=sys.stderr)
        return 2
    seq = result.sequence
    print(
        f"converged: gates={len(seq.gates)} total_angle={seq.total_angle()/pi:.6g}pi "
        f"D={result.residual_D:.3e} restarts={result.restarts_used}",
        file=sys.stderr,
    )
    _emit(sequence_to_csv(seq), args.out)
    return 0


def cmd_verify(args) -> int:
    from . import catalog as cat
    from .analysis import infidelity_order, sequence_fidelity, tolerance_band
    from .derivatives import broadband_residuals, narrowband_residuals
    from .gates import FAMILY_BROADBAND

    rows = cat.table_rows(args.catalog.removeprefix("table"), args.theta_over_pi * pi)
    failures = 0
    for name, n1, n2, seq in rows:
        worst = broadband_residuals(seq, n1).max_scaled()
        if n2:
            worst = max(worst, narrowband_residuals(seq, n2).max_scaled())
        fid0 = sequence_fidelity(seq)
        ok = worst <= _RESIDUAL_TOL and fid0 >= 1 - _FIDELITY_TOL
        report = (
            f"{name}: gates={len(seq.gates)} total_angle={seq.total_angle()/pi:.6g}pi "
            f"max_scaled_residual={worst:.3e} fidelity={fid0:.12f}"
        )
        if args.bands:
            band = tolerance_band(seq)
            report += f" band=[{band.eps_low:+.4f},{band.eps_high:+.4f}]"
        if args.orders and seq.family == FAMILY_BROADBAND and n1 <= 4:
            # above order 4 the fit window would sit below the double-
            # precision infidelity floor, so the slope is not measurable
            windows = {1: (1e-3, 1e-2), 2: (5e-3, 3e-2), 3: (2e-2, 7e-2)}
            slope = infidelity_order(seq, windows.get(n1, (4e-2, 1e-1)))
            expected = 2 * n1 + 2
            report += f" fitted_order={slope:.2f} (expect {expected})"
            ok = ok and abs(slope - expected) <= 0.3
        print(report + ("  OK" if ok else "  FAIL"))
        failures += 0 if ok else 1
    return 0 if failures == 0 else 2


def cmd_scan(args) -> int:
    from .analysis import scan, scan_csv_text

    seq = _load_sequence(args)
    ref = np.eye(4, dtype=complex) if args.identity_ref else None
    result = scan(seq, args.min, args.max, args.steps, xi=args.xi * pi, reference=ref)
    _emit(scan_csv_text(result), args.out)
    return 0


def cmd_band(args) -> int:
    from .analysis import EPS_LIMIT, band_report, tolerance_band

    seq = _load_sequence(args)
    band = tolerance_band(seq, threshold=args.threshold)
    if sides := band.sides_at_limit():
        print(f"note: band reached eps_limit={EPS_LIMIT:g} without crossing the "
              f"threshold (sides: {', '.join(sides)})", file=sys.stderr)
    _emit(band_report(band) + "\n", args.out)
    return 0


def cmd_order(args) -> int:
    from .analysis import infidelity_order

    seq = _load_sequence(args)
    slope = infidelity_order(seq, (args.wmin, args.wmax), xi=args.xi * pi)
    _emit("order=indeterminate\n" if np.isnan(slope) else "order=%.6g\n" % slope, args.out)
    return 0


def cmd_wrap_abs(args) -> int:
    from .abserr import wrap_sequence_absolute
    from .seqio import read_sequence, sequence_to_csv

    _emit(sequence_to_csv(wrap_sequence_absolute(read_sequence(args.seq))), args.out)
    return 0


def _matrix_csv(m: np.ndarray) -> str:
    return "".join(",".join("%.17g,%.17g" % (z.real, z.imag) for z in row) + "\n" for row in m)


def cmd_iontrap(args) -> int:
    from .analysis import trace_overlap
    from .gates import _from_branches, ideal_cphase
    from .iontrap import (_composite_block, _coupling_with_error, _gate_pairs, _leakage,
                          _qubit_gate, ideal_two_pulse_gate, parse_config, rotation_angle)
    from .seqio import read_sequence

    with open(args.config) as fh:
        cfg, eps_g = parse_config(fh.read())
    if args.eps_g is not None:
        eps_g = args.eps_g
    if args.seq:
        seq = read_sequence(args.seq)
        plus = _composite_block(seq, cfg, eps_g, args.analytic)
        reference = ideal_cphase(seq.target_theta)
    else:
        pulse = replace(cfg, g=_coupling_with_error(cfg, eps_g))
        plus = _from_branches(cfg.zeta_plus[1], _gate_pairs([pulse], args.analytic)[0])
        reference = ideal_two_pulse_gate(cfg)
    qubit_gate = _qubit_gate(cfg, plus)
    leak = _leakage(cfg, plus)
    leak = 0.0 if leak < _LEAKAGE_FLOOR else leak
    fid = abs(trace_overlap(reference, qubit_gate))
    _emit(_matrix_csv(qubit_gate) + "leakage=%.6e fidelity=%.12f\n" % (leak, fid), args.out)
    print(f"two-pulse angle per config: {rotation_angle(cfg) / pi:.6g}pi; "
          f"leakage={leak:.3e} fidelity={fid:.9f}", file=sys.stderr)
    return 0


def cmd_catalog(args) -> int:
    from . import catalog as cat
    from .seqio import sequence_to_csv

    theta = args.theta_over_pi * pi
    if args.entry:
        _emit(sequence_to_csv(cat.by_name(args.entry, theta)), args.out)
        return 0
    rows = ["index,theta_over_pi,phi_over_pi,source"]
    for source, _, _, seq in cat.table_rows(args.table, theta):
        for i, g in enumerate(seq.gates):
            rows.append("%d,%.17g,%.17g,%s" % (i, g.theta / pi, g.phi / pi, source))
        if seq.terminal_phase != 0.0:
            rows.append("terminal,,%.17g,%s" % (seq.terminal_phase / pi, source))
    _emit("\n".join(rows) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_UNITS_NOTE = "All angles on this interface are given in units of pi."


class _Parser(argparse.ArgumentParser):
    """Parser that reads every negative number, exponent forms such as
    -2.8e-05 included, as a value rather than as an option flag (the
    stock pattern has no exponent form).  Subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cpgates",
        description="Composite two-qubit controlled-phase gate toolkit. "
        "All angles are given in units of pi.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, help):
        return sub.add_parser(name, help=help, description=f"{help}. {_UNITS_NOTE}")

    p = add_parser("solve", "solve for a robust phase sequence")
    p.add_argument("--family", choices=("bb", "pb"), required=True,
                   help="bb: broadband; pb: passband")
    p.add_argument("--order", type=int, required=True, help="error order at eps=0")
    p.add_argument("--order2", type=int, help="passband order at eps=-1")
    p.add_argument("--theta-over-pi", type=float, default=0.25,
                   help="target rotation angle in units of pi")
    p.add_argument("--seed", type=int, default=0, help="Monte-Carlo seed")
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--stage-restarts", type=int, default=100,
                   help="Monte-Carlo budget per gate-count stage")
    p.add_argument("--out", help="sequence CSV output path (default stdout)")
    p.add_argument("--log", help="write per-restart log lines to this file")
    p.add_argument("--verbose", action="store_true", help="log restarts to stderr")
    p.set_defaults(func=cmd_solve)

    p = add_parser("verify", "check catalog entries against their conditions")
    p.add_argument("--catalog", choices=("table1", "table2", "all"), default="all")
    p.add_argument("--theta-over-pi", type=float, default=0.25)
    p.add_argument("--bands", action="store_true", help="also locate tolerance bands")
    p.add_argument("--orders", action="store_true",
                   help="also fit the infidelity orders of BB1-BB4")
    p.set_defaults(func=cmd_verify)

    p = add_parser("scan", "fidelity versus relative error")
    p.add_argument("--seq", required=True, help="sequence CSV path")
    p.add_argument("--theta-over-pi", type=float, help="override target angle")
    p.add_argument("--min", type=float, required=True)
    p.add_argument("--max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--xi", type=float, default=0.0, help="absolute offset, units of pi")
    p.add_argument("--identity-ref", action="store_true",
                   help="compare against the identity (narrowband view)")
    p.add_argument("--out", help="scan CSV output path (default stdout)")
    p.set_defaults(func=cmd_scan)

    p = add_parser("band", "fault-tolerance band around eps=0")
    p.add_argument("--seq", required=True)
    p.add_argument("--theta-over-pi", type=float)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.add_argument("--out")
    p.set_defaults(func=cmd_band)

    p = add_parser("order", "fit the infidelity scaling order")
    p.add_argument("--seq", required=True)
    p.add_argument("--theta-over-pi", type=float)
    p.add_argument("--wmin", type=float, default=1e-3, help="fit window lower edge")
    p.add_argument("--wmax", type=float, default=1e-2, help="fit window upper edge")
    p.add_argument("--xi", type=float, default=0.0, help="absolute offset, units of pi")
    p.add_argument("--out")
    p.set_defaults(func=cmd_order)

    p = add_parser("wrap-abs", "wrap every gate in an absolute-error composite")
    p.add_argument("--seq", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_wrap_abs)

    p = add_parser("iontrap", "trapped-ion physical simulation")
    p.add_argument("--config", required=True, help="flat key=value pulse description")
    p.add_argument("--seq", help="composite sequence CSV to realise physically")
    p.add_argument("--eps-g", type=float, help="relative Rabi-frequency error")
    p.add_argument("--analytic", action="store_true",
                   help="use the closed-form propagator instead of the numerical one")
    p.add_argument("--out", help="qubit gate CSV output (default stdout)")
    p.set_defaults(func=cmd_iontrap)

    p = add_parser("catalog", "dump the catalog's sequence tables at full precision")
    p.add_argument("--table", choices=("1", "2", "all"), default="all")
    p.add_argument("--entry", metavar="NAME",
                   help="write one entry as a sequence CSV; an unknown NAME lists the entries")
    p.add_argument("--theta-over-pi", type=float, default=0.25)
    p.add_argument("--out")
    p.set_defaults(func=cmd_catalog)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses across calls; parse_args fills a new
    namespace each time, so no call sees another's values."""
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    _print_config(args)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TruncationError as exc:
        print(f"truncation guard: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
