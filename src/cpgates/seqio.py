"""Sequence CSV format.

Header ``index,theta_over_pi,phi_over_pi``, one row per gate in
application order, angles in units of pi with 17 significant digits.
Trailing rows carry metadata; the target row is required, since no gate
need have the target angle (a merged lead gate, an absolute-error half):

    terminal,,<phi_over_pi>          nonzero terminal frame rotation
    target,<theta_over_pi>,          target angle
    family,<name>,                   family tag (single/broadband/...)

Unknown trailing labels, repeated rows and non-empty cells after the
third are rejected so that typos do not silently drop information.
"""

from __future__ import annotations

import csv
import io
from math import pi

from .errors import ValidationError
from .gates import CompositeSequence, FAMILY_SINGLE, PhasedGate

HEADER = ["index", "theta_over_pi", "phi_over_pi"]
_FMT = "%.17g"


def sequence_to_csv(seq: CompositeSequence) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(HEADER)
    for i, g in enumerate(seq.gates):
        w.writerow([i, _FMT % (g.theta / pi), _FMT % (g.phi / pi)])
    if seq.terminal_phase != 0.0:
        w.writerow(["terminal", "", _FMT % (seq.terminal_phase / pi)])
    w.writerow(["target", _FMT % (seq.target_theta / pi), ""])
    w.writerow(["family", seq.family, ""])
    return buf.getvalue()


def sequence_from_csv(text: str) -> CompositeSequence:
    rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows or [c.strip() for c in rows[0]] != HEADER:
        raise ValidationError(
            "sequence CSV must start with header 'index,theta_over_pi,phi_over_pi'"
        )
    gates: list[PhasedGate] = []
    terminal = 0.0
    target = None
    family = FAMILY_SINGLE
    seen = set()
    for row in rows[1:]:
        tag = row[0].strip()
        if tag in seen:
            raise ValidationError(f"repeated {tag!r} row")
        if any(cell.strip() for cell in row[3:]):
            raise ValidationError(f"malformed row {row!r}: a row has at most three cells")
        try:
            if tag == "terminal":
                terminal = float(row[2]) * pi
            elif tag == "target":
                target = float(row[1]) * pi
            elif tag == "family":
                family = row[1].strip()
            else:
                try:
                    index = int(tag)
                except ValueError:
                    raise ValidationError(f"unrecognised row label {tag!r}") from None
                if index != len(gates):
                    raise ValidationError(
                        f"gate rows must be consecutive from 0, got index {index}"
                    )
                gates.append(PhasedGate(float(row[1]) * pi, float(row[2]) * pi))
        except (ValueError, IndexError) as exc:
            raise ValidationError(f"malformed row {row!r}: {exc}") from None
        seen.add(tag)
    if not gates:
        raise ValidationError("sequence CSV contains no gate rows")
    if target is None:
        raise ValidationError("sequence CSV has no 'target,<theta_over_pi>,' row")
    return CompositeSequence(
        gates=tuple(gates),
        terminal_phase=terminal,
        target_theta=target,
        family=family,
    )


def read_sequence(path) -> CompositeSequence:
    with open(path, newline="") as fh:
        return sequence_from_csv(fh.read())
