"""Seeded operation lists for the three benchmark workloads.

A workload is a fixed list of user operations run one after another by
one client (a closed loop).  Each operation is a ``cpgates`` command line
or a call to an exported library function; its files live in a per-pass
directory, written ``@/name`` here.  Every operation also carries the
oracle checks its outputs must pass.

This module imports nothing from ``cpgates``: it only describes inputs.

Angles are in units of pi, as on the command line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

THETA_RANGE = (0.1, 0.45)
EPS_G_RANGE = (-0.05, 0.05)

#: Input files written into every pass directory before the pass.  The
#: trap pulse description has g = 1/sqrt(32), Delta = 1, Delta*T = 2*pi.
INPUTS = {"trap.txt": "g=0.17677669529663687\ndelta=1\ndelta_t=2\nnmax=25\n"}

#: Catalog entries, with (family, broadband order, narrowband order).
ENTRIES = {
    "bb1": ("broadband", 1, 0), "bb2": ("broadband", 2, 0),
    "bb3": ("broadband", 3, 0), "bb4": ("broadband", 4, 0),
    "bb5": ("broadband", 5, 0), "bb6": ("broadband", 6, 0),
    "pb11": ("passband", 1, 1), "pb21": ("passband", 2, 1),
    "pb12": ("passband", 1, 2), "pb22": ("passband", 2, 2),
    "pb13": ("passband", 1, 3), "pb33": ("passband", 3, 3),
}
#: Entries with closed-form phases for any target angle.
ANY_ANGLE = ("bb1", "bb2", "pb11", "pb21", "pb12", "pb22")
#: Published total angles of BB1..BB6 at a pi/4 target.
BB_TOTAL_ANGLES = {1: 1.25, 2: 2.25, 3: 3.25, 4: 3.75, 5: 4.75, 6: 5.75}

#: BB2 Monte-Carlo solves as fixed (theta, solver seed) pairs.  The cost
#: of one solve depends on its random restarts (1.7-4.8 s on a 2-vCPU
#: Xeon, heavy tailed), and 12 seed-drawn solves still spread 18-25% in
#: work between seeds; a fixed panel keeps the solver load identical.
BB2_PANEL = ((0.15, 1), (0.45, 3))

#: Rows of every scan that the oracle recomputes.
SCAN_SPOT_CHECKS = 8


@dataclass(frozen=True)
class Op:
    """One user operation.

    ``kind`` groups operations for the end-to-end metrics.  ``argv`` is a
    ``cpgates`` command line, or ``call`` names a library operation run
    with ``args``.  ``stdout`` names the file that receives the captured
    standard output.  ``outputs`` are the files the operation writes and
    ``checks`` the oracle checks over them, as ``(name, *arguments)``.
    """

    op_id: int
    kind: str
    argv: tuple = ()
    call: str = ""
    args: tuple = ()
    stdout: str = ""
    outputs: tuple = ()
    checks: tuple = ()


def _num(x: float) -> str:
    return repr(float(x))


def _theta(rng: random.Random) -> float:
    return rng.uniform(*THETA_RANGE)


class _Builder:
    def __init__(self):
        self.ops: list[Op] = []

    def add(self, kind, **fields) -> None:
        self.ops.append(Op(len(self.ops), kind, **fields))

    def cli(self, kind, *argv, out=None, checks=(), stdout=""):
        outputs = (out,) if out else ()
        if stdout:
            outputs = (stdout,)
        argv = list(argv) + (["--out", "@/" + out] if out else [])
        self.add(kind, argv=tuple(argv), outputs=outputs, checks=tuple(checks), stdout=stdout)

    def catalog(self, entry, theta=None):
        """Dump one catalog entry, at pi/4 or at ``theta``, to a sequence file."""
        name = f"{entry}.csv" if theta is None else f"{entry}_t.csv"
        family, n1, n2 = ENTRIES[entry]
        extra = [] if theta is None else ["--theta-over-pi", _num(theta)]
        if theta is not None or entry in ANY_ANGLE:
            check = ("residual", name, n1, n2, None)
        else:
            total = BB_TOTAL_ANGLES[n1] if family == "broadband" else None
            check = ("tabulated", name, total)
        self.cli("catalog", "catalog", "--entry", entry, *extra, out=name, checks=[check])


def _spot_rows(rng: random.Random, steps: int) -> tuple:
    return tuple(sorted(rng.sample(range(steps), SCAN_SPOT_CHECKS)))


def synthesize(rng: random.Random) -> list[Op]:
    """Solver and derivative kernel under load: Newton on dead stages,
    converging restarts, and polishing of the tabulated entries."""
    b = _Builder()
    for k in range(6):
        theta, seed = _theta(rng), rng.randrange(2**31)
        b.cli("solve", "solve", "--family", "bb", "--order", "1",
              "--theta-over-pi", _num(theta), "--seed", str(seed),
              "--stage-restarts", "20", out=f"bb1_{k}.csv",
              checks=[("residual", f"bb1_{k}.csv", 1, 0, theta + 1.0)])
    for k in range(6):
        theta, seed = _theta(rng), rng.randrange(2**31)
        b.cli("solve", "solve", "--family", "pb", "--order", "1", "--order2", "1",
              "--theta-over-pi", _num(theta), "--seed", str(seed),
              out=f"pb11_{k}.csv",
              checks=[("residual", f"pb11_{k}.csv", 1, 1, theta + 2.0)])
    for k, (theta, seed) in enumerate(BB2_PANEL):
        b.cli("solve", "solve", "--family", "bb", "--order", "2",
              "--theta-over-pi", _num(theta), "--seed", str(seed),
              "--stage-restarts", "10", out=f"bb2_{k}.csv",
              checks=[("residual", f"bb2_{k}.csv", 2, 0, theta + 2.0)])
    for n in (3, 4, 5, 6):
        name = f"polished_bb{n}.csv"
        b.add("polish", call="polish", args=(n, "@/" + name), outputs=(name,),
              checks=(("residual", name, n, 0, BB_TOTAL_ANGLES[n]),))
    return b.ops


def analyze(rng: random.Random) -> list[Op]:
    """Gate products, fidelities and the band search: wide independent
    scans next to chains of dependent band evaluations."""
    b = _Builder()
    theta = _theta(rng)
    for entry in ENTRIES:
        b.catalog(entry)
    for entry in ANY_ANGLE:
        b.catalog(entry, theta)
    for entry in ENTRIES:
        out = f"scan_{entry}.csv"
        b.cli("scan", "scan", "--seq", f"@/{entry}.csv", "--min", "-1", "--max", "1",
              "--steps", "2001", out=out,
              checks=[("scan", out, f"{entry}.csv", -1.0, 1.0, 2001, 0.0, False,
                       _spot_rows(rng, 2001))])
    half = rng.uniform(0.02, 0.08)
    b.cli("scan", "scan", "--seq", "@/pb22_t.csv", "--min", _num(-1.0 - half),
          "--max", _num(-1.0 + half), "--steps", "401", "--identity-ref", out="scan_nb.csv",
          checks=[("scan", "scan_nb.csv", "pb22_t.csv", -1.0 - half, -1.0 + half, 401,
                   0.0, True, _spot_rows(rng, 401))])
    xi = rng.uniform(0.005, 0.02)
    probes = tuple((rng.uniform(-0.3, 0.3), rng.uniform(-0.05, 0.05)) for _ in range(4))
    b.cli("wrap-abs", "wrap-abs", "--seq", "@/bb2_t.csv", out="bb2_abs.csv",
          checks=[("wrap", "bb2_abs.csv", "bb2_t.csv", probes)])
    b.cli("scan", "scan", "--seq", "@/bb2_abs.csv", "--min", "-1", "--max", "1",
          "--steps", "2001", "--xi", _num(xi), out="scan_abs.csv",
          checks=[("scan", "scan_abs.csv", "bb2_abs.csv", -1.0, 1.0, 2001, xi, False,
                   _spot_rows(rng, 2001))])
    for seq in [f"{e}_t.csv" for e in ANY_ANGLE] + ["bb6.csv", "pb33.csv"]:
        out = "band_" + seq.replace(".csv", ".txt")
        b.cli("band", "band", "--seq", "@/" + seq, out=out, checks=[("band", out, seq)])
    b.cli("order", "order", "--seq", "@/bb1_t.csv", "--wmin", "1e-3", "--wmax", "1e-2",
          out="order_bb1.txt", checks=[("order", "order_bb1.txt", 4)])
    b.cli("order", "order", "--seq", "@/bb2_t.csv", "--wmin", "5e-3", "--wmax", "3e-2",
          out="order_bb2.txt", checks=[("order", "order_bb2.txt", 6)])
    # verify --bands spends 95% of its time searching the twelve bands, so
    # it counts with the band searches
    b.cli("band", "verify", "--bands", "--orders", stdout="verify.txt",
          checks=[("verify", "verify.txt")])
    return b.ops


def iontrap(rng: random.Random) -> list[Op]:
    """The trapped-ion layer alone: numerical pulse integration, and the
    closed-form route swept over Rabi-frequency errors.

    The numerical gates use the pi/4 target: pulse durations, and with
    them the integration cost, grow with the gate angle, and a drawn angle
    spread the workload's time by 16% between seeds.
    """
    b = _Builder()
    theta = _theta(rng)
    b.catalog("bb1")
    b.cli("catalog", "catalog", "--entry", "single", out="single.csv",
          checks=[("residual", "single.csv", 0, 0, None)])
    for entry in ("bb2", "pb11"):
        b.catalog(entry, theta)

    def trap(kind, seq, eps_g, out, analytic=False):
        argv = ["iontrap", "--config", "@/trap.txt", "--eps-g", _num(eps_g)]
        if seq:
            argv += ["--seq", "@/" + seq]
        if analytic:
            argv.append("--analytic")
        b.cli(kind, *argv, out=out, checks=[("iontrap", out, seq, eps_g, "trap.txt")])

    for seq in ("single.csv", "bb1.csv", None):
        name = (seq or "bare.csv").replace(".csv", "")
        trap("iontrap", seq, rng.uniform(*EPS_G_RANGE), f"trap_{name}.txt")
    lo, hi = EPS_G_RANGE
    for j in range(11):
        eps_g = lo + (hi - lo) * (j + rng.random()) / 11
        for seq in ("bb2_t.csv", "pb11_t.csv"):
            trap("iontrap-analytic", seq, eps_g,
                 f"analytic_{seq.replace('_t.csv', '')}_{j}.txt", analytic=True)
    return b.ops


WORKLOADS = {
    "synthesize": (synthesize, "solve", "polish"),
    "analyze": (analyze, "scan", "band"),
    "iontrap": (iontrap, "iontrap", "iontrap-analytic"),
}
"""Workload name -> (builder, kind behind primary_ref, kind behind secondary_ref)."""


def build(workload: str, seed: int) -> list[Op]:
    """The operation list of ``workload`` for ``seed``; equal seeds give
    equal lists."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[workload][0](random.Random(f"{workload}:{seed}"))
