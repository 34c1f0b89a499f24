"""The benchmark's workloads: CLI task lists drawn from fixed instance pools.

Each pool holds instances of similar cost (measured on a 2-CPU Xeon with
CPython ints and numpy), so the seed changes the inputs without changing
how much work a run does.  Seed 0 takes the first entry of every pool.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import oracles

DELTA = Fraction(1, 2)

# exact_scan: Kronecker-packed exact squares; these densities' words differ
# only late in the scan, where their big-multiply sizes stay close.
ASYMPTOTICS_NMAX = 16
FVECTOR_N, FVECTOR_KMAX = 16, 256
ASYMPTOTICS_DENSITIES = ["1/3", "4/13", "5/16", "3/10"]
FVECTOR_DENSITIES = ["1/2", "7/15", "6/13", "5/11"]

# log_scan: the numpy kernel's cost depends on K only, not on the density.
LOG_RATIONAL_NMAX, LOG_REAL_NMAX = 24, 22
LOG_RATIONAL_DENSITIES = ["1/3", "2/5", "1/4", "3/5"]
LOG_REAL_DENSITIES = [
    "0.6180339887498948482045868343656381177:128",  # golden ratio conjugate
    "0.4142135623730950488016887242096980786:128",  # sqrt(2) - 1
    "0.6931471805599453094172321214581765681:128",  # ln 2
    "0.3678794411714423215955237701614608675:128",  # 1/e
]

# certify: both instances give the 9837 trees of windows with support {2..8}
TREE_INSTANCES = [("1/2", 3, 2), ("2/5", 3, 2)]
TREE_KMAX = 4
PHI_INSTANCES = [("1/2", 9, 0), ("3/7", 9, 0), ("4/9", 9, 0)]  # words with 4-5 Products
LOWER_BOUND_GRID = [("1/2", 2, m) for m in range(3, 8)] + [("1/3", 3, m) for m in range(2, 6)]
ORACLE_DENSITIES = ["1/2", "1/3"]
ORACLE_N = 3

# The CLI's JSON form of `trees` is known not to parse (it prints a verdict
# line first); this small call records whether that is still so.
TREES_JSON_PROBE = ("trees", "--a", "1/2", "--Q", "2", "--m", "2", "--kmax", "16", "--format", "json")


@dataclass(frozen=True)
class Task:
    """One CLI call, the per-pipeline metric its time adds to, and its check."""

    pipeline: str
    argv: tuple[str, ...]
    check: Callable[[str], list[str]]


def _density_flag(text: str) -> tuple[str, str]:
    return ("--a-real", text) if ":" in text else ("--a", text)


def exact_scan(rng: random.Random, pick) -> list[Task]:
    asym = pick(ASYMPTOTICS_DENSITIES)
    fvec = pick(FVECTOR_DENSITIES)
    nmax, n, kmax = ASYMPTOTICS_NMAX, FVECTOR_N, FVECTOR_KMAX
    return [
        Task(
            "asymptotics_s",
            ("asymptotics", "--a", asym, "--delta", "1/2", "--nmax", str(nmax), "--engine", "paper"),
            partial(oracles.check_asymptotics, a=oracles.parse_density(asym), delta=DELTA, nmax=nmax),
        ),
        Task(
            "fvector_s",
            ("fvector", "--a", fvec, "--n", str(n), "--kmax", str(kmax), "--engine", "paper"),
            partial(oracles.check_fvector, a=oracles.parse_density(fvec), n=n, kmax=kmax),
        ),
    ]


def log_scan(rng: random.Random, pick) -> list[Task]:
    rational = pick(LOG_RATIONAL_DENSITIES)
    real = pick(LOG_REAL_DENSITIES)
    tasks = []
    for text, nmax, extra in (
        (rational, LOG_RATIONAL_NMAX, ("--engine", "log")),
        (real, LOG_REAL_NMAX, ()),
    ):
        tasks.append(
            Task(
                "flm_report_s",
                ("flm-report", *_density_flag(text), "--delta", "1/2", "--nmax", str(nmax), *extra),
                partial(
                    oracles.check_flm_report,
                    a=oracles.parse_density(text),
                    rational=":" not in text,
                    delta=DELTA,
                    nmax=nmax,
                ),
            )
        )
    return tasks


def certify(rng: random.Random, pick) -> list[Task]:
    a_tree, Q_tree, m_tree = pick(TREE_INSTANCES)
    a_phi, Q_phi, m_phi = pick(PHI_INSTANCES)
    phi_word = oracles.word(oracles.parse_density(a_phi), Q_phi * m_phi, Q_phi)
    points = [(rng.randrange(2, oracles.PRIME), rng.randrange(2, oracles.PRIME)) for _ in range(3)]
    tasks = [
        Task(
            "trees_s",
            ("trees", "--a", a_tree, "--Q", str(Q_tree), "--m", str(m_tree), "--kmax", str(TREE_KMAX)),
            partial(oracles.check_trees, a=oracles.parse_density(a_tree), Q=Q_tree, m=m_tree),
        ),
        Task(
            "phi_s",
            ("phi", "--a", a_phi, "--Q", str(Q_phi), "--m", str(m_phi)),
            partial(oracles.check_phi, w=phi_word, points=points),
        ),
    ]
    for a, Q, m in LOWER_BOUND_GRID:
        k = oracles.floor_d_delta(Q * m, DELTA)
        tasks.append(
            Task(
                "lower_bound_s",
                ("lower-bound", "--a", a, "--Q", str(Q), "--m", str(m), "--k", str(k)),
                partial(oracles.check_lower_bound, a=oracles.parse_density(a), Q=Q, m=m, k=k),
            )
        )
    for a in ORACLE_DENSITIES:
        tasks.append(
            Task(
                "oracle_s",
                ("oracle", "--a", a, "--n", str(ORACLE_N), "--full-lattice"),
                partial(oracles.check_oracle, n=ORACLE_N),
            )
        )
    return tasks


WORKLOADS = {"exact_scan": exact_scan, "log_scan": log_scan, "certify": certify}
PIPELINES = [
    "asymptotics_s",
    "fvector_s",
    "flm_report_s",
    "trees_s",
    "phi_s",
    "lower_bound_s",
    "oracle_s",
]


def build(workload: str, seed: int) -> list[Task]:
    """The task list of ``workload`` for ``seed``; seed 0 is the default instance set."""
    rng = random.Random(seed)

    def pick(pool):
        return pool[0] if seed == 0 else pool[rng.randrange(len(pool))]

    return WORKLOADS[workload](rng, pick)
