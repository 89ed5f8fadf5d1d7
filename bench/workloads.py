"""The benchmark's workloads: which CLI commands each one runs, per seed.

A seed picks one of WINDOW input variants of a workload.  The variants
move the inputs inside a narrow window (the survey and count heights, the
bnumbers bounds, which realized radii near two_n = 4e6 are dumped) and
keep the amount of work fixed, so every seed measures the same job.
Every variant's stdout digest is recorded in reference.json, so the
output of any seed can be checked.
"""
from __future__ import annotations

import random

WINDOW = 16

#: The seed the reference run was made with, and one held out from it.
DEFAULT_SEED = 0
HELD_OUT_SEED = 1

# Realized radii of q = 3 just above two_n = 4e6, all with c4 = 1 and
# r(n_plus * n_minus) = 48, so every circle has 24 points and every pair
# of them costs the same.
GEOMETRY_RADII = (
    4000931, 4000949, 4001309, 4001315, 4002101, 4002197, 4002251, 4002299,
    4002491, 4002539, 4002731, 4002821, 4002845, 4002965, 4002971, 4003019,
    4003115, 4003229, 4003349, 4003397, 4003589, 4003595, 4004699, 4004765,
    4005341, 4005347, 4005701, 4005731, 4005755, 4005803, 4005989, 4006397,
)


def _survey(i: int) -> list[list[str]]:
    x = str(30000 + 10 * i)
    return [["survey", "--q", "3", "--x", x],
            ["survey", "--q", "163", "--x", x]]


def _count(i: int) -> list[list[str]]:
    return [["count", "--q", "163", "--x", str(10000 + i)]]


def _bnumbers(i: int) -> list[list[str]]:
    y = str(10000 + 10 * i)
    return [["bnumbers", "--q", "4", "--x", str(10 ** 7 - 1000 * i), "--h", "1"],
            ["bnumbers", "--q", "7", "--x", y, "--h", "3", "--s", "2.5"],
            ["bnumbers", "--q", "7", "--x", y, "--h", "3", "--z", "50"]]


def _geometry(i: int) -> list[list[str]]:
    pair = f"{GEOMETRY_RADII[2 * i]},{GEOMETRY_RADII[2 * i + 1]}"
    return [["circle", "--q", "3", "--two-n", pair, "--k", "8"],
            ["verify", "--q", "all", "--max-two-n", "200"]]


VARIANTS = {"survey": _survey, "count": _count,
            "bnumbers": _bnumbers, "geometry": _geometry}


def variant(workload: str, seed: int) -> int:
    """The input variant a seed selects; string seeding is stable across runs."""
    return random.Random(f"{workload}:{seed}").randrange(WINDOW)


def commands(workload: str, seed: int) -> list[list[str]]:
    """The CLI argument lists of one session of the workload."""
    return VARIANTS[workload](variant(workload, seed))


def command_key(args: list[str]) -> str:
    return " ".join(args)
