"""The four benchmark workloads and their seeded instance sets.

An instance is the text the program sees (mfaho's instance text format), the
problem to solve, and which generator produced it, which picks the
reference used by the independent check.  Instance i of a workload depends
only on (workload, seed, i), so any prefix of a set can be regenerated on
its own.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

PROBLEMS = ("mfahoc", "mfahop")

# Partite structures of the SMD workloads, cycled through by instance index.
DENSE_STRUCTURES = ((60, 60), (40, 40, 40), (24,) * 5, (12,) * 10, (1,) * 120)
SKEWED_STRUCTURES = DENSE_STRUCTURES[:3]
LSD_N = 200
LSD_REACH = 0.2
# 10 strong slots and 20 non-strong ones, 4 of them semicomplete
LSD_PERIOD = 30
_MAX_ATTEMPTS = 100
# Partite sizes (SMD) or strong component sizes (LSD) of the oracle workload
SMALL_SIZES = {8: ((4, 4), (3, 3, 2), (2, 2, 2, 2)), 9: ((5, 4), (3, 3, 3), (3, 2, 2, 2))}
SMALL_PERIOD = 36  # n (2) x generator (2) x problem slot (3) x sizes (3)


@dataclass(frozen=True)
class Instance:
    text: str
    problem: str
    kind: str  # "smd" or "lsd": the generator family


def _rng(workload: str, seed: int, i: int) -> random.Random:
    # String seeds hash with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{i}")


def _gen_seed(rng: random.Random) -> int:
    return rng.getrandbits(31)


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Random sizes >= 1 summing to total."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


def _smd_dense(mfaho, rng, i):
    d, _ = mfaho.generate.gen_smd(
        DENSE_STRUCTURES[i % len(DENSE_STRUCTURES)], _gen_seed(rng), 0.15, 0.5
    )
    return mfaho.instance_io.serialize_instance(d), PROBLEMS[i % 2], "smd"


def _smd_skewed(mfaho, rng, i):
    # digon_prob 0 and bias 1 make gen_smd ignore its seed, so the seed
    # relabels the vertices instead; otherwise every seed gives the same set.
    d, _ = mfaho.generate.gen_smd(
        SKEWED_STRUCTURES[i % len(SKEWED_STRUCTURES)], _gen_seed(rng), 0.0, 1.0
    )
    perm = list(range(d.n))
    rng.shuffle(perm)
    relabelled = mfaho.build_digraph(d.n, [(perm[u], perm[v]) for u, v in d.arcs])
    return mfaho.instance_io.serialize_instance(relabelled), "mfahoc", "smd"


def _lsd(mfaho, rng, i):
    gen = mfaho.generate
    slot = i % LSD_PERIOD
    if slot % 3 == 0:
        spread = (10, 20)[slot // 3 % 2]
        d = gen.gen_lsd_strong(LSD_N, _gen_seed(rng), spread=spread)
        return mfaho.instance_io.serialize_instance(d), PROBLEMS[i % 2], "lsd"
    j = slot - slot // 3 - 1  # index among the non-strong slots, 0..19
    sizes = _composition(rng, LSD_N, 4 + j % 5)
    # A non-strong LSD comes out semicomplete (and runs as class "both") when
    # the first component happens to dominate the last, at rate reach_prob.
    # Every fifth slot takes one, so each run holds exactly that natural rate
    # instead of a binomial draw from it, which moved p90 from seed to seed.
    # Once the first component dominates the last, the generator's interval
    # closure makes every component dominate every later one, so reach_prob 1
    # draws exactly the semicomplete outcomes.
    semicomplete = j % 5 == j // 5 % 5
    reach = 1.0 if semicomplete else LSD_REACH
    for _ in range(_MAX_ATTEMPTS):
        d = gen.gen_lsd_nonstrong(sizes, _gen_seed(rng), reach_prob=reach)
        if mfaho.is_semicomplete(d) == semicomplete:
            return mfaho.instance_io.serialize_instance(d), PROBLEMS[i % 2], "lsd"
    raise RuntimeError(f"lsd slot {slot}: no instance with semicomplete={semicomplete}")


def _oracle_small(mfaho, rng, i):
    n = 8 + i % 2
    kind = ("smd", "lsd")[i // 2 % 2]
    # Oracle time grows about tenfold from mfahoc to mfahop and from n=8 to
    # n=9.  One mfahop in three puts p50 inside the mfahoc n=9 group and p90
    # inside the mfahop n=9 group instead of on the edge between two groups.
    problem = "mfahop" if i // 4 % 3 == 0 else "mfahoc"
    sizes = SMALL_SIZES[n][i // 12 % 3]
    if kind == "smd":
        d, _ = mfaho.generate.gen_smd(sizes, _gen_seed(rng))
    else:
        # consecutive domination only: the underlying graph, and with it the
        # oracle's work, is then fixed by the component sizes
        d = mfaho.generate.gen_lsd_nonstrong(sizes, _gen_seed(rng), reach_prob=0.0)
    return mfaho.instance_io.serialize_instance(d), problem, kind


@dataclass(frozen=True)
class Workload:
    name: str
    make: object  # (mfaho, rng, i) -> (text, problem, kind)
    pool: int  # instances generated per run; the timed loop cycles through them
    period: int  # instances per full cycle of the workload's mix
    with_oracle: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("smd-dense", _smd_dense, 120, len(DENSE_STRUCTURES) * 2),
        Workload("smd-skewed", _smd_skewed, 120, len(SKEWED_STRUCTURES)),
        Workload("lsd", _lsd, 4 * LSD_PERIOD, LSD_PERIOD),
        Workload("oracle-small", _oracle_small, 3 * SMALL_PERIOD, SMALL_PERIOD, with_oracle=True),
    )
}

# Instances of the default seed whose digest every run re-checks.
PROBE = 6


def instance(mfaho, workload: Workload, seed: int, i: int) -> Instance:
    return Instance(*workload.make(mfaho, _rng(workload.name, seed, i), i))


def instance_set(mfaho, workload: Workload, seed: int, count: int) -> list[Instance]:
    return [instance(mfaho, workload, seed, i) for i in range(count)]


def set_digest(instances: list[Instance]) -> str:
    h = hashlib.sha256()
    for inst in instances:
        h.update(f"{inst.problem} {inst.kind} {len(inst.text)}\n".encode())
        h.update(inst.text.encode())
    return h.hexdigest()
