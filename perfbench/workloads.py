"""Seeded workload generators for the benchmark.

A generator turns a seed into a list of ``Case``: the config the program
receives, plus the outcome pinned for it.  Sizes (site counts, horizons,
pair counts, config count) depend only on the workload, so every seed
costs the same work; the seed picks the numbers inside each config.

Every parameter range keeps the finite-horizon tests decisive:

* positive chains are built as ``(1 - s) U + s R`` with ``U`` the uniform
  chain and ``R`` random stochastic, so every non-unit eigenvalue has
  modulus at most ``s`` and the deviations decay well inside the horizon;
* cyclic chains alternate with full amplitude, so weak and strong mixing
  fail by a wide margin while the ergodic mean still converges;
* mixtures combine iid components whose symbol-0 frequencies differ by
  at least 0.7, so the Cesaro limit misses the product by several
  tolerances even after a channel shrinks the observables.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

PASS = ("pass", "pass", "pass")
PERIODIC = ("pass", "fail", "fail")
SEPARATED = ("fail", "fail", "fail")

TRANSFER_N_MAX = 20000
DENSE_SITES = 8
BATCH_SIZE = 120


@dataclass(frozen=True)
class Case:
    """One generated config and the outcome pinned for it.

    exit_code is the CLI's code for this config alone (0 when every
    selected check and test passes, else 1); verdicts is the sweep's
    (ergodic_mean, weak_mixing, strong_mixing) triple, or None when the
    config selects no mixing test.
    """

    config: dict
    exit_code: int
    verdicts: tuple | None

    @property
    def name(self) -> str:
        return self.config["name"]


# ---------------------------------------------------------------------------
# parameter draws
# ---------------------------------------------------------------------------


def _simplex(rng: random.Random, k: int) -> list:
    """A random probability vector whose entries sum to 1 within rounding."""
    x = [rng.expovariate(1.0) for _ in range(k)]
    total = sum(x)
    p = [v / total for v in x[:-1]]
    return p + [1.0 - sum(p)]


def _positive_chain(rng: random.Random, k: int, s_lo: float, s_hi: float) -> list:
    """Row-stochastic k x k matrix with every non-unit eigenvalue within s_hi."""
    s = rng.uniform(s_lo, s_hi)
    rows = []
    for _ in range(k):
        r = _simplex(rng, k)
        row = [(1.0 - s) / k + s * x for x in r[:-1]]
        rows.append(row + [1.0 - sum(row)])
    return rows


def _cyclic_chain(k: int) -> list:
    return [[1.0 if j == (i + 1) % k else 0.0 for j in range(k)] for i in range(k)]


def _separated_iid_pair(rng: random.Random, k: int) -> list:
    """Two iid marginals whose symbol-0 probabilities differ by at least 0.7."""
    out = []
    for lo, hi in ((0.85, 0.95), (0.03, 0.12)):
        p0 = rng.uniform(lo, hi)
        rest = [(1.0 - p0) * x for x in _simplex(rng, k - 1)]
        out.append([1.0 - sum(rest)] + rest)
    return out


def _qubit_alphabet(rng: random.Random, theta_lo: float, complex_phase: bool) -> list:
    """|0> and cos(t)|0> + e^(i phi) sin(t)|1>, with t in [theta_lo, pi/2]."""
    t = rng.uniform(theta_lo, math.pi / 2)
    phi = rng.uniform(0.0, 2 * math.pi) if complex_phase else 0.0
    second = [
        [math.cos(t), 0.0],
        [math.sin(t) * math.cos(phi), math.sin(t) * math.sin(phi)],
    ]
    return [[1.0, 0.0], second]


def _mixed_state(rng: random.Random, d: int) -> list:
    """(1 - t) diag(p) + t |psi><psi|, exactly Hermitian, as [re, im] entries."""
    t = rng.uniform(0.2, 0.8)
    p = _simplex(rng, d)
    psi = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)]
    norm = math.sqrt(sum(abs(z) ** 2 for z in psi))
    psi = [z / norm for z in psi]
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            z = t * psi[i] * psi[j].conjugate() + ((1.0 - t) * p[i] if i == j else 0.0)
            row.append([z.real, z.imag])
        rows.append(row)
    return rows


def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _correlated(process: dict, alphabet="computational") -> dict:
    return {"kind": "classically_correlated", "process": process, "alphabet": alphabet}


def _markov(transition: list) -> dict:
    return {"kind": "markov", "transition": transition}


def _iid_mixture(rng: random.Random, k: int) -> dict:
    w = rng.uniform(0.35, 0.65)
    p1, p2 = _separated_iid_pair(rng, k)
    return {
        "kind": "mixture",
        "weights": [w, 1.0 - w],
        "components": [{"kind": "iid", "probs": p1}, {"kind": "iid", "probs": p2}],
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def transfer_long(rng: random.Random) -> list:
    """Five classically correlated sources swept to n_max 2e4 on the transfer route."""
    common = {"n_max": TRANSFER_N_MAX, "observable_count": 2, "backend": "transfer"}
    return [
        Case({
            "name": "markov_aperiodic", "seed": _seed(rng),
            "source": _correlated(
                _markov(_positive_chain(rng, 2, 0.3, 0.6)),
                _qubit_alphabet(rng, math.pi / 6, complex_phase=True),
            ),
            **common,
        }, 0, PASS),
        Case({
            "name": "markov_period2", "seed": _seed(rng),
            "source": _correlated(
                _markov(_cyclic_chain(2)),
                _qubit_alphabet(rng, math.pi / 3, complex_phase=False),
            ),
            **common,
        }, 1, PERIODIC),
        Case({
            "name": "markov_3state", "seed": _seed(rng), "site_dim": 3,
            "source": _correlated(_markov(_positive_chain(rng, 3, 0.3, 0.6))),
            **common,
        }, 0, PASS),
        Case({
            "name": "mixture_depolarized", "seed": _seed(rng),
            "source": _correlated(_iid_mixture(rng, 2)),
            "channel": {"kind": "depolarizing", "params": {"p": rng.uniform(0.1, 0.3)}},
            **common,
        }, 1, SEPARATED),
        Case({
            "name": "markov_block_damped", "seed": _seed(rng),
            "source": _correlated(_markov(_positive_chain(rng, 2, 0.3, 0.6))),
            "channel": {
                "kind": "amplitude_damping",
                "params": {"gamma": rng.uniform(0.2, 0.5)},
                "block_sites": 2,
            },
            "block_sites": 2,
            **common,
        }, 0, PASS),
    ]


def dense_short(rng: random.Random) -> list:
    """Four sources checked and swept on the dense route up to 8 sites."""
    common = {"n_max": DENSE_SITES, "check_sites": DENSE_SITES, "backend": "dense"}
    return [
        Case({
            "name": "markov_plain", "seed": _seed(rng), "observable_count": 2,
            "source": _correlated(
                _markov(_positive_chain(rng, 2, 0.1, 0.3)),
                _qubit_alphabet(rng, math.pi / 6, complex_phase=True),
            ),
            **common,
        }, 0, PASS),
        Case({
            "name": "markov_depolarized", "seed": _seed(rng), "observable_count": 2,
            "source": _correlated(_markov(_positive_chain(rng, 2, 0.1, 0.3))),
            "channel": {"kind": "depolarizing", "params": {"p": rng.uniform(0.1, 0.3)}},
            **common,
        }, 0, PASS),
        Case({
            "name": "iid_state", "seed": _seed(rng), "observable_count": 2,
            "source": {"kind": "iid", "state": _mixed_state(rng, 2)},
            **common,
        }, 0, PASS),
        # a 2-site block channel makes dense states exist only on even site
        # counts, which the sweep's shifts do not respect: checks only
        Case({
            "name": "markov_block_damped", "seed": _seed(rng),
            "source": _correlated(_markov(_positive_chain(rng, 2, 0.1, 0.3))),
            "channel": {
                "kind": "amplitude_damping",
                "params": {"gamma": rng.uniform(0.2, 0.5)},
                "block_sites": 2,
            },
            "tests": ["consistency", "stationarity"],
            **common,
        }, 0, None),
    ]


_BATCH_FAMILIES = ("iid_state", "positive", "cyclic", "mixture")


def config_batch(rng: random.Random) -> list:
    """BATCH_SIZE small configs; slot i fixes family, alphabet, size and channel."""
    cases = []
    for i in range(BATCH_SIZE):
        family = _BATCH_FAMILIES[i % 4]
        k = 2 + (i // 4) % 2
        n_max = 200 + (400 * ((37 * i) % BATCH_SIZE)) // (BATCH_SIZE - 1)
        config = {
            "name": f"b{i:03d}_{family}{k}",
            "seed": _seed(rng),
            "site_dim": k,
            "n_max": n_max,
            "observable_count": (i // 3) % 2,
            "backend": "transfer",
        }
        if family == "iid_state":
            config["source"] = {"kind": "iid", "state": _mixed_state(rng, k)}
            expected = (0, PASS)
        elif family == "positive":
            config["source"] = _correlated(_markov(_positive_chain(rng, k, 0.1, 0.5)))
            expected = (0, PASS)
        elif family == "cyclic":
            config["source"] = _correlated(_markov(_cyclic_chain(k)))
            expected = (1, PERIODIC)
        else:
            config["source"] = _correlated(_iid_mixture(rng, k))
            expected = (1, SEPARATED)
        if (i // 8) % 2:
            kinds = ("depolarizing", "amplitude_damping", "phase_damping") if k == 2 else ("depolarizing",)
            kind = kinds[(i // 16) % len(kinds)]
            param = {"depolarizing": "p", "amplitude_damping": "gamma", "phase_damping": "lam"}[kind]
            config["channel"] = {"kind": kind, "params": {param: rng.uniform(0.05, 0.3)}}
        cases.append(Case(config, *expected))
    return cases


WORKLOADS = {
    "transfer_long": transfer_long,
    "dense_short": dense_short,
    "config_batch": config_batch,
}


def generate(workload: str, seed: int) -> list:
    """The cases of one workload for one seed; equal seeds give equal cases."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
