"""Run the three mixing tests over a small fleet of sources.

The fleet covers the full verdict matrix: an iid source (everything passes),
an aperiodic chain (everything passes, with geometric decay), a period-2
chain (mean converges, mixing fails), and a mixture of two iid components
(even the mean fails).
"""

import numpy as np

import spinsource as ss

ALPHABET = np.array([[1, 0], [2**-0.5, 2**-0.5]], dtype=complex)


def fleet():
    sources = {"iid": ss.IIDSource(ss.density_operator([[0.75, 0.25], [0.25, 0.25]]))}
    chains = {
        "aperiodic": ss.MarkovProcess([[0.9, 0.1], [0.2, 0.8]]),
        "period2": ss.MarkovProcess([[0.0, 1.0], [1.0, 0.0]]),
        "mixture": ss.MixtureProcess(
            [0.5, 0.5], [ss.IIDProcess([0.9, 0.1]), ss.IIDProcess([0.1, 0.9])]
        ),
    }
    for name, chain in chains.items():
        sources[name] = ss.construct_classically_correlated(chain, ALPHABET)
    return sources


def main():
    print(f"{'source':12s} {'ergodic_mean':>14s} {'weak_mixing':>14s} {'strong_mixing':>14s}")
    for name, src in fleet().items():
        sweep = ss.sweep_report(src, n_max=2000, backend="transfer", seed=5)
        e, w, s = sweep.verdicts
        print(f"{name:12s} {e:>14s} {w:>14s} {s:>14s}")
        for label, rate in sweep.decay_rates.items():
            print(f"{'':12s}   decay {label}: rate ~ {rate:.4f}")

    # zoom in on one pair: the deviation sequence is exactly geometric here
    src = fleet()["aperiodic"]
    p0 = ss.word_projector((0,))
    report = ss.pair_report(src, p0, p0, n_max=48, backend="transfer").strong_mixing
    print("\naperiodic indicator pair, first deviations:")
    print(np.round(report.deviations[:6], 6))
    print("fitted decay rate:", round(report.decay.rate, 6), "(second eigenvalue is 0.7)")


if __name__ == "__main__":
    main()
