"""Tour of the channel layer: build, validate, apply, dualize, act on a chain."""

import numpy as np

import spinsource as ss


def main():
    plus = np.array([2**-0.5, 2**-0.5], dtype=complex)
    zero = np.array([1.0, 0.0], dtype=complex)

    library = {
        "identity": ss.identity_channel(2),
        "depolarizing(0.3)": ss.depolarizing_channel(0.3),
        "amplitude_damping(0.5)": ss.amplitude_damping_channel(0.5),
        "phase_damping(0.5)": ss.phase_damping_channel(0.5),
        "random_unitary(seed=21)": ss.random_unitary_channel(2, seed=21),
        "embedding{|0>,|+>}": ss.embedding_channel(np.stack([zero, plus])),
    }

    print("completeness deviations (sum of A^dag A vs identity):")
    for name, ch in library.items():
        report = ss.validate_kraus(ch)
        print(f"  {name:28s} ops={len(ch):2d}  dev={report.completeness_deviation:.2e}")

    # push a pure |+> through each channel and watch the Bloch z coordinate
    rho = ss.density_operator(np.outer(plus, plus.conj()))
    z = ss.as_operator(ss.PAULI_Z)
    print("\n<Z> after one application to |+><+|:")
    for name, ch in library.items():
        out = ss.apply_channel(ch, rho)
        print(f"  {name:28s} {ss.trace_pairing(out, z).real:+.4f}")

    # Heisenberg picture: same number from the dual side
    dep = library["depolarizing(0.3)"]
    lhs = ss.trace_pairing(ss.apply_channel(dep, rho), z)
    rhs = ss.trace_pairing(rho, ss.apply_dual(dep, z))
    print(f"\nduality check |lhs - rhs| = {abs(lhs - rhs):.2e}")

    # on a chain the channel acts on every site, so any block of k sites
    # sees k copies of it; a state stays a state
    rho4 = ss.random_density(4, seed=8)
    out = ss.apply_channel(ss.amplitude_damping_channel(0.4), rho4)
    trace = ss.trace_pairing(out, ss.identity_operator(4)).real
    print(f"amplitude damping on each of 4 sites: trace stays {trace:.6f}")


if __name__ == "__main__":
    main()
