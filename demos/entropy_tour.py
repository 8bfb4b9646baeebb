"""Entanglement entropy of every coin preset, and why it matters here.

The coin's bipartite entropy controls how the walk's shape departs from the
single-coin case: product coins (entropy 0) factor into independent
single-qubit walks, while entangled coins correlate the shift components in
a way no product coin can imitate.  Entropy is also invariant under local
basis changes, demonstrated at the end with a random U (x) V rotation.
"""

import numpy as np

from entwalk import (
    COIN_PRESETS,
    CoinState,
    build_initial_coin,
    entanglement_entropy,
)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def main() -> None:
    print("coin preset            qubits   entropy by cut (bits)")
    for name in sorted(COIN_PRESETS):
        state = build_initial_coin(name)
        if state.qubits < 2:
            print(f"  {name:<22} {state.qubits}      (no bipartition)")
            continue
        entropies = ", ".join(
            f"cut {cut}: {entanglement_entropy(state, cut):.6f}"
            for cut in range(1, state.qubits)
        )
        print(f"  {name:<22} {state.qubits}      {entropies}")

    print()
    print("local unitaries cannot change entanglement:")
    rng = np.random.default_rng(7)
    theta1 = build_initial_coin("theta1")
    base = entanglement_entropy(theta1, 1)
    for trial in range(3):
        u, v = haar_unitary(2, rng), haar_unitary(2, rng)
        rotated = CoinState(np.kron(u, v) @ theta1.amplitudes)
        print(
            f"  trial {trial}: E((U(x)V) theta1) = {entanglement_entropy(rotated, 1):.12f}"
            f"   (unrotated {base:.12f})"
        )


if __name__ == "__main__":
    main()
