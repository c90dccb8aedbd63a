"""The kicked top against an oracle in the full 2^N qubit space, N = 2j <= 12.

Nothing here uses the package's spin matrices, Dicke order or Floquet
matrix.  The start state is the product |theta, phi>^(x N) of the one-qubit
state cos(theta/2)|0> + e^(i phi) sin(theta/2)|1>, with |0> spin up.  One
kick applies exp(-i p sigma_y/2) to every qubit axis by tensordot, then the
diagonal phase exp(-i (k/2j) Jz^2) with Jz = (N - 2 popcount(b))/2 on basis
state b.  A block's reduced state contracts the other qubits' axes, and its
entropy comes from eigvalsh of the 2^q matrix.  The OTOCs trace Jx(n) =
U^-n Jx U^n over Dicke vectors built from bitstrings, with Jx = sum of
sigma_x/2.
"""

import math

import numpy as np
import pytest

from permsym.kickedtop import (KickedTopParams, otoc_series, time_averaged_tmi_grid,
                               timeseries_measures)
from permsym.measures import LINEAR, VON_NEUMANN

ATOL = 1e-10


def product_state(n_qubits: int, theta: float, phi: float) -> np.ndarray:
    """|theta, phi> on every qubit, as an array of N axes of length 2."""
    one = np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)])
    psi = np.ones(1)
    for _ in range(n_qubits):
        psi = np.kron(psi, one)
    return psi.reshape((2,) * n_qubits)


def popcounts(n_qubits: int) -> np.ndarray:
    """The number of ones of each basis state b = 0 .. 2^N - 1."""
    return np.bitwise_count(np.arange(2 ** n_qubits)).astype(int)  # not uint8, which wraps


def jz_values(n_qubits: int) -> np.ndarray:
    """Jz = (N - 2 popcount(b))/2 on basis state b, in the array's axis layout."""
    return ((n_qubits - 2 * popcounts(n_qubits)) / 2).reshape((2,) * n_qubits)


def on_every_qubit(gate: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """The one-qubit gate applied to each of psi's axes."""
    for axis in range(psi.ndim):
        psi = np.moveaxis(np.tensordot(gate, psi, axes=(1, axis)), 0, axis)
    return psi


def floquet(params: KickedTopParams):
    """psi -> exp(-i (k/2j) Jz^2) exp(-i p Jy) psi on the qubit array."""
    c, s = math.cos(params.p / 2), math.sin(params.p / 2)
    rotation = np.array([[c, -s], [s, c]])  # exp(-i p sigma_y/2), sigma_y = [[0, -i], [i, 0]]
    phases = np.exp(-1j * params.k / (2 * params.j) * jz_values(params.n_qubits) ** 2)
    return lambda psi: phases * on_every_qubit(rotation, psi)


def block_entropy(psi: np.ndarray, qubits, kind) -> float:
    """Entropy of the reduced state of the listed qubits."""
    rest = [a for a in range(psi.ndim) if a not in qubits]
    m = np.transpose(psi, list(qubits) + rest).reshape(2 ** len(qubits), -1)
    lam = np.linalg.eigvalsh(m @ m.conj().T)
    lam = lam[lam > 0]
    if kind is VON_NEUMANN:
        return float(-(lam * np.log2(lam)).sum())
    return float(1.0 - (lam ** 2).sum())


def measures(psi: np.ndarray, blocks, kind) -> dict:
    """S_A, I2(A:B), I2(A:BC) and I3 of blocks A, B, C of the first qubits."""
    q1, q2, q3 = blocks
    a, b, c = range(q1), range(q1, q1 + q2), range(q1 + q2, q1 + q2 + q3)
    s = {name: block_entropy(psi, [*qubits], kind) for name, qubits in
         (("A", a), ("B", b), ("C", c), ("AB", [*a, *b]), ("AC", [*a, *c]),
          ("BC", [*b, *c]), ("ABC", [*a, *b, *c]))}
    return {"S_A": s["A"], "I2_AB": s["A"] + s["B"] - s["AB"],
            "I2_A_BC": s["A"] + s["BC"] - s["ABC"],
            "I3": s["A"] + s["B"] + s["C"] - s["AB"] - s["AC"] - s["BC"] + s["ABC"]}


def qubit_series(params, theta, phi, n_steps, blocks, kind) -> dict:
    """Each measure over steps 0..n_steps from |theta, phi>^(x N)."""
    step, psi = floquet(params), product_state(params.n_qubits, theta, phi)
    rows = []
    for n in range(n_steps + 1):
        rows.append(measures(psi, blocks, kind))
        psi = step(psi) if n < n_steps else psi
    return {name: np.array([row[name] for row in rows]) for name in rows[0]}


SERIES_CASES = [(j, blocks) for j in (2.0, 3.5, 6.0) for blocks in ((1, 1, 1), (1, 2, 2))
                if sum(blocks) <= 2 * j]


class TestTimeseries:
    @pytest.mark.parametrize("p", [math.pi / 2, 1.1])
    @pytest.mark.parametrize("j, blocks", SERIES_CASES, ids=lambda v: str(v))
    def test_columns_match_the_qubit_space(self, j, blocks, p):
        params = KickedTopParams(j, 6.0, p)
        table = timeseries_measures(params, 2.25, 0.63, 50, blocks, (VON_NEUMANN, LINEAR))
        for kind, label in ((VON_NEUMANN, "vn"), (LINEAR, "lin")):
            want = qubit_series(params, 2.25, 0.63, 50, blocks, kind)
            for name, values in want.items():
                np.testing.assert_allclose(table[f"{name}_{label}"], values, rtol=0, atol=ATOL,
                                           err_msg=f"{name}_{label}")


class TestGrid:
    @pytest.mark.parametrize("p", [math.pi / 2, 1.1])
    @pytest.mark.parametrize("blocks, kind", [((1, 1, 1), VON_NEUMANN), ((1, 2, 2), LINEAR)],
                             ids=["vn-111", "linear-122"])
    def test_every_node_matches_the_qubit_space(self, blocks, kind, p):
        params = KickedTopParams(3.5, 6.0, p)
        thetas, phis, grid = time_averaged_tmi_grid(params, (4, 6), 10, blocks, kind)
        want = [[qubit_series(params, theta, phi, 10, blocks, kind)["I3"][1:].mean()
                 for phi in phis] for theta in thetas]
        np.testing.assert_allclose(grid, want, rtol=0, atol=ATOL)


def dicke_vectors(n_qubits: int) -> np.ndarray:
    """Columns |D_m>, the normalized sum of the bitstrings with m ones, m = 0..N."""
    vectors = (popcounts(n_qubits)[:, None] == np.arange(n_qubits + 1)).astype(float)
    return vectors / np.linalg.norm(vectors, axis=0)


def qubit_otoc(params: KickedTopParams, n_max: int):
    """C2(n) and C4(n) traced over the Dicke vectors of the qubit space."""
    n = params.n_qubits
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    dicke = dicke_vectors(n)
    columns = [d.reshape((2,) * n) for d in dicke.T]
    jx_full = [sum(np.moveaxis(np.tensordot(sigma_x, c, axes=(1, axis)), 0, axis)
                   for axis in range(n)) / 2 for c in columns]
    step = floquet(params)
    jx = dicke.T @ np.array([v.ravel() for v in jx_full]).T
    u = dicke.T @ np.array([step(c).ravel() for c in columns]).T
    jx2, jx_n, scale = jx @ jx, jx.astype(complex), params.j ** 4
    c2, c4 = [], []
    for _ in range(n_max + 1):
        c2.append(np.trace(jx_n @ jx_n @ jx2).real / scale)
        c4.append(np.trace(jx_n @ jx @ jx_n @ jx).real / scale)
        jx_n = u.conj().T @ jx_n @ u
    return np.array(c2), np.array(c4)


class TestOtoc:
    @pytest.mark.parametrize("p", [math.pi / 2, 1.1])
    @pytest.mark.parametrize("j", [0.5, 1.5, 2.0, 3.5, 4.0])
    def test_c2_c4_match_the_qubit_space(self, j, p):
        params = KickedTopParams(j, 6.0, p)
        series = otoc_series(params, 12)
        c2, c4 = qubit_otoc(params, 12)
        np.testing.assert_allclose(series.c2, c2, rtol=0, atol=ATOL)
        np.testing.assert_allclose(series.c4, c4, rtol=0, atol=ATOL)

    def test_jx_from_bitstrings_is_the_spin_operator(self):
        # C2(0) = Tr(Jx^4)/j^4, and Jx on the Dicke vectors has the eigenvalues -j..j
        params = KickedTopParams(3.5, 6.0)
        c2, _ = qubit_otoc(params, 0)
        m = np.arange(-3.5, 4.0)
        assert c2[0] == pytest.approx((m ** 4).sum() / 3.5 ** 4, abs=ATOL)
