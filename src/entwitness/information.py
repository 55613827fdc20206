"""Entropic uncertainty quantities for complementary qubit measurements.

For the two polarization components ``S_x`` and ``S_y`` measured on atom A,
with atom B kept as a quantum memory, the uncertainty bound reads

    H(S_x|B) + H(S_y|B) >= log2(1/c) + H(A|B),      c = 1/2,

where ``H(X|B) = H(rho_XB) - H(rho_B)`` are conditional von Neumann entropies
in bits.  The right-hand side ``mu = 1 + H(A|B)`` is the minimum uncertainty;
``mu < 1`` (negative conditional entropy) witnesses entanglement between A
and B (Berta et al., Nat. Phys. 6, 659 (2010)).

Under two local amplitude dampings the Bell start stays an X state whose
entries depend only on the excited-state populations ``p_A``, ``p_B``
(:func:`entwitness.dynamics.excited_population`):

    rho_11,11 = p_A p_B / 2,   rho_10,10 = p_A (1 - p_B) / 2,
    rho_01,01 = (1 - p_A) p_B / 2,   |rho_00,11| = sqrt(p_A p_B) / 2,

and ``rho_00,00`` the rest.  Its spectrum is that of the ``{|00>, |11>}``
block plus the two middle populations; the memory's marginal is
``diag(1 - p_B/2, p_B/2)``; and measuring ``S_x`` or ``S_y`` on A leaves two
2x2 blocks of weight 1/2 with the common spectrum
``1/2 +- sqrt((1 - p_B)^2 / 4 + p_A p_B / 4)``, so ``H(S_x|B) = H(S_y|B)``.
Every quantity is therefore a short element-wise function of ``p_A`` and
``p_B``, given as scalars, per-sample columns or ``(G, N)`` batches of rows.
All functions are stateless and safe for concurrent use.
"""

import numpy as np

from .numerics import entropy_bits


def _memory_entropy(p_b):
    """``H(rho_B)`` of the memory's marginal ``diag(1 - p_B/2, p_B/2)``."""
    return entropy_bits(1.0 - 0.5 * p_b, 0.5 * p_b)


def minimum_uncertainty(p_a, p_b):
    """``mu = 1 + H(A|B)`` of the X state with excited populations ``p_a``, ``p_b``."""
    p_a, p_b = np.asarray(p_a, dtype=float), np.asarray(p_b, dtype=float)
    return _minimum_uncertainty(p_a, p_b, _memory_entropy(p_b))


def _minimum_uncertainty(p_a, p_b, h_memory):
    """``mu`` given the memory's entropy ``h_memory = H(rho_B)``.

    The ``{|00>, |11>}`` block has eigenvalues ``big`` and ``det / big``; taking
    the smaller one from the determinant keeps it accurate where it nears 0.
    """
    both_decayed = (1.0 - p_a) * (1.0 - p_b)
    excited = 0.5 * p_a * p_b                     # rho_11,11; also 2 |rho_00,11|^2
    ground = 0.5 + 0.5 * both_decayed             # rho_00,00
    big = 0.5 * (ground + excited) + np.sqrt((0.5 * (ground - excited)) ** 2 + 0.5 * excited)
    small = 0.5 * excited * both_decayed / big    # (rho_00,00 rho_11,11 - |rho_00,11|^2) / big
    h_joint = entropy_bits(big, small, 0.5 * (1.0 - p_a) * p_b, 0.5 * p_a * (1.0 - p_b))
    return 1.0 + h_joint - h_memory


def uncertainty_columns(p_a, p_b):
    """The bound ``mu`` and ``lhs = H(Sx|B) + H(Sy|B) = 2 H(Sx|B)``, element by element."""
    p_a, p_b = np.asarray(p_a, dtype=float), np.asarray(p_b, dtype=float)
    h_memory = _memory_entropy(p_b)
    mu = _minimum_uncertainty(p_a, p_b, h_memory)
    big = 0.5 + 0.5 * np.sqrt((1.0 - p_b) ** 2 + p_a * p_b)
    small = 0.25 * p_b * (2.0 - p_a - p_b) / big  # (1/4 - radius^2) / big
    lhs = 2.0 * (1.0 + entropy_bits(big, small) - h_memory)
    return mu, lhs
