"""Polynomial state-feedback expert.

The paper's κ2 for the 3-D system is "a polynomial controller [25]" (Sassi,
Bartocci, Sankaranarayanan 2017) obtained from an LP-based stabilisation
procedure; its distinguishing feature in Table I is a very small Lipschitz
constant (0.72).  We reproduce the *role* of that expert with a generic
polynomial controller class plus a default low-gain stabilising polynomial
for the 3-D system; the LP-based synthesis of [25] itself is not
reproduced, the fixed default polynomial stands in for its output.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.experts.base import Controller

#: One monomial: (coefficient, exponents per state dimension).
Monomial = Tuple[float, Sequence[int]]


class PolynomialController(Controller):
    """Control given by one multivariate polynomial per control dimension."""

    def __init__(self, monomials_per_output: Sequence[Sequence[Monomial]], name: str = "polynomial"):
        if not monomials_per_output:
            raise ValueError("at least one output polynomial is required")
        self._polynomials: List[List[Tuple[float, np.ndarray]]] = []
        for monomials in monomials_per_output:
            parsed = [(float(coef), np.asarray(exponents, dtype=int)) for coef, exponents in monomials]
            self._polynomials.append(parsed)
        self.name = name

    def batch_control(self, states: np.ndarray) -> np.ndarray:
        """One array ``**`` per monomial, the product taken left to right and
        the terms summed in order from zero, so a row's control does not
        depend on the rest of the batch."""

        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        outputs = []
        for monomials in self._polynomials:
            value = np.zeros(len(states))
            for coefficient, exponents in monomials:
                value = value + coefficient * np.prod(states ** exponents, axis=1)
            outputs.append(value)
        return np.stack(outputs, axis=1)

    def degree(self) -> int:
        """Maximum total degree across all outputs."""

        return max(int(exponents.sum()) for monomials in self._polynomials for _, exponents in monomials)

    def coefficients(self) -> Dict[int, List[Monomial]]:
        return {
            index: [(coef, exponents.tolist()) for coef, exponents in monomials]
            for index, monomials in enumerate(self._polynomials)
        }

    # ------------------------------------------------------------------
    @classmethod
    def linear(cls, gains: Sequence[float], name: str = "polynomial-linear") -> "PolynomialController":
        """Pure linear feedback ``u = -sum_i gains[i] * s_i`` as a polynomial."""

        gains = np.asarray(gains, dtype=np.float64)
        dimension = gains.size
        monomials = []
        for index, gain in enumerate(gains):
            exponents = np.zeros(dimension, dtype=int)
            exponents[index] = 1
            monomials.append((-float(gain), exponents))
        return cls([monomials], name=name)

    @classmethod
    def default_three_dimensional(cls) -> "PolynomialController":
        """Low-gain stabilising polynomial for the 3-D system.

        ``u = -(0.25 x + 0.55 y + 0.55 z) - 0.25 z^2`` -- the quadratic term
        compensates the ``0.5 z^2`` drift in the x-dynamics; the gains are
        kept small so the controller's Lipschitz constant over the unit box
        is below one, mirroring the paper's κ2 (L = 0.72).
        """

        linear_part = [
            (-0.25, (1, 0, 0)),
            (-0.55, (0, 1, 0)),
            (-0.55, (0, 0, 1)),
            (-0.25, (0, 0, 2)),
        ]
        return cls([linear_part], name="polynomial-3d")
