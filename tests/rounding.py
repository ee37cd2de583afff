"""A-priori rounding bounds for fixed-order float64 sums, computed exactly.

Under the standard model of floating-point arithmetic (Higham, *Accuracy
and Stability of Numerical Algorithms*, 2nd ed., section 2.2), every
operation that does not underflow returns its exact result times (1 + d),
|d| <= u = 2^-53.  A product of n such factors lies within gamma_n of 1,
gamma_n = n u / (1 - n u) (Lemma 3.1).  Summing terms in any order puts each
term through at most (number of terms - 1) additions (section 4.2), so a
computed sum of terms t_k, each of which reaches the sum through at most n
roundings counting those additions, differs from the exact sum by at most

    gamma_n * sum_k |t_k|.

Terms that the bound itself is built from are floats computed with a few
operations of their own; counting those operations into n as well keeps
the bound rigorous, since gamma_a (1 + gamma_b) <= gamma_(a+b) (Lemma 3.3).
"""
from fractions import Fraction
import math

import numpy as np

U = Fraction(1, 2**53)


def gamma(n: int) -> Fraction:
    """gamma_n = n u / (1 - n u), exactly."""
    if not 0 <= n * U < 1:
        raise ValueError(f"gamma_{n} is undefined")
    return n * U / (1 - n * U)


def rounding_bound(terms, n: int) -> float:
    """gamma_n * sum |terms|, summed exactly and rounded up to a float.

    ``n`` counts the roundings any one term passes through: the additions of
    the sum it enters, the operations that formed it, and those that formed
    the float given here for it.
    """
    total = sum((abs(Fraction(float(t))) for t in np.ravel(terms)), Fraction(0))
    bound = gamma(n) * total
    up = float(bound)
    return up if Fraction(up) >= bound else math.nextafter(up, math.inf)
