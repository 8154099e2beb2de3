"""Fixed-length partial sums of the Lerch transcendent at s = 1.

The closed forms need Phi(z, 1, a) = sum_{j>=0} z^j / (j + a) only for small
|z| and for a shift a bounded away from the poles at a = 0, -1, -2, ...  On
such arguments the series converges geometrically, so a fixed number of
terms, chosen once from the a-priori remainder bound

    |sum_{j>=n} z^j / (j + a)|  <=  |z|^n / ((n + a)(1 - |z|))     (a > 0),

reaches double precision with no runtime convergence test.  Each caller
fixes its own term count next to the bound that justifies it.
"""

from __future__ import annotations


def lerch_sum(z: float, a: float, terms: int) -> float:
    """Sum the first ``terms`` terms of Phi(z, 1, a) = sum_j z^j / (j + a).

    The sum is nested (Horner form), starting from the smallest term, so with
    geometrically decaying terms the rounding error stays within a few units
    in the last place of the leading term 1/a (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 4).  No argument checks: the
    caller keeps a off the poles 0, -1, -2, ... and takes its term count
    from the bound above.
    """
    acc = 0.0
    for j in range(terms - 1, -1, -1):
        acc = acc * z + 1.0 / (j + a)
    return acc
