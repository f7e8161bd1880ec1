"""Reference inverse for Scalar.inv: the engine's former flat field norm,
which multiplies num by its conjugate under every unit k != 1 mod N.

It is kept as a test oracle for Scalar.inv, which takes the norm down a
tower of prime-index subgroups of (Z/N)^* instead.
"""

from math import gcd

from nicholslie.scalar import Scalar, _canonical, _fold, _power, _product


def flat_inverse(x: Scalar) -> Scalar:
    """x^-1 for a nonzero x: a monomial c * z^e is z^(N - e) / c, anything
    else den * c / norm with c = prod sigma_k(num) over the units k != 1."""
    order, num = x.order, x.num
    support = [e for e, c in enumerate(num) if c]
    if len(support) == 1:
        e = support[0]
        return _canonical(order, [x.den * c for c in _power(order, order - e)], num[e])
    cofactor = None
    for k in range(2, order):
        if gcd(k, order) == 1:
            conj = [0] * order
            for e in support:
                conj[k * e % order] = num[e]
            _fold(order, conj)
            cofactor = conj if cofactor is None else _product(order, cofactor, conj)
    norm = _product(order, num, cofactor)
    assert norm[0] and not any(norm[1:]), "cyclotomic norm must be a nonzero rational"
    return _canonical(order, [x.den * c for c in cofactor], norm[0])
