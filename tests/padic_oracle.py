"""Test-only oracles and synthetic towers for mazurtate.padic."""

from mazurtate.arith import hensel_unit_root
from mazurtate.groupring import GroupRingElement, norm_map
from mazurtate.nt import units_mod
from mazurtate.padic import PadicThetaTower
from mazurtate.theta import theta_element


def synthetic_tower(p, k, layers):
    return PadicThetaTower(
        curve_label="synthetic",
        p=p,
        k=k,
        alpha=1,
        layers=layers,
        theta_q=0,
        n_max=max(layers),
        variant="synthetic",
    )


def is_projective(tower) -> bool:
    return all(ok for _, ok, _ in tower.check_projectivity())


def sparse_layer(p, k, n, values):
    """The layer at p^n with the given coefficients at some units, 0 elsewhere."""
    pk = p**k
    return GroupRingElement(p**n, {a: values.get(a, 0) % pk for a in units_mod(p**n)})


def unstable_tower():
    """3-adic tower mod 3^4 whose trivial-tame reading moves at the top layer.

    Layers 1 and 2 are 2 sigma_1, a unit constant: (lambda, mu) = (0, 0)
    in both components.  Layer 3 is 3 sigma_1, read as (0, 1) in both.
    """
    p, k = 3, 4
    layers = {n: sparse_layer(p, k, n, {1: 2}) for n in (1, 2)}
    layers[3] = sparse_layer(p, k, 3, {1: 3})
    return synthetic_tower(p, k, layers)


def taylor_shift_oracle(c, pk):
    """sum_j c_j C(j, i) mod pk, with the binomials from Pascal's rows mod pk."""
    out = [0] * len(c)
    row = [1]  # C(j, i) mod pk for i <= j
    for cj in c:
        out[: len(row)] = [x + cj * binom for x, binom in zip(out, row)]
        row = [1] + [(x + y) % pk for x, y in zip(row, row[1:])] + [1]
    return [x % pk for x in out]


def modint_chain_layers(curve, p, k, n_max, variant):
    """alpha^-n (theta_{p^n} - nu N(theta_{p^(n-1)})) mod p^k, reduced at every step.

    nu is alpha^-1 (variant A) or p alpha^-1 (variant B), theta_{p^0} is
    theta_Q in the trivial group ring, and N is the norm map.  Each
    product, difference and inverse is taken mod p^k on its own, as a
    chain of residue-ring operations would.
    """
    pk = p**k
    alpha = hensel_unit_root(curve.ap(p), p, k)
    alpha_inv = pow(alpha, -1, pk)
    nu = alpha_inv if variant == "A" else alpha_inv * p % pk
    prev = theta_element(curve, 1).element.map_coeffs(lambda v: v % pk)
    layers = {}
    alpha_pow = 1
    for n in range(1, n_max + 1):
        alpha_pow = alpha_pow * alpha % pk
        alpha_pow_inv = pow(alpha_pow, -1, pk)
        cur = theta_element(curve, p**n).element.map_coeffs(lambda v: v % pk)
        lifted = norm_map(prev, p**n).map_coeffs(lambda v: v * nu % pk)
        diff = (cur - lifted).map_coeffs(lambda v: v % pk)
        layers[n] = diff.map_coeffs(lambda v: v * alpha_pow_inv % pk)
        prev = cur
    return layers


def variant_b_tower(curve, p, k, n_max):
    """The tower ``stabilize`` would build from variant B of the relation.

    nu = p alpha^-1 mirrors the Euler factor 1 - a_p x + p x^2; the
    Mazur-Tate relation is variant A, so this tower is not projective,
    and its check witnesses are what a wrong relation prints.
    """
    pk = p**k
    return PadicThetaTower(
        curve_label=curve.label,
        p=p,
        k=k,
        alpha=hensel_unit_root(curve.ap(p), p, k),
        layers=modint_chain_layers(curve, p, k, n_max, "B"),
        theta_q=theta_element(curve, 1).element.coeffs[0] % pk,
        n_max=n_max,
        variant="B",
    )
