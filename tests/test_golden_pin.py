"""A SHA-256 pin over the outputs, at fixed inputs, of convex, transport and
gibbs routines that no other pin covers: inf-convolution and Legendre values,
interpolation pairs built after an admissibility spot check, spectral W2 of
Hermitian pairs, the optimal inner product, the gradient at zero, the
expectation bound and the Herbst check with an estimated Lipschitz constant."""

import hashlib

import numpy as np
from test_convex import pin_bytes, smooth_convex

from freegeo import convex as cx
from freegeo import gibbs
from freegeo import transport as tp
from freegeo.matcore import MatrixTuple


def convex_outputs(rng):
    def tup():
        return MatrixTuple(rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3)))

    points = [(0.9, -0.6, 0.2),
              (rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)),
              (tup(), tup(), 0.4 * tup())]
    out = []
    for x, y, b in points:
        phi = smooth_convex(1.1, b, 0.5)
        psi = cx.legendre_fn(phi)
        out += [cx.inf_convolution(phi, t, x) for t in (0.25, 1.9)]
        out += [cx.legendre_strongly_convex(phi, y), cx.legendre_strongly_convex(phi, x)]
        samples = [(x, phi.gradient(x)), (y, x), (x, y)]
        for s, t in ((0.0, 0.5), (0.2, 0.7), (0.4, 1.0)):
            pair = cx.interpolation_pair(phi, psi, s, t, admissibility_samples=samples)
            out += [pair.phi_st(x), pair.phi_st.gradient(x), pair.psi_st(y),
                    pair.psi_st.gradient(y)]
    return out


def transport_outputs(rng):
    out = []
    for n in (3, 6):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        x, y = a + a.conj().T, 0.5 * (b + b.conj().T)
        near = y.copy()
        near[0, 1] += 5e-11  # Hermitian up to the default tolerance
        out += [tp.spectral_w2_1d(x, y), tp.spectral_w2_1d(y, x), tp.spectral_w2_1d(x, near)]
    ens = [gibbs.Ensemble(rng.normal(size=(12, 2, 3, 3)) + 1j * rng.normal(size=(12, 2, 3, 3)))
           for _ in range(2)]
    c_val, plan = tp.optimal_inner_product(ens[0], ens[1])
    return out + [c_val, plan.cost, plan.pairing], ens[0]


def gibbs_outputs(ens):
    pot = gibbs.Potential.quadratic(1.5, 2).with_tilt([0.3, -0.2]).with_quartic(0.1)
    est, bounds = gibbs.gradient_at_zero(pot, [0.5, 1.0, 2.0])
    # one slot: the bound's constant is a sup per slot, nested m deep
    one = gibbs.Potential.quadratic(1.5, 1).with_tilt([0.3]).with_quartic(0.1)
    rep = gibbs.expectation_bound_check(gibbs.Ensemble(ens.samples[:, :1]), one)
    herbst = gibbs.herbst_check(ens, "re tr(x1*x1*x2) + 0.5*re tr(x2)", c=1.5)
    return [est, bounds, rep.lhs, rep.rhs, rep.rhs_proof_scaling, rep.c_constant,
            float(rep.sufficient_samples), herbst.grid, herbst.frequencies, herbst.bounds,
            herbst.slack, herbst.lipschitz]


def pin_digest():
    rng = np.random.default_rng(4242)
    digest = hashlib.sha256()
    tp_out, ens = transport_outputs(rng)
    for v in convex_outputs(rng) + tp_out + gibbs_outputs(ens):
        digest.update(pin_bytes(v))
    return digest.hexdigest()


def test_golden_pin_fixed_settings():
    assert pin_digest() == "2a48b0eb026a1f4f9909ce2008b9fb6afe71674450309030fc4717e993831e1c"
