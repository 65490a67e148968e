"""Memory guards: set-up, the bilinear probe, the radius solves and a run
that stays inside its radius budget allocate little beyond the arrays they
return.  tracemalloc sees numpy's data buffers, so one weight-sized
temporary (8 MB at m = 1000) shows as a peak far above it."""

import tracemalloc

import numpy as np
import pytest

from overparam.data import generate_separated
from overparam.linalg import PortableRng, Rounded, gaussian_matrix, spectral_norm
from overparam.losses import builtin_loss
from overparam.network import (batch_forward, init_network, load_params,
                               save_params)
from overparam.optim import TrainConfig, run_gd
from overparam.verify import _bilinear_probe, _sparse_probes

DIMS = [10, 1000, 1000, 1000]
SLACK = 2 << 20   # bytes a call may hold beyond its result


def traced(fn, *args):
    """(fn(*args), peak traced bytes during the call)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def nbytes(params) -> int:
    return sum(w.nbytes for w in params.weights) + params.output_vector.nbytes


@pytest.fixture(scope="module")
def net():
    return init_network(DIMS, seed=3)


def test_init_network():
    params, peak = traced(init_network, DIMS, 3)
    assert peak <= nbytes(params) + SLACK


def test_load_params(net, tmp_path):
    path = tmp_path / "net.ckpt"
    save_params(net, path)
    params, peak = traced(load_params, path)
    assert peak <= nbytes(params) + SLACK


def test_save_params(net, tmp_path):
    _, peak = traced(save_params, net, tmp_path / "net.ckpt")
    assert peak <= SLACK


@pytest.mark.parametrize("l1, l2", [(1, 2), (1, 3), (2, 3)])
def test_bilinear_probe(net, l1, l2):
    ds = generate_separated(n=20, d=10, mu=0.5, phi=0.1, seed=1)
    patterns = batch_forward(net, ds.inputs).patterns
    rng = PortableRng(5)
    a = _sparse_probes(DIMS[l1 - 1], 8, 64, rng)
    b = _sparse_probes(DIMS[l2], 8, 64, rng)
    _, peak = traced(_bilinear_probe, net, patterns, l1, l2, a, b)
    assert peak <= SLACK


def test_float32_radius_forms_no_float64_difference(net):
    # the (1000, 1000) difference goes into a 4 MB float32 copy through
    # one 1 MiB float64 row block; a float64 difference would take 8 MB
    w0 = net.weights[1]
    w = w0 + 1e-3 * gaussian_matrix(1000, 1000, 1.0, PortableRng(7))
    sigma, peak = traced(spectral_norm, Rounded(w, w0), 1e-3)
    assert sigma > 0.0
    assert peak <= w.size * 4 + SLACK


@pytest.mark.parametrize("k", [None, -72], ids=["equal", "2**-72"])
def test_float32_radius_never_falls_back_to_float64(net, k):
    # an equal pair is settled from its copy's peak, and a difference 2**k
    # below the pair's peak is solved on the float32 copy of its own exact
    # scaling; a float64 re-solve would take an 8 MB difference and more
    if k is None:
        w0, w = net.weights[1], net.weights[1].copy()
    else:
        w0 = np.zeros((1000, 1000))
        w0[0, 0] = 1.0
        w = w0 + np.ldexp(gaussian_matrix(1000, 1000, 1.0, PortableRng(8)), k)
        w[0, 0] = 1.0
    sigma, peak = traced(spectral_norm, Rounded(w, w0), 1e-3)
    # tol 1e-3 bounds sigma**2's error by 1e-3; the solve reads 2.5e-6 off
    assert sigma == pytest.approx(np.linalg.norm(w - w0, 2), rel=1e-5, abs=0)
    assert peak <= w.size * 4 + SLACK


def test_float64_radius_forms_no_difference(net):
    # below the float32 floor the pair's products form the (1000, 1000)
    # difference one 1 MiB row block at a time; a whole one would take 8 MB
    w0 = net.weights[1]
    w = w0 + 1e-3 * gaussian_matrix(1000, 1000, 1.0, PortableRng(7))
    sigma, peak = traced(spectral_norm, Rounded(w, w0), 1e-10)
    assert sigma == pytest.approx(np.linalg.norm(w - w0, 2), rel=1e-12)
    assert peak <= SLACK


def test_run_inside_its_budget_holds_two_weight_sets():
    # a GD run that reaches zero error before its first snapshot row after
    # k = 0, with its bound inside tau, solves its wide layers only at the
    # last row, streaming W - W0: the initial and the live weights are the
    # only weight-sized arrays.  A work array for the difference would add
    # 8 MB.
    ds = generate_separated(n=4, d=10, mu=0.5, phi=0.1, seed=1)
    config = TrainConfig(max_iters=1000, eta=0.01, tau=0.1)

    def train():
        return run_gd(init_network(DIMS, 3), ds, builtin_loss("logistic"), config)

    (params, record), peak = traced(train)
    assert record.stop_reason == "zero_error" and record.rows[-1].k < 250
    assert all(r is None for row in record.rows[1:-1] for r in row.radius)
    assert peak <= 2 * nbytes(params) + SLACK
