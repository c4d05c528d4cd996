"""Autodiff core: primitive gradients, optimizer, schedule, the fit loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorlab import tensor as T
from anchorlab.errors import ConfigError, ContractError, DegenerateInputError, DimensionError
from anchorlab.tensor import AdamW, GradTape, LrSchedule, Tensor

from conftest import finite_diff


def _grad_of(build, x0: np.ndarray) -> np.ndarray:
    """Autodiff gradient of a scalar-valued tensor expression at x0."""
    x = Tensor(x0.copy(), requires_grad=True)
    with GradTape() as tape:
        loss = build(x)
        tape.backward(loss)
    return x.grad.astype(np.float64)


def _check(build, np_fn, shape, seed, tol=1e-3):
    g = np.random.default_rng(seed)
    x0 = g.uniform(0.2, 1.5, size=shape).astype(np.float32)
    auto = _grad_of(build, x0)
    fd = finite_diff(lambda a: float(np_fn(a)), x0.astype(np.float64))
    denom = np.maximum(np.abs(fd), 1e-2)
    assert np.max(np.abs(auto - fd) / denom) < tol


@pytest.mark.parametrize("seed", range(5))
def test_add_mul_sub_grads(seed):
    g = np.random.default_rng(100 + seed)
    c = g.uniform(0.5, 2.0, size=(3, 4)).astype(np.float32)
    _check(lambda x: T.tsum(x + Tensor(c)), lambda a: (a + c).sum(), (3, 4), seed)
    _check(lambda x: T.tsum(x * Tensor(c)), lambda a: (a * c).sum(), (3, 4), seed)
    _check(lambda x: T.tsum(Tensor(c) - x), lambda a: (c - a).sum(), (3, 4), seed)


@pytest.mark.parametrize("seed", range(5))
def test_matmul_power_grads(seed):
    g = np.random.default_rng(200 + seed)
    w = g.standard_normal((4, 2)).astype(np.float32)
    _check(lambda x: T.tsum(T.matmul(x, Tensor(w))), lambda a: (a @ w).sum(), (3, 4), seed)
    # a cube as a product: the backward pass sums three gradients into one input
    _check(lambda x: T.tsum(x * x * x), lambda a: (a**3).sum(), (2, 3), seed)


@pytest.mark.parametrize("seed", range(5))
def test_unary_grads(seed):
    _check(lambda x: T.tsum(T.texp(x)), lambda a: np.exp(a).sum(), (2, 3), seed)
    _check(lambda x: T.tsum(T.tlog(x)), lambda a: np.log(a).sum(), (2, 3), seed)

    def np_gelu(a):
        c = math.sqrt(2 / math.pi)
        return (0.5 * a * (1 + np.tanh(c * (a + 0.044715 * a**3)))).sum()

    _check(lambda x: T.tsum(T.gelu(x)), np_gelu, (2, 4), seed)


# negatives whose float64 cube, rounded to float32, is one ulp off `x**3`
_F64_CUBE_MISSES = [0xBFC0EC78, 0xBF40EC78, 0xBFCB96B4, 0xBF30981D, 0xBFCB7330, 0xBEB66CFE,
                    0xBF9C8F59, 0xBE0D7BB9, 0xBE7D1615, 0xBF266F6D, 0xBF517C25, 0xBFBDEE3A]


def _assert_cube_bits(x):
    with np.errstate(all="ignore"):
        assert np.array_equal(T._cube(x).view(np.uint32), (x**3).view(np.uint32))


def test_cube_matches_power_bit_for_bit():
    g = np.random.default_rng(0)
    # every exponent and both signs, with +-0, +-inf, NaNs and subnormals among them
    bits = g.integers(0, 2**32, size=2**20, dtype=np.uint64).astype(np.uint32)
    bits[:6] = [0, 0x80000000, 0x7F800000, 0xFF800000, 0xFFC00001, 0x80000001]
    _assert_cube_bits(bits.view(np.float32))
    for shape in [(128, 256), (1, 256), (3, T._CUBE_BLOCK + 5)]:
        _assert_cube_bits(g.standard_normal(shape).astype(np.float32))
    misses = np.array(_F64_CUBE_MISSES, np.uint32).view(np.float32)
    d = misses.astype(np.float64)
    assert not np.any((d * d * d).astype(np.float32) == misses**3)
    _assert_cube_bits(misses)
    assert T._cube(misses[:1]).view(np.uint32)[0] == 0xC05B21ED


@pytest.mark.parametrize("seed", range(3))
def test_reduction_and_reshape_grads(seed):
    c = np.random.default_rng(400 + seed).uniform(0.5, 2.0, size=(3, 4)).astype(np.float32)
    # the row sum without keepdims, as `alignment.cosine_loss` reduces
    _check(lambda x: T.tmean(T.tsum(x * Tensor(c), axis=1)),
           lambda a: (a * c).sum(axis=1).mean(), (3, 4), seed)
    _check(lambda x: T.tsum(T.reshape(x, (6,)) * T.reshape(x, (6,))),
           lambda a: (a.reshape(6) ** 2).sum(), (2, 3), seed)


@pytest.mark.parametrize("seed", range(3))
def test_l2_normalize_grad(seed):
    g = np.random.default_rng(300 + seed)
    t = g.standard_normal(5).astype(np.float32)

    def np_fn(a):
        return float((a / np.linalg.norm(a) * t).sum())

    _check(lambda x: T.tsum(T.l2_normalize(x) * Tensor(t)), np_fn, (5,), seed)


@pytest.mark.parametrize("seed", range(3))
def test_softmax_cross_entropy_grad(seed):
    labels = np.array([0, 2, 1])

    def np_fn(a):
        z = a - a.max(axis=1, keepdims=True)
        lse = np.log(np.exp(z).sum(axis=1))
        return float((lse - z[np.arange(3), labels]).mean())

    _check(lambda x: T.softmax_cross_entropy(x, labels), np_fn, (3, 4), seed)


def test_broadcasting_backward():
    a0 = np.ones((3, 1), dtype=np.float32)
    b0 = np.ones((1, 4), dtype=np.float32)
    a = Tensor(a0, requires_grad=True)
    b = Tensor(b0, requires_grad=True)
    with GradTape() as tape:
        tape.backward(T.tsum(a * b))
    assert a.grad.shape == (3, 1) and np.allclose(a.grad, 4.0)
    assert b.grad.shape == (1, 4) and np.allclose(b.grad, 3.0)


def test_cosine_sim_examples():
    e1 = np.array([1.0, 0.0], dtype=np.float32)
    e2 = np.array([0.0, 1.0], dtype=np.float32)
    both = np.array([1.0, 1.0], dtype=np.float32)
    assert T.cosine_sim_np(e1, e1) == pytest.approx(1.0)
    assert T.cosine_sim_np(e1, e2) == pytest.approx(0.0, abs=1e-7)
    assert T.cosine_sim_np(e1, both) == pytest.approx(0.70710678, abs=1e-7)


def test_degenerate_and_contract_errors():
    with pytest.raises(DegenerateInputError):
        T.l2_normalize(Tensor(np.zeros(3)))
    with pytest.raises(DegenerateInputError):
        T.cosine_sim_np(np.zeros(3), np.ones(3))
    with pytest.raises(DimensionError):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
    with pytest.raises(ContractError):
        Tensor(np.array([1.0, np.nan]))
    x = Tensor(np.ones(3), requires_grad=True)
    with GradTape() as tape:
        y = x * x
        with pytest.raises(ContractError):
            tape.backward(y)


def test_nested_tapes_rejected():
    with GradTape():
        with pytest.raises(ContractError):
            with GradTape():
                pass


def test_softmax_cross_entropy_oracles():
    # uniform logits give log(C) exactly
    loss = T.softmax_cross_entropy(Tensor(np.zeros((4, 3))), np.array([0, 1, 2, 0]))
    assert float(loss.data) == pytest.approx(math.log(3.0), abs=1e-6)
    # extreme logits stay finite thanks to the max shift
    big = np.array([[1000.0, 0.0], [0.0, 1000.0]], dtype=np.float32)
    assert np.isfinite(T.softmax_cross_entropy(Tensor(big), np.array([0, 1])).data)
    with pytest.raises(ContractError):
        T.softmax_cross_entropy(Tensor(np.zeros((2, 2))), np.array([0, 2]))
    with pytest.raises(DimensionError):
        T.softmax_cross_entropy(Tensor(np.zeros((2, 2))), np.array([0, 1, 1]))


def test_softmax_cross_entropy_class_weights():
    logits = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 0.5]], dtype=np.float32)
    labels = np.array([0, 1, 0])
    w = np.array([2.0, 1.0])
    # manual: per-sample ce, weights normalized to mean 1 over the batch
    z = logits - logits.max(axis=1, keepdims=True)
    ce = np.log(np.exp(z).sum(axis=1)) - z[np.arange(3), labels]
    wb = w[labels]
    wb = wb / wb.sum() * 3
    expected = float((ce * wb).mean())
    got = float(T.softmax_cross_entropy(Tensor(logits), labels, class_weights=w).data)
    assert got == pytest.approx(expected, abs=1e-6)


def test_adamw_first_step_oracle():
    # single step on f(p) = p with grad 1: update is -lr * 1 / (1 + eps)
    p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
    p.grad = np.array([1.0], dtype=np.float32)
    opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
    opt.step()
    assert p.data[0] == pytest.approx(1.0 - 0.1 * 1.0 / (1.0 + 1e-8), abs=1e-6)


def test_adamw_decoupled_weight_decay():
    p = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
    p.grad = np.array([0.0], dtype=np.float32)
    opt = AdamW({"p": p}, lr=0.5, weight_decay=0.1)
    opt.step()
    # zero gradient: only the decay term fires
    assert p.data[0] == pytest.approx(2.0 * (1 - 0.5 * 0.1), abs=1e-6)


def test_adamw_rejects_nan_grad():
    p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
    p.grad = np.array([np.nan], dtype=np.float32)
    with pytest.raises(ContractError):
        AdamW({"p": p}, lr=0.1, weight_decay=0.0).step()


def _reference_adamw_step(p, g, m, v, t, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
    """The out-of-place AdamW expression the blocked in-place step must reproduce bit for bit."""
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    mhat = m / bc1
    vhat = v / bc2
    if wd:
        p -= np.float32(lr * wd) * p
    p -= np.float32(lr) * (mhat / (np.sqrt(vhat) + eps)).astype(np.float32)


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("size", [1, T._CHUNK, 2 * T._CHUNK + 7])
def test_adamw_blocked_step_matches_reference(size, weight_decay):
    g = np.random.default_rng(size)
    p = Tensor(g.standard_normal(size), requires_grad=True)
    ref_p, ref_m, ref_v = p.data.copy(), np.zeros(size, np.float32), np.zeros(size, np.float32)
    opt = AdamW({"p": p}, lr=0.0, weight_decay=weight_decay)
    for t in range(1, 6):
        grad = (g.standard_normal(size) * 10.0 ** g.integers(-4, 3)).astype(np.float32)
        lr = 1e-3 * t
        _reference_adamw_step(ref_p, grad, ref_m, ref_v, t, lr, weight_decay)
        p.grad, opt.lr = grad, lr
        opt.step()
        assert np.array_equal(p.data, ref_p)
        assert np.array_equal(opt._m["p"], ref_m) and np.array_equal(opt._v["p"], ref_v)


def test_adamw_nan_in_last_block_changes_nothing():
    size = 2 * T._CHUNK + 7
    g = np.random.default_rng(1)
    p = Tensor(g.standard_normal(size), requires_grad=True)
    opt = AdamW({"p": p}, lr=1e-2, weight_decay=0.01)
    p.grad = g.standard_normal(size).astype(np.float32)
    opt.step()
    before = p.data.copy(), opt._m["p"].copy(), opt._v["p"].copy()
    bad = g.standard_normal(size).astype(np.float32)
    bad[-1] = np.nan
    p.grad = bad
    with pytest.raises(ContractError):
        opt.step()
    for now, then in zip((p.data, opt._m["p"], opt._v["p"]), before):
        assert np.array_equal(now, then)


def test_adamw_rejects_non_contiguous_param():
    w = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    w.data = w.data.T
    with pytest.raises(ContractError, match="contiguous"):
        AdamW({"w": w}, lr=0.1, weight_decay=0.0)


def test_matmul_backward_skips_untracked_input():
    g = np.random.default_rng(3)
    x = Tensor(g.standard_normal((5, 4)))
    w = Tensor(g.standard_normal((4, 3)), requires_grad=True)
    upstream = g.standard_normal((5, 3)).astype(np.float32)
    with GradTape() as tape:
        out = T.matmul(x, w)
        loss = T.tsum(T.mul(out, Tensor(upstream)))
        (rec_out, rec_inputs, bwd), = [n for n in tape._nodes if n[0] is out]
        assert rec_inputs == (x, w)
        gx, gw = bwd(upstream)
        assert gx is None and np.array_equal(gw, x.data.T @ upstream)
        tape.backward(loss)
    assert x.grad is None
    assert np.array_equal(w.grad, x.data.T @ upstream)


def test_lr_schedule_shape():
    sched = LrSchedule(base=1.0, warmup_frac=0.1, total_steps=100, floor=0.1)
    assert sched.lr_at(0) == 0.0
    assert sched.lr_at(5) == pytest.approx(0.5)
    assert sched.lr_at(10) == pytest.approx(1.0)
    assert sched.lr_at(100) == pytest.approx(0.1, abs=1e-9)
    mid = sched.lr_at(55)
    assert 0.1 < mid < 1.0
    with pytest.raises(ContractError):
        sched.lr_at(101)
    with pytest.raises(ConfigError):
        LrSchedule(base=0.1, warmup_frac=0.1, total_steps=10, floor=0.2)
    with pytest.raises(ConfigError):
        LrSchedule(base=0.1, warmup_frac=1.0, total_steps=10, floor=0.0)


# ---------------------------------------------------------------------------
# the fit loop


def _fit_problem():
    """A linear body and head fitted for 4 epochs of 3 steps, the first 2 head-only."""
    g = np.random.default_rng(0)
    x = g.standard_normal((10, 3)).astype(np.float32)
    y = np.array([0, 1] * 5)
    body = Tensor(g.standard_normal((3, 4)), requires_grad=True)
    head = {"H": Tensor(g.standard_normal((4, 2)), requires_grad=True)}
    snapshots = [(body.data.copy(), head["H"].data.copy(), body.grad is None)]

    def loss(xb, yb):
        return T.softmax_cross_entropy(T.matmul(T.matmul(Tensor(xb), body), head["H"]), yb)

    log = T.fit({"body": body, **head}, lambda epoch: (x, y), loss, n=10, batch_size=4,
                epochs=4, lr=0.05, weight_decay=0.01, warmup_frac=0.25, head=head,
                head_only_epochs=2,
                after_epoch=lambda epoch: snapshots.append(
                    (body.data.copy(), head["H"].data.copy(), body.grad is None)))
    return log, snapshots


def test_fit_head_only_warmup_freezes_the_rest():
    log, snaps = _fit_problem()
    assert len(log.epoch_loss) == 4 and len(snaps) == 5
    (body0, head0, _), (body1, head1, nograd1), (body2, head2, nograd2), (body3, _, _) = snaps[:4]
    # the body stays bitwise fixed through both warm-up epochs while the head moves
    assert np.array_equal(body1, body0) and np.array_equal(body2, body0)
    assert not np.array_equal(head1, head0) and not np.array_equal(head2, head1)
    # no gradient is computed for the body during the warm-up
    assert nograd1 and nograd2
    # once the warm-up ends, everything trains
    assert not np.array_equal(body3, body0)


def test_fit_restores_tracking_when_the_warmup_raises():
    body = Tensor(np.ones((3, 4)), requires_grad=True)
    head = {"H": Tensor(np.ones((4, 2)), requires_grad=True)}

    def loss(xb):
        raise ContractError("NaN/Inf gradient for parameter 'H'")

    with pytest.raises(ContractError):
        T.fit({"body": body, **head}, lambda epoch: (np.zeros((4, 3)),), loss, n=4,
              batch_size=4, epochs=2, lr=0.05, weight_decay=0.0, warmup_frac=0.0, head=head,
              head_only_epochs=1)
    assert body.requires_grad and body._tracked


def test_fit_lr_steps_follow_one_schedule():
    log, _ = _fit_problem()
    sched = LrSchedule(0.05, 0.25, 12, 0.005)
    assert log.lr_steps == [sched.lr_at(s) for s in range(1, 13)]
    assert log.epoch_lr == log.lr_steps[2::3]
    assert len(log.epoch_wall_ms) == 4


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_l2_normalize_unit_property(seed):
    g = np.random.default_rng(seed)
    v = g.standard_normal(6).astype(np.float32)
    if np.linalg.norm(v) < 1e-3:
        return
    out = T.l2_normalize(Tensor(v))
    assert np.linalg.norm(out.data) == pytest.approx(1.0, abs=1e-5)
