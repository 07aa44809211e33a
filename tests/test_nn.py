"""MLP container, Adam, schedule, and checkpoint round trips."""
import os

import numpy as np
import pytest

from aecnn import autodiff as ad
from aecnn import nn

import reference_ops as ref


def rng(seed=0):
    return np.random.default_rng(seed)


class TestMlp:
    def test_registers_parameters(self):
        store = {}
        mlp = nn.Mlp((3, 8, 5), rng(), store, "probe")
        assert set(store) == {"probe.w0", "probe.b0", "probe.w1", "probe.b1"}
        assert store["probe.w0"].values.shape == (3, 8)
        assert mlp.widths[0] == 3 and mlp.out_width == 5

    def test_forward_matches_manual(self):
        store = {}
        mlp = nn.Mlp((2, 4, 3), rng(1), store, "m")
        x = rng(2).normal(size=(6, 2))
        got = mlp(ad.constant(x)).values
        h = np.maximum(x @ store["m.w0"].values + store["m.b0"].values, 0.0)
        want = h @ store["m.w1"].values + store["m.b1"].values
        assert np.allclose(got, want, atol=1e-15)

    def test_output_layer_has_no_relu(self):
        store = {}
        mlp = nn.Mlp((2, 2), rng(3), store, "m")
        x = -10 * np.ones((4, 2))
        out = mlp(ad.constant(x)).values
        assert (out < 0).any()  # a relu'd output could never be negative

    def test_in_place_relu_gives_relu_bits(self):
        # The same MLP written out with the out-of-place relu: equal output,
        # input gradient and parameter gradients, bit for bit, and the input
        # itself is left as it was.
        store = {}
        mlp = nn.Mlp((5, 7, 6, 3), rng(8), store, "m")
        x0 = rng(9).normal(size=(2, 4, 6, 5))
        x0[0, 0, 0] = 0.0
        runs = []
        for manual in (False, True):
            for p in store.values():
                p.zero_grad()
            x = ad.parameter(x0.copy())
            if manual:
                h = x
                for i, (w, b) in enumerate(mlp.layers):
                    h = ad.linear(h, w, b)
                    if i < len(mlp.layers) - 1:
                        h = ref.relu(h)
                out = h
            else:
                out = mlp(x)
            assert np.array_equal(x.values, x0)
            ad.backward(ref.sum_reduce(ref.mul(out, ad.constant(np.cos(out.values)))))
            runs.append([out.values, x.grad] + [p.grad for p in store.values()])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_rejects_bad_widths(self):
        with pytest.raises(ValueError):
            nn.Mlp((3,), rng(), {}, "m")
        with pytest.raises(ValueError):
            nn.Mlp((3, 0, 2), rng(), {}, "m")

    def test_init_reproducible(self):
        a, b = {}, {}
        nn.Mlp((3, 5, 2), rng(7), a, "m")
        nn.Mlp((3, 5, 2), rng(7), b, "m")
        for k in a:
            assert np.array_equal(a[k].values, b[k].values)


class TestAdam:
    def test_single_step_matches_hand_formula(self):
        p = ad.parameter(np.array([1.0, -2.0]), name="p")
        p.grad = np.array([0.5, -0.25])
        params = {"p": p}
        state = nn.adam_init(params)
        nn.adam_step(params, state, lr=0.1)
        g = np.array([0.5, -0.25])
        m = 0.1 * g
        v = 0.001 * g * g
        mhat = m / (1 - 0.9)
        vhat = v / (1 - 0.999)
        want = np.array([1.0, -2.0]) - 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
        assert np.allclose(p.values, want, atol=1e-15)
        assert state.step == 1

    def test_first_step_is_signed_lr(self):
        # With bias correction, step one moves by ~lr in the -sign(g) direction.
        p = ad.parameter(np.array([0.0]))
        p.grad = np.array([3.7])
        state = nn.adam_init({"p": p})
        nn.adam_step({"p": p}, state, lr=0.01)
        assert p.values[0] == pytest.approx(-0.01, rel=1e-6)

    def test_two_steps_match_reference_loop(self):
        g0 = rng(8)
        p = ad.parameter(g0.normal(size=(3, 2)))
        start = p.values.copy()
        grads = [g0.normal(size=(3, 2)) for _ in range(2)]
        state = nn.adam_init({"p": p})
        for gr in grads:
            p.grad = gr.copy()
            nn.adam_step({"p": p}, state, lr=0.05)
        # Plain-python reference.
        val = start.copy()
        m = np.zeros_like(val)
        v = np.zeros_like(val)
        for t, gr in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * gr
            v = 0.999 * v + 0.001 * gr * gr
            val = val - 0.05 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        assert np.allclose(p.values, val, atol=1e-14)

    def test_zero_grad_leaves_fresh_params_unchanged(self):
        p = ad.parameter(np.array([1.5]))
        state = nn.adam_init({"p": p})
        nn.adam_step({"p": p}, state, lr=0.1)  # grad is None -> zero
        assert np.array_equal(p.values, [1.5])


class TestSchedule:
    def test_paper_scale_boundaries(self):
        lr = lambda e: nn.lr_schedule(e, 1e-3, 0.2, (100, 200))
        assert lr(0) == pytest.approx(1e-3)
        assert lr(99) == pytest.approx(1e-3)
        assert lr(100) == pytest.approx(2e-4)
        assert lr(199) == pytest.approx(2e-4)
        assert lr(200) == pytest.approx(4e-5)
        assert lr(249) == pytest.approx(4e-5)

    def test_desk_scale_boundaries(self):
        lr = lambda e: nn.lr_schedule(e, 1e-3, 0.2, (24, 48))
        assert lr(23) == pytest.approx(1e-3)
        assert lr(24) == pytest.approx(2e-4)
        assert lr(48) == pytest.approx(4e-5)

    def test_rejects_negative_epoch(self):
        with pytest.raises(ValueError):
            nn.lr_schedule(-1, 1e-3, 0.2, (24, 48))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        g = rng(9)
        arrays = {
            "scalar": np.array(3.141592653589793),
            "vec": g.normal(size=5),
            "mat": g.normal(size=(2, 4)),
            "cube": g.normal(size=(2, 3, 4)),
            "weird/name.w0": g.normal(size=(1, 1)),
        }
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, arrays)
        back = nn.load_checkpoint(path)
        assert list(back) == list(arrays)  # order preserved
        for k in arrays:
            assert back[k].shape == np.asarray(arrays[k]).shape
            assert back[k].tobytes() == np.asarray(arrays[k], dtype="<f8").tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTAEC" + b"\x00" * 16)
        with pytest.raises(nn.CheckpointError):
            nn.load_checkpoint(path)

    def test_truncation_reports_position(self, tmp_path):
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3)})
        blob = path.read_bytes()
        for cut in (7, 10, 12, 20, len(blob) - 1):
            short = tmp_path / f"cut{cut}.ckpt"
            short.write_bytes(blob[:cut])
            with pytest.raises(nn.CheckpointError) as err:
                nn.load_checkpoint(short)
            assert "byte" in str(err.value)

    def test_non_finite_array_named(self, tmp_path):
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, {"a": np.ones(2), "b": np.array([1.0, np.nan])})
        with pytest.raises(nn.CheckpointError,
                           match=r"model\.ckpt: array 'b' holds non-finite"):
            nn.load_checkpoint(path)

    def test_name_that_is_not_utf8_named_by_byte(self, tmp_path):
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, {"ab": np.ones(2)})
        blob = path.read_bytes()
        # Magic (6 bytes) and the name length (4) come before the name.
        path.write_bytes(blob[:11] + b"\xff" + blob[12:])
        with pytest.raises(nn.CheckpointError,
                           match=r"model\.ckpt: name is not utf-8 at byte 11"):
            nn.load_checkpoint(path)

    def test_save_load_save_is_stable(self, tmp_path):
        g = rng(10)
        arrays = {"a": g.normal(size=(3, 3)), "b": g.normal(size=2)}
        p1 = tmp_path / "one.ckpt"
        p2 = tmp_path / "two.ckpt"
        nn.save_checkpoint(p1, arrays)
        nn.save_checkpoint(p2, nn.load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        # An empty name is refused before the file is opened.
        g = rng(11)
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, {"a": g.normal(size=3)})
        before = path.read_bytes()
        with pytest.raises(nn.CheckpointError):
            nn.save_checkpoint(path, {"a": g.normal(size=4), "": np.zeros(2)})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_failed_flush_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, {"a": np.ones(3)})
        before = path.read_bytes()

        def fsync_fails(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", fsync_fails)
        with pytest.raises(OSError, match="disk full"):
            nn.save_checkpoint(path, {"a": np.zeros(4)})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_longest_name_and_highest_rank_round_trip(self, tmp_path):
        name = "\u00e9" * 2048  # 4,096 utf-8 bytes
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, {name: np.ones((1,) * 8)})
        assert nn.load_checkpoint(path)[name].shape == (1,) * 8

    @pytest.mark.parametrize("arrays,message", [
        ({"\u00e9" * 2049: np.zeros(2)}, "4098 bytes"),
        ({"deep": np.zeros((1,) * 9)}, "rank 9"),
    ], ids=["long-name", "rank-9"])
    def test_what_the_reader_rejects_is_refused_before_writing(
            self, tmp_path, arrays, message):
        path = tmp_path / "model.ckpt"
        with pytest.raises(nn.CheckpointError, match=message):
            nn.save_checkpoint(path, {"a": np.ones(3), **arrays})
        assert list(tmp_path.iterdir()) == []
