"""Loss definitions, analytic gradients, and the toy training loop."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmsink import engine, losses
from mmsink import seqmodel as sq
from mmsink.errors import StateError, TrainingDiverged
from mmsink.losses import (
    combined_loss,
    image_regression_loss,
    sample_loss,
    sample_loss_and_grads,
    text_ce_loss,
    train_toy,
)
from mmsink.oracle import fd_gradient, relative_error


class TestTextCeLoss:
    def test_uniform_logits_equal_log_vocab(self):
        logits = np.zeros((1, 8))
        assert text_ce_loss(logits, [0]) == pytest.approx(math.log(8), abs=1e-9)

    def test_huge_margin_drives_loss_to_zero(self):
        logits = np.zeros((1, 8))
        logits[0, 3] = 30.0
        assert text_ce_loss(logits, [3]) < 1e-9

    def test_mean_of_two_positions(self):
        la = np.zeros((1, 4))
        lb = np.array([[2.0, 0.0, 0.0, 0.0]])
        a = text_ce_loss(la, [0])
        b = text_ce_loss(lb, [0])
        both = text_ce_loss(np.vstack([la, lb]), [0, 0])
        assert both == pytest.approx((a + b) / 2, abs=1e-12)

    def test_empty_mask_is_error(self):
        with pytest.raises(ValueError):
            text_ce_loss(np.zeros((0, 4)), [])

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            text_ce_loss(np.zeros((1, 4)), [4])

    @given(st.floats(-50, 50), st.integers(0, 5))
    @settings(max_examples=30)
    def test_shift_invariance(self, shift, target):
        rng = np.random.default_rng(target)
        logits = rng.standard_normal((1, 6))
        base = text_ce_loss(logits, [target])
        shifted = text_ce_loss(logits + shift, [target])
        assert shifted == pytest.approx(base, abs=1e-9)


class TestImageRegressionLoss:
    def test_identical_vectors_zero(self):
        x = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 2.0]])
        assert image_regression_loss(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_one(self):
        pred = np.array([[1.0, 0.0]])
        target = np.array([[0.0, 1.0]])
        assert image_regression_loss(pred, target) == 1.0

    def test_antiparallel_two_exact_on_constructed_vectors(self):
        x = np.array([[3.0, 0.0], [0.0, 0.5]])
        assert image_regression_loss(x, -x) == 2.0

    def test_antiparallel_close_to_two_generally(self):
        x = np.array([[1.0, 2.0]])
        assert image_regression_loss(x, -x) == pytest.approx(2.0, abs=1e-12)

    def test_zero_norm_pred_row_contributes_one(self):
        pred = np.array([[0.0, 0.0], [1.0, 0.0]])
        target = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert image_regression_loss(pred, target) == pytest.approx(0.5)

    def test_zero_norm_target_is_error(self):
        with pytest.raises(ValueError):
            image_regression_loss(np.ones((1, 2)), np.zeros((1, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            image_regression_loss(np.ones((1, 2)), np.ones((2, 2)))

    @given(st.floats(0.01, 100), st.floats(0.01, 100), st.integers(0, 99))
    @settings(max_examples=40)
    def test_scale_invariance(self, a, b, seed):
        rng = np.random.default_rng(seed)
        pred = rng.standard_normal((3, 4)) + 0.1
        target = rng.standard_normal((3, 4)) + 0.1
        base = image_regression_loss(pred, target)
        scaled = image_regression_loss(pred * a, target * b)
        assert scaled == pytest.approx(base, abs=1e-9)


class TestCombinedLoss:
    def test_arithmetic(self):
        assert combined_loss(2.0, 0.5, 1.0) == 2.5

    def test_lambda_zero(self):
        assert combined_loss(3.0, 0.9, 0.0) == 3.0

    def test_zero_image_term(self):
        for lam in (0.0, 0.5, 4.0):
            assert combined_loss(1.5, 0.0, lam) == 1.5

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            combined_loss(1.0, 1.0, -0.1)


@pytest.fixture(scope="module")
def tiny_model(tiny_config):
    return engine.Model.init(tiny_config)


@pytest.fixture(scope="module")
def tiny_sample(tiny_config):
    story = sq.synth_stories(1, items_per_story=2, rng_seed=11,
                             d_feat=tiny_config.d_feat)[0]
    return sq.assemble_training_sequence(
        story, 2, m=tiny_config.m, v_text=tiny_config.v_text
    )


class TestGradients:
    def test_spot_check_against_finite_differences(self, tiny_model, tiny_sample):
        # the full every-group check runs in the acceptance suite
        report, grads = sample_loss_and_grads(tiny_model, tiny_sample, lam=1.0)
        assert math.isfinite(report.combined)
        subset = {k: tiny_model.p[k] for k in ("queries", "l0.wv", "w_feat", "lnf_g")}

        def loss_fn():
            return sample_loss(tiny_model, tiny_sample, lam=1.0).combined

        fd = fd_gradient(loss_fn, subset, eps=1e-6)
        for name, fd_grad in fd.items():
            assert relative_error(grads[name], fd_grad) < 1e-4, name

    def test_two_masked_blocks_accumulate_through_shared_keys(self):
        # two query branches feed gradient back into the same layer K/V
        cfg = engine.ModelConfig(layers=2, heads=2, d_model=8, d_ff=16, v_text=12,
                                 m=3, q_queries=2, d_feat=4, max_positions=64, seed=9)
        model = engine.Model.init(cfg)
        block = [sq.Token.boi(), sq.Token.img(0), sq.Token.img(1), sq.Token.img(2),
                 sq.Token.eoi()]
        tokens = [sq.Token.bos(), sq.Token.word(3)] + block + \
            [sq.Token.word(5), sq.Token.punct(1)] + block + [sq.Token.eos()]
        seqn = sq.MultimodalSequence.from_tokens(tokens, 3)
        mask = [False, False] + [True] * 5 + [False, True] + [True] * 5 + [True]
        sample = sq.TrainingSample(
            seqn, tuple(mask),
            ((1.0, 0.0, 0.5, 0.0), (0.0, 1.0, 0.0, 0.3)),
        )
        assert len(sample.masked_blocks()) == 2
        report, grads = sample_loss_and_grads(model, sample, lam=0.8)
        assert report.n_image_blocks == 2

        def loss_fn():
            return sample_loss(model, sample, lam=0.8).combined

        fd = fd_gradient(loss_fn, model.p, eps=1e-6)
        for name in engine.param_names(cfg):
            assert relative_error(grads[name], fd[name]) < 1e-4, name

    def test_lambda_scales_image_gradient_only(self, tiny_model, tiny_sample):
        _, g0 = sample_loss_and_grads(tiny_model, tiny_sample, lam=0.0)
        _, g1 = sample_loss_and_grads(tiny_model, tiny_sample, lam=1.0)
        # w_feat only receives gradient through the image branch
        assert np.all(g0["w_feat"] == 0.0)
        assert np.any(g1["w_feat"] != 0.0)

    def test_report_matches_components(self, tiny_model, tiny_sample):
        for lam in (0.0, 0.7, 1.0):
            report = sample_loss(tiny_model, tiny_sample, lam=lam)
            assert report.combined == pytest.approx(report.ce + lam * report.img, abs=1e-12)
            assert 0.0 <= report.img <= 2.0
            assert report.ce >= 0.0
            assert report.n_image_blocks == 1


class TestLossMasking:
    def test_mask_only_on_final_item(self, tiny_config):
        story = sq.synth_stories(1, items_per_story=4, rng_seed=2,
                                 d_feat=tiny_config.d_feat)[0]
        sample = sq.assemble_training_sequence(
            story, 3, m=tiny_config.m, v_text=tiny_config.v_text
        )
        toks = sample.sequence.tokens
        item3 = sq.item_tokens(story.items[2], tiny_config.m, tiny_config.v_text)
        start = len(toks) - len(item3) - 1
        assert all(not m for m in sample.loss_mask[:start])
        assert all(sample.loss_mask[start:])

    def test_zeroing_unmasked_logits_changes_nothing(self, tiny_model, tiny_sample):
        cfg = tiny_model.config
        ids = np.array([
            sq.vocab_id(t, cfg.m, cfg.v_text) for t in tiny_sample.sequence.tokens
        ])
        logits = losses._main_forward(tiny_model, ids)[0]
        mpos = np.nonzero(np.array(tiny_sample.loss_mask))[0]
        baseline = text_ce_loss(logits[mpos - 1], ids[mpos])
        zeroed = np.zeros_like(logits)
        zeroed[mpos - 1] = logits[mpos - 1]
        assert text_ce_loss(zeroed[mpos - 1], ids[mpos]) == baseline


class TestPositionTable:
    def test_sample_past_the_table_fails_before_any_layer(self, tiny_config, tiny_sample,
                                                          monkeypatch):
        T = len(tiny_sample.sequence.tokens)
        fits = engine.Model.init(dataclasses.replace(tiny_config, max_positions=T))
        assert math.isfinite(sample_loss(fits, tiny_sample).combined)
        short = engine.Model.init(dataclasses.replace(tiny_config, max_positions=T - 1))
        monkeypatch.setattr(engine, "block", None)  # any layer would fail
        with pytest.raises(StateError, match="exceeds the position table"):
            sample_loss(short, tiny_sample)


@pytest.fixture(scope="module")
def setup(tiny_config):
    model = engine.Model.init(tiny_config)
    stories = sq.synth_stories(4, items_per_story=2, rng_seed=1,
                               d_feat=tiny_config.d_feat)
    samples = losses.build_samples(
        stories, 0, m=tiny_config.m, v_text=tiny_config.v_text
    )
    return model, samples


class TestTrainToy:

    def test_zero_learning_rate_keeps_weights(self, setup):
        model, samples = setup
        result = train_toy(model, samples, steps=3, lr=0.0, seed=0)
        for name in engine.param_names(model.config):
            np.testing.assert_array_equal(result.model.p[name], model.p[name])

    def test_deterministic_curve(self, setup):
        model, samples = setup
        a = train_toy(model, samples, steps=10, lr=0.2, seed=3)
        b = train_toy(model, samples, steps=10, lr=0.2, seed=3)
        assert a.curve == b.curve
        assert a.eval_final == b.eval_final

    def test_loss_decreases(self, setup):
        model, samples = setup
        result = train_toy(model, samples, steps=60, lr=0.5, seed=0)
        assert result.eval_final < result.eval_initial

    def test_training_does_not_mutate_input_model(self, setup):
        model, samples = setup
        before = {k: v.copy() for k, v in model.p.items()}
        train_toy(model, samples, steps=5, lr=0.5, seed=0)
        for name, arr in before.items():
            np.testing.assert_array_equal(model.p[name], arr)

    def test_divergence_aborts_with_diagnostic(self, setup):
        model, samples = setup
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(TrainingDiverged, match="step"):
                train_toy(model, samples, steps=400, lr=1e6, seed=0)

    def test_rejects_bad_arguments(self, setup):
        model, samples = setup
        with pytest.raises(ValueError):
            train_toy(model, [], steps=1, lr=0.1)
        with pytest.raises(ValueError):
            train_toy(model, samples, steps=0, lr=0.1)
