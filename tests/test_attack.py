import numpy as np
import pytest

from risecure.attack import (MODES, CrpDataset, evaluate, generate_crps,
                             read_csv, run_attack, train_logreg, write_csv)
from risecure.extractor import get_code
from risecure.puf import ArbiterPuf


def _arbiter(seed=0):
    return ArbiterPuf(seed, stages=64, sigma=0.0)


def test_generate_crps_raw_mode_labels_are_true_responses():
    puf = _arbiter(1)
    data = generate_crps(puf, "raw_arbiter", 500, seed=0)
    assert data.challenges.shape == (500, 64)
    assert np.array_equal(data.responses, puf.eval_bits(data.challenges, None))
    again = generate_crps(puf, "raw_arbiter", 500, seed=0)
    assert np.array_equal(data.challenges, again.challenges)
    other = generate_crps(puf, "raw_arbiter", 500, seed=1)
    assert not np.array_equal(data.challenges, other.challenges)


def test_generate_crps_validation():
    puf = _arbiter(2)
    with pytest.raises(ValueError):
        generate_crps(puf, "raw_arbiter", 50, seed=0)
    with pytest.raises(ValueError):
        generate_crps(puf, "sidechannel", 500, seed=0)
    with pytest.raises(ValueError):
        generate_crps(puf, "hashed_bit", 500, seed=0)  # code missing


def test_hashed_mode_labels_are_roughly_balanced():
    data = generate_crps(_arbiter(3), "hashed_bit", 1000, seed=0, code=get_code("bch"))
    assert data.challenges.shape == (1000, 128)
    assert 0.4 < data.responses.mean() < 0.6


def test_training_loss_never_increases():
    puf = _arbiter(4)
    for mode, code in (("raw_arbiter", None), ("hashed_bit", get_code("bch"))):
        data = generate_crps(puf, mode, 1000, seed=0, code=code)
        model = train_logreg(data, epochs=120, seed=0)
        losses = np.array(model.loss_history)
        assert len(losses) == 120
        assert np.all(np.diff(losses) <= 1e-12)


def test_training_input_validation():
    data = generate_crps(_arbiter(5), "raw_arbiter", 150, seed=0)
    with pytest.raises(ValueError):
        train_logreg(data)
    flat = CrpDataset(np.zeros((300, 64), dtype=np.uint8),
                      np.zeros(300, dtype=np.uint8), "raw_arbiter")
    with pytest.raises(ValueError):
        train_logreg(flat)


def test_raw_mode_is_learnable_and_hashed_mode_is_not():
    # scaled-down run; the full-size figures live in the acceptance suite
    puf = _arbiter(6)
    raw = generate_crps(puf, "raw_arbiter", 2500, seed=0)
    raw_train = CrpDataset(raw.challenges[:2000], raw.responses[:2000], raw.mode)
    raw_test = CrpDataset(raw.challenges[2000:], raw.responses[2000:], raw.mode)
    model = train_logreg(raw_train, epochs=200, seed=0)
    assert evaluate(model, raw_test) >= 0.90

    hashed = generate_crps(puf, "hashed_bit", 2500, seed=0, code=get_code("bch"))
    h_train = CrpDataset(hashed.challenges[:2000], hashed.responses[:2000], hashed.mode)
    h_test = CrpDataset(hashed.challenges[2000:], hashed.responses[2000:], hashed.mode)
    h_model = train_logreg(h_train, epochs=200, seed=0)
    assert 0.38 <= evaluate(h_model, h_test) <= 0.62


def test_evaluate_rejects_mismatched_model_and_data():
    raw = generate_crps(_arbiter(7), "raw_arbiter", 500, seed=0)
    hashed = generate_crps(_arbiter(7), "hashed_bit", 500, seed=0, code=get_code("bch"))
    model = train_logreg(raw, epochs=20, seed=0)
    with pytest.raises(ValueError):
        evaluate(model, hashed)
    short = CrpDataset(raw.challenges[:, :32], raw.responses, "raw_arbiter")
    with pytest.raises(ValueError):
        evaluate(model, short)


def test_csv_roundtrip(tmp_path):
    data = generate_crps(_arbiter(8), "raw_arbiter", 300, seed=0)
    path = tmp_path / "crps.csv"
    write_csv(data, path)
    back = read_csv(path, "raw_arbiter", 64)
    assert np.array_equal(back.challenges, data.challenges)
    assert np.array_equal(back.responses, data.responses)
    path.write_text("challenge_hex,response_bit\n")
    assert read_csv(path, "raw_arbiter", 64).challenges.shape == (0, 64)


_HEADER = "challenge_hex,response_bit\n"
_ROW = "00112233445566ff,1\n"


@pytest.mark.parametrize("text,mode,line,width", [
    ("challenge,bit\nff,1\n", "raw_arbiter", 1, 64),
    ("", "raw_arbiter", 1, 64),
    (_HEADER + _ROW + "00112233445566ff,2\n", "raw_arbiter", 3, 64),
    (_HEADER + "00112233445566ff,-1\n", "raw_arbiter", 2, 64),
    (_HEADER + _ROW + _ROW + "0011223344556677ff,0\n", "raw_arbiter", 4, 64),
    (_HEADER + "0011,0\n", "raw_arbiter", 2, 64),
    (_HEADER + "zz112233445566ff,0\n", "raw_arbiter", 2, 64),
    (_HEADER + _ROW + "00112233445566ff\n", "raw_arbiter", 3, 64),
    (_HEADER + _ROW, "raw", 0, 64),
    # at width 60 the last byte's low 4 bits are padding; 0x...f0 is the widest legal row
    (_HEADER + "fffffffffffffff0,1\n" + "ffffffffffffffff,1\n", "raw_arbiter", 3, 60),
], ids=["bad-header", "empty", "bit-2", "bit-minus-1", "long-challenge", "short-challenge",
        "not-hex", "one-field", "unknown-mode", "nonzero-padding-bits"])
def test_read_csv_rejects_a_malformed_file_naming_the_line(tmp_path, text, mode, line, width):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    with pytest.raises(ValueError, match=f"^line {line}: " if line else "^mode must be"):
        read_csv(bad, mode, width)


def test_run_attack_report_shape_and_determinism():
    kw = dict(seed=3, train_count=1500, test_count=500, epochs=100)
    a = run_attack(**kw)
    b = run_attack(**kw)
    for mode in MODES:
        assert a[mode]["test_accuracy"] == b[mode]["test_accuracy"]
        assert 0.0 <= a[mode]["test_accuracy"] <= 1.0
    assert a["accuracy_gap"] == pytest.approx(
        a["raw_arbiter"]["test_accuracy"] - a["hashed_bit"]["test_accuracy"])


# counts and seeds take integers only; each of these raised a bare TypeError
# or stood in for the integer it truncates to
@pytest.mark.parametrize("call,name", [
    (lambda: train_logreg(generate_crps(_arbiter(5), "raw_arbiter", 300, seed=0), epochs=2.5),
     "epochs"),
    (lambda: run_attack(train_count=200.5, test_count=100, epochs=1), "train_count"),
    (lambda: run_attack(train_count=200, test_count="100", epochs=1), "test_count"),
    (lambda: generate_crps(_arbiter(5), "raw_arbiter", 100.5, seed=0), "count"),
    (lambda: run_attack(seed=1.5, train_count=200, test_count=100, epochs=1), "seed"),
    (lambda: generate_crps(_arbiter(5), "raw_arbiter", 200, seed=1.5), "seed"),
], ids=["epochs-float", "train-count-float", "test-count-str", "crp-count-float",
        "attack-seed-float", "crp-seed-float"])
def test_non_integer_counts_and_seeds_raise_value_error_naming_them(call, name):
    with pytest.raises(ValueError, match=name):
        call()


@pytest.mark.parametrize("rate", ["1", None, True, pytest.param(np.bool_(True), id="numpy-True"),
                                  0, -0.5, float("inf"), float("nan")])
def test_learning_rate_must_be_a_finite_positive_real(rate):
    data = generate_crps(_arbiter(5), "raw_arbiter", 300, seed=0)
    with pytest.raises(ValueError, match="learning_rate"):
        train_logreg(data, epochs=1, learning_rate=rate)


def test_numpy_learning_rate_trains_like_the_float():
    data = generate_crps(_arbiter(5), "raw_arbiter", 300, seed=0)
    a = train_logreg(data, epochs=5, learning_rate=np.float32(0.5), seed=1)
    b = train_logreg(data, epochs=5, learning_rate=0.5, seed=1)
    assert np.array_equal(a.weights, b.weights)
