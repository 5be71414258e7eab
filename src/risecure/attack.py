"""Modeling attack: logistic regression over CRPs, raw mode vs hashed mode.

Raw mode attacks the arbiter PUF directly: challenges map to parity
features, where the true response is a linear threshold function, so a
logistic model recovers it quickly. Hashed mode attacks the composed
output H(R2 || C) through a single response bit; the hash removes every
usable linear structure and the same attacker stays at coin-flip accuracy.
That asymmetry is the module's headline measurement.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .extractor import enroll, get_code
from .hashing import OUTER_CHALLENGE_BITS, compose_response
from .prng import checked_int, derive_seed, is_real, stream
from .puf import ArbiterPuf, parity_features

MODES = ("raw_arbiter", "hashed_bit")


@dataclass
class CrpDataset:
    challenges: np.ndarray  # (N, width) uint8
    responses: np.ndarray  # (N,) uint8
    mode: str

    def __len__(self):
        return len(self.responses)


@dataclass
class LinearModel:
    weights: np.ndarray
    mode: str
    loss_history: list = field(default_factory=list)


def _features(challenges, mode):
    """Design matrix: parity features (raw) or signed bits + bias (hashed)."""
    c = np.asarray(challenges, dtype=np.uint8)
    if mode == "raw_arbiter":
        return parity_features(c)
    signed = 1.0 - 2.0 * c.astype(np.float64)
    return np.concatenate([signed, np.ones((len(c), 1))], axis=1)


def generate_crps(puf, mode, count, seed, code=None):
    """Deterministic CRP dataset of `count` records.

    raw_arbiter: random stage-width challenges with noiseless responses
    (the attacker's best case). hashed_bit: enroll `puf` once under `code`,
    then emit (C, first bit of H(R2 || C)) over random outer challenges.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    count = checked_int(count, "count", 100)  # smaller datasets are not meaningful here
    g = stream("attack-challenges", seed)
    if mode == "raw_arbiter":
        challenges = g.integers(0, 2, (count, puf.stages), dtype=np.uint8)
        responses = puf.eval_bits(challenges, None)
        return CrpDataset(challenges, responses, mode)
    if code is None:
        raise ValueError("hashed_bit mode needs the ECC code of the enrolled system")
    c0 = int(g.integers(0, 1 << 63))
    _, r2 = enroll(puf, c0, code, derive_seed("attack-enroll", seed))
    challenges = g.integers(0, 2, (count, OUTER_CHALLENGE_BITS), dtype=np.uint8)
    responses = np.empty(count, dtype=np.uint8)
    for i in range(count):
        responses[i] = compose_response(r2, challenges[i], code.n_bits)[0]
    return CrpDataset(challenges, responses, mode)


def loss_and_grad(weights, X, y):
    """Mean logistic loss and its gradient (stable via logaddexp)."""
    z = X @ weights
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    p = 1.0 / (1.0 + np.exp(-z))
    grad = X.T @ (p - y) / len(y)
    return loss, grad


def train_logreg(dataset, epochs=400, learning_rate=1.0, seed=0):
    """Full-batch gradient descent on logistic loss; deterministic from seed."""
    epochs = checked_int(epochs, "epochs", 1)
    if not is_real(learning_rate) or not 0 < learning_rate < np.inf:
        raise ValueError(f"learning_rate must be a finite real number > 0, got {learning_rate!r}")
    if len(dataset) < 200:
        raise ValueError("need at least 200 records to train")
    y = dataset.responses.astype(np.float64)
    if y.min() == y.max():
        raise ValueError("degenerate dataset: all labels identical")
    X = _features(dataset.challenges, dataset.mode)
    w = 0.001 * stream("logreg-init", seed).standard_normal(X.shape[1])
    history = []
    for _ in range(epochs):
        loss, grad = loss_and_grad(w, X, y)
        history.append(loss)
        w = w - learning_rate * grad
    return LinearModel(weights=w, mode=dataset.mode, loss_history=history)


def evaluate(model, dataset):
    """Fraction of records whose sign prediction matches the response."""
    if dataset.mode != model.mode:
        raise ValueError(f"model is {model.mode!r} but dataset is {dataset.mode!r}")
    X = _features(dataset.challenges, dataset.mode)
    if X.shape[1] != len(model.weights):
        raise ValueError(f"feature width {X.shape[1]} != weight count {len(model.weights)}")
    pred = (X @ model.weights > 0).astype(np.uint8)
    return float(np.mean(pred == dataset.responses))


def write_csv(dataset, path):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["challenge_hex", "response_bit"])
        for bits, r in zip(dataset.challenges, dataset.responses):
            out.writerow([np.packbits(bits).tobytes().hex(), int(r)])


def read_csv(path, mode, width):
    """Parse write_csv's form into a dataset of `mode` with `width`-bit challenges.

    A file that is not that form raises ValueError naming the line: a missing
    or other header, a row that is not a challenge of ceil(width/8) bytes in
    hex, its padding bits in the last byte zero, and a response bit 0 or 1.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    size = -(-checked_int(width, "width", 1) // 8)
    padding = (1 << (8 * size - width)) - 1  # the low bits of the last byte, past the challenge
    challenges, responses = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["challenge_hex", "response_bit"]:
            raise ValueError(f"line 1: expected the header challenge_hex,response_bit, "
                             f"got {header}")
        for row in reader:
            try:
                hex_str, bit = row
                raw = np.frombuffer(bytes.fromhex(hex_str), dtype=np.uint8)
                if len(raw) != size or raw[-1] & padding or bit not in ("0", "1"):
                    raise ValueError
            except ValueError:
                raise ValueError(f"line {reader.line_num}: expected a challenge of {size} bytes "
                                 f"in hex with zero padding bits and a bit 0 or 1, "
                                 f"got {row}") from None
            challenges.append(np.unpackbits(raw)[:width])
            responses.append(int(bit))
    return CrpDataset(np.array(challenges, dtype=np.uint8).reshape(len(responses), width),
                      np.array(responses, dtype=np.uint8), mode)


def attack_datasets(seed, count, stages):
    """Per-mode datasets of `count` records from one noiseless arbiter; only the hash differs."""
    puf = ArbiterPuf(derive_seed("attack-puf", seed), stages=stages, sigma=0.0)
    return {mode: generate_crps(puf, mode, count, derive_seed("attack-data", seed, i),
                                code=get_code("bch"))
            for i, mode in enumerate(MODES)}


def run_attack(seed=0, train_count=10000, test_count=2000, epochs=400,
               learning_rate=1.0, stages=64):
    """Train and score the attacker in both modes over the BCH code; returns the full report."""
    train_count = checked_int(train_count, "train_count", 1)
    test_count = checked_int(test_count, "test_count", 1)
    report = {}
    datasets = attack_datasets(seed, train_count + test_count, stages)
    for mode, data in datasets.items():
        train = CrpDataset(data.challenges[:train_count], data.responses[:train_count], mode)
        test = CrpDataset(data.challenges[train_count:], data.responses[train_count:], mode)
        model = train_logreg(train, epochs, learning_rate, derive_seed("attack-train", seed))
        report[mode] = {
            "mode": mode,
            "train_count": train_count,
            "test_count": test_count,
            "epochs": epochs,
            "learning_rate": learning_rate,
            "train_accuracy": evaluate(model, train),
            "test_accuracy": evaluate(model, test),
            "final_loss": model.loss_history[-1],
        }
    report["accuracy_gap"] = (report["raw_arbiter"]["test_accuracy"]
                              - report["hashed_bit"]["test_accuracy"])
    return report
