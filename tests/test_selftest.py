import numpy as np
import pytest

from risecure import prng, selftest
from risecure.cli import main
from risecure.galois import SystematicCode
from risecure.selftest import CHECKS, run_selftest

NAMES = [name for name, _, _ in CHECKS]


def _cli_failures(capsys):
    """Run `risecure selftest`, which must exit 1; the names on its FAIL lines."""
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "selftest: FAILED"
    return {line.split()[1] for line in out.splitlines() if line.startswith("FAIL ")}


def test_selftest_passes_clean():
    ok, results = run_selftest()
    assert ok
    assert [name for name, _, _ in results] == NAMES and len(NAMES) == 13
    assert all(passed and detail == "" for _, passed, detail in results)


def test_selftest_is_deterministic():
    assert run_selftest() == run_selftest()


def test_fault_injection_is_detected(corrupted_decoder, capsys):
    ok, results = run_selftest()
    assert not ok
    failed = {name: detail for name, passed, detail in results if not passed}
    # only the routes decode: the ISA program's challenge is a buffer hit
    assert failed == dict.fromkeys(["route-sram-bch", "route-arbiter-rs", "route-xor-bch"],
                                   "ValueError: reconstruct did not return R2")
    assert _cli_failures(capsys) == set(failed)


def test_rekeyed_streams_fail_every_prng_and_route_check(monkeypatch, capsys):
    # what a numpy whose variate algorithms changed would do to every draw
    domain_hash = prng._domain_hash
    monkeypatch.setattr(prng, "_domain_hash", lambda tag, seeds: domain_hash("re-" + tag, seeds))
    ok, results = run_selftest()
    failed = {name: detail for name, passed, detail in results if not passed}
    assert not ok
    assert set(failed) >= {name for name in NAMES if name.startswith(("prng-", "route-"))}
    assert failed["prng-random-raw"].startswith("digest ")
    assert failed["prng-random-raw"].endswith(", want " + CHECKS[0][2])
    assert _cli_failures(capsys) == set(failed)


class _NegatedNormals(np.random.Generator):
    """A Generator whose standard_normal draws differ in sign, as a new algorithm's would."""

    def standard_normal(self, *args, **kwargs):
        return -super().standard_normal(*args, **kwargs)


def test_changed_standard_normal_fails_its_check_by_name(monkeypatch, capsys):
    monkeypatch.setattr(selftest, "stream",
                        lambda *key: _NegatedNormals(prng.stream(*key).bit_generator))
    ok, results = run_selftest()
    assert not ok
    assert [name for name, passed, _ in results if not passed] == ["prng-standard-normal"]
    assert _cli_failures(capsys) == {"prng-standard-normal"}


def test_each_route_decodes_errors_within_t(monkeypatch):
    weights = []  # (symbol errors, t) of each decode
    correct = SystematicCode._correct

    def counting(code, rx):
        msg = correct(code, rx)
        weights.append((int(np.count_nonzero(code.encode(msg) != rx)), code.t))
        return msg

    monkeypatch.setattr(SystematicCode, "_correct", counting)
    assert run_selftest()[0]
    # each route decodes twice (reconstruct, then the hashed output): 4, 10 and 4 errors
    assert [w for w, _ in weights] == [4, 4, 10, 10, 4, 4]
    assert all(0 < w <= t for w, t in weights)


def test_selftest_takes_no_seed(capsys, monkeypatch):
    with pytest.raises(TypeError):
        run_selftest(0)
    monkeypatch.setenv("RISECURE_SEED", "abc")  # not read: the inputs are fixed
    assert main(["selftest"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--seed", "1"])
    assert exc.value.code == 2
