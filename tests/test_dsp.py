import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasep import autodiff as ad
from metasep import dsp
from oracles import assert_fd_close, direct_si_snr, fd_gradient, measured_snr_db

RNG = np.random.default_rng


def make_wave(n, seed=0, scale=0.3):
    return dsp.Waveform(RNG(seed).normal(size=n) * scale)


# ---------------------------------------------------------------------------
# segmentation


def test_segment_nine_seconds_gives_two():
    segs = dsp.segment(make_wave(9 * dsp.SAMPLE_RATE))
    assert len(segs) == 2
    assert all(len(s) == dsp.SEGMENT_SAMPLES for s in segs)


def test_segment_exactly_four_seconds():
    segs = dsp.segment(make_wave(dsp.SEGMENT_SAMPLES))
    assert len(segs) == 1


def test_segment_drops_half_second_tail():
    wav = make_wave(int(12.5 * dsp.SAMPLE_RATE))
    segs = dsp.segment(wav)
    assert len(segs) == 3
    used = np.concatenate([s.samples for s in segs])
    np.testing.assert_array_equal(used, wav.samples[:3 * dsp.SEGMENT_SAMPLES])


def test_segment_rejects_short_utterance():
    with pytest.raises(ValueError):
        dsp.segment(make_wave(dsp.SEGMENT_SAMPLES - 1))


def test_segments_are_consecutive_and_disjoint():
    wav = make_wave(3 * dsp.SEGMENT_SAMPLES + 17)
    segs = dsp.segment(wav)
    for i, s in enumerate(segs):
        np.testing.assert_array_equal(
            s.samples, wav.samples[i * dsp.SEGMENT_SAMPLES:(i + 1) * dsp.SEGMENT_SAMPLES])


# ---------------------------------------------------------------------------
# mixing


def test_mix_equal_power_zero_db():
    rng = RNG(1)
    s1 = dsp.Waveform(rng.normal(size=100))
    raw = rng.normal(size=100)
    s2 = dsp.Waveform(raw / np.linalg.norm(raw) * np.linalg.norm(s1.samples))
    pair = dsp.mix_at_snr(s1, s2, 0.0)
    np.testing.assert_allclose(pair.sources[1].samples, s2.samples, rtol=0, atol=1e-12)
    np.testing.assert_allclose(pair.mixture.samples, s1.samples + s2.samples,
                               rtol=0, atol=1e-12)


def test_mix_double_amplitude_halves_gain():
    s1 = make_wave(64, seed=2)
    s2 = dsp.Waveform(2.0 * s1.samples)
    pair = dsp.mix_at_snr(s1, s2, 0.0)
    np.testing.assert_allclose(pair.sources[1].samples, s1.samples, rtol=0, atol=1e-12)


@pytest.mark.parametrize("snr_db", [0.0, 2.5, 5.0])
def test_mix_snr_roundtrip(snr_db):
    rng = RNG(3)
    pair = dsp.mix_at_snr(dsp.Waveform(rng.normal(size=500)),
                          dsp.Waveform(rng.normal(size=500)), snr_db)
    got = measured_snr_db(pair.sources[0], pair.sources[1])
    assert abs(got - snr_db) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.0, max_value=5.0), st.integers(min_value=0, max_value=2 ** 31))
def test_mix_snr_roundtrip_property(snr_db, seed):
    rng = RNG(seed)
    pair = dsp.mix_at_snr(dsp.Waveform(rng.normal(size=200)),
                          dsp.Waveform(rng.normal(size=200)), snr_db)
    assert abs(measured_snr_db(pair.sources[0], pair.sources[1]) - snr_db) <= 1e-9
    np.testing.assert_allclose(
        pair.mixture.samples, pair.sources[0].samples + pair.sources[1].samples,
        rtol=0, atol=1e-12)


def test_mix_rejects_zero_energy():
    with pytest.raises(dsp.ZeroSignalError):
        dsp.mix_at_snr(dsp.Waveform(np.zeros(10)), make_wave(10), 0.0)


def test_mix_rejects_length_mismatch():
    with pytest.raises(ValueError):
        dsp.mix_at_snr(make_wave(10), make_wave(12), 0.0)


# ---------------------------------------------------------------------------
# noise


@pytest.mark.parametrize("noise_snr_db", [math.inf, -math.inf, math.nan])
def test_noise_snr_must_be_finite(noise_snr_db):
    pair = dsp.mix_at_snr(make_wave(100, 4), make_wave(100, 5), 3.0)
    with pytest.raises(ValueError, match="finite"):
        dsp.add_noise(pair, noise_snr_db, seed=1)


def test_noise_snr_recomputed():
    pair = dsp.mix_at_snr(make_wave(400, 4), make_wave(400, 5), 3.0)
    noisy = dsp.add_noise(pair, 20.0, seed=7)
    noise = noisy.mixture.samples - pair.mixture.samples
    assert abs(measured_snr_db(pair.mixture, noise) - 20.0) <= 1e-9
    # sources untouched
    np.testing.assert_array_equal(noisy.sources[0].samples, pair.sources[0].samples)


def test_noise_deterministic_per_seed():
    pair = dsp.mix_at_snr(make_wave(100, 4), make_wave(100, 5), 3.0)
    a = dsp.add_noise(pair, 15.0, seed=3)
    b = dsp.add_noise(pair, 15.0, seed=3)
    assert np.array_equal(a.mixture.samples, b.mixture.samples)
    c = dsp.add_noise(pair, 15.0, seed=4)
    assert not np.array_equal(a.mixture.samples, c.mixture.samples)


# ---------------------------------------------------------------------------
# Si-SNR


def test_si_snr_unit_example():
    assert dsp.si_snr([1.0, 0, 0, 0], [1.0, 1.0, 0, 0]) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("c", [-2.0, 0.5, 10.0])
def test_si_snr_scale_invariance(c):
    rng = RNG(8)
    s = rng.normal(size=300)
    s_hat = rng.normal(size=300)
    assert abs(dsp.si_snr(s, c * s_hat) - dsp.si_snr(s, s_hat)) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31),
       st.floats(min_value=-8.0, max_value=8.0).filter(lambda c: abs(c) > 1e-3))
def test_si_snr_scale_invariance_property(seed, c):
    rng = RNG(seed)
    s = rng.normal(size=64)
    s_hat = rng.normal(size=64)
    assert abs(dsp.si_snr(s, c * s_hat) - dsp.si_snr(s, s_hat)) <= 1e-9


def test_si_snr_orthogonal_error_closed_form_exact():
    rng = RNG(9)
    s = rng.normal(size=128)
    e = rng.normal(size=128)
    e -= (np.dot(e, s) / np.dot(s, s)) * s  # make e exactly orthogonal-ish
    e -= (np.dot(e, s) / np.dot(s, s)) * s  # second pass kills rounding residue
    got = dsp.si_snr(s, s + e)
    want = 10.0 * np.log10(np.dot(s, s) / np.dot(e, e))
    assert got == pytest.approx(want, abs=1e-9)


def test_si_snr_matches_direct_formula():
    rng = RNG(10)
    for _ in range(20):
        s = rng.normal(size=100)
        s_hat = rng.normal(size=100)
        assert dsp.si_snr(s, s_hat) == pytest.approx(direct_si_snr(s, s_hat), abs=1e-12)


def test_si_snr_perfect_reconstruction_is_capped():
    s = RNG(11).normal(size=50)
    val = dsp.si_snr(s, s)
    assert np.isfinite(val)
    assert val == pytest.approx(10.0 * np.log10(np.dot(s, s) / dsp.SI_SNR_EPS))


def test_si_snr_rejects_zero_reference():
    with pytest.raises(dsp.ZeroSignalError):
        dsp.si_snr(np.zeros(10), np.ones(10))


def test_si_snr_graph_matches_plain_and_is_differentiable():
    rng = RNG(12)
    s = rng.normal(size=60)
    est0 = rng.normal(size=60)
    est = ad.tensor(est0, requires_grad=True)
    out = dsp.si_snr_graph(s, est)
    assert out.item() == pytest.approx(dsp.si_snr(s, est0), abs=1e-12)
    (g,) = ad.grad(out, [est])
    num = fd_gradient(lambda v: dsp.si_snr(s, v), est0)
    assert_fd_close(g.data, num, rtol=1e-5, label="si_snr_graph")


# ---------------------------------------------------------------------------
# Si-SNR improvement


def test_si_snri_zero_for_mixture_as_estimate():
    pair = dsp.mix_at_snr(make_wave(200, 13), make_wave(200, 14), 2.0)
    got = dsp.si_snr_gain(pair, [dsp.si_snr(s, pair.mixture) for s in pair.sources])
    assert got == 0.0


def test_si_snri_large_for_perfect_estimates():
    pair = dsp.mix_at_snr(make_wave(200, 15), make_wave(200, 16), 2.0)
    got = dsp.si_snr_gain(pair, [dsp.si_snr(s, s) for s in pair.sources])
    assert got > 50.0


def test_si_snri_matches_direct_recomputation():
    rng = RNG(17)
    pair = dsp.mix_at_snr(dsp.Waveform(rng.normal(size=150)),
                          dsp.Waveform(rng.normal(size=150)), 1.0)
    ests = (rng.normal(size=150), rng.normal(size=150))
    want = np.mean([
        direct_si_snr(pair.sources[c].samples, ests[c])
        - direct_si_snr(pair.sources[c].samples, pair.mixture.samples)
        for c in range(2)])
    got = dsp.si_snr_gain(pair, [dsp.si_snr(pair.sources[c], ests[c]) for c in range(2)])
    assert got == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# file formats


def test_wav_roundtrip(tmp_path):
    wav = make_wave(1000, seed=18, scale=0.2)
    path = tmp_path / "a.wav"
    dsp.write_wav(path, wav)
    back = dsp.read_wav(path)
    assert np.max(np.abs(back.samples - wav.samples)) <= 1.0 / 32768.0
    assert np.all(back.samples >= -1.0) and np.all(back.samples < 1.0)


def test_wav_write_failing_midway_keeps_the_previous_file(tmp_path, monkeypatch):
    """A write that fails after half its frames leaves the file that was
    there as it was, and no temporary file beside it."""
    path = tmp_path / "a.wav"
    dsp.write_wav(path, make_wave(1000, seed=21, scale=0.2))
    before = path.read_bytes()

    def half_then_fail(self, data):
        self.writeframesraw(data[:len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(dsp.wave.Wave_write, "writeframes", half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        dsp.write_wav(path, make_wave(600, seed=22, scale=0.2))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.wav"]


def test_wav_read_rejects_wrong_rate(tmp_path):
    import wave as wave_mod
    path = tmp_path / "bad.wav"
    with wave_mod.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(16000)
        f.writeframes(b"\x00\x00" * 100)
    with pytest.raises(ValueError, match="8000"):
        dsp.read_wav(path)


def test_raw_roundtrip_lossless(tmp_path):
    wav = make_wave(777, seed=19)
    path = tmp_path / "a.f64"
    dsp.write_raw(path, wav)
    back = dsp.read_raw(path)
    assert np.array_equal(back.samples, wav.samples)


def test_raw_rejects_truncation(tmp_path):
    wav = make_wave(100, seed=20)
    path = tmp_path / "a.f64"
    dsp.write_raw(path, wav)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: header promises 100 "
                                         "samples \\(808 bytes\\), file has 800 bytes"):
        dsp.read_raw(path)


@pytest.mark.parametrize("cut,message", [
    (lambda data: b"", "0 bytes, too short for the sample count"),
    (lambda data: data[:5], "5 bytes, too short for the sample count"),
    (lambda data: data + b"\0" * 8, "header promises 100 samples \\(808 bytes\\), "
                                    "file has 816 bytes"),
], ids=["empty", "header-cut", "trailing-bytes"])
def test_raw_rejects_a_length_its_header_does_not_promise(tmp_path, cut, message):
    path = tmp_path / "a.f64"
    dsp.write_raw(path, make_wave(100, seed=20))
    path.write_bytes(cut(path.read_bytes()))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: {message}"):
        dsp.read_raw(path)
