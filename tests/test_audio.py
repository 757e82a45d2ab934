"""WAV I/O, SNR mixing, impulse-response convolution, and noise generation."""

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distilrobust.audio import (
    _DIRECT_MAX_TAPS,
    SAMPLE_RATE_HZ,
    Waveform,
    RoomImpulseResponse,
    _convolve_head,
    _fft_size,
    convolve_rir,
    mix_at_snr,
    read_wav,
    rms,
    white_noise,
    write_wav,
)
from distilrobust.errors import (
    DegenerateSignalError,
    DistilRobustError,
    ParameterError,
    UnsupportedWavError,
    WavFormatError,
)


def build_wav(body, audio_format=1, channels=1, rate=16000, bits=16,
              declared_data=None):
    """Assemble raw RIFF bytes so malformed cases are easy to produce."""
    declared = len(body) if declared_data is None else declared_data
    fmt = struct.pack("<IHHIIHH", 16, audio_format, channels, rate,
                      rate * channels * bits // 8, channels * bits // 8, bits)
    chunks = b"fmt " + fmt + b"data" + struct.pack("<I", declared) + body
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def write_bytes(path, blob):
    with open(path, "wb") as fh:
        fh.write(blob)
    return str(path)


class TestReadWav:
    def test_pcm16_scaling(self, tmp_path):
        body = struct.pack("<3h", 0, 16384, -32768)
        path = write_bytes(tmp_path / "a.wav", build_wav(body))
        w = read_wav(path)
        np.testing.assert_array_equal(w.samples, [0.0, 0.5, -1.0])

    def test_float32_passthrough(self, tmp_path):
        body = struct.pack("<3f", 0.25, -0.75, 1.0)
        path = write_bytes(tmp_path / "f.wav", build_wav(body, audio_format=3, bits=32))
        w = read_wav(path)
        np.testing.assert_allclose(w.samples, [0.25, -0.75, 1.0], atol=0)

    def test_stereo_averages_to_mono(self, tmp_path):
        # frames: (1.0, 0.0) and (-0.5, 0.5) -> means 0.5 and 0.0
        body = struct.pack("<4f", 1.0, 0.0, -0.5, 0.5)
        path = write_bytes(tmp_path / "s.wav", build_wav(body, audio_format=3,
                                                         channels=2, bits=32))
        w = read_wav(path)
        np.testing.assert_array_equal(w.samples, [0.5, 0.0])

    def test_not_riff(self, tmp_path):
        path = write_bytes(tmp_path / "x.wav", b"OggS" + b"\x00" * 40)
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_truncated_data_chunk(self, tmp_path):
        body = struct.pack("<2h", 5, 6)
        blob = build_wav(body, declared_data=8)  # declares 8 bytes, provides 4
        path = write_bytes(tmp_path / "t.wav", blob)
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_every_proper_prefix_is_a_format_error(self, tmp_path):
        blob = build_wav(struct.pack("<3h", 1, 2, 3))
        for n in range(len(blob)):
            path = write_bytes(tmp_path / f"cut{n}.wav", blob[:n])
            with pytest.raises(WavFormatError):
                read_wav(path)

    def test_data_ends_mid_sample(self, tmp_path):
        blob = build_wav(b"\x01\x02\x03")  # 3 bytes cannot hold int16 frames
        path = write_bytes(tmp_path / "m.wav", blob)
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_unsupported_codec(self, tmp_path):
        blob = build_wav(struct.pack("<2h", 1, 2), audio_format=6)  # A-law
        path = write_bytes(tmp_path / "u.wav", blob)
        with pytest.raises(UnsupportedWavError):
            read_wav(path)

    def test_unsupported_bit_depth(self, tmp_path):
        blob = build_wav(b"\x00" * 6, bits=24)
        path = write_bytes(tmp_path / "d.wav", blob)
        with pytest.raises(UnsupportedWavError):
            read_wav(path)

    @pytest.mark.parametrize("rate", [8000, 22050, 44100, 48000])
    def test_other_rates_unsupported(self, tmp_path, rate):
        path = write_bytes(tmp_path / "r.wav", build_wav(struct.pack("<2h", 1, 2), rate=rate))
        with pytest.raises(UnsupportedWavError,
                           match=rf"r\.wav: {rate} Hz not supported \(16000 only\)$"):
            read_wav(path)

    @pytest.mark.parametrize("blob", [
        build_wav(struct.pack("<3f", 0.25, math.nan, 1.0), audio_format=3, bits=32),
        build_wav(struct.pack("<2h", 1, 2), rate=0),
    ], ids=["nan_sample", "zero_rate"])
    def test_invalid_decoded_audio_names_file(self, tmp_path, blob):
        path = write_bytes(tmp_path / "bad.wav", blob)
        with pytest.raises(WavFormatError, match="bad.wav"):
            read_wav(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_wav(tmp_path / "absent.wav")


class TestWriteWav:
    def test_header_fields(self, tmp_path):
        path = tmp_path / "w.wav"
        write_wav(Waveform(np.zeros(5)), path)
        blob = path.read_bytes()
        assert blob[:4] == b"RIFF" and blob[8:12] == b"WAVE"
        fmt = struct.unpack_from("<IHHIIHH", blob, 16)
        assert fmt == (16, 1, 1, 16000, 32000, 2, 16)
        assert blob[36:40] == b"data"
        (size,) = struct.unpack_from("<I", blob, 40)
        assert size == 10

    def test_round_trip_quantization_error(self, tmp_path):
        rng = np.random.default_rng(0)
        w = Waveform(rng.uniform(-0.9, 0.9, 400))
        path = tmp_path / "r.wav"
        write_wav(w, path)
        back = read_wav(path)
        assert np.max(np.abs(back.samples - w.samples)) <= 0.5 / 32768 + 1e-12

    def test_clamping_out_of_range(self, tmp_path):
        path = tmp_path / "c.wav"
        write_wav(Waveform(np.array([1.5, -2.0])), path)
        back = read_wav(path)
        np.testing.assert_array_equal(back.samples, [32767 / 32768, -1.0])

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
                           min_size=1, max_size=64))
    def test_round_trip_property(self, values, tmp_path_factory):
        path = tmp_path_factory.mktemp("wavs") / "p.wav"
        w = Waveform(np.array(values))
        write_wav(w, path)
        back = read_wav(path)
        assert len(back) == len(w)
        assert np.max(np.abs(back.samples - np.clip(w.samples, -1, 32767 / 32768))) <= 1.0 / 32768


class TestWaveform:
    def test_rejects_nonfinite(self):
        with pytest.raises(DistilRobustError):
            Waveform(np.array([0.0, np.nan]))

    def test_rejects_empty(self):
        with pytest.raises(DistilRobustError):
            Waveform(np.zeros(0))

    def test_rir_zero_taps_rejected(self):
        with pytest.raises(DistilRobustError):
            RoomImpulseResponse(np.zeros(4))


class TestRms:
    def test_constant(self):
        assert rms(Waveform(np.full(100, 0.5))) == pytest.approx(0.5, abs=0)

    def test_alternating_unit(self):
        assert rms(Waveform(np.array([1.0, -1.0, 1.0, -1.0]))) == 1.0


def measured_snr_db(clean, mixed):
    """Recover the SNR from the two addends of a mixture."""
    noise_part = mixed.samples - clean.samples
    return 20.0 * math.log10(rms(clean) / float(np.sqrt(np.mean(noise_part ** 2))))


class TestMixAtSnr:
    def test_zero_db_equal_power(self):
        rng = np.random.default_rng(1)
        clean = Waveform(0.1 * rng.standard_normal(4000))
        noise = Waveform(0.4 * rng.standard_normal(4000))
        mixed = mix_at_snr(clean, noise, 0.0, seed=3)
        assert measured_snr_db(clean, mixed) == pytest.approx(0.0, abs=1e-9)

    def test_requested_snr_hit_exactly(self):
        rng = np.random.default_rng(2)
        clean = Waveform(rng.standard_normal(3000) * 0.2)
        noise = Waveform(rng.standard_normal(3000))
        for snr in (-5.0, 0.0, 7.5, 20.0):
            mixed = mix_at_snr(clean, noise, snr, seed=9)
            assert measured_snr_db(clean, mixed) == pytest.approx(snr, abs=1e-9)

    def test_longer_noise_cropped_deterministically(self):
        rng = np.random.default_rng(3)
        clean = Waveform(0.2 * rng.standard_normal(1000))
        noise = Waveform(rng.standard_normal(5000))
        a = mix_at_snr(clean, noise, 10.0, seed=4)
        b = mix_at_snr(clean, noise, 10.0, seed=4)
        c = mix_at_snr(clean, noise, 10.0, seed=5)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_shorter_noise_tiled(self):
        clean = Waveform(0.2 * np.sin(np.linspace(0, 20, 1000)))
        noise = Waveform(np.array([0.5, -0.5, 0.25]))
        mixed = mix_at_snr(clean, noise, 6.0, seed=0)
        addend = mixed.samples - clean.samples
        # the tiled noise repeats with period 3 (one global gain applied)
        np.testing.assert_allclose(addend[:-3] / addend[3:], 1.0, rtol=1e-9)
        assert measured_snr_db(clean, mixed) == pytest.approx(6.0, abs=1e-9)

    def test_zero_clean_rejected(self):
        with pytest.raises(DegenerateSignalError):
            mix_at_snr(Waveform(np.zeros(10)),
                       Waveform(np.ones(10)), 0.0, seed=0)

    def test_zero_noise_rejected(self):
        with pytest.raises(DegenerateSignalError):
            mix_at_snr(Waveform(np.ones(10)),
                       Waveform(np.zeros(10)), 0.0, seed=0)


def direct_convolution(x, taps, n):
    """O(N*K) reference convolution truncated to n output samples."""
    out = np.zeros(n)
    for i in range(n):
        for j in range(len(taps)):
            if 0 <= i - j < len(x):
                out[i] += taps[j] * x[i - j]
    return out


class TestConvolveRir:
    def test_unit_impulse_identity_exact(self):
        rng = np.random.default_rng(5)
        clean = Waveform(rng.standard_normal(500))
        rir = RoomImpulseResponse(np.array([1.0]))
        out = convolve_rir(clean, rir)
        np.testing.assert_array_equal(out.samples, clean.samples)

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            n = int(rng.integers(50, 300))
            k = int(rng.integers(2, 40))
            clean = Waveform(rng.standard_normal(n))
            rir = RoomImpulseResponse(rng.standard_normal(k))
            out = convolve_rir(clean, rir)
            ref = direct_convolution(clean.samples, rir.taps, n)
            ref *= rms(clean) / np.sqrt(np.mean(ref ** 2))
            assert np.max(np.abs(out.samples - ref)) < 1e-6

    def test_output_rms_preserved(self):
        rng = np.random.default_rng(7)
        clean = Waveform(rng.standard_normal(800) * 0.3)
        rir = RoomImpulseResponse(rng.standard_normal(64))
        out = convolve_rir(clean, rir)
        assert rms(out) == pytest.approx(rms(clean), rel=1e-12)
        assert len(out) == len(clean)

    def test_pure_delay_is_shift(self):
        clean = Waveform(np.ones(6))
        rir = RoomImpulseResponse(np.array([0.0, 0.0, 1.0]))
        out = convolve_rir(clean, rir)
        expected = np.array([0.0, 0.0, 1, 1, 1, 1], dtype=float)
        expected *= rms(clean) / np.sqrt(np.mean(expected ** 2))
        np.testing.assert_allclose(out.samples, expected, atol=1e-12)


def _is_5_smooth(n: int) -> bool:
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


class TestConvolveHead:
    def test_fft_size_is_the_least_5_smooth_bound(self):
        smooth = [m for m in range(1, 5_200) if _is_5_smooth(m)]
        for n in range(1, 5_001):
            assert _fft_size(n) == next(m for m in smooth if m >= n), n

    @pytest.mark.parametrize("n, k", [
        (1_000, _DIRECT_MAX_TAPS),
        (1_000, _DIRECT_MAX_TAPS + 1),
        (16_000, 301),
        (16_000, 800),
        (64_000, 12_800),
        (300, 2_000),  # response longer than the signal
        (50, 40),
    ])
    def test_matches_direct_convolution(self, n, k):
        rng = np.random.default_rng(n + k)
        x = rng.standard_normal(n)
        taps = rng.standard_normal(k) * np.exp(-np.arange(k) / (k / 6))
        want = np.convolve(x, taps)[:n]
        got = _convolve_head(x, taps)
        assert got.shape == (n,)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-12

    def test_short_response_is_direct(self):
        rng = np.random.default_rng(9)
        x, taps = rng.standard_normal(2_000), rng.standard_normal(_DIRECT_MAX_TAPS)
        np.testing.assert_array_equal(_convolve_head(x, taps), np.convolve(x, taps)[:2_000])


class TestSpectrumMemo:
    def test_repeated_calls_match_uncached_path(self):
        # a fresh response takes its spectrum anew; `rir` reuses the one it kept
        rng = np.random.default_rng(12)
        taps = rng.standard_normal(800) * np.exp(-np.arange(800) / 120.0)
        rir = RoomImpulseResponse(taps)
        for n in (4_000, 4_000, 3_000, 4_000):
            clean = Waveform(rng.standard_normal(n))
            want = convolve_rir(clean, RoomImpulseResponse(taps))
            np.testing.assert_array_equal(convolve_rir(clean, rir).samples, want.samples)
        assert list(rir._spectra) == [(800, _fft_size(4_799))]

    def test_same_fft_size_with_different_taps_kept(self):
        # 299 and 300 samples both need an FFT of 600, but keep 299 and 300 of the
        # 2,000 taps; the shorter goes first, so a size-only key would drop tap 299
        rng = np.random.default_rng(13)
        taps = rng.standard_normal(2_000) * np.exp(-np.arange(2_000) / 300.0)
        rir = RoomImpulseResponse(taps)
        assert _fft_size(299 + 299 - 1) == _fft_size(300 + 300 - 1) == 600
        for n in (299, 300):
            clean = Waveform(rng.standard_normal(n))
            want = np.convolve(clean.samples, taps)[:n]
            want *= rms(clean) / np.sqrt(np.mean(want ** 2))
            got = convolve_rir(clean, rir).samples
            assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-12
        assert list(rir._spectra) == [(300, 600)]

    def test_taps_are_a_read_only_copy(self):
        taps = np.array([1.0, 0.5, 0.25])
        rir = RoomImpulseResponse(taps)
        assert not rir.taps.flags.writeable
        with pytest.raises(ValueError):
            rir.taps[0] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            rir.taps = np.ones(3)
        assert taps.flags.writeable
        taps[0] = 0.0
        assert rir.taps[0] == 1.0


class TestWhiteNoise:
    def test_seeded_determinism(self):
        a = white_noise(1000, seed=42)
        b = white_noise(1000, seed=42)
        c = white_noise(1000, seed=43)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_narrowband_kills_high_frequencies(self):
        w = white_noise(65536, seed=2)
        power = np.abs(np.fft.rfft(w.samples)) ** 2
        freqs = np.fft.rfftfreq(len(w), d=1.0 / 16000)
        high = float(power[freqs > 4000].sum())
        total = float(power.sum())
        assert high / total < 0.05

    def test_narrowband_keeps_passband(self):
        w = white_noise(65536, seed=3)
        power = np.abs(np.fft.rfft(w.samples)) ** 2
        freqs = np.fft.rfftfreq(len(w), d=1.0 / 16000)
        low = float(power[freqs < 2000].sum())
        assert low / float(power.sum()) > 0.85

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ParameterError):
            white_noise(0, seed=0)

    @pytest.mark.parametrize("rate", [SAMPLE_RATE_HZ])
    def test_matches_scipy_butterworth(self, rate):
        signal = pytest.importorskip("scipy.signal")
        b, a = signal.butter(4, 2000.0 / (rate / 2.0), btype="low")
        for length in (1, 1000, 16000, 64000):
            seed = 1000 * rate + length
            got = white_noise(length, seed).samples
            want = signal.lfilter(b, a, np.random.default_rng(seed).standard_normal(length))
            assert got.shape == want.shape
            assert float(np.max(np.abs(got - want))) <= 1e-12
