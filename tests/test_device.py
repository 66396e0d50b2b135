import io
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pwa_synth import (
    ChipPlan,
    DeviceModel,
    PropagationTrace,
    TridiagonalHamiltonian,
    VoltageSettings,
    compile_unitary,
    dyson_first_order,
    expm_hermitian,
    hamiltonian_from_voltages,
    named_gate,
    operator_norm,
    propagate,
    realize,
    unitarity_defect,
)
from pwa_synth import cli, device
from pwa_synth.device import _CSV_ROWS

from conftest import physical_sections, sectionwise_propagation


@pytest.fixture
def model():
    return DeviceModel()


def _reference_csv(trace) -> str:
    """The per-row writer: one f-string per (sample, mode) row."""
    out = io.StringIO()
    out.write("z_m,mode_index,re,im,probability\n")
    d = trace.amplitudes.shape[1]
    for i, z in enumerate(trace.z):
        for m in range(d):
            a = trace.amplitudes[i, m]
            out.write(
                f"{z:.17g},{m},{a.real:.17g},{a.imag:.17g},{trace.probabilities[i, m]:.17g}\n"
            )
    return out.getvalue()


def _trace(z, re, im) -> PropagationTrace:
    amps = np.empty(np.shape(re), dtype=complex)
    amps.real, amps.imag = re, im
    with np.errstate(all="ignore"):  # |a|^2 overflows near 1e300
        return PropagationTrace(z=z, amplitudes=amps)


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
                1e300, -1e300, 1.7976931348623157e308, np.nan, np.inf, -np.inf]
_floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(width=64))


@st.composite
def _traces(draw):
    n = draw(st.integers(1, 24))
    d = draw(st.integers(1, 5))
    z = draw(hnp.arrays(np.float64, n, elements=_floats))
    re = draw(hnp.arrays(np.float64, (n, d), elements=_floats))
    im = draw(hnp.arrays(np.float64, (n, d), elements=_floats))
    return _trace(z, re, im)


def _assert_written_as_percent_17g(values):
    """Every value, spread over the z, re and im columns of a one-mode trace,
    and every probability that follows from them, is written as '%.17g' % v."""
    x = np.asarray(values, dtype=float).ravel()
    rows = -(-x.size // 3)
    x = np.concatenate([x, np.zeros(3 * rows - x.size)]).reshape(3, rows)
    trace = _trace(x[0], x[1, :, None], x[2, :, None])
    columns = (trace.z, trace.amplitudes.real.ravel(), trace.amplitudes.imag.ravel(),
               trace.probabilities.ravel())
    want = ["%.17g,0,%.17g,%.17g,%.17g" % row for row in zip(*(c.tolist() for c in columns))]
    got = trace.to_csv().splitlines()
    assert got[0] == "z_m,mode_index,re,im,probability"
    bad = [(g, w) for g, w in zip(got[1:], want) if g != w]
    assert len(got) == 1 + rows and not bad, bad[:5]


def _ulp_neighbours(x, steps):
    """x and its ``steps`` nearest floats on each side."""
    out = [np.asarray(x, dtype=float)]
    for direction in (-np.inf, np.inf):
        y = out[0]
        for _ in range(steps):
            y = np.nextafter(y, direction)
            out.append(y)
    return np.concatenate(out)


def volts(levels, couplings):
    return VoltageSettings(level_volts=np.asarray(levels, float),
                           coupling_volts=np.asarray(couplings, float))


class TestDeviceModel:
    def test_zero_voltage_constants(self, model):
        h = hamiltonian_from_voltages(model, volts([0, 0, 0], [0, 0]))
        expected_beta = 2.0 * np.pi * 2.713 / 808e-9
        np.testing.assert_array_equal(h.betas, np.full(3, expected_beta))
        np.testing.assert_array_equal(h.couplings, np.full(2, 100.0))
        assert 2.0e7 < expected_beta < 2.2e7

    def test_coupling_extremes(self, model):
        h = hamiltonian_from_voltages(model, volts([0, 0], [15.0]))
        assert h.couplings[0] == pytest.approx(121.0)
        h = hamiltonian_from_voltages(model, volts([0, 0], [-15.0]))
        assert h.couplings[0] == pytest.approx(79.0)

    def test_level_shift_formula(self, model):
        h = hamiltonian_from_voltages(model, volts([15.0, 0], [0]))
        assert h.betas[0] == pytest.approx(model.beta_zero * (1 + 5e-6 * 15.0 / 2.713))
        assert np.all(h.betas > 0)

    def test_affine_map(self, model):
        v1 = volts([3.0, -2.0], [1.5])
        v2 = volts([4.0, 5.0], [-6.0])
        lhs = (
            hamiltonian_from_voltages(model, v1).to_matrix()
            + hamiltonian_from_voltages(model, v2).to_matrix()
            - hamiltonian_from_voltages(model, volts([0, 0], [0])).to_matrix()
        )
        combined = volts([7.0, 3.0], [-4.5])
        rhs = hamiltonian_from_voltages(model, combined).to_matrix()
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-6)

    def test_out_of_range_rejected(self, model):
        with pytest.raises(ValueError, match="exceeds"):
            hamiltonian_from_voltages(model, volts([16.0, 0], [0]))

    def test_model_validation(self):
        with pytest.raises(ValueError, match="gap"):
            DeviceModel(gap_length=7e-3)
        with pytest.raises(ValueError, match="positive"):
            DeviceModel(base_coupling=-1.0)


class TestRealize:
    def test_empty_plan_rejected_without_dimension(self):
        with pytest.raises(ValueError, match="empty"):
            realize([])

    def test_uniform_section_with_2pi_phases_is_identity(self):
        # eigenphases (beta + C lambda_j) L with lambda = +-1 (d=2):
        # beta L = 6 pi, C L = 4 pi -> all phases multiples of 2 pi
        h = TridiagonalHamiltonian(betas=[6 * np.pi, 6 * np.pi], couplings=[4 * np.pi], length=1.0)
        assert operator_norm(realize([h]) - np.eye(2)) <= 1e-9

    def test_compiled_hadamard_plan(self, model, hadamard_matrix):
        plan = compile_unitary(hadamard_matrix, section_length=model.section_length)
        u = realize(plan)
        from pwa_synth import fidelity

        assert fidelity(u, hadamard_matrix) >= 1.0 - 1e-9

    def test_concatenation_associativity(self, model):
        rng = np.random.default_rng(0)
        hams = [
            TridiagonalHamiltonian(
                betas=rng.uniform(1, 5, 3), couplings=rng.uniform(0.5, 2, 2), length=0.3
            )
            for _ in range(4)
        ]
        left = realize(hams[2:]) @ realize(hams[:2])
        assert operator_norm(realize(hams) - left) <= 1e-10

    def test_voltage_chip_includes_gaps(self, model):
        settings = [volts([1.0, -1.0], [2.0]), volts([0.5, 0.5], [-2.0])]
        u = realize(settings, model)
        assert unitarity_defect(u) <= 1e-9
        manual = (
            hamiltonian_from_voltages(model, settings[1]).unitary()
            @ model.zero_voltage_hamiltonian(2).unitary()
            @ hamiltonian_from_voltages(model, settings[0]).unitary()
        )
        assert operator_norm(u - manual) <= 1e-12

    def test_voltage_chip_requires_model(self):
        with pytest.raises(ValueError, match="DeviceModel"):
            realize([volts([0, 0], [0])])

    def test_chip_of_mixed_or_unknown_sections_rejected(self, model):
        with pytest.raises(ValueError, match="same mode count"):
            realize([volts([0, 0], [0]), volts([0, 0, 0], [0, 0])], model)
        with pytest.raises(ValueError, match="chip must be"):
            realize([np.eye(2), np.eye(2)], model)


def _propagation_chips(model) -> list:
    """(chip, dz): three-section voltage chips at d = 3..8, then gapless
    metre-scale plans at d = 3, 4 and 5 (L = 0.5, 1 and 1 m, N = 1), then a
    d = 3 plan of two Trotter steps (L = 1 m, q = 29: 80 sections and 2321
    samples at dz = 0.5 m), whose blocks repeat each body's eigensystem."""
    rng = np.random.default_rng(11)
    vmax = model.max_voltage
    chips = [
        ([volts(rng.uniform(-vmax, vmax, d), rng.uniform(-vmax, vmax, d - 1)) for _ in range(3)],
         model.section_length / 40)
        for d in range(3, 9)
    ]
    for d, length in ((3, 0.5), (4, 1.0), (5, 1.0)):
        for gate in ("dft", "haar:3"):
            plan = compile_unitary(named_gate(gate, d), section_length=length, trotter_steps=1)
            chips.append((plan, 0.5))
    chips.append((compile_unitary(named_gate("dft", 3), section_length=1.0, trotter_steps=2), 0.5))
    return chips


class TestPropagate:
    def test_two_mode_rabi_oscillation(self, model):
        # zero voltage, 2 modes: P2(z) = sin^2(C0 z); full transfer at pi/(2 C0)
        c0 = model.base_coupling
        half = np.pi / (2.0 * c0)
        chip = [TridiagonalHamiltonian(betas=[model.beta_zero] * 2, couplings=[c0], length=2 * half)]
        state = np.array([1.0, 0.0], dtype=complex)
        trace = propagate(state, chip, dz=half / 200.0)
        probs_at = lambda z: trace.probabilities[np.argmin(np.abs(trace.z - z))]
        assert probs_at(half)[1] == pytest.approx(1.0, abs=1e-6)
        assert probs_at(2 * half)[0] == pytest.approx(1.0, abs=1e-6)
        # analytic check along the whole grid
        np.testing.assert_allclose(
            trace.probabilities[:, 1], np.sin(c0 * trace.z) ** 2, atol=1e-8
        )

    def test_identity_plan_flat_trace(self):
        # a plan of no sections realizes the identity and propagates to the
        # one sample z = 0, the input state; an empty list has no mode count
        plan = compile_unitary(np.eye(3), prune_identity=True)
        assert plan.sections == []
        state = np.array([0.0, 0.6, 0.8j])
        trace = propagate(state, plan, dz=0.01)
        assert trace.z.tolist() == [0.0]
        assert np.array_equal(trace.amplitudes, state[None])
        assert np.array_equal(realize(plan), np.eye(3))
        with pytest.raises(ValueError, match="modes"):
            propagate(np.array([1.0, 0.0]), plan, dz=0.01)
        with pytest.raises(ValueError, match="empty"):
            propagate(state, [], dz=0.01)

    def test_final_state_matches_realize(self, model):
        # propagate and realize share one evolution kernel, so the last
        # sample matches the cascade unitary to rounding on every input of
        # three-section chips (two gaps included), and of gapless metre-scale
        # plans at d > 2 of one Trotter step and of two, whose sections are
        # long enough to sample (the d = 3, N = 1 plan gives 1161 samples at
        # dz = 0.5 m)
        for chip, dz in _propagation_chips(model):
            u = realize(chip, model)
            d = u.shape[0]
            for m in range(d):
                trace = propagate(np.eye(d, dtype=complex)[m], chip, model, dz=dz)
                np.testing.assert_allclose(trace.amplitudes[-1], u[:, m], rtol=0, atol=1e-13)

    def test_samples_match_the_sectionwise_reference(self, model):
        # every sample, bit for bit, is what each section's own eigensystem
        # gives, though the chip's eigensystems and phase tables are formed
        # once per distinct body: the voltage chips, the d = 3 plans of one
        # and two Trotter steps, whose recurrence sections end on their
        # reduced phases, and an exact d = 2 plan
        d2_plan = compile_unitary(named_gate("haar:3", 2))
        chips = _propagation_chips(model)
        for chip, dz in chips[:7] + chips[-1:] + [(d2_plan, 2e-5)]:
            sections = physical_sections(chip, model)
            reduced = ([s.reduced_phases for s in chip.sections]
                       if isinstance(chip, ChipPlan) else None)
            d = sections[0].dimension
            for m in range(d):
                state = np.eye(d, dtype=complex)[m]
                trace = propagate(state, chip, model, dz=dz)
                reference = sectionwise_propagation(state, sections, dz, reduced)
                assert trace.amplitudes.tobytes() == reference.tobytes()

    def test_norm_conserved_everywhere(self, model):
        settings = [volts([5.0, -5.0, 3.0], [2.0, -7.0]), volts([1.0, 1.0, 1.0], [0.5, 0.5])]
        state = np.full(3, 1.0 / np.sqrt(3.0), dtype=complex)
        trace = propagate(state, settings, model, dz=1e-4)
        totals = trace.probabilities.sum(axis=1)
        assert np.max(np.abs(totals - 1.0)) <= 1e-9

    def test_dz_validation(self, model):
        chip = [TridiagonalHamiltonian(betas=[1.0, 1.0], couplings=[1.0], length=0.1)]
        state = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValueError, match="shortest"):
            propagate(state, chip, dz=0.2)
        with pytest.raises(ValueError, match="norm"):
            propagate(np.array([1.0, 1.0]), chip, dz=0.01)

    def test_csv_format(self):
        chip = [TridiagonalHamiltonian(betas=[1.0, 1.0], couplings=[1.0], length=0.1)]
        trace = propagate(np.array([1.0, 0.0]), chip, dz=0.05)
        lines = trace.to_csv().strip().splitlines()
        assert lines[0] == "z_m,mode_index,re,im,probability"
        assert len(lines) == 1 + 2 * trace.z.size

    def test_trace_takes_propagated_arrays_without_copy(self, model):
        # d = 8, three sections, 19 201 samples: copying the amplitudes into
        # the trace would add 2.46 MB to the 3.84 MB it keeps; what remains
        # above the kept bytes is one section's phase temporaries (0.56 MB,
        # a ratio of 1.15; the bound was 1.5 when they were three arrays)
        rng = np.random.default_rng(0)
        chip = [volts(rng.uniform(-15, 15, 8), rng.uniform(-15, 15, 7)) for _ in range(3)]
        state = np.eye(8)[0]
        propagate(state, chip, model, dz=1e-6)
        tracemalloc.start()
        try:
            trace = propagate(state, chip, model, dz=1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = trace.z.nbytes + trace.amplitudes.nbytes + trace.probabilities.nbytes
        assert trace.z.size == 19_201
        assert peak < 1.25 * kept, (peak, kept)

    def test_caller_arrays_stay_writeable_and_unshared(self):
        z = np.array([0.0, 1.0])
        amps = np.array([[1.0, 0.0], [0.6, 0.8j]])
        view = amps[:]
        view.flags.writeable = False
        for trace in (PropagationTrace(z=z, amplitudes=amps),
                      PropagationTrace(z=z, amplitudes=view)):
            assert z.flags.writeable and amps.flags.writeable
            assert not np.shares_memory(trace.z, z)
            assert not np.shares_memory(trace.amplitudes, amps)
            assert not (trace.z.flags.writeable or trace.amplitudes.flags.writeable
                        or trace.probabilities.flags.writeable)
        z[1] = 2.0
        amps[1, 1] = 0.0
        assert trace.z[1] == 1.0 and trace.amplitudes[1, 1] == 0.8j


class TestTraceCsv:
    @settings(max_examples=200, deadline=None)
    @given(_traces())
    @example(_trace([-0.0], [[5e-324, -0.0]], [[np.nan, -np.inf]]))
    def test_bulk_writer_matches_per_row_reference(self, trace):
        assert trace.to_csv() == _reference_csv(trace)

    def test_trace_longer_than_two_chunks(self):
        # six blocks of a third of _CSV_ROWS samples each, and three samples more
        rng = np.random.default_rng(3)
        n = 2 * 3 * (_CSV_ROWS // 3) + 3
        trace = _trace(np.cumsum(rng.uniform(0, 1e-4, n)), rng.standard_normal((n, 3)),
                       rng.standard_normal((n, 3)))
        text = trace.to_csv()
        assert text == _reference_csv(trace)
        assert text.count("\n") == 1 + 3 * n

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 12, 101])
    def test_file_writer_at_block_edges(self, d, tmp_path):
        # a block holds chunk samples; n runs up to, onto and past the first
        # block edge, and up to and past the d-th (the 12th from d = 12 up,
        # which keeps d = 101 under a second); at d = 101 the mode field
        # ",100," takes two words
        rng = np.random.default_rng(d)
        chunk = _CSV_ROWS // d
        last = min(d, 12) * chunk
        path = tmp_path / "trace.csv"
        for n in sorted({chunk - 1, chunk, chunk + 1, last - 1, last + 1}):
            trace = _trace(np.cumsum(rng.uniform(0, 1e-4, n)), rng.standard_normal((n, d)),
                           rng.standard_normal((n, d)))
            with open(path, "wb") as file:
                trace.write_csv(file)
            written = path.read_bytes()
            assert written == trace.to_csv().encode(), n
            assert written == _reference_csv(trace).encode(), n

    def test_one_kernel_call_per_block(self, monkeypatch):
        # each block formats its z values in the same call as its re, im and
        # probability values
        calls = []
        put_floats = device._put_floats

        def counting(slots, x):
            calls.append(x.size)
            put_floats(slots, x)

        monkeypatch.setattr(device, "_put_floats", counting)
        rng = np.random.default_rng(4)
        d = 3
        chunk = _CSV_ROWS // d
        n = 2 * chunk + 5
        trace = _trace(np.cumsum(rng.uniform(0, 1e-4, n)), rng.standard_normal((n, d)),
                       rng.standard_normal((n, d)))
        assert trace.to_csv() == _reference_csv(trace)
        assert calls == [chunk * (3 * d + 1)] * 2 + [5 * (3 * d + 1)]

    def test_powers_of_two_and_their_odd_multiples(self):
        # dyadic values hit exact decimal ties: 2^-25 = 2.98023223876953125e-08
        # is written 2.9802322387695312e-08, the tie rounded to even
        j = np.arange(-1074, 1024)
        with np.errstate(over="ignore"):
            values = np.concatenate([np.ldexp(1.0, j), np.ldexp(3.0, j - 1),
                                     np.ldexp(float(2**53 - 1), j - 52)])
        _assert_written_as_percent_17g(np.concatenate([values, -values]))
        assert "%.17g" % 2.0**-25 == "2.9802322387695312e-08"

    def test_powers_of_ten_and_their_neighbours(self):
        # 1e-7 is 9.99999999999999955e-08: the truncated quotient, not the
        # rounded digits, moves its decimal exponent down
        tens = np.array([float(f"1e{j}") for j in range(-330, 21)])
        _assert_written_as_percent_17g(_ulp_neighbours(np.concatenate([tens, -tens]), 1))
        assert "%.17g" % 1e-7 == "9.9999999999999995e-08"
        # rounding 17 digits up to the next power of ten 10^m needs a value
        # within 5e-18 (relative) below it; below each power the integer
        # path writes, the nearest float lies 4.5e-17 or more below it
        for m in range(-9, 2):
            power = Fraction(10) ** m
            below = float(power)
            if Fraction(below) >= power:
                below = np.nextafter(below, 0.0)
            assert (power - Fraction(below)) / power > Fraction(45, 10**18)

    def test_both_sides_of_the_integer_domain(self):
        # the integer path covers 2^-32 <= |x| < 10; Python's formatter
        # writes the values below it, 1e-11 among them, and from 10 up; 1e-4
        # and 1e-5 switch between fixed and exponent notation
        edges = np.array([1e-11, 2.0**-32, 1e-5, 1e-4, 0.1, 1.0, 10.0])
        _assert_written_as_percent_17g(_ulp_neighbours(np.concatenate([edges, -edges]), 64))

    def test_zeros_subnormals_and_non_finite_values(self):
        _assert_written_as_percent_17g(
            [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.225073858507201e-308,
             2.2250738585072014e-308, np.nan, np.inf, -np.inf, 1.7976931348623157e308])

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(24).integers(0, 2**64, size=10**6, dtype=np.uint64)
        _assert_written_as_percent_17g(bits.view(np.float64))

    def test_random_values_in_the_trace_range(self):
        # amplitudes in [-1, 1], probabilities down to 1e-13, z up to 2 cm
        rng = np.random.default_rng(25)
        n = 10**6 // 3
        _assert_written_as_percent_17g(np.concatenate([
            rng.uniform(-1.0, 1.0, n),
            np.where(rng.random(n) < 0.5, -1.0, 1.0) * 10.0 ** rng.uniform(-13.0, 1.0, n),
            rng.uniform(0.0, 0.02, 10**6 - 2 * n),
        ]))

    def test_one_trace_csv_stays_within_the_per_float_writers_memory(self, model):
        # d = 8, three sections and two gaps at dz = 2e-5 m: 961 samples, the
        # largest trace of the simulate benchmark; the per-float formatter
        # peaked at 2.19 MB on it
        rng = np.random.default_rng(1)
        chip = [volts(rng.uniform(-15, 15, 8), rng.uniform(-15, 15, 7)) for _ in range(3)]
        trace = propagate(np.eye(8)[0], chip, model, dz=2e-5)
        assert trace.z.size == 961
        trace.to_csv()
        tracemalloc.start()
        try:
            text = trace.to_csv()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == _reference_csv(trace)
        assert peak < 2.19e6, peak

    @staticmethod
    def _record_traces(monkeypatch) -> list:
        traces = []

        def recording(*args, **kwargs):
            traces.append(propagate(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(cli, "propagate", recording)
        return traces

    def test_simulate_is_byte_identical(self, tmp_path, monkeypatch, capsys):
        # one 6 mm section at dz = 2.5e-6 m: 2401 samples cross three block
        # edges
        path = tmp_path / "volts.json"
        path.write_text(json.dumps({"voltages": [{"level_volts": [4.0, -9.0, 2.5],
                                                  "coupling_volts": [7.0, -3.0]}]}))
        traces = self._record_traces(monkeypatch)
        argv = ["simulate", "--voltages", str(path), "--input", "1", "--dz", "2.5e-6"]
        out = tmp_path / "trace.csv"
        assert cli.main([*argv, "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(argv) == 0
        to_file, to_stdout = traces
        assert to_file.z.size > 3 * (_CSV_ROWS // 3)
        assert out.read_bytes() == _reference_csv(to_file).encode()
        assert capsys.readouterr().out == _reference_csv(to_stdout)

    def test_bench_propagation_is_byte_identical(self, tmp_path, monkeypatch):
        traces = self._record_traces(monkeypatch)
        assert cli.main(["bench", "--experiment", "propagation", "--dims", "2,3", "--gates", "dft",
                         "--sections", "1,2", "--restarts", "2", "--maxiter", "40",
                         "--out", str(tmp_path)]) == 0
        names = [f"propagation_dft_d{d}_K{k}_in{b}.csv"
                 for d in (2, 3) for k in (1, 2) for b in range(d)]
        assert len(traces) == len(names)
        for name, trace in zip(names, traces):
            assert (tmp_path / name).read_bytes() == _reference_csv(trace).encode()

    @pytest.mark.parametrize(
        "z, amplitudes",
        [
            ([0.0, 1.0], [1.0, 0.0]),                  # 1-D amplitudes
            ([[0.0], [1.0]], [[1.0], [0.0]]),          # 2-D z
            ([0.0, 1.0], np.zeros((2, 0))),            # no modes
            ([0.0], [[1.0, 0.0], [0.0, 1.0]]),         # rows disagree with z
            ([0.0, 1.0], np.zeros((2, 2, 1))),         # 3-D amplitudes
        ],
    )
    def test_shape_validation(self, z, amplitudes):
        with pytest.raises(ValueError, match="1-D"):
            PropagationTrace(z=z, amplitudes=amplitudes)

    def test_shift_optimized_chip_moves_mass_cyclically(self, model):
        # five optimized sections implementing the d=5 cyclic shift: every
        # basis input ends up concentrated on the next mode
        from pwa_synth import OptimizationTask, optimize, shift

        d = 5
        task = OptimizationTask(
            target=shift(d), sections=5, restarts=4, seed=0, max_iterations=800
        )
        result = optimize(task)
        assert result.fidelity >= 0.9
        for k in range(d):
            state = np.zeros(d, dtype=complex)
            state[k] = 1.0
            trace = propagate(state, result.voltages, model, dz=model.section_length / 25)
            final = trace.probabilities[-1]
            assert int(np.argmax(final)) == (k + 1) % d
            assert final.max() >= 0.5


class TestDysonFirstOrder:
    def test_zero_coupling_gives_exact_diagonal(self):
        betas = np.array([2.0, 3.0, 5.0])
        u = dyson_first_order(betas, np.zeros(2), 0.7)
        np.testing.assert_allclose(np.diagonal(u), np.exp(-1j * betas * 0.7), atol=1e-15)
        assert operator_norm(u - np.diag(np.diagonal(u))) == 0.0

    def test_degenerate_branch_small_coupling(self):
        beta, c, length = 7.0, 0.01, 0.1
        u = dyson_first_order([beta, beta], [c], length)
        expected = -1j * c * length * np.exp(-1j * beta * length)
        assert u[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_realistic_parameters_nearly_tridiagonal(self, model):
        # alternating +-15 V levels, max coupling: the exact unitary keeps
        # almost all its mass on the tridiagonal band
        d = 5
        levels = np.array([15.0, -15.0, 15.0, -15.0, 15.0])
        betas = model.beta_zero + model.beta_shift_per_volt * levels
        couplings = np.full(d - 1, 121.0)
        h = np.diag(betas) + np.diag(couplings, 1) + np.diag(couplings, -1)
        exact = expm_hermitian(h, model.section_length)
        tri_mask = np.abs(np.arange(d)[:, None] - np.arange(d)[None, :]) <= 1
        off_mass = np.linalg.norm(exact[~tri_mask]) ** 2 / np.linalg.norm(exact) ** 2
        assert off_mass <= 0.05
        approx = dyson_first_order(betas, couplings, model.section_length)
        entry_err = np.max(np.abs(np.abs(approx[tri_mask]) - np.abs(exact[tri_mask])))
        assert entry_err <= 0.1

    def test_error_shrinks_with_length(self):
        betas = np.array([10.0, 240.0, 90.0])
        couplings = np.array([3.0, 2.0])
        h = np.diag(betas) + np.diag(couplings, 1) + np.diag(couplings, -1)

        def err(length):
            return operator_norm(
                dyson_first_order(betas, couplings, length) - expm_hermitian(h, length)
            )

        assert err(0.005) <= err(0.01)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            dyson_first_order([1.0, 2.0], [1.0, 2.0], 1.0)
        with pytest.raises(ValueError):
            dyson_first_order([1.0, 2.0], [1.0], 0.0)
