import dataclasses
import decimal
import io
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from zigzag_pca import continuous_kernels as ck
from zigzag_pca import finite_solver as fs
from zigzag_pca import simulator as sim
from zigzag_pca import stats as st
from zigzag_pca.core_types import HzmcSpec, SpaceTimeDiagram, TransitionTensor, normalize_rows
from conftest import _cpus, fresh_philox_row_uniforms, inverse_cdf_step_reference


def copy_left_tensor(kappa=3):
    t = np.zeros((kappa, kappa, kappa))
    for a in range(kappa):
        t[a, :, a] = 1.0
    return TransitionTensor(t)


class TestRowUniforms:
    def test_deterministic_and_keyed(self):
        a = sim.row_uniforms(7, 3, 100)
        b = sim.row_uniforms(7, 3, 100)
        assert a.shape == (100,) and np.array_equal(a, b)
        assert not np.array_equal(a, sim.row_uniforms(7, 4, 100))
        assert not np.array_equal(a, sim.row_uniforms(8, 3, 100))

    def test_prefix_stability(self):
        # site j owns entry j: widening the block must not change earlier entries
        small = sim.row_uniforms(1, 0, 50)
        big = sim.row_uniforms(1, 0, 80)
        assert np.array_equal(small, big[:50])

    @pytest.mark.parametrize("t", [0, 1, 2 ** 64 - 1])
    @pytest.mark.parametrize("seed", [0, 7, 2 ** 63, 2 ** 64 - 1])
    def test_rekeyed_stream_matches_a_fresh_philox(self, seed, t):
        for width in (0, 1, 601, 4000, 601):     # the state of a longer block does not carry
            got = sim.row_uniforms(seed, t, width)
            assert got.tobytes() == fresh_philox_row_uniforms(seed, t, width).tobytes()

    def test_two_threads_interleaved_match_a_fresh_philox(self):
        # each thread re-keys its own Philox: a switch between the re-key and
        # the draw must not hand one thread the other's stream
        wrong, done, turn = [], [], threading.Barrier(2, timeout=30)

        def run(offset):        # thread 0 draws seeds 3 and 2**64 - 1, thread 1 4 and 2**64 - 2
            for seed in (3 + offset, 2 ** 64 - 1 - offset):
                for t in range(40):
                    for width in (1, 601):
                        turn.wait()
                        got = sim.row_uniforms(seed, t, width)
                        if got.tobytes() != fresh_philox_row_uniforms(seed, t, width).tobytes():
                            wrong.append((seed, t, width))
                        done.append(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert wrong == [] and len(done) == 2 * 2 * 40 * 2

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 70])
    def test_seed_outside_the_key_range_refused(self, seed):
        with pytest.raises(ValueError):
            fresh_philox_row_uniforms(seed, 0, 4)           # as Philox itself refuses it
        with pytest.raises(ValueError, match="2\\*\\*128"):
            sim.row_uniforms(seed, 0, 4)


class TestSampleHzmcLine:
    def test_identity_kernels_freeze_the_line(self):
        spec = HzmcSpec(d=np.eye(3), u=np.eye(3), rho0=np.array([0.2, 0.3, 0.5]))
        line = sim.sample_hzmc_lines(spec, 31, 1, seed=5)[0]
        assert np.all(line == line[0])

    def test_two_letter_marginal(self, two_letter):
        res = fs.solve_invariant_hzmc(two_letter)
        zig = sim.sample_hzmc_lines(res.spec, 2 * 100_000 + 1, 1, seed=11)[0]
        x = zig[0::2]
        s = st.summarize_line(x)
        assert abs(s.mean - 0.5) < 3 * s.se_mean

    def test_gaussian_zigzag_is_ar1(self):
        par = ck.GaussianPcaParams(3.0, 1.0)
        hz = ck.gaussian_invariant_hzmc(par)
        ar = ck.ar1_parameters(par)
        zig = sim.sample_hzmc_lines(hz, 200_001, 1, seed=23)[0]
        s = st.summarize_line(zig)
        assert abs(s.autocorr[0] - ar.phi) < 3 * s.se_autocorr[0]
        x = zig[0::2]
        sx = st.summarize_line(x)
        assert abs(sx.autocorr[0] - ar.phi ** 2) < 3 * sx.se_autocorr[0]

    def test_batch_shape(self, two_letter):
        res = fs.solve_invariant_hzmc(two_letter)
        lines = sim.sample_hzmc_lines(res.spec, 9, 4, seed=1)
        assert lines.shape == (4, 9)


def per_step_lines(hzmc, length, n_chains, seed):
    """sample_hzmc_lines written out with one draw of n_chains uniforms per
    position and the cumulative rows rebuilt at every step."""
    rng = sim._line_rng(seed)
    out = np.empty((n_chains, length))
    if hzmc.is_finite:
        cur = (np.cumsum(hzmc.rho0) < rng.random(n_chains)[:, None]).sum(axis=1)
        out[:, 0] = cur
        for i in range(1, length):
            mat = hzmc.d if i % 2 == 1 else hzmc.u
            cur = (np.cumsum(mat, axis=1)[cur] < rng.random(n_chains)[:, None]).sum(axis=1)
            out[:, i] = cur
        return out
    cur = hzmc.rho0.sampler(rng.random(n_chains))
    out[:, 0] = cur
    for i in range(1, length):
        cur = (hzmc.d if i % 2 == 1 else hzmc.u).sampler(cur, rng.random(n_chains))
        out[:, i] = cur
    return out


_STREAM_SPECS = {
    "finite": lambda: fs.solve_invariant_hzmc(fs.make_factorized_tensor(4, 11)[0]).spec,
    "finite64": lambda: fs.solve_invariant_hzmc(fs.make_factorized_tensor(64, 11)[0]).spec,
    "gaussian": lambda: ck.gaussian_invariant_hzmc(ck.GaussianPcaParams(3.0, 1.0)),
    # the Beta candidate chain: Gamma legs
    "beta": lambda: ck.beta_candidate_hzmc(ck.BetaPcaParams(2.0, 0.5, 0.75, 1.5)),
}


class TestLineSamplerStream:
    @pytest.mark.parametrize("n_chains", [1, 7])
    @pytest.mark.parametrize("kind", _STREAM_SPECS)
    def test_bitwise_equal_to_per_step_draws(self, kind, n_chains):
        hz = _STREAM_SPECS[kind]()
        for length in (1, 2, 101, 102):
            got = sim.sample_hzmc_lines(hz, length, n_chains, seed=23)
            assert got.shape == (n_chains, length)
            assert got.tobytes() == per_step_lines(hz, length, n_chains, seed=23).tobytes()

    @pytest.mark.parametrize("n_chains", [1, 3])
    @pytest.mark.parametrize("kind", _STREAM_SPECS)
    def test_chunks_carry_each_chain(self, monkeypatch, kind, n_chains):
        # chunks of 7 rows (1 chain) or 2 rows (3 chains) start on both legs
        monkeypatch.setattr(sim, "_LINE_CHUNK", 7)
        hz = _STREAM_SPECS[kind]()
        for length in (8, 9, 40):
            got = sim.sample_hzmc_lines(hz, length, n_chains, seed=29)
            assert got.tobytes() == per_step_lines(hz, length, n_chains, seed=29).tobytes()

    def test_memory_stays_near_the_output(self):
        # a million-cell line holds the line, one chunk of noise and its walk
        hz = _STREAM_SPECS["gaussian"]()
        sim.sample_hzmc_lines(hz, 3, 1, seed=1)       # loads scipy outside the trace
        tracemalloc.start()
        try:
            line = sim.sample_hzmc_lines(hz, 1_000_001, 1, seed=31)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * line.nbytes + 8 * sim._LINE_CHUNK

    def test_one_noise_call_per_leg(self):
        hz = _STREAM_SPECS["beta"]()
        calls = {"d": 0, "u": 0}

        def counted(name, kernel):
            def noise(u):
                calls[name] += 1
                return kernel.noise(u)
            return dataclasses.replace(kernel, noise=noise)

        spec = HzmcSpec(d=counted("d", hz.d), u=counted("u", hz.u), rho0=hz.rho0)
        got = sim.sample_hzmc_lines(spec, 10_001, 1, seed=3)
        assert calls == {"d": 1, "u": 1}
        assert got.tobytes() == sim.sample_hzmc_lines(hz, 10_001, 1, seed=3).tobytes()


class TestStepPca:
    def test_copy_left_kernel_shifts_window(self):
        tens = copy_left_tensor()
        model = sim.ModelInstance(kernel=tens, lattice="N", seed=3)
        line = np.arange(10) % 3
        out = sim.step_pca(line, model, t=0)
        assert np.array_equal(out, line[:-1])

    def test_uniform_kernel_ignores_input(self):
        tens = TransitionTensor(np.full((2, 2, 2), 0.5))
        model = sim.ModelInstance(kernel=tens, lattice="N", seed=9)
        out = sim.step_pca(np.zeros(40_001, dtype=int), model, t=0)
        s = st.summarize_line(out.astype(float))
        assert abs(s.mean - 0.5) < 3 * s.se_mean

    def test_invariant_pair_law(self, two_letter):
        res = fs.solve_invariant_hzmc(two_letter)
        width = 100_001
        zig = sim.sample_hzmc_lines(res.spec, 2 * width + 1, 1, seed=31)[0]
        y = zig[1::2].astype(int)
        model = sim.ModelInstance(kernel=two_letter, lattice="N", seed=31)
        z = sim.step_pca(y, model, t=0)
        du = res.spec.d @ res.spec.u
        target = res.spec.rho0[:, None] * du
        pairs = z[:-1] * 2 + z[1:]
        freq = np.bincount(pairs.astype(int), minlength=4).reshape(2, 2) / (z.size - 1)
        # batch-means error bars on each pair frequency
        nb = int(np.sqrt(pairs.size))
        blen = pairs.size // nb
        batches = pairs[: nb * blen].reshape(nb, blen)
        for code in range(4):
            phat = (batches == code).mean(axis=1)
            se = phat.std(ddof=1) / np.sqrt(nb)
            assert abs(freq.ravel()[code] - target.ravel()[code]) < 3 * se

    def test_cycle_wraps(self):
        tens = copy_left_tensor(2)
        model = sim.ModelInstance(kernel=tens, lattice="cycle", seed=0)
        line = np.array([0, 1, 0, 1, 1])
        out = sim.step_pca(line, model, t=0)
        assert out.size == 5
        assert np.array_equal(out, line)

    def test_unknown_lattice_refused(self, two_letter):
        for lattice in ("bogus", "shrink", ("cycle", 5)):
            with pytest.raises(ValueError, match="unknown lattice"):
                sim.ModelInstance(kernel=two_letter, lattice=lattice)

    @pytest.mark.parametrize("lattice", ["N", "cycle"])
    def test_line_below_two_cells_refused(self, lattice):
        model = sim.ModelInstance(kernel=copy_left_tensor(), lattice=lattice)
        with pytest.raises(ValueError, match="width must be >= 2"):
            sim.step_pca(np.array([1]), model)

    @pytest.mark.parametrize("lattice", ["N", "cycle"])
    @pytest.mark.parametrize("cell", [3, -1])
    def test_cell_outside_the_alphabet_refused(self, lattice, cell):
        # a cell kappa or -1 would move the table offset into another row
        model = sim.ModelInstance(kernel=copy_left_tensor(3), lattice=lattice)
        for line in ([0, 1, 2, cell, 1], [cell, 0, 1, 2, 1]):
            for dtype in (np.intp, float):
                with pytest.raises(ValueError, match=r"letters in \[0, 3\)"):
                    sim.step_pca(np.array(line, dtype=dtype), model)

    def test_letters_are_read_without_a_copy(self, monkeypatch):
        line = np.array([0, 1, 2, 1, 0], dtype=np.intp)
        seen = []
        tens = copy_left_tensor(3)
        monkeypatch.setattr(TransitionTensor, "sampler", lambda self, a, b, u: seen.append(a))
        sim.step_pca(line, sim.ModelInstance(kernel=tens, lattice="N"))
        assert np.shares_memory(seen[0], line)

    @pytest.mark.parametrize("kappa", [1, 2, 3, 4, 16])
    def test_search_table_matches_per_cell_sums(self, kappa):
        # the draw bisects rows of the kernel's search table: the first
        # kappa - 1 sums a per-cell cumsum of t[a, b] gives, then +inf
        tens = fs.random_positive_tensor(kappa, seed=kappa)
        width = (1 << (kappa - 1).bit_length()) - 1
        assert width >= kappa - 1 and (width + 1) & width == 0
        table = tens.search_table.reshape(kappa, kappa, width)
        rng = np.random.default_rng(kappa)
        a, b = rng.integers(0, kappa, 500), rng.integers(0, kappa, 500)
        assert np.array_equal(table[a, b, :kappa - 1], np.cumsum(tens.t[a, b], axis=1)[:, :-1])
        assert np.all(table[:, :, kappa - 1:] == np.inf)
        assert tens.search_table is tens.search_table and not tens.search_table.flags.writeable

    @pytest.mark.parametrize("lattice", ["N", "cycle"])
    @pytest.mark.parametrize("kappa", [1, 2, 3, 4, 5, 16, 64])
    @pytest.mark.parametrize("zeros", [False, True], ids=["positive", "with-zeros"])
    def test_bisection_matches_the_cumulative_gather(self, kappa, lattice, zeros):
        tens = fs.random_positive_tensor(kappa, seed=kappa + 100)
        if zeros:       # ties in the cumulative rows, and rows that end in zeros
            rng = np.random.default_rng(kappa)
            t = np.where(rng.random(tens.t.shape) < 0.5, 0.0, tens.t)
            t[..., 0] += t.sum(axis=2) == 0
            tens = TransitionTensor(normalize_rows(t)[0])
        model = sim.ModelInstance(kernel=tens, lattice=lattice, seed=kappa)
        rng = np.random.default_rng(kappa + 1)
        for width, t in ((2, 0), (601, 3), (4000, 2 ** 40)):
            line = rng.integers(0, kappa, width).astype(float)
            got = sim.step_pca(line, model, t)
            assert got.tolist() == inverse_cdf_step_reference(line, model, t).tolist()

    @pytest.mark.parametrize("kappa", [2, 5, 16])
    def test_uniform_on_a_row_entry_counts_the_entries_below_it(self, monkeypatch, kappa):
        tens = fs.random_positive_tensor(kappa, seed=kappa)
        cum = np.cumsum(tens.t, axis=2)
        rng = np.random.default_rng(kappa)
        line = rng.integers(0, kappa, 3000)
        a, b = line[:-1], line[1:]
        u = cum[a, b, rng.integers(0, kappa - 1, a.size)]      # ties at every cell
        monkeypatch.setattr(sim, "row_uniforms", lambda seed, t, width: u)
        got = sim.step_pca(line, sim.ModelInstance(tens, "N"), 0)
        assert got.tolist() == (cum[a, b] < u[:, None]).sum(axis=1).tolist()


class TestRowTotalBelowOne:
    """A stochastic row may sum to 1 - ROW_TOL; a uniform above its rounded
    total draws the last letter, never letter kappa."""

    TOTAL = 1 - 5e-13
    ROW = np.array([0.5, 0.5 - 5e-13])

    @pytest.mark.parametrize("u", [TOTAL, np.nextafter(1.0, 0.0)])
    @pytest.mark.parametrize("lattice", ["N", "cycle"])
    def test_step(self, monkeypatch, u, lattice):
        tens = TransitionTensor(np.broadcast_to(self.ROW, (2, 2, 2)).copy())
        assert tens.t.sum(axis=2).max() <= u
        monkeypatch.setattr(sim, "row_uniforms", lambda seed, t, width: np.full(width, u))
        out = sim.step_pca(np.array([0, 1, 1, 0, 1]), sim.ModelInstance(tens, lattice), 0)
        assert out.tolist() == [1] * out.size

    @pytest.mark.parametrize("u", [TOTAL, np.nextafter(1.0, 0.0)])
    def test_first_cell_and_legs(self, monkeypatch, u):
        class Top:          # every uniform of the line stream is u
            def random(self, size):
                return np.full(size, u)

        spec = HzmcSpec(d=np.array([self.ROW, [0.25, 0.75]]), u=np.array([self.ROW, self.ROW]),
                        rho0=self.ROW)
        monkeypatch.setattr(sim, "_line_rng", lambda seed: Top())
        lines = sim.sample_hzmc_lines(spec, 9, 3, seed=0)
        assert lines.tolist() == [[1.0] * 9] * 3


class TestSimulateDiagram:
    def test_zero_steps_echo(self):
        tens = copy_left_tensor()
        model = sim.ModelInstance(kernel=tens, lattice="N", seed=1)
        init = np.array([0, 1, 2, 0, 1, 2])
        diag = sim.simulate_diagram(model, init, 0)
        assert np.array_equal(diag.states[0], init.astype(float))
        assert diag.steps == 0 and diag.width == 6

    def test_bitwise_deterministic(self):
        par = ck.GaussianPcaParams(3.0, 1.0)
        model = sim.ModelInstance(kernel=ck.gaussian_kernel_density(par), lattice="N", seed=77)
        init = np.linspace(-1, 1, 30)
        a = sim.simulate_diagram(model, init, 10)
        b = sim.simulate_diagram(model, init, 10)
        assert np.array_equal(a.states, b.states, equal_nan=True)

    def test_dependency_cone_grows_one_site_per_step(self):
        par = ck.GaussianPcaParams(3.0, 1.0)
        model = sim.ModelInstance(kernel=ck.gaussian_kernel_density(par), lattice="N", seed=13)
        init = np.linspace(-1, 1, 41)
        bumped = init.copy()
        s = 20
        bumped[s] += 0.25
        a = sim.simulate_diagram(model, init, 12)
        b = sim.simulate_diagram(model, bumped, 12)
        for t in range(13):
            ra, rb = a.states[t], b.states[t]
            inside = np.zeros(41, dtype=bool)
            inside[max(0, s - t): s + 1] = True
            outside = ~inside
            ok = (ra == rb) | np.isnan(ra)
            assert np.all(ok[outside])
            if t > 0:
                assert ra[s - t] != rb[s - t]  # the cone edge really moves

    @pytest.mark.parametrize("init", [[0, 1, 3, 0], [0, -1, 2, 0], [0, np.nan, 2, 0]])
    def test_init_outside_the_alphabet_refused(self, init):
        model = sim.ModelInstance(kernel=copy_left_tensor(), lattice="N", seed=1)
        with pytest.raises(ValueError, match="letters in \\[0, 3\\)"):
            sim.simulate_diagram(model, np.array(init, dtype=float), 2)

    def test_finite_line_is_held_as_letters(self, monkeypatch):
        # each step reads the letters the last one drew; only the rows are floats
        step, seen = sim.step_pca, []

        def spy(line, model, t):
            seen.append(line)
            return step(line, model, t)

        monkeypatch.setattr(sim, "step_pca", spy)
        model = sim.ModelInstance(kernel=copy_left_tensor(), lattice="N", seed=1)
        diag = sim.simulate_diagram(model, np.array([0, 1, 2, 0, 1, 2]), 3)
        assert all(line.dtype == np.intp for line in seen) and diag.states.dtype == float
        assert [list(line) for line in seen] == [[0, 1, 2, 0, 1, 2], [0, 1, 2, 0, 1], [0, 1, 2, 0]]

    def test_shrink_needs_enough_width(self):
        tens = copy_left_tensor()
        model = sim.ModelInstance(kernel=tens, lattice="N", seed=1)
        with pytest.raises(ValueError, match="width"):
            sim.simulate_diagram(model, np.zeros(5, dtype=int), 5)

    def test_states_are_held_once(self):
        # the diagram takes the array the steps filled; a copy of it reads 2.0x
        par = ck.GaussianPcaParams(3.0, 1.0)
        model = sim.ModelInstance(kernel=ck.gaussian_kernel_density(par), lattice="N", seed=3)
        init = np.linspace(-1, 1, 4001)
        sim.simulate_diagram(model, init[:10], 2)      # scipy.special is imported here
        tracemalloc.start()
        try:
            diag = sim.simulate_diagram(model, init, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not diag.states.flags.writeable
        assert peak <= 1.25 * diag.states.nbytes

    def test_states_passed_in_are_copied_unless_locked_and_owned(self):
        states = np.zeros((3, 4))
        view = states.view()
        view.setflags(write=False)      # read-only, but its owner can still write
        for given in (states, view):
            diag = SpaceTimeDiagram(given)
            before = diag.states.copy()
            states += 1.0
            assert np.array_equal(diag.states, before) and not diag.states.flags.writeable
        states.setflags(write=False)
        assert SpaceTimeDiagram(states).states is states


class TestDiagramIO:
    def test_steps_and_width_come_from_the_states(self):
        diag = SpaceTimeDiagram(np.zeros((4, 9)))
        assert (diag.steps, diag.width) == (3, 9)
        for bad in (np.zeros(9), np.zeros((0, 9)), np.zeros((2, 3, 4))):
            with pytest.raises(ValueError, match="steps"):
                SpaceTimeDiagram(bad)

    def test_binary_roundtrip(self, tmp_path):
        par = ck.GaussianPcaParams(3.0, 1.0)
        model = sim.ModelInstance(kernel=ck.gaussian_kernel_density(par), lattice="N", seed=5)
        diag = sim.simulate_diagram(model, np.linspace(-1, 1, 12), 4)
        path = tmp_path / "d.bin"
        sim.write_diagram_binary(diag, path)
        back = sim.read_diagram_binary(path)
        assert back.width == 12 and back.steps == 4
        assert np.array_equal(back.states, diag.states, equal_nan=True)

    def test_binary_writer_copies_nothing(self, tmp_path):
        # 3.2 MB of states go to the file from the diagram's own buffer
        diag = SpaceTimeDiagram(np.random.default_rng(5).normal(size=(101, 4001)))
        tracemalloc.start()
        try:
            sim.write_diagram_binary(diag, tmp_path / "d.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        raw = (tmp_path / "d.bin").read_bytes()
        assert raw[16:] == diag.states.astype("<f8").tobytes()

    def test_csv_rows(self, tmp_path):
        tens = copy_left_tensor(2)
        model = sim.ModelInstance(kernel=tens, lattice="N", seed=5)
        diag = sim.simulate_diagram(model, np.zeros(5, dtype=int), 2)
        path = tmp_path / "d.csv"
        sim.write_diagram_csv(diag, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 3
        assert len(lines[0].split(",")) == 5
        assert len(lines[2].split(",")) == 3

    def test_csv_text_is_per_scalar_17g(self, tmp_path):
        rng = np.random.default_rng(3)
        states = np.full((4, 9), np.nan)
        states[0] = [-1.5, 5e-324, 1e300, -2.5e-310, 0.1, -0.0, 1.0, -1e-300, 2.0 ** 60]
        states[1, :8] = rng.normal(size=8) * 10.0 ** rng.integers(-300, 300, size=8)
        states[2, :7] = -rng.random(7)
        states[3, :6] = np.arange(6)
        diag = SpaceTimeDiagram(states)
        path = tmp_path / "d.csv"
        sim.write_diagram_csv(diag, path)
        expected = "".join(",".join(format(v, ".17g") for v in diag.row(t)) + "\n"
                           for t in range(4))
        assert path.read_bytes() == expected.encode()
        assert expected.startswith("-1.5,4.9406564584124654e-324,1.0000000000000001e+300,")


def _csv_reference(diag):
    """The per-cell reference: format(v, ".17g") of each live cell."""
    return "".join(",".join(format(v, ".17g") for v in diag.row(t)) + "\n"
                   for t in range(diag.steps + 1)).encode()


def _assert_csv_exact(path, states):
    diag = SpaceTimeDiagram(states)
    sim.write_diagram_csv(diag, path)
    assert path.read_bytes() == _csv_reference(diag)


def _ties():
    """Doubles n / 2**m (n odd) whose exact decimal expansion n * 5**m / 10**m
    has 18 significant digits: each ends in 5, a tie at 17 digits."""
    out = []
    for m in range(2, 26):
        lo, hi = -(-10 ** 17 // 5 ** m), min(10 ** 18 // 5 ** m, 2 ** 53)
        for n in np.linspace(lo, hi - 1, 40).astype(np.int64) | 1:
            x = int(n) / 2.0 ** m
            digits = decimal.Decimal(x).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
            out += [x, -x]
    return out


class TestCsvIsExact17g:
    """The numpy writer matches ``format(v, ".17g")`` byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(hst.one_of(hst.lists(hst.floats(allow_nan=False), min_size=1, max_size=40),
                      hst.lists(hst.floats(1e-4, 1e16), min_size=1, max_size=40),
                      hst.lists(hst.integers(0, 12_000).map(float), min_size=1,
                                max_size=40)))
    def test_property(self, tmp_path_factory, cells):
        _assert_csv_exact(tmp_path_factory.mktemp("csv") / "d.csv", np.array([cells]))

    @pytest.mark.parametrize("name", ["powers-of-ten", "ties", "whole", "whole-fast",
                                      "signed-zero", "tiny-and-infinite"])
    def test_adversarial_values(self, tmp_path, name):
        tens = 10.0 ** np.arange(-6, 19)
        cells = {
            # log10 and the 17-digit rounding both turn at powers of ten
            "powers-of-ten": np.concatenate([tens, np.nextafter(tens, 0),
                                             np.nextafter(tens, np.inf),
                                             [1e-4, np.nextafter(1e-4, 0), 1e16,
                                              np.nextafter(1e16, 0), 1e17]]),
            "ties": _ties(),
            "whole": [9999.0, 1e4, 2.0 ** 53, 2.0 ** 53 - 1, 2.0 ** 53 + 2, 12345678.0, 7.0],
            "whole-fast": [0.0, 1.0, 9.0, 10.0, 99.0, 100.0, 999.0, 1000.0, 9999.0],
            "signed-zero": [0.0, -0.0, 3.0, -0.0],
            "tiny-and-infinite": [5e-324, -5e-324, 2.2250738585072014e-308,
                                  np.nextafter(2.2250738585072014e-308, 0), np.inf,
                                  -np.inf, 1.7976931348623157e308, -1e-300],
        }[name]
        cells = np.asarray(cells, dtype=float)
        _assert_csv_exact(tmp_path / "d.csv", np.stack([cells, -cells, cells[::-1]]))

    def test_fixed_range_stays_in_numpy(self):
        # log10 falls on the wrong side of many of these powers of ten; the
        # exponent is corrected in numpy, not left to format()
        tens = 10.0 ** np.arange(-4, 16)
        cells = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
                                _ties(), [2.0 ** 53, 9999.0]])
        cells = cells[(abs(cells) >= 1e-4) & (abs(cells) < 1e16)]
        _, rest = sim._format_fixed(cells, np.empty((cells.size, 13), dtype=np.uint32))
        assert rest.size == 0

    def test_row_cases(self, tmp_path):
        rng = np.random.default_rng(11)
        wide = 2 * sim._CSV_BLOCK + 905        # rows span blocks, the last block is short
        states = rng.normal(size=(6, wide))
        states[0, [0, sim._CSV_BLOCK - 1, sim._CSV_BLOCK, wide - 1]] = 0.0   # left to Python
        states[1] = np.nan                                      # no live cell
        states[2, 17] = np.nan                                  # interior NaN
        states[3] = rng.integers(0, 4, size=wide)               # whole numbers
        states[3, sim._CSV_BLOCK + 3:] = np.nan                 # shrunk row
        states[4, :] = np.nan
        states[4, [5, wide - 1]] = [-0.0, 2.5]
        _assert_csv_exact(tmp_path / "d.csv", states)

    @pytest.mark.parametrize("shape", [(3, 5), (1, 1), (4, 0)])
    def test_diagram_without_live_cells(self, tmp_path, shape):
        _assert_csv_exact(tmp_path / "d.csv", np.full(shape, np.nan))

    def test_memory_stays_in_blocks(self, tmp_path):
        # the writer holds one block, two on threads (TestCsvThreads)
        assert _csv_peak(tmp_path) < 4 * 2 ** 20


def _csv_peak(tmp_path) -> int:
    """The traced peak of writing about 3.2 MB of states as 8 MB of text."""
    diag = SpaceTimeDiagram(np.random.default_rng(5).normal(size=(101, 4001)))
    tracemalloc.start()
    try:
        sim.write_diagram_csv(diag, tmp_path / "d.csv")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCsvThreads:
    """The caller and, on two CPUs or more, one worker format alternate
    blocks, and the caller writes them in order: the file is the same for
    any CPU count."""

    @staticmethod
    def _states():
        size = sim._CSV_BLOCK
        rng = np.random.default_rng(17)
        states = rng.normal(size=(7, 3 * size // 2))    # every other row starts a block
        flat = states.reshape(-1)
        # left to Python on both sides of the first two block edges
        flat[[size - 1, size, 2 * size - 1, 2 * size]] = [0.0, 1e-300, -0.0, np.inf]
        states[2] = np.nan                      # an empty row that starts block 3
        states[3] = rng.integers(0, 10_000, size=states.shape[1])   # whole-number blocks 4, 5
        states[5, 905:] = np.nan                # shrunk row
        states[6, 17] = np.nan                  # interior NaN; block 10 is half a block
        return states

    def test_bytes_do_not_depend_on_cpus(self, monkeypatch, tmp_path):
        diag = SpaceTimeDiagram(self._states())
        expected = _csv_reference(diag)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # threads swap often: a block out of order would show
        try:
            for count in (1, 2, 3, 16):
                _cpus(monkeypatch, count)
                sim.write_diagram_csv(diag, tmp_path / "d.csv")
                assert (tmp_path / "d.csv").read_bytes() == expected, count
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("count", [1, 2, 16])
    def test_memory_stays_in_blocks_on_threads(self, monkeypatch, tmp_path, count):
        # one block in flight on one CPU and two on more, whatever the count:
        # 1.26 and 2.52 MiB.  A block's text held while the next one is
        # formatted reads 1.57 and 2.83 MiB.
        import concurrent.futures.thread    # the pool's modules load outside the trace
        _cpus(monkeypatch, count)
        assert _csv_peak(tmp_path) < (1.4 if count == 1 else 2.7) * 2 ** 20

    @pytest.mark.parametrize("bad", [0, 1])     # the caller's block, the worker's block
    def test_error_in_a_block_reaches_the_caller(self, monkeypatch, tmp_path, bad):
        states = np.random.default_rng(3).normal(size=(4, sim._CSV_BLOCK))
        states[bad, 7] = 1234.5
        fixed = sim._format_fixed

        def failing(v, words):
            if np.any(v == 1234.5):
                raise ValueError("bad block")
            return fixed(v, words)

        monkeypatch.setattr(sim, "_format_fixed", failing)
        _cpus(monkeypatch, 2)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="bad block"):
            sim.write_diagram_csv(SpaceTimeDiagram(states), tmp_path / "d.csv")
        assert threading.active_count() == threads

    def test_error_in_a_write_ends_the_worker(self, monkeypatch, tmp_path):
        class Full(io.BytesIO):
            def writelines(self, pieces):
                if self.tell() > 0:         # the second block on: mid-file
                    raise OSError("disk full")
                super().writelines(pieces)

        monkeypatch.setattr(sim, "open", lambda path, mode: Full(), raising=False)
        _cpus(monkeypatch, 2)
        threads = threading.active_count()
        states = np.random.default_rng(3).normal(size=(6, sim._CSV_BLOCK))
        with pytest.raises(OSError, match="disk full"):
            sim.write_diagram_csv(SpaceTimeDiagram(states), tmp_path / "d.csv")
        assert threading.active_count() == threads

    def test_workers_run_under_the_callers_error_state(self, monkeypatch, tmp_path):
        fixed = sim._format_fixed

        def invalid(v, words):
            np.sqrt(-np.ones(1))        # warns, unless the error state ignores it
            return fixed(v, words)

        monkeypatch.setattr(sim, "_format_fixed", invalid)
        _cpus(monkeypatch, 2)
        diag = SpaceTimeDiagram(np.random.default_rng(4).normal(size=(4, sim._CSV_BLOCK)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore"):
                sim.write_diagram_csv(diag, tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_bytes() == _csv_reference(diag)

    def test_one_cpu_starts_no_thread(self, monkeypatch, tmp_path):
        def start(thread):
            raise AssertionError("a thread was started")

        _cpus(monkeypatch, 1)
        monkeypatch.setattr(threading.Thread, "start", start)
        diag = SpaceTimeDiagram(np.random.default_rng(4).normal(size=(3, sim._CSV_BLOCK)))
        sim.write_diagram_csv(diag, tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_bytes() == _csv_reference(diag)

    def test_many_cpus_start_one_worker(self, monkeypatch, tmp_path):
        import concurrent.futures

        sizes = []
        pool = concurrent.futures.ThreadPoolExecutor

        def recording(max_workers):
            sizes.append(max_workers)
            return pool(max_workers)

        _cpus(monkeypatch, 16)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
        diag = SpaceTimeDiagram(np.random.default_rng(5).normal(size=(3, sim._CSV_BLOCK)))
        sim.write_diagram_csv(diag, tmp_path / "d.csv")
        assert sizes == [1]
        assert (tmp_path / "d.csv").read_bytes() == _csv_reference(diag)

    def test_keys_reach_every_exponent(self):
        # keys of exponents up to 15 overflow 8-bit integers; each must name
        # its own _MASK row, and a key past the rows is refused, not clipped
        v = np.array([-9.5e15, 1.25e15, 3e4, -1e-4, 2.5e-3])
        words = np.empty((v.size, 5), dtype=np.uint32)
        key, rest = sim._format_fixed(v, words)
        assert rest.size == 0
        assert np.all(key // 36 == [19, 19, 8, 0, 1])           # exponent + 4
        text = sim._gather(words, np.zeros(v.size, dtype=np.uint8), key).tobytes()
        assert text == b"".join(format(x, ".17g").encode() + b"," for x in v)
        with pytest.raises(ValueError, match="key"):
            sim._gather(words, np.zeros(v.size, dtype=np.uint8), key + len(sim._MASK))
