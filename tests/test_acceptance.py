"""Acceptance gate: every quantitative claim at its stated scale.

Each test prints one `[acceptance] criterion NN: PASS/FAIL` line (run
pytest with -s to see the lines for passing criteria too).  The detail
line puts each measured value beside the reference it is compared with:
criterion 8 reads the regular and chaotic windowed std/mean against one
saturation mark, and criterion 12 reads near-origin PS bin densities and
masses against the Marchenko-Pastur law integrated over the same bins.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from permsym.concentration import empirical_concentration, functional_samples
from permsym.core import PSState, embed_to_full, reduced_density_matrix
from permsym.ensembles import (EnsembleSpec, avg_purity_ps,
                               avg_tmi_linear_ps_111, avg_tmi_vn_wishart_blocks,
                               avg_vn_entropy_ps, comb_identity_residual,
                               exponential_tail_slope,
                               marchenko_pastur_density, mc_block_entropy,
                               mc_purity_sweep, mc_tmi_full_samples,
                               mc_tmi_samples, page_entropy,
                               ps_amplitude_batch, spectral_histogram)
from permsym.kickedtop import (KickedTopParams, _grid_orbits, ehrenfest_time,
                               lyapunov_exponent, otoc_growth_rate,
                               otoc_series, time_averaged_tmi_grid,
                               timeseries_measures)
from permsym.measures import LINEAR, VON_NEUMANN

from helpers import dicke_vector, mc_tmi

SEED = 20260810

# windowed std/mean below which an I3 series counts as saturated; the same
# mark test_kickedtop.py::TestTimeseries::test_saturation_window_statistics
# applies to the chaotic series
SATURATED_RATIO = 0.10


def gate(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_c01_exact_average_purity_oracle():
    started = time.perf_counter()
    worst = ""
    ok = True
    for n in (8, 12, 20):
        results = mc_purity_sweep(n, samples=100_000, seed=SEED + n, threads=2)
        for q, res in results.items():
            want = avg_purity_ps(n, q)
            within_sigma = abs(res.mean - want) <= 3 * res.stderr
            within_rel = abs(res.mean / want - 1.0) <= 0.01
            if not (within_sigma and within_rel):
                ok = False
                worst = (f"N={n} Q={q}: mc={res.mean:.6f} want={want:.6f} "
                         f"stderr={res.stderr:.2e}")
    gate("01", ok, worst or f"all (N,Q) within 3 stderr and 1% "
                            f"({time.perf_counter() - started:.0f}s)")


def test_c02_combinatorial_identity():
    worst = 0.0
    for n in range(2, 61):
        for q in range(1, n):
            worst = max(worst, comb_identity_residual(n, q))
    gate("02", worst < 1e-9, f"max relative residual {worst:.2e} over N<=60")


def test_c03_embedding_isometry_and_partial_trace():
    # inner products of 10^3 random pairs at N=12
    amps = ps_amplitude_batch(12, seed=SEED, count=2000)
    worst_ip = 0.0
    for i in range(1000):
        a, b = amps[2 * i], amps[2 * i + 1]
        direct = np.vdot(a, b)
        lifted = np.vdot(embed_to_full(PSState(a)), embed_to_full(PSState(b)))
        worst_ip = max(worst_ip, abs(direct - lifted))
    # reduced matrices vs brute-force 2^N partial traces
    worst_pt = 0.0
    for n in range(4, 11):
        state = PSState(ps_amplitude_batch(n, seed=SEED + n, count=1)[0])
        psi = embed_to_full(state)
        for q in range(1, n):
            mat = psi.reshape(2 ** q, -1)
            brute = mat @ mat.conj().T
            embed = np.column_stack([dicke_vector(q, m) for m in range(q + 1)])
            lifted = embed @ reduced_density_matrix(state, q) @ embed.conj().T
            worst_pt = max(worst_pt, np.abs(lifted - brute).max())
    gate("03", worst_ip < 1e-12 and worst_pt < 1e-10,
         f"inner-product dev {worst_ip:.2e}, partial-trace dev {worst_pt:.2e}")


def test_c04_von_neumann_scaling():
    started = time.perf_counter()
    ok = True
    detail = []
    for n in range(90, 103):
        if n % 2:
            continue
        q = n // 2
        res = mc_block_entropy(n, q, VON_NEUMANN, 1000, seed=SEED + n, threads=2)
        formula = avg_vn_entropy_ps(n, q, alpha=2.0 / 3.0, half_correction=True)
        page = page_entropy(q + 1, n - q + 1)
        if abs(res.mean - formula) > 0.05 or not page < res.mean:
            ok = False
        detail.append(f"N={n}: mc={res.mean:.4f} formula={formula:.4f} page={page:.4f}")
    gate("04", ok, f"{detail[0]} ... {detail[-1]} "
                   f"({time.perf_counter() - started:.0f}s)")


def test_c05_linear_tmi_exact_average():
    started = time.perf_counter()
    res = mc_tmi(12, (1, 1, 1), LINEAR, 100_000, seed=SEED + 5, threads=2)
    want = avg_tmi_linear_ps_111(12)
    gate("05", abs(res.mean - want) <= 3 * res.stderr,
         f"mc={res.mean:.6f} exact={want:.6f} stderr={res.stderr:.2e} "
         f"({time.perf_counter() - started:.0f}s)")


def test_c06_tmi_sign_dichotomy():
    started = time.perf_counter()
    ps_vals = mc_tmi_samples(12, (1, 2, 2), VON_NEUMANN, 100, seed=SEED + 6)
    w_vals = mc_tmi_full_samples(12, (1, 2, 2), VON_NEUMANN, 100, seed=SEED + 7)
    estimate = avg_tmi_vn_wishart_blocks(12, (1, 2, 2))
    ps_mean, w_mean = ps_vals.mean(), w_vals.mean()
    magnitude_ok = abs(estimate) / 2 <= abs(w_mean) <= abs(estimate) * 2
    gate("06", ps_mean > 0 and w_mean < 0 and magnitude_ok,
         f"PS mean={ps_mean:.4f} (>0), Wishart mean={w_mean:.4f} "
         f"vs estimate {estimate:.4f} within factor 2 "
         f"({time.perf_counter() - started:.0f}s)")


def test_c07_kicked_top_saturation():
    started = time.perf_counter()
    table = timeseries_measures(KickedTopParams(10, 6.0, math.pi / 2), 2.25, 0.63,
                                250, (1, 1, 1), (VON_NEUMANN,))
    window = table["I3_vn"][50:251]
    mean = float(window.mean())
    reference = mc_tmi(20, (1, 1, 1), VON_NEUMANN, 4000, seed=SEED + 8).mean
    in_band = 0.214 <= mean <= 0.254
    near_reference = abs(mean / reference - 1.0) <= 0.10
    gate("07", in_band and near_reference,
         f"saturation mean={mean:.4f} in [0.214, 0.254], PS reference={reference:.4f} "
         f"({time.perf_counter() - started:.0f}s)")


def test_c08_regular_regime_contrast():
    # the same window, j, blocks and initial state for the regular (k=1),
    # mixed-island (k=3) and globally chaotic (k=6) tops: only the chaotic
    # series settles, so only its fluctuations drop below the saturation mark
    ratios = {}
    for k in (1.0, 3.0, 6.0):
        table = timeseries_measures(KickedTopParams(10, k, math.pi / 2), 2.25, 0.63,
                                    250, (1, 1, 1), (VON_NEUMANN,))
        window = table["I3_vn"][50:251]
        ratios[k] = float(window.std() / abs(window.mean()))
    ok = (ratios[1.0] > SATURATED_RATIO and ratios[3.0] > SATURATED_RATIO
          and ratios[6.0] < SATURATED_RATIO)
    gate("08", ok, f"std/mean over steps 50-250: k=1 {ratios[1.0]:.3f}, "
                   f"k=3 {ratios[3.0]:.3f} (required > {SATURATED_RATIO:.2f}); "
                   f"k=6 {ratios[6.0]:.3f} (required < {SATURATED_RATIO:.2f})")


def test_c09_lyapunov_exponent():
    chaotic = lyapunov_exponent(6.0, math.pi / 2, 200, 4000, 32,
                                np.random.default_rng(SEED))
    neutral = lyapunov_exponent(0.0, math.pi / 2, 100, 1000, 8,
                                np.random.default_rng(SEED))
    gate("09", 0.92 <= chaotic <= 1.02 and abs(neutral) < 0.01,
         f"k=6: {chaotic:.4f} in [0.92, 1.02]; k=0: {neutral:.2e}")


def test_c10_ehrenfest_arithmetic():
    value = ehrenfest_time(750, 0.97)
    gate("10", abs(value - 7.54) <= 0.01, f"ln(1501)/0.97 = {value:.4f}")


def test_c11_otoc_growth():
    started = time.perf_counter()
    slopes = {}
    ok = True
    detail = []
    for j in (200, 400, 750):
        series = otoc_series(KickedTopParams(float(j), 6.0, math.pi / 2), 20)
        if series.f[0] != 0.0:
            ok = False
        if np.abs(series.f - 2 * (series.c2 - series.c4)).max() > 1e-8 * np.abs(series.f).max():
            ok = False
        n_hi = int(ehrenfest_time(j, 0.97))
        slopes[j] = otoc_growth_rate(series, 1, n_hi)
        detail.append(f"j={j}: slope[1,{n_hi}]={slopes[j]:.3f}")
    ok = ok and 2.1 <= slopes[750] <= 2.9 and slopes[750] > 1.94
    for j in (200, 400):
        ok = ok and abs(slopes[j] - slopes[750]) <= 0.4
    gate("11", ok, "; ".join(detail) + f" ({time.perf_counter() - started:.0f}s)")


def near_origin_vs_mp(hist, edge=0.05):
    """Histogram-vs-MP rows for the bins ending at or before `edge` (the
    first bin if none does): (left, right, bin density, MP average over the
    bin, cumulative mass to `right`, MP mass on [0, right]).  MP diverges
    like 1/sqrt(x) at the origin, so a bin is compared with the law's mass
    over that same bin divided by its width, never with a point value."""
    edges = hist.bin_edges
    widths = np.diff(edges)
    near = np.flatnonzero(edges[1:] <= edge)
    if near.size == 0:
        near = np.array([0])
    cumulative = np.cumsum(hist.densities * widths)
    return [(edges[i], edges[i + 1], hist.densities[i],
             quad(marchenko_pastur_density, edges[i], edges[i + 1])[0] / widths[i],
             cumulative[i], quad(marchenko_pastur_density, 0.0, edges[i + 1])[0])
            for i in near]


def test_c12_spectral_shapes():
    started = time.perf_counter()
    spec = EnsembleSpec("ps", (200, 100), 2500, SEED + 12)
    hist = spectral_histogram(spec, bins=250)
    centers = 0.5 * (hist.bin_edges[:-1] + hist.bin_edges[1:])
    widths = np.diff(hist.bin_edges)
    rows = near_origin_vs_mp(hist)
    origin_ok = all(dens < mp_dens and mass < mp_mass
                    for _, _, dens, mp_dens, mass, mp_mass in rows)
    mass_above_4 = float(np.sum((hist.densities * widths)[centers > 4.0]))
    tail = exponential_tail_slope(hist)
    origin = "; ".join(f"bin [{lo:.3f}, {hi:.3f}]: PS density {dens:.3f} vs MP average "
                       f"{mp_dens:.3f}, PS mass {mass:.4f} vs MP mass {mp_mass:.4f}"
                       for lo, hi, dens, mp_dens, mass, mp_mass in rows)
    gate("12", origin_ok and mass_above_4 > 0 and tail < 0,
         f"{origin} (PS required below MP); mass(x>4)={mass_above_4:.4f}; "
         f"tail slope={tail:.3f} "
         f"({time.perf_counter() - started:.0f}s)")


def test_c12_comparator_control_wishart():
    # the matched square Wishart(101, 101) ensemble follows MP, so the
    # comparator of criterion 12 must read it at MP's own value: no margin
    # for PS to clear that MP-distributed data would clear as well
    spec = EnsembleSpec("wishart", (101, 101), 2500, SEED + 12)
    rows = near_origin_vs_mp(spectral_histogram(spec, bins=250))
    worst = max(max(abs(dens / mp_dens - 1.0), abs(mass / mp_mass - 1.0))
                for _, _, dens, mp_dens, mass, mp_mass in rows)
    assert worst < 0.05, f"Wishart deviates from MP by {worst:.1%} near the origin"


def test_c13_time_averaged_tmi_grid():
    started = time.perf_counter()
    params6 = KickedTopParams(6, 6.0, math.pi / 2)
    params1 = KickedTopParams(6, 1.0, math.pi / 2)
    _, _, grid6 = time_averaged_tmi_grid(params6, (50, 100), 1000, (1, 1, 1))
    _, _, grid1 = time_averaged_tmi_grid(params1, (50, 100), 1000, (1, 1, 1))
    fraction = float(np.mean((grid6 >= 0.20) & (grid6 <= 0.29)))
    contrast = float(grid1.std() / grid6.std())
    evolved = _grid_orbits(50, 100, math.pi / 2)[0].size
    gate("13", fraction >= 0.90 and contrast >= 3.0,
         f"k=6: {fraction:.1%} of nodes in [0.20, 0.29] "
         f"(range {grid6.min():.3f}..{grid6.max():.3f}); "
         f"k=1/k=6 node-std ratio={contrast:.2f} "
         f"({time.perf_counter() - started:.0f}s, {evolved} of {grid6.size} "
         f"nodes evolved per grid)")


def test_c14_levy_suite():
    started = time.perf_counter()
    ok = True
    detail = []
    for n in (12, 40):
        for functional in (("linear", 2), ("tmi", (1, 1, 1), LINEAR)):
            rows = empirical_concentration(n, functional, 10_000,
                                           [0.05, 0.1, 0.2], seed=SEED + n,
                                           threads=2)
            for row in rows:
                if row.empirical_tail > row.bound + 3 * row.stderr:
                    ok = False
                    detail.append(f"N={n} {functional} eps={row.epsilon}: "
                                  f"tail {row.empirical_tail:.4f} > bound {row.bound:.4f}")
    positive = functional_samples(40, ("tmi", (1, 1, 1), LINEAR), 10_000,
                                  seed=SEED + 99, threads=2)
    frac = float(np.mean(positive > 0))
    ok = ok and frac >= 0.99
    gate("14", ok, "; ".join(detail) or
         f"all tails below bound; positive-TMI fraction at N=40: {frac:.4f} "
         f"({time.perf_counter() - started:.0f}s)")
