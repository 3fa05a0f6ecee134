"""Scattering Green's-tensor traces: algebra oracles, symmetries, frozen values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chiralcp.greens as greens
from chiralcp import CavitySpec, GreensConfig, MirrorSpec, Side, symmetric_cavity
from chiralcp.greens import (
    image_strengths,
    reflection_matrix,
    round_trip_eigenvalues,
    trace_G_imaginary,
    trace_G_real_resonant,
    trace_G_xi2_zero_limit,
    trace_curl_G_imaginary,
    trace_curl_G_real_resonant,
)

W10 = 6.44e15
CAV = symmetric_cavity(1e-3, 0.05, 0.8)


def flipped_rc(cavity: CavitySpec) -> CavitySpec:
    return CavitySpec(
        cavity.width_a,
        MirrorSpec(cavity.mirror_A.r_e, -cavity.mirror_A.r_c, Side.A),
        MirrorSpec(cavity.mirror_B.r_e, -cavity.mirror_B.r_c, Side.B),
    )


# ----------------------------------------------------------------------
# Reflection algebra oracles.

def test_reflection_matrix_conventions():
    mA = MirrorSpec(0.05, 0.8, Side.A)
    mB = MirrorSpec(0.05, 0.8, Side.B)
    np.testing.assert_array_equal(
        reflection_matrix(mA), [[-0.05, 0.8], [-0.8, 0.05]]
    )
    np.testing.assert_array_equal(
        reflection_matrix(mB), [[-0.05, -0.8], [0.8, 0.05]]
    )


@settings(max_examples=40, deadline=None)
@given(
    re_=st.floats(0.0, 1.0),
    rc=st.floats(-1.0, 1.0),
    z_frac=st.floats(0.05, 0.95),
    xi_frac=st.floats(0.05, 2.0),
)
def test_accepted_mirrors_are_passive(re_, rc, z_frac, xi_frac):
    """A mirror is accepted iff its reflection matrix has spectral norm <= 1;
    the traces of accepted mirrors are finite on the single and series paths."""
    lam = 2.0 * math.pi * 2.99792458e8 / W10
    norm = np.linalg.norm([[-re_, rc], [-rc, re_]], 2)  # side-A convention
    try:
        cav = symmetric_cavity(2.0 * lam, re_, rc)
    except ValueError:
        assert norm > 1.0
        return
    for mirror in (cav.mirror_A, cav.mirror_B):
        assert np.linalg.norm(reflection_matrix(mirror), 2) <= 1.0 + 1e-12
    z, xi = z_frac * cav.width_a, xi_frac * W10
    for path in ("single", "series"):
        cfg = GreensConfig(path=path)
        assert math.isfinite(trace_G_imaginary(xi, z, cav, cfg))
        assert math.isfinite(trace_curl_G_imaginary(xi, z, cav, cfg))


def test_round_trip_eigenvalues_against_numpy():
    cav = CavitySpec(
        1e-3, MirrorSpec(0.1, 0.6, Side.A), MirrorSpec(0.3, 0.2, Side.B)
    )
    lam = sorted(round_trip_eigenvalues(cav))
    m = reflection_matrix(cav.mirror_A) @ reflection_matrix(cav.mirror_B)
    ref = sorted(np.linalg.eigvals(m).real)
    assert lam == pytest.approx(ref, rel=1e-12)


def test_image_strengths_identities():
    cav = CavitySpec(
        1e-3, MirrorSpec(0.1, 0.6, Side.A), MirrorSpec(0.3, 0.2, Side.B)
    )
    lam_p, lam_m = round_trip_eigenvalues(cav)
    # zeroth image is the bare single reflection
    eA, gA, eB, gB = image_strengths(cav, 0)
    assert (eA, gA) == (cav.mirror_A.r_e, cav.mirror_A.r_c)
    assert (eB, gB) == (cav.mirror_B.r_e, cav.mirror_B.r_c)
    # the +/- combinations diagonalize the round trip exactly
    for n in (1, 2, 5):
        eA, gA, eB, gB = image_strengths(cav, n)
        assert eA + gA == pytest.approx(
            (cav.mirror_A.r_e + cav.mirror_A.r_c) * lam_p**n, rel=1e-13
        )
        assert eA - gA == pytest.approx(
            (cav.mirror_A.r_e - cav.mirror_A.r_c) * lam_m**n, rel=1e-13
        )
        assert eB + gB == pytest.approx(
            (cav.mirror_B.r_e + cav.mirror_B.r_c) * lam_p**n, rel=1e-13
        )


# ----------------------------------------------------------------------
# Frozen values at the 1 mm operating point (regression anchors).

def test_frozen_trace_values():
    z = 200e-9
    assert trace_G_imaginary(W10 / 2, z, CAV) == pytest.approx(
        -426.41935959634344, rel=1e-9
    )
    assert trace_curl_G_imaginary(W10 / 2, z, CAV) == pytest.approx(
        -26719985127.46821, rel=1e-9
    )
    b = trace_G_real_resonant(W10, z, CAV)
    assert b.real == pytest.approx(-11195.64875382734, rel=1e-9)
    assert b.imag == pytest.approx(-16458.792020803747, rel=1e-9)
    c = trace_curl_G_real_resonant(W10, z, CAV)
    assert c.real == pytest.approx(1208503094290.8728, rel=1e-9)
    assert c.imag == pytest.approx(-1052072825879.7546, rel=1e-9)


def test_xi2_zero_limit_matches_small_xi():
    z = 200e-9
    limit = trace_G_xi2_zero_limit(z, CAV)
    assert limit == pytest.approx(-2.2350207707273353e34, rel=1e-9)
    xi = 1e-3 * W10
    small = xi**2 * trace_G_imaginary(xi, z, CAV)
    assert small == pytest.approx(limit, rel=1e-5)


# ----------------------------------------------------------------------
# Chirality structure.

@pytest.mark.parametrize("path", ["single", "series"])
def test_global_chirality_flip_is_exact(path):
    """Flipping both mirrors' r_c negates curl traces and keeps tr G, exactly."""
    cfg = GreensConfig(path=path)
    flip = flipped_rc(CAV)
    for z in (150e-9, 2e-6, 4.3e-4):
        assert trace_G_imaginary(W10 / 3, z, CAV, cfg) == trace_G_imaginary(
            W10 / 3, z, flip, cfg
        )
        assert trace_curl_G_imaginary(W10 / 3, z, CAV, cfg) == -trace_curl_G_imaginary(
            W10 / 3, z, flip, cfg
        )
        assert trace_curl_G_real_resonant(
            W10, z, CAV, cfg
        ) == -trace_curl_G_real_resonant(W10, z, flip, cfg)


def test_single_path_is_linear_in_coefficients():
    cfg = GreensConfig(path="single")
    z, xi = 300e-9, W10 / 2

    def cav_of(re_, rc):
        return symmetric_cavity(1e-3, re_, rc)

    g1 = trace_G_imaginary(xi, z, cav_of(0.02, 0.5), cfg)
    g2 = trace_G_imaginary(xi, z, cav_of(0.04, 0.5), cfg)
    assert g2 == pytest.approx(2.0 * g1, rel=1e-13)
    # tr G takes no r_c contribution at single-reflection order
    assert trace_G_imaginary(xi, z, cav_of(0.02, 0.0), cfg) == pytest.approx(
        g1, rel=1e-13
    )
    c1 = trace_curl_G_imaginary(xi, z, cav_of(0.05, 0.3), cfg)
    c2 = trace_curl_G_imaginary(xi, z, cav_of(0.05, 0.6), cfg)
    assert c2 == pytest.approx(2.0 * c1, rel=1e-13)
    assert trace_curl_G_imaginary(xi, z, cav_of(0.7, 0.3), cfg) == pytest.approx(
        c1, rel=1e-13
    )


def test_zero_mirrors_give_zero_traces():
    cav = symmetric_cavity(1e-3, 0.0, 0.0)
    z = 1e-6
    assert trace_G_imaginary(W10, z, cav) == 0.0
    assert trace_curl_G_imaginary(W10, z, cav) == 0.0
    assert trace_G_real_resonant(W10, z, cav) == 0.0
    assert trace_curl_G_real_resonant(W10, z, cav) == 0.0


def test_midplane_chiral_null():
    """Opposite-chirality symmetric cavity: curl traces vanish at z = a/2."""
    lam = 2.0 * math.pi * 2.99792458e8 / W10
    cav = symmetric_cavity(4.0 * lam, 0.05, 0.8)
    cfg = GreensConfig(path="series")
    mid = cav.width_a / 2.0
    off = trace_curl_G_imaginary(W10 / 2, cav.width_a / 3.0, cav, cfg)
    assert abs(trace_curl_G_imaginary(W10 / 2, mid, cav, cfg)) < 1e-10 * abs(off)
    off_r = trace_curl_G_real_resonant(W10, cav.width_a / 3.0, cav, cfg)
    assert abs(trace_curl_G_real_resonant(W10, mid, cav, cfg)) < 1e-10 * abs(off_r)


@settings(max_examples=25, deadline=None)
@given(
    z_frac=st.floats(0.02, 0.98),
    re_=st.floats(0.0, 0.4),
    rc=st.floats(-0.6, 0.6),
    xi_frac=st.floats(0.05, 2.0),
)
def test_mirrored_position_equivalence(z_frac, re_, rc, xi_frac):
    """tr G is even under (z -> a - z, r_c -> -r_c); curl traces are even too."""
    a = 1e-3
    cav = symmetric_cavity(a, re_, rc)
    flip = flipped_rc(cav)
    z, xi = z_frac * a, xi_frac * W10
    g, gf = trace_G_imaginary(xi, z, cav), trace_G_imaginary(xi, a - z, flip)
    assert gf == pytest.approx(g, rel=1e-9, abs=1e-300)
    c, cf = trace_curl_G_imaginary(xi, z, cav), trace_curl_G_imaginary(xi, a - z, flip)
    assert cf == pytest.approx(c, rel=1e-9, abs=1e-300)


# ----------------------------------------------------------------------
# Evaluation-path agreement and robustness.

def test_direct_path_chirality_flip():
    lam = 2.0 * math.pi * 2.99792458e8 / W10
    cav = symmetric_cavity(2.0 * lam, 0.05, 0.8)
    cfg = GreensConfig(path="direct")
    z = 0.7 * lam
    c = trace_curl_G_imaginary(W10, z, cav, cfg)
    cf = trace_curl_G_imaginary(W10, z, flipped_rc(cav), cfg)
    assert cf == -c


def test_direct_path_cutoff_insensitivity(monkeypatch):
    """The evanescent cutoff plus analytic tail is cutoff-independent."""
    lam = 2.0 * math.pi * 2.99792458e8 / W10
    cav = symmetric_cavity(2.0 * lam, 0.05, 0.8)
    z = 0.45 * lam
    direct = GreensConfig(path="direct")
    a = trace_G_imaginary(W10 / 2, z, cav, direct)
    monkeypatch.setattr(greens, "_EVANESCENT_CUTOFF_WEIGHT", 1e-12)
    b = trace_G_imaginary(W10 / 2, z, cav, direct)
    assert b != a
    assert b == pytest.approx(a, rel=1e-8)


@pytest.mark.parametrize("nu", [4, 7])
def test_direct_path_at_midplane_matches_series(nu):
    """The curl integrand cancels pointwise at z = a/2; direct still converges."""
    lam = 2.0 * math.pi * 2.99792458e8 / W10
    cav = symmetric_cavity(nu * lam / 4.0, 0.05, 0.8)
    mid = cav.width_a / 2.0
    series = trace_curl_G_imaginary(W10, mid, cav, GreensConfig(path="series"))
    direct = trace_curl_G_imaginary(W10, mid, cav, GreensConfig(path="direct"))
    off = trace_curl_G_imaginary(
        W10, cav.width_a / 3.0, cav, GreensConfig(path="series")
    )
    assert abs(direct - series) < 1e-10 * abs(off)


def test_position_validation():
    with pytest.raises(ValueError):
        trace_G_imaginary(W10, -1e-9, CAV)
    with pytest.raises(ValueError):
        trace_G_imaginary(W10, 2e-3, CAV)
    with pytest.raises(ValueError):
        GreensConfig(path="magic")
