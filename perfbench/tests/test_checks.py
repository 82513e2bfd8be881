"""Each benchmark check accepts the closed-form answer and rejects a
perturbed one, so a wrong program output cannot pass unnoticed.

    python3 -m pytest perfbench/tests -q
"""

import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import checks
import workloads
from ncqmlab.polysymbol import x1, x2
from ncqmlab.structures import jacobi_residual, symplectic_matrix_field
from tracer import NullTracer, Tracer


@pytest.mark.parametrize("rtol", [checks.LEVEL_RTOL_ADAPTED,
                                  checks.LEVEL_RTOL_UNIT])
def test_levels_reject_a_level_shifted_by_1e_6(rtol):
    B = 1.6
    exact = checks.landau_levels(B, 3)
    assert list(exact) == pytest.approx([0.8, 2.4, 4.0])
    assert checks.check_levels("ok", exact, [5, 4, 3], B, rtol) == []
    shifted = exact.copy()
    shifted[0] += 1e-6
    assert checks.check_levels("bad", shifted, [5, 4, 3], B, rtol)


def test_levels_reject_a_singleton_cluster():
    exact = checks.landau_levels(1.0, 2)
    assert checks.check_levels("bad", exact, [3, 1], 1.0, 1e-10)


def _projector_pair(dim=6, seed=0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim))
                        + 1j * rng.normal(size=(dim, dim)))
    return [np.outer(q[:, n], q[:, n].conj()) for n in range(2)]


def test_projectors_accept_exact_and_reject_perturbed():
    P = _projector_pair()
    B = 0.8
    energies = checks.landau_levels(B, 2)
    assert checks.check_projectors("ok", P, energies, B) == []
    scaled = [P[0] * (1 + 1e-6), P[1]]
    assert checks.check_projectors("idempotency", scaled, energies, B)
    skewed = [P[0].copy(), P[1]]
    skewed[0][0, 1] += 1e-9
    assert checks.check_projectors("hermiticity", skewed, energies, B)
    overlapping = [P[0], P[1] + 1e-6 * P[0]]
    assert checks.check_projectors("overlap", overlapping, energies, B)
    assert checks.check_projectors("energy", P, energies + [1e-6, 0.0], B)


@pytest.mark.parametrize("N", [0, 1, 2])
def test_commutator_laws_reject_a_coefficient_off_by_1e_6(N):
    B = 1.3
    report = checks.commutator_coefficients(N, B)
    assert report["coefficient_X1X2"] == pytest.approx(-(N + 1) / B)
    assert report["coefficient_P1P2"] == pytest.approx(-B * (N + 1) / 4)
    assert checks.check_commutators("ok", report, N, B) == []
    for key in report:
        bad = dict(report)
        bad[key] += 1e-6
        assert checks.check_commutators("bad", bad, N, B), key
    missing = dict(report)
    del missing["coefficient_X1P1"]
    assert checks.check_commutators("missing", missing, N, B)


def test_sinc_rejects_a_perturbed_interior_column():
    P = _projector_pair()[0]
    interior = np.eye(P.shape[0])[:, :3]
    assert checks.check_sinc("ok", P.copy(), P, interior) == []
    S = P.copy()
    S[1, 2] += 1e-6
    assert checks.check_sinc("bad", S, P, interior)


def test_two_frequency_ground_level_matches_the_acceptance_oracle():
    B, lam = 50.0, 0.1
    ground = checks.two_frequency_levels(B, lam, 1.0, 1)[0]
    assert ground == pytest.approx(np.sqrt(B * B / 4 + 2 * lam), rel=1e-14)


def test_quadratic_peierls_rejects_shifted_levels():
    B, lam, c1 = 20.0, 0.1, 0.7
    full = checks.two_frequency_levels(B, lam, c1, 3)
    eps = checks.lowest_level_levels(B, lam, c1, 3)
    assert checks.check_quadratic_peierls("ok", full, eps, B, lam, c1) == []
    assert checks.check_quadratic_peierls("bad", full + [0, 1e-6, 0], eps,
                                          B, lam, c1)
    assert checks.check_quadratic_peierls("bad", full, eps * (1 + 1e-6),
                                          B, lam, c1)


def test_deviation_trend():
    assert checks.check_deviation_shrinks("ok", 1e-3, 1e-4) == []
    assert checks.check_deviation_shrinks("bad", 1e-4, 1e-4)


def test_gauge_frequencies_match_the_acceptance_values():
    assert checks.gauge_frequency("symmetric", 2.0, 0.25) == pytest.approx(2.25)
    assert checks.gauge_frequency("landau", 2.0, 0.25) == pytest.approx(2.0)


def test_frequency_rejects_an_answer_off_by_1e_3():
    assert checks.check_frequency("ok", 2.25, 2.25) == []
    assert checks.check_frequency("bad", 2.25 * (1 + 1e-3), 2.25)


def _exact_quadratic_orbit(gauge, theta=0.3, curlyB=4.0, T=2.0, h=1e-3):
    A = checks.standard_omega(theta, 0.0) \
        @ checks.minimal_coupling_hessian(gauge, curlyB)
    times = h * np.arange(int(round(T / h)) + 1)
    xi0 = np.array([1.0, 0.2, -0.3, 0.4])
    states = np.array([expm(t * A) @ xi0 for t in times[::250]])
    S = checks.minimal_coupling_hessian(gauge, curlyB)
    energy = 0.5 * np.einsum("ni,ij,nj->n", states, S, states)
    return times[::250], states, (A @ states.T).T[:, :2], energy


@pytest.mark.parametrize("gauge", workloads.GAUGES)
def test_quadratic_orbit_rejects_a_perturbed_state(gauge):
    times, states, velocities, energy = _exact_quadratic_orbit(gauge)
    rows = [0, len(times) // 2, len(times) - 1]
    assert checks.check_quadratic_orbit(
        "ok", times, states, velocities, energy, 0.3, gauge, 4.0, rows) == []
    bad = states.copy()
    bad[-1, 1] += 1e-6
    assert checks.check_quadratic_orbit(
        "state", times, bad, velocities, energy, 0.3, gauge, 4.0, rows)
    drifting = energy + np.linspace(0.0, 1e-6, len(energy))
    assert checks.check_quadratic_orbit(
        "energy", times, states, velocities, drifting, 0.3, gauge, 4.0, rows)


def test_general_orbit_rejects_a_perturbed_state():
    H, rhs = checks.quartic_trap(0.2, 0.9, 1.0, 0.3)
    times = np.linspace(0.0, 1.0, 11)
    ref = solve_ivp(rhs, (0.0, 1.0), [0.4, -0.2, 0.1, 0.3], method="DOP853",
                    t_eval=times, rtol=1e-13, atol=1e-13)
    states = ref.y.T
    energy = np.array([H(s) for s in states])
    rows = [0, 5, 10]
    assert checks.check_general_orbit("ok", times, states, energy, H, rhs,
                                      rows) == []
    bad = states.copy()
    bad[10, 0] += 1e-6
    assert checks.check_general_orbit("bad", times, bad, energy, H, rhs, rows)


def test_jacobi_closed_form_matches_the_program_and_rejects_perturbation():
    theta, b0, b1, b2 = 0.3, 1.0, 0.4, -0.3
    field = b0 + b1 * x1() + b2 * x2() ** 2
    standard = symplectic_matrix_field(theta, field, "standard")
    point = np.array([0.3, -0.2, 0.1, 0.4])
    J = jacobi_residual(standard, point)
    want = checks.jacobi_standard(theta, b1, 2 * b2 * point[1])
    assert checks.check_jacobi("ok", J, want) == []
    assert want[1, 2, 3] == pytest.approx(-theta * b1)
    assert checks.check_jacobi("bad", J + 1e-6 * (np.abs(want) > 0), want)
    assert checks.check_jacobi("exotic", want, np.zeros((4, 4, 4)))


def test_csv_and_json_tables_compare_equal_and_detect_a_changed_digit():
    csv_text = "n,E_n,status\n0,0.5,ok\n1,1.5000000000000002,ok\n"
    json_text = ('{"n": [0, 1], "E_n": [0.5, 1.5000000000000002], '
                 '"status": ["ok", "ok"]}')
    a = checks.parse_csv_table(csv_text)
    b = checks.parse_json_table(json_text)
    assert checks.check_tables_equal("ok", a, b) == []
    c = checks.parse_json_table(json_text.replace("1.5000000000000002",
                                                  "1.5"))
    assert checks.check_tables_equal("bad", a, c)


def test_cli_star_check_rejects_a_perturbed_level():
    p = {"theta": 0.3, "B": 1.2}
    u = p["theta"] * p["B"]
    bbar = (2.0 / p["theta"]) * (np.sqrt(1.0 + u) - 1.0)
    manifest = {"Bbar": bbar, "Lambda_bar": 1.0 + 0.25 * p["theta"] * bbar,
                "Lambda_bar_times_Bbar": p["B"]}
    table = {"E_n": list(checks.landau_levels(p["B"], 5))}
    assert workloads._check_command("star", p, table, manifest) == []
    table["E_n"][2] += 1e-6
    assert workloads._check_command("star", p, table, manifest)


def test_ops_count_failures_and_rejected_results():
    ops = workloads.Ops(NullTracer())
    assert ops.call("a", lambda: 1) == 1
    assert ops.call("b", lambda: 1 / 0) is None
    assert ops.call("c", lambda: (3, ""), ok=lambda r: r[0] == 3) == (3, "")
    ops.call("d", lambda: (1, "boom"), ok=lambda r: r[0] == 3)
    assert (ops.attempted, ops.failed) == (4, 2)


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    tracer.begin_pass(0)
    with tracer.span("pass"):
        with tracer.span("outer"):
            time.sleep(0.02)
            with tracer.span("inner"):
                time.sleep(0.03)
    metrics = tracer.layer_metrics(["outer_s", "inner_s", "absent_s"], 1)
    assert metrics["inner_s"] >= 0.03
    assert 0.02 <= metrics["outer_s"] < 0.03 + 0.02
    assert metrics["absent_s"] == 0.0
