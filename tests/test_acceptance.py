"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Every criterion runs its scenario families through the worker pool
(PARALLEL processes). A family that several criteria read, such as the
200-run default sweep behind criteria 1-5, runs once per process and is
then read from memory, as plain records. The suite takes minutes; deselect
it with `-k "not acceptance"` during development.

Criterion 7b fails at N=20 because runs of one scenario in different
security modes are not paired: relay jitter draws follow frame arrival
order, which the security mode shifts (see the README).
"""

import pytest

from emanetsim import acceptance as ac

PARALLEL = 2


def report(result):
    print(result.line())
    return result


def test_criterion_1_crossover():
    r = report(ac.criterion_crossover(PARALLEL))
    assert r.passed, r.detail


def test_criterion_2_cml_envelope():
    r = report(ac.criterion_cml_envelope(PARALLEL))
    assert r.passed, r.detail


def test_criterion_3_dsr_worst():
    r = report(ac.criterion_dsr_worst(PARALLEL))
    assert r.passed, r.detail


def test_criterion_4_jitter():
    r = report(ac.criterion_jitter(PARALLEL))
    assert r.passed, r.detail


def test_criterion_5_routing_load():
    r = report(ac.criterion_routing_load(PARALLEL))
    assert r.passed, r.detail


def test_criterion_6_analytic_exactness():
    r = report(ac.criterion_analytic_exactness())
    assert r.passed, r.detail


def test_criterion_7a_additivity():
    r = report(ac.criterion_additivity(PARALLEL))
    assert r.passed, r.detail


def test_criterion_7b_mode_ordering():
    r = report(ac.criterion_security_ordering(PARALLEL))
    assert r.passed, r.detail


def test_criterion_7c_ah_gap():
    # Both gaps, hybrid - esp-only and ah-only - none, are one AH pass per
    # hop plus the same 24 header bytes, so per packet they differ only by
    # the extra HMAC block the ESP header may add (none at 512 B payloads).
    # A strict inequality between them cannot hold under the cost model.
    r = report(ac.criterion_ah_gap(PARALLEL))
    assert r.passed, r.detail


def test_criterion_7d_goodput():
    r = report(ac.criterion_goodput(PARALLEL))
    assert r.passed, r.detail


def test_criterion_8a_phase_convergence():
    r = report(ac.criterion_phase_convergence(PARALLEL))
    assert r.passed, r.detail


def test_criterion_8b_hysteresis():
    r = report(ac.criterion_hysteresis(PARALLEL))
    assert r.passed, r.detail


def test_criterion_8c_rate_limit():
    r = report(ac.criterion_rate_limit(PARALLEL))
    assert r.passed, r.detail


def test_criterion_9_adversary_suite():
    r = report(ac.criterion_adversary(PARALLEL))
    assert r.passed, r.detail


def test_criterion_10a_route_oracles():
    r = report(ac.criterion_route_oracles())
    assert r.passed, r.detail


def test_criterion_10b_aodv_oracle():
    r = report(ac.criterion_aodv_oracle(PARALLEL))
    assert r.passed, r.detail


def test_criterion_10c_determinism():
    r = report(ac.criterion_determinism(PARALLEL))
    assert r.passed, r.detail
