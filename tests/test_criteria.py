"""The acceptance criteria's record readers on hand-written transitions.log
lines. The criteria themselves run in test_acceptance.py."""

from emanetsim import acceptance as ac


def line(t, node, frm, to, trigger):
    """One transitions.log line, as World.log_transition writes it."""
    return f"{t:.9f}\t{node}\t{frm}\t{to}\t{trigger}"


def run_of(*lines, t_osc=30.0):
    return ac.PhaseRun(phases=(), transitions=lines, t_osc=t_osc)


def test_rate_limit_flags_one_gap_below_t_osc():
    run = run_of(
        line(100.0, 3, "p-phase", "o-toward-r", "count=12"),
        line(110.0, 3, "p-phase", "r-phase", "tc-count=13"),
        line(115.0, 3, "r-phase", "o-toward-p", "estimate=4"),
        line(125.0, 3, "o-toward-p", "r-phase", "probe-replies"),
        line(130.0, 3, "r-phase", "p-phase", "probe-silent"),
        line(160.0, 3, "p-phase", "r-phase", "tc-count=14"),
        line(100.0, 5, "p-phase", "r-phase", "cp:origin=3"),
        line(140.0, 5, "r-phase", "p-phase", "cp:origin=7"),
    )
    # node 3's shifts at 110 and 130 are 20 s apart; 130 -> 160 is exactly
    # t_osc; node 5's are 40 s apart; the o-phase lines between them are no
    # confirmed shifts, so they neither count as one nor split a gap
    assert ac._rate_limit_violations(run) == [("3", 110.0, 130.0)]
    assert ac._rate_limit_violations(run_of(*run.transitions, t_osc=19.0)) == []


def test_rate_limit_ignores_o_phase_lines():
    run = run_of(
        line(10.0, 1, "p-phase", "o-toward-r", "count=12"),
        line(12.0, 1, "o-toward-r", "p-phase", "tc-count-low=9"),
        line(14.0, 1, "p-phase", "o-toward-r", "count=12"),
    )
    assert ac._rate_limit_violations(run) == []


def test_adversary_filter_keeps_only_forged_cp_shifts():
    forged = line(50.0, 2, "p-phase", "r-phase", "cp:origin=8:adv")
    run = run_of(
        forged,
        line(51.0, 4, "p-phase", "r-phase", "cp:origin=2"),
        line(60.0, 1, "p-phase", "o-toward-r", "count=11"),
    )
    assert ac._adversary_shifts(run) == [forged]
    assert ac._adversary_shifts(run_of(*run.transitions[1:])) == []


def test_probe_filter_compares_verdicts_without_times():
    clean = run_of(
        line(80.0, 6, "r-phase", "o-toward-p", "estimate=4"),
        line(90.0, 6, "r-phase", "p-phase", "probe-silent"),
        line(95.0, 2, "r-phase", "p-phase", "cp:origin=6"),
        line(99.0, 4, "o-toward-p", "r-phase", "probe-replies"),
    )
    assert ac._probe_decisions(clean) == [
        ["6", "r-phase", "p-phase", "probe-silent"],
        ["4", "o-toward-p", "r-phase", "probe-replies"],
    ]
    # the same verdicts at other times read as identical; another verdict
    # does not
    shifted = run_of(line(91.5, 6, "r-phase", "p-phase", "probe-silent"),
                     line(99.5, 4, "o-toward-p", "r-phase", "probe-replies"))
    assert ac._probe_decisions(shifted) == ac._probe_decisions(clean)
    flipped = run_of(line(90.0, 6, "o-toward-p", "r-phase", "probe-replies"),
                     line(99.0, 4, "o-toward-p", "r-phase", "probe-replies"))
    assert ac._probe_decisions(flipped) != ac._probe_decisions(clean)
