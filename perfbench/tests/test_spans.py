import threading

import spans
from spans import ID, NAME, START, END, PARENT, OP, THREAD, NBYTES


def _span(sid, name, start, end, parent, thread):
    return (sid, name, start, end, parent, 1, thread, 0)


def test_self_time_of_nested_two_thread_tree():
    # root [0, 100] on thread A; its children overlap across threads:
    #   a [10, 40] on A, with grandchild a1 [15, 25] and a2 [20, 35] (overlapping)
    #   b [30, 70] on B, with grandchild b1 [60, 90] running past b's end
    tree = [
        _span(0, "cli.op", 0, 100, -1, "A"),
        _span(1, "calibration.a", 10, 40, 0, "A"),
        _span(2, "frequency.a1", 15, 25, 1, "A"),
        _span(3, "frequency.a2", 20, 35, 1, "A"),
        _span(4, "diffusion.b", 30, 70, 0, "B"),
        _span(5, "denoiser.b1", 60, 90, 4, "B"),
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == 100 - (70 - 10)  # union of a and b is [10, 70]
    assert selfs[1] == 30 - (35 - 15)  # union of a1 and a2 is [15, 35]
    assert selfs[2] == 10 and selfs[3] == 15
    assert selfs[4] == 40 - 10  # only [60, 70] of b1 lies inside b
    assert selfs[5] == 30


def test_recorder_attributes_pool_thread_spans_to_the_submitting_span():
    rec = spans.Recorder()

    def cell():
        return rec.span("calibration.cell", lambda: 1)

    def stage():
        t = threading.Thread(target=cell)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    rec.run_op(7, lambda: rec.span("cli.cmd_sweep", stage))
    by_name = {s[NAME]: s for s in rec.spans}
    root, sweep, cell_span = by_name["cli.op"], by_name["cli.cmd_sweep"], by_name["calibration.cell"]
    assert sweep[PARENT] == root[ID]
    assert cell_span[PARENT] == sweep[ID]
    assert cell_span[THREAD] != sweep[THREAD]
    assert {s[OP] for s in rec.spans} == {7}
    assert all(s[START] <= s[END] and s[NBYTES] == 0 for s in rec.spans)
