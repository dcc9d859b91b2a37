"""The open-loop schedule: due times do not move when the system stalls."""

import pytest

from bench.workloads import OpenLoop


class FakeTime:
    def __init__(self):
        self.now = 100.0
        self.slept = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds + 0.0005  # every sleep oversleeps a little


def test_due_time_is_the_schedule_not_the_send_time():
    fake = FakeTime()
    pacer = OpenLoop(rate=10.0, clock=fake.clock, sleep=fake.sleep)
    pacer.origin = fake.now
    due0, late0 = pacer.wait(0)
    assert due0 == 100.0 and late0 == 0.0
    fake.now += 0.35  # the system stalls for 3.5 periods
    due1, late1 = pacer.wait(1)
    due2, late2 = pacer.wait(2)
    assert (due1, due2) == pytest.approx((100.1, 100.2))  # on schedule, in the past
    assert late1 > 0.2 and late2 > 0.1  # and the generator says how late it ran
    assert fake.slept == []  # nothing to wait for: both were overdue
    due4, late4 = pacer.wait(4)  # back on schedule: sleeps up to the due time
    assert due4 == pytest.approx(100.4)
    assert len(fake.slept) == 1 and 0 < late4 < 0.001
