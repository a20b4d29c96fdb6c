"""SIM001 negative fixture: integer ticks and explicit priorities."""

PRIORITY_DEFAULT = 5


def check(sim, job, timeout_s):
    if job.deadline < 5000:
        return True
    if timeout_s > 1.5:
        return False
    sim.schedule_at(10, job.run, priority=PRIORITY_DEFAULT)
    sim.schedule_after(5, job.run, priority=PRIORITY_DEFAULT)
    return None


def check_operands(sim, handler, job):
    # Positional operands after the callback, priority still explicit.
    sim.schedule_at(10, handler, job, "budget", priority=PRIORITY_DEFAULT)
    sim.schedule_after(5, handler, job, priority=PRIORITY_DEFAULT)
