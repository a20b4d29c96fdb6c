"""SIM001 positive fixture: float tick literals and implicit tie-breaking."""


def check(sim, job):
    if job.deadline < 5000.0:
        return True
    if sim.now > 1.5:
        return False
    sim.schedule_at(10, job.run)
    sim.schedule_after(5, job.run)
    return None


def check_operands(sim, handler, job):
    # Positional operands do not stand in for a missing priority.
    sim.schedule_at(10, handler, job)
    sim.schedule_after(5, handler, job, "budget")
