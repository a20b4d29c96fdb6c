"""Property: the simulator fires events in sorted ``(time, priority, seq)``
order and skips cancelled ones.

Random scripts of ``schedule_at`` / ``schedule_after`` / ``cancel`` calls
run against :class:`~repro.sim.Simulator` and against a naive model that
keeps its pending events in a plain list and sorts it before every pick.
Events scheduled by firing events run further script steps, so calls
land at every simulated time, and the small time and priority ranges
make equal times and equal priorities the common case.

Each scheduled event also carries zero to three positional operands
(zero means a zero-argument closure) and a label given either as text or
as a tuple of parts.  The log records the operands the callback received
and the handle's ``label`` when it fires; the model logs the operands it
was given and the ``":"``-joined label text, so a callback that gets the
wrong arguments or a label joined any other way fails the comparison.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator

#: Cap on events one script may schedule (fired callbacks schedule more).
MAX_EVENTS = 60

ACTION = st.tuples(
    st.sampled_from(["at", "after", "cancel"]),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=3),  # positional operands
    st.booleans(),  # label given as a tuple of parts
)
SCRIPT = st.lists(st.lists(ACTION, max_size=3), min_size=1, max_size=20)


class NaiveCalendar:
    """Pending events in a list, sorted in full before every pick."""

    def __init__(self):
        self.now = 0
        self.scheduled = 0
        self.pending = []  # [time, priority, seq, event id]
        self.fired = set()
        self.cancelled = set()

    def schedule(self, time, priority, event_id):
        self.scheduled += 1
        self.pending.append([time, priority, self.scheduled, event_id])

    def cancel(self, event_id):
        if event_id in self.fired or event_id in self.cancelled:
            return False
        self.cancelled.add(event_id)
        return True

    def run(self, fire):
        while self.pending:
            self.pending.sort()
            time, _, _, event_id = self.pending.pop(0)
            if event_id in self.cancelled:
                continue
            self.now = time
            self.fired.add(event_id)
            fire(event_id)


def operands(event_id, count):
    """The positional operands event *event_id* is scheduled with."""
    return tuple(f"{event_id}.{index}" for index in range(count))


def label_parts(event_id, priority, count):
    return ("ev", event_id, priority, *operands(event_id, count))


def play(script, calendar_factory):
    """Run *script* on one calendar; returns the log of fires and cancels."""
    log = []
    handles = []

    def run_step(step):
        for kind, value, priority, count, tuple_label in script[step % len(script)]:
            if kind == "cancel":
                if handles:
                    log.append(("cancel", value % len(handles), cancel(value % len(handles))))
            elif len(handles) < MAX_EVENTS:
                event_id = len(handles)
                handles.append(
                    schedule(kind, value, priority, event_id, count, tuple_label)
                )

    schedule, cancel, run = calendar_factory(log, run_step)
    run_step(0)
    run()
    return log


def simulator_calendar(log, run_step):
    sim = Simulator()
    handles = {}

    def fire(event_id, *received):
        log.append(("fire", event_id, sim.now, received, handles[event_id].label))
        run_step(event_id + 1)

    def schedule(kind, value, priority, event_id, count, tuple_label):
        parts = label_parts(event_id, priority, count)
        label = parts if tuple_label else ":".join(map(str, parts))
        if count:
            callback, args = fire, (event_id, *operands(event_id, count))
        else:
            callback, args = (lambda: fire(event_id)), ()
        if kind == "at":
            handle = sim.schedule_at(
                sim.now + value, callback, *args, priority=priority, label=label
            )
        else:
            handle = sim.schedule_after(
                value, callback, *args, priority=priority, label=label
            )
        handles[event_id] = handle
        return handle

    def cancel(event_id):
        return handles[event_id].cancel()

    def run():
        sim.run()
        log.append(("executed", sim.events_executed, sim.pending_count()))

    return schedule, cancel, run


def naive_calendar(log, run_step):
    calendar = NaiveCalendar()
    expected = {}

    def schedule(kind, value, priority, event_id, count, tuple_label):
        # "at now + v" and "after v" are the same request to the model.
        calendar.schedule(calendar.now + value, priority, event_id)
        label = ":".join(str(part) for part in label_parts(event_id, priority, count))
        expected[event_id] = (operands(event_id, count), label)
        return event_id

    def fire(event_id):
        log.append(("fire", event_id, calendar.now, *expected[event_id]))
        run_step(event_id + 1)

    def run():
        calendar.run(fire)
        log.append(("executed", len(calendar.fired), 0))

    return schedule, calendar.cancel, run


@given(script=SCRIPT)
@settings(max_examples=300, deadline=None)
def test_fires_in_sorted_key_order_skipping_cancelled(script):
    assert play(script, simulator_calendar) == play(script, naive_calendar)

