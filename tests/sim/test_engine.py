"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Event, Interrupt, Process, SimulationError, Simulator
from repro.sim.engine import AllOf, AnyOf, Timeout


class TestTimeAdvance:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_timeout_advances_clock(self, sim):
        def proc():
            yield sim.timeout(1.5)
        sim.run(until=sim.process(proc()))
        assert sim.now == pytest.approx(1.5)

    def test_sequential_timeouts_accumulate(self, sim):
        def proc():
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)
        sim.run(until=sim.process(proc()))
        assert sim.now == pytest.approx(3.0)

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_zero_timeout_allowed(self, sim):
        def proc():
            yield sim.timeout(0.0)
            return "done"
        assert sim.run(until=sim.process(proc())) == "done"

    def test_run_until_deadline(self, sim):
        def proc():
            yield sim.timeout(10.0)
        sim.process(proc())
        sim.run(until=3.0)
        assert sim.now == pytest.approx(3.0)

    def test_run_empty_queue_to_deadline(self, sim):
        sim.run(until=5.0)
        assert sim.now == pytest.approx(5.0)


class TestProcesses:
    def test_return_value(self, sim):
        def proc():
            yield sim.timeout(1)
            return 42
        assert sim.run(until=sim.process(proc())) == 42

    def test_requires_generator(self, sim):
        def not_a_gen():
            return 5
        with pytest.raises(TypeError, match="generator"):
            sim.process(not_a_gen)  # type: ignore[arg-type]

    def test_yield_non_event_rejected(self, sim):
        def proc():
            yield 42
        with pytest.raises(SimulationError, match="yield Event"):
            sim.run(until=sim.process(proc()))

    def test_join_process(self, sim):
        def child():
            yield sim.timeout(2)
            return "child-result"

        def parent():
            result = yield sim.process(child())
            return result
        assert sim.run(until=sim.process(parent())) == "child-result"
        assert sim.now == pytest.approx(2.0)

    def test_yield_from_composition(self, sim):
        def helper():
            yield sim.timeout(1)
            return 10

        def proc():
            a = yield from helper()
            b = yield from helper()
            return a + b
        assert sim.run(until=sim.process(proc())) == 20
        assert sim.now == pytest.approx(2.0)

    def test_crash_without_joiner_surfaces(self, sim):
        def bad():
            yield sim.timeout(1)
            raise ValueError("boom")
        sim.process(bad())
        with pytest.raises(SimulationError, match="crashed"):
            sim.run()

    def test_crash_propagates_to_joiner(self, sim):
        def bad():
            yield sim.timeout(1)
            raise ValueError("boom")

        def parent():
            try:
                yield sim.process(bad())
            except ValueError:
                return "caught"
        assert sim.run(until=sim.process(parent())) == "caught"

    def test_interrupt(self, sim):
        def victim():
            try:
                yield sim.timeout(100)
            except Interrupt as e:
                return f"interrupted:{e.cause}"

        def attacker(v):
            yield sim.timeout(1)
            v.interrupt("why")
        v = sim.process(victim())
        sim.process(attacker(v))
        assert sim.run(until=v) == "interrupted:why"
        assert sim.now == pytest.approx(1.0)

    def test_interrupt_finished_process_rejected(self, sim):
        def quick():
            yield sim.timeout(0)
        p = sim.process(quick())
        sim.run(until=p)
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_concurrent_processes_interleave(self, sim):
        log = []

        def worker(name, delay):
            yield sim.timeout(delay)
            log.append((name, sim.now))
        sim.process(worker("a", 2))
        sim.process(worker("b", 1))
        sim.run()
        assert log == [("b", 1.0), ("a", 2.0)]


class TestEvents:
    def test_manual_succeed(self, sim):
        ev = sim.event()

        def proc():
            val = yield ev
            return val
        p = sim.process(proc())
        ev.succeed("hello")
        assert sim.run(until=p) == "hello"

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")  # type: ignore[arg-type]

    def test_fail_throws_into_waiter(self, sim):
        ev = sim.event()

        def proc():
            try:
                yield ev
            except RuntimeError as e:
                return str(e)
        p = sim.process(proc())
        ev.fail(RuntimeError("bad"))
        assert sim.run(until=p) == "bad"

    def test_value_before_trigger_rejected(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_waiting_on_processed_event(self, sim):
        """A process that yields an already-processed event resumes."""
        ev = sim.event()
        ev.succeed("early")
        sim.run()  # processes the event

        def proc():
            val = yield ev
            return val
        assert sim.run(until=sim.process(proc())) == "early"


class TestConditions:
    def test_all_of(self, sim):
        def proc():
            vals = yield sim.all_of([sim.timeout(1, "a"), sim.timeout(3, "b")])
            return vals
        assert sim.run(until=sim.process(proc())) == ["a", "b"]
        assert sim.now == pytest.approx(3.0)

    def test_all_of_empty(self, sim):
        def proc():
            vals = yield sim.all_of([])
            return vals
        assert sim.run(until=sim.process(proc())) == []

    def test_any_of(self, sim):
        def proc():
            idx, val = yield sim.any_of(
                [sim.timeout(5, "slow"), sim.timeout(1, "fast")])
            return idx, val
        assert sim.run(until=sim.process(proc())) == (1, "fast")
        assert sim.now == pytest.approx(1.0)

    def test_any_of_duplicate_event_reports_its_index(self, sim):
        """The same Event listed twice must not always report index 0."""
        slow = sim.timeout(5, "slow")
        fast = sim.timeout(1, "fast")

        def proc():
            idx, val = yield sim.any_of([slow, fast, fast])
            return idx, val
        # The first registration of `fast` fires first: index 1, not 0.
        assert sim.run(until=sim.process(proc())) == (1, "fast")

    def test_any_of_duplicate_only_triggers_once(self, sim):
        ev = sim.event()
        cond = sim.any_of([ev, ev])
        ev.succeed("x")
        sim.run()
        assert cond.value == (0, "x")

    def test_all_of_duplicate_event_counts_each_listing(self, sim):
        """AllOf([e, e]) must wait for both *listings*, i.e. complete when
        e fires — not hang at 1/2 nor double-complete."""
        ev = sim.event()

        def proc():
            vals = yield sim.all_of([ev, ev])
            return vals
        p = sim.process(proc())
        ev.succeed("v")
        assert sim.run(until=p) == ["v", "v"]

    def test_all_of_mixed_duplicates(self, sim):
        a = sim.timeout(1, "a")
        b = sim.timeout(2, "b")

        def proc():
            vals = yield sim.all_of([a, b, a])
            return vals
        assert sim.run(until=sim.process(proc())) == ["a", "b", "a"]
        assert sim.now == pytest.approx(2.0)


class TestDeterminism:
    def test_fifo_among_simultaneous(self, sim):
        log = []

        def worker(name):
            yield sim.timeout(1.0)
            log.append(name)
        for name in ("a", "b", "c"):
            sim.process(worker(name))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_repeatable(self):
        def build_and_run():
            s = Simulator()
            log = []

            def w(n, d):
                yield s.timeout(d)
                log.append(n)
            for i in range(20):
                s.process(w(i, (i * 7) % 5))
            s.run()
            return log
        assert build_and_run() == build_and_run()

    def test_max_events_guard(self, sim):
        def forever():
            while True:
                yield sim.timeout(1)
        sim.process(forever())
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=100)

    @pytest.mark.parametrize("until", ["drain", "process", "deadline"])
    @pytest.mark.parametrize("budget", ["exact", "one_short", "zero",
                                        "negative"])
    def test_max_events_budget(self, budget, until):
        """At most ``max_events`` events run; the stop event and the
        deadline are checked before the budget, so a run that ends
        within it returns normally, and a budget <= 0 raises before the
        first event."""
        def build():
            sim = Simulator()

            def ticker():
                for _ in range(3):
                    yield sim.timeout(1.0)
            proc = sim.process(ticker())
            sim.timeout(10.0)    # keeps the queue non-empty past the stop
            return sim, {"drain": None, "process": proc,
                         "deadline": 2.5}[until]

        ref, stop = build()
        ref.run(until=stop)
        needed = ref.events_processed
        limit = {"exact": needed, "one_short": needed - 1, "zero": 0,
                 "negative": -1}[budget]
        sim, stop = build()
        if budget == "exact":
            sim.run(until=stop, max_events=limit)
            assert (sim.now, sim.events_processed) == (ref.now, needed)
        else:
            with pytest.raises(SimulationError,
                               match=f"max_events={limit} "):
                sim.run(until=stop, max_events=limit)
            assert sim.events_processed == max(limit, 0)

    def test_deadlock_detected(self, sim):
        ev = sim.event()

        def stuck():
            yield ev
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run(until=sim.process(stuck()))

    def test_events_processed_counter(self, sim):
        def proc():
            yield sim.timeout(1)
            yield sim.timeout(1)
        sim.run(until=sim.process(proc()))
        assert sim.events_processed >= 3  # boot + two timeouts

    def test_peek(self, sim):
        assert sim.peek() == float("inf")
        sim.timeout(2.5)
        assert sim.peek() == pytest.approx(2.5)


class TestTriggerDelayValidation:
    """succeed() and fail() must validate delays identically."""

    def test_succeed_rejects_none_delay(self, sim):
        with pytest.raises(ValueError, match="None"):
            sim.event().succeed("v", delay=None)  # type: ignore[arg-type]

    def test_fail_rejects_none_delay(self, sim):
        # Historically fail() silently coerced None to 0.0.
        with pytest.raises(ValueError, match="None"):
            sim.event().fail(RuntimeError("x"), delay=None)  # type: ignore[arg-type]

    def test_succeed_rejects_negative_delay(self, sim):
        with pytest.raises(ValueError, match="negative"):
            sim.event().succeed("v", delay=-1.0)

    def test_fail_rejects_negative_delay(self, sim):
        with pytest.raises(ValueError, match="negative"):
            sim.event().fail(RuntimeError("x"), delay=-0.5)

    def test_succeed_rejects_non_numeric_delay(self, sim):
        with pytest.raises(ValueError, match="real number"):
            sim.event().succeed("v", delay="soon")  # type: ignore[arg-type]

    def test_rejected_delay_leaves_event_pending(self, sim):
        ev = sim.event()
        with pytest.raises(ValueError):
            ev.succeed("v", delay=-1.0)
        assert not ev.triggered
        ev.succeed("v", delay=1.0)  # still usable
        sim.run()
        assert ev.value == "v"

    def test_integer_delay_accepted(self, sim):
        ev = sim.event()
        ev.succeed("v", delay=2)
        sim.run()
        assert sim.now == pytest.approx(2.0)


NAN = float("nan")


class TestNanDelayRejected:
    """NaN passes ``x < 0``; every delay guard must still reject it."""

    @pytest.mark.parametrize("trigger", [
        lambda sim: sim.timeout(NAN),
        lambda sim: sim.timeout_at(NAN),
        lambda sim: sim.event().succeed("v", delay=NAN),
        lambda sim: sim.event().fail(RuntimeError("x"), delay=NAN),
    ], ids=["timeout", "timeout_at", "succeed", "fail"])
    def test_nan_rejected(self, sim, trigger):
        with pytest.raises(ValueError, match="nan"):
            trigger(sim)
        assert sim.peek() == float("inf")  # nothing was scheduled

    def test_process_cannot_reach_nan_time(self, sim):
        def proc():
            yield sim.timeout(NAN)
            yield sim.timeout(1.0)
        with pytest.raises(SimulationError, match="crashed"):
            sim.run(until=sim.process(proc()))
        assert sim.now == 0.0


class TestDeadlockDiagnostics:
    def test_report_names_stranded_process(self, sim):
        gate = sim.event(name="the-gate")

        def stuck():
            yield gate
        p = sim.process(stuck(), name="stuck-proc")
        with pytest.raises(SimulationError) as exc_info:
            sim.run(until=p)
        msg = str(exc_info.value)
        assert "deadlock" in msg
        assert "stuck-proc" in msg
        assert "the-gate" in msg

    def test_report_includes_wait_start_time(self, sim):
        gate = sim.event(name="gate")

        def stuck():
            yield sim.timeout(2.5)
            yield gate
        p = sim.process(stuck(), name="late-waiter")
        with pytest.raises(SimulationError, match=r"since t=2\.5"):
            sim.run(until=p)

    def test_report_lists_multiple_processes(self, sim):
        gate = sim.event(name="shared")

        def stuck():
            yield gate

        def forever():
            yield sim.process(stuck(), name="w-a")
        sim.process(stuck(), name="w-b")
        p = sim.process(forever(), name="joiner")
        with pytest.raises(SimulationError) as exc_info:
            sim.run(until=p)
        msg = str(exc_info.value)
        assert "w-a" in msg and "w-b" in msg and "joiner" in msg

    def test_stranded_processes_helper(self, sim):
        gate = sim.event(name="gate")

        def stuck():
            yield gate

        def done():
            yield sim.timeout(1)
        alive = sim.process(stuck(), name="alive")
        sim.process(done(), name="finished")
        sim.run()
        assert sim.stranded_processes() == [alive]
