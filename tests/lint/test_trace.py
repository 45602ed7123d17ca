"""Unit tests for the symbolic trace extractor."""

from repro.lint import extract_trace
from repro.lint.trace import (ArgVal, Branch, Call, CbPtr, Loop,
                              NocAddrVal, const_int, iter_calls,
                              iter_calls_guarded)


def calls(fn):
    return list(iter_calls(extract_trace(fn).nodes))


class TestUnrolling:
    def test_const_range_is_unrolled(self):
        def kernel(ctx):
            for _ in range(3):
                yield from ctx.cb_reserve_back(0, 1)
        assert len([c for c in calls(kernel)
                    if c.name == "cb_reserve_back"]) == 3

    def test_tuple_literal_is_unrolled_with_destructuring(self):
        def kernel(ctx):
            for cb, n in ((2, 1), (3, 2)):
                yield from ctx.cb_reserve_back(cb, n)
        got = [(const_int(c.operand("cb_id")), const_int(c.operand("n")))
               for c in calls(kernel)]
        assert got == [(2, 1), (3, 2)]

    def test_unknown_trip_count_becomes_loop(self):
        def kernel(ctx):
            for _ in range(ctx.arg("n")):
                yield from ctx.cb_reserve_back(0, 1)
        trace = extract_trace(kernel)
        assert any(isinstance(n, Loop) for n in trace.nodes)


class TestInlining:
    def test_nested_helper_is_inlined(self):
        def kernel(ctx):
            def fill(cb):
                yield from ctx.cb_reserve_back(cb, 1)
                yield from ctx.cb_push_back(cb, 1)
            yield from fill(7)
        names = [c.name for c in calls(kernel)]
        assert names == ["cb_reserve_back", "cb_push_back"]
        assert const_int(calls(kernel)[0].operand("cb_id")) == 7


class TestValues:
    def test_cb_write_ptr_is_symbolic(self):
        def kernel(ctx):
            buf = ctx.arg("buf")
            yield from ctx.noc_read_buffer(buf, 0, ctx.cb_write_ptr(4), 64)
        (call,) = calls(kernel)
        dest = call.operand("l1_addr")
        assert isinstance(dest, CbPtr)
        assert dest.cb == 4 and dest.kind == "write"
        assert isinstance(call.operand("buf"), ArgVal)

    def test_noc_addr_arithmetic(self):
        from repro.ttmetal.kernel_api import NocAddr

        def kernel(ctx):
            base = NocAddr(0, 64)
            yield from ctx.noc_async_read(base + 32, 0, 32)
        (call,) = calls(kernel)
        addr = call.operand("noc_addr")
        assert isinstance(addr, NocAddrVal)
        assert const_int(addr.addr) == 96

    def test_arg_refs_record_required_and_optional(self):
        def kernel(ctx):
            a = ctx.arg("must_have")
            b = ctx.arg("may_have", default=None)
            yield from ctx.semaphore_wait(0, 0)
        trace = extract_trace(kernel)
        refs = {r.name: r.required for r in trace.arg_refs}
        assert refs == {"must_have": True, "may_have": False}


class TestControlFlow:
    def test_branches_keep_both_arms(self):
        def kernel(ctx):
            if ctx.arg("flag"):
                yield from ctx.cb_reserve_back(0, 1)
            else:
                yield from ctx.cb_reserve_back(1, 1)
        trace = extract_trace(kernel)
        branch = next(n for n in trace.nodes if isinstance(n, Branch))
        assert len(branch.arms) == 2
        seen = {const_int(c.operand("cb_id"))
                for c in iter_calls(trace.nodes)}
        assert seen == {0, 1}

    def test_iter_calls_guarded_marks_branch_arms(self):
        def kernel(ctx):
            yield from ctx.cb_reserve_back(0, 1)
            if ctx.arg("flag"):
                yield from ctx.cb_reserve_back(1, 1)
        guarded = {const_int(c.operand("cb_id")): g
                   for c, g in iter_calls_guarded(extract_trace(kernel).nodes)
                   if isinstance(c, Call)}
        assert guarded == {0: False, 1: True}

    def test_trace_is_cached_per_function(self):
        def kernel(ctx):
            yield from ctx.cb_reserve_back(0, 1)
        assert extract_trace(kernel) is extract_trace(kernel)


def _closure_kernel(cbs, flag):
    """A kernel whose CB ids and flag are closure constants."""
    def kernel(ctx):
        for cb in cbs:
            yield from ctx.cb_wait_front(cb, 1)
        if flag:
            yield from ctx.cb_pop_front(cbs[0], 1)
        else:
            yield from ctx.cb_pop_front(cbs[-1], 1)
        for cb in cbs[1:]:
            yield from ctx.cb_pop_front(cb, 1)
        for cb in cbs:
            yield from ctx.cb_set_rd_ptr(cb, ctx.arg("base") + 2 * cb)
    return kernel


class TestClosureConstants:
    """Closure constants act like compile-time kernel args."""

    def test_constant_tuple_loops_and_indices_resolve(self):
        got = [(c.name, const_int(c.operand("cb_id")))
               for c in calls(_closure_kernel((3, 5, 7), True))]
        assert got[:3] == [("cb_wait_front", 3), ("cb_wait_front", 5),
                           ("cb_wait_front", 7)]
        assert got[3:6] == [("cb_pop_front", 3), ("cb_pop_front", 5),
                            ("cb_pop_front", 7)]

    def test_constant_if_traces_only_the_taken_arm(self):
        trace = extract_trace(_closure_kernel((3, 5), False))
        assert not any(isinstance(n, Branch) for n in trace.nodes)
        pops = [const_int(c.operand("cb_id"))
                for c in iter_calls(trace.nodes) if c.name == "cb_pop_front"]
        assert pops == [5, 5]

    def test_starred_comprehension_desugars_per_pair(self):
        """Per-CB pointer installs trace as one exact call per pair.

        The kernel loops ``cb_set_rd_ptr`` over a constant tuple, so each
        (cb, addr) pair is its own call with bound operands and no star:
        witness indices stay exact after it.
        """
        ptrs = [c for c in calls(_closure_kernel((3, 5), True))
                if c.name == "cb_set_rd_ptr"]
        assert [const_int(c.operand("cb_id")) for c in ptrs] == [3, 5]
        assert not any(c.star for c in ptrs)

    def test_runtime_flag_still_keeps_both_arms(self):
        def kernel(ctx):
            flag = ctx.arg("flag")
            if flag:
                yield from ctx.cb_reserve_back(0, 1)
        trace = extract_trace(kernel)
        assert any(isinstance(n, Branch) for n in trace.nodes)
