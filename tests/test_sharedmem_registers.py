"""Unit tests for atomic registers and RMW synchronization primitives."""


from repro.sharedmem.register import AtomicRegister
from repro.sharedmem.rmw import (
    CompareAndSwapRegister,
    FetchAndAddRegister,
    LLSCRegister,
    SwapRegister,
)
from repro.sharedmem.rmw import TestAndSetRegister as TASRegister


# -------------------------------------------------------------------- register
def test_register_read_write_and_counts():
    reg = AtomicRegister("r", 0)
    assert reg.read() == 0
    reg.write(5)
    assert reg.read() == 5
    assert reg.stats.reads == 2
    assert reg.stats.writes == 1
    assert reg.stats.total == 3
    assert reg.peek() == 5
    assert ("write", 5) in reg.history


def test_register_default_initial_is_none():
    assert AtomicRegister().read() is None


# ------------------------------------------------------------------------- CAS
def test_cas_succeeds_only_on_expected_value():
    reg = CompareAndSwapRegister("c", None)
    assert reg.compare_and_swap(None, "a") is True
    assert reg.read() == "a"
    assert reg.compare_and_swap(None, "b") is False
    assert reg.read() == "a"
    assert reg.stats.rmw_ops == 2


def test_compare_and_exchange_returns_previous_value():
    reg = CompareAndSwapRegister("c", 1)
    assert reg.compare_and_exchange(1, 2) == 1
    assert reg.read() == 2
    assert reg.compare_and_exchange(1, 3) == 2
    assert reg.read() == 2


def test_cas_first_writer_wins_semantics():
    reg = CompareAndSwapRegister("c", None)
    outcomes = [reg.compare_and_swap(None, value) for value in ("x", "y", "z")]
    assert outcomes == [True, False, False]
    assert reg.read() == "x"


# ------------------------------------------------------------------ fetch&add
def test_fetch_and_add_returns_previous_and_accumulates():
    reg = FetchAndAddRegister("f", 10)
    assert reg.fetch_and_add() == 10
    assert reg.fetch_and_add(5) == 11
    assert reg.read() == 16
    assert reg.fetch_and_add(-6) == 16
    assert reg.read() == 10


# ------------------------------------------------------------------- test&set
def test_test_and_set_returns_false_only_once():
    reg = TASRegister("t")
    results = [reg.test_and_set() for _ in range(4)]
    assert results == [False, True, True, True]
    assert reg.read() is True


# ------------------------------------------------------------------------ swap
def test_swap_returns_previous_value():
    reg = SwapRegister("s", "first")
    assert reg.swap("second") == "first"
    assert reg.swap("third") == "second"
    assert reg.read() == "third"


# ----------------------------------------------------------------------- LL/SC
def test_llsc_store_conditional_succeeds_without_interference():
    reg = LLSCRegister("l", 0)
    assert reg.load_linked(pid=1) == 0
    assert reg.store_conditional(pid=1, value=5) is True
    assert reg.read() == 5


def test_llsc_store_conditional_fails_after_other_write():
    reg = LLSCRegister("l", 0)
    reg.load_linked(pid=1)
    reg.load_linked(pid=2)
    assert reg.store_conditional(pid=2, value=7) is True
    # Process 1's link was broken by process 2's successful SC.
    assert reg.store_conditional(pid=1, value=9) is False
    assert reg.read() == 7


def test_llsc_store_conditional_fails_without_prior_load():
    reg = LLSCRegister("l", 0)
    assert reg.store_conditional(pid=3, value=1) is False


def test_llsc_plain_write_breaks_links():
    reg = LLSCRegister("l", 0)
    reg.load_linked(pid=1)
    reg.write(42)
    assert reg.store_conditional(pid=1, value=5) is False
    assert reg.read() == 42


def test_rmw_ops_counted_separately_from_reads_writes():
    reg = LLSCRegister("l", 0)
    reg.load_linked(pid=1)
    reg.store_conditional(pid=1, value=2)
    reg.read()
    assert reg.stats.rmw_ops == 2
    assert reg.stats.reads == 1
