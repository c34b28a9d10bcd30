"""Shared fixtures and program factories for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.interp.profiler import profile_program
from repro.ir.builder import ProgramBuilder
from repro.ir.program import Program


#: A larger example budget for the property suites:
#: ``pytest --hypothesis-profile=deep``.  Tests that pin their own
#: ``max_examples`` keep it.
settings.register_profile("deep", max_examples=1500, deadline=None)


@pytest.fixture(autouse=True, scope="session")
def _hermetic_artifact_cache(tmp_path_factory):
    """Point the engine's artifact store at a throwaway directory.

    Keeps the suite from reading or polluting the user's real
    ``~/.cache/repro`` (CLI tests and the default runner would otherwise
    persist artifacts there).
    """
    os.environ["REPRO_CACHE_DIR"] = str(
        tmp_path_factory.mktemp("artifact-cache")
    )
    yield


def build_counted_loop(iterations: int = 5) -> Program:
    """main: r2 = sum(1..iterations); out r2; halt.  No calls."""
    pb = ProgramBuilder()
    f = pb.function("main")
    b = f.block("entry")
    b.li("r1", 0)
    b.li("r2", 0)
    b.jmp("head")
    b = f.block("head")
    b.bge("r1", iterations, taken="done", fall="body")
    b = f.block("body")
    b.add("r1", "r1", 1)
    b.add("r2", "r2", "r1")
    b.jmp("head")
    b = f.block("done")
    b.out("r2")
    b.halt()
    return pb.build()


def build_call_program() -> Program:
    """main calls ``twice`` per input value; ``twice`` doubles r1."""
    pb = ProgramBuilder()
    f = pb.function("twice")
    b = f.block("entry")
    b.add("r1", "r1", "r1")
    b.ret()
    f = pb.function("main")
    b = f.block("entry")
    b.li("r2", 0)
    b.jmp("loop")
    b = f.block("loop")
    b.in_("r1")
    b.beq("r1", -1, taken="done", fall="work")
    b = f.block("work")
    b.call("twice", cont="after")
    b = f.block("after")
    b.add("r2", "r2", "r1")
    b.jmp("loop")
    b = f.block("done")
    b.out("r2")
    b.halt()
    return pb.build()


def build_branchy_program() -> Program:
    """main with an if/else diamond per input, plus a cold error path."""
    pb = ProgramBuilder()
    f = pb.function("main")
    b = f.block("entry")
    b.li("r2", 0)
    b.jmp("loop")
    b = f.block("loop")
    b.in_("r1")
    b.beq("r1", -1, taken="done", fall="test")
    b = f.block("test")
    b.blt("r1", 0, taken="error", fall="even_check")
    b = f.block("even_check")
    b.and_("r3", "r1", 1)
    b.beq("r3", 0, taken="even", fall="odd")
    b = f.block("even")
    b.add("r2", "r2", "r1")
    b.jmp("loop")
    b = f.block("odd")
    b.sub("r2", "r2", "r1")
    b.jmp("loop")
    b = f.block("error")
    b.out("r1")
    b.jmp("loop")
    b = f.block("done")
    b.out("r2")
    b.halt()
    return pb.build()


def build_recursive_program() -> Program:
    """main computes triangular(n) via a recursive helper.

    The helper spills its local to a software stack at r31, so recursion
    is semantically real despite the global register file.
    """
    pb = ProgramBuilder()
    f = pb.function("tri")
    b = f.block("entry")
    b.ble("r1", 0, taken="base", fall="rec")
    b = f.block("base")
    b.li("r1", 0)
    b.ret()
    b = f.block("rec")
    b.st("r1", "r31", 0)
    b.add("r31", "r31", 1)
    b.sub("r1", "r1", 1)
    b.call("tri", cont="after")
    b = f.block("after")
    b.sub("r31", "r31", 1)
    b.ld("r2", "r31", 0)
    b.add("r1", "r1", "r2")
    b.ret()
    f = pb.function("main")
    b = f.block("entry")
    b.li("r31", 1000)
    b.in_("r1")
    b.call("tri", cont="report")
    b = f.block("report")
    b.out("r1")
    b.halt()
    return pb.build()


@pytest.fixture
def loop_program() -> Program:
    return build_counted_loop()


@pytest.fixture
def call_program() -> Program:
    return build_call_program()


@pytest.fixture
def branchy_program() -> Program:
    return build_branchy_program()


@pytest.fixture
def recursive_program() -> Program:
    return build_recursive_program()


@pytest.fixture
def call_profile(call_program):
    """Profile of the call program over two small runs."""
    return profile_program(call_program, [[1, 2, 3], [4, 5]])


@pytest.fixture(scope="session")
def small_runner():
    """A session-shared small-scale experiment runner."""
    from repro.experiments.runner import ExperimentRunner

    return ExperimentRunner(scale="small")
