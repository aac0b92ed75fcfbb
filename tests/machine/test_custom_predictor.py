"""measure() with a custom branch predictor sink (the predictor hook)."""

from repro.exec.compiled import CompiledProgram
from repro.ir.builder import assign, cle, idx, if_, loop, sym
from repro.ir.program import ArrayDecl, Program
from repro.machine import StaticTakenPredictorSink, measure, octane2_scaled

N, i = sym("N"), sym("i")


def biased_program() -> Program:
    body = loop(
        "i", 1, N, [if_(cle(i, 2), assign(idx("A", i), 1.0))]
    )
    return Program("b", ("N",), (ArrayDecl("A", (N,)),), (), (body,))


def test_predictor_hook_changes_mispredictions():
    p = biased_program()
    cp = CompiledProgram(p, trace=True)
    run = cp.run({"N": 20})
    params = {"N": 20}
    machine = octane2_scaled()
    default = measure(run, p, params, machine)
    static = measure(run, p, params, machine, predictor=StaticTakenPredictorSink())
    # 18 of 20 outcomes are not-taken: always-taken mispredicts them all,
    # the 2-bit counter learns after a short training phase.
    assert static.branches_mispredicted == 18
    assert default.branches_mispredicted < 6
    assert static.branches_resolved == default.branches_resolved == 20
