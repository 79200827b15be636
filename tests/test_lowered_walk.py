"""The lowered rule program: the interpreter walk runs over flat ops.

Two halves:

* **Pinned work.**  For each suite grammar, parsing the 60-unit seed-42
  program must produce exactly the tree, the per-rule ``alt`` choices,
  the DFA step count and the telemetry counts recorded before the walk
  was lowered.  The lowering changes the cost of dispatch, never the
  work done; deterministic counters prove it where timings cannot.
* **Structure.**  Every ATN state that can be walked gets exactly one
  op, chains of epsilon and synpred-gate edges are collapsed away, and
  an unknown transition class is rejected at lowering time.
"""

import hashlib

import pytest

from repro.atn.states import BasicState, RuleStopState
from repro.atn.transitions import (
    EpsilonTransition,
    PredicateTransition,
    Transition,
)
from repro.grammars import PAPER_ORDER, load
from repro.runtime.parser import (
    OP_ACTION,
    OP_CALL,
    OP_MATCH,
    OP_MATCH_SET,
    OP_PREDICT,
    OP_SEMPRED,
    LLStarParser,
    ParserOptions,
    lower_atn,
)
from repro.runtime.telemetry import ParseTelemetry
from repro.runtime.trees import RuleNode

# grammar -> (spanned-tree digest, RuleNode (rule, start, stop, alt)
# digest, final _dfa_steps, telemetry (rule invocations, predictions,
# synpred invocations, backtracking predictions)).  Recorded from the
# graph-dispatching walk; identical with use_tables on and off.
PINNED = {
    "java": ("f5d41c9f95f929179d2aa110a4bc2c04ea77fb22",
             "9dc70f2a446ad527ef8df2588d5074e0414d08ef",
             55584, (10946, 13565, 758, 256)),
    "rats_c": ("08c0e3fefc77a47fdbbc3ab95916d72f5fbd0581",
               "405b92f6e80500f83b770661b030645fc31789b6",
               77967, (15923, 18911, 4607, 1197)),
    "rats_java": ("fac0d9b8d96c65cc1a9094dda242e10fdf054be2",
                  "3a735474afa43887f4da2ec53a5aa70ea5e0b809",
                  34630, (6513, 8698, 456, 158)),
    "vb": ("e946b1fb4e55c8efed2b63a5bad00f690a91b163",
           "237ad2437e2f32166ced1cb6afc063adb70643e6",
           14396, (5412, 7061, 129, 129)),
    "sql": ("844b7bb7f5b95923000c33fc3b1d2beb8a3cce6e",
            "27969e9787db1ccd79a30c6d3bd263d310d8f050",
            7963, (2227, 2898, 28, 28)),
    "csharp": ("e7025700d94bb9681602253da60b92b6f84936b2",
               "9d40b085287c2deff61dbe447c7b8877458acf0c",
               33910, (10926, 14182, 556, 346)),
}


def _digest(text):
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def measure(name, use_tables):
    """Parse the grammar's 60-unit seed-42 program; return the pinned
    quantities."""
    bench = load(name)
    host = bench.compile()
    telemetry = ParseTelemetry(capture_events=False)
    parser = LLStarParser(
        host.analysis, host.tokenize(bench.generate_program(60, seed=42)),
        ParserOptions(telemetry=telemetry, use_tables=use_tables))
    tree = parser.parse()
    rules = "\n".join(
        "%s %d %d %s" % (n.rule_name, n.start, n.stop, n.alt)
        for n in tree.walk() if isinstance(n, RuleNode))
    counts = (telemetry._rules.value, telemetry._predictions.value,
              telemetry._synpreds.value, telemetry._backtracks.value)
    return (_digest(tree.to_spanned_sexpr()), _digest(rules),
            parser._dfa_steps, counts)


class TestPinnedWork:
    @pytest.mark.parametrize("use_tables", [True, False],
                             ids=["tables", "graph"])
    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_parse_repeats_exactly(self, name, use_tables):
        assert measure(name, use_tables) == PINNED[name]


def _ops(name):
    analysis = load(name).compile().analysis
    return analysis.atn, lower_atn(analysis.atn, analysis.grammar)


def _collapsible(state):
    """A non-decision state the walk would pass straight through."""
    if state.is_decision or len(state.transitions) != 1:
        return False
    t = state.transitions[0]
    return (type(t) is EpsilonTransition
            or (type(t) is PredicateTransition and t.predicate.is_synpred))


class TestLoweringStructure:
    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_one_op_per_walkable_state(self, name):
        atn, program = _ops(name)
        ops = program.ops
        assert len(ops) == len(atn.states)
        for state in atn.states:
            op = ops[state.id]
            if (isinstance(state, RuleStopState) or not state.transitions
                    or _collapsible(state)):
                # Stop states end the walk; pass-through states are
                # lowered away (never a target, see below).
                assert op is None, state
            else:
                assert op is not None, state
                assert op[0] in (OP_MATCH, OP_MATCH_SET, OP_PREDICT,
                                 OP_CALL, OP_SEMPRED, OP_ACTION)
                if state.is_decision:
                    assert op[0] == OP_PREDICT
                    assert op[1] == state.decision
                    assert len(op[2]) == len(state.transitions)

    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_no_target_is_a_collapsible_state(self, name):
        atn, program = _ops(name)
        states = atn.states

        def targets(op):
            return list(op[2]) if op[0] == OP_PREDICT else [op[1]]

        for op in program.ops:
            if op is None:
                continue
            for sid in targets(op):
                assert not _collapsible(states[sid]), states[sid]
        for rule, (start, stop, _params) in program.rules.items():
            assert not _collapsible(states[start]), rule
            assert states[stop] is atn.rule_stop[rule]

    def test_unknown_transition_class_raises(self):
        analysis = load("sql").compile().analysis
        atn = analysis.atn

        class Strange(Transition):
            __slots__ = ()

        victim = next(s for s in atn.states
                      if type(s) is BasicState and len(s.transitions) == 1)
        original = victim.transitions[0]
        victim.transitions[0] = Strange(original.target)
        try:
            with pytest.raises(AssertionError, match="unexpected transition"):
                lower_atn(atn, analysis.grammar)
        finally:
            victim.transitions[0] = original

    def test_program_is_shared_per_analysis(self):
        host = load("sql").compile()
        first = host.parser(load("sql").sample)
        second = host.parser(load("sql").sample)
        first.parse()
        second.parse()
        assert first._ops is second._ops
        assert host.analysis._lowered.ops is first._ops
