"""Rule calls on the parser's explicit frame stack.

Three parts:

* **Pinned unwinding.**  For each suite grammar, the 60-unit seed-42
  program is parsed clean, and again with a deterministic deletion
  mutation both bailing and recovering, each with a
  :class:`TraceListener` attached.  The trace transcript, the
  speculation memo table and the error strings must repeat exactly what
  the recursive walk produced: rule enter/exit order, memoized failures
  and recovery points are all visible there.
* **Clean state after every outcome.**  Success, a bailing
  ``RecognitionError``, recovered errors, each budget that trips in the
  middle of a parse, and an ``ActionError`` must all leave the follow
  stack, rule depth, speculation depth and tree builder empty.
* **Deep nesting.**  Rule calls no longer cost Python stack frames, so
  deeply nested input parses under default options (and its tree
  serialises), while ``max_rule_depth`` still trips at the same point.
"""

import hashlib

import pytest

import repro
from repro.analysis.construction import AnalysisOptions
from repro.exceptions import ActionError, BudgetExceededError, RecognitionError
from repro.grammars import PAPER_ORDER, load
from repro.runtime.budget import ParserBudget
from repro.runtime.debug import TraceListener
from repro.runtime.parser import LLStarParser, ParserOptions
from repro.runtime.token import EOF
from repro.runtime.token_stream import ListTokenStream
from repro.runtime.trees import RuleNode

# Every 41st token of the program is deleted for the mutated parses.
STRIDE = 41

# grammar -> {case: (transcript sha1, memo sha1, errors sha1, error
# count, bailing error)}.  Recorded from the recursive walk.
PINNED = {
    'java': {
        'clean': ('15dba70ba3b1545a993cdd8f4c27352542372ae0', '38d4c48995ee47f6527cb6c10d235136f6120d71', 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 0, None),
        'bail': ('354b2e79c8e73136ee8eaa7d41c7ade4f3bb4d98', '9dd1488e1edda0a84504c8fbc495ff5b984d0093', 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 0, "line 6:7 rule type_decl decision 6: no viable alternative at input 'class' (token index 13)"),
        'recover': ('6757b8951f0c1e7c974d04532e91243b49483b0d', '3474959606e88c7308134e509a225a1ae2348898', '4508a6f68a44c3014dde43b45fd2af4ccdd80227', 3, None),
    },
    'rats_c': {
        'clean': ('c5676181d620adece6ac744a1ceb088f87b57bdc', 'a2300d5bf11f64fc58cfc36aa76908572d30cc3c', 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 0, None),
        'bail': ('dcb71345135b805b4524754249366e2704659aa8', '39ab17e1a22763d7c4e0f174df0c94322923c160', 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 0, "line 1:28 rule init_declarator decision 12: no viable alternative at input '{' (token index 9)"),
        'recover': ('b2da40d6ffcb7d191b7527ba008a401ab8d4c1fb', '4c16343b7a253b3dd48d4efcb80d89114e187ba2', '0045cf6812ecf047ffbaa68cc6b1921ec0f8a6e1', 3, None),
    },
    'rats_java': {
        'clean': ('74d1b1459b162673c2c575538a4322d42cef14c5', 'ebe98c576eeb16284ad5b23c991055295f0cbd47', 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 0, None),
        'bail': ('2579a88147f088f25712db2296671d5a06f1c677', '95c3d17eb3b1254a0607b96be61fcd2b266315c2', 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 0, "line 6:11 rule body_decl decision 11: no viable alternative at input 'int' (token index 14)"),
        'recover': ('bde56c2ae787b434564e8302d5f61d9a4a387dbf', '549b87b917107c51ed5f58d541d9dd687f670c4c', '628ba91d4b26cbbcebeef184c01876a1d7f2fa67', 2, None),
    },
    'vb': {
        'clean': ('b22cb845463bcda79e4b7d0519d34080bff3d447', 'bf219c99fd213e798730c945395eb1392c30905b', 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 0, None),
        'bail': ('ff0fb053a5b59d9bf21fe94c514da0242bf9ebe0', '22aa9e2c2d767cf407bdc0778bb05f3a38bdab2c', 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 0, "line 10:26 rule member decision 8: no viable alternative at input '=' (token index 41)"),
        'recover': ('34b075c37984de33a2948f5a09ff6c012ae35a4c', 'f312ad26047b1aa9feda0271880db6b2c7736eb6', '3d098f842905b7f149ae71bfeb32f21fa364b488', 47, None),
    },
    'sql': {
        'clean': ('f8a031bd1e369110807214a2d593341a720ba743', '692f9863de8f4a03a9c2806b7dd6ca430e4f9591', 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 0, None),
        'bail': ('c0721ced214f092ef03003a36ca1c19e4f9eae53', 'db6de30db40a528c48951727fadfa9d4c9878c4c', 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 0, "line 7:33 rule factor decision 77: no viable alternative at input ',' (token index 40)"),
        'recover': ('89083b84a092acba0714fdceb9e5dd50f3895359', 'b88d426e14c26cab6b5860f4f91b1f738f28135a', 'bd12974950f53f23b10e9854ea09409cb8eaa870', 2, None),
    },
    'csharp': {
        'clean': ('d75a562942be07bed9439ce6fee4af0bfbbccdc0', 'd034ed93511b8847904b34b580dd3f96a2d5d440', 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 0, None),
        'bail': ('7cdd7e12dd31dd186e8a22d5af3f18b1ffdac274', '52ebf0b1127a8610ad301416a58f89f3fe916021', 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 0, "line 13:16 rule ctor_decl decision 23: no viable alternative at input 'int' (token index 39)"),
        'recover': ('e7edd5c052dd11db330009fcf8a74851366983ac', '3f85a7c5fffc700fa4b2f2a821411d71bab07755', 'd6ea211ca738a952deed237c530c61b892ed5685', 2, None),
    },
}

# grammar -> {budget resource: (limit, spent, index, transcript sha1)}
# on the clean program.  Recorded from the recursive walk.
PINNED_BUDGETS = {
    'java': {
        'dfa steps': (600, 602, 25, 'b6a4175357b8b6b1235efdfaaaba34f28316540d'),
        'rule depth': (12, 13, 20, 'a4f9627b25f502f272df6685de108440dddf00e9'),
        'synpred invocations': (5, 6, 62, '12d6eab5ac1258e864686484b87a390ff7a669eb'),
    },
    'rats_c': {
        'dfa steps': (600, 601, 75, '7026e3c71066af674aaac5b53b92c3bebc413713'),
        'rule depth': (12, 13, 12, '2efe76023d8b977803a43de12b2805f022291c3f'),
        'synpred invocations': (5, 6, 12, 'dc79f6781e00a15e53ea9287a35801c1e71c9f77'),
    },
    'rats_java': {
        'dfa steps': (600, 601, 87, 'fac61bf687e4367172f5aa437f65ea177c3f7349'),
        'rule depth': (12, 13, 11, '31f6f24a1755f697c8511f8bbb6ff52bd6b75b5c'),
        'synpred invocations': (5, 6, 30, '525709d04d4263db88d30332e6bea4c788c84114'),
    },
    'vb': {
        'dfa steps': (600, 602, 119, '23c1182f50d412c5c189396200d03173b61e9d70'),
        'rule depth': (12, 13, 31, '01b75013edf0c2290916cd3d3f2bae8db8404e78'),
        'synpred invocations': (5, 6, 134, '16eceb709b05542b1ffc476514f081af6de06b5b'),
    },
    'sql': {
        'dfa steps': (600, 601, 102, '09af4a8b0052dc1721d2d69f1c7d198c737f898a'),
        'rule depth': (12, 13, 11, 'aeae1f66960886661117b8672eb7a800bae2fb47'),
        'synpred invocations': (5, 6, 272, 'da67d3bfc183ab381a2774ba91e62ac54faab767'),
    },
    'csharp': {
        'dfa steps': (600, 602, 72, '556c1744b24d3006460c5e6437b8ddb6ac94d94c'),
        'rule depth': (12, 13, 16, '9a88f2dea70c82db2f1acce3e0135d3b35c66a27'),
        'synpred invocations': (5, 6, 18, '91f19762785be9be774170ee918504450c0dc45d'),
    },
}

BUDGETS = {
    "rule depth": ParserBudget(max_rule_depth=12),
    "dfa steps": ParserBudget(max_dfa_steps=600),
    "synpred invocations": ParserBudget(max_synpred_invocations=5),
}


def _digest(text):
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def _stream(name, mutate):
    bench = load(name)
    host = bench.compile()
    text = bench.generate_program(60, seed=42)
    stream = host.tokenize(text)
    if mutate:
        kept = [t for t in stream.tokens()
                if t.type == EOF or t.index % STRIDE != STRIDE - 1]
        stream = ListTokenStream(kept, source=text)
    return host, stream


def _assert_unwound(parser):
    assert parser._follow_stack == []
    assert parser._rule_depth == 0
    assert parser._speculating == 0
    assert parser._builder._stack == []


def run(name, mutate, recover, budget=None):
    """Parse one variant; return the parser, its trace and the escaping
    exception (None on success)."""
    host, stream = _stream(name, mutate)
    trace = TraceListener()
    parser = LLStarParser(host.analysis, stream, ParserOptions(
        trace=trace, recover=recover, budget=budget))
    escaped = None
    try:
        parser.parse()
    except (RecognitionError, BudgetExceededError) as e:
        escaped = e
    _assert_unwound(parser)
    return parser, trace, escaped


def fingerprint(name, case):
    mutate, recover = {"clean": (False, False), "bail": (True, False),
                       "recover": (True, True)}[case]
    parser, trace, escaped = run(name, mutate, recover)
    errors = [str(e) for e in parser.errors]
    return (_digest(trace.transcript()),
            _digest(repr(sorted(parser._memo.items()))),
            _digest("\n".join(errors)), len(errors),
            None if escaped is None else str(escaped))


def budget_fingerprint(name, resource):
    parser, trace, escaped = run(name, False, False, BUDGETS[resource])
    assert isinstance(escaped, BudgetExceededError)
    assert escaped.resource == resource
    return (escaped.limit, escaped.spent, escaped.index,
            _digest(trace.transcript()))


class TestPinnedUnwinding:
    @pytest.mark.parametrize("case", ["clean", "bail", "recover"])
    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_repeats_recursive_walk(self, name, case):
        assert fingerprint(name, case) == PINNED[name][case]

    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_outcomes_are_distinct(self, name):
        pins = PINNED[name]
        assert pins["clean"][3] == 0 and pins["clean"][4] is None
        assert pins["bail"][4] is not None
        assert pins["recover"][3] > 0 and pins["recover"][4] is None

    @pytest.mark.parametrize("resource", sorted(BUDGETS))
    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_budget_unwinds(self, name, resource):
        assert budget_fingerprint(name, resource) == PINNED_BUDGETS[name][resource]

    @pytest.mark.parametrize("resource", sorted(BUDGETS))
    def test_budget_escapes_recovery(self, resource):
        parser, _trace, escaped = run("vb", True, True, BUDGETS[resource])
        assert isinstance(escaped, BudgetExceededError)


ACTIONS = r"""
    grammar Boom;
    options { backtrack=true; }
    s : x A | x B ;
    x : '(' x ')' | y ;
    y : ID {{ state['probe'](LT(-1).text) }} ;
    A : '!' ; B : '?' ;
    ID : [a-z]+ ;
    WS : [ ]+ -> skip ;
"""


class TestActionError:
    @pytest.fixture(scope="class")
    def host(self):
        # A tiny recursion bound keeps the synpred, so ``x`` really runs
        # speculatively before it runs for real.
        return repro.compile_grammar(
            ACTIONS, options=AnalysisOptions(max_recursion_depth=1))

    @pytest.mark.parametrize("recover", [False, True])
    @pytest.mark.parametrize("when", ["speculating", "for real"])
    def test_unwinds_every_activation(self, host, when, recover):
        calls = []

        def probe(text):
            calls.append(text)
            # The first run of the action is speculative.
            if (len(calls) == 1) == (when == "speculating") and text == "boom":
                raise ValueError(text)

        trace = TraceListener()
        parser = LLStarParser(
            host.analysis, host.tokenize("( ( ( boom ) ) ) ?"),
            ParserOptions(trace=trace, recover=recover,
                          user_state={"probe": probe}))
        with pytest.raises(ActionError):
            parser.parse()
        _assert_unwound(parser)
        depth = 1 if when == "speculating" else 0
        entered = [e.strip() for e in trace.events if "enter" in e]
        assert entered[-1] == "enter y%s @3" % ("?" * depth)
        assert not any("exit" in e for e in trace.events[-5:])


NEST_VB = "Module M\n    Dim x As Integer = %s1%s\nEnd Module\n"
NEST_JAVA = "class A { int f() { return %s1%s; } }\n"


def _nested(template, depth):
    return template % ("(" * depth, ")" * depth)


class TestDeepNesting:
    def test_vb_ten_thousand_levels(self):
        tree = load("vb").compile().parse(_nested(NEST_VB, 10000))
        sexpr = tree.to_sexpr()
        assert sexpr.count("(") > 10000
        assert tree.to_spanned_sexpr().count("[") > 10000
        nodes = list(tree.walk())
        assert sum(isinstance(n, RuleNode) for n in nodes) > 10000
        assert tree.text.replace(" ", "") == (
            "ModuleMDimxAsInteger=" + "(" * 10000 + "1" + ")" * 10000
            + "EndModule")

    def test_java_hundred_levels(self):
        tree = load("java").compile().parse(_nested(NEST_JAVA, 100))
        assert tree.to_sexpr().count("1") >= 1

    @pytest.mark.parametrize("name,template,limit,spent", [
        ("vb", NEST_VB, 200, (201, 31)), ("java", NEST_JAVA, 200, (201, 24)),
    ])
    def test_rule_depth_budget_still_trips(self, name, template, limit, spent):
        host = load(name).compile()
        with pytest.raises(BudgetExceededError) as ei:
            host.parse(_nested(template, 500), options=ParserOptions(
                budget=ParserBudget(max_rule_depth=limit)))
        assert ei.value.resource == "rule depth"
        assert ei.value.limit == limit
        assert (ei.value.spent, ei.value.index) == spent


if __name__ == "__main__":
    # Print fresh pins (run on the reference implementation).
    for n in PAPER_ORDER:
        print("    %r: {" % n)
        for c in ("clean", "bail", "recover"):
            print("        %r: %r," % (c, fingerprint(n, c)))
        print("    },")
    for n in PAPER_ORDER:
        print("    %r: {" % n)
        for r in sorted(BUDGETS):
            print("        %r: %r," % (r, budget_fingerprint(n, r)))
        print("    },")
