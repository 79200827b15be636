"""The LL(*) parser: an ATN interpreter with DFA-driven prediction.

At every decision point the parser runs the decision's lookahead DFA
(Figure 5 configuration-change rules): follow token edges while they
match; on an accept state, predict that alternative.  States carrying
predicate edges evaluate them in alternative order — a user predicate is
``eval``-ed against the action environment, a synpred launches a
speculative parse of its fragment rule (backtracking), and a ``None``
predicate is the ordered-choice default.

Speculation machinery (Section 4):

* actions are disabled while speculating, except ``{{...}}``
  always-exec actions (Section 4.3);
* rule invocations are memoized per ``(rule, token index)`` *only while
  speculating* (the paper's policy: "ANTLR only memoizes while
  speculating"), turning nested backtracking from exponential to linear
  like a packrat parser;
* prediction errors are reported at the specific token that killed the
  DFA or the deepest token a failed speculation reached (Section 4.4).
"""

from __future__ import annotations

import time
from typing import Any, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from repro.atn.states import RuleStartState, RuleStopState
from repro.atn.transitions import (
    ActionTransition,
    AtomTransition,
    EpsilonTransition,
    PredicateTransition,
    RuleTransition,
    SetTransition,
)
from repro.exceptions import (
    ActionError,
    BudgetExceededError,
    FailedPredicateError,
    MismatchedTokenError,
    NoViableAltError,
    RecognitionError,
)
from repro.runtime.budget import ParserBudget
from repro.runtime.errors import (
    BailErrorStrategy,
    DefaultErrorStrategy,
    ErrorStrategy,
)
from repro.runtime.token import EOF
from repro.runtime.token_stream import TokenStream
from repro.runtime.trees import ErrorNode, RuleNode, TokenNode, TreeBuilder

_MEMO_FAILED = -2  # sentinel stop index for memoized failures

# Op kinds of the lowered rule program (:func:`lower_atn`); every op but
# predict keeps the state id to continue at in slot 1.
OP_MATCH = 0      # (kind, next, token_type, AtomTransition)
OP_MATCH_SET = 1  # (kind, next, token_set, SetTransition)
OP_PREDICT = 2    # (kind, decision, alt targets, is rule start)
OP_CALL = 3       # (kind, resume, callee, arg exprs, follow-stack entry)
OP_SEMPRED = 4    # (kind, next, Predicate)
OP_ACTION = 5     # (kind, next, SemanticAction)


class LoweredProgram(NamedTuple):
    """The ATN as the interpreter walks it: ``ops[state.id]`` is that
    state's op (None for stop states and states lowered away), and
    ``rules[name]`` is ``(start id, stop id, params)``."""

    ops: List[Optional[tuple]]
    rules: Dict[str, Tuple[int, int, tuple]]


def _passes_through(state) -> bool:
    """A non-decision state whose edge is epsilon or a synpred gate: the
    walk does nothing there (synpreds only direct prediction)."""
    if state.is_decision or isinstance(state, RuleStopState) or not state.transitions:
        return False
    t = state.transitions[0]
    if isinstance(t, PredicateTransition):
        return t.predicate.is_synpred
    return isinstance(t, EpsilonTransition)


def lower_atn(atn, grammar) -> LoweredProgram:
    """Lower every ATN state once into a flat op (Section 4: the parser is
    the program the ATN spells out); targets skip pass-through states."""

    def land(state) -> int:
        while _passes_through(state):
            state = state.transitions[0].target
        return state.id

    ops: List[Optional[tuple]] = [None] * len(atn.states)
    for state in atn.states:
        if (isinstance(state, RuleStopState) or not state.transitions
                or _passes_through(state)):
            continue
        if state.is_decision:
            ops[state.id] = (OP_PREDICT, state.decision,
                             tuple(land(t.target) for t in state.transitions),
                             isinstance(state, RuleStartState))
            continue
        t = state.transitions[0]
        if isinstance(t, AtomTransition):
            ops[state.id] = (OP_MATCH, land(t.target), t.token_type, t)
        elif isinstance(t, SetTransition):
            ops[state.id] = (OP_MATCH_SET, land(t.target), t.token_set, t)
        elif isinstance(t, RuleTransition):
            # Fixed per call site; recovery reads the real follow state.
            ops[state.id] = (OP_CALL, land(t.follow_state), t.rule_name,
                             tuple(t.args), (t.follow_state, state.rule_name))
        elif isinstance(t, PredicateTransition):
            ops[state.id] = (OP_SEMPRED, land(t.target), t.predicate)
        elif isinstance(t, ActionTransition):
            ops[state.id] = (OP_ACTION, land(t.target), t.action)
        else:  # builder invariant
            raise AssertionError("unexpected transition %r" % t)
    rules = {name: (land(start), atn.rule_stop[name].id,
                    tuple(grammar.rule(name).params))
             for name, start in atn.rule_start.items()}
    return LoweredProgram(ops, rules)


class ParserOptions:
    """Runtime knobs.

    ``memoize``: cache speculative rule invocations (packrat-style).
    ``build_tree``: construct a parse tree (off for pure recognition).
    ``profiler``: a :class:`~repro.runtime.profiler.DecisionProfiler`.
    ``user_state``: arbitrary object exposed to actions/predicates as
    ``state``.
    ``action_globals``: extra names visible to embedded Python code.
    ``error_strategy``: inline-mismatch handling outside speculation.
    ``trace``: optional :class:`~repro.runtime.debug.TraceListener`.
    ``budget``: a :class:`~repro.runtime.budget.ParserBudget` of resource
    limits; crossing one raises
    :class:`~repro.exceptions.BudgetExceededError`.
    ``telemetry``: a :class:`~repro.runtime.telemetry.ParseTelemetry`
    receiving structured events and metrics (prediction outcomes,
    recovery repairs, degradations, speculation spans).
    ``use_tables``: predict with the flat execution tables
    (:mod:`repro.tables`); off walks the object-graph DFA directly —
    the reference implementation the tables are checked against.
    ``reuse``: a :class:`~repro.runtime.incremental.ReuseTable` of
    subtrees from a previous parse of (mostly) the same tokens.  The
    rule-invocation path probes it next to the speculation memo: a hit
    grafts the old subtree and advances the stream past it; a miss
    falls back to normal prediction.  Attaching a reuse table also
    turns on the lookahead high-water / purity bookkeeping that makes
    the *new* tree reusable in turn.
    """

    def __init__(self, memoize: bool = True, build_tree: bool = True,
                 profiler=None, user_state: Any = None,
                 action_globals: Optional[Dict[str, Any]] = None,
                 error_strategy: Optional[ErrorStrategy] = None,
                 trace=None, recover: bool = False,
                 budget: Optional[ParserBudget] = None,
                 telemetry=None, use_tables: bool = True,
                 reuse=None):
        self.memoize = memoize
        self.build_tree = build_tree
        self.profiler = profiler
        self.user_state = user_state
        self.action_globals = dict(action_globals) if action_globals else {}
        # A recovering parse defaults to full inline repair
        # (deletion + insertion); a bailing parse fails fast.
        self.error_strategy = error_strategy or (
            DefaultErrorStrategy() if recover else BailErrorStrategy())
        self.trace = trace
        # Panic-mode recovery: on an error inside rule A (outside
        # speculation), report it, consume tokens until a token some
        # rule on the invocation stack can use (sync-and-return), and
        # continue — so one parse surfaces *all* the input's errors,
        # the deterministic-LL error-handling advantage of Section 1.
        self.recover = recover
        self.budget = budget
        self.telemetry = telemetry
        self.use_tables = use_tables
        self.reuse = reuse


class LLStarParser:
    """Interpreted LL(*) parser over an analysed grammar.

    Build one per parse (it owns per-parse state: memo table, error
    list, speculation depth).  ``analysis`` is the result of
    :func:`repro.analysis.analyze`; ``stream`` a rewindable token
    stream.
    """

    def __init__(self, analysis, stream: TokenStream,
                 options: Optional[ParserOptions] = None):
        self.analysis = analysis
        self.grammar = analysis.grammar
        self.atn = analysis.atn
        self.stream = stream
        self.options = options or ParserOptions()
        self.vocabulary = self.grammar.vocabulary
        self.errors: List[RecognitionError] = []
        self._speculating = 0
        self._memo: Dict[Tuple[str, int], int] = {}
        self._deepest_spec_index = -1
        self._deepest_spec_error: Optional[RecognitionError] = None
        self._last_recovery_index = -1
        # While True, subsequent errors are cascades of one mistake and
        # are resynced silently; cleared when a token matches for real.
        self._error_recovery_mode = False
        # Invocation stack of (follow_state, caller_rule) pairs, one per
        # active rule call; error recovery derives per-ATN-state resync
        # sets from it (ANTLR's combined-follow computation).
        self._follow_stack: List[Tuple[Any, str]] = []
        # All tree construction goes through the builder: it assigns
        # token-index spans, parent pointers, and the source-text record
        # (see DESIGN.md "Tree core & transformation layer").  Its
        # innermost open rule is also where inline and panic-mode
        # repairs attach their ErrorNodes.
        self._builder = TreeBuilder(source=stream.source)
        # Budget accounting (limits live in options.budget).
        self._dfa_steps = 0
        self._synpred_calls = 0
        self._rule_depth = 0
        self._recovery_attempts: Dict[int, int] = {}
        self._deadline: Optional[float] = None
        # Structured degradation events (missing DFAs rebuilt on the fly).
        self.degradations: List[Any] = []
        # Per-decision (table, start, arrays...) rows, unpacked lazily on
        # first prediction so the hot path pays one list index + tuple
        # unpack instead of a property call and six attribute fetches.
        self._table_rows: List[Optional[tuple]] = [None] * len(analysis.records)
        # The walk's lowered program: built on first use, shared like
        # ``_continuations`` (racing threads build identical copies).
        program = getattr(analysis, "_lowered", None)
        if program is None:
            program = analysis._lowered = lower_atn(analysis.atn, analysis.grammar)
        self._ops, self._rule_programs = program
        # Hot-path handle; None keeps every telemetry hook a single check.
        self._telemetry = self.options.telemetry
        # Incremental-reparse state (see repro.runtime.incremental).
        # ``_look_hwm`` is the highest token index any prediction has
        # examined so far — monotone over the whole parse, so the value
        # at rule close conservatively bounds every lookahead that ran
        # inside the rule.  ``_impure_ops`` counts derivation-affecting
        # side operations (actions, predicates, repairs); a rule whose
        # open/close counts match derived itself purely from tokens.
        self._reuse = self.options.reuse
        self._track_look = self._reuse is not None
        self._look_hwm = -1
        self._impure_ops = 0

    # -- public entry points --------------------------------------------------------

    def parse(self, rule_name: Optional[str] = None, require_eof: bool = True):
        """Parse from ``rule_name`` (default: grammar start rule).

        Returns the parse tree root (or None when tree building is off).
        Raises :class:`RecognitionError` subclasses on bad input.
        """
        if rule_name is None:
            rule_name = self.grammar.start_rule
        self.grammar.rule(rule_name)  # GrammarError for an unknown rule
        budget = self.options.budget
        if budget is not None:
            self._deadline = budget.deadline_from_now()
        node = self._run_rule(rule_name, [])
        if require_eof and self.stream.la(1) != EOF:
            token = self.stream.lt(1)
            error = MismatchedTokenError("EOF", token, self.stream.index,
                                         rule_name=rule_name)
            if self.options.recover:
                reported = self.options.error_strategy.report(self, error)
                skipped = []
                while self.stream.la(1) != EOF:
                    # A hostile tail (e.g. an unbounded stream of junk)
                    # must not dodge the budget deadline by hiding in
                    # this drain loop.
                    self._check_deadline()
                    skipped.append(self.stream.consume())
                if self._telemetry is not None:
                    self._telemetry.record_recovery(
                        "eof-drain", rule_name, self.stream.index,
                        skipped=len(skipped))
                if node is not None and (reported or skipped):
                    # The root is already closed; extend its span over
                    # the drained tail so it still covers the whole tree.
                    err = ErrorNode(error=error if reported else None,
                                    tokens=skipped, at=self.stream.index)
                    node.add(err)
                    node.look_stop = -1  # repaired: not reusable
                    if err.stop > node.stop:
                        node.stop = err.stop
            else:
                raise error
        return node

    def recognize(self, rule_name: Optional[str] = None, require_eof: bool = True) -> bool:
        """Pure recognition: True iff the input parses."""
        saved = self.options.build_tree
        self.options.build_tree = False
        try:
            self.parse(rule_name, require_eof=require_eof)
            return True
        except RecognitionError:
            return False
        finally:
            self.options.build_tree = saved

    # -- core interpreter ---------------------------------------------------------------

    @property
    def speculating(self) -> bool:
        return self._speculating > 0

    def _run_rule(self, rule_name: str, arg_values: List[Any]) -> Optional[RuleNode]:
        start, stop, params = self._rule_programs[rule_name]
        speculating = self._speculating
        options = self.options
        stream = self.stream
        memo_key = None
        if speculating and options.memoize and not params:
            memo_key = (rule_name, stream.index)
            cached = self._memo.get(memo_key)
            if cached is not None:
                if cached == _MEMO_FAILED:
                    raise RecognitionError(
                        "memoized failure of rule %s" % rule_name,
                        token=stream.lt(1), index=stream.index)
                stream.seek(cached)
                return None  # tree building is off while speculating

        # Incremental-reparse probe, the memo probe's sibling: a
        # previous parse derived this rule at this (new) position from
        # tokens that have not changed, so its subtree is this parse's
        # derivation verbatim — graft it and skip the region.  Off
        # while speculating (no tree), during recovery mode (grafting
        # would skip the match that ends cascade suppression), and for
        # parameterized invocations (the subtree may depend on args).
        if (self._reuse is not None and not speculating
                and not self._error_recovery_mode
                and options.build_tree and not arg_values):
            reused = self._reuse.take(rule_name, stream.index)
            if reused is not None:
                return self._graft(reused)

        frame: Dict[str, Any] = dict(zip(params, arg_values)) if params else {}
        # The builder opens a node at the entry stream position; the
        # node attaches to its parent only at close, so a failed rule
        # (no recovery) leaves nothing behind in the tree.
        node = (self._builder.open_rule(rule_name, stream.index)
                if options.build_tree and not speculating
                else None)
        closed = False
        impure_mark = self._impure_ops
        frame["ctx"] = node
        trace = options.trace
        if trace is not None:
            trace.enter_rule(rule_name, stream.index, speculating > 0)
        tel = self._telemetry
        rule_span = None
        if tel is not None and not speculating:
            tel.record_rule(rule_name)
            if tel.trace_rules:
                rule_span = tel.start_span("rule:" + rule_name)
        self._rule_depth += 1
        try:
            budget = options.budget
            if budget is not None:
                if (budget.max_rule_depth is not None
                        and self._rule_depth > budget.max_rule_depth):
                    raise BudgetExceededError(
                        "rule depth", budget.max_rule_depth,
                        spent=self._rule_depth, token=stream.lt(1),
                        index=stream.index)
                self._check_deadline()
            try:
                self._walk(start, stop, rule_name, frame, node)
            except RecognitionError as error:
                if memo_key is not None:
                    self._memo[memo_key] = _MEMO_FAILED
                if trace is not None:
                    trace.exit_rule(rule_name, stream.index, failed=True)
                if options.recover and not speculating:
                    self._recover(rule_name, error)
                    if node is not None:
                        self._builder.close_rule(stream.index)
                        closed = True
                    return node
                raise
        except BaseException:
            if node is not None and not closed:
                self._builder.abandon_rule()
            raise
        finally:
            self._rule_depth -= 1
            if rule_span is not None:
                tel.end_span(rule_span)
        if memo_key is not None:
            self._memo[memo_key] = stream.index
        if trace is not None:
            trace.exit_rule(rule_name, stream.index, failed=False)
        if node is not None:
            if (self._track_look and not params
                    and self._impure_ops == impure_mark):
                # Pure derivation: tokens [start, max(stop, look_stop)]
                # fully determine this subtree.  The global high-water
                # mark is conservative (it may reflect lookahead from
                # earlier in the parse) but never understates the reach.
                node.look_stop = self._look_hwm
            self._builder.close_rule(stream.index)
        return node

    def _graft(self, node: RuleNode) -> RuleNode:
        """Splice a subtree reused from a previous parse into the tree
        under construction and advance the stream past its span."""
        self.stream.seek(node.stop + 1)
        if node.look_stop > self._look_hwm:
            self._look_hwm = node.look_stop
        builder = self._builder
        if builder.attach(node):
            # A node that used to be a root (whole-tree reuse in some
            # earlier edit) must not shadow the new root's source record.
            node.source = None
        else:
            # Nothing open: the whole previous tree survived the edit.
            builder.root = node
            node.parent = None
            node.source = builder.source
        if self._telemetry is not None:
            self._telemetry.record_reuse(node.rule_name, node.start, node.stop)
        return node

    def _walk(self, sid: int, stop: int, rule_name: str,
              frame: Dict[str, Any], node: Optional[RuleNode]) -> None:
        """Run the lowered program from ``sid`` to ``stop``.  Nested
        speculation unwinds before it returns, so its depth is read once."""
        ops = self._ops
        stream = self.stream
        builder = self._builder
        speculating = self._speculating
        while sid != stop:
            op = ops[sid]
            kind = op[0]
            if kind == OP_MATCH or kind == OP_MATCH_SET:
                token = stream.lt(1)
                if (token.type == op[2] if kind == OP_MATCH
                        else token.type in op[2]):
                    stream.consume()
                    if speculating:
                        if stream.index > self._deepest_spec_index:
                            self._deepest_spec_index = stream.index
                    else:
                        self._error_recovery_mode = False
                else:
                    token = self._mismatch(op[3], token, rule_name)
                if node is not None:
                    builder.add_token(token)
                sid = op[1]
            elif kind == OP_PREDICT:
                alt = self._adaptive_predict(op[1], frame)
                if node is not None and op[3]:
                    node.alt = alt
                sid = op[2][alt - 1]
            elif kind == OP_CALL:
                args = [self._eval_expr(a, frame) for a in op[3]] if op[3] else ()
                follow_stack = self._follow_stack
                follow_stack.append(op[4])
                try:
                    # The child attaches to ``node`` via the builder when
                    # it closes; nothing to do here on success.
                    self._run_rule(op[2], args)
                finally:
                    follow_stack.pop()
                sid = op[1]
            elif kind == OP_SEMPRED:
                if not self._eval_predicate(op[2], frame):
                    raise FailedPredicateError(
                        op[2], token=stream.lt(1),
                        index=stream.index, rule_name=rule_name)
                sid = op[1]
            else:  # OP_ACTION
                self._execute_action(op[2], frame)
                sid = op[1]

    def _mismatch(self, transition, token, rule_name: str):
        """``token`` failed ``transition``: raise while speculating, else
        repair inline (atom edges only) and return the token to add."""
        if self._speculating:
            expected = (self.vocabulary.name_of(transition.token_type)
                        if isinstance(transition, AtomTransition) else repr(transition))
            raise MismatchedTokenError(expected, token, self.stream.index,
                                       rule_name=rule_name)
        expected_type = (transition.token_type
                         if isinstance(transition, AtomTransition) else None)
        if expected_type is not None:
            following = self._viable_after(transition.target, rule_name)
            return self.options.error_strategy.recover_inline(
                self, expected_type, rule_name, following)
        raise MismatchedTokenError(repr(transition), token, self.stream.index,
                                   rule_name=rule_name)

    def _recover(self, rule_name: str, error: RecognitionError) -> None:
        """Panic-mode sync-and-return (ANTLR's ``recover``): report, then
        consume tokens until one that some rule on the invocation stack
        can use right after its pending call returns.  The resync set is
        the union of per-ATN-state continuation sets over the whole
        follow stack (ANTLR's combined-follow computation) plus EOF —
        finer than rule-level FOLLOW because it reflects this exact call
        chain, not every call site in the grammar."""
        # Recovery outcomes depend on parser-global state (cascade
        # suppression, last-recovery position), so every rule open while
        # it runs derives impurely — none of them may be reused.
        self._impure_ops += 1
        budget = self.options.budget
        if budget is not None and budget.max_recovery_attempts is not None:
            at = self.stream.index
            attempts = self._recovery_attempts.get(at, 0) + 1
            self._recovery_attempts[at] = attempts
            if attempts > budget.max_recovery_attempts:
                raise BudgetExceededError(
                    "recovery attempts", budget.max_recovery_attempts,
                    spent=attempts, token=self.stream.lt(1), index=at)
        reported = self.options.error_strategy.report(self, error)
        resync = self._recovery_set()
        skipped = []
        while self.stream.la(1) not in resync and self.stream.la(1) != EOF:
            # Resync can skip arbitrarily far on corrupted input (or
            # forever on an unbounded stream); keep the deadline honest
            # inside the loop, not just at rule boundaries.
            self._check_deadline()
            skipped.append(self.stream.consume())
        if (self.stream.index == self._last_recovery_index
                and self.stream.la(1) != EOF):
            # No progress since the previous recovery at this position:
            # drop one token so cascading errors cannot loop forever
            # (ANTLR's single-token failsafe).
            skipped.append(self.stream.consume())
        self._last_recovery_index = self.stream.index
        if self._telemetry is not None:
            self._telemetry.record_recovery("panic", rule_name,
                                            self.stream.index,
                                            skipped=len(skipped))
        if reported or skipped:
            self._attach_error_node(ErrorNode(
                error=error if reported else None, tokens=skipped))

    # -- recovery support -------------------------------------------------------

    def _continuations(self):
        """Per-ATN-state continuation sets, built lazily on the first
        error and shared by every parser over the same analysis (clean
        parses never pay for them)."""
        cont = getattr(self.analysis, "_continuations", None)
        if cont is None:
            from repro.analysis.sets import AtnContinuationSets, GrammarSets

            cont = AtnContinuationSets(self.atn, GrammarSets(self.grammar))
            self.analysis._continuations = cont
        return cont

    def _viable_after(self, state, rule_name: str) -> FrozenSet[int]:
        """Token types legal immediately after the expected token at
        ``state``, given the live invocation stack; drives single-token
        insertion (is the offending token usable once the missing one is
        synthesized?)."""
        cont = self._continuations()
        tokens, reaches_end = cont.continuation(state, rule_name)
        viable = set(tokens)
        if reaches_end:
            for follow_state, caller in reversed(self._follow_stack):
                more, reaches_end = cont.continuation(follow_state, caller)
                viable |= more
                if not reaches_end:
                    break
            else:
                viable.add(EOF)
        return frozenset(viable)

    def _recovery_set(self) -> FrozenSet[int]:
        """ANTLR's combined follow set: union, over every invocation on
        the stack, of what that caller can match once its pending rule
        call returns — plus EOF so recovery can always park at end of
        input."""
        cont = self._continuations()
        resync = {EOF}
        for follow_state, caller in self._follow_stack:
            tokens, _ = cont.continuation(follow_state, caller)
            resync |= tokens
        return frozenset(resync)

    def _attach_error_node(self, node: ErrorNode) -> None:
        """Record a repair in the current rule's tree node (no-op when
        tree building is off)."""
        self._impure_ops += 1  # a repaired subtree is never reusable
        self._builder.attach(node)

    def _check_deadline(self) -> None:
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise BudgetExceededError(
                "deadline", self.options.budget.deadline_limit,
                token=self.stream.lt(1), index=self.stream.index)

    # -- prediction ------------------------------------------------------------------------

    def _adaptive_predict(self, decision: int, frame: Dict[str, Any]) -> int:
        """Run the lookahead DFA for ``decision`` (Figure 5 rules).

        Returns the predicted 1-based alternative.  Reports the event to
        the profiler with the lookahead depth used and any backtracking.

        The default implementation executes the decision's flat
        :class:`~repro.tables.lookahead.DecisionTable` through its
        derived execution index: a fixed-k=1 prediction (the common case
        per the paper's Table 2) is a single dict probe, and deeper
        walks touch only list indexing and per-state ``token -> target``
        dicts — no attribute chases, no allocation.
        ``ParserOptions(use_tables=False)`` selects
        :meth:`_adaptive_predict_graph`, the object-graph reference walk.
        """
        record = self.analysis.records[decision]
        if not self.options.use_tables:
            return self._adaptive_predict_graph(decision, record, frame)
        degraded = False
        row = self._table_rows[decision]
        if row is None:
            table = record.table
            if table is None or table.start < 0:
                self._materialize_dfa(decision, record)
                table = record.table
                degraded = True
            fast, rows = table.execution_index()
            row = (table, table.start, fast.get, rows, table.accept_alt,
                   table.pred_index)
            self._table_rows[decision] = row
        # Bind everything the hot loop touches to locals once.
        table, start, fast_get, rows, accept_alt, pred_index = row
        la = self.stream.la
        budget = self.options.budget
        max_steps = budget.max_dfa_steps if budget is not None else None
        deadline = self._deadline
        steps = self._dfa_steps  # local counter, written back in finally
        offset = 0  # tokens of lookahead consumed along DFA edges
        probed = 0  # deepest la() offset actually examined
        backtracked = False
        backtrack_depth = 0
        used_predicates = False
        try:
            # One-probe fast path: start-state edges landing directly on
            # an accept state (the fixed-k=1 majority).  Step/budget
            # accounting matches the two loop iterations it replaces.
            alt = fast_get(la(1))
            if alt is not None:
                offset = 1
                probed = 1
                steps += 2
                if max_steps is not None and steps > max_steps:
                    raise BudgetExceededError(
                        "dfa steps", max_steps, spent=steps,
                        token=self.stream.lt(1), index=self.stream.index)
                if deadline is not None and steps & 63 == 0:
                    self._check_deadline()
                return alt
            probed = 1  # the fast-path miss still examined la(1)
            state = start
            while True:
                steps += 1
                if max_steps is not None and steps > max_steps:
                    raise BudgetExceededError(
                        "dfa steps", max_steps, spent=steps,
                        token=self.stream.lt(offset + 1),
                        index=self.stream.index + offset)
                if deadline is not None and steps & 63 == 0:
                    self._check_deadline()
                alt = accept_alt[state]
                if alt > 0:
                    return alt
                token_type = la(offset + 1)
                if offset >= probed:
                    probed = offset + 1
                nxt = rows[state].get(token_type)
                if nxt is not None:
                    offset += 1
                    state = nxt
                    continue
                if pred_index[state] != pred_index[state + 1]:
                    used_predicates = True
                    # Gates can speculate (nested predictions read the
                    # shared step counter) — sync it around the call.
                    self._dfa_steps = steps
                    alt, backtracked, backtrack_depth = self._evaluate_gates(
                        table, state, frame)
                    steps = self._dfa_steps
                    if alt is not None:
                        return alt
                token = self.stream.lt(offset + 1)
                raise NoViableAltError(decision, token,
                                       self.stream.index + offset,
                                       rule_name=record.rule_name)
        finally:
            self._dfa_steps = steps
            if self._track_look and probed:
                # Tokens [index, index + probed - 1] were examined here
                # (plus whatever depth speculation reached): lift the
                # parse-global lookahead high-water mark over them.
                reach = self.stream.index + max(probed - 1, backtrack_depth)
                if reach > self._look_hwm:
                    self._look_hwm = reach
            options = self.options
            if options.trace is not None or not self._speculating and (
                    options.profiler is not None or self._telemetry is not None):
                self._observe_predict(decision, record, max(offset, 1),
                                      backtracked, backtrack_depth,
                                      used_predicates, degraded)

    def _adaptive_predict_graph(self, decision: int, record,
                                frame: Dict[str, Any]) -> int:
        """Reference prediction walking the object-graph DFA directly.

        Kept behind ``use_tables=False`` as the semantic baseline the
        flat tables are differentially tested (and benchmarked) against.
        """
        dfa = record.dfa
        degraded = False
        if dfa is None or dfa.start is None:
            dfa = self._materialize_dfa(decision, record)
            degraded = True
        state = dfa.start
        budget = self.options.budget
        max_steps = budget.max_dfa_steps if budget is not None else None
        offset = 0  # tokens of lookahead consumed along DFA edges
        probed = 0  # deepest la() offset actually examined
        backtracked = False
        backtrack_depth = 0
        used_predicates = False
        try:
            while True:
                self._dfa_steps += 1
                if max_steps is not None and self._dfa_steps > max_steps:
                    raise BudgetExceededError(
                        "dfa steps", max_steps, spent=self._dfa_steps,
                        token=self.stream.lt(offset + 1),
                        index=self.stream.index + offset)
                if self._deadline is not None and self._dfa_steps % 64 == 0:
                    self._check_deadline()
                if state.is_accept:
                    return state.predicted_alt
                token_type = self.stream.la(offset + 1)
                if offset >= probed:
                    probed = offset + 1
                nxt = state.edges.get(token_type)
                if nxt is not None:
                    offset += 1
                    state = nxt
                    continue
                if state.predicate_edges:
                    used_predicates = True
                    alt, backtracked, backtrack_depth = self._evaluate_predicates(
                        state, decision, frame)
                    if alt is not None:
                        return alt
                token = self.stream.lt(offset + 1)
                raise NoViableAltError(decision, token,
                                       self.stream.index + offset,
                                       rule_name=record.rule_name)
        finally:
            if self._track_look and probed:
                reach = self.stream.index + max(probed - 1, backtrack_depth)
                if reach > self._look_hwm:
                    self._look_hwm = reach
            options = self.options
            if options.trace is not None or not self._speculating and (
                    options.profiler is not None or self._telemetry is not None):
                self._observe_predict(decision, record, max(offset, 1),
                                      backtracked, backtrack_depth,
                                      used_predicates, degraded)

    def _observe_predict(self, decision: int, record, depth: int,
                         backtracked: bool, backtrack_depth: int,
                         used_predicates: bool, degraded: bool) -> None:
        """Report one prediction to the profiler, telemetry and trace
        listener, in that order."""
        options = self.options
        if options.profiler is not None and not self._speculating:
            options.profiler.record(decision, depth, backtracked,
                                    backtrack_depth)
        tel = self._telemetry
        if tel is not None and not self._speculating:
            tel.record_predict(decision, record.rule_name, depth,
                               dfa_hit=not (used_predicates or degraded),
                               backtracked=backtracked,
                               backtrack_depth=backtrack_depth,
                               index=self.stream.index)
            if used_predicates:
                tel.record_fallback(
                    decision, record.rule_name,
                    "synpred" if backtracked else "predicates",
                    self.stream.index)
            if degraded:
                tel.record_fallback(decision, record.rule_name,
                                    "degraded", self.stream.index)
        if options.trace is not None:
            options.trace.predict(decision, depth, backtracked)

    def _materialize_dfa(self, decision: int, record):
        """Degraded mode: this decision has no usable lookahead DFA (a
        corrupted cache entry was salvaged around it) — run the static
        analysis for just this decision now, graft the result onto the
        shared record so later parses hit the fast path, and record a
        structured degradation event instead of failing the parse."""
        from repro.analysis.construction import AnalysisOptions, DecisionAnalyzer
        from repro.runtime.profiler import DegradationEvent

        analyzer = DecisionAnalyzer(self.atn, decision,
                                    start_rule=self.grammar.start_rule,
                                    options=AnalysisOptions())
        dfa = analyzer.create_dfa()
        record.replace_dfa(dfa)
        event = DegradationEvent(decision, record.rule_name,
                                 "decision DFA rebuilt at parse time")
        self.degradations.append(event)
        if self.options.profiler is not None:
            self.options.profiler.record_degradation(event)
        if self._telemetry is not None:
            self._telemetry.record_degradation(event)
        return dfa

    def _evaluate_gates(self, table, state: int, frame: Dict[str, Any]):
        """Flat-table twin of :meth:`_evaluate_predicates`: walk the
        state's row of the predicate arrays in stored (evaluation) order;
        gate objects come interned from the table's pool."""
        contexts, pred_ctx, pred_alt = table.pool.contexts, table.pred_ctx, table.pred_alt
        return self._first_true_edge(
            ((contexts[pred_ctx[i]] if pred_ctx[i] >= 0 else None, pred_alt[i])
             for i in range(table.pred_index[state], table.pred_index[state + 1])),
            frame)

    def _evaluate_predicates(self, state, decision: int, frame: Dict[str, Any]):
        """Try predicate edges in alternative order; first success wins.

        Each edge carries a hoisted semantic context (AND/OR tree over
        predicates); synpred leaves evaluate by speculative parsing.
        """
        return self._first_true_edge(
            ((context, alt) for context, alt, _target in state.predicate_edges),
            frame)

    def _first_true_edge(self, edges, frame: Dict[str, Any]):
        """``(alt, backtracked, deepest speculation)`` for the first of the
        ``(context, alt)`` edges whose context holds; a None context is
        the ordered-choice default.  ``alt`` is None when none holds."""
        stats = {"backtracked": False, "deepest": 0}

        def eval_leaf(predicate) -> bool:
            if predicate.is_synpred:
                stats["backtracked"] = True
                ok, depth = self._eval_synpred(predicate.synpred)
                stats["deepest"] = max(stats["deepest"], depth)
                return ok
            return self._eval_predicate(predicate, frame)

        for context, alt in edges:
            if context is None or context.evaluate(eval_leaf):
                return alt, stats["backtracked"], stats["deepest"]
        return None, stats["backtracked"], stats["deepest"]

    def _eval_synpred(self, rule_name: str) -> Tuple[bool, int]:
        """Speculatively parse the synpred fragment rule.

        Returns (matched, speculation depth in tokens).  The stream is
        always rewound; actions stay off; failures are memoized.
        """
        budget = self.options.budget
        if budget is not None:
            self._synpred_calls += 1
            if (budget.max_synpred_invocations is not None
                    and self._synpred_calls > budget.max_synpred_invocations):
                raise BudgetExceededError(
                    "synpred invocations", budget.max_synpred_invocations,
                    spent=self._synpred_calls, token=self.stream.lt(1),
                    index=self.stream.index)
            if (budget.max_backtrack_depth is not None
                    and self._speculating + 1 > budget.max_backtrack_depth):
                raise BudgetExceededError(
                    "backtrack depth", budget.max_backtrack_depth,
                    spent=self._speculating + 1, token=self.stream.lt(1),
                    index=self.stream.index)
            self._check_deadline()
        mark = self.stream.mark()
        self._speculating += 1
        prev_deepest = self._deepest_spec_index
        self._deepest_spec_index = mark
        tel = self._telemetry
        spec_span = tel.start_span("synpred:" + rule_name) if tel is not None else None
        matched = False
        try:
            self._run_rule(rule_name, [])
            matched = True
        except RecognitionError as e:
            if (self._deepest_spec_error is None
                    or (e.index or 0) >= (self._deepest_spec_error.index or 0)):
                self._deepest_spec_error = e
        finally:
            depth = max(self._deepest_spec_index, self.stream.index) - mark
            self._deepest_spec_index = max(prev_deepest, self._deepest_spec_index)
            self._speculating -= 1
            if spec_span is not None:
                tel.end_span(spec_span)
                tel.record_synpred(rule_name, matched)
            # The memo table persists for the whole parse (ANTLR policy):
            # repeated speculation of the same rule at the same position
            # across decisions is what makes nested backtracking linear.
            self.stream.seek(mark)
            release = getattr(self.stream, "release", None)
            if release is not None:
                release(mark)  # lets streaming streams shrink their window
        return matched, depth

    # -- embedded host-language code ---------------------------------------------------------

    def _action_env(self) -> Dict[str, Any]:
        env = {
            "state": self.options.user_state,
            "parser": self,
            "stream": self.stream,
            "LA": self.stream.la,
            "LT": self.stream.lt,
            "TT": self._token_type_named,
        }
        env.update(self.options.action_globals)
        return env

    def _token_type_named(self, name: str) -> int:
        """Resolve a token display name to its type (``TT`` in actions).

        Accepts both bare token names (``ID``) and quoted literals
        (``"'*'"``); used by generated precedence predicates.
        """
        if name.startswith("'"):
            t = self.vocabulary.type_of_literal(name[1:-1])
        else:
            t = self.vocabulary.type_of(name)
        if t is None:
            raise ActionError("TT(%r)" % name, KeyError(name))
        return t

    def _eval_predicate(self, predicate, frame: Dict[str, Any]) -> bool:
        self._impure_ops += 1  # may read user state the tokens don't capture
        try:
            return bool(eval(predicate.code, self._action_env(), frame))
        except RecognitionError:
            raise
        except Exception as e:
            raise ActionError(predicate.code, e) from e

    def _eval_expr(self, expr: str, frame: Dict[str, Any]) -> Any:
        self._impure_ops += 1  # rule-argument expressions can touch state
        try:
            return eval(expr, self._action_env(), frame)
        except Exception as e:
            raise ActionError(expr, e) from e

    def _execute_action(self, action, frame: Dict[str, Any]) -> None:
        if self._speculating and not action.always_exec:
            return  # mutators are deactivated during speculation (Section 4.3)
        self._impure_ops += 1  # grafting would skip re-running this code
        try:
            exec(action.code, self._action_env(), frame)
        except RecognitionError:
            raise
        except Exception as e:
            raise ActionError(action.code, e) from e
