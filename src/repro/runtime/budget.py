"""Parse-time resource budgets.

The paper bounds *analysis* effort explicitly (Section 5.3's recursion
bound *m*, the DFA state "land mine" cap); a production runtime needs the
same discipline at *parse* time, where hostile or corrupted input can
otherwise drive adaptive prediction, speculation, or error recovery into
pathological territory.  :class:`ParserBudget` is a bundle of immutable
limits threaded through :class:`~repro.runtime.parser.LLStarParser`;
crossing any of them raises a typed
:class:`~repro.exceptions.BudgetExceededError` instead of hanging,
blowing the Python stack, or looping in recovery.

All limits default to ``None`` (unlimited); the parser owns the per-parse
counters, so one budget object can safely serve many parsers.
"""

from __future__ import annotations

import time
from typing import Optional


class ParserBudget:
    """Immutable resource limits for one or more parses.

    ``max_dfa_steps``
        Total token-edge steps taken across every ``_adaptive_predict``
        call of the parse (bounds cyclic-DFA lookahead on adversarial
        input).
    ``max_backtrack_depth``
        Maximum nesting of speculative synpred evaluations (the paper
        never needs deep nesting on real grammars; runaway nesting means
        pathological input).
    ``max_synpred_invocations``
        Total speculative sub-parses launched during the parse.
    ``max_rule_depth``
        Maximum rule-invocation depth — the parse-time analogue of the
        analysis recursion bound *m*; bounds the parser's frame stack
        on deeply nested input (rule calls cost no Python frames).
    ``max_recovery_attempts``
        Panic-mode recoveries allowed at one stream position before the
        parse is declared unrecoverable (a stuck recovery loop otherwise
        spins forever on some corrupted inputs).
    ``deadline_seconds``
        Wall-clock limit for the whole parse, measured from
        ``parse()`` entry (relative sugar for the common case).
    ``deadline_at``
        Absolute ``time.monotonic()`` timestamp the parse must finish
        by.  Unlike ``deadline_seconds`` it does not restart at each
        stage: a service can stamp one deadline at admission time and
        propagate it through lex, parse, and recovery without
        re-deriving a relative budget per stage.  When both are set the
        parse honours whichever expires first.
    """

    __slots__ = ("max_dfa_steps", "max_backtrack_depth",
                 "max_synpred_invocations", "max_rule_depth",
                 "max_recovery_attempts", "deadline_seconds", "deadline_at")

    def __init__(self,
                 max_dfa_steps: Optional[int] = None,
                 max_backtrack_depth: Optional[int] = None,
                 max_synpred_invocations: Optional[int] = None,
                 max_rule_depth: Optional[int] = None,
                 max_recovery_attempts: Optional[int] = None,
                 deadline_seconds: Optional[float] = None,
                 deadline_at: Optional[float] = None):
        for name, value in (("max_dfa_steps", max_dfa_steps),
                            ("max_backtrack_depth", max_backtrack_depth),
                            ("max_synpred_invocations", max_synpred_invocations),
                            ("max_rule_depth", max_rule_depth),
                            ("max_recovery_attempts", max_recovery_attempts)):
            if value is not None and value < 1:
                raise ValueError("%s must be >= 1 or None" % name)
        if deadline_seconds is not None and deadline_seconds < 0:
            raise ValueError("deadline_seconds must be >= 0 or None")
        self.max_dfa_steps = max_dfa_steps
        self.max_backtrack_depth = max_backtrack_depth
        self.max_synpred_invocations = max_synpred_invocations
        self.max_rule_depth = max_rule_depth
        self.max_recovery_attempts = max_recovery_attempts
        self.deadline_seconds = deadline_seconds
        self.deadline_at = deadline_at

    @classmethod
    def defensive(cls, deadline_seconds: Optional[float] = 10.0) -> "ParserBudget":
        """A budget suitable for hostile input: generous enough that any
        legitimate parse of reasonable size fits, tight enough that the
        pathological cases terminate promptly."""
        return cls(max_dfa_steps=2_000_000,
                   max_backtrack_depth=64,
                   max_synpred_invocations=500_000,
                   max_rule_depth=400,
                   max_recovery_attempts=8,
                   deadline_seconds=deadline_seconds)

    def deadline_from_now(self, now: Optional[float] = None) -> Optional[float]:
        """Absolute monotonic deadline for a parse starting now.

        Combines the relative ``deadline_seconds`` (counted from
        ``now``) with the absolute ``deadline_at``; whichever expires
        first wins.  ``None`` when the budget carries no deadline.
        """
        candidates = []
        if self.deadline_seconds is not None:
            if now is None:
                now = time.monotonic()
            candidates.append(now + self.deadline_seconds)
        if self.deadline_at is not None:
            candidates.append(self.deadline_at)
        return min(candidates) if candidates else None

    @property
    def deadline_limit(self):
        """Human-facing deadline bound for error messages: the relative
        seconds when set, otherwise the absolute timestamp."""
        if self.deadline_seconds is not None:
            return self.deadline_seconds
        return self.deadline_at

    def with_deadline_at(self, deadline_at: float) -> "ParserBudget":
        """A copy of this budget clamped by an absolute monotonic
        deadline (keeps any tighter deadline already present).

        This is the propagation primitive the serve layer uses: one
        deadline is stamped at request admission and the same instant
        bounds queue wait, lexing, parsing, and recovery — no stage
        re-derives its own window.
        """
        if self.deadline_at is not None:
            deadline_at = min(deadline_at, self.deadline_at)
        return ParserBudget(
            max_dfa_steps=self.max_dfa_steps,
            max_backtrack_depth=self.max_backtrack_depth,
            max_synpred_invocations=self.max_synpred_invocations,
            max_rule_depth=self.max_rule_depth,
            max_recovery_attempts=self.max_recovery_attempts,
            deadline_seconds=self.deadline_seconds,
            deadline_at=deadline_at)

    def __repr__(self):
        limits = ", ".join("%s=%s" % (n, getattr(self, n))
                           for n in self.__slots__
                           if getattr(self, n) is not None)
        return "ParserBudget(%s)" % (limits or "unlimited")
