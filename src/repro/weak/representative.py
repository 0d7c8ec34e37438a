"""The representative instance and weak-instance query answering.

The introduction of the paper motivates weak instances with an
inference example: from ``CT ∋ (CS101, Smith)``, ``CHR ∋ (CS101,
Mon-10, 313)`` and the FD ``C → T``, one *deduces* that Smith is in
room 313 on Monday at 10.  Formally: chase ``I(p)`` with the
dependencies; tuples of the final tableau whose ``X``-values are all
constants form the derivable ``X``-facts (the *total projection* or
"window" of [S1]/[M]).

For FDs embedded in the schema the FD-only chase suffices (Lemma 4),
so every query here is polynomial.

The functions below are one-shot: each call chases ``I(p)`` once with
:func:`repro.chase.engine.chase_state`, which routes a big enough state
through the column-major bulk kernel (:mod:`repro.chase.bulk`) like
every other from-scratch chase.  The merge log stays off: the tableau
never serves a retraction.  To answer *many* queries against an
evolving state, hold on to a
:class:`~repro.weak.service.WeakInstanceService` instead of re-calling
these (that is precisely the rebuild-per-query baseline the service's
benchmarks beat).
"""

from __future__ import annotations

from typing import Iterable, Union

from repro.chase.engine import chase_state
from repro.chase.tableau import ChaseTableau
from repro.data.relations import RelationInstance
from repro.data.states import DatabaseState
from repro.deps.fd import FD
from repro.deps.fdset import FDSet, as_fdset
from repro.exceptions import InconsistentStateError
from repro.schema.attributes import AttributeSet, AttrsLike


def representative_instance(
    state: DatabaseState, fds: Union[FDSet, Iterable[FD]]
) -> ChaseTableau:
    """The chased tableau ``I(p)`` (FD-rules to fixpoint).

    Raises :class:`~repro.exceptions.InconsistentStateError` when the
    state does not satisfy the FDs (no weak instance exists).
    """
    result = chase_state(state, as_fdset(fds))
    if not result.consistent:
        raise InconsistentStateError(
            f"state is not satisfying: {result.contradiction}"
        )
    return result.tableau


def window(
    state: DatabaseState, fds: Union[FDSet, Iterable[FD]], attrset: AttrsLike
) -> RelationInstance:
    """The derivable ``X``-facts: the ``X``-total projection of the
    representative instance."""
    return representative_instance(state, fds).total_projection(
        AttributeSet(attrset)
    )


def derivable(
    state: DatabaseState,
    fds: Union[FDSet, Iterable[FD]],
    fact: dict,
) -> bool:
    """Is the fact (an attribute→value mapping) derivable from the
    state under the dependencies?"""
    target = AttributeSet(list(fact))
    wanted = tuple(fact[a] for a in target)
    return any(
        tuple(t.value(a) for a in target) == wanted
        for t in window(state, fds, target)
    )
