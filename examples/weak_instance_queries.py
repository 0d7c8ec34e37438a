"""Querying a database through its weak instances.

Stored relations rarely carry every fact explicitly; the dependencies
let new facts be *derived* (Section 2's motivating example).  The
representative instance — the chased ``I(p)`` — materializes exactly
the derivable information, and total projections answer queries over
any attribute combination, stored or not.

Run with::

    python examples/weak_instance_queries.py
"""

from repro import DatabaseSchema, parse_state
from repro.chase import weak_instance
from repro.weak import derivable, full_reduce, window

schema = DatabaseSchema.parse("CT(C,T); CHR(C,H,R); SC(S,C)")
fds = "C -> T; C H -> R"

state = parse_state(
    schema,
    """
    CT: (CS101, Smith), (CS245, Codd)
    CHR: (CS101, Mon-10, 313), (CS101, Wed-10, 313), (CS245, Tue-14, 101)
    SC: (alice, CS101), (bob, CS101), (bob, CS245)
    """,
)
print(state.pretty())
print()

print("Who teaches where and when?  (T-H-R is stored in NO relation)")
for t in window(state, fds, "T H R"):
    print(f"   {t.value('T'):<6} {t.value('H'):<7} room {t.value('R')}")
print()

print("Which students are taught by whom?  (S-T crosses two relations)")
for t in window(state, fds, "S T"):
    print(f"   {t.value('S'):<6} taught by {t.value('T')}")
print()

print("Which students sit in which rooms?  (not derivable: the room")
print("depends on the hour, and no dependency ties students to hours)")
print(f"   S-R facts: {len(window(state, fds, 'S R'))}")
print()

print("Point queries:")
for fact in (
    {"T": "Smith", "R": 313},
    {"T": "Codd", "R": 313},
    {"S": "bob", "T": "Smith"},
):
    print(f"   derivable {fact}: {derivable(state, fds, fact)}")
print()

print("The weak instance behind these answers (labelled nulls = unknown):")
weak = weak_instance(state, fds)
for row in weak:
    print("  ", row)
print()

print("Semijoin reduction (acyclic schema): dangling tuples removed")
reduced = full_reduce(state)
removed = state.total_tuples() - reduced.total_tuples()
print(f"   {removed} dangling tuple(s); globally consistent: "
      f"{reduced.is_join_consistent()}")
print()

# -- the relational query layer ---------------------------------------------
#
# The same windows compose into relational queries: scans are windows,
# selections push equality filters into the tableau's value indexes,
# and the sharded service answers each scan from the shards its window
# plan reads: a scheme-embedded scan from the scheme's own shard, a
# window that needs cross-scheme derivation by FD lookups into the
# other shards' indexes.

from repro.weak.sharded import ShardedWeakInstanceService

service = ShardedWeakInstanceService.from_state(state, fds)

print("Filtered scheme-local query (pushed into the CHR shard's indexes):")
for t in service.query("select(C=CS101, [C H R])"):
    print(f"   {t.value('C')} {t.value('H'):<7} room {t.value('R')}")
print()

print("Cross-scheme join (who sits with whom — built from two windows):")
rows = service.query("join([S C], select(T=Smith, [C T]))")
for t in sorted(rows, key=str):
    print(f"   {t.value('S'):<6} takes {t.value('C')} from {t.value('T')}")
print()

print("explain() shows routing, pushed filters, and cache behaviour:")
report = service.explain("select(C=CS101, [C H R])")
for line in report.render().splitlines():
    print("   " + line)
