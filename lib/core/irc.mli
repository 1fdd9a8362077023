(** George–Appel iterated register coalescing: conservative coalescing
    (Briggs and George tests) interleaved with the degree-ordered
    Simplify loop, on move worklists.

    The engine consumes one class graph plus the move pairs Build staged
    under its [Conservative] mode and runs Appel's worklist algorithm:
    every move sits in exactly one of five sets — {e worklist} (ready to
    test), {e active} (blocked, re-enabled when a neighbor's degree
    drops below k), {e frozen} (given up: an endpoint was frozen or
    spill-elected), {e constrained} (endpoints interfere), {e coalesced}
    — and every node in exactly one of the simplify / freeze / spill
    worklists until it lands on the select stack or is coalesced away.
    A move is coalesced only when the Briggs test (the combined node has
    fewer than k significant-degree neighbors) or the George test (every
    neighbor of one endpoint interferes with the other or is
    insignificant) proves the merge safe, so — unlike the aggressive
    pre-pass — coalescing can never make a colorable graph uncolorable.

    Spill elections go through {!Spill_election}, the rule
    {!Coloring.simplify} uses (minimum cost/degree, ties by lowest id,
    infinite cost last); a combine pushes its survivor, whose degree and
    cost it raised. Elections are
    optimistic: elected nodes are pushed and the select phase decides,
    so spill decisions match the Briggs heuristic's character. The
    underlying {!Igraph} is never mutated; combine-time edges live in a
    private overlay. *)

(** Move-fate counters, accumulated across one {!run}. [combined]
    counts conservative merges (one per coalesced move pair; transitive
    duplicates — moves whose endpoints were already aliased together —
    are marked coalesced without counting), matching how the aggressive
    path counts union merges. [frozen] counts moves abandoned by a
    freeze or spill election; [constrained] moves whose endpoints turned
    out to interfere. *)
type stats = {
  mutable combined : int;
  mutable constrained : int;
  mutable frozen : int;
}

val fresh_stats : unit -> stats

type result = {
  colors : int option array;
    (** [Some c] for every colored node; [None] for optimistic spills
        {e and} for coalesced nodes — a coalesced node's color is its
        surviving representative's, resolved through [node_alias] (or,
        in the pipeline, through the web union-find the [on_coalesce]
        hook mutated). *)
  uncolored : int list;
    (** Nodes select found no free color for, in discovery order —
        the pass's spill set. Never contains coalesced nodes. *)
  node_alias : int array;
    (** Fully-resolved node aliasing: [node_alias.(i)] is the surviving
        node of [i]'s coalesced class ([i] itself when uncoalesced). *)
}

(** [run g ~k ~costs ~moves] colors [g] with iterated conservative
    coalescing. [moves] are (dst, src) node pairs — deduplicated,
    spill-temp-free, never precolored (raises [Invalid_argument]
    otherwise; physical registers reach this allocator's graphs only as
    call clobbers, not copies). [costs] follows {!Coloring.simplify}:
    a negative or NaN cost raises [Invalid_argument].

    [on_coalesce u v], when given, is called at each conservative merge
    and must return the endpoint that survives; the pipeline uses it to
    union the endpoints' webs and report the union-find winner, keeping
    node aliasing and web aliasing consistent. Called before the merge
    is applied, exactly once per counted combine.

    The worklist drive (simplification, conservative tests, freezes and
    spill elections) reports into [tele]/[timer] as one
    {!Ra_support.Phase.Coalesce} span; the assignment sweep reports as
    {!Ra_support.Phase.Color} — an irc pass traces as
    build/coalesce/color where the other heuristics trace as
    build/simplify/color.

    Deterministic: worklist disciplines are fixed (ascending seed order,
    LIFO pushes, FIFO moves), so equal inputs give equal outputs. *)
val run :
  ?timer:Ra_support.Timer.t ->
  ?tele:Ra_support.Telemetry.t ->
  ?stats:stats ->
  ?on_coalesce:(int -> int -> int) ->
  Igraph.t ->
  k:int ->
  costs:float array ->
  moves:(int * int) array ->
  result
