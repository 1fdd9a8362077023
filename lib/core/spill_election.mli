(** Chaitin's spill election, shared by {!Coloring.simplify} and
    {!Irc.run}: when no node of degree < k is left, elect the candidate
    of minimum [cost / max degree 1], ties to the lowest id. Infinite
    costs sort last, so an infinite-cost node is elected only when no
    finite one remains.

    Candidates live in a lazy binary min-heap of (ratio, id) entries.
    An entry is valid when its node is still a candidate and the stored
    ratio equals its current ratio; invalid entries are dropped, and an
    entry whose ratio has changed is re-keyed in place. The first valid
    top is the exact minimum as long as every candidate keeps an entry
    at or below its current ratio. The caller must therefore {!push} a
    node whenever its ratio may fall or it becomes a candidate. Costs
    are [>= 0] ({!check_costs}), so a ratio falls only when a degree
    rises. Simplify only lowers degrees, so it never pushes; {!Irc}
    pushes after a combine. *)

type t

(** [check_costs ~who costs] raises [Invalid_argument] naming [who] when
    a cost is negative or NaN: the heap's order is exact only for costs
    in [[0, infinity]]. *)
val check_costs : who:string -> float array -> unit

(** [create ~costs ~degree ~first ~candidate] elects among the nodes
    [first .. Array.length costs - 1] for which [candidate] holds,
    reading their live costs and degrees from [costs] and [degree] at
    each election. The heap is built at the first {!elect}, so a run
    that never elects pays nothing. *)
val create :
  costs:float array ->
  degree:int array ->
  first:int ->
  candidate:(int -> bool) ->
  t

(** [push t i] records node [i] at its current ratio. A no-op before the
    first election (the build reads every candidate then). *)
val push : t -> int -> unit

(** [elect t] removes and returns the elected candidate, or [-1] when no
    candidate is left. The caller makes it a non-candidate. *)
val elect : t -> int
