(** The simplify and select engines shared by the three heuristics.

    Terminology follows the paper: *simplify* removes nodes from the graph,
    producing a removal order; *select* reinserts them in reverse order and
    assigns each the lowest color absent from its already-colored
    neighbors.

    Both Chaitin's and Briggs's simplify use the identical engine and the
    identical cost/degree tie-breaking, so the paper's §2.3 guarantee —
    Briggs spills a subset of what Chaitin spills — holds by construction
    and is verified behaviorally in the test suite. *)

type spill_policy =
  | Spill_during_simplify (* Chaitin: blocked node marked, not pushed *)
  | Defer_to_select (* Briggs: blocked node pushed optimistically *)

type simplify_result = {
  order : int list; (* removal order, first-removed first *)
  marked : int list; (* Chaitin-marked spills (empty when deferring) *)
}

(** [simplify g ~k ~costs ~policy] runs the simplification phase.
    [costs.(n)] is node [n]'s precomputed spill cost, [>= 0]; [infinity]
    marks never-spill nodes (spill temporaries). Precolored nodes are not
    removed. Degree-< k nodes are removed lowest-id first; blocked states
    elect through {!Spill_election}: the minimum cost/degree node, ties
    by id, infinite-cost nodes only when nothing finite remains.

    Raises [Invalid_argument] on a negative or NaN cost, and [Failure] in
    Chaitin mode if every remaining node has infinite cost (an
    unspillable, uncolorable core — indicates a bug upstream). *)
val simplify :
  Igraph.t -> k:int -> costs:float array -> policy:spill_policy ->
  simplify_result

type select_result = {
  colors : int option array; (* colors in [0, k); None = uncolored *)
  uncolored : int list; (* nodes select could not color *)
}

(** [select g ~k ~order] reinserts [order] back-to-front. Precolored node
    [p] always has color [p]. Nodes in the graph but absent from [order]
    (Chaitin's marked spills) stay uncolored and do not block neighbors. *)
val select : Igraph.t -> k:int -> order:int list -> select_result

(** Smallest-last (Matula–Beck) removal order over the same graph,
    implemented with the degree-bucket structure of §2.2 and the
    restart-at-[i-1] search shortcut. Ignores spill costs. [buckets] is
    an optional reusable bucket structure (reset before use). *)
val smallest_last_order :
  ?buckets:Ra_support.Degree_buckets.t -> Igraph.t -> int list
